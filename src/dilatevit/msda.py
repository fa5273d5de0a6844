"""Multi-scale dilated attention blocks.

A block gives each head its own slice of the channels and its own dilation
rate, runs the windowed dilated attention of every head in one graph op and
applies an output projection. Around that sits the usual pre-norm
transformer plumbing: a depth-wise 3x3 convolution added residually as a
conditional position encoding, then attention and MLP branches with
residual connections.

The same block shell also hosts ordinary global multi-head self-attention,
selected per stage by kind 'D' (dilated) or 'G' (global). It is one graph
op too, whose heads read the same fused q|k|v projection as channel views.

Head i receives dilation rate rates[i % len(rates)]; the head count must be
a multiple of the number of rates so every rate is used equally often.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .autograd import Node, Parameter, graph
from .errors import ConfigError, ShapeError
from .swda import SwdaConfig


@dataclass(frozen=True)
class MsdaBlockSpec:
    dim: int
    n_heads: int
    dilation_rates: tuple[int, ...] = (1, 2, 3)
    kernel_w: int = 3
    edge_mode: str = "zero_pad"
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.n_heads < 1 or self.dim % self.n_heads != 0:
            raise ConfigError(f"n_heads must be >= 1 and divide dim {self.dim}, got {self.n_heads}")
        rates = tuple(self.dilation_rates)
        if not rates or self.n_heads % len(rates) != 0:
            raise ConfigError(
                f"n_heads {self.n_heads} must be a multiple of the number of dilation rates (one or more), got {rates}"
            )
        for r in dict.fromkeys(rates):  # SwdaConfig owns the window, rate, d_k and edge rules
            SwdaConfig(w=self.kernel_w, r=r, d_k=self.d_k, edge_mode=self.edge_mode)

    @property
    def d_k(self) -> int:
        return self.dim // self.n_heads

    def head_rates(self) -> tuple[int, ...]:
        """Per-head rates, cycling the configured list across the heads."""
        rates = tuple(self.dilation_rates)
        return tuple(rates[i % len(rates)] for i in range(self.n_heads))

    def head_cfg(self, head: int) -> SwdaConfig:
        return SwdaConfig(
            w=self.kernel_w,
            r=self.head_rates()[head],
            d_k=self.d_k,
            edge_mode=self.edge_mode,
        )


_TRUNC_LO = ndtr(-2.0)
_TRUNC_HI = ndtr(2.0)


def trunc_normal(rng: np.random.Generator, shape, std=0.02, dtype=np.float32):
    """Truncated normal init (cut at +/-2 sigma), the usual ViT convention.

    Inverse-CDF sampling: map uniforms into the [-2, 2] quantile band.
    """
    u = rng.random(shape)
    return (ndtri(_TRUNC_LO + u * (_TRUNC_HI - _TRUNC_LO)) * std).astype(dtype)


def block_param_shapes(spec: MsdaBlockSpec, prefix: str) -> dict[str, tuple[int, ...]]:
    """Shapes of one block's parameters, keyed by '<prefix>.<leaf>' paths.

    Insertion order is the initialization order, so it must stay stable.
    """
    d = spec.dim
    hidden = spec.mlp_ratio * d
    shapes: dict[str, tuple[int, ...]] = {}
    shapes[f"{prefix}.cpe.weight"] = (3, 3, 1, d)
    shapes[f"{prefix}.cpe.bias"] = (d,)
    shapes[f"{prefix}.norm1.gamma"] = (d,)
    shapes[f"{prefix}.norm1.beta"] = (d,)
    shapes[f"{prefix}.qkv.weight"] = (d, 3 * d)
    shapes[f"{prefix}.qkv.bias"] = (3 * d,)
    shapes[f"{prefix}.proj.weight"] = (d, d)
    shapes[f"{prefix}.proj.bias"] = (d,)
    shapes[f"{prefix}.norm2.gamma"] = (d,)
    shapes[f"{prefix}.norm2.beta"] = (d,)
    shapes[f"{prefix}.mlp.fc1.weight"] = (d, hidden)
    shapes[f"{prefix}.mlp.fc1.bias"] = (hidden,)
    shapes[f"{prefix}.mlp.fc2.weight"] = (hidden, d)
    shapes[f"{prefix}.mlp.fc2.bias"] = (d,)
    return shapes


def param_node(g: graph, params: Mapping[str, Parameter], name: str) -> Node:
    """The graph node of ``params[name]``; a missing parameter is a ConfigError."""
    p = params.get(name)
    if p is None:
        raise ConfigError(f"missing parameter: {name}")
    return g.param(p)


def _linear(g: graph, x: Node, params: Mapping[str, Parameter], prefix: str) -> Node:
    """x through the linear layer ``prefix``: the fused [..., 3C] q|k|v projection of the
    normed map, or the output projection of the merged [..., C] heads."""
    return g.linear(x, param_node(g, params, f"{prefix}.weight"), param_node(g, params, f"{prefix}.bias"))


def _check_input(x: Node, spec: MsdaBlockSpec) -> None:
    if x.data.ndim < 3 or x.data.shape[-1] != spec.dim:
        raise ShapeError(f"expected [..., H, W, {spec.dim}] input, got {x.data.shape}")


def msda_attention(
    g: graph,
    x: Node,
    spec: MsdaBlockSpec,
    params: Mapping[str, Parameter],
    prefix: str,
) -> Node:
    """Windowed dilated attention with one dilation rate per head; heads go to
    ``g.attn_sink`` as in ``graph.swda``."""
    _check_input(x, spec)
    cfgs = tuple(spec.head_cfg(i) for i in range(spec.n_heads))
    qkv = _linear(g, x, params, f"{prefix}.qkv")
    del x  # a NoRecordTape frees a normed input that the caller did not keep
    heads = g.swda(qkv, cfgs, layer=prefix)
    del qkv
    return _linear(g, heads, params, f"{prefix}.proj")


def mhsa_attention(
    g: graph,
    x: Node,
    spec: MsdaBlockSpec,
    params: Mapping[str, Parameter],
    prefix: str,
) -> Node:
    """Global attention of spec.n_heads heads over all H*W tokens of each [..., H, W, C]
    map; the dilation rates are not read. Heads go to ``g.attn_sink`` as in ``graph.mhsa``."""
    _check_input(x, spec)
    qkv = _linear(g, x, params, f"{prefix}.qkv")
    del x  # as in msda_attention
    heads = g.mhsa(qkv, spec.n_heads, layer=prefix)
    del qkv
    return _linear(g, heads, params, f"{prefix}.proj")


def transformer_block(
    g: graph,
    x: Node,
    spec: MsdaBlockSpec,
    params: Mapping[str, Parameter],
    prefix: str,
    kind: str = "D",
) -> Node:
    """CPE + pre-norm attention + pre-norm MLP, all residual. The stage's kind picks
    the attention: 'D' dilated windows, 'G' global. Temporaries are dropped once
    consumed: on a NoRecordTape norm1's output is freed once the fused q|k|v exists,
    and the three residual adds go into x's buffer when an earlier op made x (see
    ``graph.add``). The MLP is one ``graph.mlp`` node that holds its hidden map
    one block of token rows at a time."""
    if kind not in ("D", "G"):
        raise ConfigError(f"block kind must be 'D' or 'G', got {kind!r}")

    def p(leaf: str) -> Node:
        return param_node(g, params, f"{prefix}.{leaf}")

    cpe = g.conv2d(x, p("cpe.weight"), p("cpe.bias"), stride=1, zero_pad=1)
    x = g.add(cpe, x)
    del cpe

    attention = msda_attention if kind == "D" else mhsa_attention
    attn = attention(g, g.layernorm(x, p("norm1.gamma"), p("norm1.beta")), spec, params, prefix)
    x = g.add(attn, x)
    del attn

    mlp = g.mlp(g.layernorm(x, p("norm2.gamma"), p("norm2.beta")), lambda leaf: p(f"mlp.{leaf}"))
    return g.add(mlp, x)
