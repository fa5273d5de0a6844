"""Brute-force reference implementations used by multiple test modules.

These stay deliberately independent of the library's fast paths: plain
per-query loops over explicitly enumerated keys.
"""

import math

import numpy as np

from dilatevit.model import ModelConfig
from dilatevit.swda import SwdaConfig, dilated_indices
from dilatevit.tensor import channel_sums


def dense_window_oracle(q, k, v, cfg: SwdaConfig):
    """Per-query dense attention over the enumerated tap set.

    masked mode: only in-bounds taps enter the softmax.
    zero_pad mode: every out-of-bounds tap contributes one zero-key/zero-value
    entry (logit 0) to the softmax.
    """
    h, w, d = q.shape
    out = np.zeros_like(q)
    for i in range(h):
        for j in range(w):
            taps = dilated_indices(i, j, cfg, h, w)
            logits, values = [], []
            for (ii, jj), ok in zip(taps.coords, taps.in_bounds):
                if ok:
                    logits.append(float(q[i, j] @ k[ii, jj]) / math.sqrt(cfg.d_k))
                    values.append(v[ii, jj])
                elif cfg.edge_mode == "zero_pad":
                    logits.append(0.0)
                    values.append(np.zeros(d, dtype=q.dtype))
            logits = np.asarray(logits)
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            out[i, j] = np.asarray(values).T @ weights
    return out


def attention_to_dense(weights, cfg: SwdaConfig, renormalize: bool = False):
    """Tap-order weights [H, W, w*w] expanded into a dense [H*W, H*W] matrix, one
    enumerated tap at a time. Out-of-bounds taps have no key position and are
    dropped; with ``renormalize`` each row is rescaled to sum to 1 afterwards
    (zero_pad weights lose the mass of their padded taps at the edges)."""
    h, w, n_taps = weights.shape
    assert n_taps == cfg.taps, f"weights carry {n_taps} taps but config expects {cfg.taps}"
    dense = np.zeros((h * w, h * w), dtype=weights.dtype)
    for i in range(h):
        for j in range(w):
            taps = dilated_indices(i, j, cfg, h, w)
            for t, ((ii, jj), ok) in enumerate(zip(taps.coords, taps.in_bounds)):
                if ok:
                    dense[i * w + j, ii * w + jj] = weights[i, j, t]
    if renormalize:
        dense /= np.sum(dense, axis=1, keepdims=True)
    return dense


def dense_full_attention(q, k, v, d_k):
    """Unmasked dense attention over all H*W keys (flat two-loop reference)."""
    h, w, d = q.shape
    qf, kf, vf = (t.reshape(-1, d) for t in (q, k, v))
    out = np.zeros_like(qf)
    for t in range(qf.shape[0]):
        logits = kf @ qf[t] / math.sqrt(d_k)
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        out[t] = weights @ vf
    return out.reshape(h, w, d)


def chebyshev_masked_attention(q, k, v, radius, d_k):
    """Dense attention with keys outside Chebyshev ``radius`` set to -inf."""
    h, w, d = q.shape
    qf, kf, vf = (t.reshape(-1, d) for t in (q, k, v))
    out = np.zeros_like(qf)
    for qi in range(h * w):
        i, j = divmod(qi, w)
        logits = np.full(h * w, -np.inf)
        for ki in range(h * w):
            a, b = divmod(ki, w)
            if max(abs(a - i), abs(b - j)) <= radius:
                logits[ki] = float(qf[qi] @ kf[ki]) / math.sqrt(d_k)
        weights = np.exp(logits - logits[np.isfinite(logits)].max())
        weights[~np.isfinite(logits)] = 0.0
        weights /= weights.sum()
        out[qi] = weights @ vf
    return out.reshape(h, w, d)


def param_count_breakdown(config: ModelConfig) -> dict[str, int]:
    """Closed-form parameter count per part, written from the documented layout.

    - tokenizer: four 3x3 convs with bias, a LayerNorm after each of the
      first three;
    - per block: depthwise 3x3 positional conv with bias, two LayerNorms,
      qkv (bias per ``qkv_bias``), proj with bias, and an MLP
      d -> mlp_ratio*d -> d with biases; 'D' and 'G' blocks cost the same;
    - a 3x3/stride-2 conv with bias between consecutive stages;
    - head: LayerNorm and a linear classifier with bias.
    """
    chans = (config.in_channels, *config.tokenizer_channels)
    tokenizer = sum(9 * c_in * c_out + c_out for c_in, c_out in zip(chans, chans[1:]))
    tokenizer += sum(2 * c for c in config.tokenizer_channels[:3])

    def block(d: int) -> int:
        hidden = config.mlp_ratio * d
        cpe = 9 * d + d
        norms = 2 * 2 * d
        qkv = 3 * d * d + (3 * d if config.qkv_bias else 0)
        proj = d * d + d
        mlp = d * hidden + hidden + hidden * d + d
        return cpe + norms + qkv + proj + mlp

    parts = {"tokenizer": tokenizer}
    parts["blocks"] = sum(stage.depth * block(stage.dim) for stage in config.stages)
    for s, (a, b) in enumerate(zip(config.stages, config.stages[1:]), start=1):
        parts[f"downsample{s}"] = 9 * a.dim * b.dim + b.dim
    d4 = config.stages[3].dim
    parts["head"] = 2 * d4 + d4 * config.num_classes + config.num_classes
    return parts


def param_count_oracle(config: ModelConfig) -> int:
    """Total of :func:`param_count_breakdown`."""
    return sum(param_count_breakdown(config).values())


def layernorm_backward_stored_xhat(grad_out, state, gamma):
    """Gradients of tensor.layernorm w.r.t. x, gamma and beta from a state that stores the
    normalized rows, (xhat [N, C], 1/std [N, 1]), in the same ops and order, so a
    backward that rebuilds xhat from x must match it bit for bit."""
    xhat, inv = state
    g = grad_out.reshape(xhat.shape)
    inv_c = np.full(xhat.shape[1], 1.0 / xhat.shape[1], dtype=xhat.dtype)
    gx = g * gamma
    mean_g = (gx @ inv_c)[:, None]
    mean_gx = (np.einsum("ij,ij->i", gx, xhat) * inv_c[0])[:, None]
    scratch = g * xhat
    grad_gamma = channel_sums(scratch)
    np.multiply(xhat, mean_gx, out=scratch)
    gx -= mean_g
    gx -= scratch
    gx *= inv
    return gx.reshape(grad_out.shape), grad_gamma, channel_sums(g)
