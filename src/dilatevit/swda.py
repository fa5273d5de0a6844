"""Dilated sliding-window attention over 2-D feature maps.

Each query at (i, j) attends to the w*w keys/values sampled at

    (i + p*r, j + q*r)   for p, q in {-(w-1)/2, ..., (w-1)/2}

so a window of w taps per axis with stride r covers a receptive field of
side (w-1)*r + 1 while the per-query cost stays Theta(w^2 * d) regardless of
map size. Two edge policies are provided:

* ``zero_pad``: out-of-bounds taps behave like taps on a zero-padded map —
  key and value are zero, so the tap contributes logit 0 and value 0 but
  still takes softmax mass e^0 / Z.
* ``masked``: out-of-bounds taps are removed from the softmax entirely.

Two implementations sit behind one contract: a naive per-query gather loop
(the reference, one [H, W, d] map) and a blocked one that loops over the w*w
taps and reads the part of each on the map as one rectangle of the unpadded
[..., H, W, d] maps, leading axes being batch, so no pass pads a map or
stacks the taps into a copy. Equivalence is a standing test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .counting import add_macs
from .errors import ConfigError, ContractError, ShapeError


@dataclass(frozen=True)
class SwdaConfig:
    """Window size w (odd tap count per axis), dilation r, head dim, edge policy."""

    w: int
    r: int
    d_k: int
    edge_mode: str = "zero_pad"

    def __post_init__(self):
        if self.w < 1 or self.w % 2 == 0:
            raise ConfigError(f"window size must be odd and >= 1, got {self.w}")
        if self.r < 1:
            raise ConfigError(f"dilation rate must be >= 1, got {self.r}")
        if self.d_k < 1:
            raise ConfigError(f"head dimension must be >= 1, got {self.d_k}")
        if self.edge_mode not in ("zero_pad", "masked"):
            raise ConfigError(f"edge_mode must be 'zero_pad' or 'masked', got {self.edge_mode!r}")

    @property
    def taps(self) -> int:
        return self.w * self.w


def tap_offsets(w: int) -> list[tuple[int, int]]:
    """The w*w (p, q) offsets in ascending (p, q) order."""
    m = (w - 1) // 2
    return [(p, q) for p in range(-m, m + 1) for q in range(-m, m + 1)]


def receptive_span(cfg: SwdaConfig) -> int:
    """Side length of the attended receptive field: (w-1)*r + 1."""
    return (cfg.w - 1) * cfg.r + 1


@dataclass(frozen=True)
class TapIndexSet:
    """The w*w tap coordinates for one query, with in-bounds flags."""

    query: tuple[int, int]
    coords: tuple[tuple[int, int], ...]
    in_bounds: tuple[bool, ...]


def dilated_indices(i: int, j: int, cfg: SwdaConfig, H: int, W: int) -> TapIndexSet:
    """Tap coordinates (i + p*r, j + q*r) for the query at (i, j)."""
    if not (0 <= i < H and 0 <= j < W):
        raise ContractError(f"query ({i}, {j}) outside map of extent {H}x{W}")
    coords = []
    flags = []
    for p, q in tap_offsets(cfg.w):
        ii, jj = i + p * cfg.r, j + q * cfg.r
        coords.append((ii, jj))
        flags.append(0 <= ii < H and 0 <= jj < W)
    return TapIndexSet((i, j), tuple(coords), tuple(flags))


@dataclass
class SwdaState:
    """Forward state saved for the analytic backward pass."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    weights: np.ndarray  # [..., H, W, w*w] softmax output in tap order
    cfg: SwdaConfig = field(repr=False)


def _check_qkv(q, k, v, cfg):
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"Q/K/V shapes differ: {q.shape}, {k.shape}, {v.shape}")
    if q.dtype != k.dtype or q.dtype != v.dtype:
        raise ShapeError(f"Q/K/V dtypes differ: {q.dtype}, {k.dtype}, {v.dtype}")
    if q.ndim < 3:
        raise ShapeError(f"expected [..., H, W, d_k] maps, got shape {q.shape}")
    if q.shape[-1] != cfg.d_k:
        raise ShapeError(f"channel extent {q.shape[-1]} != configured d_k {cfg.d_k}")


def window_rects(h: int, w: int, cfg: SwdaConfig) -> list:
    """:func:`tensor.tap_rects` of the w*w taps in tap_offsets(w) order: on-map taps and their queries."""
    return T.tap_rects(h, w, cfg.w, cfg.w, pad=(cfg.w - 1) // 2 * cfg.r, dilation=cfg.r)


def _tap_major(a: np.ndarray) -> np.ndarray:
    """A tap-major [..., taps, H, W] buffer viewed as [taps, ..., H, W, 1], to broadcast per tap."""
    return np.moveaxis(a[..., None], -4, 0)


def _tap_dots(x: np.ndarray, y: np.ndarray, rects: list, taps: int, fill: float) -> np.ndarray:
    """[..., taps, H, W]: each query's x dotted with each on-map tap of y; off-map taps hold fill."""
    a = np.full(x.shape[:-3] + (taps,) + x.shape[-3:-1], fill, dtype=x.dtype)
    at = _tap_major(a)
    for t, o, i in rects:
        np.einsum("...d,...d->...", x[o], y[i], out=at[t][o][..., 0])
    return a


def swda_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    cfg: SwdaConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Blocked forward pass. Returns (output, weights).

    Weights are [..., H, W, w*w] in ascending tap order; in masked mode
    out-of-bounds taps carry weight 0.
    """
    out, state = swda_forward_with_state(q, k, v, cfg)
    return out, state.weights


def swda_forward_with_state(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, cfg: SwdaConfig
) -> tuple[np.ndarray, SwdaState]:
    _check_qkv(q, k, v, cfg)
    add_macs(2 * q.size * cfg.taps)  # logits + value reduction, every leading index

    # Tap-major [..., taps, H, W] until the end: reducing over a short last axis is slow.
    # An off-map tap's logit is 0 (its key is a zero pad) or, masked, -inf, so that
    # exp(-inf) = 0 drops it; the center tap is always on the map.
    rects = window_rects(*q.shape[-3:-1], cfg)
    a = _tap_dots(q, k, rects, cfg.taps, -np.inf if cfg.edge_mode == "masked" else 0.0)
    a *= np.asarray(1.0 / math.sqrt(cfg.d_k), dtype=q.dtype)
    # The tap softmax, in place in the logits buffer.
    a -= np.max(a, axis=-3, keepdims=True)
    np.exp(a, out=a)
    a /= np.sum(a, axis=-3, keepdims=True)
    weights = np.moveaxis(a, -3, -1)  # a view: the backward reads the tap-major buffer back
    return T.tap_sum(v, _tap_major(a), rects, q.shape), SwdaState(q=q, k=k, v=v, weights=weights, cfg=cfg)


def swda_forward_naive(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    cfg: SwdaConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference forward on one [H, W, d] map: per-query gather in ascending query order.
    Returns (output, weights) as :func:`swda_forward` does."""
    _check_qkv(q, k, v, cfg)
    if q.ndim != 3:
        raise ShapeError(f"the naive reference takes one [H, W, d] map, got {q.shape}")
    H, W, d = q.shape
    add_macs(2 * H * W * cfg.taps * d)
    scale = 1.0 / math.sqrt(cfg.d_k)
    out = np.zeros_like(q)
    weights = np.zeros((H, W, cfg.taps), dtype=q.dtype)
    for i in range(H):
        for j in range(W):
            taps = dilated_indices(i, j, cfg, H, W)
            logits = np.zeros(cfg.taps, dtype=q.dtype)
            for t, ((ii, jj), ok) in enumerate(zip(taps.coords, taps.in_bounds)):
                if ok:
                    logits[t] = np.dot(q[i, j], k[ii, jj]) * scale
            if cfg.edge_mode == "masked":
                valid = np.asarray(taps.in_bounds)
                e = np.zeros_like(logits)
                e[valid] = np.exp(logits[valid] - np.max(logits[valid]))
            else:
                e = np.exp(logits - np.max(logits))
            a = e / np.sum(e)
            weights[i, j] = a
            acc = np.zeros(d, dtype=q.dtype)
            for t, ((ii, jj), ok) in enumerate(zip(taps.coords, taps.in_bounds)):
                if ok:
                    acc += a[t] * v[ii, jj]
            out[i, j] = acc
    return out, weights


def swda_backward(
    grad_out: np.ndarray, state: SwdaState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic adjoint of the forward contract.

    Gathers read each tap's rectangle of K and V; grad_K and grad_V are their adjoint,
    :func:`tensor.scatter_taps`, which adds only into the rectangle a tap read, so zero-padded taps
    get no phantom gradient. The three gradients are made in turn, through one product scratch.
    """
    if state is None or state.weights is None:
        raise ContractError("swda_backward requires the saved forward state")
    q, k, v, cfg = state.q, state.k, state.v, state.cfg
    if grad_out.shape != q.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != output shape {q.shape}")
    rects = window_rects(*q.shape[-3:-1], cfg)
    a = np.ascontiguousarray(np.moveaxis(state.weights, -1, -3))  # tap-major, as in the forward
    grad_a = _tap_dots(grad_out, v, rects, cfg.taps, 0.0)
    # Softmax Jacobian-vector product over the tap axis, times the logit scale.
    scale = np.asarray(1.0 / math.sqrt(cfg.d_k), dtype=q.dtype)
    grad_logits = _tap_major(a * (grad_a - np.sum(a * grad_a, axis=-3, keepdims=True)) * scale)
    del grad_a
    scratch = np.empty_like(q)

    def scatter(b: np.ndarray, x: np.ndarray) -> np.ndarray:  # tap t of the result gets b[t] * x
        return T.scatter_taps(lambda t, o: np.multiply(b[t][o], x[o], out=scratch[o]), rects, q.shape, q.dtype)

    return T.tap_sum(k, grad_logits, rects, q.shape), scatter(grad_logits, q), scatter(_tap_major(a), grad_out)


def swda_backward_naive(
    grad_out: np.ndarray, state: SwdaState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference adjoint on one [H, W, d] map: per-query scatter in ascending query order."""
    if state is None or state.weights is None:
        raise ContractError("swda_backward requires the saved forward state")
    q, k, v, a, cfg = state.q, state.k, state.v, state.weights, state.cfg
    if q.ndim != 3:
        raise ShapeError(f"the naive reference takes one [H, W, d] map, got {q.shape}")
    H, W, d = q.shape
    scale = 1.0 / math.sqrt(cfg.d_k)
    grad_q = np.zeros_like(q)
    grad_k = np.zeros_like(k)
    grad_v = np.zeros_like(v)
    for i in range(H):
        for j in range(W):
            taps = dilated_indices(i, j, cfg, H, W)
            aw = a[i, j]
            ga = np.zeros(cfg.taps, dtype=q.dtype)
            for t, ((ii, jj), ok) in enumerate(zip(taps.coords, taps.in_bounds)):
                if ok:
                    ga[t] = np.dot(grad_out[i, j], v[ii, jj])
            gl = aw * (ga - np.dot(aw, ga))
            for t, ((ii, jj), ok) in enumerate(zip(taps.coords, taps.in_bounds)):
                if not ok:
                    continue
                grad_q[i, j] += gl[t] * k[ii, jj] * scale
                grad_k[ii, jj] += gl[t] * q[i, j] * scale
                grad_v[ii, jj] += aw[t] * grad_out[i, j]
    return grad_q, grad_k, grad_v
