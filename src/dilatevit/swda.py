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
taps and reads each as a shifted [..., H, W, d] view of the zero-padded map,
leading axes being batch, so no pass stacks the taps into a copy.
Equivalence is a standing test.
"""

from __future__ import annotations

import functools
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


def _margin(cfg: SwdaConfig) -> int:
    """Zero rows and columns a map is padded by on each side, so every tap of every query lands in it."""
    return ((cfg.w - 1) // 2) * cfg.r


def _tap_windows(x: np.ndarray, cfg: SwdaConfig):
    """The w*w tap windows of x [..., H, W, d] in tap_offsets(w) order: window t's
    (i, j) entry is the tap (i + p*r, j + q*r) of offset (p, q), zero off the map."""
    return T.taps(T.pad_hw(x, _margin(cfg)), cfg.w, cfg.w, dilation=cfg.r)


@functools.lru_cache(maxsize=16)
def _valid_mask(H: int, W: int, cfg: SwdaConfig) -> np.ndarray:
    """Boolean [taps, H, W]: tap lies inside the map. One read-only array per (H, W, cfg)."""
    mask = np.stack([win[..., 0] for win in _tap_windows(np.ones((H, W, 1), dtype=bool), cfg)])
    mask.flags.writeable = False
    return mask


def _tap_dots(x: np.ndarray, y: np.ndarray, cfg: SwdaConfig) -> np.ndarray:
    """[..., taps, H, W]: each query's x dotted with each of its taps of y."""
    return np.stack([np.einsum("...d,...d->...", x, yw) for yw in _tap_windows(y, cfg)], axis=-3)


def _tap_sum(a: np.ndarray, y: np.ndarray, cfg: SwdaConfig) -> np.ndarray:
    """[..., H, W, d]: each query's taps of y weighted by a [..., taps, H, W] and summed."""
    return T.tap_sum(_tap_windows(y, cfg), np.moveaxis(a[..., None], -4, 0))


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
    a = _tap_dots(q, k, cfg)
    a *= np.asarray(1.0 / math.sqrt(cfg.d_k), dtype=q.dtype)
    if cfg.edge_mode == "masked":
        # Off-map taps get exp(-inf) = 0; the center tap is always on the map.
        a[..., ~_valid_mask(*q.shape[-3:-1], cfg)] = -np.inf
    # The tap softmax, in place in the logits buffer.
    a -= np.max(a, axis=-3, keepdims=True)
    np.exp(a, out=a)
    a /= np.sum(a, axis=-3, keepdims=True)
    weights = np.moveaxis(a, -3, -1)  # a view: the backward reads the tap-major buffer back
    return _tap_sum(a, v, cfg), SwdaState(q=q, k=k, v=v, weights=weights, cfg=cfg)


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

    Gathers read the tap windows of the padded K and V; grad_K and grad_V are
    their adjoint, :func:`tensor.scatter_taps`, so off-map contributions land
    in the pad margin and are cropped away, which also kills the phantom
    gradient of zero-padded taps. grad_K and grad_V are the center windows of
    those padded buffers: views, not contiguous copies.
    """
    if state is None or state.weights is None:
        raise ContractError("swda_backward requires the saved forward state")
    q, k, v, cfg = state.q, state.k, state.v, state.cfg
    if grad_out.shape != q.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != output shape {q.shape}")
    a = np.ascontiguousarray(np.moveaxis(state.weights, -1, -3))  # tap-major, as in the forward
    grad_a = _tap_dots(grad_out, v, cfg)
    # Softmax Jacobian-vector product over the tap axis, times the logit scale.
    scale = np.asarray(1.0 / math.sqrt(cfg.d_k), dtype=q.dtype)
    grad_logits = a * (grad_a - np.sum(a * grad_a, axis=-3, keepdims=True)) * scale

    def scatter(b: np.ndarray, x: np.ndarray) -> np.ndarray:  # tap t of the result gets b[..., t, :, :] * x
        parts = (bt * x for bt in np.moveaxis(b[..., None], -4, 0))
        return T.scatter_taps(parts, x.shape, x.dtype, cfg.w, cfg.w, 1, _margin(cfg), cfg.r)

    return _tap_sum(grad_logits, k, cfg), scatter(grad_logits, q), scatter(a, grad_out)


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
