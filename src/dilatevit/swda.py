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
(the reference, one [H, W, d] map) and a blocked one that slices whole
shifted panels out of padded [..., H, W, d] maps, leading axes being batch,
and reduces them vectorized. Equivalence is a standing test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .counting import add_macs
from .errors import ConfigError, ContractError, ShapeError
from .tensor import pad_hw


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

    def valid_coords(self) -> list[tuple[int, int]]:
        return [c for c, ok in zip(self.coords, self.in_bounds) if ok]


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
    cfg: SwdaConfig = field(repr=False, default=None)


def _check_qkv(q, k, v, cfg):
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"Q/K/V shapes differ: {q.shape}, {k.shape}, {v.shape}")
    if q.dtype != k.dtype or q.dtype != v.dtype:
        raise ShapeError(f"Q/K/V dtypes differ: {q.dtype}, {k.dtype}, {v.dtype}")
    if q.ndim < 3:
        raise ShapeError(f"expected [..., H, W, d_k] maps, got shape {q.shape}")
    if q.shape[-1] != cfg.d_k:
        raise ShapeError(f"channel extent {q.shape[-1]} != configured d_k {cfg.d_k}")


def _gather_panels(x: np.ndarray, cfg: SwdaConfig) -> np.ndarray:
    """Stack the w*w shifted views of a zero-padded map: [..., taps, H, W, d]."""
    H, W = x.shape[-3:-1]
    m = ((cfg.w - 1) // 2) * cfg.r
    xp = pad_hw(x, m)
    panels = np.empty(x.shape[:-3] + (cfg.taps,) + x.shape[-3:], dtype=x.dtype)
    for t, (p, q) in enumerate(tap_offsets(cfg.w)):
        i, j = m + p * cfg.r, m + q * cfg.r
        panels[..., t, :, :, :] = xp[..., i : i + H, j : j + W, :]
    return panels


def _valid_mask(H: int, W: int, cfg: SwdaConfig) -> np.ndarray:
    """Boolean [taps, H, W]: tap lies inside the map."""
    ii = np.arange(H)[:, None]
    jj = np.arange(W)[None, :]
    mask = np.empty((cfg.taps, H, W), dtype=bool)
    for t, (p, q) in enumerate(tap_offsets(cfg.w)):
        mask[t] = (
            (ii + p * cfg.r >= 0)
            & (ii + p * cfg.r < H)
            & (jj + q * cfg.r >= 0)
            & (jj + q * cfg.r < W)
        )
    return mask


def _softmax_taps(logits_thw: np.ndarray, mask_thw: np.ndarray | None) -> np.ndarray:
    """Softmax over the tap axis of [..., taps, H, W] logits, optionally restricted to valid taps.

    Returns weights in [..., H, W, taps] layout. The center tap is always
    valid, so every query has a finite maximum and masked taps get exp(-inf) = 0.
    """
    if mask_thw is not None:
        logits_thw = np.where(mask_thw, logits_thw, np.asarray(-np.inf, dtype=logits_thw.dtype))
    m = np.max(logits_thw, axis=-3, keepdims=True)
    e = np.exp(logits_thw - m)
    weights = e / np.sum(e, axis=-3, keepdims=True)
    return np.ascontiguousarray(np.moveaxis(weights, -3, -1))


def swda_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    cfg: SwdaConfig,
    return_weights: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Blocked forward pass. Returns (output, weights or None).

    Weights, when requested, are [..., H, W, w*w] in ascending tap order; in
    masked mode out-of-bounds taps carry weight 0.
    """
    out, state = swda_forward_with_state(q, k, v, cfg)
    return out, (state.weights if return_weights else None)


def swda_forward_with_state(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, cfg: SwdaConfig
) -> tuple[np.ndarray, SwdaState]:
    _check_qkv(q, k, v, cfg)
    add_macs(2 * q.size * cfg.taps)  # logits + value reduction, every leading index

    panels_k = _gather_panels(k, cfg)
    panels_v = _gather_panels(v, cfg)
    mask = None if cfg.edge_mode == "zero_pad" else _valid_mask(*q.shape[-3:-1], cfg)
    scale = np.asarray(1.0 / math.sqrt(cfg.d_k), dtype=q.dtype)

    logits = np.einsum("...hwd,...thwd->...thw", q, panels_k) * scale
    weights = _softmax_taps(logits, mask)
    out = np.einsum("...hwt,...thwd->...hwd", weights, panels_v)
    return out, SwdaState(q=q, k=k, v=v, weights=weights, cfg=cfg)


def swda_forward_naive(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    cfg: SwdaConfig,
    return_weights: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Reference forward on one [H, W, d] map: per-query gather in ascending query order."""
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
    return out, (weights if return_weights else None)


def swda_backward(
    grad_out: np.ndarray, state: SwdaState, cfg: SwdaConfig | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic adjoint of the forward contract.

    Scatter into grad_K/grad_V runs tap-major over whole shifted panels;
    out-of-bounds contributions land in the pad margin and are cropped away,
    which also kills the phantom gradient of zero-padded taps.
    """
    if state is None or state.weights is None:
        raise ContractError("swda_backward requires the saved forward state")
    cfg = cfg or state.cfg
    q, k, v, a = state.q, state.k, state.v, state.weights
    H, W, d = q.shape[-3:]
    if grad_out.shape != q.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != output shape {q.shape}")
    scale = np.asarray(1.0 / math.sqrt(cfg.d_k), dtype=q.dtype)
    m = ((cfg.w - 1) // 2) * cfg.r

    panels_k = _gather_panels(k, cfg)
    panels_v = _gather_panels(v, cfg)

    grad_a = np.einsum("...hwd,...thwd->...hwt", grad_out, panels_v)
    # Softmax Jacobian-vector product over the tap axis.
    inner = np.sum(a * grad_a, axis=-1, keepdims=True)
    grad_logits = a * (grad_a - inner)

    grad_q = np.einsum("...hwt,...thwd->...hwd", grad_logits, panels_k) * scale
    grad_kp = np.zeros(q.shape[:-3] + (H + 2 * m, W + 2 * m, d), dtype=q.dtype)
    grad_vp = np.zeros_like(grad_kp)
    for t, (p, qq) in enumerate(tap_offsets(cfg.w)):
        sl_h = slice(m + p * cfg.r, m + p * cfg.r + H)
        sl_w = slice(m + qq * cfg.r, m + qq * cfg.r + W)
        grad_kp[..., sl_h, sl_w, :] += grad_logits[..., t, None] * q * scale
        grad_vp[..., sl_h, sl_w, :] += a[..., t, None] * grad_out
    grad_k = grad_kp[..., m : m + H, m : m + W, :]
    grad_v = grad_vp[..., m : m + H, m : m + W, :]
    return grad_q, np.ascontiguousarray(grad_k), np.ascontiguousarray(grad_v)


def swda_backward_naive(
    grad_out: np.ndarray, state: SwdaState, cfg: SwdaConfig | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference adjoint on one [H, W, d] map: per-query scatter in ascending query order."""
    if state is None or state.weights is None:
        raise ContractError("swda_backward requires the saved forward state")
    cfg = cfg or state.cfg
    q, k, v, a = state.q, state.k, state.v, state.weights
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


def attention_to_dense(
    weights: np.ndarray, cfg: SwdaConfig, renormalize: bool = False
) -> np.ndarray:
    """Expand tap-order weights [H, W, w*w] into a dense [H*W, H*W] matrix.

    Out-of-bounds taps have no key position and are dropped; with
    ``renormalize`` each row is rescaled to sum to 1 afterwards (needed for
    zero_pad-mode weights, whose in-bounds mass is < 1 at the edges).
    """
    H, W, taps = weights.shape
    if taps != cfg.taps:
        raise ShapeError(f"weights carry {taps} taps but config expects {cfg.taps}")
    dense = np.zeros((H * W, H * W), dtype=weights.dtype)
    ii = np.repeat(np.arange(H), W)
    jj = np.tile(np.arange(W), H)
    for t, (p, q) in enumerate(tap_offsets(cfg.w)):
        ki = ii + p * cfg.r
        kj = jj + q * cfg.r
        ok = (ki >= 0) & (ki < H) & (kj >= 0) & (kj < W)
        dense[np.arange(H * W)[ok], (ki * W + kj)[ok]] = weights.reshape(H * W, taps)[ok, t]
    if renormalize:
        dense /= np.sum(dense, axis=1, keepdims=True)
    return dense
