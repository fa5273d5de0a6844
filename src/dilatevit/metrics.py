"""Locality and sparsity statistics of attention maps.

An attention map lists, for each query of an H*W grid, the weights it puts
on its K candidate keys (rows sum to 1) and each key's Chebyshev distance
from the query. A dense map, ingested from a DFT1 file or produced by global
attention, has every grid position as a candidate (K = H*W); a windowed map
has its w*w taps (K = w*w), so its statistics cost O(H*W*w*w) and never
expand to an [H*W, H*W] matrix.

Metrics:

* ``locality_mass(map, radius)`` — fraction of each query's weight on keys
  within Chebyshev distance <= radius of the query, and the mean over queries.
* ``sparsity_profile(map, threshold)`` — mean count of keys above a weight
  threshold, participation ratio 1 / sum(a^2) (an effective key count), and
  Shannon entropy in nats, all averaged over queries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .swda import tap_offsets, window_rects

ROW_SUM_TOL = 1e-4


@dataclass(frozen=True)
class AttentionMap:
    weights: np.ndarray  # [H*W, K] weight of each query on its K candidate keys, rows sum to 1
    dist: np.ndarray  # [H*W, K] or [K]: Chebyshev distance of each candidate key from its query

    def __post_init__(self):
        if np.any(self.weights < 0):
            raise ValidationError("attention weights must be nonnegative")
        sums = self.weights.sum(axis=1)
        # A NaN or infinite weight makes its row sum non-finite; NaN fails every comparison.
        if not np.isfinite(sums).all():
            raise ValidationError("attention weights must be finite")
        worst = np.abs(sums - 1.0).max()
        if worst > ROW_SUM_TOL:
            raise ValidationError(
                f"rows must sum to 1 within {ROW_SUM_TOL}, worst deviation {worst:.3e}"
            )


@functools.lru_cache(maxsize=2)
def _chebyshev_table(h: int, w: int) -> np.ndarray:
    """[H*W, H*W] Chebyshev distances between grid positions, one read-only table per grid.
    int16 holds any grid a dense map fits in memory for, in a quarter of int64's bytes."""
    qi = np.repeat(np.arange(h, dtype=np.int16), w)
    qj = np.tile(np.arange(w, dtype=np.int16), h)
    di = np.abs(qi[:, None] - qi[None, :])
    dj = np.abs(qj[:, None] - qj[None, :])
    table = np.maximum(di, dj)
    table.flags.writeable = False
    return table


def locality_mass(amap: AttentionMap, radius: int) -> tuple[np.ndarray, float]:
    """Per-query and mean attention mass within Chebyshev radius of the query."""
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    per_query = np.sum(amap.weights * (amap.dist <= radius), axis=1)
    return per_query, float(per_query.mean())


@dataclass(frozen=True)
class SparsityStats:
    mean_active_keys: float
    participation_ratio: float
    entropy_nats: float


def sparsity_profile(amap: AttentionMap, threshold: float = 0.01) -> SparsityStats:
    """Active-key count above threshold, participation ratio, entropy per row."""
    if not (0.0 < threshold < 1.0):
        raise ValidationError(f"threshold must lie in (0, 1), got {threshold}")
    w = amap.weights
    active = np.sum(w > threshold, axis=1)
    pr = 1.0 / np.sum(w * w, axis=1)
    entropy = -np.sum(w * np.log(w + (w == 0)), axis=1)  # log 1 = 0 stands in for 0 log 0
    return SparsityStats(
        mean_active_keys=float(active.mean()),
        participation_ratio=float(pr.mean()),
        entropy_nats=float(entropy.mean()),
    )


def from_dense(weights: np.ndarray, height: int, width: int) -> AttentionMap:
    """A map whose candidates are all H*W grid positions: weights [H*W, H*W], reduced
    in float64 as every map is (an f64 array is not copied)."""
    weights = np.asarray(weights, dtype=np.float64)
    n = height * width
    if weights.shape != (n, n):
        raise ValidationError(
            f"attention matrix shape {weights.shape} does not match "
            f"{height}x{width} grid (expected {(n, n)})"
        )
    return AttentionMap(weights, _chebyshev_table(height, width))


def from_swda_weights(weights, cfg) -> AttentionMap:
    """A map whose candidates are the w*w taps: tap-order weights [H, W, w*w].

    Off-map taps have no key position, so they are zeroed and every row is
    renormalized in float64; this restores row sums of 1 for zero_pad
    weights, which lose the mass of their padded taps. Tap (p, q) at rate r
    lies at Chebyshev distance max(|p|, |q|) * r from its query.
    """
    a = np.asarray(weights, dtype=np.float64)
    h, w, taps = a.shape
    if taps != cfg.taps:
        raise ShapeError(f"weights carry {taps} taps but config expects {cfg.taps}")
    kept = np.zeros_like(a)
    for t, o, _ in window_rects(h, w, cfg):
        kept[..., t, None][o] = a[..., t, None][o]
    a = kept.reshape(h * w, taps)
    a /= a.sum(axis=1, keepdims=True)
    dist = np.array([max(abs(p), abs(q)) * cfg.r for p, q in tap_offsets(cfg.w)])
    return AttentionMap(a, dist)
