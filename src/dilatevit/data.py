"""Synthetic image classification data for desk-scale training.

Each class is a Gaussian color blob at a class-specific grid position with a
class-specific color, plus additive noise. At noise 0 the classes are
linearly separable by construction (disjoint bright pixels in distinct
channels), so a small model must only learn a stable spatial/color readout.
Not comparable to any natural-image benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_COLORS = np.array(
    [
        [1.0, 0.15, 0.15],
        [0.15, 1.0, 0.15],
        [0.15, 0.15, 1.0],
        [1.0, 1.0, 0.15],
        [1.0, 0.15, 1.0],
        [0.15, 1.0, 1.0],
        [1.0, 0.6, 0.15],
        [0.6, 0.15, 1.0],
    ],
    dtype=np.float64,
)
MAX_CLASSES = len(_COLORS)  # one color per class


@dataclass(frozen=True)
class DatasetSpec:
    classes: int = 4
    size: int = 32
    noise: float = 0.1

    def __post_init__(self):
        if not (2 <= self.classes <= MAX_CLASSES):
            raise ConfigError(f"classes must be in [2, {MAX_CLASSES}], got {self.classes}")
        if self.size < 8:
            raise ConfigError(f"image size must be >= 8, got {self.size}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")


def _blob_centers(spec: DatasetSpec) -> np.ndarray:
    """One center per class on a coarse grid, spread over the image."""
    side = int(np.ceil(np.sqrt(spec.classes)))
    cell = spec.size / side
    centers = []
    for c in range(spec.classes):
        gi, gj = divmod(c, side)
        centers.append(((gi + 0.5) * cell, (gj + 0.5) * cell))
    return np.asarray(centers)


def make_dataset(
    count: int, spec: DatasetSpec, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Images [N, S, S, 3] float32 and labels [N] int64, balanced round-robin."""
    rng = np.random.default_rng(seed)
    sigma = spec.size / 10.0
    ii = np.arange(spec.size)[:, None]
    jj = np.arange(spec.size)[None, :]
    shape = (count, spec.size, spec.size, 3)
    if spec.noise > 0:
        images = rng.standard_normal(shape)
        images *= spec.noise
    else:
        images = np.zeros(shape)
    # Labels run round-robin: class c's images are every classes-th one from c, if c < count.
    for c, (ci, cj) in enumerate(_blob_centers(spec)[:count]):
        bump = np.exp(-(((ii - ci) ** 2 + (jj - cj) ** 2) / (2 * sigma**2)))
        images[c :: spec.classes] += bump[:, :, None] * _COLORS[c]
    return images.astype(np.float32), np.arange(count, dtype=np.int64) % spec.classes
