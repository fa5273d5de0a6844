"""Thread-count knob, kept for callers that set it; it changes nothing.

The library starts no thread of its own, but numpy's OpenBLAS follows
``OPENBLAS_NUM_THREADS``, and its thread count changes how products round:
results are bit-identical across runs at one BLAS thread count, not across
counts.
"""

from __future__ import annotations


def set_num_threads(n: int) -> None:
    """Validate a thread count; it sets nothing, BLAS threads follow OPENBLAS_NUM_THREADS."""
    if n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
