"""Thread-count knob, kept for callers that set it.

The library runs on one thread and starts none of its own: every kernel
computes its whole output in one vectorized pass with a fixed reduction
order, so results never depend on the thread count.
"""

from __future__ import annotations


def set_num_threads(n: int) -> None:
    """Validate a thread count; the library runs on one thread whatever it is."""
    if n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
