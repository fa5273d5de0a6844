"""Dilated sliding-window attention kernels and a pyramid model built on them.

Public surface:

* :mod:`dilatevit.tensor` — dense numeric primitives (matmul, softmax,
  conv2d, layernorm, gelu) on contiguous float arrays, and the tap engine
  (tap_rects, tap_sum, scatter_taps) that conv2d and swda share.
* :mod:`dilatevit.autograd` — tape-based reverse-mode differentiation and a
  finite-difference verification harness.
* :mod:`dilatevit.swda` — the windowed dilated attention op, forward and
  analytic backward, naive and blocked implementations.
* :mod:`dilatevit.msda` — multi-scale attention blocks (one dilation rate per
  head) and the global-attention block variant.
* :mod:`dilatevit.model` — four-stage pyramid model builder, presets,
  checkpoints.
* :mod:`dilatevit.profiler` — analytic parameter/FLOPs accounting.
* :mod:`dilatevit.metrics` — locality and sparsity statistics of attention
  maps.
* :mod:`dilatevit.cli` — the ``dilatevit`` command.
"""

from .autograd import Parameter, Tape, backward, finite_diff_check, graph, sgd_step
from .msda import MsdaBlockSpec, msda_attention, mhsa_attention, transformer_block
from .swda import (
    SwdaConfig,
    TapIndexSet,
    dilated_indices,
    receptive_span,
    swda_backward,
    swda_forward,
    swda_forward_naive,
)

__version__ = "0.1.0"

__all__ = [
    "Parameter",
    "Tape",
    "backward",
    "finite_diff_check",
    "graph",
    "sgd_step",
    "MsdaBlockSpec",
    "msda_attention",
    "mhsa_attention",
    "transformer_block",
    "SwdaConfig",
    "TapIndexSet",
    "dilated_indices",
    "receptive_span",
    "swda_backward",
    "swda_forward",
    "swda_forward_naive",
    "__version__",
]
