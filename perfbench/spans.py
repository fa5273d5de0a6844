"""Spans around the library's public functions, for the traced run only.

Each function is replaced at the module or class attribute where its callers
look it up, so the program itself is unchanged and pays nothing when the
tracer is not installed. Spans nest: a span's self time is its duration
minus the time of the spans it encloses. Totals stay in memory until the
run ends.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from dilatevit import autograd, dft1, metrics, model, msda, swda, tensor, train

# graph methods broken out under their own names; every other public graph
# method is tape plumbing and is reported as autograd.graph.
_GRAPH_SPANS = {
    "layernorm": "autograd.layernorm",
    "add_bias": "autograd.add_bias",
    "slice_last": "autograd.slice_concat",
    "concat_last": "autograd.slice_concat",
}


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[int]] = {}  # name -> [inclusive ns, self ns, calls]
        self.counts: dict[str, int] = {}
        self.macs: dict[str, int] = {}  # program-counted MACs by innermost open span
        self._stack = [["op", 0]]  # [span name, ns covered by child spans]

    def top_level_ns(self) -> int:
        """Time covered by outermost spans since the last reset."""
        return self._stack[0][1]

    def reset_top_level(self) -> None:
        self._stack[0][1] = 0

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name, fn, measure=None):
        """Wrap fn in a span; ``name`` may be a function of the call's args."""
        stack, clock = self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            frame = [label, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][1] += elapsed
                rec = self.spans.setdefault(label, [0, 0, 0])
                rec[0] += elapsed
                rec[1] += elapsed - frame[1]
                rec[2] += 1
            if measure is not None:
                self.count(measure[0], measure[1](args, result))
            return result

        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.count(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def mac_hook(self, fn):
        def add_macs(n):
            self.count("counting.macs", int(n))
            label = self._stack[-1][0]
            self.macs[label] = self.macs.get(label, 0) + int(n)
            return fn(n)

        return add_macs

    @staticmethod
    def _stage(args, kwargs):
        """transformer_block spans are named by stage: prefix 'stage2.block1' -> 'model.stage2'."""
        return "model." + (args[4] if len(args) > 4 else kwargs["prefix"]).split(".")[0]

    def _targets(self):
        """(owner, attribute, replacement) for every traced entry point."""
        dense_bytes = ("metrics.dense_bytes", lambda args, amap: amap.weights.nbytes)
        file_bytes = ("dft1.read_bytes", lambda args, arr: os.path.getsize(args[0]))
        out = []
        for attr in ("gelu", "gelu_grad", "matmul", "conv2d", "conv2d_backward", "softmax"):
            out.append((tensor, attr, self.span(f"tensor.{attr}", getattr(tensor, attr))))
        out.append((autograd, "backward", self.span("autograd.backward", autograd.backward)))
        for attr in ("zero_grads", "accumulate_param_grads", "sgd_step"):
            out.append((autograd, attr, self.span("autograd.update", getattr(autograd, attr))))
        for attr, fn in vars(autograd.graph).items():
            if callable(fn) and not attr.startswith("_"):
                out.append((autograd.graph, attr, self.span(_GRAPH_SPANS.get(attr, "autograd.graph"), fn)))
        out.append((autograd.Tape, "record", self.counter("autograd.tape_nodes", autograd.Tape.record)))
        out.append((swda, "swda_forward_with_state", self.span("swda.forward", swda.swda_forward_with_state)))
        out.append((swda, "swda_backward", self.span("swda.backward", swda.swda_backward)))
        for owner in (tensor, swda):  # both import add_macs by name
            out.append((owner, "add_macs", self.mac_hook(owner.add_macs)))
        for attr in ("msda_attention", "mhsa_attention"):
            out.append((msda, attr, self.span(f"msda.{attr}", getattr(msda, attr))))
        out.append((model, "transformer_block", self.span(self._stage, model.transformer_block)))
        for attr in ("tokenize", "downsample", "init_params", "save_checkpoint", "load_checkpoint"):
            out.append((model, attr, self.span(f"model.{attr}", getattr(model, attr))))
        out.append((train, "batch_loss", self.span("train.batch_loss", train.batch_loss)))
        for attr in ("locality_mass", "sparsity_profile"):
            out.append((metrics, attr, self.span(f"metrics.{attr}", getattr(metrics, attr))))
        for attr in ("from_swda_weights", "from_dense"):
            out.append((metrics, attr, self.span(f"metrics.{attr}", getattr(metrics, attr), dense_bytes)))
        out.append((dft1, "read_tensor", self.span("dft1.read_tensor", dft1.read_tensor, file_bytes)))
        return out

    @contextmanager
    def installed(self):
        targets = self._targets()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapper in targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)
