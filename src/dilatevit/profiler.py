"""Analytic parameter and FLOPs accounting over a model config.

Counting convention
-------------------
``macs`` counts the multiply-accumulates of convolutions, linear projections
and attention matmuls. A weighted row costs its output positions times the
elements of the ``.weight`` tensors under its path in ``parameter_shapes``
(the rule the kernels' ``add_macs`` calls follow); its params are every
tensor under that path. Windowed attention costs ``2*N*w^2*d_k`` MACs per
head, global attention ``2*N^2*d_k``. The headline number is the MAC count
itself (1 MAC = 1 FLOP, the convention of the usual ViT profilers); a doubled
count (1 MAC = 2 FLOPs) is always carried alongside as ``flops_total``.

Totals are exact integer sums of the rows, and the MAC total equals what an
instrumented forward pass counts, which is a standing test.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, replace

from .model import TOKENIZER_STRIDES, ModelConfig, build_from_pattern, parameter_shapes


@dataclass(frozen=True)
class CostRow:
    name: str
    params: int
    macs: int


@dataclass
class CostReport:
    model: str
    input_size: int
    rows: list[CostRow]

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    def to_text(self) -> str:
        width = max(len(r.name) for r in self.rows) + 2
        lines = [
            f"model {self.model} @ {self.input_size}x{self.input_size}  "
            "(headline counts multiply-accumulates (1 MAC = 1 FLOP))",
            f"{'module'.ljust(width)}{'params':>12}{'macs':>16}",
        ]
        for r in self.rows:
            lines.append(f"{r.name.ljust(width)}{r.params:>12}{r.macs:>16}")
        lines.append(f"{'TOTAL'.ljust(width)}{self.total_params:>12}{self.total_macs:>16}")
        lines.append(
            f"params {self.total_params / 1e6:.2f} M, "
            f"flops {self.total_macs / 1e9:.3f} G (x2 = {2 * self.total_macs / 1e9:.3f} G)"
        )
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["module", "params", "flops_mac", "flops_total"])
        for r in self.rows:
            writer.writerow([r.name, r.params, r.macs, 2 * r.macs])
        writer.writerow(["TOTAL", self.total_params, self.total_macs, 2 * self.total_macs])
        return buf.getvalue()


def count_model(config: ModelConfig, input_size: int | None = None) -> CostReport:
    """Per-module cost rows for a config, without running the network."""
    if input_size:
        config = replace(config, input_size=input_size)  # ModelConfig checks the size
    params: Counter[str] = Counter()  # elements of every tensor under a path
    weights: Counter[str] = Counter()  # elements of the .weight tensors under a path
    for name, shape in parameter_shapes(config).items():
        parts, size = name.split("."), math.prod(shape)
        for i in range(1, len(parts)):
            path = ".".join(parts[:i])
            params[path] += size
            if parts[-1] == "weight":
                weights[path] += size

    rows: list[CostRow] = []

    def row(path: str, positions: int) -> None:
        rows.append(CostRow(path, params[path], positions * weights[path]))

    res = config.input_size
    for i, stride in enumerate(TOKENIZER_STRIDES, start=1):
        res //= stride
        row(f"tokenizer.conv{i}", res * res)
        if i < 4:
            row(f"tokenizer.norm{i}", res * res)
            row(f"tokenizer.act{i}", res * res)

    for s, stage in enumerate(config.stages, start=1):
        n = config.stage_resolution(s - 1) ** 2
        d = stage.dim
        keys = stage.kernel_w**2 if stage.kind == "D" else n
        for b in range(stage.depth):
            pfx = f"stage{s}.block{b}"
            row(f"{pfx}.cpe", n)
            row(f"{pfx}.norm1", n)
            row(f"{pfx}.qkv", n)
            rows.append(CostRow(f"{pfx}.attn", 0, 2 * n * keys * d))
            row(f"{pfx}.proj", n)
            row(f"{pfx}.norm2", n)
            row(f"{pfx}.mlp", n)
        if s < 4:
            row(f"downsample{s}", config.stage_resolution(s) ** 2)

    n = config.stage_resolution(3) ** 2
    row("head.norm", n)
    row("head.pool", n)
    row("head.fc", 1)
    return CostReport(model=config.name, input_size=config.input_size, rows=rows)


def count_pattern_suite(
    base_config: ModelConfig, patterns: list[str], input_size: int | None = None
) -> list[tuple[str, CostReport]]:
    """One report per D/G stage pattern applied to a base config."""
    return [
        (pattern, count_model(build_from_pattern(pattern, base_config), input_size))
        for pattern in patterns
    ]
