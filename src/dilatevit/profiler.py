"""Analytic parameter and FLOPs accounting over a model config.

Counting convention
-------------------
``macs`` is the number of multiply-accumulate operations in convolutions,
linear projections and attention matmuls (windowed attention costs
``2*N*w^2*d_k`` MACs per head, global attention ``2*N^2*d_k``). The headline
number reported against published complexity tables is the MAC count itself
(1 MAC = 1 FLOP, the convention of the usual ViT profilers); a doubled
count (1 MAC = 2 FLOPs) is always carried alongside as ``flops_total``.

Normalization, softmax, GELU and pooling are itemized per row in an
``elementwise`` column using small fixed per-element costs and are excluded
from the headline so the matmul-only totals can be compared directly.

Totals are exact integer sums of the rows, and the MAC total equals what an
instrumented forward pass counts, which is a standing test.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelConfig, parameter_shapes

NORM_OPS_PER_ELT = 8
GELU_OPS_PER_ELT = 14
SOFTMAX_OPS_PER_ELT = 5
POOL_OPS_PER_ELT = 1


@dataclass(frozen=True)
class CostRow:
    name: str
    params: int
    macs: int
    elementwise: int = 0


@dataclass
class CostReport:
    model: str
    input_size: int
    rows: list[CostRow]
    convention: str = "headline counts multiply-accumulates (1 MAC = 1 FLOP)"

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def total_elementwise(self) -> int:
        return sum(r.elementwise for r in self.rows)

    def headline_flops(self, flops_per_mac: int = 1) -> int:
        return self.total_macs * flops_per_mac

    def attention_rows(self) -> list[CostRow]:
        return [r for r in self.rows if r.name.endswith(".attn")]

    def to_text(self) -> str:
        width = max(len(r.name) for r in self.rows) + 2
        lines = [
            f"model {self.model} @ {self.input_size}x{self.input_size}  ({self.convention})",
            f"{'module'.ljust(width)}{'params':>12}{'macs':>16}{'elementwise':>14}",
        ]
        for r in self.rows:
            lines.append(
                f"{r.name.ljust(width)}{r.params:>12}{r.macs:>16}{r.elementwise:>14}"
            )
        lines.append(
            f"{'TOTAL'.ljust(width)}{self.total_params:>12}{self.total_macs:>16}"
            f"{self.total_elementwise:>14}"
        )
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


def _conv_macs(h_out: int, w_out: int, kernel_cin: int, cout: int, k: int) -> int:
    """MACs of a k x k conv whose kernel reads ``kernel_cin`` channels per output: 1 if depth-wise."""
    return h_out * w_out * cout * k * k * kernel_cin


def count_model(config: ModelConfig, input_size: int | None = None) -> CostReport:
    """Per-module cost rows for a config, without running the network."""
    size = input_size or config.input_size
    if size % 32 != 0:
        raise ConfigError(f"input size must be divisible by 32, got {size}")
    shapes = parameter_shapes(config)

    def params_under(prefix: str) -> int:
        dot = prefix + "."
        total = 0
        for name, shape in shapes.items():
            if name.startswith(dot):
                n = 1
                for extent in shape:
                    n *= extent
                total += n
        return total

    rows: list[CostRow] = []
    tc = config.tokenizer_channels
    chans = [config.in_channels, *tc]
    res = size
    strides = (2, 1, 2, 1)
    for i in range(4):
        res = res // strides[i]
        rows.append(
            CostRow(
                f"tokenizer.conv{i + 1}",
                params_under(f"tokenizer.conv{i + 1}"),
                _conv_macs(res, res, chans[i], chans[i + 1], 3),
            )
        )
        if i < 3:
            elems = res * res * chans[i + 1]
            rows.append(
                CostRow(
                    f"tokenizer.norm{i + 1}",
                    params_under(f"tokenizer.norm{i + 1}"),
                    0,
                    NORM_OPS_PER_ELT * elems,
                )
            )
            rows.append(CostRow(f"tokenizer.act{i + 1}", 0, 0, GELU_OPS_PER_ELT * elems))

    for s, stage in enumerate(config.stages, start=1):
        spec = config.block_spec(s - 1)
        res = config.stage_resolution(s - 1, size)
        n = res * res
        d = stage.dim
        hidden = config.mlp_ratio * d
        if stage.kind == "D":
            attn_macs = 2 * n * spec.kernel_w * spec.kernel_w * d
            softmax_elems = stage.n_heads * n * spec.kernel_w * spec.kernel_w
        else:
            attn_macs = 2 * n * n * d
            softmax_elems = stage.n_heads * n * n
        for b in range(stage.depth):
            pfx = f"stage{s}.block{b}"
            rows.append(CostRow(f"{pfx}.cpe", params_under(f"{pfx}.cpe"), _conv_macs(res, res, 1, d, 3)))
            rows.append(CostRow(f"{pfx}.norm1", params_under(f"{pfx}.norm1"), 0, NORM_OPS_PER_ELT * n * d))
            rows.append(CostRow(f"{pfx}.qkv", params_under(f"{pfx}.qkv"), n * d * 3 * d))
            rows.append(CostRow(f"{pfx}.attn", 0, attn_macs, SOFTMAX_OPS_PER_ELT * softmax_elems))
            rows.append(CostRow(f"{pfx}.proj", params_under(f"{pfx}.proj"), n * d * d))
            rows.append(CostRow(f"{pfx}.norm2", params_under(f"{pfx}.norm2"), 0, NORM_OPS_PER_ELT * n * d))
            rows.append(
                CostRow(
                    f"{pfx}.mlp",
                    params_under(f"{pfx}.mlp"),
                    2 * n * d * hidden,
                    GELU_OPS_PER_ELT * n * hidden,
                )
            )
        if s < 4:
            out_res = res // 2
            rows.append(
                CostRow(
                    f"downsample{s}",
                    params_under(f"downsample{s}"),
                    _conv_macs(out_res, out_res, d, config.stages[s].dim, 3),
                )
            )

    d4 = config.stages[3].dim
    final_res = config.stage_resolution(3, size)
    rows.append(CostRow("head.norm", params_under("head.norm"), 0, NORM_OPS_PER_ELT * final_res * final_res * d4))
    rows.append(CostRow("head.pool", 0, 0, POOL_OPS_PER_ELT * final_res * final_res * d4))
    rows.append(CostRow("head.fc", params_under("head.fc"), d4 * config.num_classes))
    return CostReport(model=config.name, input_size=size, rows=rows)


def count_pattern_suite(
    base_config: ModelConfig, patterns: list[str], input_size: int | None = None
) -> list[tuple[str, CostReport]]:
    """One report per D/G stage pattern applied to a base config."""
    from .model import build_from_pattern

    return [
        (pattern, count_model(build_from_pattern(pattern, base_config), input_size))
        for pattern in patterns
    ]
