"""Randomized finite-difference verification of the analytic gradients.

Cases cycle through three levels: the windowed attention op alone, the
multi-head multi-scale attention layer, and a full transformer block (both
kinds). Everything runs in float64 with a fixed seed so reports are
byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import FdReport, Parameter, Tape, finite_diff_check, graph
from .msda import MsdaBlockSpec, block_param_shapes, msda_attention, transformer_block
from .swda import SwdaConfig

GRAD_TOL = 1e-4


@dataclass
class SuiteReport:
    cases: list[tuple[str, FdReport]]  # (case name, its report)

    @property
    def worst_case(self) -> tuple[str, FdReport]:
        return max(self.cases, key=lambda c: c[1].max_rel)

    @property
    def max_rel(self) -> float:
        return self.worst_case[1].max_rel

    def passed(self, tol: float = GRAD_TOL) -> bool:
        return self.max_rel < tol

    def to_lines(self) -> list[str]:
        lines = [f"{name}: max rel err {r.max_rel:.3e} ({r.worst_param})" for name, r in self.cases]
        name, worst = self.worst_case
        lines.append(
            f"worst over {len(self.cases)} cases: {worst.max_rel:.3e} "
            f"in {name} ({worst.worst_param})"
        )
        return lines


def _random_block_params(
    spec: MsdaBlockSpec, prefix: str, rng: np.random.Generator
) -> dict[str, Parameter]:
    """Block parameters with smooth random values, all in float64."""
    params = {}
    for name, shape in block_param_shapes(spec, prefix).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gamma":
            value = 1.0 + 0.2 * rng.standard_normal(shape)
        else:
            value = 0.4 * rng.standard_normal(shape)
        params[name] = Parameter(name, value.astype(np.float64))
    return params


def _weighted_sum_loss(g: graph, out, weights: np.ndarray):
    return g.sum_all(g.mul(out, g.leaf(weights)))


def _corrupted_identity(g: graph, x):
    """Identity forward whose backward is off by 1%: the harness must flag it."""
    return g.tape.record(x.data.copy(), (x,), lambda grad: (grad * 1.01,))


def _swda_case(rng: np.random.Generator, case_id: int, corrupt: bool):
    h = int(rng.integers(2, 6))
    w_map = int(rng.integers(2, 6))
    d = int(rng.integers(1, 5))
    w = int(rng.choice([1, 3]))
    r = int(rng.integers(1, 4))
    mode = "zero_pad" if rng.integers(0, 2) == 0 else "masked"
    cfg = SwdaConfig(w=w, r=r, d_k=d, edge_mode=mode)
    params = {"qkv": Parameter("qkv", rng.standard_normal((h, w_map, 3 * d)))}
    loss_w = rng.standard_normal((h, w_map, d))

    def build():
        tape = Tape()
        g = graph(tape)
        out = g.swda(g.param(params["qkv"]), (cfg,))
        if corrupt:
            out = _corrupted_identity(g, out)
        return tape, _weighted_sum_loss(g, out, loss_w)

    name = f"case{case_id:03d}.swda(h={h},w={w_map},d={d},win={w},r={r},{mode})"
    return name, build, params


def _msda_case(rng: np.random.Generator, case_id: int, corrupt: bool):
    n_heads = int(rng.choice([1, 2]))
    d_k = int(rng.integers(2, 4))
    dim = n_heads * d_k
    rates = tuple(int(rng.integers(1, 3)) for _ in range(n_heads))
    mode = "zero_pad" if rng.integers(0, 2) == 0 else "masked"
    spec = MsdaBlockSpec(dim=dim, n_heads=n_heads, dilation_rates=rates, edge_mode=mode)
    h = int(rng.integers(2, 5))
    w_map = int(rng.integers(2, 5))
    params = _random_block_params(spec, "b", rng)
    params["x"] = Parameter("x", rng.standard_normal((h, w_map, dim)))
    loss_w = rng.standard_normal((h, w_map, dim))

    def build():
        tape = Tape()
        g = graph(tape)
        out = msda_attention(g, g.param(params["x"]), spec, params, "b")
        if corrupt:
            out = _corrupted_identity(g, out)
        return tape, _weighted_sum_loss(g, out, loss_w)

    name = f"case{case_id:03d}.msda(dim={dim},heads={n_heads},rates={rates},{mode})"
    return name, build, params


def _block_case(rng: np.random.Generator, case_id: int, corrupt: bool):
    kind = "D" if rng.integers(0, 2) == 0 else "G"
    n_heads = 2
    d_k = int(rng.integers(2, 4))
    dim = n_heads * d_k
    spec = MsdaBlockSpec(dim=dim, n_heads=n_heads, dilation_rates=(1, 2))
    h = int(rng.integers(3, 5))
    w_map = int(rng.integers(3, 5))
    params = _random_block_params(spec, "b", rng)
    params["x"] = Parameter("x", rng.standard_normal((h, w_map, dim)))
    loss_w = rng.standard_normal((h, w_map, dim))

    def build():
        tape = Tape()
        g = graph(tape)
        out = transformer_block(g, g.param(params["x"]), spec, params, "b", kind=kind)
        if corrupt:
            out = _corrupted_identity(g, out)
        return tape, _weighted_sum_loss(g, out, loss_w)

    name = f"case{case_id:03d}.block(kind={kind},dim={dim},{h}x{w_map})"
    return name, build, params


_CASE_BUILDERS = (_swda_case, _msda_case, _block_case)


def run_gradient_suite(
    seed: int = 0, cases: int = 30, budget: int = 6, corrupt: bool = False
) -> SuiteReport:
    """Run ``cases`` randomized checks; returns per-case worst relative errors."""
    results = []
    root = np.random.default_rng(seed)
    for i in range(cases):
        rng = np.random.default_rng(root.integers(0, 2**63))
        builder = _CASE_BUILDERS[i % len(_CASE_BUILDERS)]
        name, build, params = builder(rng, i, corrupt)
        results.append((name, finite_diff_check(build, params, h=1e-5, budget=budget, seed=i)))
    return SuiteReport(results)
