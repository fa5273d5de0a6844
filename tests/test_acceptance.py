"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Criterion 1 is parametrized per model size and checks the
profiler's parameter count against a closed-form oracle. The published small
parameter figure (21 M) contradicts its own stage table, so for small the test
asserts that contradiction (the blocks plus downsample3 already exceed 21 M
+5%) instead of a band no accounting of that table can reach.
"""

import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import attention_to_dense, dense_window_oracle, param_count_breakdown

from dilatevit import metrics, model, runtime
from dilatevit.autograd import Tape, accumulate_param_grads, backward, graph, zero_grads
from dilatevit.data import DatasetSpec, make_dataset
from dilatevit.gradsuite import run_gradient_suite
from dilatevit.msda import MsdaBlockSpec, mhsa_attention, msda_attention
from dilatevit.profiler import count_model, count_pattern_suite
from dilatevit.swda import SwdaConfig, swda_forward
from dilatevit.train import batch_loss, train
from tests_common import make_block_params_f32


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


# -- 1. headline complexity ---------------------------------------------------

PUBLISHED = {
    "tiny": (3.2e9, 17e6),
    "small": (4.8e9, 21e6),
    "base": (10.0e9, 47e6),
}


@pytest.mark.parametrize("preset", ["tiny", "small", "base"])
def test_criterion_01_flops_and_params(preset):
    flops_target, params_target = PUBLISHED[preset]
    config = model.PRESETS[preset]()
    start = time.perf_counter()
    rep = count_model(config, input_size=224)
    elapsed = time.perf_counter() - start
    parts = param_count_breakdown(config)
    oracle_total = sum(parts.values())
    floor = parts["blocks"] + parts["downsample3"]
    flops_ok = abs(rep.total_macs - flops_target) <= 0.10 * flops_target
    counted_ok = rep.total_params == oracle_total
    if preset == "small":
        # The published 21 M cannot be met by small's own stage table (depths
        # 3/5/8/3 at dims 72/144/288/576): the blocks and downsample3 alone
        # already exceed 21 M + 5%, so that floor is asserted instead of the band.
        params_ok = floor > 1.05 * params_target
        params_detail = (
            f"params {oracle_total / 1e6:.2f}M (oracle), blocks+downsample3 floor "
            f"{floor / 1e6:.2f}M vs published {params_target / 1e6:.0f}M +5% "
            f"= {1.05 * params_target / 1e6:.2f}M"
        )
    else:
        params_ok = abs(rep.total_params - params_target) <= 0.05 * params_target
        params_detail = (
            f"params {rep.total_params / 1e6:.2f}M vs {params_target / 1e6:.0f}M +-5%"
        )
    ok = flops_ok and counted_ok and params_ok and elapsed < 1.0
    report(
        f"1[{preset}]",
        ok,
        f"flops {rep.total_macs / 1e9:.3f}G vs {flops_target / 1e9:.1f}G +-10%, "
        f"{params_detail}, {elapsed * 1e3:.0f} ms",
    )
    assert flops_ok, f"{preset}: {rep.total_macs / 1e9:.3f} G outside +-10% of {flops_target / 1e9} G"
    assert elapsed < 1.0
    assert counted_ok, (
        f"{preset}: profiler counts {rep.total_params} params, closed-form oracle {oracle_total}"
    )
    assert params_ok, f"{preset}: {params_detail}"


# -- 2. ablation FLOPs --------------------------------------------------------


def test_criterion_02_ablation_flops():
    start = time.perf_counter()
    expected = {"GGGG": 6.36e9, "DGGG": 3.53e9, "DDGG": 3.18e9, "DDDG": 3.05e9, "DDDD": 3.04e9}
    suite = dict(count_pattern_suite(model.tiny(), list(expected)))
    pattern_ok = all(
        abs(suite[p].total_macs - expected[p]) <= 0.10 * expected[p] for p in expected
    )
    kernel_expected = {3: 3.18e9, 5: 3.21e9, 7: 3.24e9}
    kernel_ok = True
    for w, target in kernel_expected.items():
        cfg = model.tiny()
        stages = tuple(replace(s, kernel_w=w) if s.kind == "D" else s for s in cfg.stages)
        got = count_model(replace(cfg, stages=stages)).total_macs
        kernel_ok &= abs(got - target) <= 0.10 * target
    elapsed = time.perf_counter() - start
    ok = pattern_ok and kernel_ok and elapsed < 1.0
    report(
        "2",
        ok,
        f"patterns {[round(suite[p].total_macs / 1e9, 3) for p in expected]} G, "
        f"kernel sweep ok={kernel_ok}, {elapsed * 1e3:.0f} ms",
    )
    assert ok


# -- 3. oracle equivalence ----------------------------------------------------


def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases = 1000
    worst = 0.0
    for i in range(cases):
        h = int(rng.integers(1, 9))
        w_map = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        cfg = SwdaConfig(
            w=int(rng.choice([1, 3, 5])),
            r=int(rng.integers(1, 4)),
            d_k=d,
            edge_mode="zero_pad" if i % 2 == 0 else "masked",
        )
        q, k, v = (rng.standard_normal((h, w_map, d)) for _ in range(3))
        got, _ = swda_forward(q, k, v, cfg)
        want = dense_window_oracle(q, k, v, cfg)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    report("3", ok, f"{cases} cases, worst |diff| {worst:.2e}, {elapsed:.1f} s")
    assert ok


# -- 4. gradient correctness --------------------------------------------------


def test_criterion_04_gradient_correctness():
    start = time.perf_counter()
    suite = run_gradient_suite(seed=4, cases=201, budget=4)
    elapsed = time.perf_counter() - start
    ok = suite.max_rel < 1e-4 and elapsed < 300.0
    report(
        "4",
        ok,
        f"{len(suite.cases)} finite-difference checks, worst rel err {suite.max_rel:.2e} "
        f"({suite.worst_case[0]}), {elapsed:.1f} s",
    )
    assert ok


# -- 5. dense-equivalence bridge ----------------------------------------------


def test_criterion_05_msda_mhsa_bridge():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        h = int(rng.integers(2, 5))
        w_map = int(rng.integers(2, 5))
        n_heads = int(rng.choice([1, 2, 4]))
        d_k = int(rng.integers(1, 5))
        dim = n_heads * d_k
        win = 2 * max(h, w_map) - 1
        spec = MsdaBlockSpec(
            dim=dim, n_heads=n_heads, dilation_rates=(1,), kernel_w=win, edge_mode="masked"
        )
        params = make_block_params_f32(spec, "b", rng)
        x = rng.standard_normal((h, w_map, dim)).astype(np.float32)
        g1 = graph(Tape())
        dilated = msda_attention(g1, g1.leaf(x), spec, params, "b")
        g2 = graph(Tape())
        dense = mhsa_attention(g2, g2.leaf(x), spec, params, "b")
        worst = max(worst, float(np.abs(dilated.data - dense.data).max()))
    ok = worst < 1e-6
    report("5", ok, f"50 span-covering configs, worst |diff| {worst:.2e} (f32)")
    assert ok


# -- 6. multi-scale zero overhead ----------------------------------------------


def test_criterion_06_multiscale_zero_overhead():
    base_cfg = model.tiny()

    def with_rates(rates):
        stages = tuple(
            replace(s, dilation_rates=rates) if s.kind == "D" else s for s in base_cfg.stages
        )
        return count_model(replace(base_cfg, stages=stages))

    multi = with_rates((1, 2, 3))
    single = with_rates((1, 1, 1))
    ok = (
        multi.total_macs == single.total_macs
        and multi.total_params == single.total_params
    )
    report(
        "6",
        ok,
        f"rates [1,2,3] vs [1,1,1]: macs {multi.total_macs} == {single.total_macs}, "
        f"params {multi.total_params} == {single.total_params} (exact)",
    )
    assert ok


# -- 7. scaling property --------------------------------------------------------


def _round_robin_medians(fns, reps=9, warmup=2):
    """Median ns of each fn: all are warmed before any is timed, then each
    repetition times every fn once, so host drift falls on all sizes alike."""
    for fn in fns.values():
        for _ in range(warmup):
            fn()
    samples = {key: [] for key in fns}
    for _ in range(reps):
        for key, fn in fns.items():
            t0 = time.perf_counter_ns()
            fn()
            samples[key].append(time.perf_counter_ns() - t0)
    return {key: statistics.median(ns) for key, ns in samples.items()}


def test_criterion_07_scaling():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    cfg = SwdaConfig(w=3, r=3, d_k=24)
    swda_runs = {}
    for size in (28, 56, 112):
        q, k, v = (rng.standard_normal((size, size, 24)).astype(np.float32) for _ in range(3))
        swda_runs[size] = lambda q=q, k=k, v=v: swda_forward(q, k, v, cfg)
    swda_per_query = [ns / (s * s) for s, ns in _round_robin_medians(swda_runs).items()]
    swda_ratio = max(swda_per_query) / min(swda_per_query)

    dim = 24
    spec = MsdaBlockSpec(dim=dim, n_heads=1, dilation_rates=(1,))
    params = make_block_params_f32(spec, "m", rng)
    mhsa_runs = {}
    for size in (28, 56):
        x = rng.standard_normal((size, size, dim)).astype(np.float32)

        def run(x=x):
            g = graph(Tape())
            mhsa_attention(g, g.leaf(x), spec, params, "m")

        mhsa_runs[size] = run
    mhsa_ns = _round_robin_medians(mhsa_runs)
    mhsa_growth = (mhsa_ns[56] / 56**2) / (mhsa_ns[28] / 28**2)
    elapsed = time.perf_counter() - start
    ok = swda_ratio < 2.0 and mhsa_growth >= 4.0 and elapsed < 120.0
    report(
        "7",
        ok,
        f"swda per-query spread {swda_ratio:.2f}x (<2), mhsa per-query growth "
        f"{mhsa_growth:.1f}x (>=4), {elapsed:.1f} s",
    )
    assert ok


# -- 8. toy trainability ---------------------------------------------------------


def test_criterion_08_toy_trainability():
    start = time.perf_counter()
    result = train(model.toy(), steps=200, batch_size=16, lr=0.01, weight_decay=1e-4, seed=0)
    elapsed = time.perf_counter() - start
    ok = result.final_accuracy >= 0.95 and elapsed < 600.0
    report(
        "8",
        ok,
        f"train accuracy {result.final_accuracy:.3f} after 200 steps, {elapsed:.0f} s",
    )
    assert ok


# -- 9. determinism ---------------------------------------------------------------


def test_criterion_09_thread_determinism(tmp_path):
    config = model.toy()
    images, labels = make_dataset(8, DatasetSpec(classes=4, size=32), seed=9)
    reference = None
    try:
        for threads in (1, 2, 8):
            runtime.set_num_threads(threads)
            params = model.init_params(config, seed=9)
            logits = model.predict(config, params, images[0])
            tape, loss = batch_loss(config, params, images[:4], labels[:4])
            zero_grads(params)
            accumulate_param_grads(tape, backward(tape, loss))
            grads = np.concatenate([params[k].grad.reshape(-1) for k in sorted(params)])
            ckpt_dir = tmp_path / f"t{threads}"
            result = train(config, steps=3, batch_size=4, seed=9, images=images, labels=labels)
            model.save_checkpoint(ckpt_dir, config, result.params)
            blob = b"".join(
                p.read_bytes() for p in sorted(ckpt_dir.iterdir(), key=lambda p: p.name)
            )
            bundle = (logits.tobytes(), grads.tobytes(), blob)
            if reference is None:
                reference = bundle
            else:
                assert bundle[0] == reference[0], f"forward differs at {threads} threads"
                assert bundle[1] == reference[1], f"gradients differ at {threads} threads"
                assert bundle[2] == reference[2], f"checkpoint differs at {threads} threads"
    finally:
        runtime.set_num_threads(1)
    report("9", True, "forward/gradients/checkpoints bit-identical at 1, 2, 8 threads")


# -- 10. metric sanity -------------------------------------------------------------


def test_criterion_10_metric_sanity():
    rng = np.random.default_rng(10)
    checked = 0
    for w in (1, 3, 5):
        for rate in (1, 2, 3):
            cfg = SwdaConfig(w=w, r=rate, d_k=3, edge_mode="masked")
            h = w_map = 8
            q, k, v = (rng.standard_normal((h, w_map, 3)) for _ in range(3))
            _, weights = swda_forward(q, k, v, cfg)
            amap = metrics.from_swda_weights(weights, cfg)
            radius = (w - 1) * rate // 2
            outside = metrics._chebyshev_table(h, w_map) > radius
            assert np.all(attention_to_dense(weights, cfg)[outside] == 0.0), (w, rate)
            per_query, _ = metrics.locality_mass(amap, radius)
            assert np.array_equal(per_query, amap.weights.sum(axis=1))
            assert np.abs(per_query - 1.0).max() < 1e-12
            stats = metrics.sparsity_profile(amap, 1e-12)
            assert stats.mean_active_keys <= w * w
            checked += 1
    report("10", True, f"{checked} configs: zero mass outside tap radius, active keys <= w^2")
