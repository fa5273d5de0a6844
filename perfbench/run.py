"""Benchmark of dilatevit: three closed-loop, one-thread workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. Metric names and units come from
``BENCHMARK.json``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only when every output check passed. See README.md.
"""

import os

# One thread everywhere, fixed before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "dilatevit" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program sources at {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

from dilatevit import counting, runtime  # noqa: E402
from dilatevit.profiler import count_model  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5  # setup_s is the median of this many set-ups


def _module_macs(config, images_per_op):
    """Analytic MACs per call of the traced model modules, from count_model rows."""
    groups = {"model.tokenize": ("tokenizer.",), "model.downsample": ("downsample",)}
    groups.update({f"model.stage{s}": (f"stage{s}.",) for s in range(1, 5)})
    rows = count_model(config).rows
    return {
        module: images_per_op * sum(r.macs for r in rows if r.name.startswith(prefixes))
        for module, prefixes in groups.items()
    }


def _layer_metrics(tracer, n_ops, setup_tracer, n_setups, module_macs):
    """Per-layer metrics, per workload call (setup spans per set-up)."""
    spans, counts, macs = tracer.spans, tracer.counts, tracer.macs

    def incl(name):
        return spans.get(name, (0, 0, 0))[0]

    def self_ns(name):
        return spans.get(name, (0, 0, 0))[1]

    m = {}
    for name in ("tensor.gelu", "tensor.gelu_grad", "tensor.matmul", "tensor.conv2d", "tensor.conv2d_backward",
                 "tensor.softmax", "autograd.graph", "autograd.layernorm", "autograd.add_bias",
                 "autograd.slice_concat", "autograd.backward", "autograd.update", "swda.forward",
                 "swda.backward", "metrics.locality_mass", "metrics.sparsity_profile"):
        m[f"{name}.self_ms"] = self_ns(name) / n_ops / 1e6
    for name in ("msda.msda_attention", "msda.mhsa_attention", *module_macs, "model.load_checkpoint",
                 "train.batch_loss", "metrics.from_swda_weights", "metrics.from_dense", "dft1.read_tensor"):
        m[f"{name}.ms"] = incl(name) / n_ops / 1e6
    for name in ("model.init_params", "model.save_checkpoint"):
        m[f"{name}.s"] = setup_tracer.spans.get(name, (0,))[0] / n_setups / 1e9
    m["swda.forward.calls"] = spans.get("swda.forward", (0, 0, 0))[2] / n_ops
    m["autograd.tape_nodes"] = counts.get("autograd.tape_nodes", 0) / n_ops
    m["counting.macs"] = counts.get("counting.macs", 0) / n_ops
    m["metrics.dense_mb"] = counts.get("metrics.dense_bytes", 0) / n_ops / 1e6
    m["dft1.read_mb"] = counts.get("dft1.read_bytes", 0) / n_ops / 1e6
    kernel_ns = self_ns("tensor.matmul") + self_ns("tensor.conv2d")
    kernel_macs = macs.get("tensor.matmul", 0) + macs.get("tensor.conv2d", 0)
    m["tensor.gmacs_per_s"] = kernel_macs / kernel_ns if kernel_ns else 0.0
    for module, per_op in module_macs.items():
        ns = incl(module)
        m[f"{module}.gmacs_per_s"] = per_op * n_ops / ns if ns else 0.0
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    runtime.set_num_threads(1)
    workdir = ROOT / ".perfbench_run" / wl.name
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, wl, str(workdir), declared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wl, workdir, declared):
    clock = time.perf_counter
    setup_tracer = Tracer()
    setup_times = []
    for _ in range(SETUP_REPS):
        state = None  # drop the previous state before timing the next build
        with setup_tracer.installed() if args.trace else nullcontext():
            start = clock()
            state = wl.setup(args.seed, workdir)
            setup_times.append(clock() - start)

    results = []  # (call index, output) of every call that returned
    failed = 0

    def call(tracer=None):
        nonlocal failed
        i = len(results) + failed
        with tracer.installed() if tracer else nullcontext():
            start = time.perf_counter_ns()
            try:
                out = wl.op(state, i)
                ok = True
            except Exception:  # a failed operation is counted, the run goes on
                traceback.print_exc()
                ok = False
            elapsed = time.perf_counter_ns() - start
        if ok:
            results.append((i, out))
        else:
            failed += 1
        return elapsed

    # Probe call, untimed: traced memory peak and the program's own MAC count.
    tracemalloc.start()
    with counting.mac_counter() as counter:
        call()
    peak_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    for _ in range(wl.warmup_ops):
        call()

    # Timed window. A traced run alternates untraced and traced calls, so
    # both see the same drift of the host and their ratio is the overhead.
    tracer = Tracer() if args.trace else None
    plain_ns, traced_ns, untraced_ns = [], [], 0
    window_start = clock()
    while clock() - window_start < args.seconds or (tracer is not None and not traced_ns):
        if tracer is not None and len(plain_ns) > len(traced_ns):
            tracer.reset_top_level()
            elapsed = call(tracer)
            traced_ns.append(elapsed)
            untraced_ns += elapsed - tracer.top_level_ns()
        else:
            plain_ns.append(call())
    window = clock() - window_start
    while len(results) + failed < wl.min_ops:
        call()

    failures = []
    expected_macs = wl.images_per_op * count_model(state.config).total_macs
    if counter.macs != expected_macs:
        failures.append(f"one call counted {counter.macs} MACs, count_model gives {expected_macs}")
    failures += wl.check(state, results)
    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    if args.trace:
        module_macs = _module_macs(state.config, wl.images_per_op)
        values = _layer_metrics(tracer, len(traced_ns), setup_tracer, SETUP_REPS, module_macs)
        values["trace.overhead_pct"] = 100.0 * (statistics.median(traced_ns) / statistics.median(plain_ns) - 1.0)
        values["trace.untraced_ms"] = untraced_ns / len(traced_ns) / 1e6
        print(f"{'module':<18}{'ms/call':>10}{'analytic MACs/call':>20}{'GMAC/s':>9}")
        for module, macs in module_macs.items():
            print(f"{module:<18}{values[module + '.ms']:>10.2f}{macs:>20}{values[module + '.gmacs_per_s']:>9.2f}")
        specs = declared["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": statistics.median(plain_ns) / 1e6,
            "items_per_s": wl.items_per_op * len(plain_ns) / window,
            "peak_mem_mb": peak_bytes / 1e6,
        }
        specs = declared["end_to_end"]
    if set(values) != {s["name"] for s in specs}:
        raise SystemExit(f"perfbench: computed metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    for name, metric in metrics.items():
        print(f"{wl.name} {name} {metric['value']:.6g} {metric['unit']}")
    attempted = len(results) + failed
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
