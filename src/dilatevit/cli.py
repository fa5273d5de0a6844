"""Command-line interface.

Subcommands: flops, gradcheck, bench, train, attnstats, gen-data. Exit codes
are a stable contract: 0 success, 1 assertion/accuracy failure, 2 usage
error. Each subcommand takes only the flags it reads: all but flops take
--seed, bench and train take --dtype, flops and train take --config, and
every one takes --out and --threads, which changes nothing: numpy's
OpenBLAS follows OPENBLAS_NUM_THREADS. Apart from measured timings in bench
output, results are byte-identical across runs at one BLAS thread count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import statistics
import sys
import time

import numpy as np

from . import dft1, metrics, model as model_mod, profiler, train as train_mod
from .data import MAX_CLASSES, DatasetSpec, make_dataset
from .errors import ConfigError, DilateVitError, FormatError
from .gradsuite import GRAD_TOL, run_gradient_suite
from .msda import MsdaBlockSpec
from .swda import SwdaConfig, swda_forward, swda_forward_naive

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _positive_int(text: str, minimum: int = 1) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _positive_ints(text: str, minimum: int = 1) -> list[int]:  # comma-separated
    return [_positive_int(part, minimum) for part in text.split(",")]


def _count(text: str) -> int:  # a count that may be 0
    return _positive_int(text, minimum=0)


def _radii_arg(text: str) -> list[int]:  # radius 0 is the query's own token
    return _positive_ints(text, minimum=0)


def _number(check, want: str):
    """A parse-time type for a finite float that ``check`` accepts, ``want`` saying which."""
    def number(text: str) -> float:
        if not (np.isfinite(value := float(text)) and check(value)):
            raise argparse.ArgumentTypeError(f"must be a finite number {want}, got {text!r}")
        return value
    return number


def _grid_arg(text: str) -> tuple[int, int]:
    extents = _positive_ints(text)
    if len(extents) != 2:
        raise argparse.ArgumentTypeError(f"want H,W, got {text!r}")
    return extents[0], extents[1]


_FLAGS = {
    "--threads": dict(type=_positive_int, default=1,
                      help="accepted for compatibility; no effect, the library starts no threads"),
    "--out": dict(default=None, help="output path (file or directory)"),
    "--seed": dict(type=int, default=0, help="root seed for all randomness"),
    "--dtype": dict(choices=["f32", "f64"], default="f32"),
    "--config": dict(default=None, help="JSON model config path"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """--threads and --out, which every subcommand takes, then the named flags of _FLAGS."""
    for name in ("--threads", "--out", *names):
        parser.add_argument(name, **_FLAGS[name])


def _resolve_config(args, default_preset: str) -> model_mod.ModelConfig:
    if args.config:
        return model_mod.load_config(args.config)
    return model_mod.PRESETS[args.preset or default_preset]()


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# flops
# ---------------------------------------------------------------------------


def _expect_arg(spec: str) -> tuple[str, float, float]:
    try:
        key, rest = spec.split("=", 1)
        value, tol = rest.split(":", 1)
        key, value, tol = key.strip(), float(value), float(tol)
        if key not in ("flops", "params") or not (0 < value < np.inf and 0 <= tol < np.inf):
            raise ValueError(key)  # a tolerance is relative to value
        return key, value, tol
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad expectation {spec!r}, want flops|params=value:tolerance, finite, value > 0, tolerance >= 0 (e.g. flops=3.2e9:0.10)"
        ) from exc


def _pattern_arg(pattern: str) -> str:
    try:
        return model_mod.check_pattern(pattern)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def cmd_flops(args) -> int:
    config = _resolve_config(args, default_preset="tiny")
    if args.pattern:
        config = model_mod.build_from_pattern(args.pattern, config)
    if args.kernel_w is not None:
        from dataclasses import replace

        stages = tuple(
            replace(s, kernel_w=args.kernel_w) if s.kind == "D" else s
            for s in config.stages
        )
        config = replace(config, stages=stages)

    if args.suite:
        suite = profiler.count_pattern_suite(config, ["GGGG", "DGGG", "DDGG", "DDDG", "DDDD"], args.input)
        if args.csv:  # the columns of CostReport.to_csv
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["pattern", "params", "flops_mac", "flops_total"])
            writer.writerows([pattern, r.total_params, r.total_macs, 2 * r.total_macs] for pattern, r in suite)
            _write_or_print(buf.getvalue(), args.out)
        else:
            lines = [f"{'pattern':<8}{'params':>12}{'flops_mac':>16}"]
            lines += [f"{pattern:<8}{r.total_params:>12}{r.total_macs:>16}" for pattern, r in suite]
            _write_or_print("\n".join(lines), args.out)
        return EXIT_OK

    report = profiler.count_model(config, args.input)
    _write_or_print(report.to_csv() if args.csv else report.to_text(), args.out)

    status = EXIT_OK
    for key, value, tol in args.expect or []:
        if key == "flops":
            actual = report.total_macs * args.flops_per_mac
        else:
            actual = report.total_params
        ok = abs(actual - value) <= tol * value
        print(
            f"expect {key}={value:g} tol {tol:.0%}: actual {actual:g} "
            f"({(actual - value) / value:+.2%}) -> {'ok' if ok else 'VIOLATED'}"
        )
        if not ok:
            status = EXIT_FAIL
    return status


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    report = run_gradient_suite(
        seed=args.seed, cases=args.cases, budget=args.budget, corrupt=args.corrupt
    )
    text = "\n".join(report.to_lines())
    _write_or_print(text, args.out)
    return EXIT_OK if report.passed(args.tol) else EXIT_FAIL


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _time_median_ns(fn, reps: int, warmup: int) -> int:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    return int(statistics.median(samples))


def cmd_bench(args) -> int:
    cfg = SwdaConfig(w=args.window, r=args.rate, d_k=args.dk)
    rng = np.random.default_rng(args.seed)
    dtype = np.float32 if args.dtype == "f32" else np.float64
    rows = []
    mismatch = False
    for size in args.sizes:
        q, k, v = (
            rng.standard_normal((size, size, args.dk)).astype(dtype) for _ in range(3)
        )
        blocked, _ = swda_forward(q, k, v, cfg)
        naive, _ = swda_forward_naive(q, k, v, cfg)
        if np.abs(blocked - naive).max() > 1e-6:
            print(
                f"blocked/naive mismatch at {size}x{size}: "
                f"{np.abs(blocked - naive).max():.3e}",
                file=sys.stderr,
            )
            mismatch = True
        for impl, fn in (
            ("swda_blocked", lambda: swda_forward(q, k, v, cfg)),
            ("swda_naive", lambda: swda_forward_naive(q, k, v, cfg)),
        ):
            ns = _time_median_ns(fn, args.reps, args.warmup)
            rows.append(
                (impl, size, size, cfg.w, cfg.r, cfg.d_k, ns, ns / (size * size))
            )

    from .autograd import Parameter, Tape, graph
    from .msda import mhsa_attention

    for size in args.mhsa_sizes or args.sizes:
        dim = args.dk  # single head keeps the memory footprint bounded
        spec = MsdaBlockSpec(dim=dim, n_heads=1, dilation_rates=(1,))
        x = rng.standard_normal((size, size, dim)).astype(dtype)
        params = {
            "m.qkv.weight": Parameter("m.qkv.weight", rng.standard_normal((dim, 3 * dim)).astype(dtype) * 0.1),
            "m.qkv.bias": Parameter("m.qkv.bias", np.zeros(3 * dim, dtype=dtype)),
            "m.proj.weight": Parameter("m.proj.weight", rng.standard_normal((dim, dim)).astype(dtype) * 0.1),
            "m.proj.bias": Parameter("m.proj.bias", np.zeros(dim, dtype=dtype)),
        }

        def run_mhsa():
            g = graph(Tape())
            mhsa_attention(g, g.leaf(x), spec, params, "m")

        ns = _time_median_ns(run_mhsa, args.reps, args.warmup)
        rows.append(("mhsa", size, size, 0, 0, dim, ns, ns / (size * size)))

    lines = ["impl,H,W,w,r,d_k,median_ns,ns_per_query"]
    for row in rows:
        lines.append(
            f"{row[0]},{row[1]},{row[2]},{row[3]},{row[4]},{row[5]},{row[6]},{row[7]:.1f}"
        )
    _write_or_print("\n".join(lines), args.out)
    return EXIT_FAIL if mismatch else EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _load_dataset_dir(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The images and labels gen-data wrote to ``path``; a file that cannot be read,
    a row without an integer label or a label count unlike the image count is a FormatError."""
    images = dft1.read_tensor(os.path.join(path, "images.dft1"))
    labels_path = os.path.join(path, "labels.csv")
    try:
        with open(labels_path, "r", encoding="utf-8") as fh:
            labels = np.asarray([int(row["label"]) for row in csv.DictReader(fh)], dtype=np.int64)
    except OSError as exc:
        raise FormatError(f"cannot read {labels_path}: {exc.strerror}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # also a file that is not UTF-8
        raise FormatError(f"{labels_path}: every row needs an integer label: {exc}") from exc
    if len(labels) != len(images):
        raise FormatError(f"{labels_path} holds {len(labels)} labels for {len(images)} images")
    return images, labels


def cmd_train(args) -> int:
    config = _resolve_config(args, default_preset="toy")
    if args.classes is not None and config.num_classes != args.classes:
        from dataclasses import replace

        config = replace(config, num_classes=args.classes)

    if args.data:
        images, labels = _load_dataset_dir(args.data)
    else:
        spec = DatasetSpec(classes=config.num_classes, size=config.input_size, noise=args.noise)
        images, labels = make_dataset(args.count, spec, seed=args.seed)

    result = train_mod.train(
        config,
        steps=args.steps,
        batch_size=args.batch,
        lr=args.lr,
        weight_decay=args.weight_decay,
        seed=args.seed,
        images=images,
        labels=labels,
        dtype=np.float32 if args.dtype == "f32" else np.float64,
    )

    out_dir = args.out or "train_out"
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "train_log.csv"), "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "step", "loss", "accuracy"])
        for row in result.log:
            writer.writerow([row.epoch, row.step, f"{row.loss:.6f}", f"{row.accuracy:.4f}"])
    model_mod.save_checkpoint(os.path.join(out_dir, "checkpoint"), config, result.params)

    print(f"final train accuracy {result.final_accuracy:.4f} after {args.steps} steps")
    return EXIT_OK if result.final_accuracy >= args.min_acc else EXIT_FAIL


# ---------------------------------------------------------------------------
# attnstats
# ---------------------------------------------------------------------------


class _StatRows:
    """The attnstats CSV, one attention map at a time. As a forward's attention
    sink it turns each head into its map and its rows as the head appears, so
    no map outlives its rows."""

    def __init__(self, radii: list[int], threshold: float):
        self.radii, self.threshold = radii, threshold
        self.lines = ["layer,radius_or_threshold,metric,value"]

    def append(self, head) -> None:
        layer, cfg, weights = head
        if cfg is not None:
            self.add(layer, metrics.from_swda_weights(weights, cfg))
        else:
            side = int(round(weights.shape[0] ** 0.5))
            self.add(layer, metrics.from_dense(weights, side, side))

    def add(self, layer: str, amap: metrics.AttentionMap) -> None:
        for radius in self.radii:
            _, mean = metrics.locality_mass(amap, radius)
            self.lines.append(f"{layer},{radius},locality_mass,{mean:.10f}")
        stats = metrics.sparsity_profile(amap, self.threshold)
        t = self.threshold
        self.lines.append(f"{layer},{t},active_keys,{stats.mean_active_keys:.10f}")
        self.lines.append(f"{layer},{t},participation_ratio,{stats.participation_ratio:.10f}")
        self.lines.append(f"{layer},{t},entropy_nats,{stats.entropy_nats:.10f}")


def _checkpoint_rows(args, rows: _StatRows) -> None:
    """One probe image through the checkpoint, each weight read as its layer runs."""
    config, tensors = model_mod.open_checkpoint(args.checkpoint)
    # One probe image needs no more classes than the synthetic palette has colors,
    # and no fewer than the two a dataset draws from, whatever the head's width.
    classes = max(2, min(config.num_classes, MAX_CLASSES))
    spec = DatasetSpec(classes=classes, size=config.input_size, noise=0.1)
    images, _ = make_dataset(1, spec, seed=args.seed)

    from .autograd import NoRecordTape, graph

    g = graph(NoRecordTape(), attn_sink=rows)
    model_mod.forward(g, g.leaf(images[0]), config, tensors)


def _file_rows(args, rows: _StatRows) -> None:
    arr = dft1.read_tensor(args.input)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DilateVitError(
            f"attention file must hold a square [H*W, H*W] matrix, got {arr.shape}"
        )
    if args.grid:
        h, w = args.grid
    else:
        side = int(round(arr.shape[0] ** 0.5))
        if side * side != arr.shape[0]:
            raise DilateVitError(
                f"cannot infer grid for {arr.shape[0]} keys; pass --grid H,W"
            )
        h = w = side
    rows.add(os.path.basename(args.input), metrics.from_dense(arr, h, w))


def cmd_attnstats(args) -> int:
    if args.checkpoint and args.grid:  # a checkpoint's maps carry their grid
        args.usage_error("argument --grid: not allowed with argument --checkpoint")
    rows = _StatRows(args.radii, args.threshold)
    if args.input:
        _file_rows(args, rows)
    else:
        _checkpoint_rows(args, rows)
    _write_or_print("\n".join(rows.lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    spec = DatasetSpec(classes=args.classes, size=args.size, noise=args.noise)
    images, labels = make_dataset(args.count, spec, seed=args.seed)
    out_dir = args.out or "synthetic_data"
    os.makedirs(out_dir, exist_ok=True)
    dft1.write_tensor(os.path.join(out_dir, "images.dft1"), images)
    with open(os.path.join(out_dir, "labels.csv"), "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "label"])
        for i, label in enumerate(labels):
            writer.writerow([i, int(label)])
    with open(os.path.join(out_dir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "format_version": "1",
                "classes": spec.classes,
                "size": spec.size,
                "noise": spec.noise,
                "count": args.count,
                "seed": args.seed,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    print(f"wrote {args.count} images to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilatevit",
        description="Dilated window attention kernels, model builder, profiler and analysis tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flops", help="analytic parameter/FLOPs report")
    _add_flags(p, "--config")
    p.add_argument("--preset", choices=sorted(model_mod.PRESETS), default=None)
    p.add_argument("--input", type=_positive_int, default=None, help="input resolution override")
    p.add_argument("--pattern", type=_pattern_arg, default=None, help="4-char D/G stage pattern")
    p.add_argument("--kernel-w", type=_positive_int, default=None, help="override D-stage window size")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of a text table")
    p.add_argument("--flops-per-mac", type=int, choices=[1, 2], default=1)
    one = p.add_mutually_exclusive_group()  # the suite table checks no expectation
    one.add_argument("--suite", action="store_true", help="run the 5-pattern ablation table")
    one.add_argument(
        "--expect", action="append", type=_expect_arg, help="assert key=value:tol (flops/params)"
    )
    p.set_defaults(fn=cmd_flops)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_flags(p, "--seed")
    p.add_argument("--cases", type=_positive_int, default=30)
    p.add_argument("--budget", type=_positive_int, default=6, help="probed elements per parameter")
    p.add_argument("--tol", type=_number(lambda v: v > 0, "> 0"), default=GRAD_TOL)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)  # harness self-test
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("bench", help="time attention kernels across map sizes")
    _add_flags(p, "--seed", "--dtype")
    p.add_argument("--sizes", type=_positive_ints, default="28,56,112")
    p.add_argument("--mhsa-sizes", type=_positive_ints, default=None, help="map sizes for the dense baseline")
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--rate", type=int, default=2)
    p.add_argument("--dk", type=int, default=24)
    p.add_argument("--reps", type=_positive_int, default=5)
    p.add_argument("--warmup", type=_count, default=1)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("train", help="SGD training on synthetic data")
    _add_flags(p, "--seed", "--dtype", "--config")
    p.add_argument("--preset", choices=sorted(model_mod.PRESETS), default=None)
    p.add_argument("--steps", type=_count, default=200)
    p.add_argument("--batch", type=_positive_int, default=16)
    p.add_argument("--lr", type=_number(lambda v: v > 0, "> 0"), default=0.01)
    p.add_argument("--weight-decay", type=_number(lambda v: v >= 0, ">= 0"), default=1e-4)
    p.add_argument("--classes", type=_positive_int, default=None)
    p.add_argument("--count", type=_positive_int, default=64, help="synthetic dataset size")
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--data", default=None, help="directory from gen-data")
    p.add_argument("--min-acc", type=_number(lambda v: 0 <= v <= 1, "in [0, 1]"), default=0.95)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("attnstats", help="locality/sparsity metrics of attention maps")
    _add_flags(p, "--seed")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", default=None, help="DFT1 file holding a [H*W, H*W] matrix")
    source.add_argument("--checkpoint", default=None, help="model checkpoint to generate maps from")
    p.add_argument("--grid", type=_grid_arg, default=None, help="H,W of the query grid")
    p.add_argument("--radii", type=_radii_arg, default="0,1,2,3")
    p.add_argument("--threshold", type=_number(lambda v: 0 < v < 1, "in (0, 1)"), default=0.01)
    p.set_defaults(fn=cmd_attnstats, usage_error=p.error)

    p = sub.add_parser("gen-data", help="write a synthetic dataset to disk")
    _add_flags(p, "--seed")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--count", type=_positive_int, default=64)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.1)
    p.set_defaults(fn=cmd_gen_data)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (DilateVitError, OSError) as exc:  # OSError: e.g. an --out path that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
