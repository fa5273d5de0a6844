"""CLI contract: subcommands, exit codes, deterministic outputs."""

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dilatevit import cli, dft1, model
from dilatevit.profiler import count_model
from tests_common import (
    BROKEN_CONFIGS,
    BROKEN_MANIFESTS,
    DAMAGED_TENSORS,
    STAGE4_TENSOR,
    counting_reads,
    traced_peak,
    write_broken_checkpoint,
    write_damaged_checkpoint,
)


def run(argv):
    return cli.main(argv)


@pytest.mark.parametrize("argv", [
    ["gen-data", "--dtype", "f64"],
    ["attnstats", "--config", "config.json", "--checkpoint", "ckpt"],
    ["flops", "--seed", "3"],
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a subcommand that wrongly runs writes its default output here
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bench", "--sizes", "0"],
    ["bench", "--sizes", "8,0", "--mhsa-sizes", "8"],
    ["bench", "--sizes", "8", "--mhsa-sizes", "-1"],
    ["bench", "--sizes", "8", "--reps", "0"],
    ["train", "--batch", "0"],
    ["train", "--count", "0"],
    ["gradcheck", "--cases", "0"],
    ["gradcheck", "--budget", "0"],
    ["flops", "--input", "0"],
    ["flops", "--kernel-w", "0"],
    ["train", "--classes", "0"],
    ["gen-data", "--count", "-3"],
    ["attnstats", "--grid", "4,0"],
])
def test_a_count_below_one_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a subcommand that wrongly runs writes its default output here
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2 and "must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["attnstats", "--grid", "3"],
    ["attnstats", "--grid", "a,b"],
    ["attnstats", "--grid", "2,2,4"],
    ["attnstats", "--radii", "x"],
    ["attnstats", "--radii", ""],
    ["attnstats", "--radii", "1,-1"],
    ["flops", "--expect", "flops=0:0.1"],
    ["flops", "--expect", "params=-17e6:0.05"],
    ["flops", "--expect", "flops=nan:0.1"],
    ["flops", "--expect", "params=inf:0.1"],
    ["flops", "--expect", "params=17e6:-0.5"],
    ["train", "--steps", "-1", "--count", "8"],
    ["bench", "--warmup", "-1", "--sizes", "8"],
    ["train", "--lr", "nan", "--steps", "1", "--count", "8"],
    ["train", "--lr", "0", "--steps", "1", "--count", "8"],
    ["train", "--weight-decay", "nan", "--steps", "1", "--count", "8"],
    ["train", "--min-acc", "2", "--steps", "1", "--count", "8"],
    ["gradcheck", "--tol", "nan"],
    ["attnstats", "--threshold", "2"],
])
def test_a_malformed_value_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    matrix = tmp_path / "attention.dft1"  # a valid 16-token map, so only the bad value can fail
    dft1.write_tensor(matrix, np.full((16, 16), 1 / 16))
    with pytest.raises(SystemExit) as exc:
        run(argv + (["--input", str(matrix)] if argv[0] == "attnstats" else []))
    err = capsys.readouterr().err
    assert exc.value.code == 2 and f"error: argument {argv[1]}" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [matrix]


@pytest.mark.parametrize("noise", ["nan", "inf", "-inf"])
def test_gen_data_rejects_non_finite_noise(noise, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["gen-data", "--count", "4", f"--noise={noise}"]) == 1
    assert "noise must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestFlops:
    def test_tiny_report(self, capsys):
        assert run(["flops", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "tokenizer.conv1" in out

    def test_expectations_pass(self, capsys):
        assert (
            run(
                [
                    "flops",
                    "--preset",
                    "tiny",
                    "--input",
                    "224",
                    "--expect",
                    "flops=3.2e9:0.10",
                    "--expect",
                    "params=17e6:0.05",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("-> ok") == 2

    def test_expectation_violation_exits_1(self, capsys):
        assert run(["flops", "--preset", "tiny", "--expect", "flops=1e9:0.01"]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_pattern_ablation_base(self, capsys):
        assert (
            run(
                [
                    "flops",
                    "--preset",
                    "tiny",
                    "--pattern",
                    "GGGG",
                    "--expect",
                    "flops=6.36e9:0.10",
                ]
            )
            == 0
        )

    def test_suite_table(self, capsys):
        assert run(["flops", "--preset", "tiny", "--suite"]) == 0
        out = capsys.readouterr().out
        for pattern in ("GGGG", "DGGG", "DDGG", "DDDG", "DDDD"):
            assert pattern in out

    def test_suite_csv(self, capsys):
        assert run(["flops", "--preset", "toy", "--suite", "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "pattern,params,flops_mac,flops_total"
        for line, pattern in zip(lines[1:], ("GGGG", "DGGG", "DDGG", "DDDG", "DDDD"), strict=True):
            report = count_model(model.build_from_pattern(pattern, model.toy()))
            assert line == f"{pattern},{report.total_params},{report.total_macs},{2 * report.total_macs}"

    def test_suite_with_an_expectation_is_a_usage_error(self, capsys):
        # The suite table checks no expectation, so the pair would pass unchecked.
        with pytest.raises(SystemExit) as exc:
            run(["flops", "--preset", "tiny", "--suite", "--expect", "flops=1e9:0.01"])
        assert exc.value.code == 2 and "not allowed with argument --suite" in capsys.readouterr().err

    def test_csv_output(self, capsys):
        assert run(["flops", "--preset", "toy", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "module,params,flops_mac,flops_total"

    def test_bad_pattern_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["flops", "--pattern", "DDQQ"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("content", [None, b"{not json", b'{"name": "\xff"}'])
    def test_unreadable_config_exits_1_without_traceback(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"  # missing, not JSON, not UTF-8
        if content is not None:
            path.write_bytes(content)
        assert run(["flops", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "Traceback" not in err

    def test_bad_expect_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["flops", "--expect", "nonsense"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["flops", "--does-not-exist"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_nonpositive_threads_is_usage_error(self, threads, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["flops", "--preset", "toy", "--threads", threads])
        assert exc.value.code == 2

    def test_kernel_size_sweep_matches_published_points(self, capsys):
        for w, target in ((3, "3.18e9"), (5, "3.21e9"), (7, "3.24e9")):
            assert (
                run(
                    [
                        "flops",
                        "--preset",
                        "tiny",
                        "--kernel-w",
                        str(w),
                        "--expect",
                        f"flops={target}:0.10",
                    ]
                )
                == 0
            )
            capsys.readouterr()

    def test_flops_per_mac_scales_the_checked_count(self, capsys):
        flops = 2 * count_model(model.toy()).total_macs
        for per_mac, code in ((2, 0), (1, 1)):
            argv = ["flops", "--preset", "toy", "--flops-per-mac", str(per_mac), "--expect", f"flops={flops}:0"]
            assert run(argv) == code

    def test_byte_identical_across_threads(self, tmp_path):
        paths = []
        for i, threads in enumerate(("1", "8")):
            out = tmp_path / f"r{i}.txt"
            assert run(["flops", "--preset", "tiny", "--threads", threads, "--out", str(out)]) == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestGradcheck:
    def test_passes_and_is_deterministic(self, tmp_path):
        outs = []
        for i in range(2):
            path = tmp_path / f"g{i}.txt"
            assert (
                run(["gradcheck", "--seed", "7", "--cases", "6", "--out", str(path)]) == 0
            )
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert b"worst over 6 cases" in outs[0]

    def test_corrupted_backward_detected(self, tmp_path):
        path = tmp_path / "bad.txt"
        assert (
            run(["gradcheck", "--cases", "3", "--corrupt", "--out", str(path)]) == 1
        )


class TestBench:
    def test_csv_shape_and_exit(self, tmp_path):
        path = tmp_path / "bench.csv"
        assert (
            run(
                [
                    "bench",
                    "--sizes",
                    "8,12",
                    "--mhsa-sizes",
                    "8",
                    "--reps",
                    "2",
                    "--warmup",
                    "0",
                    "--dk",
                    "4",
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "impl,H,W,w,r,d_k,median_ns,ns_per_query"
        impls = {line.split(",")[0] for line in lines[1:]}
        assert impls == {"swda_blocked", "swda_naive", "mhsa"}
        assert len(lines) == 1 + 2 * 2 + 1


class TestTrain:
    def test_short_run_writes_log_and_checkpoint(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            [
                "train",
                "--steps",
                "4",
                "--batch",
                "4",
                "--count",
                "8",
                "--min-acc",
                "0.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        log = (out / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,step,loss,accuracy"
        assert (out / "checkpoint" / "manifest.json").exists()

    def test_zero_steps_reports_chance_and_fails_threshold(self, tmp_path, capsys):
        out = tmp_path / "run0"
        code = run(
            ["train", "--steps", "0", "--batch", "4", "--count", "16", "--out", str(out)]
        )
        assert code == 1  # default threshold 0.95 cannot be met without training
        printed = capsys.readouterr().out
        acc = float(printed.split("accuracy")[1].split()[0])
        assert 0.0 <= acc <= 0.6
        assert (out / "checkpoint" / "manifest.json").exists()

    def test_dtype_flag_controls_checkpoint_precision(self, tmp_path):
        import json

        out = tmp_path / "r64"
        assert (
            run(
                [
                    "train",
                    "--steps",
                    "1",
                    "--batch",
                    "2",
                    "--count",
                    "4",
                    "--dtype",
                    "f64",
                    "--min-acc",
                    "0.0",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
        assert manifest["dtype"] == "f64"
        arr = dft1.read_tensor(out / "checkpoint" / "head.fc.weight.dft1")
        assert arr.dtype == np.float64

    def test_same_seed_bit_identical_checkpoints(self, tmp_path):
        dirs = []
        for i, threads in enumerate(("1", "2")):
            out = tmp_path / f"run{i}"
            assert (
                run(
                    [
                        "train",
                        "--steps",
                        "3",
                        "--batch",
                        "4",
                        "--count",
                        "8",
                        "--seed",
                        "11",
                        "--threads",
                        threads,
                        "--min-acc",
                        "0.0",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            dirs.append(out / "checkpoint")
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestGenData:
    def test_writes_dataset_and_train_can_load_it(self, tmp_path):
        data_dir = tmp_path / "data"
        assert (
            run(
                [
                    "gen-data",
                    "--classes",
                    "4",
                    "--count",
                    "8",
                    "--size",
                    "32",
                    "--out",
                    str(data_dir),
                ]
            )
            == 0
        )
        images = dft1.read_tensor(data_dir / "images.dft1")
        assert images.shape == (8, 32, 32, 3)
        out = tmp_path / "run"
        assert (
            run(
                [
                    "train",
                    "--data",
                    str(data_dir),
                    "--steps",
                    "2",
                    "--batch",
                    "4",
                    "--min-acc",
                    "0.0",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )


# How each broken labels.csv is made from the lines gen-data wrote; None removes the file.
BROKEN_LABELS = {
    "missing": None,
    "no_label_column": lambda lines: ["index,class", *lines[1:]],
    "short_row": lambda lines: [lines[0], "0", *lines[2:]],
    "fractional_label": lambda lines: [lines[0], "0,1.5", *lines[2:]],
    "fewer_labels_than_images": lambda lines: lines[:9],
    "more_labels_than_images": lambda lines: [*lines, "16,0", "17,1"],
    "label_of_a_class_the_model_lacks": lambda lines: [lines[0], "0,4", *lines[2:]],
    "negative_label": lambda lines: [lines[0], "0,-1", *lines[2:]],
}


@pytest.mark.parametrize("how", sorted(BROKEN_LABELS))
def test_train_on_a_broken_dataset_exits_1_without_traceback(how, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    assert run(["gen-data", "--classes", "4", "--count", "16", "--out", str(data)]) == 0
    labels = data / "labels.csv"
    if BROKEN_LABELS[how] is None:
        labels.unlink()
    else:
        labels.write_text("\n".join(BROKEN_LABELS[how](labels.read_text().splitlines())) + "\n")
    capsys.readouterr()
    argv = ["train", "--data", str(data), "--steps", "1", "--batch", "16", "--min-acc", "0", "--out", str(out)]
    assert run(argv) == 1  # toy has 4 classes; one batch holds every label
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and not out.exists()


def test_train_rejects_a_label_no_batch_draws(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    assert run(["gen-data", "--classes", "4", "--count", "32", "--out", str(data)]) == 0
    labels = data / "labels.csv"
    lines = labels.read_text().splitlines()
    labels.write_text("\n".join([*lines[:-1], "31,9"]) + "\n")
    capsys.readouterr()
    # Seed 0 draws images 26, 28, 7 and 1 for the one step, never image 31.
    argv = ["train", "--data", str(data), "--steps", "1", "--batch", "4", "--min-acc", "0", "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[0, 4)" in err and "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("argv", [["flops", "--preset", "toy"], ["gen-data", "--count", "1"]])
def test_an_out_path_under_a_file_exits_1_without_traceback(argv, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run([*argv, "--out", str(blocker / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err and "Traceback" not in err


class TestAttnstats:
    def test_identity_fixture(self, tmp_path, capsys):
        path = tmp_path / "eye.dft1"
        dft1.write_tensor(path, np.eye(16, dtype=np.float64))
        assert run(["attnstats", "--input", str(path), "--radii", "0,1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "layer,radius_or_threshold,metric,value"
        row = next(l for l in out if ",0,locality_mass," in l)
        assert float(row.rsplit(",", 1)[1]) == 1.0

    def test_swda_generated_map_saturates_at_tap_radius(self, tmp_path, capsys):
        from dilatevit.swda import SwdaConfig, swda_forward
        from oracles import attention_to_dense

        rng = np.random.default_rng(0)
        cfg = SwdaConfig(w=3, r=3, d_k=2, edge_mode="masked")
        q, k, v = (rng.standard_normal((6, 6, 2)) for _ in range(3))
        _, weights = swda_forward(q, k, v, cfg)
        path = tmp_path / "swda.dft1"
        dft1.write_tensor(path, attention_to_dense(weights, cfg))
        assert run(["attnstats", "--input", str(path), "--radii", "2,3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        val_r3 = float(next(l for l in lines if ",3,locality_mass," in l).rsplit(",", 1)[1])
        val_r2 = float(next(l for l in lines if ",2,locality_mass," in l).rsplit(",", 1)[1])
        assert val_r3 == pytest.approx(1.0, abs=1e-9)
        assert val_r2 < 1.0

    def test_truncated_file_exits_1_with_offset(self, tmp_path, capsys):
        path = tmp_path / "broken.dft1"
        dft1.write_tensor(path, np.eye(4, dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-5])
        assert run(["attnstats", "--input", str(path)]) == 1
        assert "byte offset" in capsys.readouterr().err

    def test_non_finite_map_exits_1(self, tmp_path, capsys):
        weights = np.eye(4, dtype=np.float32)
        weights[2, 3] = np.nan
        path = tmp_path / "nan.dft1"
        dft1.write_tensor(path, weights)
        assert run(["attnstats", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert "finite" in captured.err and "nan" not in captured.out

    def test_checkpoint_maps(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert (
            run(
                [
                    "train",
                    "--steps",
                    "0",
                    "--batch",
                    "4",
                    "--count",
                    "4",
                    "--out",
                    str(out),
                ]
            )
            == 1
        )
        capsys.readouterr()
        assert (
            run(["attnstats", "--checkpoint", str(out / "checkpoint"), "--radii", "1"]) == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("stage1.block0.head0,") for line in lines)
        assert any(line.startswith("stage3.block0.head0,") for line in lines)

    def test_checkpoint_with_more_classes_than_the_palette(self, tmp_path, capsys):
        config = model.toy(num_classes=10)
        model.save_checkpoint(tmp_path / "ckpt", config, model.init_params(config, seed=0))
        radii = "0,1,2,3"
        assert run(["attnstats", "--checkpoint", str(tmp_path / "ckpt"), "--radii", radii]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        per_layer = Counter(row.split(",", 1)[0] for row in rows)
        n_heads = sum(stage.depth * stage.n_heads for stage in config.stages)
        assert len(per_layer) == n_heads
        assert set(per_layer.values()) == {len(radii.split(",")) + 3}

    def test_checkpoint_peak_memory(self, tmp_path, capsys):
        config = model.toy()
        params = model.init_params(config, seed=0)
        model.save_checkpoint(tmp_path / "ckpt", config, params)
        weight_bytes = sum(p.value.nbytes for p in params.values())
        del params
        code, peak = traced_peak(lambda: run(["attnstats", "--checkpoint", str(tmp_path / "ckpt"), "--threads", "1"]))
        assert code == 0
        # 0.41x the weights here: each weight is read as its layer runs and each
        # head's map is reduced as it appears. Loading every weight before the
        # forward and keeping the maps until it ended made it 1.40x.
        assert peak <= 0.6 * weight_bytes, f"peak {peak / weight_bytes:.2f}x the weights"

    def test_checkpoint_never_holds_both_mlp_weights_of_a_block(self, tmp_path, capsys):
        config = replace(model.toy(), mlp_ratio=32)  # stage 4's fc1 and fc2 weights, 0.52 MB each, dominate
        params = model.init_params(config, seed=0)
        model.save_checkpoint(tmp_path / "ckpt", config, params)
        mlp_bytes = sum(params[f"stage4.block0.mlp.{fc}.weight"].value.nbytes for fc in ("fc1", "fc2"))
        del params
        code, peak = traced_peak(lambda: run(["attnstats", "--checkpoint", str(tmp_path / "ckpt"), "--threads", "1"]))
        assert code == 0
        # 0.65x here: stage 4's one-block MLP frees fc1 before it reads fc2. Reading
        # all four MLP weights before the first block made it 1.15x.
        assert peak < mlp_bytes, f"peak {peak / mlp_bytes:.2f}x the two MLP weights"

    def test_checkpoint_reads_each_tensor_once(self, tmp_path, monkeypatch, capsys):
        config = model.toy()
        model.save_checkpoint(tmp_path / "ckpt", config, model.init_params(config, seed=0))
        reads = counting_reads(monkeypatch)
        assert run(["attnstats", "--checkpoint", str(tmp_path / "ckpt")]) == 0
        with open(tmp_path / "ckpt" / "manifest.json", encoding="utf-8") as fh:
            files = json.load(fh)["files"].values()
        assert Counter(reads) == Counter(files) and len(reads) == len(files)

    @pytest.mark.parametrize("how", sorted(DAMAGED_TENSORS))
    def test_damaged_tensor_exits_1_before_the_forward(self, tmp_path, monkeypatch, capsys, how):
        forwards = []
        monkeypatch.setattr(model, "forward", lambda *args, **kwargs: forwards.append(args))
        assert run(["attnstats", "--checkpoint", write_damaged_checkpoint(tmp_path, how)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and STAGE4_TENSOR in err and forwards == []

    @pytest.mark.parametrize("how", sorted(BROKEN_MANIFESTS))
    def test_broken_checkpoint_exits_1_without_traceback(self, tmp_path, capsys, how):
        assert run(["attnstats", "--checkpoint", write_broken_checkpoint(tmp_path, how)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("how", sorted(BROKEN_CONFIGS))
    def test_broken_config_exits_1_without_reading_a_payload(self, tmp_path, monkeypatch, capsys, how):
        ckpt = write_broken_checkpoint(tmp_path, how)
        reads = counting_reads(monkeypatch)
        assert run(["attnstats", "--checkpoint", ckpt]) == 1
        assert capsys.readouterr().err.startswith("error: ") and reads == []

    def test_missing_input_exits_1_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "MISSING.dft1"
        assert run(["attnstats", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and str(path) in err and "Traceback" not in err

    def test_requires_a_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["attnstats"])
        assert exc.value.code == 2 and "one of the arguments --input --checkpoint is required" in capsys.readouterr().err

    def test_takes_one_source_only(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["attnstats", "--input", str(tmp_path / "a.dft1"), "--checkpoint", str(tmp_path / "ckpt")])
        assert exc.value.code == 2 and "not allowed with argument --input" in capsys.readouterr().err

    def test_grid_with_a_checkpoint_is_a_usage_error(self, tmp_path, capsys):
        ckpt, out = str(tmp_path / "ckpt"), tmp_path / "stats.csv"
        model.save_checkpoint(ckpt, model.toy(), model.init_params(model.toy(), seed=0))
        with pytest.raises(SystemExit) as exc:
            run(["attnstats", "--checkpoint", ckpt, "--grid", "8,8", "--out", str(out)])
        assert exc.value.code == 2 and "argument --grid: not allowed with argument --checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_an_f32_map_reduces_as_its_f64_upcast(self, tmp_path, capsys):
        weights = np.random.default_rng(0).random((784, 784)).astype(np.float32)  # a 28x28 grid
        weights /= weights.sum(axis=1, keepdims=True)
        csvs = []
        for dtype in (np.float32, np.float64):  # reduced in f32, the CSVs differ in the 10th digit
            path = tmp_path / np.dtype(dtype).name / "map.dft1"
            path.parent.mkdir()
            dft1.write_tensor(path, weights.astype(dtype))
            assert run(["attnstats", "--input", str(path), "--out", str(path.parent / "stats.csv")]) == 0
            csvs.append((path.parent / "stats.csv").read_bytes())
        assert csvs[0] == csvs[1]
