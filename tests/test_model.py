"""Model assembly: shape chain, patterns, params, checkpoints, determinism."""

import dataclasses
import json
import os
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatevit import model
from dilatevit.autograd import NoRecordTape, Tape, finite_diff_check, graph, sgd_step
from dilatevit.counting import mac_counter
from dilatevit.errors import ConfigError, DilateVitError, FormatError, NumericError
from dilatevit.profiler import count_model
from tests_common import (
    BROKEN_CONFIGS,
    BROKEN_MANIFESTS,
    DAMAGED_TENSORS,
    STAGE4_TENSOR,
    broken_config,
    counting_reads,
    traced_peak,
    write_broken_checkpoint,
    write_damaged_checkpoint,
)


@pytest.fixture(scope="module")
def toy_setup():
    config = model.toy()
    params = model.init_params(config, seed=0)
    rng = np.random.default_rng(0)
    image = rng.standard_normal((32, 32, 3)).astype(np.float32)
    return config, params, image


class TestPresets:
    def test_preset_stage_table(self):
        tiny = model.tiny()
        assert [s.dim for s in tiny.stages] == [72, 144, 288, 576]
        assert [s.n_heads for s in tiny.stages] == [3, 6, 12, 24]
        assert [s.depth for s in tiny.stages] == [2, 2, 6, 2]
        assert model.small().name == "small"
        assert [s.depth for s in model.small().stages] == [3, 5, 8, 3]
        b = model.base()
        assert [s.dim for s in b.stages] == [96, 192, 384, 768]
        assert [s.depth for s in b.stages] == [4, 8, 10, 3]
        for cfg in (tiny, model.small(), b):
            assert cfg.block_pattern == "DDGG"
            for stage in cfg.stages[:2]:
                assert stage.kernel_w == 3
                assert tuple(stage.dilation_rates) == (1, 2, 3)

    def test_dims_double_across_preset_stages(self):
        for cfg in (model.tiny(), model.small(), model.base()):
            dims = [s.dim for s in cfg.stages]
            assert dims[1:] == [2 * d for d in dims[:-1]]

    def test_shape_chain_resolutions(self):
        for cfg in (model.tiny(), model.small(), model.base()):
            assert [cfg.stage_resolution(k) for k in range(4)] == [56, 28, 14, 7]

    def test_input_size_must_divide_32(self):
        with pytest.raises(ConfigError):
            model.toy(input_size=48)


@pytest.mark.parametrize("how", sorted(BROKEN_CONFIGS))
def test_malformed_config_is_a_config_error(tmp_path, monkeypatch, how):
    with pytest.raises(ConfigError):
        model.config_from_dict(broken_config(how))
    ckpt = write_broken_checkpoint(tmp_path, how)
    reads = counting_reads(monkeypatch)
    with pytest.raises(ConfigError):
        model.open_checkpoint(ckpt)
    assert reads == []


def test_config_that_is_not_an_object_is_a_config_error():
    with pytest.raises(ConfigError):
        model.config_from_dict([model.config_to_dict(model.toy())])  # was AttributeError


@st.composite
def model_configs(draw):
    """Valid ModelConfigs: any stage kinds and widths, with or without explicit tokenizer
    channels; every stage's head count is a multiple of its rate count, so any pattern holds."""
    stages = []
    for _ in range(4):
        n_heads = draw(st.integers(1, 4))
        n_rates = draw(st.sampled_from([k for k in (1, 2, 3) if n_heads % k == 0]))
        stages.append(model.StageSpec(
            kind=draw(st.sampled_from("DG")),
            depth=draw(st.integers(1, 3)),
            dim=n_heads * draw(st.integers(1, 8)),
            n_heads=n_heads,
            dilation_rates=tuple(draw(st.lists(st.integers(1, 4), min_size=n_rates, max_size=n_rates))),
            kernel_w=draw(st.sampled_from([1, 3, 5])),
        ))
    d1 = stages[0].dim
    ramp = draw(st.lists(st.integers(1, 9), min_size=3, max_size=3))
    tokenizer = tuple(ramp) + (d1,) if d1 % 2 or draw(st.booleans()) else ()
    return model.ModelConfig(
        stages=tuple(stages),
        input_size=32 * draw(st.integers(1, 8)),
        in_channels=draw(st.integers(1, 4)),
        num_classes=draw(st.integers(1, 10)),
        mlp_ratio=draw(st.integers(1, 4)),
        qkv_bias=draw(st.booleans()),
        edge_mode=draw(st.sampled_from(["zero_pad", "masked"])),
        tokenizer_channels=tokenizer,
        name=draw(st.text(max_size=8)),
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


class TestConfigDictProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(config=model_configs())
    def test_round_trip(self, config):
        assert model.config_from_dict(json.loads(json.dumps(model.config_to_dict(config)))) == config

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(config=model_configs(), data=st.data())
    def test_mutated_dict_fails_only_with_a_config_error(self, config, data):
        d = model.config_to_dict(config)
        for _ in range(data.draw(st.integers(1, 3))):
            stages = d.get("stages")
            target = data.draw(st.sampled_from([d, *stages] if isinstance(stages, list) else [d]))
            if not isinstance(target, dict):
                continue  # a stage already replaced by another value
            key = data.draw(st.sampled_from(sorted(target) + ["unknown"]))
            if data.draw(st.booleans()):
                target.pop(key, None)
            else:
                target[key] = data.draw(JSON_VALUES)
        try:
            config = model.config_from_dict(d)
        except ConfigError:
            return
        # Accepted, so nothing may have been taken silently: every value keeps its declared
        # type and its JSON form, and every block and window the config names can be built.
        assert_declared_types(config)
        out = model.config_to_dict(config)
        for built, source in [(out, d), *zip(out["stages"], d["stages"])]:
            for key, value in source.items():
                if key == "stages" or (key == "tokenizer_channels" and value == []):
                    continue  # each stage is a pair of its own; an empty ramp stands for the default
                assert json.dumps(built[key]) == json.dumps(value), key
        model.parameter_shapes(config)
        for i, stage in enumerate(config.stages):
            if stage.kind == "D":
                spec = config.block_spec(i)
                [spec.head_cfg(h) for h in range(spec.n_heads)]


def assert_declared_types(obj, where="config"):
    """Every field of the dataclass ``obj`` holds exactly its annotated type."""
    for name, hint in typing.get_type_hints(type(obj)).items():
        _assert_type(getattr(obj, name), hint, f"{where}.{name}")


def _assert_type(value, hint, where):
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        assert isinstance(value, tuple), f"{where}: {value!r} is not a tuple"
        kinds = args[:1] * len(value) if args[1:] == (Ellipsis,) else args
        assert len(kinds) == len(value), f"{where}: {value!r} has {len(value)} items"
        for i, (item, kind) in enumerate(zip(value, kinds)):
            _assert_type(item, kind, f"{where}[{i}]")
    elif dataclasses.is_dataclass(hint):
        assert isinstance(value, hint), f"{where}: {value!r} is not a {hint.__name__}"
        assert_declared_types(value, where)
    else:
        assert type(value) is hint, f"{where}: {value!r} is not a {hint.__name__}"


def test_readme_config_table_has_a_row_per_field():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8").read()
    table = readme.split("**Model config JSON.**", 1)[1].split("\n\n")[1]
    rows = {line.split("|")[1].strip().strip("`") for line in table.splitlines()[2:]}
    fields = {f.name for f in dataclasses.fields(model.ModelConfig) if f.name != "stages"}
    fields |= {f"stages[4].{f.name}" for f in dataclasses.fields(model.StageSpec)}
    assert sorted(fields - rows) == [] and sorted(rows - fields) == []


class TestPatterns:
    def test_default_pattern(self):
        assert model.tiny().block_pattern == "DDGG"

    @pytest.mark.parametrize("pattern", ["GGGG", "DGGG", "DDGG", "DDDG", "DDDD"])
    def test_override(self, pattern):
        cfg = model.build_from_pattern(pattern, model.tiny())
        assert cfg.block_pattern == pattern
        for stage, kind in zip(cfg.stages, pattern):
            assert stage.kind == kind
            if kind == "D":
                assert tuple(stage.dilation_rates) == (1, 2, 3)
                assert stage.kernel_w == 3

    def test_bad_pattern(self):
        with pytest.raises(ConfigError):
            model.build_from_pattern("DDG", model.tiny())
        with pytest.raises(ConfigError):
            model.build_from_pattern("DDGX", model.tiny())


class TestTokenizerAndDownsampler:
    def test_tokenizer_shape_small_input(self, toy_setup):
        config, params, image = toy_setup
        g = graph(Tape())
        out = model.tokenize(g, g.leaf(image), config, params)
        assert out.data.shape == (8, 8, 16)

    def test_tokenizer_zero_params_zero_output(self, toy_setup):
        config, _, image = toy_setup
        params = model.init_params(config, seed=0)
        for name, p in params.items():
            if name.startswith("tokenizer"):
                p.value[...] = 0.0
        g = graph(Tape())
        out = model.tokenize(g, g.leaf(image), config, params)
        assert out.data.shape == (8, 8, 16)
        assert np.array_equal(out.data, np.zeros_like(out.data))

    def test_tokenizer_shape_at_224(self):
        cfg = model.tiny()
        params = model.init_params(cfg, seed=0)
        img = np.zeros((224, 224, 3), dtype=np.float32)
        g = graph(Tape())
        out = model.tokenize(g, g.leaf(img), cfg, params)
        assert out.data.shape == (56, 56, 72)

    def test_downsampler_shapes(self, toy_setup):
        config, params, image = toy_setup
        g = graph(Tape())
        x = g.leaf(np.zeros((8, 8, 16), dtype=np.float32))
        out = model.downsample(g, x, params, 1)
        assert out.data.shape == (4, 4, 32)

    def test_downsampler_stage_transitions_at_224(self):
        cfg = model.tiny()
        params = model.init_params(cfg, seed=0)
        g = graph(Tape())
        out1 = model.downsample(g, g.leaf(np.zeros((56, 56, 72), dtype=np.float32)), params, 1)
        assert out1.data.shape == (28, 28, 144)
        out3 = model.downsample(g, g.leaf(np.zeros((14, 14, 288), dtype=np.float32)), params, 3)
        assert out3.data.shape == (7, 7, 576)

    def test_downsampler_rejects_odd_extents(self, toy_setup):
        config, params, _ = toy_setup
        g = graph(Tape())
        with pytest.raises(ConfigError):
            model.downsample(g, g.leaf(np.zeros((7, 8, 16), dtype=np.float32)), params, 1)


class TestForward:
    def test_toy_logits_shape(self, toy_setup):
        config, params, image = toy_setup
        logits = model.predict(config, params, image)
        assert logits.shape == (4,)

    def test_batch_axis(self, toy_setup):
        config, params, image = toy_setup
        batch = np.stack([image, image * 0.5])
        logits = model.predict(config, params, batch)
        assert logits.shape == (2, 4)
        single = model.predict(config, params, image)
        assert np.array_equal(logits[0], single)

    def test_predict_records_no_tape_and_matches_a_recording_forward(self, toy_setup):
        config, params, image = toy_setup
        g = graph(Tape())
        recorded = model.forward(g, g.leaf(image), config, params).data
        assert np.array_equal(model.predict(config, params, image), recorded)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("pattern", ["DDDD", "DDGG"])
    def test_non_finite_image_fails_before_the_first_op(self, pattern, bad):
        config = model.build_from_pattern(pattern, model.toy())
        params = model.init_params(config, seed=0)
        image = np.zeros((32, 32, 3), dtype=np.float32)
        image[5, 7, 2] = bad
        with mac_counter() as counted, pytest.raises(NumericError, match="image"):
            model.predict(config, params, image)
        assert counted.macs == 0

    def test_tiny_predict_peak_memory(self):
        cfg = model.tiny()
        params = model.init_params(cfg, seed=0)
        img = np.random.default_rng(1).standard_normal((224, 224, 3)).astype(np.float32)
        _, peak = traced_peak(lambda: model.predict(cfg, params, img))
        # A recording tape holds every intermediate of the pass: 219 MB. Unblocked
        # im2col held a 16.3 MB [12544, 324] column buffer for tokenizer conv2 and
        # peaked at 19.9 MB. With row-blocked columns, the stage-1 MLP's two 3.6 MB
        # hidden maps set the peak at 9.3 MB; with the MLP in row blocks and norm1's
        # output freed before attention, tokenizer conv2's padded copy of its input
        # set it at 7.52 MB. With 512 KB blocks that pad only their own rows, the
        # stage-1 swda set it at 6.59 MB, beside a dead copy of the block input and
        # its own [56, 56, 72] output. With the residual adds in the stream's buffer
        # and each swda head written over its q channels, the stage-1 swda still
        # sets it: q|k|v, the stream and one head's scratch, 4.78 MB.
        assert peak <= 5.0e6, f"peak {peak / 1e6:.2f} MB"

    def test_global_tiny_predict_peak_memory(self):
        # GGGG at 128: stage 1 has 3 heads of N = 1024 tokens, 4.2 MB of logits each.
        # With every head's logits and their softmax at once it peaked at 27.6 MB;
        # one head's logits, with the softmax in place, hold it at 7.6 MB.
        cfg = model.build_from_pattern("GGGG", dataclasses.replace(model.tiny(), input_size=128))
        params = model.init_params(cfg, seed=0)
        img = np.random.default_rng(1).standard_normal((128, 128, 3)).astype(np.float32)
        _, peak = traced_peak(lambda: model.predict(cfg, params, img))
        assert peak <= 12.0e6, f"peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("pattern", ["DDGG", "GGGG"])
    @pytest.mark.parametrize("preset, size, dtype", [("tiny", 64, np.float32), ("toy", 32, np.float64)])
    def test_untaped_forward_is_the_recording_one_and_writes_over_no_input(self, preset, size, dtype, pattern):
        """An untaped forward writes over buffers its own ops made, never the image or a parameter."""
        config = model.build_from_pattern(pattern, dataclasses.replace(model.PRESETS[preset](), input_size=size))
        params = model.init_params(config, seed=0, dtype=dtype)
        image = np.random.default_rng(2).standard_normal((size, size, 3)).astype(dtype)
        kept = image.copy(), {name: p.value.copy() for name, p in params.items()}
        g = graph(Tape())
        recorded = model.forward(g, g.leaf(image), config, params).data
        untaped = graph(NoRecordTape())
        assert np.array_equal(model.forward(untaped, untaped.leaf(image), config, params).data, recorded)
        assert np.array_equal(model.predict(config, params, image), recorded)
        assert np.array_equal(image, kept[0])
        assert all(np.array_equal(p.value, kept[1][name]) for name, p in params.items())

    def test_batched_forward_matches_per_image_forwards(self, toy_setup):
        config = toy_setup[0]
        params = model.init_params(config, seed=0, dtype=np.float64)
        images = np.random.default_rng(3).standard_normal((3, 32, 32, 3))
        g = graph(Tape())
        logits = model.forward(g, g.leaf(images), config, params).data
        assert logits.shape == (3, 4)
        for b in range(3):
            gb = graph(Tape())
            single = model.forward(gb, gb.leaf(images[b]), config, params).data
            assert np.abs(logits[b] - single).max() <= 1e-12

    def test_tiny_logits_shape_at_224(self):
        cfg = model.tiny()
        params = model.init_params(cfg, seed=0)
        img = np.random.default_rng(1).standard_normal((224, 224, 3)).astype(np.float32)
        logits = model.predict(cfg, params, img)
        assert logits.shape == (1000,)
        assert np.isfinite(logits).all()

    def test_wrong_image_shape(self, toy_setup):
        config, params, _ = toy_setup
        g = graph(Tape())
        with pytest.raises(ConfigError):
            model.forward(g, g.leaf(np.zeros((16, 16, 3), dtype=np.float32)), config, params)

    def test_missing_parameter_names_first_offender(self, toy_setup):
        config, _, image = toy_setup
        params = model.init_params(config, seed=0)
        del params["stage2.block0.qkv.weight"]
        g = graph(Tape())
        with pytest.raises(ConfigError, match="stage2.block0.qkv.weight"):
            model.forward(g, g.leaf(image), config, params)

    def test_cross_entropy_gradient_through_toy_model(self):
        config = model.toy()
        params = model.init_params(config, seed=1)
        for p in params.values():
            p.value = p.value.astype(np.float64)
            p.grad = np.zeros_like(p.value)
        rng = np.random.default_rng(2)
        image = rng.standard_normal((32, 32, 3))

        def build():
            tape = Tape()
            g = graph(tape)
            logits = model.forward(g, g.leaf(image), config, params)
            return tape, g.softmax_cross_entropy(logits, 2)

        report = finite_diff_check(build, params, h=1e-5, budget=2, seed=0)
        assert report.max_rel < 1e-4


class TestParams:
    def test_parameter_count_closure(self):
        for cfg in (model.toy(), model.tiny()):
            params = model.init_params(cfg, seed=0)
            assert count_model(cfg).total_params == model.parameter_count(params)

    def test_init_is_seed_deterministic(self):
        a = model.init_params(model.toy(), seed=3)
        b = model.init_params(model.toy(), seed=3)
        c = model.init_params(model.toy(), seed=4)
        assert all(np.array_equal(a[k].value, b[k].value) for k in a)
        assert any(not np.array_equal(a[k].value, c[k].value) for k in a)

    def test_validate_params_reports_offenders(self, toy_setup):
        config, _, _ = toy_setup
        params = model.init_params(config, seed=0)
        del params["head.fc.bias"]
        with pytest.raises(ConfigError, match="head.fc.bias"):
            model.validate_params(config, params)

        params = model.init_params(config, seed=0)
        params["head.fc.weight"].value = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(ConfigError, match="head.fc.weight"):
            model.validate_params(config, params)


class TestDeterminism:
    def test_forward_bit_identical(self, toy_setup):
        config, params, image = toy_setup
        a = model.predict(config, params, image)
        b = model.predict(config, params, image)
        assert np.array_equal(a, b)


class TestSerialization:
    def test_config_json_roundtrip(self, tmp_path):
        cfg = model.toy()
        path = tmp_path / "cfg.json"
        import json

        path.write_text(json.dumps(model.config_to_dict(cfg)))
        back = model.load_config(path)
        assert back == cfg

    def test_checkpoint_roundtrip(self, tmp_path, toy_setup):
        config, params, image = toy_setup
        ckpt = tmp_path / "ckpt"
        model.save_checkpoint(ckpt, config, params)
        config2, params2 = model.load_checkpoint(ckpt)
        assert config2 == config
        assert sorted(params2) == sorted(params)
        for name in params:
            assert np.array_equal(params[name].value, params2[name].value)
        assert np.array_equal(
            model.predict(config, params, image), model.predict(config2, params2, image)
        )

    def test_checkpoints_bit_identical_for_same_seed(self, tmp_path):
        config = model.toy()
        for d in ("a", "b"):
            model.save_checkpoint(tmp_path / d, config, model.init_params(config, seed=9))
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_save_refuses_a_mixed_dtype_tree_before_writing(self, tmp_path):
        config = model.toy()
        params = model.init_params(config, seed=0)
        params["head.fc.bias"].value = params["head.fc.bias"].value.astype(np.float64)
        with pytest.raises(FormatError, match="one dtype"):
            model.save_checkpoint(tmp_path, config, params)
        assert list(tmp_path.iterdir()) == []

    def test_failed_resave_leaves_the_old_checkpoint_whole(self, tmp_path, monkeypatch):
        config = model.toy()
        ckpt = tmp_path / "ckpt"
        model.save_checkpoint(ckpt, config, model.init_params(config, seed=0))
        written = []
        write_tensor = model.dft1.write_tensor

        def failing_write(path, arr):
            if len(written) == 5:
                raise OSError("disk full")
            written.append(path)
            write_tensor(path, arr)

        monkeypatch.setattr(model.dft1, "write_tensor", failing_write)
        with pytest.raises(OSError, match="disk full"):
            model.save_checkpoint(ckpt, config, model.init_params(config, seed=1))
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]  # no staging directory left
        _, loaded = model.load_checkpoint(ckpt)
        for name, p in model.init_params(config, seed=0).items():
            assert np.array_equal(loaded[name].value, p.value), name

    def test_resave_replaces_a_checkpoint_but_no_other_directory(self, tmp_path, toy_setup):
        config, params, _ = toy_setup
        model.save_checkpoint(tmp_path / "ckpt", config, model.init_params(config, seed=1))
        model.save_checkpoint(tmp_path / "ckpt", config, params)
        _, loaded = model.load_checkpoint(tmp_path / "ckpt")
        assert all(np.array_equal(loaded[k].value, p.value) for k, p in params.items())
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        (tmp_path / "ckpt" / "notes.txt").write_text("keep me")
        with pytest.raises(FormatError, match="no checkpoint writes"):
            model.save_checkpoint(tmp_path / "ckpt", config, params)
        assert (tmp_path / "ckpt" / "notes.txt").read_text() == "keep me"

    def test_loaded_checkpoint_holds_one_copy_of_its_weights(self, tmp_path):
        config = model.toy()
        params = model.init_params(config, seed=0)
        model.save_checkpoint(tmp_path, config, params)
        weight_bytes = sum(p.value.nbytes for p in params.values())
        del params
        (_, loaded), peak = traced_peak(lambda: model.load_checkpoint(tmp_path))
        # One buffer per file, the array a view of it, no gradient buffer: 1.09x
        # here; a copied payload or an eager gradient buffer makes it 2x.
        assert peak <= 1.15 * weight_bytes, f"peak {peak / weight_bytes:.3f}x the weights"
        # An unaligned view would be copied by numpy before every product.
        assert all(p.value.flags.aligned for p in loaded.values())

    def test_loaded_checkpoint_trains_further(self, tmp_path, toy_setup):
        config, params, image = toy_setup
        model.save_checkpoint(tmp_path, config, params)
        _, loaded = model.load_checkpoint(tmp_path)
        for p in loaded.values():
            p.grad[...] = 0.5
        sgd_step(loaded, lr=0.1)
        for name, p in loaded.items():
            assert p.value.flags.writeable and p.value.flags.c_contiguous
            assert np.array_equal(p.value, params[name].value - np.float32(0.1) * np.float32(0.5)), name

    def test_load_checkpoint_requires_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            model.load_checkpoint(tmp_path)

    @pytest.mark.parametrize("how", sorted(BROKEN_MANIFESTS))
    def test_broken_manifest_is_a_format_error(self, tmp_path, how):
        with pytest.raises(FormatError):
            model.load_checkpoint(write_broken_checkpoint(tmp_path, how))


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("lazy") / "ckpt"
    config = model.toy()
    model.save_checkpoint(ckpt, config, model.init_params(config, seed=0))
    return str(ckpt)


class TestOpenCheckpoint:
    def test_open_reads_no_payload_and_each_lookup_reads_one_file(self, toy_checkpoint, monkeypatch):
        reads = counting_reads(monkeypatch)
        config, tensors = model.open_checkpoint(toy_checkpoint)
        assert reads == [] and config == model.toy()
        assert sorted(tensors) == sorted(model.parameter_shapes(config)) and len(tensors) == len(model.parameter_shapes(config))
        assert STAGE4_TENSOR in tensors and "stage9.block0.cpe.bias" not in tensors and reads == []
        assert tensors.get("stage9.block0.cpe.bias") is None and reads == []
        first, second = tensors[STAGE4_TENSOR], tensors[STAGE4_TENSOR]
        assert reads == [f"{STAGE4_TENSOR}.dft1"] * 2 and first is not second
        assert np.array_equal(first.value, second.value)

    def test_load_is_the_open_view_fully_read(self, toy_checkpoint, toy_setup):
        _, params, image = toy_setup
        config, tensors = model.open_checkpoint(toy_checkpoint)
        _, loaded = model.load_checkpoint(toy_checkpoint)
        assert list(loaded) == list(tensors)
        assert all(np.array_equal(loaded[k].value, params[k].value) for k in params)
        g = graph(NoRecordTape())
        lazy = model.forward(g, g.leaf(image), config, tensors).data
        assert np.array_equal(lazy, model.predict(config, loaded, image))

    @pytest.mark.parametrize("how", sorted(DAMAGED_TENSORS))
    def test_damaged_tensor_fails_at_open_without_reading_a_payload(self, tmp_path, monkeypatch, how):
        ckpt = write_damaged_checkpoint(tmp_path, how)
        reads = counting_reads(monkeypatch)
        with pytest.raises(FormatError):
            model.open_checkpoint(ckpt)
        with pytest.raises(FormatError):
            model.load_checkpoint(ckpt)
        assert reads == []

    def test_format_error_names_the_tensor_and_keeps_the_offset(self, tmp_path):
        ckpt = write_damaged_checkpoint(tmp_path, "truncated")
        size = os.path.getsize(os.path.join(ckpt, f"{STAGE4_TENSOR}.dft1"))
        with pytest.raises(FormatError, match=rf"^tensor {STAGE4_TENSOR} \(.*{STAGE4_TENSOR}\.dft1\): truncated") as info:
            model.open_checkpoint(ckpt)
        assert info.value.offset == size and str(info.value).endswith(f"(at byte offset {size})")

    @pytest.mark.parametrize("how", ["wrong_dtype", "wrong_shape", "truncated"])
    def test_each_read_checks_dtype_and_shape_again(self, tmp_path, how):
        ckpt = os.path.join(tmp_path, "ckpt")
        config = model.toy()
        model.save_checkpoint(ckpt, config, model.init_params(config, seed=0))
        _, tensors = model.open_checkpoint(ckpt)
        DAMAGED_TENSORS[how](os.path.join(ckpt, f"{STAGE4_TENSOR}.dft1"))
        with pytest.raises(FormatError, match=STAGE4_TENSOR):
            tensors[STAGE4_TENSOR]
        assert tensors["head.fc.bias"].value.shape == (config.num_classes,)

    def test_manifest_naming_a_tensor_the_config_lacks_is_a_config_error(self, tmp_path):
        ckpt = os.path.join(tmp_path, "ckpt")
        config = model.toy()
        model.save_checkpoint(ckpt, config, model.init_params(config, seed=0))
        files = {name: f"{name}.dft1" for name in model.parameter_shapes(config)}
        manifest = {"format_version": "1", "dtype": "f32", "config": model.config_to_dict(config)}
        for edit, match in (({"extra.weight": "head.fc.bias.dft1"}, "unexpected parameter: extra.weight"),
                            ({"head.fc.bias": None}, "missing parameter: head.fc.bias")):
            with open(os.path.join(ckpt, "manifest.json"), "w", encoding="utf-8") as fh:
                json.dump({**manifest, "files": {k: v for k, v in {**files, **edit}.items() if v}}, fh)
            with pytest.raises(ConfigError, match=match):
                model.open_checkpoint(ckpt)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mutated_checkpoint_only_raises_library_errors(self, toy_checkpoint, data):
        """Byte mutations or a truncation of one file, through open, a lazy forward and load."""
        names = sorted(os.listdir(toy_checkpoint))
        path = os.path.join(toy_checkpoint, data.draw(st.sampled_from(names), label="file"))
        with open(path, "rb") as fh:
            blob = fh.read()
        if data.draw(st.booleans(), label="truncate"):
            damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")]
        else:
            damaged = bytearray(blob)
            byte = st.one_of(st.integers(0, 255), st.sampled_from(b'-0123456789.e"'))
            for at, value in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), byte), min_size=1, max_size=4), label="edits"):
                damaged[at] = value
        try:
            with open(path, "wb") as fh:
                fh.write(damaged)
            try:
                config, tensors = model.open_checkpoint(toy_checkpoint)
                image = np.full((config.input_size, config.input_size, config.in_channels), 0.5, np.float32)
                g = graph(NoRecordTape())
                with np.errstate(all="ignore"):  # a mutated payload may hold NaN or huge weights
                    model.forward(g, g.leaf(image), config, tensors)
            except DilateVitError:
                pass
            try:
                model.load_checkpoint(toy_checkpoint)
            except DilateVitError:
                pass
        finally:
            with open(path, "wb") as fh:
                fh.write(blob)
