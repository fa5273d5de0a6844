"""Model assembly: shape chain, patterns, params, checkpoints, determinism."""

import tracemalloc

import numpy as np
import pytest

from dilatevit import model
from dilatevit.autograd import Tape, finite_diff_check, graph
from dilatevit.errors import ConfigError, FormatError
from dilatevit.profiler import count_model
from tests_common import BROKEN_MANIFESTS, write_broken_checkpoint


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

    def test_tiny_predict_peak_memory(self):
        cfg = model.tiny()
        params = model.init_params(cfg, seed=0)
        img = np.random.default_rng(1).standard_normal((224, 224, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            model.predict(cfg, params, img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A recording tape holds every intermediate of the pass: 219 MB.
        assert peak < 60e6, f"peak {peak / 1e6:.1f} MB"

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

    def test_load_checkpoint_requires_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            model.load_checkpoint(tmp_path)

    @pytest.mark.parametrize("how", sorted(BROKEN_MANIFESTS))
    def test_broken_manifest_is_a_format_error(self, tmp_path, how):
        with pytest.raises(FormatError):
            model.load_checkpoint(write_broken_checkpoint(tmp_path, how))
