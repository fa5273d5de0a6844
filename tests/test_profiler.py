"""Analytic cost model: published totals, instrumented oracle, scaling laws."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import param_count_breakdown, param_count_oracle

from dilatevit import model
from dilatevit.autograd import Tape, graph
from dilatevit.counting import mac_counter
from dilatevit.profiler import count_model, count_pattern_suite


def within(actual, target, tol):
    return abs(actual - target) <= tol * target


class TestPresetTotals:
    def test_tiny_matches_published_complexity(self):
        report = count_model(model.tiny())
        assert within(report.total_macs, 3.2e9, 0.10)
        assert within(report.total_params, 17e6, 0.05)

    def test_base_matches_published_complexity(self):
        report = count_model(model.base())
        assert within(report.total_macs, 10.0e9, 0.10)
        assert within(report.total_params, 47e6, 0.05)

    def test_small_flops_match_but_params_run_heavier(self):
        # The small layout (depths 3/5/8/3 at dims 72/144/288/576) totals
        # 24.07 M parameters by the closed-form count; its blocks and
        # downsample3 alone already exceed the published 21 M + 5%.
        config = model.small()
        report = count_model(config)
        parts = param_count_breakdown(config)
        assert within(report.total_macs, 4.8e9, 0.10)
        assert report.total_params == param_count_oracle(config)
        assert parts["blocks"] + parts["downsample3"] > 1.05 * 21e6

    def test_runs_fast(self):
        import time

        start = time.perf_counter()
        for preset in (model.tiny, model.small, model.base):
            count_model(preset())
        assert time.perf_counter() - start < 1.0


class TestParamCountOracle:
    """The closed-form oracle agrees with the profiler beyond the presets it judges."""

    CONFIGS = {
        "toy": model.toy(),
        "toy_no_qkv_bias": replace(model.toy(), qkv_bias=False),
        "toy_mlp_ratio_3": replace(model.toy(), mlp_ratio=3),
        "toy_tokenizer_channels": replace(model.toy(), tokenizer_channels=(5, 9, 12, 16)),
        "toy_GGGG": model.build_from_pattern("GGGG", model.toy()),
        "toy_DDDD": model.build_from_pattern("DDDD", model.toy()),
        "tiny_no_qkv_bias_mlp_ratio_3": replace(model.tiny(), qkv_bias=False, mlp_ratio=3),
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_oracle_equals_profiler(self, name):
        config = self.CONFIGS[name]
        assert param_count_oracle(config) == count_model(config).total_params


class TestPatternSuite:
    EXPECTED = {
        "GGGG": 6.36e9,
        "DGGG": 3.53e9,
        "DDGG": 3.18e9,
        "DDDG": 3.05e9,
        "DDDD": 3.04e9,
    }

    def test_ablation_flops(self):
        suite = count_pattern_suite(model.tiny(), list(self.EXPECTED))
        for pattern, report in suite:
            assert within(report.total_macs, self.EXPECTED[pattern], 0.10), (
                pattern,
                report.total_macs,
            )

    def test_more_dilated_stages_means_fewer_flops(self):
        suite = dict(count_pattern_suite(model.tiny(), list(self.EXPECTED)))
        ordered = [suite[p].total_macs for p in ("GGGG", "DGGG", "DDGG", "DDDG", "DDDD")]
        assert ordered == sorted(ordered, reverse=True)

    def test_kernel_size_sweep(self):
        expected = {3: 3.18e9, 5: 3.21e9, 7: 3.24e9}
        for w, target in expected.items():
            cfg = model.tiny()
            stages = tuple(
                replace(s, kernel_w=w) if s.kind == "D" else s for s in cfg.stages
            )
            report = count_model(replace(cfg, stages=stages))
            assert within(report.total_macs, target, 0.10), (w, report.total_macs)


class TestMultiScaleZeroOverhead:
    def test_rates_do_not_change_cost(self):
        base = model.tiny()
        variants = []
        for rates in ((1, 2, 3), (1, 1, 1), (2, 3, 4), (3, 4, 5)):
            stages = tuple(
                replace(s, dilation_rates=rates) if s.kind == "D" else s
                for s in base.stages
            )
            variants.append(count_model(replace(base, stages=stages)))
        first = variants[0]
        for report in variants[1:]:
            assert report.total_macs == first.total_macs
            assert report.total_params == first.total_params

    def test_head_count_rate_combinations_from_ablation(self):
        # head counts 2/4, 3/6 and 4/8 in the first two stages with matched
        # rate lists all build and cost the same MACs at fixed dim and window
        base = model.tiny()
        totals = set()
        for heads, rates in (
            ((2, 4), (1, 2)),
            ((3, 6), (1, 2, 3)),
            ((3, 6), (2, 3, 4)),
            ((3, 6), (3, 4, 5)),
            ((4, 8), (1, 2, 3, 4)),
        ):
            stages = list(base.stages)
            for i in range(2):
                stages[i] = replace(stages[i], n_heads=heads[i], dilation_rates=rates)
            totals.add(count_model(replace(base, stages=tuple(stages))).total_macs)
        assert len(totals) == 1


class TestInstrumentedOracle:
    @pytest.mark.parametrize("pattern", ["DDGG", "GGGG", "DDDD"])
    def test_analytic_equals_instrumented_forward(self, pattern):
        config = model.build_from_pattern(pattern, model.toy())
        params = model.init_params(config, seed=0)
        image = np.random.default_rng(0).standard_normal((32, 32, 3)).astype(np.float32)
        with mac_counter() as counter:
            g = graph(Tape())
            model.forward(g, g.leaf(image), config, params)
        assert counter.macs == count_model(config).total_macs

    @pytest.mark.parametrize("base, pattern", [("toy", "".join(p)) for p in itertools.product("DG", repeat=4)]
                             + [("tiny@64", "DDGG"), ("tiny@64", "GGGG")])
    def test_each_module_counts_its_rows(self, base, pattern, monkeypatch):
        """Each tokenizer, block and downsampler call counts the MACs of its rows;
        what no module counts is the head's."""
        base_config = model.toy() if base == "toy" else replace(model.tiny(), input_size=64)
        config = model.build_from_pattern(pattern, base_config)
        counted = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                with mac_counter() as counter:
                    out = fn(*args, **kwargs)
                counted.append(counter.macs)
                return out
            return wrapped

        for name in ("tokenize", "transformer_block", "downsample"):
            monkeypatch.setattr(model, name, counting(getattr(model, name)))
        params = model.init_params(config, seed=0)
        image = np.random.default_rng(0).standard_normal((config.input_size,) * 2 + (3,)).astype(np.float32)
        with mac_counter() as rest:
            model.predict(config, params, image)
        expected = {}  # tokenizer, stageS.blockB, downsampleS and head, in forward order
        for r in count_model(config).rows:
            parts = r.name.split(".")
            module = ".".join(parts[:2]) if parts[0].startswith("stage") else parts[0]
            expected[module] = expected.get(module, 0) + r.macs
        assert [*counted, rest.macs] == list(expected.values())

    def test_param_total_equals_tree_walk(self):
        config = model.toy()
        params = model.init_params(config, seed=0)
        assert count_model(config).total_params == model.parameter_count(params)


class TestScalingLaws:
    def test_attention_row_exponents(self):
        lo = count_model(model.tiny(), input_size=224)
        hi = count_model(model.tiny(), input_size=448)
        ratio_n = (448 / 224) ** 2  # token count scales with H*W

        def attn_macs(report, stage):
            return sum(
                r.macs for r in report.rows if r.name.startswith(f"stage{stage}.") and r.name.endswith(".attn")
            )

        swda_exp = math.log(attn_macs(hi, 1) / attn_macs(lo, 1)) / math.log(ratio_n)
        mhsa_exp = math.log(attn_macs(hi, 3) / attn_macs(lo, 3)) / math.log(ratio_n)
        assert abs(swda_exp - 1.0) < 0.05
        assert abs(mhsa_exp - 2.0) < 0.05


class TestReportShape:
    def test_totals_equal_row_sums(self):
        report = count_model(model.toy())
        assert report.total_macs == sum(r.macs for r in report.rows)
        assert report.total_params == sum(r.params for r in report.rows)
        assert all(r.macs >= 0 and r.params >= 0 for r in report.rows)

    def test_rows_are_stable(self):
        a = count_model(model.toy())
        b = count_model(model.toy())
        assert [r.name for r in a.rows] == [r.name for r in b.rows]
        assert a.to_csv() == b.to_csv()

    def test_csv_header_and_total(self):
        csv_text = count_model(model.toy()).to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "module,params,flops_mac,flops_total"
        assert lines[-1].startswith("TOTAL,")
        name, params, mac, total = lines[-1].split(",")
        assert int(total) == 2 * int(mac)

    def test_text_report_mentions_convention(self):
        text = count_model(model.toy()).to_text()
        assert "MAC" in text
        assert "TOTAL" in text
