"""Multi-scale attention layer, global attention, and the block shell."""

import math

import numpy as np
import pytest

from dilatevit import tensor as T
from dilatevit.autograd import NoRecordTape, Parameter, Tape, backward, finite_diff_check, graph
from dilatevit.errors import ConfigError, ContractError, ShapeError
from dilatevit.msda import (
    MsdaBlockSpec,
    block_param_shapes,
    mhsa_attention,
    msda_attention,
    transformer_block,
)
from dilatevit.swda import SwdaConfig, receptive_span, swda_forward
from tests_common import traced_peak


def make_block_params(spec, prefix, rng, scale=0.4, dtype=np.float64):
    params = {}
    for name, shape in block_param_shapes(spec, prefix).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gamma":
            value = np.ones(shape, dtype=dtype)
        elif leaf in ("bias", "beta"):
            value = np.zeros(shape, dtype=dtype)
        else:
            value = (scale * rng.standard_normal(shape)).astype(dtype)
        params[name] = Parameter(name, value)
    return params


def identity_qkv_params(spec, prefix, dtype=np.float64):
    """qkv maps X to Q=K=V=X; output projection is the identity."""
    d = spec.dim
    params = make_block_params(spec, prefix, np.random.default_rng(0), dtype=dtype)
    qkv = np.concatenate([np.eye(d), np.eye(d), np.eye(d)], axis=1).astype(dtype)
    params[f"{prefix}.qkv.weight"].value[...] = qkv
    params[f"{prefix}.qkv.bias"].value[...] = 0.0
    params[f"{prefix}.proj.weight"].value[...] = np.eye(d, dtype=dtype)
    params[f"{prefix}.proj.bias"].value[...] = 0.0
    return params


class TestSpec:
    def test_head_rates_cycle(self):
        spec = MsdaBlockSpec(dim=12, n_heads=6, dilation_rates=(1, 2, 3))
        assert spec.head_rates() == (1, 2, 3, 1, 2, 3)

    def test_dim_not_divisible(self):
        with pytest.raises(ConfigError):
            MsdaBlockSpec(dim=10, n_heads=3)

    def test_heads_not_multiple_of_rates(self):
        with pytest.raises(ConfigError):
            MsdaBlockSpec(dim=8, n_heads=2, dilation_rates=(1, 2, 3))

    def test_zero_heads(self):
        with pytest.raises(ConfigError):  # was ZeroDivisionError
            MsdaBlockSpec(dim=4, n_heads=0)

    @pytest.mark.parametrize("edit", [{"kernel_w": 4}, {"dilation_rates": (1, 0, 2)}, {"edge_mode": "bogus"}])
    def test_window_rules_are_the_swda_configs(self, edit):
        with pytest.raises(ConfigError):
            MsdaBlockSpec(dim=12, n_heads=3, **edit)

    def test_head_receptive_fields(self):
        spec = MsdaBlockSpec(dim=12, n_heads=3, dilation_rates=(1, 2, 3), kernel_w=3)
        spans = [receptive_span(spec.head_cfg(i)) for i in range(3)]
        assert spans == [3, 5, 7]


class TestMsdaAttention:
    def test_single_head_identity_projections_reduce_to_swda(self):
        rng = np.random.default_rng(1)
        spec = MsdaBlockSpec(dim=4, n_heads=1, dilation_rates=(1,))
        params = identity_qkv_params(spec, "m")
        x = rng.standard_normal((5, 5, 4))
        g = graph(Tape())
        out = msda_attention(g, g.leaf(x), spec, params, "m")
        expected, _ = swda_forward(x, x, x, SwdaConfig(w=3, r=1, d_k=4))
        assert np.abs(out.data - expected).max() < 1e-12

    def test_against_per_head_composition_oracle(self):
        rng = np.random.default_rng(2)
        spec = MsdaBlockSpec(dim=12, n_heads=3, dilation_rates=(1, 2, 3))
        params = make_block_params(spec, "m", rng)
        x = rng.standard_normal((8, 8, 12))

        g = graph(Tape())
        out = msda_attention(g, g.leaf(x), spec, params, "m")

        # independent composition: shared projection, three swda calls, concat
        qkv = x.reshape(-1, 12) @ params["m.qkv.weight"].value + params["m.qkv.bias"].value
        qkv = qkv.reshape(8, 8, 36)
        q, k, v = qkv[:, :, :12], qkv[:, :, 12:24], qkv[:, :, 24:]
        head_outs = []
        for i, rate in enumerate((1, 2, 3)):
            cfg = SwdaConfig(w=3, r=rate, d_k=4)
            sl = slice(i * 4, (i + 1) * 4)
            h_out, _ = swda_forward(
                np.ascontiguousarray(q[:, :, sl]),
                np.ascontiguousarray(k[:, :, sl]),
                np.ascontiguousarray(v[:, :, sl]),
                cfg,
            )
            head_outs.append(h_out)
        cat = np.concatenate(head_outs, axis=-1)
        expected = cat.reshape(-1, 12) @ params["m.proj.weight"].value + params["m.proj.bias"].value
        assert np.abs(out.data - expected.reshape(8, 8, 12)).max() < 1e-10

    def test_head_independence_with_identity_projections(self):
        rng = np.random.default_rng(3)
        spec = MsdaBlockSpec(dim=6, n_heads=2, dilation_rates=(1, 2))
        params = identity_qkv_params(spec, "m")
        x = rng.standard_normal((4, 4, 6))

        def run(arr):
            g = graph(Tape())
            return msda_attention(g, g.leaf(arr), spec, params, "m").data

        base = run(x)
        x2 = x.copy()
        x2[:, :, 3:] += rng.standard_normal((4, 4, 3))  # touch only head 1 channels
        changed = run(x2)
        assert np.array_equal(base[:, :, :3], changed[:, :, :3])
        assert not np.array_equal(base[:, :, 3:], changed[:, :, 3:])

    def test_swda_heads_are_channel_views_with_their_own_rates(self):
        rng = np.random.default_rng(4)
        spec = MsdaBlockSpec(dim=12, n_heads=3, dilation_rates=(1, 2, 3))
        cfgs = tuple(spec.head_cfg(i) for i in range(3))
        q, k, v = (rng.standard_normal((7, 6, 12)) for _ in range(3))
        sink = []
        g = graph(Tape(), attn_sink=sink)
        out = g.swda(g.leaf(np.concatenate([q, k, v], axis=-1)), cfgs, layer="m")
        assert [(layer, cfg.r) for layer, cfg, _ in sink] == [
            ("m.head0", 1), ("m.head1", 2), ("m.head2", 3)
        ]
        for i, (_, cfg, weights) in enumerate(sink):
            sl = slice(4 * i, 4 * (i + 1))
            head = [np.ascontiguousarray(a[:, :, sl]) for a in (q, k, v)]
            expected, expected_weights = swda_forward(*head, cfg)
            assert cfg == cfgs[i]
            assert np.array_equal(weights, expected_weights)
            assert np.array_equal(out.data[:, :, sl], expected)

    def test_swda_without_a_recording_tape_holds_one_head_at_a_time(self):
        rng = np.random.default_rng(5)
        cfgs = tuple(SwdaConfig(w=3, r=r, d_k=24) for r in (1, 2, 3))
        qkv = rng.standard_normal((56, 56, 216)).astype(np.float32)
        head = qkv[..., :24].nbytes
        g = graph(NoRecordTape())
        out, peak = traced_peak(lambda: g.swda(g.leaf(qkv), cfgs))
        # The output, then one head's padded V (1.23 head maps at r=3), its value sum, one
        # product scratch and its softmax (9/24 map), whose weights are a view. A softmax
        # chain of fresh arrays, a weights copy and every head's kept state peaked at 8.7.
        assert peak <= out.data.nbytes + 4 * head, peak / head
        taped = graph(Tape())
        assert np.array_equal(out.data, taped.swda(taped.leaf(qkv), cfgs).data)

    def test_swda_over_an_op_output_writes_the_heads_over_their_q_channels(self):
        rng = np.random.default_rng(5)
        cfgs = tuple(SwdaConfig(w=3, r=r, d_k=24) for r in (1, 2, 3))
        x = rng.standard_normal((56, 56, 72)).astype(np.float32)
        weight = (0.2 * rng.standard_normal((72, 216))).astype(np.float32)
        g = graph(NoRecordTape())
        qkv = g.linear(g.leaf(x), g.leaf(weight), g.leaf(np.zeros(216, np.float32)))  # an op's output, given up to swda
        head = qkv.data[..., :24].nbytes
        taped = graph(Tape())
        expected = taped.swda(taped.leaf(qkv.data.copy()), cfgs).data
        out, peak = traced_peak(lambda: g.swda(qkv, cfgs))
        # As the leaf case above, less the output: it is a [56, 56, 72] view of q|k|v.
        assert peak <= 4 * head, peak / head
        assert np.shares_memory(out.data, qkv.data) and np.array_equal(out.data, expected)

    def test_swda_and_add_leave_a_leaf_untouched(self):
        rng = np.random.default_rng(6)
        spec = MsdaBlockSpec(dim=12, n_heads=3, dilation_rates=(1, 2, 3))
        params = make_block_params(spec, "b", rng, dtype=np.float32)
        cfgs = tuple(spec.head_cfg(i) for i in range(3))
        qkv, x = rng.standard_normal((6, 5, 36)).astype(np.float32), rng.standard_normal((6, 5, 12)).astype(np.float32)
        kept = qkv.copy(), x.copy()
        g = graph(NoRecordTape())
        g.swda(g.leaf(qkv), cfgs)
        transformer_block(g, g.leaf(x), spec, params, "b")
        assert np.array_equal(qkv, kept[0]) and np.array_equal(x, kept[1])

    def test_swda_rejects_channels_that_do_not_fill_the_heads(self):
        cfgs = (SwdaConfig(w=3, r=1, d_k=4),) * 2
        g = graph(Tape())
        x = g.leaf(np.zeros((3, 3, 12)))
        with pytest.raises(ShapeError, match="12 channels"):
            g.swda(x, cfgs)

    def test_mhsa_rejects_channels_that_do_not_fill_the_heads(self):
        g = graph(Tape())
        with pytest.raises(ShapeError, match="2 heads"):
            g.mhsa(g.leaf(np.zeros((3, 3, 9))), 2)

    @pytest.mark.parametrize("kind", ["D", "G"])
    def test_attention_sink_refuses_a_batch_axis(self, kind):
        spec = MsdaBlockSpec(dim=4, n_heads=1, dilation_rates=(1,))
        params = identity_qkv_params(spec, "m")
        g = graph(Tape(), attn_sink=[])
        with pytest.raises(ContractError, match="sink"):
            if kind == "D":
                msda_attention(g, g.leaf(np.zeros((2, 3, 3, 4))), spec, params, "m")
            else:
                g.mhsa(g.leaf(np.zeros((2, 3, 3, 12))), 1)

    def test_requires_rates(self):
        with pytest.raises(ConfigError):
            MsdaBlockSpec(dim=4, n_heads=1, dilation_rates=())


class TestMhsaAttention:
    @pytest.mark.parametrize("lead", [(), (2,), (0,)])
    @pytest.mark.parametrize("tape", [Tape, NoRecordTape])
    def test_head_groups_give_the_bits_of_one_group(self, tape, lead, monkeypatch):
        """Outputs, each head's sunk weights and gradients, with 1, 2 or all 4 heads a group
        (an empty batch has no logits to budget)."""
        rng = np.random.default_rng(9)
        qkv = rng.standard_normal(lead + (5, 4, 36))
        w = rng.standard_normal(lead + (5, 4, 12))
        head_bytes = math.prod(lead) * 20 * 20 * qkv.itemsize

        def run(group_bytes):
            monkeypatch.setattr(T, "MHSA_GROUP_BYTES", group_bytes)
            sink = [] if not lead else None
            g = graph(tape(), attn_sink=sink)
            x = g.leaf(qkv)
            out = g.mhsa(x, 4, layer="m")
            grad = backward(g.tape, g.sum_all(g.mul(out, g.leaf(w))))[x.id] if g.recording else None
            return out.data, sink or [], grad

        reference = run(1 << 30)
        assert len(reference[1]) == (0 if lead else 4)
        for group_bytes in (head_bytes, 2 * head_bytes + 1):
            out, sink, grad = run(group_bytes)
            assert np.array_equal(out, reference[0]) and np.array_equal(grad, reference[2])
            assert [layer for layer, _, _ in sink] == [layer for layer, _, _ in reference[1]]
            for (_, _, weights), (_, _, expected) in zip(sink, reference[1]):
                assert np.array_equal(weights, expected)

    def test_single_token(self):
        rng = np.random.default_rng(4)
        spec = MsdaBlockSpec(dim=6, n_heads=2, dilation_rates=(1,))
        params = make_block_params(spec, "m", rng)
        x = rng.standard_normal((1, 1, 6))
        g = graph(Tape())
        out = mhsa_attention(g, g.leaf(x), spec, params, "m")
        qkv = x.reshape(1, 6) @ params["m.qkv.weight"].value + params["m.qkv.bias"].value
        v = qkv[:, 12:]
        expected = v @ params["m.proj.weight"].value + params["m.proj.bias"].value
        assert np.abs(out.data.reshape(1, 6) - expected).max() < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        spec = MsdaBlockSpec(dim=8, n_heads=2, dilation_rates=(1,))
        params = make_block_params(spec, "m", rng)
        x = rng.standard_normal((3, 3, 8))
        perm = rng.permutation(9)

        def run(arr):
            g = graph(Tape())
            return mhsa_attention(g, g.leaf(arr), spec, params, "m").data

        base = run(x).reshape(9, 8)
        permuted = run(x.reshape(9, 8)[perm].reshape(3, 3, 8)).reshape(9, 8)
        assert np.abs(base[perm] - permuted).max() < 1e-10

    def test_against_two_loop_oracle(self):
        rng = np.random.default_rng(6)
        spec = MsdaBlockSpec(dim=8, n_heads=2, dilation_rates=(1,))
        params = make_block_params(spec, "m", rng)
        x = rng.standard_normal((3, 3, 8))
        g = graph(Tape())
        out = mhsa_attention(g, g.leaf(x), spec, params, "m")

        qkv = x.reshape(9, 8) @ params["m.qkv.weight"].value + params["m.qkv.bias"].value
        q, k, v = qkv[:, :8], qkv[:, 8:16], qkv[:, 16:]
        merged = np.zeros((9, 8))
        for h in range(2):
            sl = slice(h * 4, (h + 1) * 4)
            for t in range(9):
                logits = np.array([q[t, sl] @ k[u, sl] for u in range(9)]) / math.sqrt(4)
                weights = np.exp(logits - logits.max())
                weights /= weights.sum()
                merged[t, sl] = sum(weights[u] * v[u, sl] for u in range(9))
        expected = merged @ params["m.proj.weight"].value + params["m.proj.bias"].value
        assert np.abs(out.data.reshape(9, 8) - expected).max() < 1e-10


class TestTransformerBlock:
    def test_zero_parameters_make_identity(self):
        rng = np.random.default_rng(7)
        spec = MsdaBlockSpec(dim=6, n_heads=2, dilation_rates=(1, 2))
        params = make_block_params(spec, "b", rng)
        for p in params.values():
            p.value[...] = 0.0
        x = rng.standard_normal((4, 4, 6))
        for kind in ("D", "G"):
            g = graph(Tape())
            out = transformer_block(g, g.leaf(x), spec, params, "b", kind=kind)
            assert np.array_equal(out.data, x)

    def test_mhsa_block_equals_span_covering_msda_block(self):
        rng = np.random.default_rng(8)
        spec = MsdaBlockSpec(
            dim=8, n_heads=2, dilation_rates=(1,), kernel_w=3, edge_mode="masked"
        )
        params = make_block_params(spec, "b", rng, dtype=np.float32)
        x = rng.standard_normal((2, 2, 8)).astype(np.float32)
        assert receptive_span(spec.head_cfg(0)) >= 2 * 2 - 1

        g1 = graph(Tape())
        dilated = transformer_block(g1, g1.leaf(x), spec, params, "b", kind="D")
        g2 = graph(Tape())
        global_attn = transformer_block(g2, g2.leaf(x), spec, params, "b", kind="G")
        assert np.abs(dilated.data - global_attn.data).max() < 1e-6

    def test_finite_difference_through_full_block(self):
        rng = np.random.default_rng(9)
        spec = MsdaBlockSpec(dim=12, n_heads=3, dilation_rates=(1, 2, 3))
        params = make_block_params(spec, "b", rng)
        params["x"] = Parameter("x", rng.standard_normal((6, 6, 12)))
        w = rng.standard_normal((6, 6, 12))

        def build():
            g = graph(Tape())
            out = transformer_block(g, g.param(params["x"]), spec, params, "b", kind="D")
            return g.tape, g.sum_all(g.mul(out, g.leaf(w)))

        report = finite_diff_check(build, params, h=1e-5, budget=3, seed=0)
        assert report.max_rel < 1e-4

    @pytest.mark.parametrize("kind", ["LOCAL", "MSDA"])
    def test_bad_kind_rejected(self, kind):
        spec = MsdaBlockSpec(dim=4, n_heads=1, dilation_rates=(1,))
        params = make_block_params(spec, "b", np.random.default_rng(0))
        g = graph(Tape())
        with pytest.raises(ConfigError):
            transformer_block(g, g.leaf(np.zeros((2, 2, 4))), spec, params, "b", kind=kind)
