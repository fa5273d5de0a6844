"""Tape mechanics, per-op gradient checks, the FD harness, SGD."""

import numpy as np
import pytest

from dilatevit.autograd import (
    NoRecordTape,
    Parameter,
    Tape,
    accumulate_param_grads,
    backward,
    finite_diff_check,
    graph,
    sgd_step,
    zero_grads,
)
from dilatevit.errors import ContractError, DeterminismError, ShapeError
from dilatevit.swda import SwdaConfig


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        g = graph(Tape())
        x = g.leaf(np.array([1.0, 2.0, 3.0]))
        loss = g.sum_all(x)
        grads = backward(g.tape, loss)
        assert np.array_equal(grads[x.id], np.ones(3))

    def test_quadratic_gradient_is_x(self):
        g = graph(Tape())
        x_val = np.array([1.5, -2.0, 0.5])
        x = g.leaf(x_val)
        loss = g.scale(g.sum_all(g.mul(x, x)), 0.5)
        grads = backward(g.tape, loss)
        assert np.allclose(grads[x.id], x_val, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        g = graph(Tape())
        x = g.leaf(np.ones(3))
        with pytest.raises(ContractError):
            backward(g.tape, x)

    def test_unreachable_parameter_keeps_zero_grad(self):
        p_used = Parameter("used", np.ones(2))
        p_unused = Parameter("unused", np.ones(2))
        g = graph(Tape())
        a = g.param(p_used)
        g.param(p_unused)  # recorded but not consumed
        loss = g.sum_all(a)
        zero_grads([p_used, p_unused])
        accumulate_param_grads(g.tape, backward(g.tape, loss))
        assert np.array_equal(p_used.grad, np.ones(2))
        assert np.array_equal(p_unused.grad, np.zeros(2))

    def test_two_backward_passes_bit_identical(self):
        rng = np.random.default_rng(0)
        g = graph(Tape())
        a = g.leaf(rng.standard_normal((4, 4)))
        b = g.leaf(rng.standard_normal((4, 4)))
        loss = g.sum_all(g.gelu(g.matmul(a, b)))
        g1 = backward(g.tape, loss)
        g2 = backward(g.tape, loss)
        assert np.array_equal(g1[a.id], g2[a.id])
        assert np.array_equal(g1[b.id], g2[b.id])

    def test_gradient_accumulation_matches_separate_passes(self):
        rng = np.random.default_rng(1)
        x_val = rng.standard_normal(5)
        w1 = rng.standard_normal(5)
        w2 = rng.standard_normal(5)

        def combined():
            g = graph(Tape())
            x = g.leaf(x_val)
            l1 = g.sum_all(g.mul(x, g.leaf(w1)))
            l2 = g.sum_all(g.mul(g.gelu(x), g.leaf(w2)))
            loss = g.add(l1, l2)
            return backward(g.tape, loss)[x.id]

        def separate():
            total = np.zeros(5)
            for wf, act in ((w1, False), (w2, True)):
                g = graph(Tape())
                x = g.leaf(x_val)
                val = g.gelu(x) if act else x
                loss = g.sum_all(g.mul(val, g.leaf(wf)))
                total = total + backward(g.tape, loss)[x.id]
            return total

        assert np.abs(combined() - separate()).max() < 1e-12

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_linear_is_one_node(self, with_bias):
        g = graph(Tape())
        x, w = g.leaf(np.ones((2, 3, 4))), g.leaf(np.ones((4, 5)))
        bias = g.leaf(np.arange(5.0)) if with_bias else None
        before = len(g.tape.nodes)
        out = g.linear(x, w, bias)
        assert len(g.tape.nodes) == before + 1
        assert out.parents == ((x, w, bias) if with_bias else (x, w))
        assert np.array_equal(out.data, np.full((2, 3, 5), 4.0) + (np.arange(5.0) if with_bias else 0))

    def test_transpose_rejects_axes_that_are_not_a_permutation(self):
        g = graph(Tape())
        with pytest.raises(ShapeError, match="permute"):
            g.transpose(g.leaf(np.zeros((2, 3, 4))), (0, 1, 1))

    def test_no_record_tape_keeps_nothing_and_refuses_backward(self):
        p = Parameter("p", np.arange(3.0))
        g = graph(NoRecordTape())
        loss = g.sum_all(g.mul(g.param(p), g.leaf(np.full(3, 2.0))))
        assert float(loss.data) == 6.0
        assert loss.parents == () and loss.backward_fn is None
        assert g.tape.nodes == [] and g.tape.param_nodes == {}
        with pytest.raises(ContractError, match="recording"):
            backward(g.tape, loss)


class TestBatchAxis:
    """Leading axes of pooling and cross-entropy are batch: a per-image loop gives the same."""

    def test_global_avg_pool_matches_per_image_loop(self):
        x_val = np.random.default_rng(6).standard_normal((3, 4, 5, 6))
        g = graph(Tape())
        x = g.leaf(x_val)
        pooled = g.global_avg_pool(x)
        gout = np.random.default_rng(7).standard_normal((3, 6))
        grad = backward(g.tape, weighted_sum_loss(g, pooled, gout))[x.id]
        for b in range(3):
            gb = graph(Tape())
            xb = gb.leaf(x_val[b])
            pb = gb.global_avg_pool(xb)
            assert np.array_equal(pooled.data[b], pb.data)
            assert np.array_equal(grad[b], backward(gb.tape, weighted_sum_loss(gb, pb, gout[b]))[xb.id])

    def test_cross_entropy_is_the_mean_of_per_row_losses(self):
        rng = np.random.default_rng(8)
        z_val, labels = rng.standard_normal((4, 5)), np.array([0, 3, 3, 1])
        g = graph(Tape())
        z = g.leaf(z_val)
        loss = g.softmax_cross_entropy(z, labels)
        grad = backward(g.tape, loss)[z.id]
        rows = []
        for b in range(4):
            gb = graph(Tape())
            zb = gb.leaf(z_val[b])
            lb = gb.softmax_cross_entropy(zb, int(labels[b]))
            rows.append((float(lb.data), backward(gb.tape, lb)[zb.id]))
        assert abs(float(loss.data) - np.mean([l for l, _ in rows])) <= 1e-12
        assert np.abs(grad - np.stack([gr for _, gr in rows]) / 4).max() <= 1e-12

    def test_cross_entropy_needs_one_label_per_row(self):
        g = graph(Tape())
        with pytest.raises(ShapeError, match="label"):
            g.softmax_cross_entropy(g.leaf(np.zeros((4, 5))), np.array([0, 1]))


def weighted_sum_loss(g, node, weights):
    return g.sum_all(g.mul(node, g.leaf(weights)))


class TestPerOpGradients:
    """Every differentiable op against central finite differences (f64)."""

    CASES = 200

    def test_random_op_sweep(self):
        rng = np.random.default_rng(2)
        builders = [
            self._case_matmul,
            self._case_conv,
            self._case_depthwise_conv,
            self._case_grouped_conv,
            self._case_layernorm,
            self._case_gelu,
            self._case_softmax,
            self._case_linear_bias,
            self._case_swda,
            self._case_slice,
            self._case_batched_matmul,
            self._case_transpose,
            self._case_pool,
            self._case_cross_entropy,
            self._case_batched_conv,
            self._case_batched_swda,
            self._case_batched_pool,
            self._case_batched_cross_entropy,
            self._case_linear,
        ]
        failures = []
        for i in range(self.CASES):
            case_rng = np.random.default_rng(rng.integers(0, 2**63))
            build, params = builders[i % len(builders)](case_rng)
            report = finite_diff_check(build, params, h=1e-5, budget=4, seed=i)
            if report.max_rel >= 1e-4:
                failures.append((i, builders[i % len(builders)].__name__, report.max_rel))
        assert not failures, f"gradient mismatches: {failures}"

    # -- case builders ------------------------------------------------------

    def _case_matmul(self, rng):
        params = {
            "a": Parameter("a", rng.standard_normal((3, 4))),
            "b": Parameter("b", rng.standard_normal((4, 2))),
        }
        w = rng.standard_normal((3, 2))

        def build():
            g = graph(Tape())
            out = g.matmul(g.param(params["a"]), g.param(params["b"]))
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_conv(self, rng):
        params = {
            "x": Parameter("x", rng.standard_normal((5, 5, 2))),
            "k": Parameter("k", rng.standard_normal((3, 3, 2, 3))),
        }
        stride = int(rng.integers(1, 3))
        h_out = (5 + 2 - 3) // stride + 1
        w = rng.standard_normal((h_out, h_out, 3))

        def build():
            g = graph(Tape())
            out = g.conv2d(g.param(params["x"]), g.param(params["k"]), stride=stride, zero_pad=1)
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_depthwise_conv(self, rng):
        params = {
            "x": Parameter("x", rng.standard_normal((4, 4, 3))),
            "k": Parameter("k", rng.standard_normal((3, 3, 1, 3))),
        }
        w = rng.standard_normal((4, 4, 3))

        def build():
            g = graph(Tape())
            out = g.conv2d(g.param(params["x"]), g.param(params["k"]), stride=1, zero_pad=1, groups=3)
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_grouped_conv(self, rng):
        params = {
            "x": Parameter("x", rng.standard_normal((4, 4, 4))),
            "k": Parameter("k", rng.standard_normal((3, 3, 2, 6))),
        }
        w = rng.standard_normal((4, 4, 6))

        def build():
            g = graph(Tape())
            out = g.conv2d(g.param(params["x"]), g.param(params["k"]), stride=1, zero_pad=1, groups=2)
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_layernorm(self, rng):
        params = {
            "x": Parameter("x", rng.standard_normal((3, 6))),
            "gamma": Parameter("gamma", 1.0 + 0.3 * rng.standard_normal(6)),
            "beta": Parameter("beta", rng.standard_normal(6)),
        }
        w = rng.standard_normal((3, 6))

        def build():
            g = graph(Tape())
            out = g.layernorm(g.param(params["x"]), g.param(params["gamma"]), g.param(params["beta"]))
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_gelu(self, rng):
        params = {"x": Parameter("x", rng.standard_normal((4, 4)))}
        w = rng.standard_normal((4, 4))

        def build():
            g = graph(Tape())
            return g.tape, weighted_sum_loss(g, g.gelu(g.param(params["x"])), w)

        return build, params

    def _case_softmax(self, rng):
        params = {"x": Parameter("x", rng.standard_normal((3, 5)))}
        w = rng.standard_normal((3, 5))

        def build():
            g = graph(Tape())
            return g.tape, weighted_sum_loss(g, g.softmax_last(g.param(params["x"])), w)

        return build, params

    def _case_linear_bias(self, rng):
        params = {
            "x": Parameter("x", rng.standard_normal((2, 3, 4))),
            "w": Parameter("w", rng.standard_normal((4, 5))),
            "b": Parameter("b", rng.standard_normal(5)),
        }
        w = rng.standard_normal((2, 3, 5))

        def build():
            g = graph(Tape())
            out = g.linear(g.param(params["x"]), g.param(params["w"]), g.param(params["b"]))
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_linear(self, rng):
        """1 to 3 axes in, with or without a bias."""
        lead = tuple(int(n) for n in rng.integers(1, 4, int(rng.integers(0, 3))))
        params = {
            "x": Parameter("x", rng.standard_normal(lead + (4,))),
            "w": Parameter("w", rng.standard_normal((4, 3))),
        }
        if rng.integers(2):
            params["b"] = Parameter("b", rng.standard_normal(3))
        w = rng.standard_normal(lead + (3,))

        def build():
            g = graph(Tape())
            bias = g.param(params["b"]) if "b" in params else None
            out = g.linear(g.param(params["x"]), g.param(params["w"]), bias)
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_swda(self, rng):
        h = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        cfg = SwdaConfig(
            w=int(rng.choice([1, 3])),
            r=int(rng.integers(1, 3)),
            d_k=d,
            edge_mode="zero_pad" if rng.integers(0, 2) == 0 else "masked",
        )
        params = {
            name: Parameter(name, rng.standard_normal((h, h, d))) for name in ("q", "k", "v")
        }
        w = rng.standard_normal((h, h, d))

        def build():
            g = graph(Tape())
            out = g.swda(g.param(params["q"]), g.param(params["k"]), g.param(params["v"]), (cfg,))
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_slice(self, rng):
        params = {"a": Parameter("a", rng.standard_normal((3, 6)))}
        w = rng.standard_normal((3, 3))

        def build():
            g = graph(Tape())
            return g.tape, weighted_sum_loss(g, g.slice_last(g.param(params["a"]), 1, 4), w)

        return build, params

    def _case_batched_matmul(self, rng):
        params = {
            "a": Parameter("a", rng.standard_normal((2, 3, 4))),
            "b": Parameter("b", rng.standard_normal((2, 4, 5))),
        }
        w = rng.standard_normal((2, 3, 5))

        def build():
            g = graph(Tape())
            out = g.matmul(g.param(params["a"]), g.param(params["b"]))
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_transpose(self, rng):
        params = {"x": Parameter("x", rng.standard_normal((2, 3, 4)))}
        axes = tuple(int(a) for a in rng.permutation(3))
        w = rng.standard_normal(tuple((2, 3, 4)[a] for a in axes))

        def build():
            g = graph(Tape())
            return g.tape, weighted_sum_loss(g, g.transpose(g.param(params["x"]), axes), w)

        return build, params

    def _case_pool(self, rng):
        params = {"x": Parameter("x", rng.standard_normal((3, 4, 5)))}
        w = rng.standard_normal(5)

        def build():
            g = graph(Tape())
            return g.tape, weighted_sum_loss(g, g.global_avg_pool(g.param(params["x"])), w)

        return build, params

    def _case_cross_entropy(self, rng):
        params = {"x": Parameter("x", rng.standard_normal(6))}
        label = int(rng.integers(0, 6))

        def build():
            g = graph(Tape())
            return g.tape, g.softmax_cross_entropy(g.param(params["x"]), label)

        return build, params

    def _case_batched_conv(self, rng):
        cin, cout, groups = [(2, 3, 1), (3, 3, 3), (4, 6, 2)][int(rng.integers(0, 3))]
        params = {
            "x": Parameter("x", rng.standard_normal((2, 4, 4, cin))),
            "k": Parameter("k", rng.standard_normal((3, 3, cin // groups, cout))),
        }
        w = rng.standard_normal((2, 4, 4, cout))

        def build():
            g = graph(Tape())
            out = g.conv2d(g.param(params["x"]), g.param(params["k"]), stride=1, zero_pad=1, groups=groups)
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_batched_swda(self, rng):
        cfg = SwdaConfig(w=3, r=int(rng.integers(1, 3)), d_k=2,
                         edge_mode="zero_pad" if rng.integers(0, 2) == 0 else "masked")
        params = {name: Parameter(name, rng.standard_normal((2, 3, 4, 2))) for name in ("q", "k", "v")}
        w = rng.standard_normal((2, 3, 4, 2))

        def build():
            g = graph(Tape())
            out = g.swda(g.param(params["q"]), g.param(params["k"]), g.param(params["v"]), (cfg,))
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_batched_pool(self, rng):
        params = {"x": Parameter("x", rng.standard_normal((2, 3, 4, 5)))}
        w = rng.standard_normal((2, 5))

        def build():
            g = graph(Tape())
            return g.tape, weighted_sum_loss(g, g.global_avg_pool(g.param(params["x"])), w)

        return build, params

    def _case_batched_cross_entropy(self, rng):
        params = {"x": Parameter("x", rng.standard_normal((3, 6)))}
        labels = rng.integers(0, 6, size=3)

        def build():
            g = graph(Tape())
            return g.tape, g.softmax_cross_entropy(g.param(params["x"]), labels)

        return build, params


class TestFiniteDiffHarness:
    def test_linear_function_near_exact(self):
        rng = np.random.default_rng(3)
        params = {"x": Parameter("x", rng.standard_normal(8))}
        w = rng.standard_normal(8)

        def build():
            g = graph(Tape())
            return g.tape, g.sum_all(g.mul(g.param(params["x"]), g.leaf(w)))

        report = finite_diff_check(build, params, h=1e-5, budget=8, seed=0)
        assert report.max_rel < 1e-9

    def test_softmax_cross_entropy_toy(self):
        rng = np.random.default_rng(4)
        params = {"logits": Parameter("logits", rng.standard_normal(5))}

        def build():
            g = graph(Tape())
            return g.tape, g.softmax_cross_entropy(g.param(params["logits"]), 2)

        report = finite_diff_check(build, params, h=1e-5, budget=5, seed=0)
        assert report.max_rel < 1e-6

    def test_swda_edge_queries_under_zero_padding(self):
        rng = np.random.default_rng(5)
        cfg = SwdaConfig(w=3, r=2, d_k=2, edge_mode="zero_pad")
        params = {
            name: Parameter(name, rng.standard_normal((3, 3, 2))) for name in ("q", "k", "v")
        }
        w = np.zeros((3, 3, 2))
        w[0, 0] = 1.0  # loss reads only the corner query, whose window is mostly padded

        def build():
            g = graph(Tape())
            out = g.swda(g.param(params["q"]), g.param(params["k"]), g.param(params["v"]), (cfg,))
            return g.tape, weighted_sum_loss(g, out, w)

        report = finite_diff_check(build, params, h=1e-5, budget=12, seed=0)
        assert report.max_rel < 1e-4

    def test_detects_nondeterministic_loss(self):
        state = {"calls": 0}
        p = Parameter("x", np.ones(2))

        def build():
            state["calls"] += 1
            g = graph(Tape())
            x = g.param(p)
            noisy = g.scale(x, 1.0 + 0.01 * state["calls"])
            return g.tape, g.sum_all(noisy)

        with pytest.raises(DeterminismError):
            finite_diff_check(build, {"x": p}, h=1e-5, budget=2, seed=0)

    def test_rejects_nonpositive_step(self):
        p = Parameter("x", np.ones(2))

        def build():
            g = graph(Tape())
            return g.tape, g.sum_all(g.param(p))

        with pytest.raises(ContractError):
            finite_diff_check(build, {"x": p}, h=0.0)


class TestSgd:
    def test_zero_lr_keeps_params(self):
        p = Parameter("x", np.array([1.0, 2.0]), grad=np.array([5.0, -3.0]))
        sgd_step({"x": p}, lr=0.0, weight_decay=0.5)
        assert np.array_equal(p.value, [1.0, 2.0])

    def test_zero_grad_zero_wd_keeps_params(self):
        p = Parameter("x", np.array([1.0, 2.0]))
        sgd_step({"x": p}, lr=0.1, weight_decay=0.0)
        assert np.array_equal(p.value, [1.0, 2.0])

    def test_hand_computed_step(self):
        p = Parameter("x", np.array([1.0]), grad=np.array([2.0]))
        sgd_step({"x": p}, lr=0.1, weight_decay=0.0)
        assert p.value[0] == pytest.approx(0.8)

    def test_decoupled_weight_decay(self):
        p = Parameter("x", np.array([2.0]), grad=np.array([0.0]))
        sgd_step({"x": p}, lr=0.1, weight_decay=0.5)
        assert p.value[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)
