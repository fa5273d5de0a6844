"""Tape mechanics, per-op gradient checks, the FD harness, SGD."""


import weakref
from unittest import mock

import numpy as np
import pytest

from dilatevit import model
from dilatevit import tensor as T
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
from dilatevit.errors import ContractError, DeterminismError, NumericError, ShapeError, ValidationError
from dilatevit.swda import SwdaConfig
from tests_common import traced_peak


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
        loss = g.sum_all(g.mul(g.mul(x, x), g.leaf(np.full(3, 0.5))))
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
        loss = g.sum_all(g.gelu(g.linear(a, b, g.leaf(rng.standard_normal(4)))))
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

    def test_linear_is_one_node(self):
        g = graph(Tape())
        x, w, bias = g.leaf(np.ones((2, 3, 4))), g.leaf(np.ones((4, 5))), g.leaf(np.arange(5.0))
        before = len(g.tape.nodes)
        out = g.linear(x, w, bias)
        assert len(g.tape.nodes) == before + 1 and out.parents == (x, w, bias)
        assert np.array_equal(out.data, np.full((2, 3, 5), 4.0) + np.arange(5.0))

    def test_conv2d_is_one_node(self):
        g = graph(Tape())
        x, kernel, bias = g.leaf(np.ones((2, 4, 4, 3))), g.leaf(np.ones((3, 3, 3, 5))), g.leaf(np.arange(5.0))
        before = len(g.tape.nodes)
        out = g.conv2d(x, kernel, bias, stride=2, zero_pad=1)
        assert len(g.tape.nodes) == before + 1 and out.parents == (x, kernel, bias)
        # Output pixel (1, 1) sees all nine taps of all three channels of the unpadded map.
        assert np.array_equal(out.data[:, 1, 1], np.broadcast_to(27.0 + np.arange(5.0), (2, 5)))
        with pytest.raises(ShapeError, match="bias"):
            g.conv2d(x, kernel, g.leaf(np.zeros(3)))

    def test_mhsa_is_one_node(self):
        g = graph(Tape())
        v = np.arange(2 * 3 * 4 * 4, dtype=float).reshape(2, 3, 4, 4)
        qkv = g.leaf(np.concatenate([np.zeros((2, 3, 4, 8)), v], axis=-1))
        before = len(g.tape.nodes)
        out = g.mhsa(qkv, 2)
        assert len(g.tape.nodes) == before + 1 and out.parents == (qkv,)
        # q = k = 0: every token weighs every token equally, so each head returns the mean of v.
        expected = np.broadcast_to(v.mean(axis=(1, 2), keepdims=True), v.shape)
        assert np.allclose(out.data, expected, rtol=1e-12, atol=0)

    def test_mlp_is_one_node(self):
        g = graph(Tape())
        x = g.leaf(np.ones((2, 3, 4)))
        layers = {"fc1.weight": np.ones((4, 6)), "fc1.bias": np.zeros(6),
                  "fc2.weight": np.ones((6, 5)), "fc2.bias": np.arange(5.0)}
        weights = {name: g.leaf(value) for name, value in layers.items()}
        before = len(g.tape.nodes)
        out = g.mlp(x, weights.__getitem__)
        assert len(g.tape.nodes) == before + 1 and out.parents == (x, *weights.values())
        hidden = T.gelu(np.array(4.0))  # every hidden unit; each output sums 6 of them
        assert np.allclose(out.data, 6 * hidden + np.arange(5.0), rtol=1e-12, atol=0)

    def test_no_record_tape_keeps_nothing_and_refuses_backward(self):
        p = Parameter("p", np.arange(3.0))
        g = graph(NoRecordTape())
        loss = g.sum_all(g.mul(g.param(p), g.leaf(np.full(3, 2.0))))
        assert float(loss.data) == 6.0
        assert loss.parents == () and loss.backward_fn is None
        assert g.tape.nodes == [] and g.tape.param_nodes == {}
        with pytest.raises(ContractError, match="recording"):
            backward(g.tape, loss)


def keep_every_gradient(tape, loss):
    """The reverse sweep that keeps every reached node's gradient: the reference for backward."""
    grads = {loss.id: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.get(node.id)
        if g is None or node.backward_fn is None:
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            if pg is not None:
                acc = grads.get(parent.id)
                grads[parent.id] = pg if acc is None else acc + pg
    return grads


class TestMemory:
    def test_backward_returns_leaf_and_parameter_gradients_only(self):
        config = model.toy()
        params = model.init_params(config, seed=2, dtype=np.float64)
        images = np.random.default_rng(3).standard_normal((2, 32, 32, 3))
        g = graph(Tape())
        image = g.leaf(images)
        loss = g.softmax_cross_entropy(model.forward(g, image, config, params), np.array([1, 3]))
        every = keep_every_gradient(g.tape, loss)
        kept = backward(g.tape, loss)
        leaves = {node.id for node in g.tape.nodes if node.backward_fn is None}
        assert set(kept) == set(every) & leaves
        # The image is a plain leaf fed to conv2d, which skips its input gradient.
        assert image.id not in every and set(g.tape.param_nodes) <= set(kept)
        for node_id, grad in kept.items():
            assert np.array_equal(grad, every[node_id])

    def test_untaped_add_writes_over_an_op_output_and_never_a_leaf(self):
        rng = np.random.default_rng(4)
        branch, stream = (rng.standard_normal((3, 4, 5)).astype(np.float32) for _ in range(2))
        kept = stream.copy()
        g = graph(NoRecordTape())
        out = g.add(g.leaf(branch), g.leaf(stream))
        assert np.array_equal(stream, kept) and not np.shares_memory(out.data, stream)
        assert np.array_equal(out.data, branch + stream)
        made = g.gelu(g.leaf(stream))  # an op's output, which the caller gives up
        expected = branch + made.data
        out = g.add(g.leaf(branch), made)
        assert out.data is made.data and np.array_equal(out.data, expected)
        assert np.array_equal(stream, kept)
        with pytest.raises(ShapeError, match="add shape"):
            g.add(g.leaf(branch[:2]), g.gelu(g.leaf(stream)))

    def test_fresh_parameter_allocates_its_gradient_on_first_read(self):
        value = np.ones((256, 256))
        p, made = traced_peak(lambda: Parameter("p", value))
        grad, read = traced_peak(lambda: p.grad)
        assert made < value.nbytes // 16, f"{made} bytes before any read"
        assert read >= value.nbytes
        assert grad.shape == value.shape and grad.dtype == value.dtype and not grad.any()
        grad[...] = 2.0  # writable, and the same buffer on every read
        assert p.grad is grad and np.all(p.grad == 2.0)

    def test_gradient_assignment_keeps_the_shape_check(self):
        p = Parameter("p", np.ones(3))
        with pytest.raises(ShapeError, match="grad shape"):
            p.grad = np.zeros(4)
        p.grad = np.full(3, 5.0)
        assert np.array_equal(p.grad, np.full(3, 5.0))

    def test_gradient_assignment_checks_the_dtype(self):
        p = Parameter("p", np.ones(3, dtype=np.float32))
        with pytest.raises(ShapeError, match="float64 != value"):
            p.grad = np.ones(3)
        # An adopted float64 gradient of a float32 parameter obeys the same rule.
        g = graph(Tape())
        loss = g.sum_all(g.mul(g.param(p), g.leaf(np.full(3, 2.0))))
        zero_grads([p])
        with pytest.raises(ShapeError, match="float64 != value"):
            accumulate_param_grads(g.tape, backward(g.tape, loss))


class TestGradientOwnership:
    """accumulate_param_grads adopts the arrays backward returns and never writes them."""

    def test_a_parameter_used_once_holds_the_array_backward_returned(self):
        p = Parameter("p", np.array([0.5, -1.0, 2.0]))
        g = graph(Tape())
        node = g.param(p)
        loss = g.sum_all(g.gelu(node))
        grads = backward(g.tape, loss)
        zero_grads([p])
        accumulate_param_grads(g.tape, grads)
        assert p.grad is grads[node.id]

    def test_two_parameters_of_one_add_hold_distinct_arrays(self):
        p, q = Parameter("p", np.ones(3)), Parameter("q", np.full(3, 2.0))
        g = graph(Tape())
        a, b = g.param(p), g.param(q)
        loss = g.sum_all(g.add(a, b))
        grads = backward(g.tape, loss)
        assert grads[a.id] is grads[b.id]  # add hands both parents one array
        zero_grads([p, q])
        accumulate_param_grads(g.tape, grads)
        assert p.grad is grads[a.id] and not np.shares_memory(p.grad, q.grad)
        assert np.array_equal(p.grad, np.ones(3)) and np.array_equal(q.grad, np.ones(3))

    def test_a_second_accumulation_sums_without_writing_the_first_arrays(self):
        p, q = Parameter("p", np.array([0.5, -1.0])), Parameter("q", np.array([3.0, 4.0]))
        g = graph(Tape())
        a, b = g.param(p), g.param(q)
        loss = g.sum_all(g.add(g.mul(a, a), b))
        first = backward(g.tape, loss)
        kept = {k: v.copy() for k, v in first.items()}
        zero_grads([p, q])
        accumulate_param_grads(g.tape, first)
        accumulate_param_grads(g.tape, backward(g.tape, loss))
        assert np.array_equal(p.grad, 2 * kept[a.id]) and np.array_equal(q.grad, 2 * kept[b.id])
        assert all(np.array_equal(first[k], kept[k]) for k in kept)

    def test_zero_grads_leaves_zeros_to_read(self):
        p = Parameter("p", np.ones((2, 3), dtype=np.float32))
        g = graph(Tape())
        loss = g.sum_all(g.param(p))
        accumulate_param_grads(g.tape, backward(g.tape, loss))
        zero_grads([p])
        assert p.grad.dtype == np.float32 and np.array_equal(p.grad, np.zeros((2, 3)))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loss_is_a_numeric_error(self, bad):
        # A NaN or infinite logit that no op before the loss checked surfaces here.
        z = np.zeros((3, 4))
        z[1, 1] = bad  # row 1's label
        g = graph(Tape())
        with pytest.raises(NumericError, match="loss"), np.errstate(invalid="ignore"):
            g.softmax_cross_entropy(g.leaf(z), np.array([0, 1, 2]))

    @pytest.mark.parametrize("labels", [[0, 1.0, 2], [0, 4, 1], [-1, 0, 1]])
    def test_cross_entropy_takes_integer_labels_below_k(self, labels):
        g = graph(Tape())
        with pytest.raises(ValidationError, match="labels"):
            g.softmax_cross_entropy(g.leaf(np.zeros((3, 4))), np.array(labels))

    def test_cross_entropy_needs_one_label_per_row(self):
        g = graph(Tape())
        with pytest.raises(ShapeError, match="label"):
            g.softmax_cross_entropy(g.leaf(np.zeros((4, 5))), np.array([0, 1]))


def weighted_sum_loss(g, node, weights):
    return g.sum_all(g.mul(node, g.leaf(weights)))


class TestPerOpGradients:
    """Every differentiable op against central finite differences (f64)."""

    CASES = 200

    def builders(self):
        return [
            self._case_add,
            self._case_conv,
            self._case_depthwise_conv,
            self._case_layernorm,
            self._case_gelu,
            self._case_swda,
            self._case_mhsa,
            self._case_pool,
            self._case_cross_entropy,
            self._case_batched_conv,
            self._case_batched_swda,
            self._case_batched_mhsa,
            self._case_batched_pool,
            self._case_batched_cross_entropy,
            self._case_linear,
            self._case_mlp,
            self._case_blocked_mlp,
        ]

    def test_random_op_sweep(self):
        rng = np.random.default_rng(2)
        builders = self.builders()
        failures = []
        for i in range(self.CASES):
            case_rng = np.random.default_rng(rng.integers(0, 2**63))
            build, params = builders[i % len(builders)](case_rng)
            report = finite_diff_check(build, params, h=1e-5, budget=4, seed=i)
            if report.max_rel >= 1e-4:
                failures.append((i, builders[i % len(builders)].__name__, report.max_rel))
        assert not failures, f"gradient mismatches: {failures}"

    def test_every_graph_op_has_a_case(self, monkeypatch):
        """Each public graph op except leaf and param is recorded by some case of the sweep."""
        ops = {name for name, fn in vars(graph).items() if callable(fn) and not name.startswith("_")}
        ops -= {"leaf", "param"}
        seen = set()
        for name in ops:
            def recorded(*args, _name=name, _op=getattr(graph, name), **kwargs):
                seen.add(_name)
                return _op(*args, **kwargs)

            monkeypatch.setattr(graph, name, recorded)
        for builder in self.builders():
            builder(np.random.default_rng(0))[0]()
        assert ops <= seen, f"graph ops without a finite-difference case: {sorted(ops - seen)}"

    # -- case builders ------------------------------------------------------

    def _case_add(self, rng):
        params = {name: Parameter(name, rng.standard_normal((2, 3, 4))) for name in ("a", "b")}
        w = rng.standard_normal((2, 3, 4))

        def build():
            g = graph(Tape())
            out = g.add(g.gelu(g.param(params["a"])), g.param(params["b"]))
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_conv(self, rng):
        params = {
            "x": Parameter("x", rng.standard_normal((5, 5, 2))),
            "k": Parameter("k", rng.standard_normal((3, 3, 2, 3))),
            "b": Parameter("b", rng.standard_normal(3)),
        }
        stride = int(rng.integers(1, 3))
        h_out = (5 + 2 - 3) // stride + 1
        w = rng.standard_normal((h_out, h_out, 3))

        def build():
            g = graph(Tape())
            out = g.conv2d(*map(g.param, params.values()), stride=stride, zero_pad=1)
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_depthwise_conv(self, rng):
        params = {
            "x": Parameter("x", rng.standard_normal((4, 4, 3))),
            "k": Parameter("k", rng.standard_normal((3, 3, 1, 3))),
            "b": Parameter("b", rng.standard_normal(3)),
        }
        w = rng.standard_normal((4, 4, 3))

        def build():
            g = graph(Tape())
            out = g.conv2d(*map(g.param, params.values()), stride=1, zero_pad=1)
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

    def _case_linear(self, rng):
        """1 to 3 axes in."""
        lead = tuple(int(n) for n in rng.integers(1, 4, int(rng.integers(0, 3))))
        params = {
            "x": Parameter("x", rng.standard_normal(lead + (4,))),
            "w": Parameter("w", rng.standard_normal((4, 3))),
            "b": Parameter("b", rng.standard_normal(3)),
        }
        w = rng.standard_normal(lead + (3,))

        def build():
            g = graph(Tape())
            out = g.linear(g.param(params["x"]), g.param(params["w"]), g.param(params["b"]))
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
        params = {"qkv": Parameter("qkv", rng.standard_normal((h, h, 3 * d)))}
        w = rng.standard_normal((h, h, d))

        def build():
            g = graph(Tape())
            out = g.swda(g.param(params["qkv"]), (cfg,))
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_mhsa(self, rng, lead=()):
        """1 to 3 heads of width 1 or 2 over a map of 1 to 9 tokens."""
        heads, d_k = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        h, w_map = (int(n) for n in rng.integers(1, 4, 2))
        params = {"qkv": Parameter("qkv", rng.standard_normal(lead + (h, w_map, 3 * heads * d_k)))}
        w = rng.standard_normal(lead + (h, w_map, heads * d_k))

        def build():
            g = graph(Tape())
            out = g.mhsa(g.param(params["qkv"]), heads)
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_batched_mhsa(self, rng):
        return self._case_mhsa(rng, lead=(2,))

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
        cin, cout, kernel_cin = [(2, 3, 2), (3, 3, 1)][int(rng.integers(0, 2))]  # dense, depth-wise
        params = {
            "x": Parameter("x", rng.standard_normal((2, 4, 4, cin))),
            "k": Parameter("k", rng.standard_normal((3, 3, kernel_cin, cout))),
            "b": Parameter("b", rng.standard_normal(cout)),
        }
        w = rng.standard_normal((2, 4, 4, cout))

        def build():
            g = graph(Tape())
            out = g.conv2d(*map(g.param, params.values()), stride=1, zero_pad=1)
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_batched_swda(self, rng):
        cfg = SwdaConfig(w=3, r=int(rng.integers(1, 3)), d_k=2,
                         edge_mode="zero_pad" if rng.integers(0, 2) == 0 else "masked")
        params = {"qkv": Parameter("qkv", rng.standard_normal((2, 3, 4, 6)))}
        w = rng.standard_normal((2, 3, 4, 2))

        def build():
            g = graph(Tape())
            out = g.swda(g.param(params["qkv"]), (cfg,))
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

    def _case_mlp(self, rng, lead=None, block_rows=None):
        """1 to 3 leading axes, 2 to 5 hidden units; rows in blocks of ``block_rows`` if given."""
        if lead is None:
            lead = tuple(int(n) for n in rng.integers(1, 4, int(rng.integers(1, 4))))
        hidden = int(rng.integers(2, 6))
        shapes = {"x": lead + (3,), "fc1.weight": (3, hidden), "fc1.bias": (hidden,),
                  "fc2.weight": (hidden, 2), "fc2.bias": (2,)}
        params = {name: Parameter(name, rng.standard_normal(shape)) for name, shape in shapes.items()}
        w = rng.standard_normal(lead + (2,))
        cap = T.BLOCK_BYTES if block_rows is None else block_rows * hidden * 8

        def build():
            g = graph(Tape())
            with mock.patch.object(T, "BLOCK_BYTES", cap):
                out = g.mlp(g.param(params["x"]), lambda leaf: g.param(params[leaf]))
            return g.tape, weighted_sum_loss(g, out, w)

        return build, params

    def _case_blocked_mlp(self, rng):
        """10 token rows in blocks of 3, the last one short."""
        return self._case_mlp(rng, lead=(2, 5), block_rows=3)


MLP_LAYERS = ("x", "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias")


class TestMlp:
    """graph.mlp against the linear -> gelu -> linear nodes it replaces, and its blocks."""

    ROWS, CHANNELS, HIDDEN = (2, 4, 5), 6, 16

    def values(self, dtype):
        rng = np.random.default_rng(21)
        c, d = self.CHANNELS, self.HIDDEN
        shapes = {"x": self.ROWS + (c,), "fc1.weight": (c, d), "fc1.bias": (d,),
                  "fc2.weight": (d, c), "fc2.bias": (c,)}
        values = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
        return values, rng.standard_normal(self.ROWS + (c,)).astype(dtype)

    def run(self, dtype, composed=False):
        """Output and the gradients of MLP_LAYERS under a weighted-sum loss, on a recording tape."""
        values, loss_w = self.values(dtype)
        g = graph(Tape())
        nodes = {name: g.param(Parameter(name, value)) for name, value in values.items()}
        if composed:
            hidden = g.gelu(g.linear(nodes["x"], nodes["fc1.weight"], nodes["fc1.bias"]))
            out = g.linear(hidden, nodes["fc2.weight"], nodes["fc2.bias"])
        else:
            out = g.mlp(nodes["x"], nodes.__getitem__)
        grads = backward(g.tape, weighted_sum_loss(g, out, loss_w))
        return [out.data] + [grads[nodes[name].id] for name in MLP_LAYERS]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_block_is_the_composed_arithmetic(self, dtype):
        for got, want in zip(self.run(dtype), self.run(dtype, composed=True)):
            assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_equal_one_block(self, monkeypatch, dtype):
        one = self.run(dtype)
        values, _ = self.values(dtype)
        rows = int(np.prod(self.ROWS))
        monkeypatch.setattr(T, "BLOCK_BYTES", 7 * self.HIDDEN * np.dtype(dtype).itemsize)
        gelu_rows, gelu = [], T.gelu

        def counted_gelu(x):
            gelu_rows.append(x.shape[0])
            return gelu(x)

        monkeypatch.setattr(T, "gelu", counted_gelu)
        blocked = self.run(dtype)
        # 7-row blocks forward, the last one short; the backward recomputes GELU once.
        assert gelu_rows == [7] * (rows // 7) + [rows % 7] + [rows]
        for got, want in zip(blocked, one):
            assert np.array_equal(got, want)
        g = graph(NoRecordTape())
        inference = g.mlp(g.leaf(values["x"]), lambda leaf: g.leaf(values[leaf]))
        assert np.array_equal(inference.data, one[0])

    @pytest.mark.parametrize("block_rows", [None, 7])
    def test_fc2_is_looked_up_after_fc1_in_one_block(self, monkeypatch, block_rows):
        """On a NoRecordTape, fc1's weight is freed before fc2's is asked for when all
        rows fit one block; several blocks need both at once."""
        if block_rows is not None:
            monkeypatch.setattr(T, "BLOCK_BYTES", block_rows * self.HIDDEN * 4)
        values, _ = self.values(np.float32)
        g = graph(NoRecordTape())
        asked, fc1_alive, fc1 = [], [], None

        def weight(leaf):
            nonlocal fc1
            asked.append(leaf)
            if leaf == "fc2.weight":
                fc1_alive.append(fc1() is not None)
            value = values[leaf].copy()  # only the op holds it, as with a lazy checkpoint
            if leaf == "fc1.weight":
                fc1 = weakref.ref(value)
            return g.param(Parameter(leaf, value))

        g.mlp(g.leaf(values["x"]), weight)
        assert asked == list(MLP_LAYERS[1:])
        assert fc1_alive == [block_rows is not None]

    def test_rejects_a_bias_that_does_not_match_its_weight(self):
        values, _ = self.values(np.float64)
        values["fc2.bias"] = values["fc2.bias"][:1]
        g = graph(Tape())
        with pytest.raises(ShapeError, match="fc2"):
            g.mlp(g.leaf(values["x"]), lambda leaf: g.leaf(values[leaf]))


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
        params = {"qkv": Parameter("qkv", rng.standard_normal((3, 3, 6)))}
        w = np.zeros((3, 3, 2))
        w[0, 0] = 1.0  # loss reads only the corner query, whose window is mostly padded

        def build():
            g = graph(Tape())
            out = g.swda(g.param(params["qkv"]), (cfg,))
            return g.tape, weighted_sum_loss(g, out, w)

        report = finite_diff_check(build, params, h=1e-5, budget=36, seed=0)
        assert report.max_rel < 1e-4

    def test_detects_nondeterministic_loss(self):
        state = {"calls": 0}
        p = Parameter("x", np.ones(2))

        def build():
            state["calls"] += 1
            g = graph(Tape())
            x = g.param(p)
            noisy = g.mul(x, g.leaf(np.full(2, 1.0 + 0.01 * state["calls"])))
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
        p = Parameter("x", np.array([1.0, 2.0]))
        p.grad = np.array([5.0, -3.0])
        sgd_step({"x": p}, lr=0.0, weight_decay=0.5)
        assert np.array_equal(p.value, [1.0, 2.0])

    def test_zero_grad_zero_wd_keeps_params(self):
        p = Parameter("x", np.array([1.0, 2.0]))
        sgd_step({"x": p}, lr=0.1, weight_decay=0.0)
        assert np.array_equal(p.value, [1.0, 2.0])

    def test_hand_computed_step(self):
        p = Parameter("x", np.array([1.0]))
        p.grad = np.array([2.0])
        sgd_step({"x": p}, lr=0.1, weight_decay=0.0)
        assert p.value[0] == pytest.approx(0.8)

    def test_decoupled_weight_decay(self):
        p = Parameter("x", np.array([2.0]))
        p.grad = np.array([0.0])
        sgd_step({"x": p}, lr=0.1, weight_decay=0.5)
        assert p.value[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)
