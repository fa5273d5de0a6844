"""Tensor primitive contracts: hand cases, independent oracles, properties."""

import math

import numpy as np
import pytest

from dilatevit import tensor as T
from dilatevit.counting import mac_counter
from dilatevit.errors import NumericError, ShapeError


def triple_loop_matmul(a, b):
    """Element-by-element reference: c[m,n] = sum_k a[m,k]*b[k,n], ascending k."""
    m, kk = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for k in range(kk):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def direct_loop_conv2d(x, kernel, stride, pad):
    """Six-loop reference convolution (groups=1)."""
    kh, kw, cin, cout = kernel.shape
    h_out = (x.shape[0] + 2 * pad - kh) // stride + 1
    w_out = (x.shape[1] + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    out = np.zeros((h_out, w_out, cout), dtype=x.dtype)
    for i in range(h_out):
        for j in range(w_out):
            for co in range(cout):
                acc = 0.0
                for a in range(kh):
                    for b in range(kw):
                        for ci in range(cin):
                            acc += xp[i * stride + a, j * stride + b, ci] * kernel[a, b, ci, co]
                out[i, j, co] = acc
    return out


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2)
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(T.matmul(eye, b), b)

    def test_hand_computed(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0], [4.0]])
        assert np.array_equal(T.matmul(a, b), [[11.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        assert np.abs(T.matmul(a, b) - triple_loop_matmul(a, b)).max() < 1e-12

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_stacked_matrices_match_per_matrix_products_and_count_batch_macs(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 5, 4))
        b = rng.standard_normal((3, 4, 2))
        with mac_counter() as c:
            out = T.matmul(a, b)
        assert out.shape == (3, 5, 2)
        for i in range(3):
            assert np.abs(out[i] - triple_loop_matmul(a[i], b[i])).max() < 1e-12
        assert c.macs == 3 * 5 * 4 * 2

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((3, 5, 4), (2, 4, 2)), ((1, 5, 4), (3, 4, 2)), ((5, 4), (3, 4, 2)), ((3, 5, 4), (4, 2))],
    )
    def test_stacks_must_have_equal_leading_extents(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="equal stacks"):
            T.matmul(np.ones(a_shape), np.ones(b_shape))

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
            left = T.matmul(T.matmul(a, b), c)
            right = T.matmul(a, T.matmul(b, c))
            assert np.abs(left - right).max() < 1e-9


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = T.softmax(np.zeros(3))
        assert np.allclose(out, 1.0 / 3.0)

    def test_no_overflow_on_large_logits(self):
        out = T.softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(9)
        naive = np.exp(x) / np.exp(x).sum()
        assert np.abs(T.softmax(x) - naive).max() < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4, 5)) * 20.0
        out = T.softmax(x)
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-6
        assert (out >= 0).all()

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            T.softmax(np.array([1.0, np.nan]))


class TestConv2d:
    def test_zero_kernel_gives_zero_output(self):
        x = np.random.default_rng(4).standard_normal((5, 5, 2))
        out = T.conv2d(x, np.zeros((3, 3, 2, 4)), stride=1, zero_pad=1)
        assert np.array_equal(out, np.zeros((5, 5, 4)))

    def test_one_by_one_identity_kernel(self):
        x = np.random.default_rng(5).standard_normal((4, 6, 3))
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0] = np.eye(3)
        assert np.allclose(T.conv2d(x, kernel, stride=1, zero_pad=0), x)

    def test_against_direct_loop_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((6, 6, 3))
        kernel = rng.standard_normal((3, 3, 3, 4))
        out = T.conv2d(x, kernel, stride=2, zero_pad=1)
        assert np.abs(out - direct_loop_conv2d(x, kernel, 2, 1)).max() < 1e-12

    def test_depthwise_equals_grouped_reference(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 5, 4))
        kernel = rng.standard_normal((3, 3, 1, 4))
        depthwise = T.conv2d(x, kernel, stride=1, zero_pad=1, groups=4)
        by_channel = np.stack(
            [
                T.conv2d(x[:, :, c : c + 1], kernel[:, :, :, c : c + 1], 1, 1)[:, :, 0]
                for c in range(4)
            ],
            axis=-1,
        )
        assert np.allclose(depthwise, by_channel, atol=1e-12)

    def test_same_padding_preserves_shape(self):
        x = np.ones((7, 9, 2))
        for k in (1, 3, 5):
            kernel = np.ones((k, k, 2, 3))
            out = T.conv2d(x, kernel, stride=1, zero_pad=(k - 1) // 2)
            assert out.shape == (7, 9, 3)

    def test_invalid_groups_raises(self):
        with pytest.raises(ShapeError):
            T.conv2d(np.ones((4, 4, 3)), np.ones((3, 3, 1, 3)), groups=2)


class TestConv2dBatchAxis:
    """[B, H, W, C] input equals a per-image loop of the same op, B times the MACs."""

    # groups=1 (strided), depth-wise, grouped: (Cin, kernel shape, stride, groups)
    CASES = [(3, (3, 3, 3, 4), 2, 1), (4, (3, 3, 1, 4), 1, 4), (4, (3, 3, 2, 6), 1, 2)]

    @pytest.mark.parametrize("cin, kshape, stride, groups", CASES, ids=["dense", "depthwise", "grouped"])
    def test_matches_per_image_loop(self, cin, kshape, stride, groups):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 6, 5, cin))
        kernel = rng.standard_normal(kshape)
        with mac_counter() as batched_macs:
            out = T.conv2d(x, kernel, stride, 1, groups)
        with mac_counter() as single_macs:
            T.conv2d(x[0], kernel, stride, 1, groups)
        assert batched_macs.macs == 3 * single_macs.macs
        per_image = np.stack([T.conv2d(xi, kernel, stride, 1, groups) for xi in x])
        gout = rng.standard_normal(out.shape)
        gx, gk = T.conv2d_backward(gout, x, kernel, stride, 1, groups)
        loop = [T.conv2d_backward(g, xi, kernel, stride, 1, groups) for g, xi in zip(gout, x)]
        gx_loop, gk_loop = np.stack([a for a, _ in loop]), sum(b for _, b in loop)
        if groups == cin:  # depth-wise: slice-accumulate, no BLAS, same arithmetic per image
            assert np.array_equal(out, per_image) and np.array_equal(gx, gx_loop)
        else:
            assert np.abs(out - per_image).max() <= 1e-12
            assert np.abs(gx - gx_loop).max() <= 1e-12
        # The kernel gradient sums over the batch in one reduction, not image by image.
        assert np.abs(gk - gk_loop).max() <= 1e-12 * np.abs(gk_loop).max()


class TestLayernorm:
    def test_constant_token_collapses_to_beta(self):
        x = np.array([[5.0, 5.0, 5.0, 5.0]])
        out = T.layernorm(x, np.ones(4), np.zeros(4))
        assert np.allclose(out, 0.0)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 5))
        beta = rng.standard_normal(5)
        out = T.layernorm(x, np.zeros(5), beta)
        assert np.allclose(out, np.broadcast_to(beta, out.shape))

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(11)
        mean = sum(x) / len(x)
        var = sum((v - mean) ** 2 for v in x) / len(x)
        expected = (x - mean) / math.sqrt(var + 1e-5)
        out = T.layernorm(x[None], np.ones(11), np.zeros(11))[0]
        assert np.abs(out - expected).max() < 1e-10

    def test_normalized_moments(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 4, 16)) * 3 + 2
        out = T.layernorm(x, np.ones(16), np.zeros(16))
        assert np.abs(out.mean(axis=-1)).max() < 1e-5
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4


class TestGelu:
    def test_zero(self):
        assert T.gelu(np.array([0.0]))[0] == 0.0

    def test_asymptotes(self):
        assert T.gelu(np.array([30.0]))[0] == pytest.approx(30.0)
        assert T.gelu(np.array([-30.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_against_erf_oracle_at_one(self):
        expected = 1.0 * 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert abs(T.gelu(np.array([1.0]))[0] - expected) < 1e-10


class TestDtypeAndPurity:
    @pytest.mark.parametrize("op_name", ["matmul", "softmax", "conv2d", "layernorm", "gelu"])
    def test_f32_f64_agree(self, op_name):
        rng = np.random.default_rng(11)

        def run(dtype):
            if op_name == "matmul":
                a = (rng_state["a"]).astype(dtype)
                b = (rng_state["b"]).astype(dtype)
                return T.matmul(a, b)
            if op_name == "softmax":
                return T.softmax(rng_state["x1"].astype(dtype))
            if op_name == "conv2d":
                return T.conv2d(rng_state["x3"].astype(dtype), rng_state["k"].astype(dtype), 1, 1)
            if op_name == "layernorm":
                return T.layernorm(
                    rng_state["x3"].astype(dtype),
                    np.ones(3, dtype=dtype),
                    np.zeros(3, dtype=dtype),
                )
            return T.gelu(rng_state["x1"].astype(dtype))

        rng_state = {
            "a": rng.uniform(-10, 10, (5, 4)),
            "b": rng.uniform(-10, 10, (4, 6)),
            "x1": rng.uniform(-10, 10, 13),
            "x3": rng.uniform(-10, 10, (5, 5, 3)),
            "k": rng.uniform(-1, 1, (3, 3, 3, 2)),
        }
        lo = run(np.float32).astype(np.float64)
        hi = run(np.float64)
        rel = np.abs(lo - hi) / np.maximum(1.0, np.abs(hi))
        assert rel.max() < 1e-4

    def test_ops_are_bit_deterministic(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        x = rng.standard_normal((8, 8, 4))
        k = rng.standard_normal((3, 3, 4, 4))
        assert np.array_equal(T.matmul(a, b), T.matmul(a, b))
        assert np.array_equal(T.conv2d(x, k, 1, 1), T.conv2d(x, k, 1, 1))
        assert np.array_equal(T.softmax(a), T.softmax(a))
        assert np.array_equal(T.gelu(a), T.gelu(a))


class TestAsTensor:
    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            T.as_tensor(np.zeros((0, 3)))

    def test_coerces_contiguous_float(self):
        out = T.as_tensor([[1, 2], [3, 4]])
        assert out.flags["C_CONTIGUOUS"]
        assert out.dtype in (np.float32, np.float64)
        assert out.size == int(np.prod(out.shape))
