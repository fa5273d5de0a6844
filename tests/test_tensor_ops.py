"""Tensor primitive contracts: hand cases, independent oracles, properties."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from dilatevit import tensor as T
from dilatevit.autograd import NoRecordTape, Tape, graph
from dilatevit.counting import mac_counter
from dilatevit.errors import NumericError, ShapeError
from oracles import layernorm_backward_stored_xhat
from tests_common import traced_peak


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
    """Six-loop reference convolution with a dense kernel [kh,kw,Cin,Cout]."""
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


def direct_loop_conv2d_backward(grad_out, x, kernel, stride, pad):
    """Adjoint of :func:`direct_loop_conv2d`: (grad_x, grad_kernel) by the same six loops."""
    kh, kw, cin, cout = kernel.shape
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    grad_xp, grad_kernel = np.zeros_like(xp), np.zeros_like(kernel)
    for i in range(grad_out.shape[0]):
        for j in range(grad_out.shape[1]):
            for co in range(cout):
                for a in range(kh):
                    for b in range(kw):
                        p, q = i * stride + a, j * stride + b
                        for ci in range(cin):
                            grad_xp[p, q, ci] += grad_out[i, j, co] * kernel[a, b, ci, co]
                            grad_kernel[a, b, ci, co] += grad_out[i, j, co] * xp[p, q, ci]
    return grad_xp[pad : pad + x.shape[0], pad : pad + x.shape[1]], grad_kernel


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
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_buffer_equals_the_out_of_place_formula_and_keeps_its_input(self, dtype):
        x = (np.random.default_rng(14).standard_normal((3, 50, 49)) * 4).astype(dtype)
        before = x.copy()
        out = T.softmax(x)
        e = np.exp(x - np.max(x, axis=-1, keepdims=True))
        assert np.array_equal(out, e / np.sum(e, axis=-1, keepdims=True))
        assert np.array_equal(x, before)

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

    @pytest.mark.parametrize("stride", [1, 2])
    def test_kernel_shape_sets_the_kind(self, stride):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 5, 4))
        kernel = rng.standard_normal((3, 3, 1, 4))
        # [3,3,1,C] on C channels is depth-wise: channel c is a dense one-channel conv.
        depthwise = T.conv2d(x, kernel, stride=stride, zero_pad=1)
        by_channel = np.stack(
            [
                T.conv2d(x[:, :, c : c + 1], kernel[:, :, :, c : c + 1], stride, 1)[:, :, 0]
                for c in range(4)
            ],
            axis=-1,
        )
        assert np.allclose(depthwise, by_channel, atol=1e-12)
        # The same kernel on one channel is dense: four output channels from one input.
        dense = T.conv2d(x[:, :, :1], kernel, stride=stride, zero_pad=1)
        assert np.abs(dense - direct_loop_conv2d(x[:, :, :1], kernel, stride, 1)).max() < 1e-12

    def test_same_padding_preserves_shape(self):
        x = np.ones((7, 9, 2))
        for k in (1, 3, 5):
            kernel = np.ones((k, k, 2, 3))
            out = T.conv2d(x, kernel, stride=1, zero_pad=(k - 1) // 2)
            assert out.shape == (7, 9, 3)

    @pytest.mark.parametrize("cin, kshape", [
        (4, (3, 3, 2, 6)),
        (4, (3, 3, 1, 6)),
    ], ids=["grouped", "depthwise_cout_differs"])
    def test_invalid_groups_raises(self, cin, kshape):
        with pytest.raises(ShapeError, match="dense .* or depth-wise"):
            T.conv2d(np.ones((4, 4, cin)), np.ones(kshape))


class TestTapEngine:
    """taps, tap_sum and scatter_taps, which every conv and dilated window runs through."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        h=st.integers(1, 8),
        w=st.integers(1, 8),
        c=st.integers(1, 3),
        kh=st.integers(1, 4),
        kw=st.integers(1, 4),
        stride=st.integers(1, 2),
        dilation=st.integers(1, 3),
        pad=st.integers(0, 3),
        batch=st.sampled_from([(), (2,)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scatter_is_the_adjoint_of_the_windows(self, h, w, c, kh, kw, stride, dilation, pad, batch, seed):
        hp, wp = h + 2 * pad, w + 2 * pad
        assume(hp >= dilation * (kh - 1) + 1 and wp >= dilation * (kw - 1) + 1)
        h_out, w_out = ((n - dilation * (k - 1) - 1) // stride + 1 for n, k in ((hp, kh), (wp, kw)))
        # Windows against index arithmetic: tap (a, b) reads (i*stride + a*dilation, j*stride + b*dilation).
        index = np.arange(hp * wp).reshape(hp, wp, 1)
        windows = list(T.taps(index, kh, kw, stride, dilation))
        assert len(windows) == kh * kw
        i, j = np.arange(h_out)[:, None], np.arange(w_out)[None, :]
        for t, window in enumerate(windows):
            a, b = divmod(t, kw)
            expect = (i * stride + a * dilation) * wp + j * stride + b * dilation
            assert window.shape == (h_out, w_out, 1) and np.array_equal(window[..., 0], expect)
        # <taps(pad(x)), parts> == <x, scatter_taps(parts)> in float64.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(batch + (h, w, c))
        parts = rng.standard_normal((kh * kw,) + batch + (h_out, w_out, c))
        lhs = sum(np.vdot(win, part) for win, part in zip(T.taps(T.pad_hw(x, pad), kh, kw, stride, dilation), parts))
        scattered = T.scatter_taps(parts, x.shape, x.dtype, kh, kw, stride, pad, dilation)
        assert scattered.shape == x.shape and scattered.dtype == x.dtype
        assert abs(lhs - np.vdot(x, scattered)) <= 1e-12 * max(1.0, abs(lhs))
        # tap_sum adds the products in tap order.
        weights = rng.standard_normal((kh * kw, w_out, c))
        expect = None
        for win, weight in zip(T.taps(T.pad_hw(x, pad), kh, kw, stride, dilation), weights):
            expect = win * weight if expect is None else expect + win * weight
        assert np.array_equal(T.tap_sum(T.taps(T.pad_hw(x, pad), kh, kw, stride, dilation), weights), expect)


class TestConv2dProperty:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        kh=st.sampled_from([1, 3, 5]),
        kw=st.sampled_from([1, 3, 5]),
        stride=st.integers(1, 2),
        data=st.data(),
        channels=st.integers(1, 3),
        cout=st.integers(1, 3),
        depthwise=st.booleans(),
        batch=st.sampled_from([(), (1,), (3,)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_loops_and_their_adjoint(
        self, h, w, kh, kw, stride, data, channels, cout, depthwise, batch, seed
    ):
        # Past k - 1 the stride-1 input gradient crops grad_out instead of padding it;
        # a kh x kw kernel pads or crops H and W by different amounts.
        pad = data.draw(st.integers(0, max(kh, kw)), label="pad")
        assume(h + 2 * pad >= kh and w + 2 * pad >= kw)
        rng = np.random.default_rng(seed)
        cout, kernel_cin = (channels, 1) if depthwise else (cout, channels)
        x = rng.standard_normal(batch + (h, w, channels))
        kernel = rng.standard_normal((kh, kw, kernel_cin, cout))
        out = T.conv2d(x, kernel, stride, pad)
        gout = rng.standard_normal(out.shape)
        gx, gk = T.conv2d_backward(gout, x, kernel, stride, pad)
        # Depth-wise: channel c is a one-channel conv with kernel[..., c].
        parts = [slice(c, c + 1) for c in range(channels)] if depthwise else [slice(None)]
        gk_ref = np.zeros_like(kernel)
        for b in np.ndindex(batch):
            for c in parts:
                ref = direct_loop_conv2d(x[b][..., c], kernel[..., c], stride, pad)
                assert np.abs(out[b][..., c] - ref).max() <= 1e-12
                gx_ref, gk_part = direct_loop_conv2d_backward(gout[b][..., c], x[b][..., c], kernel[..., c], stride, pad)
                assert np.abs(gx[b][..., c] - gx_ref).max() <= 1e-12
                gk_ref[..., c] += gk_part
        assert np.abs(gk - gk_ref).max() <= 1e-12

    def test_kernel_gradient_unfolds_one_block_at_a_time(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 64, 64, 8))  # 4.7 MB of columns for a 3x3 kernel
        kernel = rng.standard_normal((3, 3, 8, 8))
        gout = rng.standard_normal(x.shape)
        (none, _), peak = traced_peak(lambda: T.conv2d_backward(gout, x, kernel, 1, 1, input_grad=False))
        # One block of columns and that block's zero-padded input rows, a small part of x;
        # unfolding all of x at once peaks at 5.3 MB, and padding it whole adds x.nbytes.
        assert none is None and peak <= T.BLOCK_BYTES + x.nbytes // 4, f"peak {peak / 1e6:.2f} MB"


class TestConv2dBatchAxis:
    """[B, H, W, C] input equals a per-image loop of the same op, B times the MACs."""

    # dense (strided), depth-wise: (Cin, kernel shape, stride)
    CASES = [(3, (3, 3, 3, 4), 2), (4, (3, 3, 1, 4), 1)]

    @pytest.mark.parametrize("cin, kshape, stride", CASES, ids=["dense", "depthwise"])
    def test_matches_per_image_loop(self, cin, kshape, stride):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 6, 5, cin))
        kernel = rng.standard_normal(kshape)
        with mac_counter() as batched_macs:
            out = T.conv2d(x, kernel, stride, 1)
        with mac_counter() as single_macs:
            T.conv2d(x[0], kernel, stride, 1)
        assert batched_macs.macs == 3 * single_macs.macs
        per_image = np.stack([T.conv2d(xi, kernel, stride, 1) for xi in x])
        gout = rng.standard_normal(out.shape)
        gx, gk = T.conv2d_backward(gout, x, kernel, stride, 1)
        loop = [T.conv2d_backward(g, xi, kernel, stride, 1) for g, xi in zip(gout, x)]
        gx_loop, gk_loop = np.stack([a for a, _ in loop]), sum(b for _, b in loop)
        if kshape[2] == 1:  # depth-wise: slice-accumulate, no BLAS, same arithmetic per image
            assert np.array_equal(out, per_image) and np.array_equal(gx, gx_loop)
        else:
            assert np.abs(out - per_image).max() <= 1e-12
            assert np.abs(gx - gx_loop).max() <= 1e-12
        # The kernel gradient sums over the batch in one reduction, not image by image.
        assert np.abs(gk - gk_loop).max() <= 1e-12 * np.abs(gk_loop).max()

    @pytest.mark.parametrize("cin, kshape, _", CASES, ids=["dense", "depthwise"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_skipped_input_gradient_leaves_the_kernel_gradient(self, cin, kshape, _, stride):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 6, 6, cin)).astype(np.float32)
        kernel = rng.standard_normal(kshape).astype(np.float32)
        gout = rng.standard_normal(T.conv2d(x, kernel, stride, 1).shape).astype(np.float32)
        gx, gk = T.conv2d_backward(gout, x, kernel, stride, 1)
        none, gk_only = T.conv2d_backward(gout, x, kernel, stride, 1, input_grad=False)
        assert gx is not None and none is None
        assert np.array_equal(gk, gk_only)


class TestConv2dRowBlocks:
    """A dense conv whose columns exceed T.BLOCK_BYTES unfolds and multiplies
    a block of output rows of one image at a time; the kernel gradient sums over
    the same blocks, and the stride-1 input gradient runs through the same correlation."""

    @pytest.mark.parametrize("batch", [(), (2,)])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("rows_per_block", [1, 2])  # 2 leaves a partial last block of 9 or 5 rows
    def test_blocked_matches_direct_loops_and_one_block(self, monkeypatch, batch, stride, rows_per_block):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(batch + (9, 7, 3))
        kernel = rng.standard_normal((3, 3, 3, 4))
        out_one = T.conv2d(x, kernel, stride, 1)
        gout = rng.standard_normal(out_one.shape)
        gx_one, gk_one = T.conv2d_backward(gout, x, kernel, stride, 1)
        h_out, w_out = out_one.shape[-3:-1]
        monkeypatch.setattr(T, "BLOCK_BYTES", rows_per_block * w_out * kernel[..., 0].size * x.itemsize)
        unfolded = []  # output rows of each unfolding
        im2col = T.im2col

        def counting_im2col(*args):
            cols = im2col(*args)
            unfolded.append(cols.shape[-3])
            return cols

        monkeypatch.setattr(T, "im2col", counting_im2col)
        out = T.conv2d(x, kernel, stride, 1)
        images = math.prod(batch)
        assert len(unfolded) == images * math.ceil(h_out / rows_per_block)
        assert sum(unfolded) == images * h_out and max(unfolded) == rows_per_block
        forward_unfolds = list(unfolded)
        unfolded.clear()
        gx, gk = T.conv2d_backward(gout, x, kernel, stride, 1)
        # The kernel gradient unfolds in the forward's blocks; at stride 1 the input
        # gradient then runs row by row (36 > 27 taps x Cin), at stride 2 through scatter_taps.
        input_unfolds = [1] * images * x.shape[-3] if stride == 1 else []
        assert unfolded == forward_unfolds + input_unfolds
        assert np.abs(out - out_one).max() <= 1e-12 and np.abs(gx - gx_one).max() <= 1e-12
        assert np.abs(gk - gk_one).max() <= 1e-12  # summed block by block, so rounded differently
        gk_ref = np.zeros_like(gk)
        for b in np.ndindex(batch):
            assert np.abs(out[b] - direct_loop_conv2d(x[b], kernel, stride, 1)).max() <= 1e-12
            gx_ref, gk_b = direct_loop_conv2d_backward(gout[b], x[b], kernel, stride, 1)
            assert np.abs(gx[b] - gx_ref).max() <= 1e-12
            gk_ref += gk_b
        assert np.abs(gk - gk_ref).max() <= 1e-12

    def test_peaks_hold_one_block_and_its_padded_rows(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((128, 128, 4))  # 4.7 MB of columns for a 3x3 kernel
        kernel = rng.standard_normal((3, 3, 4, 4))
        gout = rng.standard_normal(x.shape)
        step = T.BLOCK_BYTES // (128 * kernel[..., 0].size * x.itemsize)  # output rows per block
        assert 1 < step < 128
        padded_rows = (step + 2) * 130 * 4 * x.itemsize  # the input rows one block reads, zero-padded
        out, forward_peak = traced_peak(lambda: T.conv2d(x, kernel, 1, 1))
        _, backward_peak = traced_peak(lambda: T.conv2d_backward(gout, x, kernel, 1, 1))
        # x and gout are made outside the trace, so the output (or grad_x) is the one
        # map-sized array counted; a padded copy of the whole map adds another.
        bound = out.nbytes + T.BLOCK_BYTES + padded_rows
        assert forward_peak <= bound, f"{forward_peak - bound} bytes over"
        assert backward_peak <= bound + 2 * kernel.nbytes, f"{backward_peak - bound} bytes over"  # gk, flipped kernel


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_both_tapes_match_the_two_pass_oracle(self, dtype):
        """T.layernorm within 16 eps of the float64 two-pass form, and graph.layernorm
        giving its bits on a recording and a NoRecordTape, x unwritten."""
        rng = np.random.default_rng(11)
        x, gamma, beta = (rng.standard_normal(shape).astype(dtype) for shape in ((2, 5, 7, 24), (24,), (24,)))
        kept = x.copy()
        x64 = x.astype(np.float64)
        mean = x64.mean(axis=-1, keepdims=True)
        var = ((x64 - mean) ** 2).mean(axis=-1, keepdims=True)
        want = (x64 - mean) / np.sqrt(var + 1e-5) * gamma + beta.astype(np.float64)
        out = T.layernorm(x, gamma, beta)
        assert out.dtype == dtype
        assert np.all(np.abs(out - want) <= 16 * np.finfo(dtype).eps * np.maximum(1.0, np.abs(want)))
        for tape in (Tape(), NoRecordTape()):
            g = graph(tape)
            assert np.array_equal(g.layernorm(g.leaf(x), g.leaf(gamma), g.leaf(beta)).data, out)
        assert np.array_equal(x, kept)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        lead=st.lists(st.integers(1, 4), max_size=2),
        c=st.integers(1, 9),
        zero_gamma=st.lists(st.booleans(), min_size=9, max_size=9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_backward_matches_the_stored_xhat_oracle(self, dtype, lead, c, zero_gamma, seed):
        rng = np.random.default_rng(seed)
        x, g = (rng.standard_normal((*lead, c)).astype(dtype) for _ in range(2))
        gamma, beta = (rng.standard_normal(c).astype(dtype) for _ in range(2))
        gamma[np.array(zero_gamma[:c])] = 0.0
        _, state = T.layernorm_with_state(x, gamma, beta)
        assert state[0] is x  # the tape keeps x already; no map-sized state is added
        xhat, _, inv = T._normalized_rows(x, gamma, beta, 1e-5)
        got = T.layernorm_backward(g, state, gamma)
        want = layernorm_backward_stored_xhat(g, (xhat, inv), gamma)
        for name, a, b in zip(("x", "gamma", "beta"), got, want):
            assert a.dtype == dtype and np.array_equal(a, b), name

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


def scipy_gelu(x):
    """The float64 expressions of tensor.gelu and gelu_grad, on scipy.special.erf."""
    one_plus_erf = (1.0 + erf(x * np.asarray(1.0 / math.sqrt(2.0), dtype=x.dtype))).astype(x.dtype)
    phi = np.exp(-0.5 * x * x) * np.asarray(1.0 / math.sqrt(2.0 * math.pi), dtype=x.dtype)
    return x * np.asarray(0.5, dtype=x.dtype) * one_plus_erf, 0.5 * one_plus_erf + x * phi


class TestGeluFloat32:
    """float32 GELU runs a rational erf in chunks of T.CDF_CHUNK; float64 keeps scipy."""

    EPS = float(np.finfo(np.float32).eps)

    @pytest.fixture(scope="class")
    def alone(self):
        """Values around the chunk size and each one's gelu and gelu_grad computed alone."""
        x = (np.random.default_rng(13).standard_normal(T.CDF_CHUNK + 1) * 4).astype(np.float32)
        return x, {f: np.concatenate([f(x[i : i + 1]) for i in range(x.size)]) for f in (T.gelu, T.gelu_grad)}

    def test_within_4_eps_of_the_exact_float64_gelu_on_a_dense_sweep(self):
        s2 = 4 * math.sqrt(2.0)
        x = np.concatenate([np.linspace(-30, 30, 600_001), [0.0, -0.0, s2, -s2]]).astype(np.float32)
        exact, exact_grad = scipy_gelu(x.astype(np.float64))
        value_err = np.abs(T.gelu(x) - exact) / np.maximum(1.0, np.abs(x))
        grad_err = np.abs(T.gelu_grad(x) - exact_grad) / np.maximum(1.0, np.abs(exact_grad))
        assert value_err.max() <= 4 * self.EPS
        assert grad_err.max() <= 4 * self.EPS

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunk_boundaries_do_not_change_any_element(self, alone, extra):
        x, singles = alone
        n = T.CDF_CHUNK + extra
        for f, ref in singles.items():
            assert np.array_equal(f(x[:n]), ref[:n]), f.__name__

    def test_a_non_contiguous_channel_view_matches_elements_alone(self, alone):
        x, singles = alone
        shape = (2, 9, 10, 12)
        index = np.arange(math.prod(shape)).reshape(shape)[..., 3:9]
        view = x[: math.prod(shape)].reshape(shape)[..., 3:9]
        assert not view.flags["C_CONTIGUOUS"]
        for f, ref in singles.items():
            assert np.array_equal(f(view), ref[index]), f.__name__

    def test_special_values_behave_as_the_scipy_expression(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=np.float32)
        with np.errstate(invalid="ignore"):
            for out, ref in zip((T.gelu(x), T.gelu_grad(x)), scipy_gelu(x)):
                assert out.dtype == np.float32
                assert np.array_equal(out, ref, equal_nan=True)
                assert np.array_equal(np.signbit(out), np.signbit(ref))
            assert np.signbit(T.gelu(x)[1]) and T.gelu(x)[2] == np.inf and np.isnan(T.gelu(x)[4])

    def test_float64_is_the_scipy_expression_bit_for_bit(self):
        x = np.random.default_rng(14).standard_normal((3, 50, 7)) * 6
        value, grad = scipy_gelu(x)
        assert np.array_equal(T.gelu(x), value)
        assert np.array_equal(T.gelu_grad(x), grad)

    @pytest.mark.parametrize("fn", ["gelu", "gelu_grad", "gelu_backward"])
    def test_peak_memory_is_the_output_and_chunk_scratch(self, fn):
        x, g = np.random.default_rng(15).standard_normal((2, 3136, 288)).astype(np.float32)
        out, peak = traced_peak(lambda: T.gelu_grad(x, g) if fn == "gelu_backward" else getattr(T, fn)(x))
        assert peak <= 1.25 * out.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_incoming_gradient_folds_in_bit_for_bit(self, dtype):
        x, g = (np.random.default_rng(16).standard_normal((2, 3, T.CDF_CHUNK + 5)) * 4).astype(dtype)
        assert np.array_equal(T.gelu_grad(x, g), g * T.gelu_grad(x))


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
