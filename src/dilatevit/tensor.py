"""Dense tensor primitives every higher layer is built from.

A "tensor" throughout this library is a C-contiguous numpy array of float32
or float64; feature maps are channels-last ``[..., H, W, C]`` so a gathered
window of key vectors is one contiguous read per channel. Any leading axes
are batch axes: an op maps each leading index independently, and a kernel
gradient sums over them. All ops are pure functions of their inputs: no
hidden state, fixed reduction order, bit-identical results across runs at
one BLAS thread count. The library starts no thread of its own, but numpy's
OpenBLAS follows ``OPENBLAS_NUM_THREADS``, and its thread count changes how
products round.

dtype policy: float32 is the runtime default; float64 is used for oracle
comparisons and gradient checks.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import erf

from .counting import add_macs
from .errors import NumericError, ShapeError

F32 = np.float32

DTYPES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}
DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[..., m, n] = sum_k a[..., m, k] * b[..., k, n] on matrices or equal stacks, unbroadcast;
    written into ``out`` when given."""
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul expects matrices or equal stacks, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul dtype mismatch: {a.dtype} vs {b.dtype}")
    add_macs(math.prod(a.shape) * b.shape[-1])
    return np.matmul(a, b, out=out)


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax along the last axis (max-subtraction), in one output-sized
    buffer: ``out`` when given, which may be x itself. The finite check reads the row maxima
    (NaN, +inf) and the least element (-inf; 0 if x is empty), so it makes no map of x."""
    top = np.max(x, axis=-1, keepdims=True)
    if not (np.isfinite(top).all() and np.isfinite(x.min(initial=0))):
        raise NumericError("softmax requires finite inputs")
    e = np.subtract(x, top, out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def channel_sums(a: np.ndarray) -> np.ndarray:
    """Sum of a [..., C] over every leading axis, as one GEMV ``ones @ rows``: [C]."""
    rows = a.reshape(-1, a.shape[-1])
    return np.ones(rows.shape[0], dtype=a.dtype) @ rows


def _normalized_rows(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    """Token rows xhat [N, C] of x at zero mean and unit variance, their mean and their
    1/std [N, 1]. The channel mean is one GEMV against a 1/C vector and the variance one
    einsum row dot, so no numpy loop runs over a single token's C channels."""
    if x.shape[-1] != gamma.shape[-1] or x.shape[-1] != beta.shape[-1]:
        raise ShapeError(
            f"layernorm channel mismatch: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    if eps <= 0:
        raise ValueError(f"layernorm eps must be > 0, got {eps}")
    rows = x.reshape(-1, x.shape[-1])
    inv_c = np.full(rows.shape[1], 1.0 / rows.shape[1], dtype=x.dtype)
    mean = (rows @ inv_c)[:, None]
    xhat = rows - mean
    var = np.einsum("ij,ij->i", xhat, xhat) * inv_c[0]
    inv = (1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype)))[:, None]
    xhat *= inv
    return xhat, mean, inv


def layernorm_with_state(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5):
    """:func:`layernorm` and the state its backward needs: x itself and the mean and
    1/std [N, 1] of its rows, so a tape that keeps x keeps no map more."""
    xhat, mean, inv = _normalized_rows(x, gamma, beta, eps)
    xhat *= gamma
    xhat += beta
    return xhat.reshape(x.shape), (x, mean, inv)


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Per-token normalization over the last (channel) axis, then affine, in one map-sized buffer."""
    return layernorm_with_state(x, gamma, beta, eps)[0]


def layernorm_backward(
    grad_out: np.ndarray, state: tuple[np.ndarray, np.ndarray, np.ndarray], gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of :func:`layernorm` w.r.t. x, gamma and beta, from its forward state, in two
    map-sized buffers; the normalized rows are rebuilt bit for bit by the forward's own ops."""
    x, mean, inv = state
    xhat = x.reshape(-1, x.shape[-1]) - mean
    xhat *= inv
    g = grad_out.reshape(xhat.shape)
    inv_c = np.full(xhat.shape[1], 1.0 / xhat.shape[1], dtype=xhat.dtype)
    gx = g * xhat
    grad_gamma = channel_sums(gx)
    np.multiply(g, gamma, out=gx)
    mean_g = (gx @ inv_c)[:, None]
    mean_gx = (np.einsum("ij,ij->i", gx, xhat) * inv_c[0])[:, None]
    xhat *= mean_gx
    gx -= mean_g
    gx -= xhat
    gx *= inv
    return gx.reshape(grad_out.shape), grad_gamma, channel_sums(g)


# float32 GELU evaluates Phi(x) = (1 + erf(x / sqrt 2)) / 2 with the Eigen/XLA
# float rational erf: t = x / sqrt 2 is clamped to +-4 (erf rounds to +-1
# beyond, and the form gives exactly +-1 there), then an odd degree-13
# numerator t * P(t^2) is divided by an even degree-8 denominator Q(t^2),
# evaluated as P * (t / Q). P is halved (exact in binary), so that product is
# erf / 2, within 7.7 f32 ulp of float64 erf. Constants are 0-d arrays, which
# ufuncs take with less per-call overhead than scalars. float64 keeps scipy.
def _f32(*values):
    return tuple(np.array(v, dtype=F32) for v in values)


_ERF_HALF_P = _f32(*(c / 2 for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
    -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02,
)))
_ERF_Q = _f32(
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02,
)
_INV_SQRT2, _INV_SQRT_2PI, _FOUR, _MINUS_FOUR, _HALF, _MINUS_HALF = _f32(
    1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0 * math.pi), 4.0, -4.0, 0.5, -0.5
)
# float32 elements per pass: the x and output slices and two scratch rows
# (512 KB) stay in a core's L2 cache, and 27 ufunc calls cover 32 k elements.
CDF_CHUNK = 1 << 15
# Bytes of one block of a map-sized temporary (512 KB): the im2col columns a dense
# conv unfolds at once (tokenizer conv2 of a tiny@224 predict took 7.1-7.3 ms at
# every block size from 0.5 to 8 MB), and one MLP block's hidden map (it, its GELU
# output and scratch stay in a core's 2 MB L2 cache).
BLOCK_BYTES = 1 << 19
# Bytes of logits one group of global-attention heads holds (256 KB): one head at tiny@224
# stage 3 (2.49 ms; 3.31 ms all at once), all 24 at stage 4 (0.30 ms; 0.75 ms one by one).
MHSA_GROUP_BYTES = 1 << 18


def _horner(t2, coefs, out):
    """out = polynomial in t2 with coefficients highest degree first, in place."""
    np.multiply(t2, coefs[0], out=out)
    np.add(out, coefs[1], out=out)
    for c in coefs[2:]:
        np.multiply(out, t2, out=out)
        np.add(out, c, out=out)


def _cdf_chunks(x: np.ndarray, derivative: bool, grad_out: np.ndarray | None = None) -> np.ndarray:
    """float32 x * Phi(x), or (Phi(x) + x * phi(x)) * grad_out if ``derivative``
    (grad_out omitted: 1), in cache-sized chunks of in-place ufuncs; the output
    is the one full-size allocation."""
    out = np.empty(x.shape, dtype=F32)
    flat, oflat = x.reshape(-1), out.reshape(-1)
    gflat = None if grad_out is None else grad_out.reshape(-1)
    t, t2 = np.empty((2, min(CDF_CHUNK, flat.size)), dtype=F32)
    for s in range(0, flat.size, CDF_CHUNK):
        xs, cdf = flat[s : s + CDF_CHUNK], oflat[s : s + CDF_CHUNK]
        ts, t2s = t[: xs.size], t2[: xs.size]
        np.multiply(xs, _INV_SQRT2, out=ts)
        np.clip(ts, _MINUS_FOUR, _FOUR, out=ts)
        np.multiply(ts, ts, out=t2s)
        _horner(t2s, _ERF_Q, cdf)
        np.divide(ts, cdf, out=ts)
        _horner(t2s, _ERF_HALF_P, cdf)
        np.multiply(cdf, ts, out=cdf)
        np.add(cdf, _HALF, out=cdf)
        if not derivative:
            np.multiply(cdf, xs, out=cdf)
            continue
        np.multiply(xs, xs, out=ts)  # ts becomes x * phi(x)
        np.multiply(ts, _MINUS_HALF, out=ts)
        np.exp(ts, out=ts)
        np.multiply(ts, _INV_SQRT_2PI, out=ts)
        np.multiply(ts, xs, out=ts)
        np.add(cdf, ts, out=cdf)
        if gflat is not None:
            np.multiply(cdf, gflat[s : s + CDF_CHUNK], out=cdf)
    return out


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU: x * Phi(x). No tanh approximation."""
    if x.dtype == F32:
        return _cdf_chunks(x, derivative=False)
    inv_sqrt2 = np.asarray(1.0 / math.sqrt(2.0), dtype=x.dtype)
    half = np.asarray(0.5, dtype=x.dtype)
    return x * half * (1.0 + erf(x * inv_sqrt2)).astype(x.dtype)


def gelu_grad(x: np.ndarray, grad_out: np.ndarray | None = None) -> np.ndarray:
    """d/dx of exact GELU, Phi(x) + x * phi(x); times ``grad_out`` when given, which
    is the backward pass of :func:`gelu` with no second full-size array."""
    if grad_out is not None and grad_out.shape != x.shape:
        raise ShapeError(f"gelu_grad: grad_out shape {grad_out.shape} != x shape {x.shape}")
    if x.dtype == F32:
        return _cdf_chunks(x, derivative=True, grad_out=grad_out)
    inv_sqrt2 = np.asarray(1.0 / math.sqrt(2.0), dtype=x.dtype)
    phi = np.exp(-0.5 * x * x) * np.asarray(1.0 / math.sqrt(2.0 * math.pi), dtype=x.dtype)
    cdf = 0.5 * (1.0 + erf(x * inv_sqrt2)).astype(x.dtype)
    return cdf + x * phi if grad_out is None else grad_out * (cdf + x * phi)


def conv_output_extent(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _check_conv_args(x, kernel, stride, zero_pad):
    if x.ndim < 3 or kernel.ndim != 4:
        raise ShapeError(
            f"conv2d expects x [..., H,W,Cin] and kernel [kh,kw,Cin,Cout] or [kh,kw,1,Cin], got {x.shape} and {kernel.shape}"
        )
    (kh, kw, kc, cout), cin = kernel.shape, x.shape[-1]
    if kc != cin and not (kc == 1 and cout == cin):
        raise ShapeError(
            f"conv2d kernel must be dense [kh,kw,Cin,Cout] or depth-wise [kh,kw,1,Cin], "
            f"got Cin={cin} and kernel {kernel.shape}"
        )
    if stride < 1 or zero_pad < 0:
        raise ValueError(f"conv2d stride must be >= 1 and pad >= 0, got {stride}, {zero_pad}")
    h_out = conv_output_extent(x.shape[-3], kh, stride, zero_pad)
    w_out = conv_output_extent(x.shape[-2], kw, stride, zero_pad)
    if h_out < 1 or w_out < 1:
        raise ShapeError(
            f"conv2d output would be empty: input {x.shape}, kernel {kernel.shape}, stride {stride}, pad {zero_pad}"
        )
    return h_out, w_out


def _padded_rows(x: np.ndarray, top: int, bottom: int, pw: int) -> np.ndarray:
    """Rows [top, bottom) of x [..., H, W, C] as if its H axis were zero-padded
    without end, each with ``pw`` zero columns on either side."""
    h, w = x.shape[-3:-1]
    lo, hi = (min(max(r, 0), h) for r in (top, bottom))
    out = np.zeros(x.shape[:-3] + (bottom - top, w + 2 * pw, x.shape[-1]), dtype=x.dtype)
    out[..., lo - top : hi - top, pw : pw + w, :] = x[..., lo:hi, :, :]
    return out


# The tap engine of every windowed op: tap (a, b) of a kh x kw kernel at ``stride`` and ``dilation``
# over a map zero-padded by ``pad`` reads (i*stride + a*dilation - pad, j*stride + b*dilation - pad)
# for output (i, j), a zero off the map, so its reads on the map are one rectangle, read in place.
# A conv's taps are its kernel entries; a dilated window's are its w*w keys r apart.


def _axis_spans(n: int, k: int, stride: int, pad: int, dilation: int) -> dict:
    """{a: (outputs, reads)} for each tap a whose reads along an axis of extent n lie in [0, n)."""
    n_out, spans = conv_output_extent(n, dilation * (k - 1) + 1, stride, pad), {}
    for a in range(k):
        first = a * dilation - pad  # the index output 0 reads
        lo, hi = max(0, -(first // stride)), min(n_out, (n - 1 - first) // stride + 1)
        if lo < hi:
            spans[a] = slice(lo, hi), slice(lo * stride + first, (hi - 1) * stride + first + 1, stride)
    return spans


def tap_rects(h: int, w: int, kh: int, kw: int, stride: int = 1, pad: int = 0, dilation: int = 1,
              pad_w: int | None = None) -> list:
    """(t, out, inp) for each tap t that reads an [..., H, W, C] map padded by ``pad`` rows and
    ``pad_w`` (default ``pad``) columns, either of which may be negative: basic slices of the
    outputs whose read lies on the map, and of those reads."""
    cols = _axis_spans(w, kw, stride, pad if pad_w is None else pad_w, dilation)
    return [(a * kw + b, (..., ro, co, slice(None)), (..., ri, ci, slice(None)))
            for a, (ro, ri) in _axis_spans(h, kh, stride, pad, dilation).items() for b, (co, ci) in cols.items()]


def _tap_products(x: np.ndarray, weights, rects: list, scratch: np.ndarray):
    """Each tap t in order, once ``scratch`` holds window_t(x) * weights[t], zero off its rectangle."""
    for t, o, i in rects:
        np.multiply(x[i], weights[t][o], out=scratch[o])
        _, r, c, _ = o
        scratch[..., : r.start, :, :] = scratch[..., r.stop :, :, :] = 0
        scratch[..., r, : c.start, :] = scratch[..., r, c.stop :, :] = 0
        yield t


def tap_sum(x: np.ndarray, weights, rects: list, shape: tuple) -> np.ndarray:
    """sum_t window_t(x) * weights[t] in tap order into zeros of ``shape``, each add one whole pass."""
    out, scratch = np.zeros(shape, dtype=x.dtype), np.empty(shape, dtype=x.dtype)
    for _ in _tap_products(x, weights, rects, scratch):
        out += scratch
    return out


def scatter_taps(part, rects: list, shape: tuple, dtype) -> np.ndarray:
    """Adjoint of the windows: adds each tap's part(t, out) where it reads, in tap order, into zeros of ``shape``."""
    grad = np.zeros(shape, dtype=dtype)
    for t, o, i in rects:
        grad[i] += part(t, o)
    return grad


def im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Unfold x [..., H,W,C] into patches [..., H', W', kh*kw*C] (tap-major,
    ascending), as one copy of a strided view of its windows."""
    h_out = conv_output_extent(x.shape[-3], kh, stride, 0)
    w_out = conv_output_extent(x.shape[-2], kw, stride, 0)
    lead, (sh, sw, sc) = x.shape[:-3], x.strides[-3:]
    win = as_strided(
        x,
        lead + (h_out, w_out, kh, kw, x.shape[-1]),
        x.strides[:-3] + (stride * sh, stride * sw, sh, sw, sc),
        writeable=False,
    )
    return win.reshape(lead + (h_out, w_out, -1))


def _tap_rows(kernel: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
    """[kh*kw, H', W', C]: each tap's entry of a depth-wise kernel [kh,kw,1,C] repeated along a row,
    so its product with a tap rectangle runs a row's width times C long instead of C long per pixel."""
    kh, kw, _, c = kernel.shape
    return np.broadcast_to(np.repeat(kernel.reshape(kh * kw, 1, 1, c), w_out, axis=2), (kh * kw, h_out, w_out, c))


def _column_blocks(x: np.ndarray, kh: int, kw: int, stride: int, ph: int, pw: int):
    """(where, cols) for each block of output rows of a dense conv over x [..., H,W,C]
    zero-padded by ph rows and pw columns a side: the block's index into the output
    viewed as [images, H', W', *] and its im2col columns [..., rows, W', kh*kw*C].
    A block is as many whole images as fit BLOCK_BYTES of columns, so a map
    whose columns fit runs as one block, or else as many of one image's output rows
    as fit. A block zero-pads only the input rows it unfolds. Drop cols before the
    next block to keep one alive."""
    h, w, c = x.shape[-3:]
    h_out = conv_output_extent(h, kh, stride, ph)
    row_bytes = conv_output_extent(w, kw, stride, pw) * kh * kw * c * x.itemsize  # one image, one output row
    images = x.reshape((-1, h, w, c))
    if h_out * row_bytes <= BLOCK_BYTES:  # whole images per block
        n = BLOCK_BYTES // (h_out * row_bytes)
        blocks = [(slice(i, i + n), 0, h_out) for i in range(0, len(images), n)]
    else:
        step = max(1, BLOCK_BYTES // row_bytes)
        blocks = [(i, r, min(r + step, h_out)) for i in range(len(images)) for r in range(0, h_out, step)]
    for i, first, stop in blocks:
        top, bottom = first * stride - ph, (stop - 1) * stride + kh - ph  # the padded rows it reads
        yield (i, slice(first, stop)), im2col(_padded_rows(images[i], top, bottom, pw), kh, kw, stride)


def _dense_correlate(x: np.ndarray, kernel: np.ndarray, stride: int, ph: int, pw: int) -> np.ndarray:
    """Cross-correlation of x [..., H,W,Cin], zero-padded by ph rows and pw columns,
    with a dense kernel [kh,kw,Cin,Cout], one block of im2col columns at a time
    into one output; counts no MACs. Blocks change only the GEMM's M extent,
    though BLAS may round a short block's rows unlike the same rows of a long one."""
    kh, kw, _, cout = kernel.shape
    h_out = conv_output_extent(x.shape[-3], kh, stride, ph)
    w_out = conv_output_extent(x.shape[-2], kw, stride, pw)
    out, kmat = None, kernel.reshape(-1, cout)
    for where, cols in _column_blocks(x, kh, kw, stride, ph, pw):
        if out is None:  # made once the first block's padded rows are freed
            out = np.empty(x.shape[:-3] + (h_out, w_out, cout), dtype=x.dtype)
            images = out.reshape(-1, h_out, w_out, cout)
        np.matmul(cols.reshape(-1, kmat.shape[0]), kmat, out=images[where].reshape(-1, cout))
        del cols  # one block's columns alive at a time
    return out


def conv2d(x: np.ndarray, kernel: np.ndarray, stride: int = 1, zero_pad: int = 0) -> np.ndarray:
    """Cross-correlation of x [..., H,W,Cin] with a kernel whose shape sets the kind:
    dense [kh,kw,Cin,Cout], or depth-wise [kh,kw,1,C] on C > 1 channels.

    A depth-wise conv is a :func:`tap_sum` over its taps' rectangles (no im2col
    materialization, no padded copy). A dense conv unfolds at most BLOCK_BYTES of
    columns at once, whatever the map size, and pads no more than the rows
    they read.
    """
    h_out, w_out = _check_conv_args(x, kernel, stride, zero_pad)
    kh, kw, kc, cout = kernel.shape
    add_macs(math.prod(x.shape[:-3]) * h_out * w_out * cout * kh * kw * kc)
    if kc < x.shape[-1]:  # depth-wise
        rects = tap_rects(*x.shape[-3:-1], kh, kw, stride, zero_pad)
        return tap_sum(x, _tap_rows(kernel, h_out, w_out), rects, x.shape[:-3] + (h_out, w_out, cout))
    return _dense_correlate(x, kernel, stride, zero_pad, zero_pad)


def conv2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    kernel: np.ndarray,
    stride: int,
    zero_pad: int,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of :func:`conv2d` w.r.t. input and kernel (summed over leading axes).

    At stride 1 the input gradient is the correlation of grad_out, padded by
    k - 1 - zero_pad (cropped where that is negative), with the flipped
    kernel. Strided convs scatter each tap's contribution through
    :func:`scatter_taps` instead. With ``input_grad=False`` the input gradient
    is skipped and returned as None. A dense kernel gradient sums
    ``cols.T @ grad_out`` over the forward's row blocks, so it too unfolds at
    most BLOCK_BYTES of columns at once, and the dense stride-1 input
    gradient runs through the same blocks: neither x nor grad_out is copied whole.
    """
    kh, kw, kc, cout = kernel.shape
    h, w, cin = x.shape[-3:]
    h_out, w_out = grad_out.shape[-3:-1]
    depthwise = kc < cin
    rects = tap_rects(h, w, kh, kw, stride, zero_pad)

    if depthwise:
        grad_kernel = np.zeros_like(kernel)
        per_tap, scratch = grad_kernel.reshape(kh * kw, cin), np.empty_like(grad_out)
        for t in _tap_products(x, [grad_out] * (kh * kw), rects, scratch):
            per_tap[t] = channel_sums(scratch)  # every row: a GEMV rounds by its row count
    else:  # summed over the forward's blocks of columns
        kmat = np.zeros((kh * kw * cin, cout), dtype=x.dtype)
        images = grad_out.reshape((-1,) + grad_out.shape[-3:])
        for where, cols in _column_blocks(x, kh, kw, stride, zero_pad, zero_pad):
            kmat += cols.reshape(-1, kmat.shape[0]).T @ images[where].reshape(-1, cout)
            del cols
        grad_kernel = kmat.reshape(kernel.shape)
    if not input_grad:
        return None, grad_kernel

    ph, pw = kh - 1 - zero_pad, kw - 1 - zero_pad
    if stride == 1 and depthwise:
        del scratch
        rects = tap_rects(h_out, w_out, kh, kw, pad=ph, pad_w=pw)  # the flipped kernel's, over grad_out
        return tap_sum(grad_out, _tap_rows(kernel[::-1, ::-1], h, w), rects, x.shape), grad_kernel
    if stride == 1:
        g = grad_out[..., max(-ph, 0) : h_out - max(-ph, 0), max(-pw, 0) : w_out - max(-pw, 0), :]
        return _dense_correlate(g, kernel[::-1, ::-1].swapaxes(2, 3), 1, max(ph, 0), max(pw, 0)), grad_kernel

    if depthwise:
        rows = _tap_rows(kernel, h_out, w_out)
        part = lambda t, o: np.multiply(grad_out[o], rows[t][o], out=scratch[o])  # noqa: E731
    else:  # one GEMM for every tap's columns, [..., H', W', kh*kw, Cin]
        gcols = (grad_out.reshape(-1, cout) @ kernel.reshape(-1, cout).T).reshape(grad_out.shape[:-1] + (kh * kw, cin))
        part = lambda t, o: gcols[..., t, :][o]  # noqa: E731
    return scatter_taps(part, rects, x.shape, x.dtype), grad_kernel
