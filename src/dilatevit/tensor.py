"""Dense tensor primitives every higher layer is built from.

A "tensor" throughout this library is a C-contiguous numpy array of float32
or float64; feature maps are channels-last ``[..., H, W, C]`` so a gathered
window of key vectors is one contiguous read per channel. Any leading axes
are batch axes: an op maps each leading index independently, and a kernel
gradient sums over them. All ops are pure functions of their inputs: no
hidden state, fixed reduction order, bit-identical results across runs and
thread counts.

dtype policy: float32 is the runtime default; float64 is used for oracle
comparisons and gradient checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .counting import add_macs
from .errors import NumericError, ShapeError

F32 = np.float32
F64 = np.float64

DTYPES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}
DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def as_tensor(x, dtype=None) -> np.ndarray:
    """Coerce ``x`` to a C-contiguous float32/float64 array.

    Rejects empty arrays (every extent must be >= 1) and non-float dtypes
    unless a target dtype is given.
    """
    arr = np.asarray(x)
    if dtype is not None:
        arr = arr.astype(DTYPES.get(dtype, dtype), copy=False)
    if arr.dtype not in DTYPE_NAMES:
        arr = arr.astype(np.float32)
    if arr.size == 0:
        raise ShapeError(f"tensor extents must all be >= 1, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def dtype_name(arr: np.ndarray) -> str:
    return DTYPE_NAMES[arr.dtype]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[..., m, n] = sum_k a[..., m, k] * b[..., k, n] on matrices or equal stacks, unbroadcast."""
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul expects matrices or equal stacks, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul dtype mismatch: {a.dtype} vs {b.dtype}")
    add_macs(math.prod(a.shape) * b.shape[-1])
    return a @ b


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (max-subtraction)."""
    if not np.isfinite(x).all():
        raise NumericError("softmax requires finite inputs")
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def layernorm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Per-token normalization over the last (channel) axis, then affine."""
    if x.shape[-1] != gamma.shape[-1] or x.shape[-1] != beta.shape[-1]:
        raise ShapeError(
            f"layernorm channel mismatch: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    if eps <= 0:
        raise ValueError(f"layernorm eps must be > 0, got {eps}")
    mean = np.mean(x, axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    return centered * inv * gamma + beta


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


def _horner(t2, coefs, out):
    """out = polynomial in t2 with coefficients highest degree first, in place."""
    np.multiply(t2, coefs[0], out=out)
    np.add(out, coefs[1], out=out)
    for c in coefs[2:]:
        np.multiply(out, t2, out=out)
        np.add(out, c, out=out)


def _cdf_chunks(x: np.ndarray, derivative: bool) -> np.ndarray:
    """float32 x * Phi(x), or Phi(x) + x * phi(x) if ``derivative``, in cache-sized
    chunks of in-place ufuncs; the output is the one full-size allocation."""
    out = np.empty(x.shape, dtype=F32)
    flat, oflat = x.reshape(-1), out.reshape(-1)
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
    return out


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU: x * Phi(x). No tanh approximation."""
    if x.dtype == F32:
        return _cdf_chunks(x, derivative=False)
    inv_sqrt2 = np.asarray(1.0 / math.sqrt(2.0), dtype=x.dtype)
    half = np.asarray(0.5, dtype=x.dtype)
    return x * half * (1.0 + erf(x * inv_sqrt2)).astype(x.dtype)


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx of exact GELU: Phi(x) + x * phi(x)."""
    if x.dtype == F32:
        return _cdf_chunks(x, derivative=True)
    inv_sqrt2 = np.asarray(1.0 / math.sqrt(2.0), dtype=x.dtype)
    phi = np.exp(-0.5 * x * x) * np.asarray(1.0 / math.sqrt(2.0 * math.pi), dtype=x.dtype)
    cdf = 0.5 * (1.0 + erf(x * inv_sqrt2)).astype(x.dtype)
    return cdf + x * phi


def conv_output_extent(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _check_conv_args(x, kernel, stride, zero_pad, groups):
    if x.ndim < 3 or kernel.ndim != 4:
        raise ShapeError(
            f"conv2d expects x [..., H,W,Cin] and kernel [kh,kw,Cin/groups,Cout], got {x.shape} and {kernel.shape}"
        )
    kh, kw, kc, cout = kernel.shape
    cin = x.shape[-1]
    if cin % groups != 0 or cout % groups != 0:
        raise ShapeError(
            f"conv2d channels not divisible by groups: Cin={cin}, Cout={cout}, groups={groups}"
        )
    if kc != cin // groups:
        raise ShapeError(
            f"conv2d kernel input channels {kc} != Cin/groups = {cin}//{groups}"
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


def pad_hw(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the H and W axes of x [..., H, W, C] by ``pad`` on each side."""
    return np.pad(x, ((0, 0),) * (x.ndim - 3) + ((pad, pad), (pad, pad), (0, 0)))


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Unfold x [..., H,W,C] into patches [..., H', W', kh*kw*C] (tap-major, ascending)."""
    h_out = conv_output_extent(x.shape[-3], kh, stride, pad)
    w_out = conv_output_extent(x.shape[-2], kw, stride, pad)
    lead, c = x.shape[:-3], x.shape[-1]
    xp = pad_hw(x, pad)
    cols = np.empty(lead + (h_out, w_out, kh * kw, c), dtype=x.dtype)
    for a in range(kh):
        for b in range(kw):
            cols[..., a * kw + b, :] = xp[
                ..., a : a + stride * h_out : stride, b : b + stride * w_out : stride, :
            ]
    return cols.reshape(lead + (h_out, w_out, kh * kw * c))


def col2im(
    cols: np.ndarray, h: int, w: int, c: int, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patches back to an [..., h,w,c] map.

    Accumulation runs in ascending (kh, kw) tap order; within one tap every
    target element receives exactly one contribution.
    """
    lead, h_out, w_out = cols.shape[:-3], cols.shape[-3], cols.shape[-2]
    cols4 = cols.reshape(lead + (h_out, w_out, kh * kw, c))
    xp = np.zeros(lead + (h + 2 * pad, w + 2 * pad, c), dtype=cols.dtype)
    for a in range(kh):
        for b in range(kw):
            xp[..., a : a + stride * h_out : stride, b : b + stride * w_out : stride, :] += cols4[
                ..., a * kw + b, :
            ]
    return xp[..., pad : pad + h, pad : pad + w, :]


def conv2d(
    x: np.ndarray,
    kernel: np.ndarray,
    stride: int = 1,
    zero_pad: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Cross-correlation of x [..., H,W,Cin] with kernel [kh,kw,Cin/groups,Cout].

    ``groups == Cin`` with ``Cout == Cin`` is the depth-wise case and takes a
    dedicated slice-accumulate path (no im2col materialization).
    """
    h_out, w_out = _check_conv_args(x, kernel, stride, zero_pad, groups)
    kh, kw, _, cout = kernel.shape
    lead, cin = x.shape[:-3], x.shape[-1]
    macs = math.prod(lead) * h_out * w_out * cout * kh * kw * (cin // groups)

    if groups == 1:
        add_macs(macs)
        cols = im2col(x, kh, kw, stride, zero_pad)
        kmat = kernel.reshape(kh * kw * cin, cout)
        out = cols.reshape(-1, kmat.shape[0]) @ kmat
        return out.reshape(lead + (h_out, w_out, cout))

    if groups == cin and cout == cin:
        add_macs(macs)
        xp = pad_hw(x, zero_pad)
        out = np.zeros(lead + (h_out, w_out, cout), dtype=x.dtype)
        for a in range(kh):
            for b in range(kw):
                out += (
                    xp[..., a : a + stride * h_out : stride, b : b + stride * w_out : stride, :]
                    * kernel[a, b, 0, :]
                )
        return out

    cg_in, cg_out = cin // groups, cout // groups
    out = np.empty(lead + (h_out, w_out, cout), dtype=x.dtype)
    for g in range(groups):  # each groups=1 call counts its own MACs
        out[..., g * cg_out : (g + 1) * cg_out] = conv2d(
            np.ascontiguousarray(x[..., g * cg_in : (g + 1) * cg_in]),
            kernel[:, :, :, g * cg_out : (g + 1) * cg_out],
            stride,
            zero_pad,
            groups=1,
        )
    return out


def conv2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    kernel: np.ndarray,
    stride: int,
    zero_pad: int,
    groups: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of :func:`conv2d` w.r.t. input and kernel (summed over leading axes)."""
    kh, kw, _, cout = kernel.shape
    h, w, cin = x.shape[-3:]
    h_out, w_out = grad_out.shape[-3], grad_out.shape[-2]

    if groups == 1:
        cols = im2col(x, kh, kw, stride, zero_pad)
        gmat = grad_out.reshape(-1, cout)
        grad_kernel = (cols.reshape(gmat.shape[0], -1).T @ gmat).reshape(kernel.shape)
        gcols = (gmat @ kernel.reshape(kh * kw * cin, cout).T).reshape(
            grad_out.shape[:-1] + (kh * kw * cin,)
        )
        grad_x = col2im(gcols, h, w, cin, kh, kw, stride, zero_pad)
        return grad_x, grad_kernel

    if groups == cin and cout == cin:
        xp = pad_hw(x, zero_pad)
        grad_xp = np.zeros_like(xp)
        grad_kernel = np.zeros_like(kernel)
        axes = tuple(range(x.ndim - 1))
        for a in range(kh):
            for b in range(kw):
                sl_h = slice(a, a + stride * h_out, stride)
                sl_w = slice(b, b + stride * w_out, stride)
                grad_kernel[a, b, 0, :] = np.sum(xp[..., sl_h, sl_w, :] * grad_out, axis=axes)
                grad_xp[..., sl_h, sl_w, :] += grad_out * kernel[a, b, 0, :]
        return grad_xp[..., zero_pad : zero_pad + h, zero_pad : zero_pad + w, :], grad_kernel

    cg_in, cg_out = cin // groups, cout // groups
    grad_x = np.empty_like(x)
    grad_kernel = np.empty_like(kernel)
    for g in range(groups):
        gx, gk = conv2d_backward(
            np.ascontiguousarray(grad_out[..., g * cg_out : (g + 1) * cg_out]),
            np.ascontiguousarray(x[..., g * cg_in : (g + 1) * cg_in]),
            kernel[:, :, :, g * cg_out : (g + 1) * cg_out],
            stride,
            zero_pad,
            groups=1,
        )
        grad_x[..., g * cg_in : (g + 1) * cg_in] = gx
        grad_kernel[:, :, :, g * cg_out : (g + 1) * cg_out] = gk
    return grad_x, grad_kernel
