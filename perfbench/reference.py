"""Float64 references the benchmark checks the program's outputs against.

Written from the layout the repository README documents, with plain numpy
and ``scipy.special.erf``; nothing here calls a ``dilatevit`` kernel. The
config object is read only for its fields.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5


def _conv3x3(x, kernel, bias, stride, depthwise=False):
    """3x3 cross-correlation with zero padding 1: x [H,W,Cin] -> [H',W',Cout]."""
    h, w, _ = x.shape
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.zeros((ho, wo, kernel.shape[-1]))
    for a in range(3):
        for b in range(3):
            patch = xp[a : a + stride * ho : stride, b : b + stride * wo : stride, :]
            out += patch * kernel[a, b, 0] if depthwise else patch @ kernel[a, b]
    return out + bias


def _layernorm(x, gamma, beta):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * gamma + beta


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _window_attention(q, k, v, w, r):
    """Each query attends to the w*w taps (i+p*r, j+q*r); off-map taps are zero keys and values."""
    h, wd, d = q.shape
    m = (w - 1) // 2 * r
    kp = np.pad(k, ((m, m), (m, m), (0, 0)))
    vp = np.pad(v, ((m, m), (m, m), (0, 0)))
    offsets = [(p * r + m, s * r + m) for p in range(-(w // 2), w // 2 + 1) for s in range(-(w // 2), w // 2 + 1)]
    keys = np.stack([kp[a : a + h, b : b + wd] for a, b in offsets], axis=2)
    values = np.stack([vp[a : a + h, b : b + wd] for a, b in offsets], axis=2)
    weights = _softmax(np.einsum("hwd,hwtd->hwt", q, keys) / math.sqrt(d))
    return np.einsum("hwt,hwtd->hwd", weights, values)


def _global_attention(q, k, v):
    d = q.shape[-1]
    return _softmax(q @ k.T / math.sqrt(d)) @ v


def _block(x, p, pre, stage):
    h, w, dim = x.shape
    x = x + _conv3x3(x, p[f"{pre}.cpe.weight"], p[f"{pre}.cpe.bias"], 1, depthwise=True)
    t = _layernorm(x, p[f"{pre}.norm1.gamma"], p[f"{pre}.norm1.beta"])
    qkv = t @ p[f"{pre}.qkv.weight"] + p.get(f"{pre}.qkv.bias", 0.0)
    q, k, v = qkv[..., :dim], qkv[..., dim : 2 * dim], qkv[..., 2 * dim :]
    dk = dim // stage.n_heads
    heads = []
    for i in range(stage.n_heads):
        sl = slice(i * dk, (i + 1) * dk)
        if stage.kind == "D":
            rate = stage.dilation_rates[i % len(stage.dilation_rates)]
            heads.append(_window_attention(q[..., sl], k[..., sl], v[..., sl], stage.kernel_w, rate))
        else:
            flat = [a[..., sl].reshape(h * w, dk) for a in (q, k, v)]
            heads.append(_global_attention(*flat).reshape(h, w, dk))
    x = x + np.concatenate(heads, axis=-1) @ p[f"{pre}.proj.weight"] + p[f"{pre}.proj.bias"]
    t = _layernorm(x, p[f"{pre}.norm2.gamma"], p[f"{pre}.norm2.beta"])
    t = _gelu(t @ p[f"{pre}.mlp.fc1.weight"] + p[f"{pre}.mlp.fc1.bias"])
    return x + t @ p[f"{pre}.mlp.fc2.weight"] + p[f"{pre}.mlp.fc2.bias"]


def forward_f64(config, params: dict[str, np.ndarray], image: np.ndarray) -> np.ndarray:
    """Logits of one [S, S, C] image, every step in float64."""
    p = {name: np.asarray(value, dtype=np.float64) for name, value in params.items()}
    x = np.asarray(image, dtype=np.float64)
    for i, stride in enumerate((2, 1, 2, 1), start=1):
        x = _conv3x3(x, p[f"tokenizer.conv{i}.weight"], p[f"tokenizer.conv{i}.bias"], stride)
        if i < 4:
            x = _gelu(_layernorm(x, p[f"tokenizer.norm{i}.gamma"], p[f"tokenizer.norm{i}.beta"]))
    for s, stage in enumerate(config.stages, start=1):
        for b in range(stage.depth):
            x = _block(x, p, f"stage{s}.block{b}", stage)
        if s < 4:
            x = _conv3x3(x, p[f"downsample{s}.weight"], p[f"downsample{s}.bias"], 2)
    x = _layernorm(x, p["head.norm.gamma"], p["head.norm.beta"]).mean(axis=(0, 1))
    return x @ p["head.fc.weight"] + p["head.fc.bias"]


def tap_space_stats(weights, rate, w, radii, threshold):
    """Attention statistics of one windowed head from its [H, W, w*w] tap weights.

    An in-bounds tap (p, q) lies at Chebyshev distance max(|p|, |q|) * rate
    from its query, so no [N, N] matrix is needed. Off-map taps are dropped
    and each row renormalised, as the dense path does for zero_pad weights.
    Returns {(radius_or_threshold, metric): mean over queries}.
    """
    h, wd, _ = weights.shape
    half = w // 2
    offsets = np.array([(p, q) for p in range(-half, half + 1) for q in range(-half, half + 1)])
    ki = np.arange(h)[:, None, None] + offsets[:, 0] * rate
    kj = np.arange(wd)[None, :, None] + offsets[:, 1] * rate
    inside = (ki >= 0) & (ki < h) & (kj >= 0) & (kj < wd)
    a = np.where(inside, np.asarray(weights, dtype=np.float64), 0.0)
    a /= a.sum(axis=-1, keepdims=True)
    dist = np.abs(offsets).max(axis=1) * rate
    out = {(str(r), "locality_mass"): float((a * (dist <= r)).sum(axis=-1).mean()) for r in radii}
    t = str(threshold)
    logs = np.log(np.where(a > 0, a, 1.0))
    out[(t, "active_keys")] = float((a > threshold).sum(axis=-1).mean())
    out[(t, "participation_ratio")] = float((1.0 / (a * a).sum(axis=-1)).mean())
    out[(t, "entropy_nats")] = float((-(a * logs).sum(axis=-1)).mean())
    return out
