"""Reverse-mode autodiff on a linear tape.

Nodes are appended in creation order, which is already a topological order,
so backward is a single reverse sweep. Each op stores a closure that maps the
incoming gradient to per-parent gradients; gradient accumulation follows node
order, so two backward passes from the same forward state are bit-identical.
The sweep frees inner gradients as it goes and returns leaf and parameter ones,
which :func:`accumulate_param_grads` adopts, so a step holds each gradient once.
A :class:`NoRecordTape` runs the same ops for inference and keeps nothing.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import swda as _swda
from . import tensor as T
from .errors import ContractError, DeterminismError, NumericError, ShapeError, ValidationError


class AttentionSink(Protocol):
    """Receives each attention head's weights as its op computes them: a list keeps
    them, a consumer can reduce each one and drop it. They are not copies: a sink must not write them."""

    def append(self, head: tuple[str, _swda.SwdaConfig | None, np.ndarray]) -> None:
        """``(layer, cfg, weights)``: a windowed head's tap-order ``[H, W, w*w]`` weights
        with its config, or a global head's ``[N, N]`` weights with ``cfg=None``."""


class Node:
    """One recorded value: the forward array plus how to push gradients back."""

    __slots__ = ("data", "id", "parents", "backward_fn")

    def __init__(self, data, node_id, parents=(), backward_fn=None):
        self.data = data
        self.id = node_id
        self.parents = parents
        self.backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape


class Parameter:
    """A named trainable tensor and its gradient, which :func:`zero_grads` drops and
    :func:`accumulate_param_grads` adopts from backward; read while dropped, it becomes zeros."""

    def __init__(self, name: str, value: np.ndarray, grad: np.ndarray | None = None):
        self.name, self.value, self._grad = name, value, None
        if grad is not None:
            self.grad = grad

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, grad: np.ndarray) -> None:
        if grad.shape != self.value.shape or grad.dtype != self.value.dtype:
            raise ShapeError(
                f"parameter {self.name}: grad shape {grad.shape} {grad.dtype} != value {self.value.shape} {self.value.dtype}"
            )
        self._grad = grad


class Tape:
    """Ordered record of one forward computation."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.param_nodes: dict[int, Parameter] = {}

    def record(self, data, parents=(), backward_fn=None) -> Node:
        node = Node(data, len(self.nodes), parents, backward_fn)
        self.nodes.append(node)
        return node

    def leaf(self, array) -> Node:
        return self.record(np.asarray(array))

    def param(self, parameter: Parameter) -> Node:
        node = self.record(parameter.value)
        self.param_nodes[node.id] = parameter
        return node


class NoRecordTape(Tape):
    """Forward-only tape: nodes carry no parents or closures and nothing is kept,
    so each intermediate is freed once its last consumer has run. An op's output
    (id -1) is spare: a later op that its caller gives it up to may write over it.
    A leaf or parameter (id -2) is never written."""

    def record(self, data, parents=(), backward_fn=None) -> Node:
        return Node(data, -1)

    def leaf(self, array) -> Node:
        return Node(np.asarray(array), -2)

    def param(self, parameter: Parameter) -> Node:
        return Node(parameter.value, -2)


def backward(tape: Tape, loss: Node) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss w.r.t. reachable leaves and parameters; inner ones are freed."""
    if isinstance(tape, NoRecordTape):
        raise ContractError("backward needs a recording Tape, not a NoRecordTape")
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {loss.id: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = None if node.backward_fn is None else grads.pop(node.id, None)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            if pg is None:
                continue
            acc = grads.get(parent.id)
            grads[parent.id] = pg if acc is None else acc + pg
    return grads


def accumulate_param_grads(tape: Tape, grads: dict[int, np.ndarray]) -> None:
    """Add node gradients into the bound Parameters; unreachable ones stay put. A dropped
    gradient adopts its node's array, or a copy if another parameter holds it (``graph.add``
    gives both parents one); a held one is summed out of place, so ``grads`` is not written."""
    adopted = set()  # ids of the arrays in grads that a parameter holds
    for node_id, param in tape.param_nodes.items():
        g = grads.get(node_id)
        if g is not None and param._grad is not None:
            param.grad = param._grad + g
        elif g is not None:
            param.grad = g.copy() if id(g) in adopted else g
            adopted.add(id(g))


def zero_grads(params) -> None:
    """Drops each parameter's gradient, which then reads as zeros until a backward's is adopted."""
    for p in _iter_params(params):
        p._grad = None


def sgd_step(params, lr: float, weight_decay: float = 0.0) -> None:
    """Plain SGD with decoupled weight decay: theta -= lr * (grad + wd * theta)."""
    for p in _iter_params(params):
        p.value -= lr * (p.grad + weight_decay * p.value)


def _iter_params(params):
    if isinstance(params, dict):
        return params.values()
    return params


# ---------------------------------------------------------------------------
# Ops. Each takes/returns Nodes on one tape; forward math lives in tensor.py.
# ---------------------------------------------------------------------------


class graph:
    """Builds nodes on one tape without threading it through every call.

    Thin convenience: ``g = graph(tape); y = g.add(a, b)``. An ``attn_sink`` gets
    every attention head's weights as ``swda`` and ``mhsa`` compute them.
    """

    def __init__(self, tape: Tape, attn_sink: AttentionSink | None = None):
        self.tape, self.attn_sink = tape, attn_sink
        self.recording = not isinstance(tape, NoRecordTape)

    def leaf(self, array) -> Node:
        return self.tape.leaf(array)

    def param(self, parameter: Parameter) -> Node:
        return self.tape.param(parameter)

    def add(self, a: Node, b: Node) -> Node:
        """a + b; a spare b (see NoRecordTape) takes the sum in its buffer."""
        if a.data.shape != b.data.shape:
            raise ShapeError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
        if b.id == -1:
            b.data += a.data
            return self.tape.record(b.data)
        return self.tape.record(a.data + b.data, (a, b), lambda g: (g, g))

    def mul(self, a: Node, b: Node) -> Node:
        if a.data.shape != b.data.shape:
            raise ShapeError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
        return self.tape.record(
            a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data)
        )

    def conv2d(self, x: Node, kernel: Node, bias: Node, stride=1, zero_pad=0) -> Node:
        """T.conv2d of x plus a [Cout] bias, as one node; the kernel's shape sets dense or depth-wise."""
        out = T.conv2d(x.data, kernel.data, stride, zero_pad)
        if bias.data.shape != out.shape[-1:]:
            raise ShapeError(f"bias shape {bias.data.shape} incompatible with {out.shape}")
        out += bias.data
        input_grad = x.backward_fn is not None or x.id in self.tape.param_nodes  # not the image

        def back(g):
            grad_x, grad_kernel = T.conv2d_backward(g, x.data, kernel.data, stride, zero_pad, input_grad)
            return grad_x, grad_kernel, T.channel_sums(g)

        return self.tape.record(out, (x, kernel, bias), back)

    def layernorm(self, x: Node, gamma: Node, beta: Node, eps: float = 1e-5) -> Node:
        """T.layernorm on either tape; a NoRecordTape drops the closure and its (x, mean, 1/std)."""
        out, state = T.layernorm_with_state(x.data, gamma.data, beta.data, eps)
        return self.tape.record(
            out, (x, gamma, beta), lambda g: T.layernorm_backward(g, state, gamma.data)
        )

    def gelu(self, x: Node) -> Node:
        return self.tape.record(
            T.gelu(x.data), (x,), lambda g: (T.gelu_grad(x.data, g),)
        )

    def swda(self, qkv: Node, cfgs: tuple[_swda.SwdaConfig, ...], layer: str = "") -> Node:
        """Dilated window attention on a fused [..., 3C] q|k|v node, C = len(cfgs) * d_k.

        Head i runs cfgs[i] on views of channels [i*d_k, (i+1)*d_k) of each C-wide
        third and writes them to the same channels of the [..., C] output, which over
        a spare qkv is a view of its q channels, each written once its head has run.
        The ``attn_sink`` gets ``append((f"{layer}.head{i}", cfgs[i], weights))`` as each
        head runs, with its ``[H, W, w*w]`` weights, which a recording tape keeps.
        """
        d_k, C = cfgs[0].d_k, len(cfgs) * cfgs[0].d_k
        if qkv.data.shape[-1] != 3 * C:
            raise ShapeError(f"{qkv.data.shape[-1]} channels != 3 x {len(cfgs)} heads of d_k {d_k}")
        if self.attn_sink is not None and qkv.data.ndim != 3:
            raise ContractError(f"an attention sink needs one [H, W, 3C] map, got {qkv.data.shape}")

        def channels(i, j=0):  # head i's channels in the j-th C-wide third
            return (..., slice(j * C + i * d_k, j * C + (i + 1) * d_k))

        out = qkv.data if qkv.id == -1 else np.empty(qkv.data.shape[:-1] + (C,), dtype=qkv.data.dtype)
        states = []  # a NoRecordTape keeps no head's state
        for i, cfg in enumerate(cfgs):
            q, k, v = (qkv.data[channels(i, j)] for j in range(3))
            out[channels(i)], state = _swda.swda_forward_with_state(q, k, v, cfg)
            if self.attn_sink is not None:
                self.attn_sink.append((f"{layer}.head{i}", cfg, state.weights))
            if self.recording:
                states.append(state)
            del state  # before the next head runs

        def back(g):
            grad = np.empty_like(qkv.data)
            for i, state in enumerate(states):
                for j, part in enumerate(_swda.swda_backward(g[channels(i)], state)):
                    grad[channels(i, j)] = part
            return (grad,)

        return self.tape.record(out[..., :C], (qkv,), back)

    def mhsa(self, qkv: Node, n_heads: int, layer: str = "") -> Node:
        """Global attention over all N = H*W tokens of a fused [..., H, W, 3C] q|k|v node.

        Head i reads channels [i*d_k, (i+1)*d_k) of each C-wide third, d_k = C / n_heads,
        and writes the same channels of the [..., H, W, C] output. Heads run in groups whose
        logits fit T.MHSA_GROUP_BYTES, each group's softmax in place in its logits; no tape keeps
        them, as the backward recomputes each group's weights with the same ops. The ``attn_sink``
        gets ``append((f"{layer}.head{i}", None, weights))`` per head, with its ``[N, N]`` weights.
        """
        if qkv.data.ndim < 3 or qkv.data.shape[-1] % (3 * n_heads):
            raise ShapeError(f"mhsa needs [..., H, W, 3C] with C a multiple of {n_heads} heads, got {qkv.data.shape}")
        lead, (h, w, c3) = qkv.data.shape[:-3], qkv.data.shape[-3:]
        if self.attn_sink is not None and lead:
            raise ContractError(f"an attention sink needs one [H, W, 3C] map, got {qkv.data.shape}")
        n, d_k = h * w, c3 // (3 * n_heads)
        parts = qkv.data.reshape(lead + (n, 3, n_heads, d_k))  # token, q|k|v, head, channel
        q, v = (np.ascontiguousarray(parts[..., j, :, :].swapaxes(-3, -2)) for j in (0, 2))  # [..., heads, N, d_k]
        k = np.ascontiguousarray(np.moveaxis(parts[..., 1, :, :], -3, -1))  # [..., heads, d_k, N]
        scale = np.asarray(1.0 / math.sqrt(d_k), dtype=qkv.data.dtype)
        step = max(1, T.MHSA_GROUP_BYTES // max(1, math.prod(lead) * n * n * qkv.data.itemsize))
        groups = [slice(first, first + step) for first in range(0, n_heads, step)]

        def weights_of(cols, matmul):
            """Softmax weights of the heads in ``cols``, [..., heads, N, N], in their logits' buffer."""
            logits = matmul(q[..., cols, :, :], k[..., cols, :, :])
            logits *= scale
            return T.softmax(logits, out=logits)

        out = np.empty(lead + (n, n_heads, d_k), dtype=qkv.data.dtype)
        for cols in groups:
            weights = weights_of(cols, T.matmul)
            if self.attn_sink is not None:
                for i, head in enumerate(weights, start=cols.start):
                    self.attn_sink.append((f"{layer}.head{i}", None, head))
            out[..., cols, :] = T.matmul(weights, v[..., cols, :, :]).swapaxes(-3, -2)
            del weights  # before the next group's logits

        def back(g):
            g_out = np.ascontiguousarray(g.reshape(lead + (n, n_heads, d_k)).swapaxes(-3, -2))
            grad = np.empty(qkv.data.shape, dtype=qkv.data.dtype)
            g_parts = grad.reshape(parts.shape)
            for cols in groups:  # np.matmul, so a recompute counts no MACs
                weights, g_o = weights_of(cols, np.matmul), g_out[..., cols, :, :]
                g_parts[..., 2, cols, :] = (weights.swapaxes(-1, -2) @ g_o).swapaxes(-3, -2)
                g_logits = g_o @ v[..., cols, :, :].swapaxes(-1, -2)
                g_logits -= np.sum(weights * g_logits, axis=-1, keepdims=True)
                g_logits *= weights
                g_logits *= scale
                g_parts[..., 0, cols, :] = (g_logits @ k[..., cols, :, :].swapaxes(-1, -2)).swapaxes(-3, -2)
                g_parts[..., 1, cols, :] = np.moveaxis(q[..., cols, :, :].swapaxes(-1, -2) @ g_logits, -1, -3)
                del weights, g_logits  # before the next group's weights
            return (grad,)

        return self.tape.record(out.reshape(lead + (h, w, c3 // 3)), (qkv,), back)

    def mlp(self, x: Node, weight: Callable[[str], Node]) -> Node:
        """fc2(gelu(fc1(x))) applied tokenwise to x [..., C], as one node. ``weight(name)``
        gives the nodes "fc1.weight" [C, D], "fc1.bias" [D], "fc2.weight" [D, C'] and
        "fc2.bias" [C'], and is asked for fc2 only once fc1 has run.

        Token rows run in blocks whose [rows, D] hidden map fits T.BLOCK_BYTES, and each
        block's fc2 product is written into one [..., C'] output. When all rows fit one
        block, fc1's nodes are dropped before fc2's are looked up, so a lazy weight mapping
        never holds both. A recording tape keeps only the fc1 pre-activation; the backward
        recomputes GELU from it.
        """
        flat = x.data.reshape(-1, x.data.shape[-1])
        fc1 = _dense_layer(weight, "fc1")
        rows, hidden = flat.shape[0], fc1[0].data.shape[1]
        step = max(1, T.BLOCK_BYTES // (hidden * flat.itemsize))
        pre = np.empty((rows, hidden), dtype=flat.dtype) if self.recording else None

        def activation(r):
            """GELU of fc1 on rows [r, r + step); a recording tape keeps the pre-activation."""
            h = T.matmul(flat[r : r + step], fc1[0].data, out=None if pre is None else pre[r : r + step])
            h += fc1[1].data
            return T.gelu(h)

        act = activation(0)
        parents = (x, *fc1) if self.recording else ()
        if step >= rows:
            del fc1  # no block is left, so a NoRecordTape frees fc1's weight before fc2's is read
        fc2 = _dense_layer(weight, "fc2")
        parents += fc2
        out = np.empty((rows, fc2[0].data.shape[1]), dtype=flat.dtype)
        for r in range(0, rows, step):
            if r:
                act = activation(r)
            block = out[r : r + step]
            T.matmul(act, fc2[0].data, out=block)
            block += fc2[1].data

        def back(g):
            w1, w2 = parents[1].data, parents[3].data
            gf = g.reshape(-1, g.shape[-1])
            act = T.gelu(pre)
            grad_w2 = act.T @ gf
            del act
            grad_h = T.gelu_grad(pre, gf @ w2.T)
            return ((grad_h @ w1.T).reshape(x.data.shape), flat.T @ grad_h, T.channel_sums(grad_h),
                    grad_w2, T.channel_sums(gf))

        return self.tape.record(out.reshape(x.data.shape[:-1] + out.shape[-1:]), parents, back)

    def sum_all(self, x: Node) -> Node:
        return self.tape.record(
            np.asarray(x.data.sum()),
            (x,),
            lambda g: (np.full(x.data.shape, g, dtype=x.data.dtype),),
        )

    def global_avg_pool(self, x: Node) -> Node:
        """[..., H, W, C] -> [..., C] mean over spatial positions."""
        if x.data.ndim < 3:
            raise ShapeError(f"global_avg_pool expects [..., H, W, C], got {x.data.shape}")
        h, w, _ = x.data.shape[-3:]
        inv = np.asarray(1.0 / (h * w), dtype=x.data.dtype)

        def back(g):
            spread = (g * inv)[..., None, None, :]
            return (np.broadcast_to(spread, x.data.shape).astype(x.data.dtype, copy=True),)

        return self.tape.record(x.data.mean(axis=(-3, -2)), (x,), back)

    def linear(self, x: Node, weight: Node, bias: Node | None = None) -> Node:
        """x[..., Cin] @ weight[Cin, Cout] (+ bias) applied tokenwise, as one node."""
        flat = x.data.reshape(-1, x.data.shape[-1])
        out = T.matmul(flat, weight.data)
        if bias is not None:
            if bias.data.shape != (out.shape[-1],):
                raise ShapeError(f"bias shape {bias.data.shape} incompatible with {out.shape}")
            out += bias.data

        def back(g):
            gf = g.reshape(-1, g.shape[-1])
            grads = ((gf @ weight.data.T).reshape(x.data.shape), flat.T @ gf)
            return grads if bias is None else grads + (T.channel_sums(gf),)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return self.tape.record(out.reshape(x.data.shape[:-1] + out.shape[-1:]), parents, back)

    def softmax_cross_entropy(self, logits: Node, labels) -> Node:
        """Mean over the leading axes of -log softmax(logits)[..., label] for logits [..., K];
        a label that is not an integer in [0, K) is a ValidationError, a non-finite loss
        a NumericError."""
        z, idx = logits.data, np.asarray(labels)[..., None]
        if z.ndim < 1 or idx.shape[:-1] != z.shape[:-1]:
            raise ShapeError(f"logits {z.shape} need one label per leading index, got {idx.shape[:-1]}")
        if idx.dtype.kind not in "iu":
            raise ValidationError(f"labels must be integers, got {idx.dtype}")
        if idx.size and not 0 <= idx.min() <= idx.max() < z.shape[-1]:
            raise ValidationError(f"labels must lie in [0, {z.shape[-1]}), got {idx.min()} to {idx.max()}")
        m = z.max(axis=-1, keepdims=True)
        lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
        loss = np.asarray(np.mean(lse - np.take_along_axis(z, idx, -1)), dtype=z.dtype)
        if not np.isfinite(loss):
            raise NumericError(f"cross-entropy loss is {float(loss)}")
        probs = np.exp(z - lse)

        def back(g):
            gz = probs.copy()
            np.put_along_axis(gz, idx, np.take_along_axis(gz, idx, -1) - 1.0, -1)
            return (gz * (g / idx.size),)

        return self.tape.record(loss, (logits,), back)


def _dense_layer(weight: Callable[[str], Node], name: str) -> tuple[Node, Node]:
    """The (weight [Cin, Cout], bias [Cout]) nodes of layer ``name``."""
    w, b = weight(f"{name}.weight"), weight(f"{name}.bias")
    if w.data.ndim != 2 or b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"{name}: weight {w.data.shape} and bias {b.data.shape} are not [Cin, Cout] and [Cout]")
    return w, b


# ---------------------------------------------------------------------------
# Finite-difference verification harness
# ---------------------------------------------------------------------------


@dataclass
class FdReport:
    max_rel: float
    worst_param: str


def _rel_err(a: float, b: float, floor: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def finite_diff_check(
    build_loss,
    params: dict[str, Parameter],
    h: float = 1e-5,
    budget: int = 64,
    seed: int = 0,
    rel_floor: float = 1e-2,
) -> FdReport:
    """Compare tape gradients against central finite differences.

    ``build_loss()`` must construct a fresh tape from the current parameter
    values and return ``(tape, loss_node)``. Up to ``budget`` elements per
    parameter are probed. Relative error uses ``|fd - an| / max(|fd|, |an|,
    rel_floor)`` so near-zero gradients do not produce spurious blowups.
    """
    if h <= 0:
        raise ContractError(f"step size must be > 0, got {h}")
    tape, loss = build_loss()
    first = float(loss.data)
    tape2, loss2 = build_loss()
    if float(loss2.data) != first:
        raise DeterminismError(
            f"loss function is not deterministic: {first!r} vs {float(loss2.data)!r}"
        )
    del tape2, loss2

    grads = backward(tape, loss)
    analytic = {}
    for node_id, param in tape.param_nodes.items():
        g = grads.get(node_id)
        analytic[param.name] = np.zeros_like(param.value) if g is None else g

    rng = np.random.default_rng(seed)
    report = FdReport(max_rel=0.0, worst_param="")
    for name in sorted(params):
        param = params[name]
        an = analytic.get(name)
        if an is None:
            continue
        n = param.value.size
        idx = np.arange(n) if n <= budget else np.sort(rng.choice(n, budget, replace=False))
        flat = param.value.reshape(-1)
        max_rel = 0.0
        for i in idx:
            keep = flat[i]
            flat[i] = keep + h
            _, lp = build_loss()
            flat[i] = keep - h
            _, lm = build_loss()
            flat[i] = keep
            fd = (float(lp.data) - float(lm.data)) / (2.0 * h)
            an_i = float(an.reshape(-1)[i])
            max_rel = max(max_rel, _rel_err(fd, an_i, rel_floor))
        if not report.worst_param or max_rel > report.max_rel:  # the first of equal worsts
            report.max_rel, report.worst_param = max_rel, name
    return report
