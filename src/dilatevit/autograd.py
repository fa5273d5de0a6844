"""Reverse-mode autodiff on a linear tape.

Nodes are appended in creation order, which is already a topological order,
so backward is a single reverse sweep. Each op stores a closure that maps the
incoming gradient to per-parent gradients; gradient accumulation follows node
order, so two backward passes from the same forward state are bit-identical.
A :class:`NoRecordTape` runs the same ops for inference and keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import swda as _swda
from . import tensor as T
from .errors import ContractError, DeterminismError, ShapeError


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


@dataclass
class Parameter:
    """A named trainable tensor with a persistent gradient buffer."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        if self.grad.shape != self.value.shape:
            raise ShapeError(
                f"parameter {self.name}: grad shape {self.grad.shape} != value shape {self.value.shape}"
            )


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
    so each intermediate is freed once its last consumer has run."""

    def record(self, data, parents=(), backward_fn=None) -> Node:
        return Node(data, -1)

    def param(self, parameter: Parameter) -> Node:
        return Node(parameter.value, -1)


def backward(tape: Tape, loss: Node) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every reachable node, keyed by node id."""
    if isinstance(tape, NoRecordTape):
        raise ContractError("backward needs a recording Tape, not a NoRecordTape")
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {loss.id: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.get(node.id)
        if g is None or node.backward_fn is None:
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            if pg is None:
                continue
            acc = grads.get(parent.id)
            grads[parent.id] = pg if acc is None else acc + pg
    return grads


def accumulate_param_grads(tape: Tape, grads: dict[int, np.ndarray]) -> None:
    """Add node gradients into the bound Parameters; unreachable ones stay put."""
    for node_id, param in tape.param_nodes.items():
        g = grads.get(node_id)
        if g is not None:
            param.grad += g


def zero_grads(params) -> None:
    for p in _iter_params(params):
        p.grad[...] = 0.0


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

    Thin convenience: ``g = graph(tape); y = g.add(a, b)``.
    """

    def __init__(self, tape: Tape):
        self.tape = tape

    def leaf(self, array) -> Node:
        return self.tape.leaf(array)

    def param(self, parameter: Parameter) -> Node:
        return self.tape.param(parameter)

    def add(self, a: Node, b: Node) -> Node:
        if a.data.shape != b.data.shape:
            raise ShapeError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
        return self.tape.record(a.data + b.data, (a, b), lambda g: (g, g))

    def add_bias(self, a: Node, bias: Node) -> Node:
        """Broadcast a [C] bias over the last axis of a."""
        if a.data.shape[-1] != bias.data.shape[-1] or bias.data.ndim != 1:
            raise ShapeError(
                f"bias shape {bias.data.shape} incompatible with {a.data.shape}"
            )
        axes = tuple(range(a.data.ndim - 1))
        return self.tape.record(
            a.data + bias.data, (a, bias), lambda g: (g, g.sum(axis=axes))
        )

    def scale(self, a: Node, c: float) -> Node:
        cc = np.asarray(c, dtype=a.data.dtype)
        return self.tape.record(a.data * cc, (a,), lambda g: (g * cc,))

    def mul(self, a: Node, b: Node) -> Node:
        if a.data.shape != b.data.shape:
            raise ShapeError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
        return self.tape.record(
            a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data)
        )

    def matmul(self, a: Node, b: Node) -> Node:
        out = T.matmul(a.data, b.data)
        return self.tape.record(
            out, (a, b), lambda g: (g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g)
        )

    def transpose(self, a: Node, axes) -> Node:
        """Permute the axes of a into a contiguous copy."""
        if sorted(axes) != list(range(a.data.ndim)):
            raise ShapeError(f"transpose axes {axes} do not permute the axes of {a.data.shape}")
        out, inverse = np.ascontiguousarray(a.data.transpose(axes)), np.argsort(axes)
        return self.tape.record(out, (a,), lambda g: (np.ascontiguousarray(g.transpose(inverse)),))

    def reshape(self, a: Node, shape) -> Node:
        old = a.data.shape
        return self.tape.record(
            a.data.reshape(shape), (a,), lambda g: (g.reshape(old),)
        )

    def slice_last(self, a: Node, start: int, stop: int) -> Node:
        def back(g):
            full = np.zeros_like(a.data)
            full[..., start:stop] = g
            return (full,)

        return self.tape.record(
            np.ascontiguousarray(a.data[..., start:stop]), (a,), back
        )

    def conv2d(self, x: Node, kernel: Node, stride=1, zero_pad=0, groups=1) -> Node:
        out = T.conv2d(x.data, kernel.data, stride, zero_pad, groups)

        def back(g):
            return T.conv2d_backward(g, x.data, kernel.data, stride, zero_pad, groups)

        return self.tape.record(out, (x, kernel), back)

    def layernorm(self, x: Node, gamma: Node, beta: Node, eps: float = 1e-5) -> Node:
        mean = np.mean(x.data, axis=-1, keepdims=True)
        centered = x.data - mean
        var = np.mean(centered * centered, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
        xhat = centered * inv
        out = xhat * gamma.data + beta.data
        axes = tuple(range(x.data.ndim - 1))

        def back(g):
            gx_hat = g * gamma.data
            mean_g = np.mean(gx_hat, axis=-1, keepdims=True)
            mean_gx = np.mean(gx_hat * xhat, axis=-1, keepdims=True)
            gx = inv * (gx_hat - mean_g - xhat * mean_gx)
            return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

        return self.tape.record(out, (x, gamma, beta), back)

    def gelu(self, x: Node) -> Node:
        return self.tape.record(
            T.gelu(x.data), (x,), lambda g: (g * T.gelu_grad(x.data),)
        )

    def softmax_last(self, x: Node) -> Node:
        y = T.softmax(x.data, axis=-1)

        def back(g):
            inner = np.sum(y * g, axis=-1, keepdims=True)
            return (y * (g - inner),)

        return self.tape.record(y, (x,), back)

    def swda(self, q: Node, k: Node, v: Node, cfgs: tuple[_swda.SwdaConfig, ...],
             attn_sink: list | None = None, layer: str = "") -> Node:
        """Dilated window attention, head i on channel view [i*d_k, (i+1)*d_k) with cfgs[i]."""
        d_k = cfgs[0].d_k
        if q.data.shape[-1] != len(cfgs) * d_k:
            raise ShapeError(f"{q.data.shape[-1]} channels != {len(cfgs)} heads of d_k {d_k}")
        if attn_sink is not None and q.data.ndim != 3:
            raise ContractError(f"an attention sink needs one [H, W, C] map, got {q.data.shape}")
        out = np.empty_like(q.data)
        states = []
        for i, cfg in enumerate(cfgs):
            c = slice(i * d_k, (i + 1) * d_k)
            out[..., c], state = _swda.swda_forward_with_state(
                q.data[..., c], k.data[..., c], v.data[..., c], cfg
            )
            states.append(state)
            if attn_sink is not None:
                attn_sink.append((f"{layer}.head{i}", cfg, state.weights.copy()))

        def back(g):
            grads = tuple(np.empty_like(q.data) for _ in range(3))
            for i, state in enumerate(states):
                c = slice(i * d_k, (i + 1) * d_k)
                for full, part in zip(grads, _swda.swda_backward(g[..., c], state)):
                    full[..., c] = part
            return grads

        return self.tape.record(out, (q, k, v), back)

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
            return grads if bias is None else grads + (gf.sum(0),)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return self.tape.record(out.reshape(x.data.shape[:-1] + out.shape[-1:]), parents, back)

    def softmax_cross_entropy(self, logits: Node, labels) -> Node:
        """Mean over the leading axes of -log softmax(logits)[..., label] for logits [..., K]."""
        z, idx = logits.data, np.asarray(labels)[..., None]
        if z.ndim < 1 or idx.shape[:-1] != z.shape[:-1]:
            raise ShapeError(f"logits {z.shape} need one label per leading index, got {idx.shape[:-1]}")
        m = z.max(axis=-1, keepdims=True)
        lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
        loss = np.asarray(np.mean(lse - np.take_along_axis(z, idx, -1)), dtype=z.dtype)
        probs = np.exp(z - lse)

        def back(g):
            gz = probs.copy()
            np.put_along_axis(gz, idx, np.take_along_axis(gz, idx, -1) - 1.0, -1)
            return (gz * (g / idx.size),)

        return self.tape.record(loss, (logits,), back)


# ---------------------------------------------------------------------------
# Finite-difference verification harness
# ---------------------------------------------------------------------------


@dataclass
class FdParamReport:
    name: str
    max_rel: float
    mean_rel: float
    worst_index: tuple
    analytic: float
    numeric: float


@dataclass
class FdReport:
    per_param: list[FdParamReport]
    max_rel: float
    mean_rel: float
    worst_param: str

    def __str__(self):
        return (
            f"max rel err {self.max_rel:.3e} (param {self.worst_param}), "
            f"mean rel err {self.mean_rel:.3e}"
        )


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
    reports = []
    rel_sum, rel_count = 0.0, 0
    for name in sorted(params):
        param = params[name]
        an = analytic.get(name)
        if an is None:
            continue
        n = param.value.size
        idx = np.arange(n) if n <= budget else np.sort(rng.choice(n, budget, replace=False))
        flat = param.value.reshape(-1)
        max_rel, max_at, max_an, max_fd, tot = 0.0, (0,), 0.0, 0.0, 0.0
        for i in idx:
            keep = flat[i]
            flat[i] = keep + h
            _, lp = build_loss()
            flat[i] = keep - h
            _, lm = build_loss()
            flat[i] = keep
            fd = (float(lp.data) - float(lm.data)) / (2.0 * h)
            an_i = float(an.reshape(-1)[i])
            rel = _rel_err(fd, an_i, rel_floor)
            tot += rel
            if rel >= max_rel:
                max_rel = rel
                max_at = np.unravel_index(int(i), param.value.shape)
                max_an, max_fd = an_i, fd
        reports.append(
            FdParamReport(name, max_rel, tot / len(idx), max_at, max_an, max_fd)
        )
        rel_sum += tot
        rel_count += len(idx)

    worst = max(reports, key=lambda r: r.max_rel) if reports else None
    return FdReport(
        per_param=reports,
        max_rel=worst.max_rel if worst else 0.0,
        mean_rel=rel_sum / rel_count if rel_count else 0.0,
        worst_param=worst.name if worst else "",
    )
