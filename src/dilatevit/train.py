"""Desk-scale SGD training of the pyramid model on synthetic data.

One optimizer step = mean cross-entropy over a minibatch, backward, plain
SGD with decoupled weight decay. Everything is driven by one seed: data,
initialization and batch order, so checkpoints are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
from .autograd import NoRecordTape, Parameter, Tape, accumulate_param_grads, backward, graph, sgd_step, zero_grads
from .data import DatasetSpec, make_dataset
from .errors import ValidationError
from .model import ModelConfig


@dataclass
class TrainLogRow:
    epoch: int
    step: int
    loss: float
    accuracy: float


@dataclass
class TrainResult:
    params: dict[str, Parameter]
    log: list[TrainLogRow] = field(default_factory=list)
    final_accuracy: float = 0.0


def batch_loss(
    config: ModelConfig,
    params: dict[str, Parameter],
    images: np.ndarray,
    labels: np.ndarray,
):
    """Mean cross-entropy of one forward over the [B, S, S, C] batch; returns (tape, loss node)."""
    g = graph(Tape())
    logits = model_mod.forward(g, g.leaf(images), config, params)
    return g.tape, g.softmax_cross_entropy(logits, labels)


def accuracy(
    config: ModelConfig, params, images: np.ndarray, labels: np.ndarray, batch_size: int = 16
) -> float:
    """Top-1 accuracy from one untaped forward per slice of at most ``batch_size`` images."""
    hits = 0
    for s in range(0, len(images), batch_size):
        g = graph(NoRecordTape())
        logits = model_mod.forward(g, g.leaf(images[s : s + batch_size]), config, params).data
        hits += int(np.sum(np.argmax(logits, axis=-1) == labels[s : s + batch_size]))
    return hits / len(images)


def train(
    config: ModelConfig,
    steps: int = 200,
    batch_size: int = 16,
    lr: float = 0.01,
    weight_decay: float = 1e-4,
    seed: int = 0,
    images: np.ndarray | None = None,
    labels: np.ndarray | None = None,
    dtype=np.float32,
) -> TrainResult:
    """``steps`` SGD steps at a learning rate decayed linearly from ``lr`` towards 0,
    on ``images``/``labels`` or, if none are given, 64 blobs drawn from ``seed``. A label
    outside [0, num_classes) is a ValidationError before the first step."""
    if images is None:
        images, labels = make_dataset(64, DatasetSpec(classes=config.num_classes, size=config.input_size), seed=seed)
    if labels.size and not 0 <= labels.min() <= labels.max() < config.num_classes:
        raise ValidationError(f"labels must lie in [0, {config.num_classes}), got {labels.min()} to {labels.max()}")
    images = images.astype(dtype, copy=False)
    params = model_mod.init_params(config, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    n = len(images)
    steps_per_epoch = max(1, n // batch_size)

    result = TrainResult(params=params)
    order = rng.permutation(n)
    cursor = 0
    window: list[float] = []
    for step in range(1, steps + 1):
        if cursor + batch_size > n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor : cursor + batch_size]
        cursor += batch_size

        tape, loss = batch_loss(config, params, images[idx], labels[idx])
        zero_grads(params)
        accumulate_param_grads(tape, backward(tape, loss))
        # layernorm makes the loss scale-invariant in the weights, so early
        # gradients are large relative to the small init; a decayed small
        # step keeps plain SGD from destroying the weights late in the run.
        sgd_step(params, lr=lr * (1.0 - (step - 1) / steps), weight_decay=weight_decay)
        window.append(float(loss.data))

        if step % steps_per_epoch == 0 or step == steps:
            acc = accuracy(config, params, images, labels, batch_size)
            result.log.append(
                TrainLogRow(
                    epoch=(step + steps_per_epoch - 1) // steps_per_epoch,
                    step=step,
                    loss=sum(window) / len(window),
                    accuracy=acc,
                )
            )
            window = []

    result.final_accuracy = accuracy(config, params, images, labels, batch_size)
    return result
