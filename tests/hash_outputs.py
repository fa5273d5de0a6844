"""Bit-identity table: one sha256 prefix (16 hex digits) per output row.

    python3 tests/hash_outputs.py

Run from the root of a checkout on two trees and compare the printed rows: a
change that keeps every bit prints the same table. BLAS runs one thread, since
its thread count changes how products round. Not a pytest module; the whole
table takes about ten seconds on one core.
"""

import os
import sys

# One thread, fixed before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import hashlib  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from dilatevit import cli, model  # noqa: E402
from dilatevit.autograd import accumulate_param_grads, backward, sgd_step, zero_grads  # noqa: E402
from dilatevit.data import DatasetSpec, make_dataset  # noqa: E402
from dilatevit.train import batch_loss, train  # noqa: E402


def sgd_steps(config, steps, dtype):
    """Batch-16 SGD from seed-1 weights and data: each loss and every gradient, then the values."""
    images, labels = make_dataset(16, DatasetSpec(classes=config.num_classes, size=config.input_size), seed=1)
    images = images.astype(dtype)
    params = model.init_params(config, seed=1, dtype=dtype)
    h = hashlib.sha256()
    for _ in range(steps):
        tape, loss = batch_loss(config, params, images, labels)
        zero_grads(params)
        accumulate_param_grads(tape, backward(tape, loss))
        h.update(loss.data.tobytes())
        for name in sorted(params):
            h.update(params[name].grad.tobytes())
        sgd_step(params, lr=0.01, weight_decay=1e-4)
    for name in sorted(params):
        h.update(params[name].value.tobytes())
    return h


def train_run(steps):
    """``train.train`` on the toy config: the final values, ``repr`` of the log, the accuracy."""
    result = train(model.toy(), steps, batch_size=16, lr=0.01, weight_decay=1e-4, seed=0)
    h = hashlib.sha256()
    for name in sorted(result.params):
        h.update(result.params[name].value.tobytes())
    h.update(repr(result.log).encode())
    h.update(np.float64(result.final_accuracy).tobytes())
    return h


def tiny_predict():
    """Logits of one ``default_rng(0)`` image under seed-0 tiny@224 weights."""
    config = model.tiny()
    image = np.random.default_rng(0).standard_normal((224, 224, 3)).astype(np.float32)
    return hashlib.sha256(model.predict(config, model.init_params(config, seed=0), image).tobytes())


def tiny_attnstats():
    """The ``attnstats --checkpoint`` CSV of a seed-0, 8-class tiny@224 checkpoint, probe seed 3."""
    config = replace(model.tiny(), num_classes=8)
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint, out = os.path.join(tmp, "checkpoint"), os.path.join(tmp, "stats.csv")
        model.save_checkpoint(checkpoint, config, model.init_params(config, seed=0))
        if cli.main(["attnstats", "--checkpoint", checkpoint, "--seed", "3", "--radii", "0,1,2,3", "--out", out]):
            raise SystemExit("attnstats failed")
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read())


ROWS = (
    ("20 toy SGD steps, f32", lambda: sgd_steps(model.toy(), 20, np.float32)),
    ("the same in f64", lambda: sgd_steps(model.toy(), 20, np.float64)),
    ("20 toy GGGG@32 SGD steps, f32", lambda: sgd_steps(model.build_from_pattern("GGGG", model.toy()), 20, np.float32)),
    ("5 toy GGGG@64 SGD steps, f64",
     lambda: sgd_steps(model.build_from_pattern("GGGG", model.toy(input_size=64)), 5, np.float64)),
    ("train.train at 40 steps", lambda: train_run(40)),
    ("train.train at 200 steps", lambda: train_run(200)),
    ("tiny@224 predict logits", tiny_predict),
    ("tiny@224 attnstats CSV", tiny_attnstats),
)


def main():
    for label, fn in ROWS:
        print(f"| {label} | `{fn().hexdigest()[:16]}` |", flush=True)


if __name__ == "__main__":
    main()
