"""The benchmark's three workloads: set-up, one operation, output checks.

Each workload is a closed loop with one caller: the runner calls ``op``
again only after the previous call has returned. ``setup`` builds all state
from the workload seed through the benchmark's own generator; the program
sees the seed only through the images, dataset and checkpoint built from
it. ``check`` returns a list of failures, empty when every output is right.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

import reference
from dilatevit import autograd, cli, model, train
from dilatevit.autograd import Tape, graph
from dilatevit.data import DatasetSpec, make_dataset

EPS32 = float(np.finfo(np.float32).eps)


class Workload:
    name: str
    items_per_op: int  # the unit of items_per_s
    images_per_op = 1  # forward passes per call, for the MAC checks
    warmup_ops = 0  # untimed calls after the probe call
    min_ops = 0  # untimed calls after the window make up at least this many


class InferTiny224(Workload):
    """model.predict on one seeded 224x224 image per call, tiny preset."""

    name = "infer_tiny224"
    items_per_op = 1  # images classified
    warmup_ops = 1
    n_images = 8
    reference_images = (0, 1)
    # f32 logits against the float64 forward: measured worst 2.9 f32 ulps of
    # the largest logit; 64 ulps leaves room without hiding a real error.
    logit_ulps = 64

    def setup(self, seed, workdir):
        config = model.tiny()
        rng = np.random.default_rng(seed)
        return SimpleNamespace(
            config=config,
            params=model.init_params(config, seed=0),
            images=rng.standard_normal((self.n_images, 224, 224, 3)).astype(np.float32),
        )

    def op(self, state, i):
        return model.predict(state.config, state.params, state.images[i % self.n_images])

    def check(self, state, results):
        failures = []
        by_image = {}
        for i, logits in results:
            by_image.setdefault(i % self.n_images, []).append(logits)
        for img, outs in sorted(by_image.items()):
            if any(not np.array_equal(outs[0], o) for o in outs[1:]):
                failures.append(f"image {img}: repeated predict calls gave different logits")
        values = {k: v.value for k, v in state.params.items()}
        for img in self.reference_images:
            ref = reference.forward_f64(state.config, values, state.images[img])
            err = float(np.abs(by_image[img][0] - ref).max())
            tol = self.logit_ulps * EPS32 * max(1.0, float(np.abs(ref).max()))
            if not err <= tol:
                failures.append(f"image {img}: logits differ from the float64 reference by {err:.3e} > {tol:.3e}")
        return failures


class TrainToyB16(Workload):
    """One SGD step per call on the toy preset, batch 16 of 64 seeded blobs."""

    name = "train_toy_b16"
    batch = 16
    items_per_op = images_per_op = batch  # training images
    warmup_ops = 3
    min_ops = 64  # enough steps for the loss trend check to see training work
    lr, weight_decay = 0.01, 1e-4
    fd_elements, fd_step = 12, 1e-6

    def setup(self, seed, workdir):
        config = model.toy()
        rng = np.random.default_rng(seed)
        spec = DatasetSpec(classes=config.num_classes, size=config.input_size, noise=0.1)
        images, labels = make_dataset(64, spec, seed=int(rng.integers(2**31)))
        return SimpleNamespace(
            config=config,
            params=model.init_params(config, seed=0),
            images=images,
            labels=labels,
            order=rng.permutation(len(images)),
        )

    def _batch(self, state, i):
        start = (i * self.batch) % len(state.order)
        idx = state.order[start : start + self.batch]
        return state.images[idx], state.labels[idx]

    def op(self, state, i):
        # The calls train.train makes for one step, looked up where it looks them up.
        images, labels = self._batch(state, i)
        tape, loss = train.batch_loss(state.config, state.params, images, labels)
        autograd.zero_grads(state.params)
        autograd.accumulate_param_grads(tape, autograd.backward(tape, loss))
        autograd.sgd_step(state.params, lr=self.lr, weight_decay=self.weight_decay)
        return float(loss.data)

    def check(self, state, results):
        failures = []
        losses = [loss for _, loss in results]
        if not all(math.isfinite(x) for x in losses):
            failures.append("a training loss is not finite")
        first, last = np.mean(losses[:8]), np.mean(losses[-8:])
        if not last < first:
            failures.append(f"mean loss of the last 8 steps {last:.4f} is not below the first 8 ({first:.4f})")
        failures += self._gradcheck(state)
        return failures

    def _gradcheck(self, state):
        """float64 gradients of batch_loss through the step's own calls, against central differences."""
        params = model.init_params(state.config, seed=0, dtype=np.float64)
        images, labels = self._batch(state, 0)
        images = images.astype(np.float64)
        for p in params.values():
            p.grad[...] = 1.0  # stale values that zero_grads must clear
        tape, loss = train.batch_loss(state.config, params, images, labels)
        autograd.zero_grads(params)
        autograd.accumulate_param_grads(tape, autograd.backward(tape, loss))
        rng = np.random.default_rng(0)
        names = sorted(params)
        failures = []
        for name in rng.choice(names, self.fd_elements, replace=False):
            p = params[name]
            flat = p.value.reshape(-1)
            k = int(rng.integers(flat.size))
            keep = flat[k]
            flat[k] = keep + self.fd_step
            plus = float(train.batch_loss(state.config, params, images, labels)[1].data)
            flat[k] = keep - self.fd_step
            minus = float(train.batch_loss(state.config, params, images, labels)[1].data)
            flat[k] = keep
            numeric = (plus - minus) / (2 * self.fd_step)
            analytic = float(p.grad.reshape(-1)[k])
            if not abs(numeric - analytic) <= 1e-7 + 1e-4 * abs(numeric):
                failures.append(f"{name}[{k}]: analytic gradient {analytic:.6e} vs central difference {numeric:.6e}")
        return failures


class AttnstatsTiny224(Workload):
    """One in-process `dilatevit attnstats --checkpoint` call on a tiny@224, 8-class checkpoint."""

    name = "attnstats_tiny224"
    items_per_op = 138  # attention maps analysed: 6 + 12 + 72 + 48 heads of tiny
    radii = (0, 1, 2, 3)
    threshold = 0.01
    # The CLI's dense path renormalises and sums in float32, so its figures
    # carry f32 rounding (measured up to 1.7e-8 relative); 16 ulps of slack.
    stat_ulps = 16

    def setup(self, seed, workdir):
        # 8 classes: attnstats --checkpoint fails on checkpoints with more (see CHANGES.md).
        config = replace(model.tiny(), num_classes=8)
        params = model.init_params(config, seed=0)
        # A fresh directory per set-up: re-saving over the previous files makes
        # the filesystem flush them first, which measured 0.05-0.33 s per save.
        checkpoint = tempfile.mkdtemp(prefix="checkpoint-", dir=workdir)
        model.save_checkpoint(checkpoint, config, params)
        layers = []  # (name, key count, dilation rate or None for a global head)
        for s, stage in enumerate(config.stages, start=1):
            side = config.stage_resolution(s - 1)
            spec = config.block_spec(s - 1)
            for b in range(stage.depth):
                for h in range(stage.n_heads):
                    windowed = stage.kind == "D"
                    layers.append((
                        f"stage{s}.block{b}.head{h}",
                        spec.kernel_w**2 if windowed else side * side,
                        spec.head_rates()[h] if windowed else None,
                    ))
        rng = np.random.default_rng(seed)
        return SimpleNamespace(
            config=config,
            params=params,
            checkpoint=checkpoint,
            workdir=workdir,
            image_seed=int(rng.integers(2**31)),
            layers=layers,
        )

    def op(self, state, i):
        out = os.path.join(state.workdir, f"attnstats-{i}.csv")
        argv = ["attnstats", "--checkpoint", state.checkpoint, "--threads", "1",
                "--seed", str(state.image_seed), "--radii", ",".join(map(str, self.radii)),
                "--threshold", str(self.threshold), "--out", out]
        if cli.main(argv) != 0:
            raise RuntimeError(f"dilatevit attnstats exited non-zero: {argv}")
        return out

    def check(self, state, results):
        texts = []
        for _, path in results:
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
            os.remove(path)
        if any(t != texts[0] for t in texts[1:]):
            return ["repeated attnstats calls wrote different CSVs"]
        rows = list(csv.DictReader(texts[0].splitlines()))
        table = {(r["layer"], r["radius_or_threshold"], r["metric"]): float(r["value"]) for r in rows}
        expected_layers = [name for name, _, _ in state.layers]
        seen = list(dict.fromkeys(r["layer"] for r in rows))
        if len(state.layers) != self.items_per_op or seen != expected_layers:
            return [f"CSV covers {len(seen)} layers, the config implies {len(expected_layers)}"]
        if len(rows) != len(table) or len(rows) != len(expected_layers) * (len(self.radii) + 3):
            return [f"CSV holds {len(rows)} rows, expected {len(expected_layers) * (len(self.radii) + 3)}"]
        failures = []
        t = str(self.threshold)
        for name, n_keys, rate in state.layers:
            mass = [table[(name, str(r), "locality_mass")] for r in self.radii]
            if not (0 <= mass[0] and all(a <= b + 1e-9 for a, b in zip(mass, mass[1:])) and mass[-1] <= 1 + 1e-9):
                failures.append(f"{name}: locality mass {mass} not in [0, 1] and non-decreasing")
            if rate is not None and any(abs(m - 1) > self.stat_ulps * EPS32 for r, m in zip(self.radii, mass) if r >= rate):
                failures.append(f"{name}: locality mass below 1 at a radius >= its rate {rate}")
            active = table[(name, t, "active_keys")]
            ratio = table[(name, t, "participation_ratio")]
            entropy = table[(name, t, "entropy_nats")]
            if not (active <= n_keys and ratio >= 1 - 1e-6 and -1e-9 <= entropy <= math.log(n_keys) + 1e-6):
                failures.append(f"{name}: active {active}, participation {ratio}, entropy {entropy} out of range")
        failures += self._tap_space(state, table)
        return failures

    def _tap_space(self, state, table):
        """Every statistic of every windowed head, recomputed in tap space from weights captured here."""
        spec = DatasetSpec(classes=state.config.num_classes, size=state.config.input_size, noise=0.1)
        image = make_dataset(1, spec, seed=state.image_seed)[0][0]
        sink = []
        g = graph(Tape())
        model.forward(g, g.leaf(image), state.config, state.params, attn_sink=sink)
        failures = []
        for layer, cfg, weights in sink:
            if cfg is None:
                continue
            ours = reference.tap_space_stats(weights, cfg.r, cfg.w, self.radii, self.threshold)
            for (key, metric), value in ours.items():
                got = table[(layer, key, metric)]
                if abs(got - value) > self.stat_ulps * EPS32 * max(1.0, abs(value)):
                    failures.append(f"{layer} {metric}@{key}: CSV {got!r} vs tap space {value!r}")
        return failures


WORKLOADS = {w.name: w for w in (InferTiny224(), TrainToyB16(), AttnstatsTiny224())}
