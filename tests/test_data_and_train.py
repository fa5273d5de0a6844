"""Synthetic data generator and the training loop plumbing."""

import numpy as np
import pytest

from dilatevit import model
from dilatevit.autograd import accumulate_param_grads, backward, zero_grads
from dilatevit.data import DatasetSpec, make_dataset
from dilatevit.errors import ConfigError
from dilatevit.train import accuracy, batch_loss, train


class TestDataset:
    def test_shapes_and_balance(self):
        images, labels = make_dataset(12, DatasetSpec(classes=4, size=32), seed=0)
        assert images.shape == (12, 32, 32, 3)
        assert images.dtype == np.float32
        assert sorted(np.bincount(labels)) == [3, 3, 3, 3]

    def test_seed_determinism(self):
        a = make_dataset(6, DatasetSpec(classes=3, size=16), seed=5)
        b = make_dataset(6, DatasetSpec(classes=3, size=16), seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_linearly_separable_at_zero_noise(self):
        spec = DatasetSpec(classes=4, size=32, noise=0.0)
        images, labels = make_dataset(40, spec, seed=1)
        flat = images.reshape(40, -1).astype(np.float64)
        # one least-squares linear probe on raw pixels must classify perfectly
        onehot = np.eye(4)[labels]
        aug = np.concatenate([flat, np.ones((40, 1))], axis=1)
        weights, *_ = np.linalg.lstsq(aug, onehot, rcond=None)
        preds = np.argmax(aug @ weights, axis=1)
        assert np.array_equal(preds, labels)

    def test_class_count_bounds(self):
        with pytest.raises(ConfigError):
            DatasetSpec(classes=1, size=32)
        with pytest.raises(ConfigError):
            DatasetSpec(classes=99, size=32)


class TestTrainLoop:
    def test_batch_loss_is_scalar_and_finite(self):
        config = model.toy()
        params = model.init_params(config, seed=0)
        images, labels = make_dataset(4, DatasetSpec(classes=4, size=32), seed=0)
        tape, loss = batch_loss(config, params, images, labels)
        assert loss.data.shape == ()
        assert np.isfinite(loss.data)

    @pytest.mark.parametrize("dtype, bound", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_batch_gradients_are_the_mean_of_single_image_gradients(self, dtype, bound):
        # f32 bound: a 1,024-row sum rounds at about sqrt(1024) * 6e-8 = 2e-6 relative.
        config = model.toy()
        params = model.init_params(config, seed=1, dtype=dtype)
        images, labels = make_dataset(4, DatasetSpec(classes=4, size=32), seed=5)
        images = images.astype(dtype)

        def grads(idx):
            tape, loss = batch_loss(config, params, images[idx], labels[idx])
            zero_grads(params)
            accumulate_param_grads(tape, backward(tape, loss))
            return {name: p.grad.copy() for name, p in params.items()}

        batched = grads(slice(0, 4))
        singles = [grads(slice(i, i + 1)) for i in range(4)]
        for name, g in batched.items():
            mean = sum(s[name] for s in singles) / 4
            assert np.abs(g - mean).max() <= bound * np.abs(mean).max(), name

    def test_batch_loss_is_one_forward(self):
        config = model.toy()
        params = model.init_params(config, seed=0)
        images, labels = make_dataset(16, DatasetSpec(classes=4, size=32), seed=0)
        one, _ = batch_loss(config, params, images[:1], labels[:1])
        sixteen, _ = batch_loss(config, params, images, labels)
        assert len(sixteen.nodes) == len(one.nodes)

    def test_accuracy_at_init_is_near_chance(self):
        config = model.toy()
        params = model.init_params(config, seed=0)
        images, labels = make_dataset(32, DatasetSpec(classes=4, size=32), seed=0)
        acc = accuracy(config, params, images, labels)
        assert 0.0 <= acc <= 0.6

    def test_accuracy_slices_match_per_image_predictions(self):
        config = model.toy()
        params = model.init_params(config, seed=1)
        images, labels = make_dataset(12, DatasetSpec(classes=4, size=32), seed=1)
        hits = np.argmax(model.predict(config, params, images), axis=-1) == labels
        for batch_size in (1, 5, 12, 64):
            assert accuracy(config, params, images, labels, batch_size) == hits.mean()

    def test_short_run_reduces_loss(self):
        config = model.toy()
        result = train(config, steps=24, batch_size=8, seed=0)
        assert result.log[0].loss > result.log[-1].loss

    def test_training_is_seed_deterministic(self):
        config = model.toy()
        a = train(config, steps=6, batch_size=4, seed=2)
        b = train(config, steps=6, batch_size=4, seed=2)
        for name in a.params:
            assert np.array_equal(a.params[name].value, b.params[name].value)
        assert [r.loss for r in a.log] == [r.loss for r in b.log]

    def test_zero_steps_returns_init(self):
        config = model.toy()
        result = train(config, steps=0, batch_size=4, seed=3)
        init = model.init_params(config, seed=3)
        for name in init:
            assert np.array_equal(result.params[name].value, init[name].value)
        assert 0.0 <= result.final_accuracy <= 0.6
