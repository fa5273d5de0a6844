"""Synthetic data generator and the training loop plumbing."""


import numpy as np
import pytest

from dilatevit import model
from dilatevit.autograd import (
    Parameter,
    Tape,
    accumulate_param_grads,
    backward,
    graph,
    sgd_step,
    zero_grads,
)
from dilatevit.counting import mac_counter
from dilatevit.data import DatasetSpec, make_dataset
from dilatevit.errors import ConfigError, ValidationError
from dilatevit.profiler import count_model
from dilatevit.train import accuracy, batch_loss, train
from tests_common import traced_peak


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

    @pytest.mark.parametrize("count", [1, 7])
    def test_fewer_images_than_classes_are_a_prefix_of_more(self, count):
        spec = DatasetSpec(classes=8, size=32)
        images, labels = make_dataset(count, spec, seed=3)
        more_images, more_labels = make_dataset(64, spec, seed=3)
        assert np.array_equal(images, more_images[:count]) and np.array_equal(labels, more_labels[:count])

    def test_class_count_bounds(self):
        with pytest.raises(ConfigError):
            DatasetSpec(classes=1, size=32)
        with pytest.raises(ConfigError):
            DatasetSpec(classes=99, size=32)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.1])
    def test_noise_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ConfigError, match="noise must be finite and >= 0"):
            DatasetSpec(noise=noise)


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

    @pytest.mark.parametrize("batch", [1, 16])
    def test_backward_counts_no_macs(self, batch):
        # Backward kernels multiply with @, never through the counted T.matmul/T.conv2d.
        config = model.toy()
        params = model.init_params(config, seed=0)
        images, labels = make_dataset(batch, DatasetSpec(classes=4, size=32), seed=0)
        with mac_counter() as counter:
            tape, loss = batch_loss(config, params, images, labels)
            backward(tape, loss)
        assert counter.macs == batch * count_model(config).total_macs

    @pytest.mark.parametrize("bad", [4, -1])
    def test_a_label_outside_the_classes_is_rejected_before_any_step(self, bad):
        images, labels = make_dataset(32, DatasetSpec(classes=4, size=32), seed=0)
        labels[31] = bad  # seed 0's one batch of 4 draws images 26, 28, 7 and 1
        with pytest.raises(ValidationError, match=r"\[0, 4\)"):
            train(model.toy(), steps=1, batch_size=4, seed=0, images=images, labels=labels)

    def test_training_step_peak_memory(self):
        config = model.toy()
        params = model.init_params(config, seed=0)
        images, labels = make_dataset(16, DatasetSpec(classes=4, size=32, noise=0.1), seed=0)

        def step():
            tape, loss = batch_loss(config, params, images, labels)
            zero_grads(params)
            accumulate_param_grads(tape, backward(tape, loss))
            sgd_step(params, lr=0.01, weight_decay=1e-4)

        _, peak = traced_peak(step)
        # The first step peaks at 4.78 MB, where parameters adopt backward's gradients
        # and layernorm rebuilds its normalized rows. Zero-filled gradient buffers beside
        # backward's arrays and a stored [rows, C] map per layernorm read 5.88 MB together,
        # 5.37 and 5.29 MB alone; 5.2 MB catches either, a backward that keeps inner
        # gradients or an extra map-sized copy.
        assert peak <= 5.2e6, f"peak {peak / 1e6:.2f} MB"

    def test_global_attention_step_keeps_no_weights_for_the_backward(self):
        config = model.build_from_pattern("GGGG", model.toy(input_size=64))
        params = model.init_params(config, seed=0)
        images, labels = make_dataset(16, DatasetSpec(classes=4, size=64, noise=0.1), seed=0)

        def step():
            tape, loss = batch_loss(config, params, images, labels)
            return backward(tape, loss)

        _, peak = traced_peak(step)
        # Stage 1 has 2 heads over 256 tokens, 4 MB of [16, 256, 256] f32 weights each.
        # The backward recomputes one head's weights at a time and peaks at 28.3 MB; a tape
        # that keeps every head's weights for the backward read 42.0 MB.
        assert peak <= 32e6, f"peak {peak / 1e6:.2f} MB"

    def test_skipping_the_image_gradient_leaves_parameter_gradients_bit_identical(self):
        config = model.toy()
        params = model.init_params(config, seed=0)
        images, labels = make_dataset(16, DatasetSpec(classes=4, size=32, noise=0.1), seed=0)

        def grads(as_param):
            # conv2d computes its input gradient for a parameter and skips it for a plain leaf.
            g = graph(Tape())
            image = g.param(Parameter("image", images)) if as_param else g.leaf(images)
            loss = g.softmax_cross_entropy(model.forward(g, image, config, params), labels)
            return image.id, g.tape.param_nodes, backward(g.tape, loss)

        image_id, param_nodes, full = grads(True)
        _, _, skipped = grads(False)
        assert full[image_id].shape == images.shape and image_id not in skipped
        assert set(skipped) == set(param_nodes) - {image_id}
        for node_id in skipped:
            assert np.array_equal(full[node_id], skipped[node_id]), param_nodes[node_id].name
        tape, loss = batch_loss(config, params, images, labels)
        assert set(backward(tape, loss)) == set(tape.param_nodes)  # no image gradient

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
