"""Attention-map locality and sparsity metrics."""

import math

import numpy as np
import pytest

from dilatevit import metrics, swda
from dilatevit.errors import ShapeError, ValidationError
from dilatevit.metrics import _chebyshev_table
from dilatevit.swda import SwdaConfig, swda_forward
from dilatevit.tensor import softmax
from oracles import attention_to_dense
from tests_common import traced_peak


def identity_map(h, w):
    return metrics.from_dense(np.eye(h * w), h, w)


def uniform_map(h, w):
    n = h * w
    return metrics.from_dense(np.full((n, n), 1.0 / n), h, w)


def swda_weights(h, w, cfg, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((h, w, cfg.d_k)).astype(dtype) for _ in range(3))
    return swda_forward(q, k, v, cfg)[1]


def swda_map(h, w, cfg, seed=0):
    return metrics.from_swda_weights(swda_weights(h, w, cfg, seed), cfg)


class TestLocalityMass:
    def test_identity_attention_radius_zero(self):
        _, mean = metrics.locality_mass(identity_map(4, 5), 0)
        assert mean == 1.0

    def test_uniform_attention_full_radius(self):
        amap = uniform_map(4, 4)
        _, mean = metrics.locality_mass(amap, 3)
        assert mean == pytest.approx(1.0)

    @pytest.mark.parametrize("rate", [1, 2, 3])
    def test_swda_mass_inside_tap_radius(self, rate):
        cfg = SwdaConfig(w=3, r=rate, d_k=3, edge_mode="masked")
        weights = swda_weights(7, 7, cfg)
        amap = metrics.from_swda_weights(weights, cfg)
        radius = (cfg.w - 1) * cfg.r // 2
        # exactness: every key outside the tap radius carries weight 0.0,
        # so the in-radius mass IS the full row mass
        outside = _chebyshev_table(7, 7) > radius
        assert np.all(attention_to_dense(weights, cfg)[outside] == 0.0)
        per_query, mean = metrics.locality_mass(amap, radius)
        assert np.array_equal(per_query, amap.weights.sum(axis=1))
        assert np.abs(per_query - 1.0).max() < 1e-12
        assert mean == pytest.approx(1.0, abs=1e-12)
        if radius > 0:
            _, tighter = metrics.locality_mass(amap, radius - 1)
            assert tighter < 1.0

    def test_monotone_in_radius_and_saturates(self):
        rng = np.random.default_rng(1)
        h = w = 5
        amap = metrics.from_dense(softmax(rng.standard_normal((25, 25))), h, w)
        means = [metrics.locality_mass(amap, r)[1] for r in range(max(h, w))]
        assert all(b >= a for a, b in zip(means, means[1:]))
        assert means[max(h, w) - 1] == pytest.approx(1.0)

    def test_maps_on_one_grid_share_a_read_only_distance_table(self):
        a, b = identity_map(6, 5), uniform_map(6, 5)
        assert a.dist is b.dist
        assert not a.dist.flags.writeable
        assert identity_map(5, 6).dist.shape == (30, 30)
        assert identity_map(5, 6).dist is not a.dist

    def test_windowed_maps_on_one_grid_share_a_read_only_tap_mask(self):
        cfg = SwdaConfig(w=3, r=2, d_k=4)
        mask = swda._valid_mask(7, 6, cfg)
        assert swda._valid_mask(7, 6, cfg) is mask and not mask.flags.writeable
        assert swda._valid_mask(6, 7, cfg) is not mask

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            metrics.locality_mass(identity_map(2, 2), -1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mask_products_equal_masked_copies_bit_for_bit(dtype):
    """The metrics multiply by 0/1 masks and take log(w + (w == 0)); summed, both
    equal the masked copies they replaced, zero weights included. A map of either
    dtype holds its weights in float64."""
    rng = np.random.default_rng(4)
    rows = softmax(rng.standard_normal((36, 36)) * 3.0)
    rows[rows < 0.01] = 0.0
    amap = metrics.from_dense((rows / rows.sum(axis=1, keepdims=True)).astype(dtype), 6, 6)
    rows = amap.weights
    assert rows.dtype == np.float64
    for radius in range(4):
        masked = np.sum(np.where(amap.dist <= radius, rows, 0.0), axis=1)
        assert np.array_equal(metrics.locality_mass(amap, radius)[0], masked)
    logs = np.where(rows > 0, np.log(np.where(rows > 0, rows, 1.0)), 0.0)
    entropy = float((-np.sum(rows * logs, axis=1)).mean())
    assert metrics.sparsity_profile(amap, 0.05).entropy_nats == entropy


class TestSparsityProfile:
    def test_one_hot_rows(self):
        stats = metrics.sparsity_profile(identity_map(3, 3), 0.5)
        assert stats.mean_active_keys == 1.0
        assert stats.participation_ratio == pytest.approx(1.0)
        assert stats.entropy_nats == pytest.approx(0.0)

    def test_uniform_rows(self):
        n = 16
        stats = metrics.sparsity_profile(uniform_map(4, 4), 1.0 / (2 * n))
        assert stats.mean_active_keys == n
        assert stats.participation_ratio == pytest.approx(n)
        assert stats.entropy_nats == pytest.approx(math.log(n))

    def test_against_direct_summation_oracle(self):
        rng = np.random.default_rng(2)
        rows = softmax(rng.standard_normal((9, 9)) * 2.0)
        amap = metrics.from_dense(rows, 3, 3)
        stats = metrics.sparsity_profile(amap, 0.05)

        active, pr, ent = 0.0, 0.0, 0.0
        for row in rows:
            active += sum(1 for a in row if a > 0.05)
            pr += 1.0 / sum(a * a for a in row)
            ent += -sum(a * math.log(a) for a in row if a > 0)
        assert abs(stats.mean_active_keys - active / 9) < 1e-10
        assert abs(stats.participation_ratio - pr / 9) < 1e-10
        assert abs(stats.entropy_nats - ent / 9) < 1e-10

    def test_bounds_and_uniform_maximum(self):
        rng = np.random.default_rng(3)
        n = 25
        for _ in range(10):
            amap = metrics.from_dense(softmax(rng.standard_normal((n, n)) * 3), 5, 5)
            stats = metrics.sparsity_profile(amap, 0.01)
            assert 1.0 <= stats.participation_ratio <= n
            assert 0.0 <= stats.entropy_nats <= math.log(n) + 1e-12
        uni = metrics.sparsity_profile(uniform_map(5, 5), 0.01)
        assert uni.participation_ratio == pytest.approx(n)
        assert uni.entropy_nats == pytest.approx(math.log(n))

    @pytest.mark.parametrize("mode", ["zero_pad", "masked"])
    def test_swda_maps_never_exceed_window_keys(self, mode):
        for w, rate in ((3, 1), (3, 3), (5, 2)):
            cfg = SwdaConfig(w=w, r=rate, d_k=2, edge_mode=mode)
            amap = swda_map(8, 8, cfg, seed=w * rate)
            stats = metrics.sparsity_profile(amap, 1e-9)
            assert stats.mean_active_keys <= w * w
            assert stats.participation_ratio <= w * w

    def test_threshold_bounds(self):
        amap = identity_map(2, 2)
        with pytest.raises(ValidationError):
            metrics.sparsity_profile(amap, 0.0)
        with pytest.raises(ValidationError):
            metrics.sparsity_profile(amap, 1.0)


class TestTapSpace:
    """Windowed maps keep w*w candidate keys; the dense [N, N] expansion is the oracle."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["zero_pad", "masked"])
    def test_matches_dense_oracle(self, mode, dtype):
        h = w_map = 8
        for w in (1, 3, 5):
            for rate in (1, 2, 3):
                cfg = SwdaConfig(w=w, r=rate, d_k=3, edge_mode=mode)
                weights = swda_weights(h, w_map, cfg, seed=10 * w + rate, dtype=dtype)
                taps = metrics.from_swda_weights(weights, cfg)
                dense = metrics.from_dense(
                    attention_to_dense(weights.astype(np.float64), cfg, renormalize=True), h, w_map
                )
                assert taps.weights.shape == (h * w_map, w * w)
                for radius in range(8):
                    got, got_mean = metrics.locality_mass(taps, radius)
                    want, want_mean = metrics.locality_mass(dense, radius)
                    assert np.abs(got - want).max() <= 1e-12, (w, rate, radius)
                    assert abs(got_mean - want_mean) <= 1e-12
                for threshold in (1e-12, 0.01, 0.2):
                    got = metrics.sparsity_profile(taps, threshold)
                    want = metrics.sparsity_profile(dense, threshold)
                    assert abs(got.mean_active_keys - want.mean_active_keys) <= 1e-12
                    assert abs(got.participation_ratio - want.participation_ratio) <= 1e-12
                    assert abs(got.entropy_nats - want.entropy_nats) <= 1e-12

    def test_statistics_need_no_dense_matrix(self):
        # a dense 56x56 map holds 3136^2 weights: 39 MB even in float32
        cfg = SwdaConfig(w=3, r=2, d_k=4)
        weights = swda_weights(56, 56, cfg, dtype=np.float32)

        def statistics():
            amap = metrics.from_swda_weights(weights, cfg)
            for radius in (0, 1, 2, 3):
                metrics.locality_mass(amap, radius)
            metrics.sparsity_profile(amap, 0.01)

        _, peak = traced_peak(statistics)
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_rejects_wrong_tap_count(self):
        cfg = SwdaConfig(w=3, r=1, d_k=2)
        with pytest.raises(ShapeError, match="taps"):
            metrics.from_swda_weights(np.full((4, 4, 4), 0.25), cfg)


class TestValidation:
    def test_rejects_non_row_stochastic(self):
        bad = np.full((4, 4), 0.5)
        with pytest.raises(ValidationError, match="sum to 1"):
            metrics.from_dense(bad, 2, 2)

    def test_rejects_negative_weights(self):
        bad = np.eye(4)
        bad[0, 0] = -1.0
        bad[0, 1] = 2.0
        with pytest.raises(ValidationError, match="nonnegative"):
            metrics.from_dense(bad, 2, 2)

    def test_rejects_wrong_grid(self):
        with pytest.raises(ValidationError, match="grid"):
            metrics.from_dense(np.eye(4), 2, 3)

    def test_tolerates_small_row_sum_error(self):
        rows = np.eye(4) + 5e-5
        rows /= rows.sum(axis=1, keepdims=True)
        rows[0, 0] += 5e-5  # still within 1e-4
        metrics.from_dense(rows, 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_dense_weights(self, bad):
        # NaN passes both the sign and the row-sum comparison, so it needs its own check.
        weights = np.eye(4)
        weights[1, 2] = bad
        with pytest.raises(ValidationError, match="finite"):
            metrics.from_dense(weights, 2, 2)

    def test_rejects_non_finite_tap_weights(self):
        cfg = SwdaConfig(w=3, r=1, d_k=2, edge_mode="masked")
        weights = swda_weights(4, 4, cfg)
        weights[1, 1, 4] = np.nan  # the centre tap, always on the map
        with pytest.raises(ValidationError, match="finite"):
            metrics.from_swda_weights(weights, cfg)
