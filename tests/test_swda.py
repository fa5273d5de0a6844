"""Windowed dilated attention: tap geometry, oracle equivalence, backward."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import attention_to_dense, chebyshev_masked_attention, dense_full_attention, dense_window_oracle
from tests_common import traced_peak

from dilatevit import runtime
from dilatevit.counting import mac_counter
from dilatevit.errors import ConfigError, ContractError, ShapeError
from dilatevit.swda import (
    SwdaConfig,
    SwdaState,
    dilated_indices,
    receptive_span,
    swda_backward,
    swda_backward_naive,
    swda_forward,
    swda_forward_naive,
    swda_forward_with_state,
)


def rand_qkv(rng, h, w, d, dtype=np.float64):
    return tuple(rng.standard_normal((h, w, d)).astype(dtype) for _ in range(3))


class TestTapGeometry:
    def test_interior_query_all_in_bounds(self):
        cfg = SwdaConfig(w=3, r=2, d_k=1)
        taps = dilated_indices(3, 3, cfg, 8, 8)
        expected = [(1, 1), (1, 3), (1, 5), (3, 1), (3, 3), (3, 5), (5, 1), (5, 3), (5, 5)]
        assert list(taps.coords) == expected
        assert all(taps.in_bounds)

    def test_corner_query_flags(self):
        cfg = SwdaConfig(w=3, r=1, d_k=1)
        taps = dilated_indices(0, 0, cfg, 8, 8)
        assert len(taps.coords) == 9
        valid = {c for c, ok in zip(taps.coords, taps.in_bounds) if ok}
        assert valid == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert sum(not ok for ok in taps.in_bounds) == 5

    def test_degenerate_window(self):
        for r in (1, 2, 5):
            taps = dilated_indices(2, 3, SwdaConfig(w=1, r=r, d_k=1), 6, 6)
            assert taps.coords == ((2, 3),)

    def test_query_out_of_bounds(self):
        with pytest.raises(ContractError):
            dilated_indices(8, 0, SwdaConfig(w=3, r=1, d_k=1), 8, 8)

    def test_receptive_span(self):
        assert receptive_span(SwdaConfig(w=3, r=1, d_k=1)) == 3
        assert receptive_span(SwdaConfig(w=3, r=2, d_k=1)) == 5
        assert receptive_span(SwdaConfig(w=3, r=3, d_k=1)) == 7

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            SwdaConfig(w=2, r=1, d_k=1)
        with pytest.raises(ConfigError):
            SwdaConfig(w=3, r=0, d_k=1)
        with pytest.raises(ConfigError):
            SwdaConfig(w=3, r=1, d_k=1, edge_mode="reflect")


class TestForward:
    def test_single_tap_window_returns_values(self):
        rng = np.random.default_rng(0)
        q, k, v = rand_qkv(rng, 4, 5, 3)
        for mode in ("zero_pad", "masked"):
            out, _ = swda_forward(q, k, v, SwdaConfig(w=1, r=3, d_k=3, edge_mode=mode))
            assert np.array_equal(out, v)

    def test_single_pixel_masked_returns_value(self):
        rng = np.random.default_rng(1)
        q, k, v = rand_qkv(rng, 1, 1, 4)
        out, _ = swda_forward(q, k, v, SwdaConfig(w=3, r=1, d_k=4, edge_mode="masked"))
        assert np.abs(out - v).max() < 1e-12

    def test_masked_equals_chebyshev_dense_oracle(self):
        rng = np.random.default_rng(2)
        q, k, v = rand_qkv(rng, 4, 4, 2)
        cfg = SwdaConfig(w=3, r=1, d_k=2, edge_mode="masked")
        out, _ = swda_forward(q, k, v, cfg)
        oracle = chebyshev_masked_attention(q, k, v, radius=1, d_k=2)
        assert np.abs(out - oracle).max() < 1e-10

    def test_zero_pad_equals_zero_augmented_oracle(self):
        rng = np.random.default_rng(3)
        q, k, v = rand_qkv(rng, 4, 4, 2)
        cfg = SwdaConfig(w=3, r=1, d_k=2, edge_mode="zero_pad")
        out, _ = swda_forward(q, k, v, cfg)
        oracle = dense_window_oracle(q, k, v, cfg)
        assert np.abs(out - oracle).max() < 1e-10

    @pytest.mark.parametrize("mode", ["zero_pad", "masked"])
    def test_randomized_against_window_oracle(self, mode):
        rng = np.random.default_rng(4)
        for _ in range(40):
            h = int(rng.integers(1, 8))
            w_map = int(rng.integers(1, 8))
            d = int(rng.integers(1, 6))
            cfg = SwdaConfig(
                w=int(rng.choice([1, 3, 5])),
                r=int(rng.integers(1, 4)),
                d_k=d,
                edge_mode=mode,
            )
            q, k, v = rand_qkv(rng, h, w_map, d)
            out, _ = swda_forward(q, k, v, cfg)
            assert np.abs(out - dense_window_oracle(q, k, v, cfg)).max() < 1e-10

    def test_row_stochastic_weights(self):
        rng = np.random.default_rng(5)
        q, k, v = rand_qkv(rng, 6, 6, 4)
        for mode in ("zero_pad", "masked"):
            cfg = SwdaConfig(w=3, r=2, d_k=4, edge_mode=mode)
            _, weights = swda_forward(q, k, v, cfg)
            assert np.abs(weights.sum(axis=-1) - 1.0).max() < 1e-6
            assert (weights >= 0).all()

    def test_shape_mismatch(self):
        cfg = SwdaConfig(w=3, r=1, d_k=2)
        with pytest.raises(ShapeError):
            swda_forward(np.ones((3, 3, 2)), np.ones((3, 4, 2)), np.ones((3, 3, 2)), cfg)


class TestLocalityAndEquivariance:
    def test_output_only_depends_on_tap_values(self):
        rng = np.random.default_rng(6)
        h = w_map = 7
        cfg = SwdaConfig(w=3, r=2, d_k=3, edge_mode="zero_pad")
        q, k, v = rand_qkv(rng, h, w_map, 3)
        i, j = 3, 3
        out, _ = swda_forward(q, k, v, cfg)
        window = dilated_indices(i, j, cfg, h, w_map)
        taps = {c for c, ok in zip(window.coords, window.in_bounds) if ok}
        k2, v2 = k.copy(), v.copy()
        for a in range(h):
            for b in range(w_map):
                if (a, b) not in taps:
                    k2[a, b] += rng.standard_normal(3)
                    v2[a, b] += rng.standard_normal(3)
        out2, _ = swda_forward(q, k2, v2, cfg)
        assert np.array_equal(out[i, j], out2[i, j])

    def test_translation_equivariance_in_interior(self):
        rng = np.random.default_rng(7)
        content = rand_qkv(rng, 3, 3, 2)
        cfg = SwdaConfig(w=3, r=1, d_k=2, edge_mode="zero_pad")

        def embed(offset_i, offset_j):
            big = [np.zeros((12, 12, 2)) for _ in range(3)]
            for full, small in zip(big, content):
                full[offset_i : offset_i + 3, offset_j : offset_j + 3] = small
            return big

        out_a, _ = swda_forward(*embed(3, 3), cfg)
        out_b, _ = swda_forward(*embed(5, 6), cfg)
        assert np.array_equal(out_a[3:6, 3:6], out_b[5:8, 6:9])

    def test_dense_equivalence_with_covering_span(self):
        rng = np.random.default_rng(8)
        for h, w_map in ((2, 2), (3, 3), (2, 4)):
            win = 2 * max(h, w_map) - 1
            cfg = SwdaConfig(w=win, r=1, d_k=3, edge_mode="masked")
            assert receptive_span(cfg) >= 2 * max(h, w_map) - 1
            q, k, v = rand_qkv(rng, h, w_map, 3)
            out, _ = swda_forward(q, k, v, cfg)
            dense = dense_full_attention(q, k, v, d_k=3)
            assert np.abs(out - dense).max() < 1e-10


class TestBlockedVsNaive:
    @pytest.mark.parametrize("mode", ["zero_pad", "masked"])
    def test_forward_agreement_f32(self, mode):
        rng = np.random.default_rng(9)
        for h, w_map, d, win, rate in ((5, 5, 4, 3, 2), (8, 6, 2, 5, 1), (4, 9, 3, 3, 3)):
            cfg = SwdaConfig(w=win, r=rate, d_k=d, edge_mode=mode)
            q, k, v = rand_qkv(rng, h, w_map, d, dtype=np.float32)
            blocked, wb = swda_forward(q, k, v, cfg)
            naive, wn = swda_forward_naive(q, k, v, cfg)
            assert np.abs(blocked - naive).max() < 1e-6
            assert np.abs(wb - wn).max() < 1e-6

    def test_backward_agreement(self):
        rng = np.random.default_rng(10)
        for mode in ("zero_pad", "masked"):
            cfg = SwdaConfig(w=3, r=2, d_k=4, edge_mode=mode)
            q, k, v = rand_qkv(rng, 5, 5, 4)
            gout = rng.standard_normal((5, 5, 4))
            _, state = swda_forward_with_state(q, k, v, cfg)
            blocked = swda_backward(gout, state)
            naive = swda_backward_naive(gout, state)
            for a, b in zip(blocked, naive):
                assert np.abs(a - b).max() < 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        h=st.integers(1, 9),
        w_map=st.integers(1, 9),
        win=st.sampled_from([1, 3, 5]),
        rate=st.integers(1, 6),
        d=st.integers(1, 4),
        mode=st.sampled_from(["zero_pad", "masked"]),
        batch=st.sampled_from([(), (1,), (3,)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_blocked_equals_naive(self, h, w_map, win, rate, d, mode, batch, seed):
        # With w = 5 and r > 2 the window margin exceeds a 9-pixel map.
        rng = np.random.default_rng(seed)
        cfg = SwdaConfig(w=win, r=rate, d_k=d, edge_mode=mode)
        q, k, v, gout = (rng.standard_normal(batch + (h, w_map, d)) for _ in range(4))
        out, state = swda_forward_with_state(q, k, v, cfg)
        grads = swda_backward(gout, state)
        for b in np.ndindex(batch):
            naive, wn = swda_forward_naive(q[b], k[b], v[b], cfg)
            assert np.abs(out[b] - naive).max() < 1e-10
            assert np.abs(state.weights[b] - wn).max() < 1e-10
            naive_grads = swda_backward_naive(gout[b], SwdaState(q[b], k[b], v[b], wn, cfg))
            for blocked, ref in zip(grads, naive_grads):
                assert np.abs(blocked[b] - ref).max() < 1e-12


class TestBatchAxis:
    @pytest.mark.parametrize("mode", ["zero_pad", "masked"])
    def test_matches_per_image_loop(self, mode):
        rng = np.random.default_rng(12)
        cfg = SwdaConfig(w=3, r=2, d_k=4, edge_mode=mode)
        q, k, v = (rng.standard_normal((3, 5, 6, 4)) for _ in range(3))
        gout = rng.standard_normal(q.shape)
        with mac_counter() as batched_macs:
            out, state = swda_forward_with_state(q, k, v, cfg)
        grads = swda_backward(gout, state)
        with mac_counter() as single_macs:
            swda_forward_with_state(q[0], k[0], v[0], cfg)
        assert batched_macs.macs == 3 * single_macs.macs
        for b in range(3):
            out_b, state_b = swda_forward_with_state(q[b], k[b], v[b], cfg)
            assert np.array_equal(out[b], out_b)
            assert np.array_equal(state.weights[b], state_b.weights)
            for full, part in zip(grads, swda_backward(gout[b], state_b)):
                assert np.array_equal(full[b], part)

    def test_naive_references_take_one_map(self):
        cfg = SwdaConfig(w=3, r=1, d_k=2)
        q = np.zeros((2, 3, 3, 2))
        with pytest.raises(ShapeError, match="one"):
            swda_forward_naive(q, q, q, cfg)
        _, state = swda_forward_with_state(q, q, q, cfg)
        with pytest.raises(ShapeError, match="one"):
            swda_backward_naive(q, state)


class TestBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(11)
        cfg = SwdaConfig(w=3, r=1, d_k=2)
        q, k, v = rand_qkv(rng, 4, 4, 2)
        _, state = swda_forward_with_state(q, k, v, cfg)
        for g in swda_backward(np.zeros_like(q), state):
            assert np.array_equal(g, np.zeros_like(q))

    def test_single_tap_window_gradients(self):
        rng = np.random.default_rng(12)
        cfg = SwdaConfig(w=1, r=1, d_k=3)
        q, k, v = rand_qkv(rng, 3, 4, 3)
        gout = rng.standard_normal((3, 4, 3))
        _, state = swda_forward_with_state(q, k, v, cfg)
        gq, gk, gv = swda_backward(gout, state)
        assert np.array_equal(gv, gout)
        assert np.array_equal(gq, np.zeros_like(gq))
        assert np.array_equal(gk, np.zeros_like(gk))

    def test_missing_state(self):
        with pytest.raises(ContractError):
            swda_backward(np.zeros((2, 2, 1)), None)

    @pytest.mark.parametrize("mode", ["zero_pad", "masked"])
    def test_finite_difference(self, mode):
        rng = np.random.default_rng(13)
        cfg = SwdaConfig(w=3, r=2, d_k=4, edge_mode=mode)
        q, k, v = rand_qkv(rng, 5, 5, 4)
        gout = rng.standard_normal((5, 5, 4))
        _, state = swda_forward_with_state(q, k, v, cfg)
        grads = swda_backward(gout, state)

        def loss():
            out, _ = swda_forward(q, k, v, cfg)
            return float((out * gout).sum())

        h = 1e-6
        worst = 0.0
        for arr, grad in zip((q, k, v), grads):
            flat = arr.reshape(-1)
            for idx in rng.choice(flat.size, 12, replace=False):
                keep = flat[idx]
                flat[idx] = keep + h
                lp = loss()
                flat[idx] = keep - h
                lm = loss()
                flat[idx] = keep
                fd = (lp - lm) / (2 * h)
                an = grad.reshape(-1)[idx]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-2))
        assert worst < 1e-4


class TestMemory:
    def test_peaks_stay_within_a_few_maps(self):
        rng = np.random.default_rng(18)
        cfg = SwdaConfig(w=3, r=3, d_k=24)
        q, k, v, gout = (rng.standard_normal((56, 56, 24)).astype(np.float32) for _ in range(4))
        (_, state), forward_peak = traced_peak(lambda: swda_forward_with_state(q, k, v, cfg))
        _, backward_peak = traced_peak(lambda: swda_backward(gout, state))
        # Stacking the w*w shifted copies of K and V costs 18 maps on its own. The forward
        # holds the output, padded V, one product scratch and the softmax (9/24 map), whose
        # weights are a view of it.
        assert forward_peak <= 4 * q.nbytes, forward_peak / q.nbytes
        assert backward_peak <= 12 * q.nbytes, backward_peak / q.nbytes


class TestDeterminism:
    def test_bit_identical_repeats(self):
        rng = np.random.default_rng(14)
        cfg = SwdaConfig(w=3, r=2, d_k=4)
        q, k, v = rand_qkv(rng, 10, 10, 4, dtype=np.float32)
        a, wa = swda_forward(q, k, v, cfg)
        b, wb = swda_forward(q, k, v, cfg)
        assert np.array_equal(a, b) and np.array_equal(wa, wb)

    def test_bit_identical_across_thread_counts(self):
        rng = np.random.default_rng(15)
        cfg = SwdaConfig(w=3, r=3, d_k=8)
        q, k, v = rand_qkv(rng, 33, 17, 8, dtype=np.float32)
        gout = rng.standard_normal((33, 17, 8)).astype(np.float32)
        results = []
        try:
            for threads in (1, 2, 8):
                runtime.set_num_threads(threads)
                out, state = swda_forward_with_state(q, k, v, cfg)
                grads = swda_backward(gout, state)
                results.append((out, *grads))
        finally:
            runtime.set_num_threads(1)
        for got in results[1:]:
            for a, b in zip(results[0], got):
                assert np.array_equal(a, b)


class TestDenseExpansion:
    def test_masked_weights_expand_row_stochastic(self):
        rng = np.random.default_rng(16)
        cfg = SwdaConfig(w=3, r=2, d_k=3, edge_mode="masked")
        q, k, v = rand_qkv(rng, 5, 4, 3)
        _, weights = swda_forward(q, k, v, cfg)
        dense = attention_to_dense(weights, cfg)
        assert np.abs(dense.sum(axis=1) - 1.0).max() < 1e-10

    def test_zero_pad_weights_need_renormalization(self):
        rng = np.random.default_rng(17)
        cfg = SwdaConfig(w=3, r=1, d_k=3, edge_mode="zero_pad")
        q, k, v = rand_qkv(rng, 4, 4, 3)
        _, weights = swda_forward(q, k, v, cfg)
        raw = attention_to_dense(weights, cfg, renormalize=False)
        assert raw.sum(axis=1).min() < 1.0 - 1e-6  # edge rows lost padded mass
        fixed = attention_to_dense(weights, cfg, renormalize=True)
        assert np.abs(fixed.sum(axis=1) - 1.0).max() < 1e-10
