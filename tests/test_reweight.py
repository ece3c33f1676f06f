"""Tests for dependence-driven loss reweighting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visdep.reweight import (
    LossMode,
    ReweightConfig,
    normalize_weights,
    raw_weight,
    raw_weights,
    reweighting_active,
    training_weights,
)


def row_weights(values, cfg):
    """``training_weights`` of one sequence, as a batch of one row."""
    d = np.asarray(values, dtype=np.float64)
    return training_weights(d[None, :], np.array([d.size]), cfg)[0]


class TestRawWeight:
    def test_emphasize_negative_keeps_negative_side(self):
        assert raw_weight(-0.5, LossMode.EMPHASIZE_NEGATIVE) == 0.5
        assert raw_weight(0.3, LossMode.EMPHASIZE_NEGATIVE) == 0.0
        assert raw_weight(0.0, LossMode.EMPHASIZE_NEGATIVE) == 0.0

    def test_emphasize_positive_keeps_positive_side(self):
        assert raw_weight(0.3, LossMode.EMPHASIZE_POSITIVE) == 0.3
        assert raw_weight(-0.5, LossMode.EMPHASIZE_POSITIVE) == 0.0
        assert raw_weight(0.0, LossMode.EMPHASIZE_POSITIVE) == 0.0

    def test_vanilla_is_identically_zero(self):
        for d in (-1.0, -0.3, 0.0, 0.3, 1.0):
            assert raw_weight(d, LossMode.VANILLA) == 0.0

    @pytest.mark.parametrize("bad", [-1.5, 1.5, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            raw_weight(bad, LossMode.EMPHASIZE_NEGATIVE)

    @given(d=st.floats(-1.0, 1.0, allow_nan=False))
    def test_modes_partition_the_axis(self, d):
        """The two emphasis modes never both fire on the same token."""
        neg = raw_weight(d, LossMode.EMPHASIZE_NEGATIVE)
        pos = raw_weight(d, LossMode.EMPHASIZE_POSITIVE)
        assert neg >= 0.0 and pos >= 0.0
        assert neg == 0.0 or pos == 0.0
        assert neg + pos == abs(d)


class TestRawWeights:
    def test_matches_scalar(self):
        rng = np.random.default_rng(42)
        d = rng.uniform(-1, 1, 100)
        for mode in LossMode:
            vec = raw_weights(d, mode)
            expected = [raw_weight(v, mode) for v in d]
            np.testing.assert_array_equal(vec, expected)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            raw_weights([0.5, 1.5], LossMode.EMPHASIZE_POSITIVE)


class TestNormalizeWeights:
    def test_all_equal_raw_gives_exact_ones(self):
        wv = normalize_weights(np.full(17, 0.37), tau=1.3)
        assert np.all(wv == 1.0)

    def test_zero_temperature_gives_exact_ones(self):
        rng = np.random.default_rng(42)
        wv = normalize_weights(rng.uniform(0, 1, 33), tau=0.0)
        assert np.all(wv == 1.0)

    def test_two_token_closed_form(self):
        """raw (1, 0) at tau 0.5 gives (2e^0.5, 2) / (e^0.5 + 1)."""
        wv = normalize_weights(np.array([1.0, 0.0]), tau=0.5)
        denom = math.exp(0.5) + 1.0
        np.testing.assert_allclose(
            wv, [2.0 * math.exp(0.5) / denom, 2.0 / denom], rtol=1e-12
        )
        np.testing.assert_allclose(wv, [1.2449, 0.7551], atol=1e-4)

    def test_sum_equals_length(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 7, 100, 2048):
            raw = rng.uniform(0, 1, n)
            wv = normalize_weights(raw, tau=rng.uniform(0, 4))
            assert wv.sum() == pytest.approx(n, rel=1e-9)

    def test_monotone_in_raw_weight(self):
        """Raising one raw weight raises its share of the total."""
        base = np.array([0.2, 0.4, 0.6])
        lifted = np.array([0.2, 0.7, 0.6])
        w0 = normalize_weights(base, tau=2.0)
        w1 = normalize_weights(lifted, tau=2.0)
        assert w1[1] > w0[1]

    def test_order_preserving(self):
        rng = np.random.default_rng(42)
        raw = rng.uniform(0, 1, 50)
        w = normalize_weights(raw, tau=1.5)
        order_raw = np.argsort(raw, kind="stable")
        order_w = np.argsort(w, kind="stable")
        np.testing.assert_array_equal(order_raw, order_w)

    def test_large_raw_values_are_stable(self):
        """Max-subtraction keeps the softmax finite for extreme inputs."""
        wv = normalize_weights(np.array([0.0, 1.0]), tau=500.0)
        assert np.all(np.isfinite(wv))
        assert wv.sum() == pytest.approx(2.0, rel=1e-9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_weights(np.array([]), tau=1.0)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            normalize_weights(np.array([0.5]), tau=-0.1)

    @settings(max_examples=100)
    @given(
        raw=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=256),
        tau=st.floats(0.0, 4.0, allow_nan=False),
    )
    def test_sum_and_positivity_properties(self, raw, tau):
        wv = normalize_weights(np.array(raw), tau=tau)
        assert wv.sum() == pytest.approx(len(raw), rel=1e-9)
        assert np.all(wv > 0.0)


class TestApplyEosFloor:
    """The floor lifts the last weight of each row (its EOS) to at least 1."""

    FLOORED = ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, tau=2.0)
    BARE = ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, tau=2.0, eos_floor=False)

    def test_low_eos_weight_raised_to_one(self):
        bare = row_weights([-0.9, 0.0, 0.0], self.BARE)
        assert bare[2] < 1.0
        floored = row_weights([-0.9, 0.0, 0.0], self.FLOORED)
        np.testing.assert_array_equal(floored, [bare[0], bare[1], 1.0])

    def test_high_eos_weight_untouched(self):
        bare = row_weights([0.0, -0.9], self.BARE)
        assert bare[1] > 1.0
        np.testing.assert_array_equal(row_weights([0.0, -0.9], self.FLOORED), bare)

    @given(
        values=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=20)
    )
    def test_only_eos_entry_changes(self, values):
        bare = row_weights(values, self.BARE)
        floored = row_weights(values, self.FLOORED)
        assert floored[-1] == max(bare[-1], 1.0)
        np.testing.assert_array_equal(floored[:-1], bare[:-1])


class TestTrainingWeights:
    def test_vanilla_is_exact_ones_at_any_progress(self):
        """Vanilla mode never activates, and its weights are exact ones anyway."""
        cfg = ReweightConfig(mode=LossMode.VANILLA, start_fraction=0.0)
        assert not any(reweighting_active(cfg, p) for p in (0.0, 0.5, 1.0))
        assert np.all(row_weights([0.9, -0.9, 0.0], cfg) == 1.0)

    def test_emphasize_negative_lifts_negative_token(self):
        """After activation the anti-visual token outweighs the rest."""
        cfg = ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, eos_floor=False)
        wv = row_weights([-0.9, 0.0, 0.5], cfg)
        assert wv[0] > 1.0
        assert wv[1] < 1.0
        assert wv[2] < 1.0
        assert wv[1] == wv[2]

    def test_emphasize_positive_lifts_positive_token(self):
        cfg = ReweightConfig(mode=LossMode.EMPHASIZE_POSITIVE, eos_floor=False)
        wv = row_weights([-0.9, 0.0, 0.5], cfg)
        assert wv[2] > 1.0
        assert wv[0] < 1.0
        assert wv[0] == wv[1]

    def test_eos_floor_applies_after_normalization(self):
        """The floor lifts the EOS weight after the softmax, so the other
        weights keep their normalized values and the sum exceeds the length."""
        d = [-0.9, 0.0, 0.0, 0.0]
        floored = row_weights(d, ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, tau=2.0))
        bare = row_weights(d, ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, tau=2.0, eos_floor=False))
        assert bare[3] < 1.0
        assert floored[3] == 1.0
        np.testing.assert_array_equal(floored[:3], bare[:3])
        assert floored.sum() > len(d)

    def test_sum_with_floor_stays_below_length_plus_one(self):
        rng = np.random.default_rng(42)
        cfg = ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, tau=3.0)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            wv = row_weights(rng.uniform(-1, 1, n), cfg)
            assert n - 1e-9 <= wv.sum() <= n + 1.0 + 1e-9


class TestReweightingActive:
    def test_vanilla_is_never_active(self):
        cfg = ReweightConfig(mode=LossMode.VANILLA, start_fraction=0.0)
        assert not any(reweighting_active(cfg, p) for p in (0.0, 0.5, 1.0))

    def test_active_from_start_fraction_on(self):
        for mode in (LossMode.EMPHASIZE_NEGATIVE, LossMode.EMPHASIZE_POSITIVE):
            cfg = ReweightConfig(mode=mode, start_fraction=0.5)
            assert [reweighting_active(cfg, p) for p in (0.0, 0.49, 0.5, 1.0)] == [False, False, True, True]


class TestWeightRows:
    @pytest.mark.parametrize(
        "cfg",
        [
            ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE),
            ReweightConfig(mode=LossMode.EMPHASIZE_POSITIVE, tau=3.0),
            ReweightConfig(mode=LossMode.EMPHASIZE_NEGATIVE, tau=0.0),
            ReweightConfig(mode=LossMode.EMPHASIZE_POSITIVE, eos_floor=False),
        ],
    )
    def test_rows_match_training_weights_bit_for_bit(self, cfg):
        """Padded rows of every length up to 40, with exact zeros of both
        signs, give each row the bits of the one-sequence path:
        ``normalize_weights`` of its raw weights, then the EOS floor."""
        rng = np.random.default_rng(7)
        lengths = np.array([1, 2, 7, 8, 9, 16, 17, 23, 40] + list(rng.integers(1, 41, 200)))
        d = np.zeros((len(lengths), 40))
        for i, n in enumerate(lengths):
            d[i, :n] = rng.choice([-1.0, -0.3, -0.0, 0.0, 0.25, 1.0], n) * rng.uniform(0.0, 1.0, n)
        weights = training_weights(d, lengths, cfg)
        for i, n in enumerate(lengths):
            expected = normalize_weights(raw_weights(d[i, :n], cfg.mode), cfg.tau)
            if cfg.eos_floor:
                expected[-1] = max(expected[-1], 1.0)
            np.testing.assert_array_equal(weights[i, :n], expected)
            assert not weights[i, n:].any()


class TestConfigValidation:
    def test_defaults(self):
        cfg = ReweightConfig()
        assert cfg.mode is LossMode.VANILLA
        assert cfg.tau == 0.5
        assert cfg.start_fraction == 0.5
        assert cfg.eos_floor is True

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            ReweightConfig(tau=-1.0)

    def test_rejects_start_fraction_outside_unit_interval(self):
        with pytest.raises(ValueError):
            ReweightConfig(start_fraction=1.2)

    def test_rejects_non_enum_mode(self):
        with pytest.raises(ValueError):
            ReweightConfig(mode="wneg")

    def test_mode_values(self):
        assert LossMode.VANILLA.value == "mle"
        assert LossMode.EMPHASIZE_NEGATIVE.value == "wneg"
        assert LossMode.EMPHASIZE_POSITIVE.value == "wpos"
