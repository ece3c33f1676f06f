"""Tests for the visual-dependence score and token classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visdep.dependence import (
    NEGATIVE_THRESHOLD,
    POSITIVE_THRESHOLD,
    CLASS_BY_CODE,
    TokenClass,
    classify_array,
    dependence_array,
    profile_trace,
)
from visdep.trace import TokenTrace


def pointwise_d(p: float, q: float) -> float:
    """The definition of ``d`` for one probability pair, in Python floats."""
    m = max(p, q)
    return (p - q) / m if m > 0.0 else 0.0


def class_of(d) -> TokenClass:
    """The class of one dependence value, through ``classify_array``."""
    return CLASS_BY_CODE[classify_array(d)]


class TestVisualDependence:
    """Pointwise score d = (p_clean - p_noisy) / max(p_clean, p_noisy)."""

    def test_clean_dominates(self):
        assert dependence_array(0.8, 0.4) == pytest.approx(0.5, abs=1e-15)

    def test_equal_probabilities_give_zero(self):
        assert dependence_array(0.3, 0.3) == 0.0

    def test_noisy_dominates(self):
        assert dependence_array(0.0, 0.7) == -1.0

    def test_both_zero_is_defined_as_zero(self):
        assert dependence_array(0.0, 0.0) == 0.0

    def test_extremes(self):
        assert dependence_array(1.0, 0.0) == 1.0
        assert dependence_array(0.0, 1.0) == -1.0
        assert dependence_array(1.0, 1.0) == 0.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rejects_out_of_range_clean(self, bad):
        with pytest.raises(ValueError):
            dependence_array(bad, 0.5)

    @pytest.mark.parametrize("bad", [-1e-9, 2.0, float("nan")])
    def test_rejects_out_of_range_noisy(self, bad):
        with pytest.raises(ValueError):
            dependence_array(0.5, bad)

    @given(
        p=st.floats(0.0, 1.0, allow_nan=False),
        q=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_antisymmetry(self, p, q):
        """Swapping the two probabilities negates the score."""
        assert dependence_array(p, q) == -dependence_array(q, p)

    @given(
        p=st.floats(0.0, 1.0, allow_nan=False),
        q=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_range(self, p, q):
        d = dependence_array(p, q)
        assert -1.0 <= d <= 1.0

    @given(
        p=st.floats(1e-6, 1.0, allow_nan=False),
        q=st.floats(1e-6, 1.0, allow_nan=False),
        k=st.floats(1e-3, 1.0, allow_nan=False),
    )
    def test_scale_quasi_invariance(self, p, q, k):
        """Scaling both probabilities by a common factor preserves d.

        The numerator and denominator are both homogeneous of degree one,
        so any k that keeps the inputs inside [0, 1] cancels out (up to
        float rounding in the two multiplications).
        """
        scale = k / max(p, q)
        d_scaled = dependence_array(p * scale, q * scale)
        assert d_scaled == pytest.approx(dependence_array(p, q), abs=1e-12)


class TestDependenceArray:
    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(42)
        p = rng.uniform(0.0, 1.0, size=500)
        q = rng.uniform(0.0, 1.0, size=500)
        expected = np.array([pointwise_d(a, b) for a, b in zip(p.tolist(), q.tolist())])
        np.testing.assert_allclose(dependence_array(p, q), expected, rtol=0, atol=0)

    def test_zero_over_zero_entries(self):
        d = dependence_array([0.0, 0.5, 0.0], [0.0, 0.5, 0.25])
        np.testing.assert_allclose(d, [0.0, 0.0, -1.0], atol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dependence_array([0.1, 0.2], [0.1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dependence_array([0.1, 1.2], [0.1, 0.2])


class TestClassify:
    """Thresholds at +/-0.25; both boundaries are pinned explicitly."""

    def test_positive_boundary_is_positive(self):
        assert class_of(POSITIVE_THRESHOLD) is TokenClass.IMAGE_POSITIVE

    def test_negative_boundary_is_invariant(self):
        assert class_of(NEGATIVE_THRESHOLD) is TokenClass.IMAGE_INVARIANT

    def test_zero_is_invariant(self):
        assert class_of(0.0) is TokenClass.IMAGE_INVARIANT

    def test_just_inside_band(self):
        assert class_of(0.2499999) is TokenClass.IMAGE_INVARIANT
        assert class_of(-0.2499999) is TokenClass.IMAGE_INVARIANT

    def test_just_outside_band(self):
        assert class_of(0.2500001) is TokenClass.IMAGE_POSITIVE
        assert class_of(-0.2500001) is TokenClass.IMAGE_NEGATIVE

    def test_extremes(self):
        assert class_of(1.0) is TokenClass.IMAGE_POSITIVE
        assert class_of(-1.0) is TokenClass.IMAGE_NEGATIVE

    @pytest.mark.parametrize("bad", [-1.001, 1.001, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            class_of(bad)

    @given(d=st.floats(-1.0, 1.0, allow_nan=False))
    def test_total_and_consistent(self, d):
        c = class_of(d)
        if d >= POSITIVE_THRESHOLD:
            assert c is TokenClass.IMAGE_POSITIVE
        elif d < NEGATIVE_THRESHOLD:
            assert c is TokenClass.IMAGE_NEGATIVE
        else:
            assert c is TokenClass.IMAGE_INVARIANT


class TestClassifyArray:
    def test_matches_scalar_classify(self):
        """10^5 random values, both thresholds and their float neighbours,
        against the thresholds applied to one value at a time."""
        rng = np.random.default_rng(3)
        edges = [POSITIVE_THRESHOLD, NEGATIVE_THRESHOLD, -1.0, 0.0, 1.0]
        near = [float(np.nextafter(e, to)) for e in edges[:2] for to in (-1.0, 1.0)]
        d = np.concatenate([rng.uniform(-1.0, 1.0, 100_000), edges, near])
        codes = classify_array(d)
        assert codes.shape == d.shape
        expected = [
            TokenClass.IMAGE_POSITIVE if v >= POSITIVE_THRESHOLD
            else TokenClass.IMAGE_NEGATIVE if v < NEGATIVE_THRESHOLD
            else TokenClass.IMAGE_INVARIANT
            for v in d.tolist()
        ]
        assert [CLASS_BY_CODE[c] for c in codes.tolist()] == expected

    def test_keeps_the_shape_of_padded_rows(self):
        d = np.array([[0.9, -0.9, 0.0], [0.25, -0.25, 0.0]])
        np.testing.assert_array_equal(classify_array(d), [[2, 0, 1], [2, 1, 1]])

    @pytest.mark.parametrize("bad", [-1.001, 1.001, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            classify_array(np.array([0.0, bad]))


class TestProfileTrace:
    def _trace(self, pairs, **kwargs):
        clean, noisy = zip(*pairs)
        return TokenTrace(
            sample_id="s0",
            tokens=tuple(range(10, 10 + len(pairs))),
            surfaces=tuple(f"t{i}" for i in range(len(pairs))),
            p_clean=tuple(clean),
            p_noisy=tuple(noisy),
            **kwargs,
        )

    def test_three_token_worked_example(self):
        """One strongly visual, one flat, one anti-visual token."""
        trace = self._trace([(0.9, 0.1), (0.5, 0.5), (0.1, 0.9)])
        d = profile_trace(trace)
        np.testing.assert_allclose(d, [8.0 / 9.0, 0.0, -8.0 / 9.0], atol=1e-15)
        assert [CLASS_BY_CODE[c] for c in classify_array(d)] == [
            TokenClass.IMAGE_POSITIVE,
            TokenClass.IMAGE_INVARIANT,
            TokenClass.IMAGE_NEGATIVE,
        ]

    def test_flat_trace_is_all_invariant(self):
        trace = self._trace([(0.2, 0.2)] * 7)
        d = profile_trace(trace)
        assert d.tolist() == [0.0] * 7
        assert all(CLASS_BY_CODE[c] is TokenClass.IMAGE_INVARIANT for c in classify_array(d))

    def test_length_matches_trace(self):
        trace = self._trace([(0.6, 0.3), (0.1, 0.8)])
        assert profile_trace(trace).shape == (2,)

    def test_permuting_tokens_permutes_profile(self):
        rng = np.random.default_rng(42)
        pairs = list(zip(rng.uniform(0, 1, 8), rng.uniform(0, 1, 8)))
        perm = rng.permutation(8)
        base = profile_trace(self._trace(pairs))
        shuffled = profile_trace(self._trace([pairs[i] for i in perm]))
        np.testing.assert_array_equal(shuffled, base[perm])


@settings(max_examples=50)
@given(
    data=st.lists(
        st.tuples(
            st.floats(0.0, 1.0, allow_nan=False),
            st.floats(0.0, 1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=64,
    )
)
def test_profile_matches_pointwise_scores(data):
    """The trace's d array agrees with the scalar definition everywhere."""
    clean, noisy = zip(*data)
    trace = TokenTrace(
        sample_id="s1",
        tokens=tuple(range(len(data))),
        surfaces=tuple("x" for _ in data),
        p_clean=tuple(clean),
        p_noisy=tuple(noisy),
    )
    d = profile_trace(trace)
    codes = classify_array(d)
    for i, (p, q) in enumerate(data):
        assert d[i] == pointwise_d(p, q)
        assert CLASS_BY_CODE[codes[i]] is class_of(d[i])
