"""Tests for hallucination metrics and token-class attribution."""

import numpy as np
import pytest

from visdep.dependence import NEGATIVE_THRESHOLD, POSITIVE_THRESHOLD, TokenClass, classify
from visdep.halleval import (
    ClassDistanceStats,
    ClassObjectCounts,
    CoOccurrenceHistogram,
    HallucinationReport,
    ObjectLexicon,
    class_object_counts,
    co_occurrence,
    evaluate,
)
from visdep.synth import OBJECT_BASE, object_token

LEX = ObjectLexicon.for_token_vocab(40)


def profile_for(d_values):
    """The per-token ``d`` array of one response."""
    return np.asarray(d_values, dtype=np.float64)


def naive_report(responses, truths):
    """Independent recount of every metric with plain loops."""

    def mentioned_objects(resp):
        return [t - OBJECT_BASE for t in resp if OBJECT_BASE <= t < OBJECT_BASE + 40]

    n = len(responses)
    bad_responses = 0
    bad_mentions = 0
    total_mentions = 0
    recalled = 0
    truth_total = 0
    total_len = 0
    for resp, truth in zip(responses, truths):
        truth = set(truth)
        ms = mentioned_objects(resp)
        bad = sum(1 for o in ms if o not in truth)
        bad_mentions += bad
        total_mentions += len(ms)
        if bad > 0:
            bad_responses += 1
        recalled += len(set(ms) & truth)
        truth_total += len(truth)
        total_len += len(resp)
    return {
        "chair_s": bad_responses / n,
        "chair_i": bad_mentions / total_mentions if total_mentions else 0.0,
        "recall": recalled / truth_total if truth_total else 0.0,
        "mean_len": total_len / n,
        "n_samples": n,
    }


class TestObjectLexicon:
    def test_token_lexicon_finds_mentions_in_order(self):
        tokens = [0, object_token(3), 5, object_token(9), 1]
        assert LEX.mentions(tokens) == [(1, 3), (3, 9)]


class TestEvaluate:
    def test_one_bad_response_out_of_two(self):
        responses = [
            [0, object_token(3), 1],
            [0, object_token(8), 1],
        ]
        truths = [{3}, {5}]
        report = evaluate(responses, truths, LEX)
        assert report.chair_s == 0.5
        assert report.chair_i == 0.5
        assert report.n_samples == 2

    def test_all_perfect_responses(self):
        responses = [
            [0, object_token(3), object_token(7), 1],
            [0, object_token(5), 1],
        ]
        truths = [{3, 7}, {5}]
        report = evaluate(responses, truths, LEX)
        assert report.chair_s == 0.0
        assert report.chair_i == 0.0
        assert report.recall == 1.0
        assert report.mean_len == 3.5

    def test_recall_pools_over_all_samples(self):
        """Recall divides recovered objects by total truth objects, not by
        averaging per-sample rates."""
        responses = [
            [object_token(0)],
            [object_token(2)],
        ]
        truths = [{0}, {2, 3, 4}]
        report = evaluate(responses, truths, LEX)
        assert report.recall == pytest.approx(2 / 4)

    def test_repeated_hallucinated_mention_counts_every_time(self):
        responses = [[object_token(9), 4, object_token(9), object_token(1)]]
        report = evaluate(responses, [{1}], LEX)
        assert report.chair_i == pytest.approx(2 / 3)
        assert report.chair_s == 1.0

    def test_no_mentions_at_all(self):
        report = evaluate([[0, 4, 1]], [{3}], LEX)
        assert report.chair_i == 0.0
        assert report.chair_s == 0.0
        assert report.recall == 0.0

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [], LEX)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate([[1]], [{1}, {2}], LEX)

    def test_matches_naive_recount_on_randomized_responses(self):
        """Fifty random responses, recounted independently."""
        rng = np.random.default_rng(42)
        responses, truths = [], []
        for _ in range(50):
            truth = set(int(o) for o in rng.choice(40, size=rng.integers(3, 7), replace=False))
            length = int(rng.integers(1, 25))
            resp = [
                int(object_token(rng.integers(0, 40))) if rng.random() < 0.4 else int(rng.integers(0, 13))
                for _ in range(length)
            ]
            responses.append(resp)
            truths.append(truth)
        report = evaluate(responses, truths, LEX)
        expected = naive_report(responses, truths)
        for field, value in expected.items():
            assert getattr(report, field) == pytest.approx(value, rel=1e-12), field

    def test_adding_a_hallucinated_mention_never_improves_rates(self):
        rng = np.random.default_rng(7)
        responses = [[object_token(int(o)) for o in rng.choice(10, size=3, replace=False)] for _ in range(20)]
        truths = [set(range(10)) for _ in range(20)]
        base = evaluate(responses, truths, LEX)
        worse = [list(r) for r in responses]
        worse[4].append(object_token(30))
        bumped = evaluate(worse, truths, LEX)
        assert bumped.chair_s >= base.chair_s
        assert bumped.chair_i >= base.chair_i


class TestHallucinationReport:
    def test_round_trips_through_dict(self):
        report = HallucinationReport(
            chair_s=0.25, chair_i=0.1, recall=0.8, mean_len=12.5, n_samples=4
        )
        assert HallucinationReport.from_dict(report.to_dict()) == report

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chair_s": 1.5},
            {"chair_i": -0.1},
            {"recall": 2.0},
            {"mean_len": -1.0},
            {"n_samples": 0},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        base = dict(chair_s=0.0, chair_i=0.0, recall=1.0, mean_len=5.0, n_samples=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            HallucinationReport(**base)


class TestSpanClass:
    def test_single_token_span(self):
        """A mention takes the class of its own token."""
        resp = [object_token(1), object_token(2), object_token(3)]
        counts = class_object_counts([profile_for([0.9, 0.0, -0.9])], [resp], [{1, 2, 3}], LEX)
        assert counts.grounded == {cls: 1 for cls in TokenClass}


class TestClassObjectCounts:
    def test_hand_built_tally(self):
        resp = [object_token(3), 5, object_token(8)]
        profile = profile_for([0.9, 0.0, -0.9])
        counts = class_object_counts([profile], [resp], [{3}], LEX)
        assert counts.grounded[TokenClass.IMAGE_POSITIVE] == 1
        assert counts.hallucinated[TokenClass.IMAGE_NEGATIVE] == 1
        assert counts.total_grounded == 1
        assert counts.total_hallucinated == 1

    def test_conserves_evaluate_totals(self):
        """Class tallies partition exactly the mentions evaluate() counts."""
        rng = np.random.default_rng(42)
        responses, truths, profiles = [], [], []
        for i in range(30):
            length = int(rng.integers(2, 15))
            resp = [
                int(object_token(rng.integers(0, 40))) if rng.random() < 0.5 else int(rng.integers(0, 13))
                for _ in range(length)
            ]
            truth = set(int(o) for o in rng.choice(40, size=4, replace=False))
            responses.append(resp)
            truths.append(truth)
            profiles.append(profile_for(rng.uniform(-1, 1, length)))
        counts = class_object_counts(profiles, responses, truths, LEX)
        all_mentions = sum(
            1 for r in responses for t in r if OBJECT_BASE <= t < OBJECT_BASE + 40
        )
        bad_mentions = sum(
            1
            for r, tr in zip(responses, truths)
            for t in r
            if OBJECT_BASE <= t < OBJECT_BASE + 40 and (t - OBJECT_BASE) not in tr
        )
        assert counts.total_grounded + counts.total_hallucinated == all_mentions
        assert counts.total_hallucinated == bad_mentions

    def test_misaligned_profile_rejected(self):
        profile = profile_for([0.5, 0.5])
        with pytest.raises(ValueError):
            class_object_counts([profile], [[object_token(1)]], [{1}], LEX)


class TestCoOccurrence:
    def test_distances_to_each_class(self):
        """A hallucinated mention measures its gap to every class."""
        resp = [object_token(3), 10, 11, object_token(9)]
        profile = profile_for([0.9, 0.0, 0.0, -0.9])
        hist = co_occurrence([profile], [resp], [{3}], LEX, window=3)
        inv = hist.per_class[TokenClass.IMAGE_INVARIANT]
        pos = hist.per_class[TokenClass.IMAGE_POSITIVE]
        neg = hist.per_class[TokenClass.IMAGE_NEGATIVE]
        assert inv.counts[1] == 1      # nearest flat token one slot away
        assert pos.counts[3] == 1      # grounded mention three slots away
        assert neg.counts[0] == 1      # the mention itself is anti-visual

    def test_self_distance_is_zero(self):
        resp = [object_token(5)]
        profile = profile_for([-0.9])
        hist = co_occurrence([profile], [resp], [set()], LEX, window=2)
        assert hist.per_class[TokenClass.IMAGE_NEGATIVE].counts[0] == 1

    def test_absent_class_is_tracked_separately(self):
        """With no positive token anywhere, the mention lands in absent
        and the within-window fraction for that class stays undefined."""
        resp = [object_token(5), 10]
        profile = profile_for([-0.9, 0.0])
        hist = co_occurrence([profile], [resp], [set()], LEX, window=3)
        pos = hist.per_class[TokenClass.IMAGE_POSITIVE]
        assert pos.absent == 1
        assert sum(pos.counts) == 0
        assert pos.fraction_within is None

    def test_beyond_window_mentions_counted(self):
        resp = [object_token(0)] + [10] * 6 + [object_token(9)]
        d = [0.9] + [0.0] * 6 + [-0.9]
        profile = profile_for(d)
        hist = co_occurrence([profile], [resp], [{0}], LEX, window=3)
        pos = hist.per_class[TokenClass.IMAGE_POSITIVE]
        assert pos.beyond == 1
        assert pos.fraction_within == 0.0

    def test_grounded_mentions_are_ignored(self):
        resp = [object_token(3)]
        profile = profile_for([0.9])
        hist = co_occurrence([profile], [resp], [{3}], LEX, window=3)
        assert hist.total_mentions() == 0

    def test_every_mention_lands_somewhere(self):
        """counts + beyond + absent adds up to the hallucinated mentions,
        for every class."""
        rng = np.random.default_rng(42)
        responses, truths, profiles = [], [], []
        for i in range(25):
            length = int(rng.integers(1, 20))
            resp = [
                int(object_token(rng.integers(0, 40))) if rng.random() < 0.5 else int(rng.integers(0, 13))
                for _ in range(length)
            ]
            responses.append(resp)
            truths.append(set(int(o) for o in rng.choice(40, size=3, replace=False)))
            profiles.append(profile_for(rng.uniform(-1, 1, length)))
        hist = co_occurrence(profiles, responses, truths, LEX, window=3)
        halluc = sum(
            1
            for r, tr in zip(responses, truths)
            for t in r
            if OBJECT_BASE <= t < OBJECT_BASE + 40 and (t - OBJECT_BASE) not in tr
        )
        for cls in TokenClass:
            stats = hist.per_class[cls]
            assert sum(stats.counts) + stats.beyond + stats.absent == halluc
        assert hist.total_mentions() == halluc

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError):
            co_occurrence([], [], [], LEX, window=-1)

    def test_rejects_misaligned_profile(self):
        profile = profile_for([0.5])
        with pytest.raises(ValueError):
            co_occurrence([profile], [[1, 2]], [set()], LEX)

    def test_fraction_within_arithmetic(self):
        stats = ClassDistanceStats(counts=(1, 2, 0, 1), beyond=2, absent=5)
        assert stats.fraction_within == pytest.approx(4 / 6)
        empty = ClassDistanceStats(counts=(0, 0), beyond=0, absent=3)
        assert empty.fraction_within is None


def _ref_profile(d):
    """The classes of one response, token by token, through scalar ``classify``."""
    return [classify(float(v)) for v in d]


def _ref_class_object_counts(d_rows, responses, truths, lexicon):
    """Test-local copy of the per-profile tally: one mention, one token's class."""
    grounded = {cls: 0 for cls in TokenClass}
    halluc = {cls: 0 for cls in TokenClass}
    for d, resp, truth in zip(d_rows, responses, truths):
        classes = _ref_profile(d)
        for pos, obj in lexicon.mentions(resp):
            (grounded if obj in truth else halluc)[classes[pos]] += 1
    return ClassObjectCounts(grounded=grounded, hallucinated=halluc)


def _ref_co_occurrence(d_rows, responses, truths, lexicon, window):
    """Test-local copy of the per-profile histogram, nearest token by brute force."""
    counts = {cls: [0] * (window + 1) for cls in TokenClass}
    beyond = {cls: 0 for cls in TokenClass}
    absent = {cls: 0 for cls in TokenClass}
    for d, resp, truth in zip(d_rows, responses, truths):
        classes = _ref_profile(d)
        for pos, obj in lexicon.mentions(resp):
            if obj in truth:
                continue
            for cls in TokenClass:
                gaps = [abs(q - pos) for q, c in enumerate(classes) if c is cls]
                if not gaps:
                    absent[cls] += 1
                elif min(gaps) <= window:
                    counts[cls][min(gaps)] += 1
                else:
                    beyond[cls] += 1
    per_class = {
        cls: ClassDistanceStats(counts=tuple(counts[cls]), beyond=beyond[cls], absent=absent[cls])
        for cls in TokenClass
    }
    return CoOccurrenceHistogram(window=window, per_class=per_class)


class TestArrayAttributionMatchesProfiles:
    """``class_object_counts`` and ``co_occurrence`` on d arrays give what the
    per-profile versions gave, thresholds and their neighbours included."""

    @pytest.fixture(scope="class")
    def sample(self):
        rng = np.random.default_rng(17)
        edges = [POSITIVE_THRESHOLD, NEGATIVE_THRESHOLD]
        edges += [float(np.nextafter(e, to)) for e in (POSITIVE_THRESHOLD, NEGATIVE_THRESHOLD) for to in (-1, 1)]
        responses, truths, d_rows = [], [], []
        for _ in range(300):
            length = int(rng.integers(1, 25))
            responses.append(
                [int(object_token(rng.integers(0, 40))) if rng.random() < 0.4 else int(rng.integers(0, 13))
                 for _ in range(length)]
            )
            truths.append(set(int(o) for o in rng.choice(40, size=5, replace=False)))
            d = rng.uniform(-1, 1, length)
            at_edge = rng.random(length) < 0.3
            d[at_edge] = rng.choice(edges, int(at_edge.sum()))
            d_rows.append(d)
        return d_rows, responses, truths

    def test_class_object_counts(self, sample):
        d_rows, responses, truths = sample
        got = class_object_counts(d_rows, responses, truths, LEX)
        assert got == _ref_class_object_counts(d_rows, responses, truths, LEX)
        assert got.total_grounded > 50 and got.total_hallucinated > 50

    @pytest.mark.parametrize("window", [0, 3, 8])
    def test_co_occurrence(self, sample, window):
        d_rows, responses, truths = sample
        got = co_occurrence(d_rows, responses, truths, LEX, window=window)
        assert got == _ref_co_occurrence(d_rows, responses, truths, LEX, window)
