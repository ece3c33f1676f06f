"""Tests for hallucination metrics and token-class attribution."""

import numpy as np
import pytest

from visdep.cli import _fraction_within
from visdep.dependence import NEGATIVE_THRESHOLD, POSITIVE_THRESHOLD, TokenClass
from visdep.halleval import HallucinationReport, class_object_counts, co_occurrence, evaluate
from visdep.synth import OBJECT_BASE, object_token

V_OBJ = 40
# Rows of both tallies, in ``TokenClass`` order; columns of ``class_object_counts``.
POS, INV, NEG = map(
    list(TokenClass).index, (TokenClass.IMAGE_POSITIVE, TokenClass.IMAGE_INVARIANT, TokenClass.IMAGE_NEGATIVE)
)
GROUNDED, HALLUCINATED = 0, 1


def padded(rows, fill=0, dtype=np.int64):
    """Variable-length rows stacked into an (n, T) array, ``fill`` past each length."""
    out = np.full((len(rows), max(map(len, rows), default=0)), fill, dtype=dtype)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def batch(responses, truths, fill=0):
    """(tokens, lengths, truth) of a padded batch, as ``evaluate`` takes it."""
    truth = np.zeros((len(truths), V_OBJ), dtype=bool)
    for i, objs in enumerate(truths):
        truth[i, list(objs)] = True
    return padded(responses, fill), np.array([len(r) for r in responses], dtype=np.int64), truth


def d_batch(d_rows, fill=0.0):
    """The per-token ``d`` of each response, padded like ``batch``."""
    return padded(d_rows, fill, np.float64)


def mentions(resp):
    """(position, object id) of every object mention, in order."""
    return [(pos, t - OBJECT_BASE) for pos, t in enumerate(resp) if OBJECT_BASE <= t < OBJECT_BASE + V_OBJ]


def landed(row):
    """Every hallucinated mention one class's ``co_occurrence`` row accounts for."""
    return int(row.sum())


def naive_report(responses, truths):
    """Independent recount of every metric with plain loops."""
    n = len(responses)
    bad_responses = 0
    bad_mentions = 0
    total_mentions = 0
    recalled = 0
    truth_total = 0
    total_len = 0
    for resp, truth in zip(responses, truths):
        truth = set(truth)
        ms = [obj for _, obj in mentions(resp)]
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


class TestEvaluate:
    def test_one_bad_response_out_of_two(self):
        responses = [
            [0, object_token(3), 1],
            [0, object_token(8), 1],
        ]
        truths = [{3}, {5}]
        report = evaluate(*batch(responses, truths))
        assert report.chair_s == 0.5
        assert report.chair_i == 0.5
        assert report.n_samples == 2

    def test_all_perfect_responses(self):
        responses = [
            [0, object_token(3), object_token(7), 1],
            [0, object_token(5), 1],
        ]
        truths = [{3, 7}, {5}]
        report = evaluate(*batch(responses, truths))
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
        report = evaluate(*batch(responses, truths))
        assert report.recall == pytest.approx(2 / 4)

    def test_repeated_hallucinated_mention_counts_every_time(self):
        responses = [[object_token(9), 4, object_token(9), object_token(1)]]
        report = evaluate(*batch(responses, [{1}]))
        assert report.chair_i == pytest.approx(2 / 3)
        assert report.chair_s == 1.0

    def test_no_mentions_at_all(self):
        report = evaluate(*batch([[0, 4, 1]], [{3}]))
        assert report.chair_i == 0.0
        assert report.chair_s == 0.0
        assert report.recall == 0.0

    def test_token_past_the_object_vocabulary_is_no_mention(self):
        report = evaluate(*batch([[object_token(V_OBJ), object_token(V_OBJ - 1)]], [set()]))
        assert report.chair_i == 1.0
        assert report == evaluate(*batch([[0, object_token(V_OBJ - 1)]], [set()]))

    def test_padding_holds_no_mention(self):
        """Object ids past each length, hallucinated or grounded, count for nothing."""
        responses = [[object_token(3)], [0, 4, 1], [object_token(7), 2]]
        truths = [{3}, {5}, {7}]
        clean = evaluate(*batch(responses, truths))
        for fill in (object_token(3), object_token(5), object_token(30)):
            assert evaluate(*batch(responses, truths, fill=fill)) == clean
        assert clean.chair_s == 0.0 and clean.recall == pytest.approx(2 / 3)

    def test_rows_of_length_one(self):
        responses = [[object_token(1)], [object_token(2)], [4], [object_token(9)]]
        truths = [{1}, {3}, {4}, {9, 10}]
        report = evaluate(*batch(responses, truths, fill=object_token(2)))
        assert report.chair_s == 0.25
        assert report.chair_i == pytest.approx(1 / 3)
        assert report.recall == pytest.approx(2 / 5)
        assert report.mean_len == 1.0

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="zero samples"):
            evaluate(np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, V_OBJ), dtype=bool))

    def test_length_mismatch_rejected(self):
        tokens, lengths, _ = batch([[1]], [{1}])
        with pytest.raises(ValueError):
            evaluate(tokens, lengths, batch([[1], [2]], [{1}, {2}])[2])

    @pytest.mark.parametrize(
        "edit",
        [
            lambda tokens, lengths, truth: (tokens, lengths, truth[:1]),
            lambda tokens, lengths, truth: (tokens, lengths[:1], truth),
            lambda tokens, lengths, truth: (tokens[0], lengths, truth),
            lambda tokens, lengths, truth: (tokens, lengths, truth[0]),
            lambda tokens, lengths, truth: (tokens, lengths + 1, truth),
            lambda tokens, lengths, truth: (tokens, lengths - 2, truth),
        ],
        ids=["truth-rows", "lengths-rows", "tokens-1d", "truth-1d", "length-past-width", "negative-length"],
    )
    def test_misshapen_batch_rejected(self, edit):
        args = batch([[object_token(1), 4], [1]], [{1}, {2}])
        with pytest.raises(ValueError):
            evaluate(*edit(*args))

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
        report = evaluate(*batch(responses, truths))
        expected = naive_report(responses, truths)
        for field, value in expected.items():
            assert getattr(report, field) == pytest.approx(value, rel=1e-12), field

    def test_adding_a_hallucinated_mention_never_improves_rates(self):
        rng = np.random.default_rng(7)
        responses = [[object_token(int(o)) for o in rng.choice(10, size=3, replace=False)] for _ in range(20)]
        truths = [set(range(10)) for _ in range(20)]
        base = evaluate(*batch(responses, truths))
        worse = [list(r) for r in responses]
        worse[4].append(object_token(30))
        bumped = evaluate(*batch(worse, truths))
        assert bumped.chair_s >= base.chair_s
        assert bumped.chair_i >= base.chair_i


class TestHallucinationReport:
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
        counts = class_object_counts(d_batch([[0.9, 0.0, -0.9]]), *batch([resp], [{1, 2, 3}]))
        assert counts[:, GROUNDED].tolist() == [1, 1, 1]


class TestClassObjectCounts:
    def test_hand_built_tally(self):
        resp = [object_token(3), 5, object_token(8)]
        counts = class_object_counts(d_batch([[0.9, 0.0, -0.9]]), *batch([resp], [{3}]))
        assert counts[POS, GROUNDED] == 1
        assert counts[NEG, HALLUCINATED] == 1
        assert counts[:, GROUNDED].sum() == 1
        assert counts[:, HALLUCINATED].sum() == 1

    def test_lists_the_classes_in_enum_order(self):
        counts = class_object_counts(d_batch([[0.9]]), *batch([[object_token(3)]], [{3}]))
        assert [cls.value for cls in TokenClass] == ["positive", "invariant", "negative"]
        assert counts.tolist() == [[1, 0], [0, 0], [0, 0]]

    def test_conserves_evaluate_totals(self):
        """Class tallies partition exactly the mentions evaluate() counts."""
        rng = np.random.default_rng(42)
        responses, truths, d_rows = [], [], []
        for i in range(30):
            length = int(rng.integers(2, 15))
            resp = [
                int(object_token(rng.integers(0, 40))) if rng.random() < 0.5 else int(rng.integers(0, 13))
                for _ in range(length)
            ]
            truth = set(int(o) for o in rng.choice(40, size=4, replace=False))
            responses.append(resp)
            truths.append(truth)
            d_rows.append(rng.uniform(-1, 1, length))
        counts = class_object_counts(d_batch(d_rows), *batch(responses, truths))
        all_mentions = sum(
            1 for r in responses for t in r if OBJECT_BASE <= t < OBJECT_BASE + 40
        )
        bad_mentions = sum(
            1
            for r, tr in zip(responses, truths)
            for t in r
            if OBJECT_BASE <= t < OBJECT_BASE + 40 and (t - OBJECT_BASE) not in tr
        )
        assert counts.sum() == all_mentions
        assert counts[:, HALLUCINATED].sum() == bad_mentions

    def test_misaligned_profile_rejected(self):
        with pytest.raises(ValueError, match="does not align"):
            class_object_counts(d_batch([[0.5, 0.5]]), *batch([[object_token(1)]], [{1}]))

    def test_zero_samples_rejected(self):
        empty = np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, V_OBJ), dtype=bool)
        with pytest.raises(ValueError, match="zero samples"):
            class_object_counts(np.zeros((0, 2)), *empty)


class TestCoOccurrence:
    def test_distances_to_each_class(self):
        """A hallucinated mention measures its gap to every class."""
        resp = [object_token(3), 10, 11, object_token(9)]
        hist = co_occurrence(d_batch([[0.9, 0.0, 0.0, -0.9]]), *batch([resp], [{3}]), window=3)
        assert hist.shape == (3, 3 + 3)
        assert hist[INV, 1] == 1      # nearest flat token one slot away
        assert hist[POS, 3] == 1      # grounded mention three slots away
        assert hist[NEG, 0] == 1      # the mention itself is anti-visual

    def test_self_distance_is_zero(self):
        hist = co_occurrence(d_batch([[-0.9]]), *batch([[object_token(5)]], [set()]), window=2)
        assert hist[NEG, 0] == 1

    def test_absent_class_is_tracked_separately(self):
        """With no positive token anywhere, the mention lands in absent
        and the within-window fraction for that class stays undefined."""
        resp = [object_token(5), 10]
        hist = co_occurrence(d_batch([[-0.9, 0.0]]), *batch([resp], [set()]), window=3)
        assert hist[POS, -1] == 1
        assert hist[POS, :4].sum() == 0
        assert _fraction_within(hist[POS].tolist()) is None

    def test_another_responses_tokens_are_not_near(self):
        """The nearest token of a class is looked for in the mention's own
        response only, never in another row or past the row's length."""
        responses = [[object_token(5), 10], [10, 11, 12]]
        d = d_batch([[-0.9, 0.0], [0.9, 0.9, 0.9]], fill=0.9)
        hist = co_occurrence(d, *batch(responses, [set(), set()], fill=object_token(3)), window=3)
        assert hist[POS, -1] == 1
        assert hist[INV, 1] == 1

    def test_beyond_window_mentions_counted(self):
        resp = [object_token(0)] + [10] * 6 + [object_token(9)]
        d = [0.9] + [0.0] * 6 + [-0.9]
        hist = co_occurrence(d_batch([d]), *batch([resp], [{0}]), window=3)
        assert hist[POS, -2] == 1
        assert _fraction_within(hist[POS].tolist()) == 0.0

    def test_grounded_mentions_are_ignored(self):
        hist = co_occurrence(d_batch([[0.9]]), *batch([[object_token(3)]], [{3}]), window=3)
        assert all(landed(row) == 0 for row in hist)

    def test_every_mention_lands_somewhere(self):
        """counts + beyond + absent adds up to the hallucinated mentions,
        for every class."""
        rng = np.random.default_rng(42)
        responses, truths, d_rows = [], [], []
        for i in range(25):
            length = int(rng.integers(1, 20))
            resp = [
                int(object_token(rng.integers(0, 40))) if rng.random() < 0.5 else int(rng.integers(0, 13))
                for _ in range(length)
            ]
            responses.append(resp)
            truths.append(set(int(o) for o in rng.choice(40, size=3, replace=False)))
            d_rows.append(rng.uniform(-1, 1, length))
        hist = co_occurrence(d_batch(d_rows), *batch(responses, truths), window=3)
        halluc = sum(
            1
            for r, tr in zip(responses, truths)
            for t in r
            if OBJECT_BASE <= t < OBJECT_BASE + 40 and (t - OBJECT_BASE) not in tr
        )
        for row in hist:
            assert landed(row) == halluc

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match="window"):
            co_occurrence(d_batch([[0.5]]), *batch([[object_token(1)]], [set()]), window=-1)

    def test_rejects_misaligned_profile(self):
        with pytest.raises(ValueError, match="does not align"):
            co_occurrence(d_batch([[0.5]]), *batch([[1, 2]], [set()]))

    def test_zero_samples_rejected(self):
        empty = np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, V_OBJ), dtype=bool)
        with pytest.raises(ValueError, match="zero samples"):
            co_occurrence(np.zeros((0, 2)), *empty)

    def test_fraction_within_arithmetic(self):
        """``cooccurrence.csv``'s share: counts 0..window over those plus beyond; absent is left out."""
        assert _fraction_within([1, 2, 0, 1, 2, 5]) == pytest.approx(4 / 6)
        assert _fraction_within([0, 0, 0, 3]) is None


def _ref_profile(d):
    """The classes of one response, token by token, from the thresholds."""
    return [
        TokenClass.IMAGE_POSITIVE if v >= POSITIVE_THRESHOLD
        else TokenClass.IMAGE_NEGATIVE if v < NEGATIVE_THRESHOLD
        else TokenClass.IMAGE_INVARIANT
        for v in map(float, d)
    ]


def _ref_class_object_counts(d_rows, responses, truths):
    """Test-local per-response tally: one mention, one token's class."""
    counts = [[0, 0] for _ in TokenClass]
    for d, resp, truth in zip(d_rows, responses, truths):
        classes = _ref_profile(d)
        for pos, obj in mentions(resp):
            counts[list(TokenClass).index(classes[pos])][GROUNDED if obj in truth else HALLUCINATED] += 1
    return counts


def _ref_co_occurrence(d_rows, responses, truths, window):
    """Test-local per-response histogram, nearest token by brute force."""
    rows = [[0] * (window + 3) for _ in TokenClass]  # distances 0..window, beyond, absent
    for d, resp, truth in zip(d_rows, responses, truths):
        classes = _ref_profile(d)
        for pos, obj in mentions(resp):
            if obj in truth:
                continue
            for row, cls in zip(rows, TokenClass):
                gaps = [abs(q - pos) for q, c in enumerate(classes) if c is cls]
                if not gaps:
                    row[-1] += 1
                elif min(gaps) <= window:
                    row[min(gaps)] += 1
                else:
                    row[-2] += 1
    return rows


# (token, d) written past each length: nothing, a grounded-looking object of
# the positive class, and an out-of-truth object of the negative class.
PADDING = [(0, 0.0), (object_token(0), 0.9), (object_token(39), -0.9)]


class TestArrayAttributionMatchesProfiles:
    """``class_object_counts`` and ``co_occurrence`` on padded arrays give
    what per-response loops give, thresholds and their neighbours included,
    whatever the padding past each length holds."""

    @pytest.fixture(scope="class")
    def sample(self):
        rng = np.random.default_rng(17)
        edges = [POSITIVE_THRESHOLD, NEGATIVE_THRESHOLD]
        edges += [float(np.nextafter(e, to)) for e in (POSITIVE_THRESHOLD, NEGATIVE_THRESHOLD) for to in (-1, 1)]
        responses, truths, d_rows = [], [], []
        for i in range(300):
            length = 1 if i % 10 == 0 else int(rng.integers(1, 25))
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
        got = class_object_counts(d_batch(d_rows), *batch(responses, truths))
        assert got.shape == (3, 2) and got.dtype == np.int64
        assert got.tolist() == _ref_class_object_counts(d_rows, responses, truths)
        assert got[:, GROUNDED].sum() > 50 and got[:, HALLUCINATED].sum() > 50

    @pytest.mark.parametrize("window", [0, 1, 3, 8])
    def test_co_occurrence(self, sample, window):
        d_rows, responses, truths = sample
        got = co_occurrence(d_batch(d_rows), *batch(responses, truths), window=window)
        assert got.shape == (3, window + 3) and got.dtype == np.int64
        assert got.tolist() == _ref_co_occurrence(d_rows, responses, truths, window)

    @pytest.mark.parametrize("token_fill,d_fill", PADDING, ids=["zeros", "grounded-positive", "hallucinated-negative"])
    def test_padding_counts_for_nothing(self, sample, token_fill, d_fill):
        d_rows, responses, truths = sample
        d, args = d_batch(d_rows, d_fill), batch(responses, truths, token_fill)
        assert evaluate(*args).to_dict() == pytest.approx(naive_report(responses, truths), rel=1e-12)
        assert class_object_counts(d, *args).tolist() == _ref_class_object_counts(d_rows, responses, truths)
        for window in (0, 3):
            got = co_occurrence(d, *args, window=window).tolist()
            assert got == _ref_co_occurrence(d_rows, responses, truths, window)
