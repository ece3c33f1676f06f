"""Tests for the synthetic scene/caption corpus generator."""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visdep.synth import (
    BOS_ID,
    EOS_ID,
    MAX_OBJECTS,
    MIN_OBJECTS,
    OBJECT_BASE,
    Corpus,
    CorpusConfig,
    build_caption,
    generate_corpus,
    groundable_objects,
    object_token,
    read_corpus,
    surface,
    surfaces_for,
    train_test_split,
    vocab_size,
    write_corpus,
)
from visdep.seeding import rng_for


def small_corpus(n=300, **overrides):
    return generate_corpus(CorpusConfig(num_scenes=n, seed=42, **overrides))


def expected_hallucination_fraction(cfg: CorpusConfig) -> float:
    """Analytic expected share of hallucinated mentions among all mentions.

    Object sets are uniform k-subsets of the groundable objects, so a
    given trigger is present with probability k/n; its pair then fires
    independently with probability p * rate.  Averaging over k uniform on
    {3..6} gives the expected insertions per scene, and each insertion
    adds exactly one mention.
    """
    groundable = set(groundable_objects(cfg))
    ks = list(range(MIN_OBJECTS, MAX_OBJECTS + 1))
    mean_k = sum(ks) / len(ks)
    p_present = mean_k / len(groundable)
    expected_ins = sum(
        p * cfg.hallucination_rate * p_present
        for a, _, p in cfg.bias_pairs
        if a in groundable
    )
    return expected_ins / (mean_k + expected_ins)


def assert_corpus_matches(corpus: Corpus, expected: Corpus) -> None:
    """The two corpora hold the same arrays, field by field, dtypes included."""
    for name, a in vars(corpus).items():
        b = getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert all(type(sid) is str for sid in corpus.scene_ids)


def mentions(caption) -> list[int]:
    """The object ids a caption mentions, in caption order."""
    return [t - OBJECT_BASE for t in caption if t >= OBJECT_BASE]


def scenes(corpus: Corpus):
    """Each row's caption, true objects, inserted positions and feature, as lists."""
    for caption, n, truth, inserted, feature in zip(
        corpus.captions.tolist(), corpus.lengths.tolist(), corpus.truth, corpus.inserted, corpus.features.tolist()
    ):
        yield caption[:n], np.flatnonzero(truth).tolist(), np.flatnonzero(inserted).tolist(), feature


class TestTokenMapping:
    def test_vocab_size_counts_all_tokens(self):
        assert vocab_size(40) == OBJECT_BASE + 40

    def test_surfaces(self):
        assert surface(BOS_ID, 40) == "<bos>"
        assert surface(EOS_ID, 40) == "<eos>"
        assert surface(object_token(0), 40) != ""

    def test_surfaces_are_distinct_per_object(self):
        names = {surface(object_token(o), 40) for o in range(40)}
        assert len(names) == 40

    def test_surfaces_for_matches_scalar(self):
        tokens = (BOS_ID, object_token(3), EOS_ID)
        assert surfaces_for(tokens, 40) == tuple(surface(t, 40) for t in tokens)


class TestSceneInvariants:
    def test_object_count_range(self):
        counts = small_corpus().truth.sum(axis=1)
        assert np.all((MIN_OBJECTS <= counts) & (counts <= MAX_OBJECTS))

    def test_true_objects_sorted_unique_and_groundable(self):
        cfg = CorpusConfig(num_scenes=200, seed=42)
        allowed = set(groundable_objects(cfg))
        for _, objs, _, _ in scenes(generate_corpus(cfg)):
            assert objs == sorted(set(objs))
            assert set(objs) <= allowed

    def test_caption_brackets(self):
        for caption, _, _, _ in scenes(small_corpus()):
            assert caption[0] == BOS_ID
            assert caption[-1] == EOS_ID
            assert caption.count(BOS_ID) == 1
            assert caption.count(EOS_ID) == 1

    def test_each_mentioned_object_appears_exactly_once(self):
        for caption, _, _, _ in scenes(small_corpus()):
            mentioned = mentions(caption)
            assert len(mentioned) == len(set(mentioned))

    def test_mentions_are_true_objects_plus_labelled_hallucinations(self):
        """Every object mention is either grounded or flagged, never both."""
        for caption, objs, positions, _ in scenes(small_corpus()):
            halluc = set(mentions(caption[p] for p in positions))
            grounded = mentions(t for i, t in enumerate(caption) if i not in positions)
            assert set(grounded) == set(objs)
            assert halluc.isdisjoint(objs)

    def test_hallucinated_positions_point_at_object_tokens(self):
        for caption, _, positions, _ in scenes(small_corpus()):
            for pos in positions:
                assert caption[pos] >= OBJECT_BASE

    def test_feature_thresholding_recovers_object_set(self):
        """A 0.5 threshold on the jittered multi-hot decodes the scene."""
        corpus = small_corpus()
        np.testing.assert_array_equal(corpus.features > 0.5, corpus.truth)

    def test_surfaces_parallel_to_caption(self, tmp_path):
        cfg = CorpusConfig(num_scenes=50, seed=42)
        write_corpus(generate_corpus(cfg), tmp_path / "corpus.jsonl")
        for line in (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            assert tuple(record["caption_surfaces"]) == surfaces_for(record["caption"], cfg.vocab_objects)

    def test_inserted_mentions_ride_the_marker_phrase(self):
        """Each flagged mention is preceded by the fixed three-word cue."""
        found = 0
        for caption, _, positions, _ in scenes(small_corpus()):
            for pos in positions:
                assert surfaces_for(caption[pos - 3 : pos], 40) == ("also", "there", "is")
                found += 1
        assert found > 0

    def test_marker_word_is_reserved_for_insertions(self):
        """Bias-free captions never use the cue word in filler."""
        for caption, _, _, _ in scenes(small_corpus(hallucination_rate=0.0)):
            assert "also" not in surfaces_for(caption, 40)


class TestHallucinationControls:
    def test_zero_rate_gives_zero_hallucinations(self):
        assert not small_corpus(hallucination_rate=0.0).inserted.any()

    def test_certain_pair_always_fires(self):
        """With pair probability 1 and rate 1, every scene containing the
        trigger (and lacking the partner) mentions the partner."""
        cfg = CorpusConfig(
            num_scenes=200,
            bias_pairs=((0, 39, 1.0),),
            hallucination_rate=1.0,
            seed=42,
        )
        fired = 0
        for caption, objs, positions, _ in scenes(generate_corpus(cfg)):
            if 0 in objs:
                assert 39 in mentions(caption)
                assert len(positions) == 1
                fired += 1
            else:
                assert positions == []
        assert fired > 0

    def test_partners_never_appear_in_scenes(self):
        cfg = CorpusConfig(num_scenes=100, seed=42)
        partners = [b for _, b, _ in cfg.bias_pairs]
        assert not generate_corpus(cfg).truth[:, partners].any()

    def test_observed_fraction_matches_analytic(self):
        """Empirical hallucinated-mention share at 5000 scenes lands within
        2% (relative) of the closed-form expectation."""
        cfg = CorpusConfig(num_scenes=5000, seed=42)
        corpus = generate_corpus(cfg)
        halluc = np.count_nonzero(corpus.inserted)
        mentioned = np.count_nonzero(corpus.captions >= OBJECT_BASE)
        observed = halluc / mentioned
        assert observed == pytest.approx(expected_hallucination_fraction(cfg), rel=0.02)

    def test_analytic_fraction_scales_with_rate(self):
        lo = expected_hallucination_fraction(
            CorpusConfig(num_scenes=1, hallucination_rate=0.2)
        )
        hi = expected_hallucination_fraction(
            CorpusConfig(num_scenes=1, hallucination_rate=0.8)
        )
        assert 0.0 < lo < hi < 1.0

    def test_zero_rate_analytic_fraction_is_zero(self):
        assert expected_hallucination_fraction(
            CorpusConfig(num_scenes=1, hallucination_rate=0.0)
        ) == 0.0


class TestDeterminism:
    def test_same_config_same_corpus(self):
        assert_corpus_matches(small_corpus(100), small_corpus(100))

    def test_different_seed_differs(self):
        a = generate_corpus(CorpusConfig(num_scenes=50, seed=1))
        b = generate_corpus(CorpusConfig(num_scenes=50, seed=2))
        assert not np.array_equal(a.features, b.features)
        assert not np.array_equal(a.truth, b.truth)

    def test_write_is_byte_deterministic(self, tmp_path):
        corpus = small_corpus(40)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(corpus, p1)
        write_corpus(corpus, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_generated_bytes_are_pinned(self, tmp_path):
        """The generator's output, not only its agreement with itself: any
        change to a feature value, a caption or the record format moves this
        digest, and with it every corpus a seed names."""
        path = tmp_path / "corpus.jsonl"
        write_corpus(generate_corpus(CorpusConfig(num_scenes=50, seed=1)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "bf38bbef1ef29134233a34b89bd148fc125bd702c05dfc2efb2031e11d920ab3"

    def test_round_trip(self, tmp_path):
        corpus = small_corpus(40)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        assert_corpus_matches(read_corpus(path), corpus)

    def test_read_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"scene_id": oops\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":1"):
            read_corpus(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda r: {**r, "true_objects": 5}, "scene 'scene-000001': true_objects must be a list"),
            (lambda r: {**r, "feature": None}, "scene 'scene-000001': feature must be a list"),
            (lambda r: {**r, "feature": [None] * len(r["feature"])}, ".*feature holds None, not a number"),
            (lambda r: {**r, "scene_id": 5}, "scene_id must be a non-empty string"),
            (lambda r: {k: v for k, v in r.items() if k != "caption"}, ".*caption must be a list"),
            (lambda r: [1, 2], "scene record must be a JSON object"),
            (lambda r: {**r, "true_objects": [99]}, r".*object id 99 outside \[0, 40\)"),
            (lambda r: {**r, "true_objects": [-1]}, r".*object id -1 outside \[0, 40\)"),
            (lambda r: {**r, "feature": r["feature"][:-1]}, "feature has 39 values, the first scene's has 40"),
            (lambda r: {**r, "feature": r["feature"] + [0.0]}, "feature has 41 values, the first scene's has 40"),
            (lambda r: {**r, "true_objects": [0.7]}, ".*true_objects holds 0.7, not an integer"),
            (lambda r: {**r, "true_objects": [True]}, ".*true_objects holds True, not an integer"),
            (lambda r: {**r, "caption": ["3"] + r["caption"][1:]}, ".*caption holds '3', not an integer"),
            (lambda r: {**r, "feature": ["0.5"] + r["feature"][1:]}, ".*feature holds '0.5', not a number"),
            (lambda r: {**r, "feature": [False] + r["feature"][1:]}, ".*feature holds False, not a number"),
            (lambda r: {**r, "feature": [float("nan")] + r["feature"][1:]}, ".*feature holds nan, not a finite number"),
            (lambda r: {**r, "feature": [float("-inf")] + r["feature"][1:]}, ".*feature holds -inf, not a finite number"),
            (lambda r: {**r, "feature": [10**400] + r["feature"][1:]}, "int too large"),
            (lambda r: {**r, "caption_surfaces": [0] + r["caption_surfaces"][1:]}, ".*caption_surfaces holds 0, not a string"),
            (lambda r: {**r, "hallucinated_positions": [1.9]}, ".*hallucinated_positions holds 1.9, not an integer"),
            (lambda r: {**r, "scene_id": ""}, "scene_id must be a non-empty string"),
            (lambda r: {**r, "caption_surfaces": r["caption_surfaces"][:-1]}, ".*caption/surface length mismatch"),
            (lambda r: {**r, "hallucinated_positions": [len(r["caption"])]}, ".*hallucinated position \\d+ out of range"),
            (lambda r: {**r, "caption": r["caption"][:-1] + [53]}, r".*caption token 53 outside \[0, 53\)"),
            (lambda r: {**r, "caption": [-1] + r["caption"][1:]}, r".*caption token -1 outside \[0, 53\)"),
            (lambda r: {**r, "caption": [10**30] + r["caption"][1:]}, r".*caption token 10{30} outside \[0, 53\)"),
            (lambda r: {**r, "caption": r["caption"][1:], "caption_surfaces": r["caption_surfaces"][1:],
                        "hallucinated_positions": []}, r".*caption does not start with BOS \(0\)"),
            (lambda r: {**r, "caption": [0], "caption_surfaces": ["<bos>"], "hallucinated_positions": []},
             ".*caption holds no token after BOS"),
        ],
        ids=[
            "objects-int", "feature-null", "feature-null-element", "id-int", "no-caption", "not-an-object",
            "object-id-outside-feature", "negative-object-id", "short-feature", "long-feature",
            "float-object-id", "boolean-object-id", "string-token", "string-feature", "boolean-feature",
            "nan-feature", "infinite-feature", "huge-integer-feature", "integer-surface", "float-position",
            "empty-id", "surface-count", "position-past-caption", "token-past-vocabulary", "negative-token",
            "huge-token", "caption-without-bos", "caption-of-bos-alone",
        ],
    )
    def test_read_rejects_a_malformed_record_with_its_line(self, tmp_path, edit, message):
        path = tmp_path / "bad.jsonl"
        write_corpus(small_corpus(3), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:2: " + message):
            read_corpus(path)

    def test_read_rejects_a_repeated_scene_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_corpus(small_corpus(3).take([0, 1, 2, 0]), path)
        with pytest.raises(ValueError, match="dup.jsonl:4: duplicate scene_id 'scene-000000' \\(first on line 1\\)"):
            read_corpus(path)


class TestTrainTestSplit:
    def test_split_sizes_and_disjointness(self):
        corpus = small_corpus(100)
        train, test = train_test_split(corpus, 0.2, seed=42)
        assert len(train) == 80
        assert len(test) == 20
        train_ids = set(train.scene_ids)
        test_ids = set(test.scene_ids)
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == set(corpus.scene_ids)

    def test_same_seed_same_split(self):
        corpus = small_corpus(100)
        a, b = train_test_split(corpus, 0.2, 7), train_test_split(corpus, 0.2, 7)
        for half_a, half_b in zip(a, b):
            assert half_a.scene_ids.tolist() == half_b.scene_ids.tolist()

    def test_halves_are_the_input_scenes_in_corpus_order(self):
        corpus = small_corpus(100)
        train, test = train_test_split(corpus, 0.2, seed=42)
        held_out = np.isin(corpus.scene_ids, test.scene_ids)
        assert_corpus_matches(train, corpus.take(~held_out))
        assert_corpus_matches(test, corpus.take(held_out))

    def test_test_scenes_keep_objects_and_features(self):
        corpus = small_corpus(100)
        _, test = train_test_split(corpus, 0.2, seed=42)
        row = {sid: i for i, sid in enumerate(corpus.scene_ids)}
        for sid, truth, feature in zip(test.scene_ids, test.truth, test.features):
            np.testing.assert_array_equal(truth, corpus.truth[row[sid]])
            np.testing.assert_array_equal(feature, corpus.features[row[sid]])

    def test_held_out_rows_are_the_seeded_permutation(self):
        """The parent's split of a scene list, kept by index: the first
        round(0.2 n) entries of the seeded permutation are held out."""
        corpus = small_corpus(100)
        _, test = train_test_split(corpus, 0.2, seed=42)
        held_out = sorted(rng_for(42, "split").permutation(100)[:20].tolist())
        assert test.scene_ids.tolist() == corpus.scene_ids[held_out].tolist()

    def test_rejects_degenerate_fractions(self):
        corpus = small_corpus(10)
        with pytest.raises(ValueError):
            train_test_split(corpus, 0.0, seed=42)
        with pytest.raises(ValueError):
            train_test_split(corpus, 1.0, seed=42)
        with pytest.raises(ValueError):
            train_test_split(corpus, 0.01, seed=42)


class TestBuildCaption:
    def test_no_bias_caption_lists_exactly_true_objects(self):
        rng = rng_for(42, "caption-test")
        caption, halluc = build_caption(rng, (3, 7, 11), (), 0.0)
        assert halluc == ()
        assert sorted(mentions(caption)) == [3, 7, 11]

    def test_mentions_separated_by_fixed_gap(self):
        rng = rng_for(42, "gap-test")
        caption, _ = build_caption(rng, (3, 7, 11), (), 0.0)
        positions = [i for i, t in enumerate(caption) if t >= OBJECT_BASE]
        gaps = np.diff(positions)
        assert np.all(gaps == gaps[0])


class TestConfigValidation:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            CorpusConfig(num_scenes=1, hallucination_rate=1.5)

    def test_rejects_zero_jitter(self):
        with pytest.raises(ValueError):
            CorpusConfig(num_scenes=1, sigma_jitter=0.0)

    def test_rejects_wide_jitter(self):
        with pytest.raises(ValueError):
            CorpusConfig(num_scenes=1, sigma_jitter=0.3)

    def test_rejects_duplicate_partners(self):
        with pytest.raises(ValueError):
            CorpusConfig(num_scenes=1, bias_pairs=((0, 20, 0.5), (1, 20, 0.5)))

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            CorpusConfig(num_scenes=1, bias_pairs=((5, 5, 0.5),))

    def test_rejects_out_of_vocab_pair(self):
        with pytest.raises(ValueError):
            CorpusConfig(num_scenes=1, bias_pairs=((0, 40, 0.5),))

    def test_rejects_bad_pair_probability(self):
        with pytest.raises(ValueError):
            CorpusConfig(num_scenes=1, bias_pairs=((0, 20, 1.5),))

    def test_rejects_trigger_that_is_a_partner(self):
        with pytest.raises(ValueError):
            CorpusConfig(num_scenes=1, bias_pairs=((20, 21, 0.5), (1, 20, 0.5)))

    def test_rejects_too_few_groundable_objects(self):
        with pytest.raises(ValueError):
            CorpusConfig(num_scenes=1, vocab_objects=6, bias_pairs=((0, 5, 0.5),))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 20),
    rate=st.floats(0.0, 1.0, allow_nan=False),
    seed=st.integers(0, 2**31),
)
def test_invariants_hold_for_random_configs(n, rate, seed):
    cfg = CorpusConfig(num_scenes=n, hallucination_rate=rate, seed=seed)
    corpus = generate_corpus(cfg)
    for caption, objs, _, _ in scenes(corpus):
        assert MIN_OBJECTS <= len(objs) <= MAX_OBJECTS
        assert caption[0] == BOS_ID and caption[-1] == EOS_ID
        mentioned = mentions(caption)
        assert len(mentioned) == len(set(mentioned))
        assert set(objs) <= set(mentioned)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        write_corpus(corpus, path)
        assert_corpus_matches(read_corpus(path), corpus)
