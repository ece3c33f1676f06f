"""Tests for the synthetic scene/caption corpus generator."""

import json

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
    SyntheticScene,
    build_caption,
    generate_corpus,
    groundable_objects,
    object_token,
    read_corpus,
    surface,
    surfaces_for,
    token_object,
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


def assert_corpus_matches(corpus: Corpus, scenes: list) -> None:
    """``corpus`` holds exactly ``scenes``, row for row, as arrays."""
    assert len(corpus) == len(scenes)
    assert corpus.scene_ids.tolist() == [s.scene_id for s in scenes]
    assert all(type(sid) is str for sid in corpus.scene_ids)
    assert corpus.features.dtype == np.float64
    assert corpus.features.tolist() == [list(s.feature) for s in scenes]
    assert corpus.lengths.tolist() == [len(s.caption) for s in scenes]
    assert corpus.captions.shape[1] >= max(len(s.caption) for s in scenes)
    for i, s in enumerate(scenes):
        n = len(s.caption)
        assert corpus.captions[i, :n].tolist() == list(s.caption) and not corpus.captions[i, n:].any()
        assert np.flatnonzero(corpus.truth[i]).tolist() == sorted(set(s.true_objects))
        assert np.flatnonzero(corpus.inserted[i]).tolist() == sorted(set(s.hallucinated_positions))
        assert corpus.targets()[i].tolist() == list(s.caption[1:])


class TestTokenMapping:
    def test_object_token_round_trip(self):
        for obj in (0, 7, 39):
            assert token_object(object_token(obj)) == obj

    def test_function_tokens_map_to_none(self):
        assert token_object(BOS_ID) is None
        assert token_object(EOS_ID) is None
        assert token_object(OBJECT_BASE - 1) is None

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
        for scene in small_corpus():
            assert MIN_OBJECTS <= len(scene.true_objects) <= MAX_OBJECTS

    def test_true_objects_sorted_unique_and_groundable(self):
        cfg = CorpusConfig(num_scenes=200, seed=42)
        allowed = set(groundable_objects(cfg))
        for scene in generate_corpus(cfg):
            objs = scene.true_objects
            assert list(objs) == sorted(set(objs))
            assert set(objs) <= allowed

    def test_caption_brackets(self):
        for scene in small_corpus():
            assert scene.caption[0] == BOS_ID
            assert scene.caption[-1] == EOS_ID
            assert scene.caption.count(BOS_ID) == 1
            assert scene.caption.count(EOS_ID) == 1

    def test_each_mentioned_object_appears_exactly_once(self):
        for scene in small_corpus():
            mentioned = [token_object(t) for t in scene.caption if token_object(t) is not None]
            assert len(mentioned) == len(set(mentioned))

    def test_mentions_are_true_objects_plus_labelled_hallucinations(self):
        """Every object mention is either grounded or flagged, never both."""
        for scene in small_corpus():
            halluc = {token_object(scene.caption[p]) for p in scene.hallucinated_positions}
            grounded = [
                token_object(t)
                for i, t in enumerate(scene.caption)
                if token_object(t) is not None and i not in scene.hallucinated_positions
            ]
            assert set(grounded) == set(scene.true_objects)
            assert halluc.isdisjoint(scene.true_objects)

    def test_hallucinated_positions_point_at_object_tokens(self):
        for scene in small_corpus():
            for pos in scene.hallucinated_positions:
                assert token_object(scene.caption[pos]) is not None

    def test_feature_thresholding_recovers_object_set(self):
        """A 0.5 threshold on the jittered multi-hot decodes the scene."""
        for scene in small_corpus():
            feature = np.asarray(scene.feature)
            decoded = tuple(int(i) for i in np.flatnonzero(feature > 0.5))
            assert decoded == scene.true_objects

    def test_surfaces_parallel_to_caption(self):
        cfg = CorpusConfig(num_scenes=50, seed=42)
        for scene in generate_corpus(cfg):
            assert scene.caption_surfaces == surfaces_for(scene.caption, cfg.vocab_objects)

    def test_inserted_mentions_ride_the_marker_phrase(self):
        """Each flagged mention is preceded by the fixed three-word cue."""
        found = 0
        for scene in small_corpus():
            for pos in scene.hallucinated_positions:
                assert scene.caption_surfaces[pos - 3 : pos] == ("also", "there", "is")
                found += 1
        assert found > 0

    def test_marker_word_is_reserved_for_insertions(self):
        """Bias-free captions never use the cue word in filler."""
        for scene in small_corpus(hallucination_rate=0.0):
            assert "also" not in scene.caption_surfaces


class TestHallucinationControls:
    def test_zero_rate_gives_zero_hallucinations(self):
        for scene in small_corpus(hallucination_rate=0.0):
            assert scene.hallucinated_positions == ()

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
        for scene in generate_corpus(cfg):
            if 0 in scene.true_objects:
                mentioned = {token_object(t) for t in scene.caption} - {None}
                assert 39 in mentioned
                assert len(scene.hallucinated_positions) == 1
                fired += 1
            else:
                assert scene.hallucinated_positions == ()
        assert fired > 0

    def test_partners_never_appear_in_scenes(self):
        cfg = CorpusConfig(num_scenes=100, seed=42)
        partners = {b for _, b, _ in cfg.bias_pairs}
        for scene in generate_corpus(cfg):
            assert partners.isdisjoint(scene.true_objects)

    def test_observed_fraction_matches_analytic(self):
        """Empirical hallucinated-mention share at 5000 scenes lands within
        2% (relative) of the closed-form expectation."""
        cfg = CorpusConfig(num_scenes=5000, seed=42)
        scenes = generate_corpus(cfg)
        halluc = sum(len(s.hallucinated_positions) for s in scenes)
        mentions = sum(
            1 for s in scenes for t in s.caption if token_object(t) is not None
        )
        observed = halluc / mentions
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
        a = small_corpus(100)
        b = small_corpus(100)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_corpus(CorpusConfig(num_scenes=50, seed=1))
        b = generate_corpus(CorpusConfig(num_scenes=50, seed=2))
        assert a != b

    def test_write_is_byte_deterministic(self, tmp_path):
        scenes = small_corpus(40)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(scenes, p1)
        write_corpus(scenes, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip(self, tmp_path):
        scenes = small_corpus(40)
        path = tmp_path / "corpus.jsonl"
        write_corpus(scenes, path)
        corpus = read_corpus(path)
        assert_corpus_matches(corpus, scenes)
        built = Corpus.from_scenes(scenes)
        assert_corpus_matches(built, scenes)
        for a, b in zip(vars(corpus).values(), vars(built).values()):
            assert a.dtype == b.dtype and a.shape == b.shape

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
        ],
        ids=[
            "objects-int", "feature-null", "feature-null-element", "id-int", "no-caption", "not-an-object",
            "object-id-outside-feature", "negative-object-id", "short-feature", "long-feature",
            "float-object-id", "boolean-object-id", "string-token", "string-feature", "boolean-feature",
            "nan-feature", "infinite-feature", "huge-integer-feature", "integer-surface", "float-position",
            "empty-id", "surface-count", "position-past-caption", "token-past-vocabulary", "negative-token",
            "huge-token",
        ],
    )
    def test_read_rejects_a_malformed_record_with_its_line(self, tmp_path, edit, message):
        scenes = small_corpus(3)
        lines = [json.dumps(s.to_record()) for s in scenes]
        lines[1] = json.dumps(edit(scenes[1].to_record()))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:2: " + message):
            read_corpus(path)

    def test_read_rejects_a_repeated_scene_id(self, tmp_path):
        scenes = small_corpus(3)
        path = tmp_path / "dup.jsonl"
        write_corpus(scenes + scenes[:1], path)
        with pytest.raises(ValueError, match="dup.jsonl:4: duplicate scene_id 'scene-000000' \\(first on line 1\\)"):
            read_corpus(path)


class TestTrainTestSplit:
    def test_split_sizes_and_disjointness(self):
        scenes = small_corpus(100)
        train, test = train_test_split(Corpus.from_scenes(scenes), 0.2, seed=42)
        assert len(train) == 80
        assert len(test) == 20
        train_ids = set(train.scene_ids)
        test_ids = set(test.scene_ids)
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == {s.scene_id for s in scenes}

    def test_same_seed_same_split(self):
        corpus = Corpus.from_scenes(small_corpus(100))
        a, b = train_test_split(corpus, 0.2, 7), train_test_split(corpus, 0.2, 7)
        for half_a, half_b in zip(a, b):
            assert half_a.scene_ids.tolist() == half_b.scene_ids.tolist()

    def test_halves_are_the_input_scenes_in_corpus_order(self):
        scenes = small_corpus(100)
        train, test = train_test_split(Corpus.from_scenes(scenes), 0.2, seed=42)
        held_out = set(test.scene_ids)
        for half, expected in (
            (train, [s for s in scenes if s.scene_id not in held_out]),
            (test, [s for s in scenes if s.scene_id in held_out]),
        ):
            assert_corpus_matches(half, expected)

    def test_test_scenes_keep_objects_and_features(self):
        scenes = small_corpus(100)
        _, test = train_test_split(Corpus.from_scenes(scenes), 0.2, seed=42)
        by_id = {s.scene_id: s for s in scenes}
        for sid, truth, feature in zip(test.scene_ids, test.truth, test.features):
            original = by_id[sid]
            assert np.flatnonzero(truth).tolist() == list(original.true_objects)
            assert tuple(feature.tolist()) == original.feature

    def test_held_out_rows_are_the_seeded_permutation(self):
        """The parent's split of a scene list, kept by index: the first
        round(0.2 n) entries of the seeded permutation are held out."""
        scenes = small_corpus(100)
        _, test = train_test_split(Corpus.from_scenes(scenes), 0.2, seed=42)
        held_out = sorted(rng_for(42, "split").permutation(100)[:20].tolist())
        assert test.scene_ids.tolist() == [scenes[i].scene_id for i in held_out]

    def test_rejects_degenerate_fractions(self):
        corpus = Corpus.from_scenes(small_corpus(10))
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
        mentioned = [token_object(t) for t in caption if token_object(t) is not None]
        assert sorted(mentioned) == [3, 7, 11]

    def test_mentions_separated_by_fixed_gap(self):
        rng = rng_for(42, "gap-test")
        caption, _ = build_caption(rng, (3, 7, 11), (), 0.0)
        positions = [i for i, t in enumerate(caption) if token_object(t) is not None]
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

    def test_scene_rejects_out_of_range_hallucinated_position(self):
        with pytest.raises(ValueError):
            SyntheticScene(
                scene_id="s",
                true_objects=(1,),
                feature=(0.0,),
                caption=(BOS_ID, EOS_ID),
                caption_surfaces=("<bos>", "<eos>"),
                hallucinated_positions=(5,),
            )


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 20),
    rate=st.floats(0.0, 1.0, allow_nan=False),
    seed=st.integers(0, 2**31),
)
def test_invariants_hold_for_random_configs(n, rate, seed):
    cfg = CorpusConfig(num_scenes=n, hallucination_rate=rate, seed=seed)
    for scene in generate_corpus(cfg):
        assert MIN_OBJECTS <= len(scene.true_objects) <= MAX_OBJECTS
        assert scene.caption[0] == BOS_ID and scene.caption[-1] == EOS_ID
        mentioned = [token_object(t) for t in scene.caption if token_object(t) is not None]
        assert len(mentioned) == len(set(mentioned))
        assert set(scene.true_objects) <= set(mentioned)
