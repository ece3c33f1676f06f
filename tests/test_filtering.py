"""Tests for dependence-based corpus scoring and filtering."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visdep import synth, toymodel
from visdep.dependence import profile_trace
from visdep.diffusion import corrupt, make_schedule
from visdep.filtering import (
    FilterManifest,
    FilterStrategy,
    apply_filter,
    load_manifest,
    save_manifest,
    score_corpus,
)
from visdep.seeding import derive_seed
from visdep.synth import CorpusConfig, generate_corpus
from visdep.toymodel import TrainConfig, init_params, teacher_forced_probs, train
from visdep.trace import TokenTrace

from test_toymodel import _targets, padded


@pytest.fixture(scope="module")
def scored_setup():
    """A small corpus scored with an untrained and a briefly trained model."""
    corpus = generate_corpus(CorpusConfig(num_scenes=120, seed=42))
    v_obj = corpus.features.shape[1]
    fresh = init_params(synth.vocab_size(v_obj), v_obj, seed=0)
    trained, _ = train(corpus, TrainConfig(epochs=2, batch_size=16, learning_rate=0.015, seed=42))
    return corpus, fresh, trained


class TestApplyFilter:
    def test_remove_highest_takes_the_top_scorer(self):
        scores = {"a": 3.0, "b": 1.0, "c": 2.0}
        manifest = apply_filter(scores, FilterStrategy.REMOVE_HIGHEST, 1 / 3)
        assert manifest.removed == ("a",)
        assert manifest.kept == ("b", "c")

    def test_remove_lowest_takes_the_bottom_scorer(self):
        scores = {"a": 3.0, "b": 1.0, "c": 2.0}
        manifest = apply_filter(scores, FilterStrategy.REMOVE_LOWEST, 1 / 3)
        assert manifest.removed == ("b",)
        assert manifest.kept == ("a", "c")

    def test_removed_count_follows_rounding(self):
        scores = {f"s{i}": float(i) for i in range(10)}
        manifest = apply_filter(scores, FilterStrategy.REMOVE_LOWEST, 0.2)
        assert len(manifest.removed) == 2
        assert manifest.removed == ("s0", "s1")

    def test_kept_preserves_corpus_order(self):
        scores = {f"s{i}": float((i * 7) % 10) for i in range(10)}
        manifest = apply_filter(scores, FilterStrategy.REMOVE_HIGHEST, 0.3)
        assert list(manifest.kept) == [s for s in scores if s in set(manifest.kept)]

    def test_random_strategy_is_seed_deterministic(self):
        scores = {f"s{i}": float(i) for i in range(30)}
        a = apply_filter(scores, FilterStrategy.REMOVE_RANDOM, 0.2, seed=9)
        b = apply_filter(scores, FilterStrategy.REMOVE_RANDOM, 0.2, seed=9)
        c = apply_filter(scores, FilterStrategy.REMOVE_RANDOM, 0.2, seed=10)
        assert a == b
        assert set(a.removed) != set(c.removed)

    def test_score_ties_break_by_sample_id(self):
        scores = {"b": 1.0, "a": 1.0, "c": 0.0}
        manifest = apply_filter(scores, FilterStrategy.REMOVE_HIGHEST, 1 / 3)
        assert manifest.removed == ("a",)

    def test_highest_and_lowest_are_disjoint_for_distinct_scores(self):
        rng = np.random.default_rng(42)
        values = rng.permutation(40).astype(float)
        scores = {f"s{i}": float(v) for i, v in enumerate(values)}
        high = apply_filter(scores, FilterStrategy.REMOVE_HIGHEST, 0.5)
        low = apply_filter(scores, FilterStrategy.REMOVE_LOWEST, 0.5)
        assert set(high.removed).isdisjoint(low.removed)

    def test_rejects_degenerate_fraction(self):
        with pytest.raises(ValueError):
            apply_filter({"a": 1.0}, FilterStrategy.REMOVE_HIGHEST, 0.0)
        with pytest.raises(ValueError):
            apply_filter({"a": 1.0}, FilterStrategy.REMOVE_HIGHEST, 1.0)

    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError):
            apply_filter({"a": float("nan")}, FilterStrategy.REMOVE_HIGHEST, 0.5)

    @settings(max_examples=50)
    @given(
        values=st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=2, max_size=60
        ),
        fraction=st.floats(0.01, 0.99),
        strategy=st.sampled_from(list(FilterStrategy)),
    )
    def test_partition_properties(self, values, fraction, strategy):
        scores = {f"s{i}": v for i, v in enumerate(values)}
        manifest = apply_filter(scores, strategy, fraction)
        kept, removed = set(manifest.kept), set(manifest.removed)
        assert kept.isdisjoint(removed)
        assert kept | removed == set(scores)
        assert len(manifest.removed) == round(fraction * len(values))


class TestManifestValidation:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            FilterManifest(
                strategy=FilterStrategy.REMOVE_HIGHEST,
                fraction=0.5,
                kept=("a",),
                removed=("a",),
                scores={"a": 1.0},
            )

    def test_rejects_incomplete_partition(self):
        with pytest.raises(ValueError):
            FilterManifest(
                strategy=FilterStrategy.REMOVE_HIGHEST,
                fraction=0.5,
                kept=("a",),
                removed=(),
                scores={"a": 1.0, "b": 2.0},
            )

    def test_rejects_wrong_removed_count(self):
        with pytest.raises(ValueError):
            FilterManifest(
                strategy=FilterStrategy.REMOVE_HIGHEST,
                fraction=0.5,
                kept=(),
                removed=("a", "b"),
                scores={"a": 1.0, "b": 2.0},
            )


class TestManifestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        scores = {f"s{i}": float(i) * 0.5 for i in range(9)}
        manifest = apply_filter(scores, FilterStrategy.REMOVE_LOWEST, 1 / 3)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_save_is_byte_deterministic(self, tmp_path):
        scores = {"a": 1.0, "b": 2.0}
        manifest = apply_filter(scores, FilterStrategy.REMOVE_HIGHEST, 0.5)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_manifest(manifest, p1)
        save_manifest(manifest, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_other_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}', encoding="utf-8")
        with pytest.raises(ValueError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: {**d, "kept": 5},
            lambda d: {**d, "removed": [1]},
            lambda d: {**d, "scores": 5},
            lambda d: {**d, "scores": {"a": "1.0", "b": 2.0}},
            lambda d: {**d, "fraction": None},
            lambda d: {**d, "strategy": None},
            lambda d: [d],
        ],
        ids=["kept-int", "removed-ints", "scores-int", "score-string", "fraction-null", "strategy-null", "list"],
    )
    def test_load_rejects_a_malformed_manifest_naming_the_file(self, tmp_path, edit):
        manifest = apply_filter({"a": 1.0, "b": 2.0}, FilterStrategy.REMOVE_HIGHEST, 0.5)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(manifest.to_dict())), encoding="utf-8")
        with pytest.raises(ValueError, match="bad.json: "):
            load_manifest(path)


class TestScoreCorpus:
    def test_zero_noise_step_gives_zero_scores(self, scored_setup):
        """With no corruption both passes see the same vector, so every
        per-token difference — and hence every sum — is exactly zero."""
        corpus, fresh, _ = scored_setup
        scores = score_corpus(corpus.take(np.arange(10)), fresh, noise_step=0)
        assert set(scores) == set(corpus.scene_ids[:10])
        assert all(v == 0.0 for v in scores.values())

    def test_matches_independent_trace_recomputation(self, scored_setup):
        """Σd recomputed one caption at a time through the public trace
        path, with the same noise draws, reproduces every score."""
        corpus, _, trained = scored_setup
        subset = corpus.take(np.arange(12))
        noise_step, seed = 900, 42
        scores = score_corpus(subset, trained, noise_step=noise_step, seed=seed)
        schedule = make_schedule()
        for sid, feature, target in zip(subset.scene_ids, subset.features, _targets(subset)):
            clean = teacher_forced_probs(trained, feature[None, :], *padded([target]))[0]
            noisy_vec = corrupt(feature, noise_step, schedule, derive_seed(seed, "filternoise", sid))
            noisy = teacher_forced_probs(trained, noisy_vec[None, :], *padded([target]))[0]
            trace = TokenTrace(
                sample_id=sid,
                tokens=target,
                surfaces=synth.surfaces_for(target, len(feature)),
                p_clean=tuple(float(x) for x in clean),
                p_noisy=tuple(float(x) for x in noisy),
                eos_index=len(target) - 1,
            )
            expected = sum(profile_trace(trace).tolist())
            assert scores[sid] == pytest.approx(expected, rel=1e-12)

    def test_equals_the_trace_path_bit_for_bit(self, scored_setup):
        """Σd on arrays gives every caption exactly the left-to-right sum of
        its TokenTrace -> profile_trace d values, with the probabilities of
        the same batched passes."""
        _, _, trained = scored_setup
        corpus = generate_corpus(CorpusConfig(num_scenes=300, seed=5))
        noise_step, seed = 900, 3
        scores = score_corpus(corpus, trained, noise_step=noise_step, seed=seed)
        schedule = make_schedule()
        targets = _targets(corpus)
        clean = teacher_forced_probs(trained, corpus.features, *padded(targets))
        noisy_features = np.stack(
            [
                corrupt(feature, noise_step, schedule, derive_seed(seed, "filternoise", sid))
                for feature, sid in zip(corpus.features, corpus.scene_ids)
            ]
        )
        noisy = teacher_forced_probs(trained, noisy_features, *padded(targets))
        assert list(scores) == corpus.scene_ids.tolist()
        for i, (sid, target) in enumerate(zip(corpus.scene_ids, targets)):
            trace = TokenTrace(
                sample_id=sid,
                tokens=target,
                surfaces=synth.surfaces_for(target, corpus.features.shape[1]),
                p_clean=clean[i, : len(target)].tolist(),
                p_noisy=noisy[i, : len(target)].tolist(),
                eos_index=len(target) - 1,
            )
            expected = sum(profile_trace(trace).tolist())
            assert scores[sid] == expected, sid
            assert type(scores[sid]) is float

    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
    def test_rejects_probabilities_outside_the_unit_interval(self, scored_setup, monkeypatch, bad):
        corpus, fresh, _ = scored_setup
        real = teacher_forced_probs
        calls = []

        def corrupted(params, conditions, ids, lengths):
            probs = real(params, conditions, ids, lengths)
            calls.append(len(lengths))
            probs[3, 1] = bad
            return probs

        # the noised pass runs inside toymodel.noised_dependence
        monkeypatch.setattr(toymodel, "teacher_forced_probs", corrupted)
        with pytest.raises(ValueError, match="outside"):
            score_corpus(corpus.take(np.arange(10)), fresh)
        assert calls == [10]

    def test_deterministic(self, scored_setup):
        corpus, _, trained = scored_setup
        a = score_corpus(corpus.take(np.arange(20)), trained)
        b = score_corpus(corpus.take(np.arange(20)), trained)
        assert a == b

    def test_trained_model_scores_skew_positive(self, scored_setup):
        """A model that has learned the image-caption link loses more
        probability than it gains when the image is noised away."""
        corpus, _, trained = scored_setup
        values = np.array(list(score_corpus(corpus, trained).values()))
        assert np.mean(values > 0.0) > 0.5
        assert values.mean() > 0.0

    def test_rejects_empty_corpus(self, scored_setup):
        _, fresh, _ = scored_setup
        with pytest.raises(ValueError):
            score_corpus(generate_corpus(CorpusConfig(num_scenes=0)), fresh)
