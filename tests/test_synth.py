"""Tests for the synthetic scene/caption corpus generator."""

import hashlib
import io
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
    held_out,
    object_token,
    read_corpus,
    sidecar_path,
    surface,
    surfaces_for,
    train_test_split,
    vocab_size,
    write_corpus,
)
from visdep import synth
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


def sidecar_of(path: Path) -> Path:
    """The sidecar ``write_corpus`` wrote for the current bytes of ``path``."""
    return Path(sidecar_path(path, hashlib.sha256(path.read_bytes()).hexdigest()))


def read_counting_lines(path: Path, monkeypatch, keep=None) -> tuple[Corpus, int]:
    """``read_corpus(path, keep)`` and the number of JSON lines it checked: 0 when the sidecar served it."""
    checked = []
    check = synth._check_record
    monkeypatch.setattr(synth, "_check_record", lambda record: checked.append(1) or check(record))
    corpus = read_corpus(path, keep)
    monkeypatch.setattr(synth, "_check_record", check)
    return corpus, len(checked)


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
        sidecar = hashlib.sha256(sidecar_of(path).read_bytes()).hexdigest()
        assert sidecar == "808cc4e1e89337cf91a0a30113c8db57d9e3dcb68eaeee991f45bc299ef9f11e"

    def test_round_trip(self, tmp_path, monkeypatch):
        """Through the JSON lines: TestSidecar covers the sidecar's round trip."""
        corpus = small_corpus(40)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        sidecar_of(path).unlink()
        read, decoded = read_counting_lines(path, monkeypatch)
        assert decoded == 40
        assert_corpus_matches(read, corpus)

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


def tamper(path: Path, edit) -> None:
    """Rewrite the sidecar of ``path`` in place with ``edit`` applied to a copy of its array."""
    side = sidecar_of(path)
    arr = np.load(side)
    out = edit(arr)
    arr = arr if out is None else out
    with open(side, "wb") as fh:
        np.save(fh, arr)


def _set(field, index, value):
    def edit(arr):
        arr[field][index] = value
    return edit


def _widened(arr):
    """The same rows with one more all-zero caption column than the longest caption needs."""
    dt = arr.dtype
    width = dt["caption"].shape[0] + 1
    out = np.zeros(len(arr), synth._sidecar_dtype(dt["scene_id"].itemsize // 4, dt["feature"].shape[0], width))
    for name in dt.names:
        if name in ("caption", "inserted"):
            out[name][:, :-1] = arr[name]
        else:
            out[name] = arr[name]
    return out


def _token_past_every_length(arr):
    within = np.arange(arr["caption"].shape[1]) < arr["length"][:, None]
    arr["caption"] = np.where(within, arr["caption"], 7)


def _bos_alone(arr):
    """The shortest caption cut to BOS alone, zero past it as the padding must be."""
    row = arr["length"].argmin()
    arr["length"][row] = 1
    arr["caption"][row, 1:] = 0
    arr["inserted"][row] = False


def _one_by_two(arr):
    """A (1, 2) array of one id twice, with captions of two BOS: every check but the rank's passes."""
    dt = arr.dtype
    out = np.zeros((1, 2), synth._sidecar_dtype(dt["scene_id"].itemsize // 4, dt["feature"].shape[0], 2))
    out["scene_id"], out["feature"], out["length"] = arr["scene_id"][0], arr["feature"][:2], 2
    return out


def _retyped(**changes):
    """An edit that recasts the array to a dtype with some fields' types replaced."""
    def edit(arr):
        descr = [(name, changes.get(name, arr.dtype[name].base.str), arr.dtype[name].shape) for name in arr.dtype.names]
        return arr.astype(np.dtype(descr))
    return edit


class TestSidecar:
    """``write_corpus`` puts the arrays beside the JSON lines; ``read_corpus``
    uses them only for the same bytes and only when they pass its checks."""

    @pytest.mark.parametrize(
        "overrides", [{}, {"vocab_objects": 50}, {"hallucination_rate": 0.0}], ids=["default", "objects-50", "rate-0"]
    )
    def test_both_paths_give_the_generated_corpus(self, tmp_path, monkeypatch, overrides):
        corpus = small_corpus(120, **overrides)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        from_sidecar, decoded = read_counting_lines(path, monkeypatch)
        assert decoded == 0
        assert all(a.flags.writeable for a in vars(from_sidecar).values())
        first = from_sidecar.features[0, 0]
        from_sidecar.features[0, 0] = 7.0  # lands in the arrays, not in the file
        assert read_corpus(path).features[0, 0] == first
        from_sidecar.features[0, 0] = first
        sidecar_of(path).unlink()
        from_lines, decoded = read_counting_lines(path, monkeypatch)
        assert decoded == 120
        assert_corpus_matches(from_sidecar, from_lines)
        assert_corpus_matches(from_sidecar, corpus)

    def test_an_edited_file_ignores_the_stale_sidecar(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.jsonl"
        write_corpus(small_corpus(5), path)
        stale = sidecar_of(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        record["feature"][0] = 0.25
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        corpus, decoded = read_counting_lines(path, monkeypatch)
        assert stale.exists() and decoded == 5
        assert corpus.features[2, 0] == 0.25

    def test_the_sidecar_serves_the_read(self, tmp_path):
        """A valid edit to the sidecar shows in what is read: the JSON lines were not."""
        path = tmp_path / "corpus.jsonl"
        write_corpus(small_corpus(5), path)
        tamper(path, _set("feature", (1, 0), 0.375))
        assert read_corpus(path).features[1, 0] == 0.375

    @pytest.mark.parametrize(
        "edit",
        [
            lambda arr: arr[:2],  # rows dropped, stored with a smaller header
            _retyped(feature="<f4"),
            _retyped(caption="<i4"),
            _retyped(feature=">f8"),
            _retyped(truth="u1"),
            lambda arr: arr.astype([(n if n != "truth" else "objects", arr.dtype[n]) for n in arr.dtype.names]),
            _one_by_two,
            lambda arr: arr[:0],
            _set("scene_id", 3, "scene-000001"),
            _set("scene_id", 3, ""),
            _set("feature", (2, 5), np.nan),
            _set("feature", (2, 5), -np.inf),
            _set("caption", (1, 3), vocab_size(40)),
            _set("caption", (1, 3), -1),
            _set("caption", (0, 0), EOS_ID),
            _bos_alone,
            _set("length", 2, 10**6),
            _token_past_every_length,
            _widened,
            lambda arr: arr["inserted"].__setitem__((arr["length"].argmin(), arr["length"].min()), True),
            lambda arr: arr["truth"].view(np.uint8).__setitem__((0, 0), 2),
        ],
        ids=[
            "fewer-rows", "float32-feature", "int32-caption", "big-endian-feature", "byte-truth", "renamed-field",
            "two-dimensional", "empty", "repeated-id", "empty-id", "nan-feature", "infinite-feature",
            "token-past-vocabulary", "negative-token", "caption-without-bos", "caption-of-bos-alone",
            "length-past-width", "token-past-length", "width-past-every-length", "insertion-past-length",
            "boolean-byte-2",
        ],
    )
    def test_an_invalid_sidecar_falls_back_to_the_lines(self, tmp_path, monkeypatch, edit):
        corpus = small_corpus(5)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        tamper(path, edit)
        read, decoded = read_counting_lines(path, monkeypatch)
        assert decoded == 5
        assert_corpus_matches(read, corpus)

    @pytest.mark.parametrize(
        "content",
        [lambda side: side.read_bytes()[:-100], lambda side: side.read_bytes()[:60], lambda side: b"not an array\n"],
        ids=["truncated-data", "truncated-header", "not-an-array-file"],
    )
    def test_a_corrupt_sidecar_falls_back_to_the_lines(self, tmp_path, monkeypatch, content):
        corpus = small_corpus(5)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        sidecar_of(path).write_bytes(content(sidecar_of(path)))
        read, decoded = read_counting_lines(path, monkeypatch)
        assert decoded == 5
        assert_corpus_matches(read, corpus)

    @pytest.mark.parametrize(
        "defect",
        [
            lambda c: c.take([0, 1, 2, 0]),
            lambda c: c.scene_ids.__setitem__(1, ""),
            lambda c: c.features.__setitem__((1, 0), np.nan),
            lambda c: c.features.__setitem__((1, 0), np.inf),
            lambda c: c.captions.__setitem__((1, 0), 5),
            lambda c: c.lengths.__setitem__(1, 1),
            lambda c: c.inserted.__setitem__((int(c.lengths.argmin()), int(c.lengths.min())), True),
        ],
        ids=[
            "repeated-id", "empty-id", "nan-feature", "infinite-feature", "caption-without-bos",
            "caption-of-bos-alone", "insertion-past-caption",
        ],
    )
    def test_a_malformed_corpus_gets_the_message_of_the_lines(self, tmp_path, defect):
        """Each defect an array can hold: the sidecar written beside it is
        rejected, and the JSON reader's file:line message is raised."""
        corpus = small_corpus(3).take(np.arange(3))
        corpus = defect(corpus) or corpus
        path = tmp_path / "bad.jsonl"
        write_corpus(corpus, path)
        assert sidecar_of(path).exists()
        with pytest.raises(ValueError, match=r"bad\.jsonl:\d+: ") as with_sidecar:
            read_corpus(path)
        sidecar_of(path).unlink()
        with pytest.raises(ValueError) as from_lines:
            read_corpus(path)
        assert str(with_sidecar.value) == str(from_lines.value)

    @pytest.mark.parametrize("token", [-1, vocab_size(40)], ids=["negative-token", "past-vocabulary"])
    def test_a_caption_token_outside_the_vocabulary_is_not_written(self, tmp_path, token):
        corpus = small_corpus(3).take(np.arange(3))
        corpus.captions[1, 2] = token
        with pytest.raises(ValueError, match=rf"^scene 'scene-000001': caption token {token} outside \[0, 53\)$"):
            write_corpus(corpus, tmp_path / "bad.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_rewriting_a_path_removes_its_older_sidecar(self, tmp_path):
        path, other = tmp_path / "corpus.jsonl", tmp_path / "corpus.jsonl.v2"
        write_corpus(small_corpus(4), path)
        write_corpus(small_corpus(4), other)
        first = sidecar_of(path)
        write_corpus(small_corpus(6), path)
        assert not first.exists()
        assert sorted(p.name for p in tmp_path.glob("*.npy")) == sorted([sidecar_of(path).name, sidecar_of(other).name])

    def test_sidecar_bytes_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(small_corpus(40), a)
        write_corpus(small_corpus(40), b)
        assert sidecar_of(a).read_bytes() == sidecar_of(b).read_bytes()

    def test_padding_past_the_longest_caption_is_read_from_the_lines(self, tmp_path, monkeypatch):
        """The JSON reader pads to the longest caption; a wider corpus's sidecar is not used."""
        corpus = small_corpus(5)
        wide = Corpus(*(np.pad(getattr(corpus, f), ((0, 0), (0, 2))) if f in ("captions", "inserted")
                        else getattr(corpus, f) for f in vars(corpus)))
        path = tmp_path / "corpus.jsonl"
        write_corpus(wide, path)
        assert sidecar_of(path).exists()
        read, decoded = read_counting_lines(path, monkeypatch)
        assert decoded == 5
        assert_corpus_matches(read, corpus)
        wide.inserted[1, -1] = True
        write_corpus(wide, path)
        with pytest.raises(ValueError, match=r"corpus\.jsonl:2: .*hallucinated position \d+ out of range"):
            read_corpus(path)

    @pytest.mark.parametrize("n,scene_id", [(0, None), (3, "scene-x\x00")], ids=["empty", "trailing-nul"])
    def test_no_sidecar_where_the_arrays_would_differ(self, tmp_path, n, scene_id):
        """An empty corpus, and an id that a fixed-width numpy string would cut, get none."""
        corpus = small_corpus(3).take(np.arange(n))
        if scene_id is not None:
            corpus.scene_ids[1] = scene_id
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        assert list(tmp_path.glob("*.npy")) == []
        read = read_corpus(path)
        assert read.scene_ids.tolist() == corpus.scene_ids.tolist() and len(read) == n


def _split_halves(path: Path, monkeypatch) -> list[tuple[Corpus, int]]:
    """The training and the held-out half ``read_corpus`` keeps of ``path`` (split 0.4, seed 7), each
    with the number of JSON lines it checked."""
    return [read_counting_lines(path, monkeypatch, lambda n, t=t: held_out(n, 0.4, 7) == t) for t in (False, True)]


class TestBlockReader:
    """The sidecar is written and read ``SIDECAR_BLOCK_ROWS`` rows at a time, and a read keeps only the rows asked for."""

    @pytest.mark.parametrize("n", [5, 511, 512, 513, 1100])
    def test_each_half_is_that_of_the_split_of_the_lines(self, tmp_path, monkeypatch, n):
        assert synth.SIDECAR_BLOCK_ROWS == 512
        path = tmp_path / "corpus.jsonl"
        write_corpus(generate_corpus(CorpusConfig(num_scenes=n, seed=3)), path)
        saved = io.BytesIO()
        np.save(saved, np.load(sidecar_of(path)))
        assert sidecar_of(path).read_bytes() == saved.getvalue()
        from_sidecar = _split_halves(path, monkeypatch)
        sidecar_of(path).unlink()
        from_lines = _split_halves(path, monkeypatch)
        for (a, decoded_a), (b, decoded_b), half in zip(from_sidecar, from_lines, train_test_split(read_corpus(path), 0.4, 7)):
            assert (decoded_a, decoded_b) == (0, n)
            assert_corpus_matches(a, half)
            assert_corpus_matches(b, half)

    @pytest.mark.parametrize("n", [513, 1100])
    @pytest.mark.parametrize(
        "defect",
        [
            lambda path: tamper(path, _set("caption", (-1, 1), vocab_size(40))),
            lambda path: tamper(path, _set("scene_id", synth.SIDECAR_BLOCK_ROWS, "scene-000000")),
            lambda path: sidecar_of(path).write_bytes(sidecar_of(path).read_bytes()[:-1]),
            lambda path: tamper(path, _widened),
        ],
        ids=["bad-token-in-the-last-row", "id-repeated-across-blocks", "truncated-last-block", "width-past-every-length"],
    )
    def test_a_defect_in_any_block_falls_back_to_the_lines(self, tmp_path, monkeypatch, n, defect):
        corpus = generate_corpus(CorpusConfig(num_scenes=n, seed=3))
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        defect(path)
        for (read, decoded), half in zip(_split_halves(path, monkeypatch), train_test_split(corpus, 0.4, 7)):
            assert decoded == n
            assert_corpus_matches(read, half)


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


    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_gap_draws_are_those_of_rng_choice(self, seed):
        """A caption's k - 1 gaps, drawn in one call, hold the tokens of one
        ``rng.choice`` per gap and leave the generator where those calls do."""
        for k in range(MIN_OBJECTS, MAX_OBJECTS + 1):
            for stream in range(20):
                a, b = rng_for(seed, "gap", k, stream), rng_for(seed, "gap", k, stream)
                caption, _ = build_caption(a, range(k), (), 0.0)
                assert mentions(caption) == b.permutation(k).tolist()
                gaps = [int(t) for _ in range(k - 1) for t in b.choice(synth._GAP_TOKENS, size=synth.GAP_LEN)]
                assert [t for t in caption[4:-1] if t < OBJECT_BASE] == gaps
                assert a.random() == b.random()


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
        sidecar_of(path).unlink()
        assert_corpus_matches(read_corpus(path), corpus)
