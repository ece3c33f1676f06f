"""Synthetic scene-captioning corpus with a controllable hallucination source.

A scene pairs a ground-truth object set with a jittered multi-hot feature
vector standing in for an image, plus a templated caption listing the
objects in random order between filler words.  For each bias pair
``(a, b, p)`` with ``a`` present and ``b`` absent, ``b`` is appended to
the caption in a stock phrase with probability ``p * hallucination_rate``
— so every hallucinated mention in the corpus is known and countable.

Token layout: 0=BOS, 1=EOS, 2=separator, 3..12 filler words, objects
from 13 upward.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .seeding import rng_for

BOS_ID = 0
EOS_ID = 1
SEP_ID = 2
FILLER_BASE = 3
N_FILLERS = 10
OBJECT_BASE = FILLER_BASE + N_FILLERS

MIN_OBJECTS = 3
MAX_OBJECTS = 6

BOS_SURFACE = "<bos>"
EOS_SURFACE = "<eos>"
SEP_SURFACE = ","

FILLER_WORDS = ("the", "scene", "shows", "a", "and", "also", "there", "is", "with", "near")

OBJECT_WORDS = (
    "cat", "dog", "car", "tree", "house", "bird", "boat", "chair", "table", "lamp",
    "book", "cup", "phone", "clock", "ball", "fish", "horse", "sheep", "cow", "bike",
    "train", "plane", "truck", "bus", "apple", "banana", "bottle", "plate", "fork", "knife",
    "spoon", "bowl", "couch", "bed", "door", "window", "flower", "bench", "kite", "drum",
)

# Pairs are disjoint (no object is both a trigger and a partner, and no
# object appears in two pairs), so each trigger's presence is an unambiguous
# cue for exactly one partner.  Every visible object has a caption-only
# partner, giving the corpus a single pervasive co-occurrence bias.
DEFAULT_BIAS_PAIRS = tuple((i, 20 + i, 0.25) for i in range(20))

_FILLER_ID = {w: FILLER_BASE + i for i, w in enumerate(FILLER_WORDS)}

# Tokens allowed inside the gap between two object mentions.  Each gap is
# GAP_LEN draws, uniform and independent, so no particular filler is ever a
# confident prediction and every pair of mentions sits exactly GAP_LEN + 1
# positions apart.  "also" is deliberately absent: it is reserved for the
# trailing-insertion phrase, so seeing it is an unambiguous language cue.
GAP_LEN = 3
_GAP_TOKENS = (
    SEP_ID,
    _FILLER_ID["and"],
    _FILLER_ID["there"],
    _FILLER_ID["with"],
    _FILLER_ID["near"],
    _FILLER_ID["a"],
    _FILLER_ID["the"],
    _FILLER_ID["is"],
)

_INTRO = (_FILLER_ID["the"], _FILLER_ID["scene"], _FILLER_ID["shows"])

# Insertion phrase: hallucinated partners tail the caption as afterthoughts,
# each introduced by "also there is".  "also" never occurs in ordinary gaps,
# so the phrase itself is a pure language-side cue for a partner mention.
_MARKER = (_FILLER_ID["also"], _FILLER_ID["there"], _FILLER_ID["is"])


def vocab_size(vocab_objects: int) -> int:
    return OBJECT_BASE + vocab_objects


def object_token(obj: int) -> int:
    return OBJECT_BASE + obj


def surface(token: int, vocab_objects: int) -> str:
    if token == BOS_ID:
        return BOS_SURFACE
    if token == EOS_ID:
        return EOS_SURFACE
    if token == SEP_ID:
        return SEP_SURFACE
    if FILLER_BASE <= token < OBJECT_BASE:
        return FILLER_WORDS[token - FILLER_BASE]
    obj = token - OBJECT_BASE
    if 0 <= obj < vocab_objects:
        if obj < len(OBJECT_WORDS):
            return OBJECT_WORDS[obj]
        return f"object{obj}"
    raise ValueError(f"token id {token} outside vocabulary of {vocab_objects} objects")


def surfaces_for(tokens, vocab_objects: int) -> tuple[str, ...]:
    return tuple(surface(t, vocab_objects) for t in tokens)


@dataclass(frozen=True)
class CorpusConfig:
    num_scenes: int
    vocab_objects: int = 40
    bias_pairs: tuple[tuple[int, int, float], ...] = DEFAULT_BIAS_PAIRS
    hallucination_rate: float = 0.6
    sigma_jitter: float = 0.05
    seed: int = 42

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "bias_pairs", tuple((int(a), int(b), float(p)) for a, b, p in self.bias_pairs)
        )
        if self.num_scenes < 0:
            raise ValueError(f"num_scenes must be >= 0, got {self.num_scenes}")
        if self.vocab_objects < MAX_OBJECTS:
            raise ValueError(f"vocab_objects must be >= {MAX_OBJECTS}, got {self.vocab_objects}")
        if not 0.0 <= self.hallucination_rate <= 1.0:
            raise ValueError(f"hallucination_rate must lie in [0, 1], got {self.hallucination_rate}")
        if not 0.0 < self.sigma_jitter < 0.1:
            # keeps thresholding at 0.5 a faithful decoder of the object set
            raise ValueError(f"sigma_jitter must lie in (0, 0.1), got {self.sigma_jitter}")
        partners = {b for _, b, _ in self.bias_pairs}
        if len(partners) != len(self.bias_pairs):
            raise ValueError("bias pairs must have distinct partners")
        for a, b, p in self.bias_pairs:
            if a == b:
                raise ValueError(f"bias pair ({a}, {b}) must name two distinct objects")
            if not (0 <= a < self.vocab_objects and 0 <= b < self.vocab_objects):
                raise ValueError(f"bias pair ({a}, {b}) outside object vocabulary")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"bias pair probability {p} outside [0, 1]")
            if a in partners:
                raise ValueError(f"bias pair trigger {a} is another pair's partner; it could never appear in a scene")
        if self.vocab_objects - len(partners) < MAX_OBJECTS:
            raise ValueError("not enough groundable objects left after reserving bias partners")


# The JSON types a scene record's lists may hold, checked where a corpus is
# read: a boolean is not an integer, and a string is not a number.
_RECORD_TYPES = {
    "true_objects": ({int}, "an integer"),
    "feature": ({int, float}, "a number"),
    "caption": ({int}, "an integer"),
    "caption_surfaces": ({str}, "a string"),
    "hallucinated_positions": ({int}, "an integer"),
}


@dataclass(frozen=True, eq=False)
class Corpus:
    """Scenes as arrays, row ``i`` one scene, in corpus order.

    ``captions`` holds each caption, BOS through EOS, zero-padded to the
    longest; ``truth`` marks each scene's true objects and ``inserted`` the
    caption positions of its hallucinated mentions.
    """

    scene_ids: np.ndarray  # (n,) str, object dtype
    features: np.ndarray   # (n, v_obj) float64
    captions: np.ndarray   # (n, L) int64, zero past each length
    lengths: np.ndarray    # (n,) caption lengths
    truth: np.ndarray      # (n, v_obj) bool
    inserted: np.ndarray   # (n, L) bool

    def __len__(self) -> int:
        return len(self.scene_ids)

    def take(self, idx) -> "Corpus":
        """The rows at ``idx``, an index array or a boolean mask, in its order."""
        return Corpus(*(getattr(self, f.name)[idx] for f in fields(self)))


def build_caption(
    rng: np.random.Generator,
    true_objects,
    bias_pairs,
    hallucination_rate: float,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Caption tokens plus the positions of hallucinated object mentions.

    Mentions are separated by uniform filler gaps of fixed length, so the
    caption has a rigid rhythm: intro, mention, gap, mention, ..., end.
    Partners of present triggers may then tail the caption, each in the
    stock phrase "also there is <partner>" — associates slipping in as
    afterthoughts.  The phrase never occurs elsewhere, so a partner
    mention is predictable from the preceding words alone: the bias lives
    in the language channel.  With ``hallucination_rate`` 0 the caption
    lists exactly the true objects and nothing else.
    """
    true_set = set(int(o) for o in true_objects)
    order = [int(o) for o in rng.permutation(sorted(true_set))]
    # Every gap in one call: the draws of one ``rng.choice(_GAP_TOKENS,
    # size=GAP_LEN)`` per gap, in order, without its per-call set-up.
    gaps = rng.integers(0, len(_GAP_TOKENS), size=(max(len(order) - 1, 0), GAP_LEN)).tolist()
    tokens: list[int] = [BOS_ID, *_INTRO]
    halluc: list[int] = []
    for i, obj in enumerate(order):
        if i:
            tokens.extend(_GAP_TOKENS[g] for g in gaps[i - 1])
        tokens.append(object_token(obj))
    inserted: set[int] = set()
    for a, b, p in bias_pairs:
        if a not in true_set or b in true_set or b in inserted:
            continue
        if rng.random() < p * hallucination_rate:
            tokens.extend(_MARKER)
            halluc.append(len(tokens))
            tokens.append(object_token(b))
            inserted.add(b)
    tokens.append(EOS_ID)
    return tuple(tokens), tuple(halluc)


def groundable_objects(cfg: CorpusConfig) -> tuple[int, ...]:
    """Object ids that may actually appear in a scene.

    Bias partners are caption-only objects: they enter captions through
    co-occurrence insertions but are never visible, so the bias between a
    trigger and its partner lives purely in the text.
    """
    partners = {b for _, b, _ in cfg.bias_pairs}
    return tuple(o for o in range(cfg.vocab_objects) if o not in partners)


def generate_corpus(cfg: CorpusConfig) -> Corpus:
    """Generate ``cfg.num_scenes`` scenes; fully determined by ``cfg.seed``."""
    groundable = groundable_objects(cfg)
    n, v_obj = cfg.num_scenes, cfg.vocab_objects
    features, truth = np.empty((n, v_obj)), np.zeros((n, v_obj), dtype=bool)
    captions, positions = [], []
    for index in range(n):
        rng = rng_for(cfg.seed, "scene", index)
        k = int(rng.integers(MIN_OBJECTS, MAX_OBJECTS + 1))
        objs = np.sort(rng.choice(groundable, size=k, replace=False))
        truth[index, objs] = True
        np.add(truth[index], rng.normal(0.0, cfg.sigma_jitter, v_obj), out=features[index])
        caption, halluc = build_caption(rng, objs, cfg.bias_pairs, cfg.hallucination_rate)
        captions.append(caption)
        positions.append(halluc)
    return _corpus([f"scene-{index:06d}" for index in range(n)], features, truth, captions, positions)


def held_out(n: int, test_fraction: float, seed: int) -> np.ndarray:
    """Which of a corpus's ``n`` rows its (train, test) split holds out, as a boolean mask.

    Deterministic in ``(n, test_fraction, seed)``.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n_test = int(round(test_fraction * n))
    if n_test < 1 or n_test >= n:
        raise ValueError(f"degenerate split: {n_test} test scenes out of {n}")
    mask = np.zeros(n, dtype=bool)
    mask[rng_for(seed, "split").permutation(n)[:n_test]] = True
    return mask


def train_test_split(corpus: Corpus, test_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Partition ``corpus`` into (train, test), both in corpus order, holding out the ``held_out`` rows."""
    test = held_out(len(corpus), test_fraction, seed)
    return corpus.take(~test), corpus.take(test)


def _dumps(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def sidecar_path(path: str | os.PathLike, digest: str) -> str:
    """The array sidecar of the JSON-lines corpus at ``path`` whose bytes hash to ``digest``."""
    return f"{os.fspath(path)}.{digest}.npy"


# Rows of a sidecar written, or read and checked, at a time: the whole
# corpus never sits in one structured array.
SIDECAR_BLOCK_ROWS = 512


def _sidecar_dtype(id_len: int, v_obj: int, width: int) -> np.dtype:
    return np.dtype([
        ("scene_id", f"<U{id_len}"), ("feature", "<f8", (v_obj,)), ("caption", "<i8", (width,)),
        ("length", "<i8"), ("truth", "?", (v_obj,)), ("inserted", "?", (width,)),
    ])


def _write_records(corpus: Corpus, path: str | os.PathLike, words: tuple[str, ...]) -> str:
    """One JSON scene record per row of ``corpus``, each caption token spelt
    ``words[token]``; the sha256 of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for i, sid in enumerate(corpus.scene_ids):
            caption = corpus.captions[i, : corpus.lengths[i]].tolist()
            record = {
                "scene_id": sid,
                "true_objects": np.flatnonzero(corpus.truth[i]).tolist(),
                "feature": corpus.features[i].tolist(),
                "caption": caption,
                "caption_surfaces": [words[t] for t in caption],
                "hallucinated_positions": np.flatnonzero(corpus.inserted[i]).tolist(),
            }
            line = (_dumps(record) + "\n").encode("utf-8")
            digest.update(line)
            fh.write(line)
    return digest.hexdigest()


def write_corpus(corpus: Corpus, path: str | os.PathLike) -> None:
    """One JSON scene record per row of ``corpus``, the format ``read_corpus`` reads.

    Beside it goes the same corpus as one structured array, named by the
    sha256 of the JSON-lines bytes (``sidecar_path``) and written
    ``SIDECAR_BLOCK_ROWS`` rows at a time, so that ``read_corpus`` can skip
    decoding them; sidecars of earlier contents of ``path`` are removed.  An
    empty corpus, or one whose scene ids a fixed-width numpy string would not
    give back (a trailing NUL), gets no sidecar.  A caption token outside the
    vocabulary raises ValueError before anything is written.
    """
    v_obj, width = corpus.features.shape[1], corpus.captions.shape[1]
    vocab = vocab_size(v_obj)
    within = np.arange(width) < corpus.lengths[:, None]
    bad = np.argwhere(within & ((corpus.captions < 0) | (corpus.captions >= vocab)))
    if len(bad):
        sid, token = corpus.scene_ids[bad[0, 0]], corpus.captions[tuple(bad[0])]
        raise ValueError(f"scene {sid!r}: caption token {token} outside [0, {vocab})")
    digest = _write_records(corpus, path, surfaces_for(range(vocab), v_obj))
    for stale in glob.glob(f"{glob.escape(os.fspath(path))}.{'[0-9a-f]' * 64}.npy"):
        os.remove(stale)
    ids = np.array(corpus.scene_ids.tolist(), dtype=str)
    if len(corpus) == 0 or ids.tolist() != corpus.scene_ids.tolist():
        return
    # The arrays as they are: where they are not what the JSON reader would
    # build (padding wider than the longest caption, say), the reader's
    # checks of the sidecar reject it.  The bytes are ``np.save``'s.
    dtype = _sidecar_dtype(ids.dtype.itemsize // 4, v_obj, width)
    block = np.zeros(min(len(corpus), SIDECAR_BLOCK_ROWS), dtype=dtype)
    with open(sidecar_path(path, digest), "wb") as fh:
        header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": (len(corpus),)}
        np.lib.format.write_array_header_1_0(fh, header)
        for start in range(0, len(corpus), SIDECAR_BLOCK_ROWS):
            rows = slice(start, start + SIDECAR_BLOCK_ROWS)
            part = block[: len(ids[rows])]
            part["scene_id"] = ids[rows]
            for name, field in zip(dtype.names[1:], fields(Corpus)[1:]):
                part[name] = getattr(corpus, field.name)[rows]
            fh.write(part.tobytes())


def _check_record(record) -> str:
    """The scene_id of a JSON scene record, after every check a scene gets.

    The record's lists must hold ``_RECORD_TYPES`` and finite features; the
    caption must have one surface per token, tokens in the vocabulary of
    the feature length, and BOS followed by at least one token; hallucinated
    positions must lie in the caption and object ids in the feature.
    """
    if not isinstance(record, dict):
        raise ValueError("scene record must be a JSON object")
    sid = record.get("scene_id")
    if not isinstance(sid, str) or sid == "":
        raise ValueError("scene_id must be a non-empty string")
    for name, (kinds, what) in _RECORD_TYPES.items():
        values = record.get(name)
        if not isinstance(values, list):
            raise ValueError(f"scene {sid!r}: {name} must be a list")
        if not kinds.issuperset(map(type, values)):
            bad = next(v for v in values if type(v) not in kinds)
            raise ValueError(f"scene {sid!r}: {name} holds {bad!r}, not {what}")
    feature, caption = record["feature"], record["caption"]
    if not all(map(math.isfinite, feature)):  # an integer past the float range raises OverflowError
        bad = next(v for v in feature if not math.isfinite(v))
        raise ValueError(f"scene {sid!r}: feature holds {bad!r}, not a finite number")
    if len(caption) != len(record["caption_surfaces"]):
        raise ValueError(f"scene {sid!r}: caption/surface length mismatch")
    for pos in record["hallucinated_positions"]:
        if not 0 <= pos < len(caption):
            raise ValueError(f"scene {sid!r}: hallucinated position {pos} out of range")
    for obj in record["true_objects"]:
        if not 0 <= obj < len(feature):
            raise ValueError(f"scene {sid!r}: object id {obj} outside [0, {len(feature)}), the feature length")
    vocab = vocab_size(len(feature))
    if caption and (min(caption) < 0 or max(caption) >= vocab):
        bad = next(t for t in caption if not 0 <= t < vocab)
        raise ValueError(f"scene {sid!r}: caption token {bad} outside [0, {vocab})")
    if caption[:1] != [BOS_ID]:
        raise ValueError(f"scene {sid!r}: caption does not start with BOS ({BOS_ID})")
    if len(caption) < 2:
        raise ValueError(f"scene {sid!r}: caption holds no token after BOS")
    return sid


def _mask(lists: list, width: int) -> np.ndarray:
    """A (len(lists), width) boolean array, row ``i`` True at the columns ``lists[i]`` names."""
    out = np.zeros((len(lists), width), dtype=bool)
    rows = np.repeat(np.arange(len(lists)), [len(x) for x in lists])
    out[rows, np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=len(rows))] = True
    return out


def _corpus(ids: list, features: np.ndarray, truth: np.ndarray, captions: list, positions: list) -> Corpus:
    """The corpus of per-scene captions and inserted positions, one entry per scene, as checked or generated."""
    lengths = np.fromiter(map(len, captions), dtype=np.int64, count=len(ids))
    padded = np.zeros((len(ids), int(lengths.max(initial=0))), dtype=np.int64)
    within = np.arange(padded.shape[1]) < lengths[:, None]
    padded[within] = np.fromiter(chain.from_iterable(captions), dtype=np.int64, count=int(lengths.sum()))
    return Corpus(np.array(ids, dtype=object), features, padded, lengths, truth, _mask(positions, padded.shape[1]))


def _read_sidecar(path: str | os.PathLike, keep: Callable[[int], np.ndarray] | None) -> Corpus | None:
    """The rows ``keep`` picks of the corpus the sidecar of ``path``'s current
    bytes holds, or None unless it loads, has the sidecar dtype and passes, as
    arrays, the checks ``read_corpus`` makes per line.

    The rows are read and checked ``SIDECAR_BLOCK_ROWS`` at a time, and only
    the kept ones are copied out.
    """
    if not os.path.isfile(path):  # hashing a pipe would consume what the JSON reader is to read
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    try:
        fh = open(sidecar_path(path, digest.hexdigest()), "rb")
    except OSError:  # missing or unreadable
        return None
    with fh:
        try:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran_order, dt = np.lib.format.read_array_header_1_0(fh)
            expected = _sidecar_dtype(dt["scene_id"].itemsize // 4, *dt["feature"].shape, *dt["caption"].shape)
        except (OSError, ValueError, KeyError, TypeError):  # not an array file, a field missing or of another rank
            return None
        if dt != expected or fortran_order or len(shape) != 1 or shape[0] == 0:
            return None
        n, width, vocab = shape[0], dt["caption"].shape[0], vocab_size(dt["feature"].shape[0])
        try:
            kept = np.ones(n, dtype=bool) if keep is None else keep(n)
        except ValueError:  # the JSON reader raises it, after any fault of the lines
            return None
        out = {name: np.empty((int(kept.sum()), *dt[name].shape), dtype=dt[name].base) for name in dt.names}
        ids, block = np.empty(n, dtype=dt["scene_id"]), np.empty(min(n, SIDECAR_BLOCK_ROWS), dtype=dt)
        done = longest = 0  # rows kept so far; the longest caption
        for start in range(0, n, SIDECAR_BLOCK_ROWS):
            rows = block[: min(SIDECAR_BLOCK_ROWS, n - start)]
            if fh.readinto(rows.view(np.uint8)) != rows.nbytes:  # a truncated file
                return None
            lengths, captions, inserted = rows["length"], rows["caption"], rows["inserted"]
            within = np.arange(width) < lengths[:, None]
            in_vocab = (captions >= 0) & (captions < vocab)
            valid = (
                np.all(rows["scene_id"] != "")
                and np.isfinite(rows["feature"]).all()
                and np.all((lengths >= 2) & (lengths <= width))
                and np.all(captions[:, 0] == BOS_ID)
                and np.all(np.where(within, in_vocab, captions == 0))
                and not np.any(inserted & ~within)
                # a bool holds one byte, 0 or 1, as every array the JSON reader builds
                and rows["truth"].view(np.uint8).max() <= 1 and inserted.view(np.uint8).max() <= 1
            )
            if not valid:
                return None
            ids[start : start + len(rows)] = rows["scene_id"]
            longest = max(longest, int(lengths.max()))
            picked = kept[start : start + len(rows)]
            count = int(picked.sum())
            for name in dt.names:
                out[name][done : done + count] = rows[name][picked]
            done += count
    if longest != width or len(np.unique(ids)) != n:
        return None
    # The fields after the id are Corpus's, in its order.
    return Corpus(np.array(out.pop("scene_id").tolist(), dtype=object), *out.values())


def read_corpus(path: str | os.PathLike, keep: Callable[[int], np.ndarray] | None = None) -> Corpus:
    """The scenes of a JSON-lines corpus, as arrays.

    When the file has a sidecar (``write_corpus``) for its current bytes,
    and the sidecar loads and passes the checks, the arrays come from it;
    otherwise every line is decoded and checked.  A malformed line, a
    record that fails a scene's checks, a repeated scene_id or a feature
    whose length differs from the first scene's raises ValueError naming
    the file and the line.  ``keep``, when given, maps the number of scenes
    to a boolean mask of the rows to return, in corpus order; every row is
    checked all the same.
    """
    corpus = _read_sidecar(path, keep)
    if corpus is not None:
        return corpus
    where = os.fspath(path)
    first_line: dict[str, int] = {}
    features, captions, objects, positions = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip() == "":
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # also a JSON integer past int()'s digit limit, which is not a JSONDecodeError
                raise ValueError(f"{where}:{lineno}: invalid JSON: {getattr(exc, 'msg', exc)}") from exc
            try:
                sid = _check_record(record)
            except (OverflowError, ValueError) as exc:
                raise ValueError(f"{where}:{lineno}: {exc}") from exc
            if sid in first_line:
                raise ValueError(f"{where}:{lineno}: duplicate scene_id {sid!r} (first on line {first_line[sid]})")
            feature = record["feature"]
            if features and len(feature) != len(features[0]):
                raise ValueError(
                    f"{where}:{lineno}: feature has {len(feature)} values, "
                    f"the first scene's has {len(features[0])}"
                )
            first_line[sid] = lineno
            features.append(feature)
            captions.append(record["caption"])
            objects.append(record["true_objects"])
            positions.append(record["hallucinated_positions"])
    n, v_obj = len(features), len(features[0]) if features else 0
    features = np.array(features, dtype=np.float64).reshape(n, v_obj)
    corpus = _corpus(list(first_line), features, _mask(objects, v_obj), captions, positions)
    return corpus if keep is None else corpus.take(keep(n))
