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

import json
import math
import os
from dataclasses import dataclass, field

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


def token_object(token: int) -> int | None:
    """Object id for an object token, None for function tokens."""
    return token - OBJECT_BASE if token >= OBJECT_BASE else None


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


@dataclass(frozen=True)
class SyntheticScene:
    scene_id: str
    true_objects: tuple[int, ...]
    feature: tuple[float, ...]
    caption: tuple[int, ...]
    caption_surfaces: tuple[str, ...]
    hallucinated_positions: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "true_objects", tuple(map(int, self.true_objects)))
        object.__setattr__(self, "feature", tuple(map(float, self.feature)))
        object.__setattr__(self, "caption", tuple(map(int, self.caption)))
        object.__setattr__(self, "caption_surfaces", tuple(self.caption_surfaces))
        object.__setattr__(self, "hallucinated_positions", tuple(map(int, self.hallucinated_positions)))
        if len(self.caption) != len(self.caption_surfaces):
            raise ValueError(f"scene {self.scene_id!r}: caption/surface length mismatch")
        for pos in self.hallucinated_positions:
            if not 0 <= pos < len(self.caption):
                raise ValueError(f"scene {self.scene_id!r}: hallucinated position {pos} out of range")
        for obj in self.true_objects:
            if not 0 <= obj < len(self.feature):
                raise ValueError(
                    f"scene {self.scene_id!r}: object id {obj} outside [0, {len(self.feature)}), the feature length"
                )

    def to_record(self) -> dict:
        return {
            "scene_id": self.scene_id,
            "true_objects": list(self.true_objects),
            "feature": list(self.feature),
            "caption": list(self.caption),
            "caption_surfaces": list(self.caption_surfaces),
            "hallucinated_positions": list(self.hallucinated_positions),
        }

    @classmethod
    def from_record(cls, record) -> "SyntheticScene":
        """The scene of a JSON record; its lists hold ``_RECORD_TYPES`` and finite features."""
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
        if not all(map(math.isfinite, record["feature"])):
            bad = next(v for v in record["feature"] if not math.isfinite(v))
            raise ValueError(f"scene {sid!r}: feature holds {bad!r}, not a finite number")
        return cls(scene_id=sid, **{name: record[name] for name in _RECORD_TYPES})


def _sample_gap(rng: np.random.Generator) -> list[int]:
    return [int(t) for t in rng.choice(_GAP_TOKENS, size=GAP_LEN)]


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
    tokens: list[int] = [BOS_ID, *_INTRO]
    halluc: list[int] = []
    first = True
    for obj in order:
        if not first:
            tokens.extend(_sample_gap(rng))
        first = False
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


def _make_scene(cfg: CorpusConfig, index: int) -> SyntheticScene:
    rng = rng_for(cfg.seed, "scene", index)
    k = int(rng.integers(MIN_OBJECTS, MAX_OBJECTS + 1))
    objs = np.sort(rng.choice(groundable_objects(cfg), size=k, replace=False))
    feature = np.zeros(cfg.vocab_objects)
    feature[objs] = 1.0
    feature = feature + rng.normal(0.0, cfg.sigma_jitter, cfg.vocab_objects)
    caption, halluc = build_caption(rng, objs, cfg.bias_pairs, cfg.hallucination_rate)
    return SyntheticScene(
        scene_id=f"scene-{index:06d}",
        true_objects=tuple(int(o) for o in objs),
        feature=tuple(float(x) for x in feature),
        caption=caption,
        caption_surfaces=surfaces_for(caption, cfg.vocab_objects),
        hallucinated_positions=halluc,
    )


def generate_corpus(cfg: CorpusConfig) -> list[SyntheticScene]:
    """Generate ``cfg.num_scenes`` scenes; fully determined by ``cfg.seed``."""
    return [_make_scene(cfg, i) for i in range(cfg.num_scenes)]


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


def train_test_split(
    scenes: list[SyntheticScene],
    test_fraction: float,
    seed: int,
) -> tuple[list[SyntheticScene], list[SyntheticScene]]:
    """Partition ``scenes`` into (train, test), both in corpus order.

    The halves hold the input scene objects themselves; which positions
    are held out is deterministic in ``(len(scenes), test_fraction, seed)``.
    """
    n = len(scenes)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n_test = int(round(test_fraction * n))
    if n_test < 1 or n_test >= n:
        raise ValueError(f"degenerate split: {n_test} test scenes out of {n}")
    test_idx = set(rng_for(seed, "split").permutation(n)[:n_test].tolist())
    train = [s for i, s in enumerate(scenes) if i not in test_idx]
    test = [s for i, s in enumerate(scenes) if i in test_idx]
    return train, test


def _dumps(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def write_corpus(scenes: list[SyntheticScene], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in scenes:
            fh.write(_dumps(s.to_record()) + "\n")


def read_corpus(path: str | os.PathLike) -> list[SyntheticScene]:
    """Scenes of a JSON-lines corpus.

    A malformed line, a list entry of the wrong JSON type, a repeated
    scene_id or a feature whose length differs from the first scene's
    raises ValueError naming the file and the line.
    """
    where = os.fspath(path)
    scenes = []
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip() == "":
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}:{lineno}: invalid JSON: {exc.msg}") from exc
            try:
                scene = SyntheticScene.from_record(record)
            except (OverflowError, ValueError) as exc:
                # an integer feature too large for a float overflows
                raise ValueError(f"{where}:{lineno}: {exc}") from exc
            sid = scene.scene_id
            if sid in first_line:
                raise ValueError(f"{where}:{lineno}: duplicate scene_id {sid!r} (first on line {first_line[sid]})")
            if scenes and len(scene.feature) != len(scenes[0].feature):
                raise ValueError(
                    f"{where}:{lineno}: feature has {len(scene.feature)} values, "
                    f"the first scene's has {len(scenes[0].feature)}"
                )
            first_line[sid] = lineno
            scenes.append(scene)
    return scenes
