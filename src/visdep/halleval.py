"""Hallucination metrics and token-class attribution for generated captions.

Responses are scored against ground-truth object sets: an object mention
is hallucinated when the object is absent from the truth set.  Reported
rates follow the usual object-hallucination conventions — the sentence
rate is the share of responses containing any hallucinated object, the
instance rate is hallucinated mentions over all object mentions — plus
object recall and mean response length.

The attribution helpers join mentions with the per-token dependence
``d`` of each response: a mention takes the class of its token, and
co-occurrence statistics record how far each hallucinated mention sits
from the nearest token of every class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dependence import CLASS_BY_CODE, TokenClass, classify_array
from .synth import OBJECT_BASE


class ObjectLexicon:
    """Maps response token ids to object ids."""

    def __init__(self, by_token: Mapping[int, int]):
        self._by_token = dict(by_token)

    @classmethod
    def for_token_vocab(cls, vocab_objects: int) -> "ObjectLexicon":
        return cls({OBJECT_BASE + i: i for i in range(vocab_objects)})

    def mentions(self, tokens: Sequence[int]) -> list[tuple[int, int]]:
        """(position, object_id) for every object mention, in order."""
        return [(i, self._by_token[t]) for i, t in enumerate(tokens) if t in self._by_token]


@dataclass(frozen=True)
class HallucinationReport:
    chair_s: float
    chair_i: float
    recall: float
    mean_len: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("a report requires at least one sample")
        for name in ("chair_s", "chair_i", "recall"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")
        if self.mean_len < 0.0:
            raise ValueError(f"mean_len must be >= 0, got {self.mean_len}")

    def to_dict(self) -> dict:
        return {
            "chair_s": self.chair_s,
            "chair_i": self.chair_i,
            "recall": self.recall,
            "mean_len": self.mean_len,
            "n_samples": self.n_samples,
        }


def evaluate(
    responses: Sequence[Sequence[int]],
    truths: Sequence[set[int] | frozenset[int] | Sequence[int]],
    lexicon: ObjectLexicon,
) -> HallucinationReport:
    """Corpus-level hallucination report.

    Mention-level tallies count every occurrence; recall is aggregated
    over all samples.  ``mean_len`` is the average token count of the
    responses exactly as supplied.
    """
    if len(responses) != len(truths):
        raise ValueError("responses and truths must be parallel")
    n = len(responses)
    if n == 0:
        raise ValueError("cannot evaluate zero samples")
    with_halluc = 0
    halluc_mentions = 0
    total_mentions = 0
    recalled = 0
    truth_total = 0
    total_len = 0
    for i, resp in enumerate(responses):
        truth = frozenset(truths[i])
        ms = lexicon.mentions(resp)
        bad = sum(1 for _, obj in ms if obj not in truth)
        halluc_mentions += bad
        total_mentions += len(ms)
        if bad:
            with_halluc += 1
        mentioned = frozenset(obj for _, obj in ms)
        recalled += len(mentioned & truth)
        truth_total += len(truth)
        total_len += len(resp)
    return HallucinationReport(
        chair_s=with_halluc / n,
        chair_i=(halluc_mentions / total_mentions) if total_mentions else 0.0,
        recall=(recalled / truth_total) if truth_total else 0.0,
        mean_len=total_len / n,
        n_samples=n,
    )


@dataclass(frozen=True)
class ClassObjectCounts:
    """Grounded / hallucinated mention counts per token class."""

    grounded: dict
    hallucinated: dict

    @property
    def total_grounded(self) -> int:
        return sum(self.grounded.values())

    @property
    def total_hallucinated(self) -> int:
        return sum(self.hallucinated.values())


def _response_classes(d_rows: Sequence, responses: Sequence[Sequence[int]], truths: Sequence):
    """Each response's token classes, one ``d`` array per response."""
    if not (len(d_rows) == len(responses) == len(truths)):
        raise ValueError("d arrays, responses and truths must be parallel")
    for i, (d, resp) in enumerate(zip(d_rows, responses)):
        if np.shape(d) != (len(resp),):
            raise ValueError(f"d array {i} does not align with its response")
        yield [CLASS_BY_CODE[code] for code in classify_array(d).tolist()]


def class_object_counts(
    d_rows: Sequence,
    responses: Sequence[Sequence[int]],
    truths: Sequence,
    lexicon: ObjectLexicon,
) -> ClassObjectCounts:
    """Tally every object mention by truth status and the class of its token."""
    grounded = {cls: 0 for cls in TokenClass}
    halluc = {cls: 0 for cls in TokenClass}
    for i, classes in enumerate(_response_classes(d_rows, responses, truths)):
        truth = frozenset(truths[i])
        for pos, obj in lexicon.mentions(responses[i]):
            cls = classes[pos]
            if obj in truth:
                grounded[cls] += 1
            else:
                halluc[cls] += 1
    return ClassObjectCounts(grounded=grounded, hallucinated=halluc)


@dataclass(frozen=True)
class ClassDistanceStats:
    """Distance-to-nearest-token histogram for one class.

    ``counts[k]`` is the number of hallucinated mentions whose nearest
    token of the class sits ``k`` tokens away; mentions farther than the
    window land in ``beyond``, responses with no token of the class at
    all land in ``absent``.
    """

    counts: tuple[int, ...]
    beyond: int
    absent: int

    @property
    def fraction_within(self) -> float | None:
        denom = sum(self.counts) + self.beyond
        return (sum(self.counts) / denom) if denom else None


@dataclass(frozen=True)
class CoOccurrenceHistogram:
    window: int
    per_class: dict

    def total_mentions(self) -> int:
        any_stats = next(iter(self.per_class.values()))
        return sum(any_stats.counts) + any_stats.beyond + any_stats.absent


def co_occurrence(
    d_rows: Sequence,
    responses: Sequence[Sequence[int]],
    truths: Sequence,
    lexicon: ObjectLexicon,
    window: int = 3,
) -> CoOccurrenceHistogram:
    """Distance from each hallucinated mention to the nearest token of each class.

    Distances are symmetric token-index differences; a hallucinated token
    that is itself of class C has distance 0 to C.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    counts = {cls: [0] * (window + 1) for cls in TokenClass}
    beyond = {cls: 0 for cls in TokenClass}
    absent = {cls: 0 for cls in TokenClass}
    for i, classes in enumerate(_response_classes(d_rows, responses, truths)):
        truth = frozenset(truths[i])
        class_positions = {cls: [] for cls in TokenClass}
        for pos, cls in enumerate(classes):
            class_positions[cls].append(pos)
        for pos, obj in lexicon.mentions(responses[i]):
            if obj in truth:
                continue
            for cls in TokenClass:
                positions = class_positions[cls]
                if not positions:
                    absent[cls] += 1
                    continue
                dmin = min(abs(q - pos) for q in positions)
                if dmin <= window:
                    counts[cls][dmin] += 1
                else:
                    beyond[cls] += 1
    per_class = {
        cls: ClassDistanceStats(counts=tuple(counts[cls]), beyond=beyond[cls], absent=absent[cls])
        for cls in TokenClass
    }
    return CoOccurrenceHistogram(window=window, per_class=per_class)
