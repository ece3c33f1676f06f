"""Hallucination metrics and token-class attribution for generated captions.

Every function takes a padded batch: ``tokens`` (n, T), read only within
each row's ``lengths`` (n,), and ``truth`` (n, v_obj), True where the
object is in the scene.  A mention is a token ``OBJECT_BASE + id`` with
``0 <= id < v_obj``; it is hallucinated when ``truth`` is False for its
object.  Reported rates follow the usual object-hallucination conventions
— the sentence rate is the share of responses containing any
hallucinated object, the instance rate is hallucinated mentions over all
object mentions — plus object recall and mean response length.

The attribution helpers join mentions with the per-token dependence
``d`` (n, T): a mention takes the class of its token, and co-occurrence
statistics record how far each hallucinated mention sits from the
nearest token of every class in its response.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dependence import CLASS_BY_CODE, TokenClass, classify_array
from .synth import OBJECT_BASE

# The class code of each ``TokenClass``, in enum order: tallies indexed by
# code are reordered with it so that artifacts list the classes in enum order.
_CODES = [CLASS_BY_CODE.index(cls) for cls in TokenClass]


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


def _mentions(tokens, lengths, truth) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, positions, object ids, grounded) of every mention, in row-major order."""
    tokens, lengths, truth = np.asarray(tokens), np.asarray(lengths), np.asarray(truth, dtype=bool)
    if tokens.ndim != 2 or lengths.shape != tokens.shape[:1] or truth.ndim != 2 or len(truth) != len(tokens):
        raise ValueError(
            f"tokens {tokens.shape}, lengths {lengths.shape} and truth {truth.shape} "
            "are not (n, T), (n,) and (n, v_obj) arrays"
        )
    if len(tokens) == 0:
        raise ValueError("cannot evaluate zero samples")
    if np.any((lengths < 0) | (lengths > tokens.shape[1])):
        raise ValueError(f"lengths must lie in [0, {tokens.shape[1]}]")
    obj = tokens - OBJECT_BASE
    inside = np.arange(tokens.shape[1]) < lengths[:, None]
    rows, pos = np.nonzero(inside & (obj >= 0) & (obj < truth.shape[1]))
    obj = obj[rows, pos]
    return rows, pos, obj, truth[rows, obj]


def _class_codes(d, tokens) -> np.ndarray:
    """The class code of every token of ``d``, which must be shaped like ``tokens``."""
    if np.shape(d) != np.shape(tokens):
        raise ValueError(f"d {np.shape(d)} does not align with tokens {np.shape(tokens)}")
    return classify_array(d)


def evaluate(tokens, lengths, truth) -> HallucinationReport:
    """Corpus-level hallucination report.

    Mention-level tallies count every occurrence; recall is pooled over
    all samples.  ``mean_len`` is the mean of ``lengths``.
    """
    rows, _, obj, grounded = _mentions(tokens, lengths, truth)
    n = len(lengths)
    truth_total = int(np.count_nonzero(truth))
    recalled = np.unique(rows[grounded] * np.shape(truth)[1] + obj[grounded]).size
    return HallucinationReport(
        chair_s=np.unique(rows[~grounded]).size / n,
        chair_i=(int(np.count_nonzero(~grounded)) / rows.size) if rows.size else 0.0,
        recall=(recalled / truth_total) if truth_total else 0.0,
        mean_len=int(np.sum(lengths)) / n,
        n_samples=n,
    )


def class_object_counts(d, tokens, lengths, truth) -> np.ndarray:
    """(3, 2) mention counts: rows the token classes in ``TokenClass`` order, columns grounded and hallucinated."""
    rows, pos, _, grounded = _mentions(tokens, lengths, truth)
    codes = _class_codes(d, tokens)[rows, pos]
    return np.stack([np.bincount(codes[m], minlength=len(_CODES))[_CODES] for m in (grounded, ~grounded)], axis=1)


def co_occurrence(d, tokens, lengths, truth, window: int = 3) -> np.ndarray:
    """Distance from each hallucinated mention to the nearest token of each class.

    A (3, window + 3) int array, rows the classes in ``TokenClass`` order:
    column ``k <= window`` counts the mentions whose nearest token of the
    class sits ``k`` tokens away, then come those farther away and those
    whose response has none.  Distances are absolute token-index differences
    within the mention's response; a mention of class C is at distance 0 from C.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    rows, pos, _, grounded = _mentions(tokens, lengths, truth)
    codes = _class_codes(d, tokens)
    rows, pos = rows[~grounded], pos[~grounded]
    t = np.arange(codes.shape[1])
    # (classes, hallucinated mentions, T): the tokens of each class in each mention's response
    of_class = (codes[rows] == np.array(_CODES)[:, None, None]) & (t < np.asarray(lengths)[rows, None])
    present = of_class.any(axis=2)
    nearest = np.where(of_class, np.abs(t - pos[:, None]), t.size).min(axis=2, initial=t.size)
    within = present & (nearest <= window)
    bucket = np.arange(len(_CODES))[:, None] * (window + 1) + nearest
    counts = np.bincount(bucket[within], minlength=len(_CODES) * (window + 1)).reshape(-1, window + 1)
    return np.column_stack([counts, np.count_nonzero(present & ~within, axis=1), np.count_nonzero(~present, axis=1)])
