"""Rank training samples by summed visual dependence and filter the corpus.

Each sample is scored with a trained model: one teacher-forced pass under
the clean feature vector, one under a single fixed noise draw, then the
per-token dependence values are summed.  A manifest records which samples
a strategy keeps and removes, so filtered retraining is reproducible.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diffusion import DEFAULT_NOISE_STEP
from .seeding import derive_seed, rng_for
from .synth import Corpus
from .toymodel import ModelParams, noised_dependence, teacher_forced_probs

# Unused here but hooked by name by ``bench/tracer.py`` (tests/test_bench_hooks.py).
from .dependence import profile_trace  # noqa: F401
from .diffusion import corrupt  # noqa: F401
from .trace import TokenTrace  # noqa: F401

MANIFEST_FORMAT = "visdep-filter-manifest"
MANIFEST_VERSION = 1


def _is_finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


class FilterStrategy(Enum):
    REMOVE_HIGHEST = "highest"
    REMOVE_LOWEST = "lowest"
    REMOVE_RANDOM = "random"


@dataclass(frozen=True)
class FilterManifest:
    strategy: FilterStrategy
    fraction: float
    kept: tuple[str, ...]
    removed: tuple[str, ...]
    scores: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "kept", tuple(self.kept))
        object.__setattr__(self, "removed", tuple(self.removed))
        kept_set = set(self.kept)
        removed_set = set(self.removed)
        if kept_set & removed_set:
            raise ValueError("kept and removed overlap")
        if kept_set | removed_set != set(self.scores):
            raise ValueError("kept + removed must partition the scored sample ids")
        expected = int(round(self.fraction * len(self.scores)))
        if len(self.removed) != expected:
            raise ValueError(
                f"removed count {len(self.removed)} != round(fraction * n) = {expected}"
            )

    def to_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "strategy": self.strategy.value,
            "fraction": self.fraction,
            "kept": list(self.kept),
            "removed": list(self.removed),
            "scores": dict(self.scores),
        }

    @classmethod
    def from_dict(cls, d) -> "FilterManifest":
        if not isinstance(d, dict) or d.get("format") != MANIFEST_FORMAT:
            raise ValueError(f"not a {MANIFEST_FORMAT} object")
        for name in ("kept", "removed"):
            if not isinstance(d.get(name), list) or not all(isinstance(sid, str) for sid in d[name]):
                raise ValueError(f"{name} must be a list of sample ids")
        scores, fraction = d.get("scores"), d.get("fraction")
        if not isinstance(scores, dict) or not all(map(_is_finite_number, scores.values())):
            raise ValueError("scores must map sample ids to finite numbers")
        if not _is_finite_number(fraction):
            raise ValueError(f"fraction must be a finite number, got {fraction!r}")
        return cls(
            strategy=FilterStrategy(d.get("strategy")),
            fraction=fraction,
            kept=d["kept"],
            removed=d["removed"],
            scores=scores,
        )


def save_manifest(manifest: FilterManifest, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_manifest(path: str | os.PathLike) -> FilterManifest:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return FilterManifest.from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{os.fspath(path)}: {exc}") from exc


def score_corpus(
    corpus: Corpus,
    params: ModelParams,
    noise_step: int = DEFAULT_NOISE_STEP,
    seed: int = 42,
) -> dict[str, float]:
    """Summed per-token dependence for every scene, in corpus order.

    Uses one fixed noise draw per sample, derived from ``(seed,
    scene_id)``, so scores are stable across runs and batch sizes.  Each
    caption's ``d`` values are summed left to right.
    """
    if not len(corpus):
        raise ValueError("cannot score an empty corpus")
    ids, lengths = corpus.captions[:, 1:], corpus.lengths - 1
    p_clean = teacher_forced_probs(params, corpus.features, ids, lengths)
    seeds = [derive_seed(seed, "filternoise", sid) for sid in corpus.scene_ids]
    _, d = noised_dependence(params, corpus.features, ids, lengths, p_clean, seeds, noise_step)
    return {sid: float(sum(row[:n].tolist())) for sid, n, row in zip(corpus.scene_ids, lengths.tolist(), d)}


def check_fraction(fraction: float) -> None:
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")


def apply_filter(
    scores: dict[str, float],
    strategy: FilterStrategy,
    fraction: float,
    seed: int = 42,
) -> FilterManifest:
    """Partition sample ids into kept and removed under a strategy.

    ``round(fraction * n)`` samples are removed; score ties break by
    sample id.  Both output lists preserve the input (corpus) order.
    """
    check_fraction(fraction)
    for sid, sc in scores.items():
        if not math.isfinite(sc):
            raise ValueError(f"non-finite score for sample {sid!r}")
    ids = list(scores)
    n_remove = int(round(fraction * len(ids)))
    if strategy is FilterStrategy.REMOVE_HIGHEST:
        ranked = sorted(ids, key=lambda s: (-scores[s], s))
    elif strategy is FilterStrategy.REMOVE_LOWEST:
        ranked = sorted(ids, key=lambda s: (scores[s], s))
    elif strategy is FilterStrategy.REMOVE_RANDOM:
        rng = rng_for(seed, "filter-random")
        ranked = [ids[int(i)] for i in rng.permutation(len(ids))]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    removed_set = set(ranked[:n_remove])
    return FilterManifest(
        strategy=strategy,
        fraction=fraction,
        kept=tuple(s for s in ids if s not in removed_set),
        removed=tuple(s for s in ids if s in removed_set),
        scores={s: float(scores[s]) for s in ids},
    )
