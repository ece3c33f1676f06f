"""Per-token loss weights derived from per-token dependence.

Raw weights pick out one side of the dependence axis — emphasize-negative
keeps ``-d`` for tokens with ``d <= 0``, emphasize-positive keeps ``d``
for tokens with ``d > 0``, and vanilla zeroes everything.  Raw weights
are then passed through a temperature softmax and rescaled so they sum
to the sequence length, which keeps the loss magnitude comparable to the
unweighted one.  A floor keeps the terminal EOS weight at >= 1 so the
model never un-learns when to stop.  Weights are built for padded (B, T)
rows at once; a one-row batch is the single-sequence case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dependence import check_range


class LossMode(Enum):
    VANILLA = "mle"
    EMPHASIZE_NEGATIVE = "wneg"
    EMPHASIZE_POSITIVE = "wpos"


@dataclass(frozen=True)
class ReweightConfig:
    mode: LossMode = LossMode.VANILLA
    tau: float = 0.5
    start_fraction: float = 0.5
    eos_floor: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.mode, LossMode):
            raise ValueError(f"mode must be a LossMode, got {self.mode!r}")
        if not math.isfinite(self.tau) or self.tau < 0.0:
            raise ValueError(f"tau must be a finite non-negative real, got {self.tau}")
        if not 0.0 <= self.start_fraction <= 1.0:
            raise ValueError(f"start_fraction must lie in [0, 1], got {self.start_fraction}")


def raw_weights(d_values, mode: LossMode) -> np.ndarray:
    """Pre-softmax weight of each token under the given mode."""
    d = np.asarray(d_values, dtype=np.float64)
    check_range(d, -1.0, 1.0, "dependence values")
    if mode is LossMode.EMPHASIZE_NEGATIVE:
        return np.where(d <= 0.0, -d, 0.0)
    if mode is LossMode.EMPHASIZE_POSITIVE:
        return np.where(d > 0.0, d, 0.0)
    if mode is LossMode.VANILLA:
        return np.zeros_like(d)
    raise ValueError(f"unknown mode {mode!r}")


def raw_weight(d: float, mode: LossMode) -> float:
    """``raw_weights`` for one dependence value."""
    return float(raw_weights(d, mode))


def normalize_weights(raw, tau: float) -> np.ndarray:
    """Temperature softmax rescaled so the weights sum to the length.

    The max is subtracted before exponentiation, so any finite raw
    weights are safe.  With ``tau == 0`` (or all-equal raw weights) every
    weight comes out exactly 1.0.
    """
    r = np.asarray(raw, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("raw weights must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(r)):
        raise ValueError("raw weights must be finite")
    if not math.isfinite(tau) or tau < 0.0:
        raise ValueError(f"tau must be a finite non-negative real, got {tau}")
    return _softmax_rows(r[None, :], np.array([r.size]), tau)[0]


def _softmax_rows(raw: np.ndarray, lengths: np.ndarray, tau: float) -> np.ndarray:
    """``normalize_weights`` on each padded (B, T) row over its own length; zero past it."""
    valid = np.arange(raw.shape[1])[None, :] < lengths[:, None]
    scaled = np.where(valid, tau * raw, -np.inf)
    exps = np.exp(scaled - scaled.max(axis=1, keepdims=True))
    # Each sum runs over its row's own length: summing the padded row would
    # regroup numpy's pairwise summation and can move the last bit.
    sums = np.array([row[:n].sum() for row, n in zip(exps, lengths)])
    # (n * e) / sum rather than n * (e / sum): gives exact ones when all
    # the exponentials are equal.
    return (lengths[:, None] * exps) / sums[:, None]


def reweighting_active(cfg: ReweightConfig, progress: float) -> bool:
    """Whether the weights at this point in training can differ from all-ones.

    They cannot in vanilla mode, nor before ``start_fraction`` of training
    has elapsed; the trainer skips the noisy pass on those steps.
    """
    return cfg.mode is not LossMode.VANILLA and progress >= cfg.start_fraction


def training_weights(d: np.ndarray, lengths: np.ndarray, cfg: ReweightConfig) -> np.ndarray:
    """Loss weights of a re-weighted step for padded (B, T) dependence rows.

    Each row is normalized over its own length and is zero past it; with
    the floor on, the last position of each row (its EOS) weighs at least 1.
    Steps where ``reweighting_active`` fails use all-ones weights instead.
    """
    weights = _softmax_rows(raw_weights(d, cfg.mode), lengths, cfg.tau)
    if cfg.eos_floor:
        rows, eos = np.arange(len(lengths)), lengths - 1
        weights[rows, eos] = np.maximum(weights[rows, eos], 1.0)
    return weights
