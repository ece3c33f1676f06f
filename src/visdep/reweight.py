"""Per-token loss weights derived from dependence profiles.

Raw weights pick out one side of the dependence axis — emphasize-negative
keeps ``-d`` for tokens with ``d <= 0``, emphasize-positive keeps ``d``
for tokens with ``d > 0``, and vanilla zeroes everything.  Raw weights
are then passed through a temperature softmax and rescaled so they sum
to the sequence length, which keeps the loss magnitude comparable to the
unweighted one.  A floor keeps the terminal EOS weight at >= 1 so the
model never un-learns when to stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dependence import DependenceProfile


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


@dataclass(frozen=True)
class WeightVector:
    """Non-negative per-token loss weights for one sequence."""

    weights: np.ndarray
    seq_len: int

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or len(w) != self.seq_len or self.seq_len < 1:
            raise ValueError("weights must be 1-D with length seq_len >= 1")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("weights must be finite and non-negative")
        w.setflags(write=False)


def raw_weight(d: float, mode: LossMode) -> float:
    """Pre-softmax weight of one token under the given mode."""
    d = float(d)
    if not math.isfinite(d) or d < -1.0 or d > 1.0:
        raise ValueError(f"dependence value {d!r} outside [-1, 1]")
    if mode is LossMode.EMPHASIZE_NEGATIVE:
        return -d if d <= 0.0 else 0.0
    if mode is LossMode.EMPHASIZE_POSITIVE:
        return d if d > 0.0 else 0.0
    if mode is LossMode.VANILLA:
        return 0.0
    raise ValueError(f"unknown mode {mode!r}")


def raw_weights(d_values, mode: LossMode) -> np.ndarray:
    d = np.asarray(d_values, dtype=np.float64)
    if d.size and (not np.all(np.isfinite(d)) or d.min() < -1.0 or d.max() > 1.0):
        raise ValueError("dependence values outside [-1, 1]")
    if mode is LossMode.EMPHASIZE_NEGATIVE:
        return np.where(d <= 0.0, -d, 0.0)
    if mode is LossMode.EMPHASIZE_POSITIVE:
        return np.where(d > 0.0, d, 0.0)
    if mode is LossMode.VANILLA:
        return np.zeros_like(d)
    raise ValueError(f"unknown mode {mode!r}")


def normalize_weights(raw, tau: float) -> WeightVector:
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
    weights = _softmax_rows(r[None, :], np.array([r.size]), tau)[0]
    return WeightVector(weights=weights, seq_len=r.size)


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


def apply_eos_floor(wv: WeightVector, eos_index: int | None) -> WeightVector:
    """Clamp the EOS weight up to at least 1.0; other entries untouched."""
    if eos_index is None:
        return wv
    if not 0 <= eos_index < wv.seq_len:
        raise ValueError(f"eos_index {eos_index} out of range for length {wv.seq_len}")
    if wv.weights[eos_index] >= 1.0:
        return wv
    weights = wv.weights.copy()
    weights[eos_index] = 1.0
    return WeightVector(weights=weights, seq_len=wv.seq_len)


def reweighting_active(cfg: ReweightConfig, progress: float) -> bool:
    """Whether the weights at this point in training can differ from all-ones.

    They cannot in vanilla mode, nor before ``start_fraction`` of training
    has elapsed; the trainer skips the noisy pass on those steps.
    """
    return cfg.mode is not LossMode.VANILLA and progress >= cfg.start_fraction


def training_weights(
    profile: DependenceProfile,
    cfg: ReweightConfig,
    progress: float,
    eos_index: int | None = None,
) -> WeightVector:
    """Loss weights for one sequence at the given point in training.

    Until ``reweighting_active`` holds the result is the exact all-ones
    vector, so gated runs are bit-identical to unweighted ones.
    """
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must lie in [0, 1], got {progress}")
    n = len(profile)
    if not reweighting_active(cfg, progress):
        return WeightVector(weights=np.ones(n), seq_len=n)
    wv = normalize_weights(raw_weights(profile.d, cfg.mode), cfg.tau)
    if cfg.eos_floor:
        wv = apply_eos_floor(wv, eos_index)
    return wv


def weight_rows(d: np.ndarray, lengths: np.ndarray, cfg: ReweightConfig) -> np.ndarray:
    """Active-step weights for padded (B, T) dependence rows; zero past each length.

    Row for row, bit for bit, ``training_weights`` with the EOS at the last
    position.
    """
    weights = _softmax_rows(raw_weights(d, cfg.mode), lengths, cfg.tau)
    if cfg.eos_floor:
        rows, eos = np.arange(len(lengths)), lengths - 1
        weights[rows, eos] = np.maximum(weights[rows, eos], 1.0)
    return weights
