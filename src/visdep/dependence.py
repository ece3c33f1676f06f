"""Per-token visual dependence and the three-way token classification.

The dependence of a token on the conditioning input is the relative
change of its probability when the clean input is replaced by a noised
one::

    d = (p_clean - p_noisy) / max(p_clean, p_noisy)

``d`` lies in [-1, 1]: close to 1 the token leaned on the clean input,
close to -1 it became more likely once the input was destroyed, and
around 0 the input made no difference.  Tokens are bucketed into three
classes with fixed boundaries at +/-0.25.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .trace import TokenTrace

POSITIVE_THRESHOLD = 0.25
NEGATIVE_THRESHOLD = -0.25


class TokenClass(Enum):
    IMAGE_POSITIVE = "positive"
    IMAGE_INVARIANT = "invariant"
    IMAGE_NEGATIVE = "negative"


# ``classify_array`` returns indices into this tuple.
CLASS_BY_CODE = (TokenClass.IMAGE_NEGATIVE, TokenClass.IMAGE_INVARIANT, TokenClass.IMAGE_POSITIVE)


def check_range(arr: np.ndarray, lo: float, hi: float, what: str) -> None:
    """Raise ``ValueError`` if any entry is NaN or outside [lo, hi]."""
    inside = (arr >= lo) & (arr <= hi)
    if np.count_nonzero(inside) != inside.size:
        raise ValueError(f"{what} contains values outside [{lo:g}, {hi:g}]")


def dependence_array(p_clean, p_noisy) -> np.ndarray:
    """``d`` for parallel probability arrays; both probabilities zero give 0.

    Both probabilities of exactly zero carry no signal either way, and
    padding past a sequence's length is zero in both, so it stays zero.
    """
    pc = np.asarray(p_clean, dtype=np.float64)
    pn = np.asarray(p_noisy, dtype=np.float64)
    if pc.shape != pn.shape:
        raise ValueError("p_clean and p_noisy must have the same shape")
    m = np.maximum(pc, pn)
    # One check covers both arrays (a NaN survives minimum and maximum); on
    # failure, name the offending array.
    inside = (np.minimum(pc, pn) >= 0.0) & (m <= 1.0)
    if np.count_nonzero(inside) != inside.size:
        check_range(pc, 0.0, 1.0, "p_clean")
        check_range(pn, 0.0, 1.0, "p_noisy")
    return np.divide(pc - pn, m, out=np.zeros(m.shape), where=m > 0.0)


def classify_array(d) -> np.ndarray:
    """Class codes (indices into ``CLASS_BY_CODE``); boundaries go to the upper class."""
    d = np.asarray(d, dtype=np.float64)
    check_range(d, -1.0, 1.0, "dependence values")
    return (d >= NEGATIVE_THRESHOLD).astype(np.int8) + (d >= POSITIVE_THRESHOLD)


def profile_trace(trace: TokenTrace) -> np.ndarray:
    """The per-token ``d`` of a trace read from a file."""
    return dependence_array(trace.p_clean, trace.p_noisy)
