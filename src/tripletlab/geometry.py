"""Unit-hypersphere primitives for triplet geometry.

Embeddings live on the unit sphere, so similarity is a plain dot product
bounded in [-1, 1]. A triplet (anchor, positive, negative) reduces to a 2D
diagram point (s_ap, s_an); the third pairwise similarity s_pn is recovered
from the diagram point plus a single plane-projection factor gamma, which is
what makes diagram-space simulation possible at all.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

_COLINEAR_EPS = 1e-9


class DegenerateVectorError(ValueError):
    """Raised for a zero or non-finite norm, or another non-finite value."""


class UndefinedGammaError(ValueError):
    """Raised when gamma is requested for a triplet with a colinear pair."""


def unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows / norms, norms): each row on the unit sphere, and the norms
    as an (n, 1) column. A norm that is not finite (it overflowed) or at
    or below 1e-12 raises DegenerateVectorError, with no numpy warning.
    """
    rows = np.asarray(rows, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt((rows * rows).sum(axis=1, keepdims=True))
    if not np.isfinite(norms).all():
        raise DegenerateVectorError("a row's norm overflows or is not finite")
    if (norms <= 1e-12).any():
        raise DegenerateVectorError("a row is a zero vector")
    return rows / norms, norms


class TripletCoord(NamedTuple):
    """Diagram point: anchor-positive and anchor-negative similarity."""

    s_ap: float
    s_an: float


class Elementwise(NamedTuple):
    """The elementwise primitives the diagram formulas are written in."""

    sqrt: Callable
    relu: Callable  # max(x, 0); NaN stays NaN
    where: Callable  # where(cond, a, b)
    exp: Callable


_ARRAY_OPS = Elementwise(np.sqrt, lambda x: np.maximum(x, 0.0), np.where,
                         np.exp)
# numpy's bits on Python floats. math.sqrt is correctly rounded, as np.sqrt
# is. relu keeps np.maximum's NaN and its 0.0 for -0.0. exp stays numpy's:
# glibc's math.exp differs from it in the last bit on about one argument
# in twenty in [-2, 0].
_FLOAT_OPS = Elementwise(math.sqrt, lambda x: 0.0 if x <= 0.0 else x,
                         lambda cond, a, b: a if cond else b,
                         lambda x: float(np.exp(x)))


def elementwise(coord: TripletCoord) -> Elementwise:
    """The primitives for a diagram point: Python-float ones when both
    coordinates are Python floats, numpy's for arrays or a mix.

    A formula written in them serves a point of floats without building
    numpy scalars (bar exp), and arrays of points, with the same bits.
    """
    if type(coord.s_ap) is float and type(coord.s_an) is float:
        return _FLOAT_OPS
    return _ARRAY_OPS


def s_pn_from(coord: TripletCoord, gamma_value: float) -> float:
    """Positive-negative similarity implied by a diagram point and gamma.

    s_pn = s_ap * s_an + gamma * sqrt(1 - s_ap^2) * sqrt(1 - s_an^2),
    with radicands clamped at zero; elementwise over coordinate arrays.
    """
    ops = elementwise(coord)
    rad_ap = ops.relu(1.0 - coord.s_ap * coord.s_ap)
    rad_an = ops.relu(1.0 - coord.s_an * coord.s_an)
    return coord.s_ap * coord.s_an + gamma_value * ops.sqrt(rad_ap * rad_an)


def gamma(coord: TripletCoord, s_pn: float) -> float:
    """Plane-projection factor: the inverse of s_pn_from, elementwise.

    (s_pn - s_ap s_an) / sqrt((1 - s_ap^2)(1 - s_an^2)), clipped to
    [-1, 1], is the cosine between the parts of positive and negative
    orthogonal to the anchor: 1 when all three points are co-planar with
    positive and negative on the same side, 0 when those parts are
    orthogonal. Raises UndefinedGammaError if any point has |s_ap| or
    |s_an| >= 1 - 1e-9, where a colinear pair has no orthogonal part.
    """
    s_ap = np.asarray(coord.s_ap, dtype=np.float64)
    s_an = np.asarray(coord.s_an, dtype=np.float64)
    if (np.maximum(abs(s_ap), abs(s_an)) >= 1.0 - _COLINEAR_EPS).any():
        raise UndefinedGammaError("colinear: |s_ap| or |s_an| >= 1 - 1e-9")
    rad = np.sqrt((1.0 - s_ap * s_ap) * (1.0 - s_an * s_an))
    return np.clip((s_pn - s_ap * s_an) / rad, -1.0, 1.0)
