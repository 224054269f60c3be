"""Unit-hypersphere primitives for triplet geometry.

Embeddings live on the unit sphere, so similarity is a plain dot product
bounded in [-1, 1]. A triplet (anchor, positive, negative) reduces to a 2D
diagram point (s_ap, s_an); the third pairwise similarity s_pn is recovered
from the diagram point plus a single plane-projection factor gamma, which is
what makes diagram-space simulation possible at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

_ZERO_NORM_EPS = 1e-12
_COLINEAR_EPS = 1e-9


class DegenerateVectorError(ValueError):
    """Raised when a vector with (near-)zero norm cannot be normalized."""


class UndefinedGammaError(ValueError):
    """Raised when gamma is requested for a triplet with a colinear pair."""


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


def normalize(v: np.ndarray) -> np.ndarray:
    """Project a vector onto the unit sphere.

    Parameters
    ----------
    v : array of shape (d,)
        Any vector with norm > 1e-12.

    Returns
    -------
    Unit vector v / ||v|| as float64.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm <= _ZERO_NORM_EPS:
        raise DegenerateVectorError(
            f"cannot normalize vector with norm {norm:.3e}"
        )
    return v / norm


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product of two unit vectors, clamped to [-1, 1].

    Clamping absorbs floating-point drift so downstream sqrt(1 - s^2)
    terms never see a negative radicand.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(np.clip(np.dot(u, v), -1.0, 1.0))


@dataclass(frozen=True)
class TripletFeatures:
    """Anchor, positive, negative unit vectors of one triplet."""

    anchor: np.ndarray
    positive: np.ndarray
    negative: np.ndarray

    def __post_init__(self):
        dims = {self.anchor.shape, self.positive.shape, self.negative.shape}
        if len(dims) != 1 or self.anchor.ndim != 1:
            raise ValueError("triplet vectors must share one dimension d")
        if self.anchor.shape[0] < 2:
            raise ValueError("triplet vectors need d >= 2")
        for name in ("anchor", "positive", "negative"):
            vec = getattr(self, name)
            if abs(float(np.linalg.norm(vec)) - 1.0) > 1e-9:
                raise ValueError(f"{name} is not a unit vector")


def coord_of(t: TripletFeatures) -> TripletCoord:
    """Diagram coordinates (s_ap, s_an) of a triplet."""
    return TripletCoord(
        cosine(t.anchor, t.positive), cosine(t.anchor, t.negative)
    )


def gamma(t: TripletFeatures) -> float:
    """Plane-projection factor between the two tangent directions.

    Decompose positive and negative into components along the anchor and
    orthogonal to it; gamma is the normalized dot product of the two
    orthogonal components. It is 1 when all three points are co-planar with
    positive and negative on the same side, and 0 when the tangent
    directions from the anchor are orthogonal.

    Raises
    ------
    UndefinedGammaError
        If positive or negative is colinear with the anchor (|s| too close
        to 1), which leaves no orthogonal component.
    """
    s_ap, s_an = coord_of(t)
    if abs(s_ap) >= 1.0 - _COLINEAR_EPS or abs(s_an) >= 1.0 - _COLINEAR_EPS:
        raise UndefinedGammaError(
            f"gamma undefined for colinear triplet (s_ap={s_ap}, s_an={s_an})"
        )
    p_orth = t.positive - s_ap * t.anchor
    n_orth = t.negative - s_an * t.anchor
    value = float(
        np.dot(p_orth, n_orth)
        / (np.linalg.norm(p_orth) * np.linalg.norm(n_orth))
    )
    return float(np.clip(value, -1.0, 1.0))


def s_pn_from(coord: TripletCoord, gamma_value: float) -> float:
    """Positive-negative similarity implied by a diagram point and gamma.

    s_pn = s_ap * s_an + gamma * sqrt(1 - s_ap^2) * sqrt(1 - s_an^2),
    with radicands clamped at zero; elementwise over coordinate arrays.
    """
    ops = elementwise(coord)
    rad_ap = ops.relu(1.0 - coord.s_ap * coord.s_ap)
    rad_an = ops.relu(1.0 - coord.s_an * coord.s_an)
    return coord.s_ap * coord.s_an + gamma_value * ops.sqrt(rad_ap * rad_an)
