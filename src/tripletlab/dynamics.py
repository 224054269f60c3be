"""Closed-form single-step dynamics on the triplet diagram.

One gradient step on the raw features, followed by re-projection onto the
sphere, changes a triplet's diagram point (s_ap, s_an) by an amount that is
a closed-form function of (s_ap, s_an, gamma, beta) alone:

    s_ap' = (1 + b^2) s_ap + 2b - b s_pn - b^2 s_an          (softmax loss)
    s_an' = (1 + b^2) s_an - 2b + b s_pn - b^2 s_ap

with the updated-feature norms

    ||p'||^2 = (1 + b s_ap)^2 + b^2 (1 - s_ap^2)
    ||n'||^2 = (1 - b s_an)^2 + b^2 (1 - s_an^2)
    ||a'||^2 = (1 + b s_ap - b s_an)^2
             + (b sqrt(1 - s_ap^2) - gamma b sqrt(1 - s_an^2))^2
             + (b sqrt(1 - gamma^2) sqrt(1 - s_an^2))^2

so the post-renormalization similarity deltas are

    d_sap = s_ap' / (||a'|| ||p'||) - s_ap
    d_san = s_an' / (||a'|| ||n'||) - s_an.

The margin hinge has the analogous forms (beta enters the p' and n'
mixing coefficients as well) with beta = 0, no motion, where the hinge
argument is non-positive; the selective loss has no closed-form step, so
StepParams refuses it. A scalar entanglement model couples the two deltas
through shared network weights:

    d_sap_total = d_sap + p * q * d_san,   q = s_ap * s_an
    d_san_total = d_san + p * q * d_sap.

The steps are elementwise: one code path serves a diagram point of floats
and arrays of points, with the same bits. Each formula takes its sqrt,
max-with-0, select and exp from ``geometry.elementwise``: a point of
Python floats steps in Python floats (a trajectory builds no numpy
scalar but one exp per step), arrays and mixed points step in numpy.
math.sqrt rounds as np.sqrt does; exp stays numpy's, because glibc's
math.exp differed from it in the last bit on 9,412 of 200,000 arguments
in [-2, 0]. A zero denominator in floats is redone in numpy scalars, so
it gives numpy's inf or nan, not ZeroDivisionError. Everything in this
module is validated against an explicit 3D vector oracle in the tests;
the closed forms are exact, not approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (
    DegenerateVectorError,
    TripletCoord,
    elementwise,
    s_pn_from,
)
from .losses import LossKind, LossSpec, hinge_argument, softmax_weight

# size bounds, checked before anything is allocated: a million field
# cells, a million rollout points
MAX_RESOLUTION = 1001
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class StepParams:
    """Parameters of one diagram-space gradient step.

    learning_rate is the raw step size; the effective beta is
    learning_rate * sigma for the softmax loss and 2 * learning_rate for
    the margin loss. gamma is the plane-projection factor treated as a
    free coordinate (1.0 = co-planar worst case). entanglement_p scales
    the cross-coupling model. The loss is nca or margin: the selective
    loss has no closed-form step.
    """

    learning_rate: float
    gamma: float = 1.0
    entanglement_p: float = 0.0
    loss: LossSpec = field(default_factory=LossSpec)

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be finite and >= 0")
        if not abs(self.gamma) <= 1.0:  # also refuses NaN
            raise ValueError("gamma must be finite and lie in [-1, 1]")
        if not (np.isfinite(self.entanglement_p) and self.entanglement_p >= 0):
            raise ValueError("entanglement_p must be finite and >= 0")
        if self.loss.kind == LossKind.SCT:
            raise ValueError("diagram-space dynamics are defined for the nca "
                             "and margin losses")


class SimilarityUpdate(NamedTuple):
    """Everything one closed-form step produces for a diagram point, or
    elementwise for arrays of them."""

    s_ap_new: float  # pre-normalization dot product a'.p'
    s_an_new: float  # pre-normalization dot product a'.n'
    norm_a: float
    norm_p: float
    norm_n: float
    d_sap: float  # renormalized similarity delta
    d_san: float
    d_sap_total: float  # delta with entanglement coupling
    d_san_total: float


def _closed_form(
    coord: TripletCoord, params: StepParams, beta: float, shrink: float
) -> SimilarityUpdate:
    """The step that moves the features by

        p' = (1 - shrink b) p + b a,   n' = (1 + shrink b) n - b a,
        a' = a + b (p - n),

    with shrink 0 for the softmax loss and 1 for the margin hinge, whose
    squared-distance gradients carry p and n themselves as well as a.
    beta = 0 leaves the point where it is.
    """
    ops = elementwise(coord)
    s_ap, s_an = coord
    gamma = params.gamma
    keep_p = 1.0 - shrink * beta
    keep_n = 1.0 + shrink * beta
    b2 = beta * beta
    s_pn = s_pn_from(coord, gamma)
    s_ap_new = ((keep_p + b2) * s_ap + 2.0 * beta - shrink * b2
                - beta * keep_p * s_pn - b2 * s_an)
    s_an_new = ((keep_n + b2) * s_an - 2.0 * beta - shrink * b2
                + beta * keep_n * s_pn - b2 * s_ap)
    rad_ap = ops.relu(1.0 - s_ap * s_ap)
    rad_an = ops.relu(1.0 - s_an * s_an)
    along_p = keep_p + beta * s_ap
    along_n = keep_n - beta * s_an
    norm_p = ops.sqrt(along_p * along_p + b2 * rad_ap)
    norm_n = ops.sqrt(along_n * along_n + b2 * rad_an)
    # a' in the orthonormal frame of a, p's tangent direction at a, and
    # the normal to the a-p plane
    root_an = ops.sqrt(rad_an)
    in_plane = 1.0 + beta * s_ap - beta * s_an
    tangent = beta * ops.sqrt(rad_ap) - gamma * beta * root_an
    off_plane = beta * ops.sqrt(1.0 - gamma * gamma) * root_an
    norm_a = ops.sqrt(in_plane * in_plane + tangent * tangent
                      + off_plane * off_plane)
    try:
        d_sap = s_ap_new / (norm_a * norm_p) - s_ap
        d_san = s_an_new / (norm_a * norm_n) - s_an
    except ZeroDivisionError:  # a zeroed feature: numpy's inf or nan
        coord = TripletCoord(np.float64(s_ap), np.float64(s_an))
        return _closed_form(coord, params, beta, shrink)
    pq = params.entanglement_p * (s_ap * s_an)
    return SimilarityUpdate(
        s_ap_new, s_an_new, norm_a, norm_p, norm_n, d_sap, d_san,
        d_sap + pq * d_san, d_san + pq * d_sap,
    )


def step(coord: TripletCoord, params: StepParams) -> SimilarityUpdate:
    """One gradient step in diagram space under the configured loss:
    beta = lr * sigma for the softmax-ratio loss, and for the margin
    hinge beta = 2 lr where it is active and 0 (the identity) where it is
    not. Elementwise: a coord of floats gives one update, a coord of
    arrays the update of every point, with the same bits."""
    if params.loss.kind == LossKind.NCA:
        beta = params.learning_rate * softmax_weight(coord)
        return _closed_form(coord, params, beta, 0.0)
    active = hinge_argument(coord, params.loss.margin) > 0.0
    return _closed_form(coord, params, 2.0 * params.learning_rate * active, 1.0)


@dataclass(frozen=True)
class VectorField:
    """Per-cell similarity deltas over a diagram grid (flat, row-major in s_ap)."""

    params: StepParams
    s_ap: np.ndarray
    s_an: np.ndarray
    d_sap: np.ndarray
    d_san: np.ndarray
    d_sap_total: np.ndarray
    d_san_total: np.ndarray

    def __len__(self) -> int:
        return self.s_ap.shape[0]


def vector_field(resolution: int, params: StepParams) -> VectorField:
    """Evaluate the single-step deltas on a resolution x resolution grid
    over the diagram square [-1, 1]^2; a non-finite delta (the step
    overflows or zeroes a feature) raises DegenerateVectorError."""
    r = resolution
    if not 2 <= r <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [2, {MAX_RESOLUTION}]")
    values = np.linspace(-1.0, 1.0, r)
    s_ap = np.repeat(values, r)
    s_an = np.tile(values, r)
    deltas = np.empty((4, r * r))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(0, r * r, r):  # one s_ap row a call: small temporaries
            upd = step(TripletCoord(s_ap[i:i + r], s_an[i:i + r]), params)
            deltas[:, i:i + r] = (upd.d_sap, upd.d_san, upd.d_sap_total,
                                  upd.d_san_total)
    if not np.isfinite(deltas).all():
        raise DegenerateVectorError("vector field is not finite: a step "
                                    "overflows or zeroes a feature")
    return VectorField(params, s_ap, s_an, *deltas)


def trajectory(
    start: TripletCoord, params: StepParams, steps: int
) -> list[TripletCoord]:
    """Roll the entangled deltas forward from a starting diagram point.

    Returns steps+1 points including the start; each step adds
    (d_sap_total, d_san_total) and clamps back into the diagram square,
    since the first-order deltas can overshoot at coarse learning rates.
    The start must lie in the square. A non-finite delta (the step
    overflows or zeroes a feature) raises DegenerateVectorError.
    """
    if not (-1.0 <= start.s_ap <= 1.0 and -1.0 <= start.s_an <= 1.0):
        raise ValueError("trajectory start must lie in [-1, 1]^2")
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must lie in [1, {MAX_STEPS}]")
    coord = TripletCoord(float(start.s_ap), float(start.s_an))
    points = [coord]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(steps):
            upd = step(coord, params)
            d_sap, d_san = float(upd.d_sap_total), float(upd.d_san_total)
            if not (math.isfinite(d_sap) and math.isfinite(d_san)):
                raise DegenerateVectorError(
                    f"trajectory step {len(points)} is not finite: the "
                    "step overflows or zeroes a feature"
                )
            coord = TripletCoord(min(max(coord.s_ap + d_sap, -1.0), 1.0),
                                 min(max(coord.s_an + d_san, -1.0), 1.0))
            points.append(coord)
    return points
