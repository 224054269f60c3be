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
mixing coefficients as well) and is inert when the hinge argument is
non-positive. A scalar entanglement model couples the two deltas through
shared network weights:

    d_sap_total = d_sap + p * q * d_san,   q = s_ap * s_an
    d_san_total = d_san + p * q * d_sap.

Everything in this module is validated against an explicit 3D vector
oracle in the tests; the closed forms are exact, not approximations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import TripletCoord, s_pn_from
from .losses import LossKind, LossSpec, hinge_argument, softmax_weight


@dataclass(frozen=True)
class StepParams:
    """Parameters of one diagram-space gradient step.

    learning_rate is the raw step size; the effective beta is
    learning_rate * sigma for the softmax loss and 2 * learning_rate for
    the margin loss. gamma is the plane-projection factor treated as a
    free coordinate (1.0 = co-planar worst case). entanglement_p scales
    the cross-coupling model.
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


class SimilarityUpdate(NamedTuple):
    """Everything one closed-form step produces for a single diagram point."""

    s_ap_new: float  # pre-normalization dot product a'.p'
    s_an_new: float  # pre-normalization dot product a'.n'
    norm_a: float
    norm_p: float
    norm_n: float
    d_sap: float  # renormalized similarity delta
    d_san: float
    d_sap_total: float  # delta with entanglement coupling
    d_san_total: float


def _identity_update(coord: TripletCoord) -> SimilarityUpdate:
    return SimilarityUpdate(
        s_ap_new=coord.s_ap,
        s_an_new=coord.s_an,
        norm_a=1.0,
        norm_p=1.0,
        norm_n=1.0,
        d_sap=0.0,
        d_san=0.0,
        d_sap_total=0.0,
        d_san_total=0.0,
    )


def _anchor_norm(s_ap: float, s_an: float, gamma: float, beta: float) -> float:
    rad_ap = np.sqrt(max(1.0 - s_ap * s_ap, 0.0))
    rad_an = np.sqrt(max(1.0 - s_an * s_an, 0.0))
    rad_g = np.sqrt(max(1.0 - gamma * gamma, 0.0))
    in_plane = 1.0 + beta * s_ap - beta * s_an
    tangent = beta * rad_ap - gamma * beta * rad_an
    off_plane = beta * rad_g * rad_an
    return float(
        np.sqrt(in_plane**2 + tangent**2 + off_plane**2)
    )


def _finish(
    coord: TripletCoord,
    params: StepParams,
    s_ap_new: float,
    s_an_new: float,
    norm_a: float,
    norm_p: float,
    norm_n: float,
) -> SimilarityUpdate:
    d_sap = s_ap_new / (norm_a * norm_p) - coord.s_ap
    d_san = s_an_new / (norm_a * norm_n) - coord.s_an
    q = coord.s_ap * coord.s_an
    pq = params.entanglement_p * q
    return SimilarityUpdate(
        s_ap_new=s_ap_new,
        s_an_new=s_an_new,
        norm_a=norm_a,
        norm_p=norm_p,
        norm_n=norm_n,
        d_sap=d_sap,
        d_san=d_san,
        d_sap_total=d_sap + pq * d_san,
        d_san_total=d_san + pq * d_sap,
    )


def step_nca(coord: TripletCoord, params: StepParams) -> SimilarityUpdate:
    """One softmax-ratio-loss step in diagram space."""
    s_ap, s_an = coord
    beta = params.learning_rate * softmax_weight(coord)
    if beta == 0.0:
        return _identity_update(coord)
    s_pn = s_pn_from(coord, params.gamma)
    b2 = beta * beta
    s_ap_new = (1.0 + b2) * s_ap + 2.0 * beta - beta * s_pn - b2 * s_an
    s_an_new = (1.0 + b2) * s_an - 2.0 * beta + beta * s_pn - b2 * s_ap
    norm_p = float(
        np.sqrt((1.0 + beta * s_ap) ** 2 + b2 * max(1.0 - s_ap * s_ap, 0.0))
    )
    norm_n = float(
        np.sqrt((1.0 - beta * s_an) ** 2 + b2 * max(1.0 - s_an * s_an, 0.0))
    )
    norm_a = _anchor_norm(s_ap, s_an, params.gamma, beta)
    return _finish(coord, params, s_ap_new, s_an_new, norm_a, norm_p, norm_n)


def step_margin(coord: TripletCoord, params: StepParams) -> SimilarityUpdate:
    """One margin-hinge step in diagram space; identity when inactive."""
    s_ap, s_an = coord
    if hinge_argument(coord, params.loss.margin) <= 0.0:
        return _identity_update(coord)
    beta = 2.0 * params.learning_rate
    if beta == 0.0:
        return _identity_update(coord)
    s_pn = s_pn_from(coord, params.gamma)
    b2 = beta * beta
    s_ap_new = (
        (1.0 - beta + b2) * s_ap
        + 2.0 * beta
        - b2
        - beta * (1.0 - beta) * s_pn
        - b2 * s_an
    )
    s_an_new = (
        (1.0 + beta + b2) * s_an
        - 2.0 * beta
        - b2
        + beta * (1.0 + beta) * s_pn
        - b2 * s_ap
    )
    norm_p = float(
        np.sqrt(
            (1.0 - beta + beta * s_ap) ** 2 + b2 * max(1.0 - s_ap * s_ap, 0.0)
        )
    )
    norm_n = float(
        np.sqrt(
            (1.0 + beta - beta * s_an) ** 2 + b2 * max(1.0 - s_an * s_an, 0.0)
        )
    )
    norm_a = _anchor_norm(s_ap, s_an, params.gamma, beta)
    return _finish(coord, params, s_ap_new, s_an_new, norm_a, norm_p, norm_n)


def step(coord: TripletCoord, params: StepParams) -> SimilarityUpdate:
    """Dispatch on the configured loss kind (diagram dynamics cover nca and margin)."""
    if params.loss.kind == LossKind.NCA:
        return step_nca(coord, params)
    if params.loss.kind == LossKind.MARGIN:
        return step_margin(coord, params)
    raise ValueError(
        "diagram-space dynamics are defined for the nca and margin losses"
    )


@dataclass(frozen=True)
class GridSpec:
    """Regular grid over the diagram square."""

    resolution: int = 41
    s_ap_min: float = -1.0
    s_ap_max: float = 1.0
    s_an_min: float = -1.0
    s_an_max: float = 1.0

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")
        bounds = (self.s_ap_min, self.s_ap_max, self.s_an_min, self.s_an_max)
        if any(abs(b) > 1.0 for b in bounds):
            raise ValueError("grid bounds must lie within [-1, 1]")

    def s_ap_values(self) -> np.ndarray:
        return np.linspace(self.s_ap_min, self.s_ap_max, self.resolution)

    def s_an_values(self) -> np.ndarray:
        return np.linspace(self.s_an_min, self.s_an_max, self.resolution)


@dataclass(frozen=True)
class VectorField:
    """Per-cell similarity deltas over a diagram grid (flat, row-major in s_ap)."""

    grid: GridSpec
    params: StepParams
    s_ap: np.ndarray
    s_an: np.ndarray
    d_sap: np.ndarray
    d_san: np.ndarray
    d_sap_total: np.ndarray
    d_san_total: np.ndarray

    def __len__(self) -> int:
        return self.s_ap.shape[0]


def vector_field(grid: GridSpec, params: StepParams) -> VectorField:
    """Evaluate the single-step deltas on every grid cell."""
    n = grid.resolution * grid.resolution
    s_ap = np.empty(n)
    s_an = np.empty(n)
    d_sap = np.empty(n)
    d_san = np.empty(n)
    d_sap_total = np.empty(n)
    d_san_total = np.empty(n)
    i = 0
    for ap in grid.s_ap_values():
        for an in grid.s_an_values():
            upd = step(TripletCoord(float(ap), float(an)), params)
            s_ap[i] = ap
            s_an[i] = an
            d_sap[i] = upd.d_sap
            d_san[i] = upd.d_san
            d_sap_total[i] = upd.d_sap_total
            d_san_total[i] = upd.d_san_total
            i += 1
    return VectorField(
        grid=grid,
        params=params,
        s_ap=s_ap,
        s_an=s_an,
        d_sap=d_sap,
        d_san=d_san,
        d_sap_total=d_sap_total,
        d_san_total=d_san_total,
    )


def trajectory(
    start: TripletCoord, params: StepParams, steps: int
) -> list[TripletCoord]:
    """Roll the entangled deltas forward from a starting diagram point.

    Returns steps+1 points including the start; each step adds
    (d_sap_total, d_san_total) and clamps back into the diagram square,
    since the first-order deltas can overshoot at coarse learning rates.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    coord = TripletCoord(float(start.s_ap), float(start.s_an))
    points = [coord]
    for _ in range(steps):
        upd = step(coord, params)
        coord = TripletCoord(
            float(np.clip(coord.s_ap + upd.d_sap_total, -1.0, 1.0)),
            float(np.clip(coord.s_an + upd.d_san_total, -1.0, 1.0)),
        )
        points.append(coord)
    return points
