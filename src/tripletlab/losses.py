"""Triplet losses with exact gradients.

Three losses over the diagram point (s_ap, s_an):

* softmax-ratio loss  -log(exp(s_ap) / (exp(s_ap) + exp(s_an)))
* margin hinge        max(2*(s_an - s_ap) + margin, 0) on the unit sphere
* selectively contrastive: lam * s_an while the triplet is hard
  (s_an > s_ap, strict), otherwise the softmax-ratio loss

Gradients come in two flavors: with respect to the diagram coordinates
(CoordGrad) and with respect to the raw feature vectors (FeatureGrads).
The learning rate is deliberately NOT folded in here; dynamics and the
trainer apply their own step sizes to the same gradient code.

``loss_values`` and ``coord_grads`` work elementwise over coordinate
arrays, as do ``softmax_weight``, ``is_hard`` and ``hinge_argument``; a
diagram point of floats is the one-element case. ``batch_feature_grads``
takes (k, d) rows of feature vectors, k = 1 for a single triplet.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .geometry import TripletCoord, elementwise


class LossKind(str, Enum):
    NCA = "nca"
    MARGIN = "margin"
    SCT = "sct"


@dataclass(frozen=True)
class LossSpec:
    """Which loss to run and its parameters.

    lam is the contrastive weight of the selective loss's hard branch and
    margin is the hinge offset of the margin loss (not the learning rate).
    """

    kind: LossKind = LossKind.NCA
    lam: float = 1.0
    margin: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not np.isfinite(self.margin) or self.margin < 0:
            raise ValueError(
                f"margin must be finite and >= 0, got {self.margin}"
            )


class CoordGrad(NamedTuple):
    d_sap: float
    d_san: float


class FeatureGrads(NamedTuple):
    g_a: np.ndarray
    g_p: np.ndarray
    g_n: np.ndarray


def softmax_weight(coord: TripletCoord) -> float:
    """exp(s_an) / (exp(s_ap) + exp(s_an)), computed stably and
    elementwise over coordinate arrays (a scalar for a scalar point).

    This sigma is the shared magnitude of every softmax-ratio gradient
    component; the paper-style step size is learning_rate * sigma.
    """
    # sigma = sigmoid(x): 1 / (1 + exp(-x)) for x >= 0 and
    # exp(x) / (1 + exp(x)) below, one exp(-|x|) serving both
    ops = elementwise(coord)
    x = coord.s_an - coord.s_ap
    t = ops.exp(-abs(x))
    return ops.where(x >= 0, 1.0, t) / (1.0 + t)


def hinge_argument(coord: TripletCoord, margin: float) -> float:
    """Squared-distance hinge argument on the unit sphere.

    ||f_a - f_p||^2 - ||f_a - f_n||^2 + margin collapses to
    2*(s_an - s_ap) + margin for unit vectors.
    """
    return 2.0 * (coord.s_an - coord.s_ap) + margin


def is_hard(coord: TripletCoord) -> bool:
    """True iff the negative ranks above the positive (strict s_an > s_ap);
    elementwise over coordinate arrays."""
    return coord.s_an > coord.s_ap


def loss_values(coords, spec: LossSpec) -> np.ndarray:
    """Loss of every diagram point of coords (s_ap and s_an arrays, such
    as a mined Triplets), elementwise."""
    if spec.kind == LossKind.MARGIN:
        values = np.maximum(hinge_argument(coords, spec.margin), 0.0)
    else:
        values = np.logaddexp(0.0, coords.s_an - coords.s_ap)
    if spec.kind == LossKind.SCT:
        values = np.where(is_hard(coords), spec.lam * coords.s_an, values)
    return values


def coord_grads(coords, spec: LossSpec) -> CoordGrad:
    """Gradient of the selected loss with respect to (s_ap, s_an),
    elementwise over coordinate arrays.

    The margin hinge uses the inactive-side subgradient (zero) exactly at
    the boundary. The selective loss's hard branch reads off s_an only.
    """
    if spec.kind == LossKind.MARGIN:
        d = np.where(hinge_argument(coords, spec.margin) > 0.0, 2.0, 0.0)
    else:
        d = softmax_weight(coords)
    if spec.kind != LossKind.SCT:
        return CoordGrad(0.0 - d, d)
    hard = is_hard(coords)
    return CoordGrad(np.where(hard, 0.0, 0.0 - d), np.where(hard, spec.lam, d))


def _cosines(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cosine: a stacked matmul keeps np.dot's bits, einsum not."""
    return np.clip((u[:, None, :] @ v[:, :, None])[:, 0, 0], -1.0, 1.0)


def batch_feature_grads(
    f_a: np.ndarray, f_p: np.ndarray, f_n: np.ndarray, spec: LossSpec
) -> FeatureGrads:
    """Gradient of the selected loss with respect to the feature vectors
    of k triplets, from (k, d) rows of unit anchor, positive and negative
    vectors; returns (k, d) rows.

    For the softmax-ratio loss: g_p = -sigma*f_a, g_n = +sigma*f_a,
    g_a = sigma*(f_n - f_p). For the margin loss with an active hinge:
    g_p = -2(f_a - f_p), g_n = +2(f_a - f_n), g_a = 2(f_n - f_p); all zero
    when inactive. The selective hard branch differentiates lam * f_a.f_n
    directly: g_n = lam*f_a, g_a = lam*f_n, g_p = 0.
    """
    coords = TripletCoord(_cosines(f_a, f_p), _cosines(f_a, f_n))
    d_sap, d_san = (d[:, None] for d in coord_grads(coords, spec))
    if spec.kind == LossKind.MARGIN:
        # squared distances: ||f_a - f_p||^2 pulls f_p along f_a - f_p
        g_p, g_n = d_sap * (f_a - f_p), d_san * (f_a - f_n)
    else:
        g_p, g_n = d_sap * f_a, d_san * f_a
    g_a = d_san * (f_n - f_p)
    if spec.kind == LossKind.SCT:
        hard = is_hard(coords)[:, None]
        g_a = np.where(hard, spec.lam * f_n, g_a)
        g_n = np.where(hard, spec.lam * f_a, g_n)
    return FeatureGrads(g_a=g_a, g_p=g_p, g_n=g_n)
