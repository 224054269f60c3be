"""Triplet losses with exact gradients.

Three losses over the diagram point (s_ap, s_an):

* softmax-ratio loss  -log(exp(s_ap) / (exp(s_ap) + exp(s_an)))
* margin hinge        max(2*(s_an - s_ap) + margin, 0) on the unit sphere
* selectively contrastive: lam * s_an while the triplet is hard
  (s_an > s_ap, strict), otherwise the softmax-ratio loss

Gradients come in two flavors: with respect to the diagram coordinates
(CoordGrad) and with respect to the raw feature vectors.
The learning rate is deliberately NOT folded in here; dynamics and the
trainer apply their own step sizes to the same gradient code.

``loss_values`` and ``coord_grads`` work elementwise over coordinate
arrays, as do ``softmax_weight``, ``is_hard`` and ``hinge_argument``; a
diagram point of floats is the one-element case. ``batch_feature_grads``
takes k diagram points and (k, 3, d) feature vectors, k = 1 for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .geometry import TripletCoord, check_amount, elementwise


class LossKind(str, Enum):
    NCA = "nca"
    MARGIN = "margin"
    SCT = "sct"


@dataclass(frozen=True)
class LossSpec:
    """Which loss to run and its parameters.

    lam is the contrastive weight of the selective loss's hard branch and
    margin is the hinge offset of the margin loss (not the learning rate).
    kind is taken through LossKind, so "nca" is LossKind.NCA and a name
    that is no kind raises ValueError.
    """

    kind: LossKind = LossKind.NCA
    lam: float = 1.0
    margin: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", LossKind(self.kind))
        check_amount("lam", self.lam)
        check_amount("margin", self.margin)


class CoordGrad(NamedTuple):
    d_sap: float
    d_san: float


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


# role indices into (k, 3, d) anchor, positive, negative rows: g_a, g_p and
# g_n lie along f_n, f_a and f_a, less f_p, f_p and f_n under the margin loss
_ALONG = np.array([2, 0, 0])
_LESS = np.array([1, 1, 2])


def batch_feature_grads(coords, feats: np.ndarray,
                        spec: LossSpec) -> np.ndarray:
    """Gradient of the selected loss with respect to the feature vectors
    of k triplets: (k, 3, d) gradients for (k, 3, d) unit anchor, positive
    and negative rows, taken at the diagram points coords (s_ap and s_an
    arrays, such as the mined Triplets) as given, not measured again.

    For the softmax-ratio loss: g_p = -sigma*f_a, g_n = +sigma*f_a,
    g_a = sigma*(f_n - f_p). For the margin loss with an active hinge:
    g_p = -2(f_a - f_p), g_n = +2(f_a - f_n), g_a = 2(f_n - f_p); all zero
    when inactive. The selective hard branch differentiates lam * f_a.f_n
    directly: g_n = lam*f_a, g_a = lam*f_n, g_p = 0.
    """
    d_sap, d_san = coord_grads(coords, spec)
    along = feats[:, _ALONG]
    if spec.kind == LossKind.MARGIN:
        # squared distances: ||f_a - f_p||^2 pulls f_p along f_a - f_p
        along -= feats[:, _LESS]
    else:  # g_a along f_n - f_p, or f_n where the selective loss is hard
        easy = True if spec.kind != LossKind.SCT else ~is_hard(coords)[:, None]
        np.subtract(along[:, 0], feats[:, 1], out=along[:, 0], where=easy)
    return np.array((d_san, d_sap, d_san)).T[:, :, None] * along
