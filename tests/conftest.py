"""Shared oracles for the test suite.

The explicit-vector oracle realizes a diagram point (s_ap, s_an, gamma) as
concrete 3D unit vectors, applies the raw-feature gradient updates,
renormalizes, and re-measures similarities. It never touches the
closed-form step code, so the two routes check each other.
"""

import itertools

import numpy as np
import pytest

from tripletlab.mining import Triplets


def triplet_vectors(s_ap: float, s_an: float, g: float):
    """Concrete 3D unit vectors with the requested similarities and gamma."""
    rad_ap = np.sqrt(max(1.0 - s_ap * s_ap, 0.0))
    rad_an = np.sqrt(max(1.0 - s_an * s_an, 0.0))
    rad_g = np.sqrt(max(1.0 - g * g, 0.0))
    f_a = np.array([1.0, 0.0, 0.0])
    f_p = np.array([s_ap, rad_ap, 0.0])
    f_n = np.array([s_an, g * rad_an, rad_g * rad_an])
    return f_a, f_p, f_n


def sphere_step_oracle(
    s_ap: float,
    s_an: float,
    g: float,
    beta: float,
    kind: str = "nca",
    margin: float = 0.0,
):
    """Raw-feature update, renormalize, re-measure.

    Returns (s_ap_new, s_an_new, norm_a, norm_p, norm_n, d_sap, d_san)
    where the *_new values are pre-normalization dot products and the
    deltas compare renormalized similarities against the inputs.
    """
    f_a, f_p, f_n = triplet_vectors(s_ap, s_an, g)
    if kind == "nca":
        f_p2 = f_p + beta * f_a
        f_n2 = f_n - beta * f_a
        f_a2 = f_a + beta * (f_p - f_n)
    elif kind == "margin":
        if 2.0 * (s_an - s_ap) + margin <= 0.0 or beta == 0.0:
            return (s_ap, s_an, 1.0, 1.0, 1.0, 0.0, 0.0)
        f_p2 = (1.0 - beta) * f_p + beta * f_a
        f_n2 = (1.0 + beta) * f_n - beta * f_a
        f_a2 = f_a + beta * (f_p - f_n)
    else:
        raise ValueError(kind)
    norm_a = np.linalg.norm(f_a2)
    norm_p = np.linalg.norm(f_p2)
    norm_n = np.linalg.norm(f_n2)
    s_ap_new = float(f_a2 @ f_p2)
    s_an_new = float(f_a2 @ f_n2)
    return (
        s_ap_new,
        s_an_new,
        float(norm_a),
        float(norm_p),
        float(norm_n),
        s_ap_new / (norm_a * norm_p) - s_ap,
        s_an_new / (norm_a * norm_n) - s_an,
    )


# the 24 unit vectors of R^4 with components in {0, +-1/2, +-1}: their
# products are exact, so a similarity product split into row blocks has
# the same bits as a whole-matrix one, and exact ties stay exact
EXACT_UNIT_ROWS = [v for v in itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0),
                                                repeat=4)
                   if sum(x * x for x in v) == 1.0]


def triplets_of(rows):
    """Triplets of MinedTriplet rows: backward takes arrays, not rows."""
    idx = np.array([r[:3] for r in rows], dtype=np.int64).reshape(-1, 3)
    coords = np.array([r.coord for r in rows], dtype=np.float64)
    return Triplets(*idx.T, *coords.reshape(-1, 2).T)


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
