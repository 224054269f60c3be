import warnings

import numpy as np
import pytest

from tripletlab import geometry
from tripletlab.geometry import (
    DegenerateVectorError,
    TripletCoord,
    UndefinedGammaError,
    gamma,
    s_pn_from,
)
from tripletlab.losses import _cosines

from conftest import random_unit, triplet_vectors


def random_triplet(rng, dim):
    """Anchor, positive and negative unit vectors, drawn in that order."""
    return tuple(random_unit(rng, dim) for _ in range(3))


def coords_of(f_a, f_p, f_n):
    """Diagram points of (k, d) rows of anchors, positives and negatives."""
    return TripletCoord(_cosines(f_a, f_p), _cosines(f_a, f_n))


def gamma_of(f_a, f_p, f_n):
    """gamma of one triplet's vectors, from its explicit dot products."""
    return gamma(TripletCoord(f_a @ f_p, f_a @ f_n), f_p @ f_n)


def unit_rows(xs):
    """geometry.unit_rows' projected rows of xs, one row or several."""
    return geometry.unit_rows(np.atleast_2d(xs))[0]


class TestNormalize:
    def test_scaling_identity(self):
        assert np.allclose(unit_rows([3.0, 4.0]), [0.6, 0.8])

    def test_axis_case(self):
        assert np.allclose(unit_rows([0.0, 0.0, 5.0]), [0, 0, 1])

    def test_zero_norm_guard(self):
        with pytest.raises(DegenerateVectorError):
            unit_rows([1e-15, 0.0])

    def test_output_is_unit(self, rng):
        rows = []
        for _ in range(100):
            rows.append(rng.standard_normal(7) * rng.uniform(0.1, 50))
        norms = np.linalg.norm(unit_rows(rows), axis=1)
        assert np.all(abs(norms - 1.0) < 1e-12)


class TestUnitRows:
    """geometry.unit_rows, the package's one sphere projection."""

    def test_bits_equal_linalg_norm(self, rng):
        """The same bits as the formula it replaced, on 1 to 600 rows."""
        for n in range(1, 601):
            scale = 10.0 ** rng.uniform(-5, 150)
            rows = rng.standard_normal((n, int(rng.integers(2, 65)))) * scale
            norms = np.linalg.norm(rows, axis=1, keepdims=True)
            got, got_norms = geometry.unit_rows(rows)
            assert np.array_equal(got_norms, norms)
            assert np.array_equal(got, rows / norms)

    @pytest.mark.parametrize("row", [
        [0.0, 0.0], [1e-13, 0.0], [1e200, 1e200], [np.inf, 0.0],
        [np.nan, 1.0],
    ], ids=["zero", "below 1e-12", "overflow", "inf", "nan"])
    def test_degenerate_row_refused_without_warning(self, row):
        rows = np.array([[0.6, 0.8], row])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateVectorError):
                geometry.unit_rows(rows)


class TestCosine:
    def test_identity(self, rng):
        u = random_unit(rng, 5)[None]
        assert _cosines(u, u)[0] == pytest.approx(1.0, abs=1e-12)

    def test_antipode(self, rng):
        u = random_unit(rng, 5)[None]
        assert _cosines(u, -u)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonality(self):
        u, v = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        assert _cosines(u, v)[0] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            _cosines(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]))

    def test_clamped_to_range(self):
        # deliberately drift the norm just above 1
        u = np.array([[1.0 + 1e-12, 0.0]])
        assert _cosines(u, u)[0] == 1.0


class TestCoordOf:
    def test_coincident_points(self):
        u = unit_rows([1.0, 2.0, 2.0])
        c = coords_of(u, u, u)
        assert c.s_ap[0] == pytest.approx(1.0, abs=1e-12)
        assert c.s_an[0] == pytest.approx(1.0, abs=1e-12)

    def test_axis_construction(self):
        c = coords_of(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]),
                      np.array([[-1.0, 0.0]]))
        assert (c.s_ap[0], c.s_an[0]) == (0.0, -1.0)

    def test_matches_direct_dot_products(self, rng):
        f_a, f_p, f_n = map(np.array, zip(*(random_triplet(rng, 6)
                                            for _ in range(50))))
        c = coords_of(f_a, f_p, f_n)
        for i in range(50):
            assert c.s_ap[i] == pytest.approx(f_a[i] @ f_p[i], abs=1e-12)
            assert c.s_an[i] == pytest.approx(f_a[i] @ f_n[i], abs=1e-12)

    def test_always_in_square(self, rng):
        c = coords_of(*map(np.array, zip(*(random_triplet(rng, 3)
                                           for _ in range(200)))))
        assert np.all((-1.0 <= c.s_ap) & (c.s_ap <= 1.0))
        assert np.all((-1.0 <= c.s_an) & (c.s_an <= 1.0))


class TestGamma:
    def test_coplanar_same_side_is_one(self):
        f_a, f_p, f_n = triplet_vectors(0.3, 0.7, 1.0)
        assert gamma_of(f_a, f_p, f_n) == pytest.approx(1.0, abs=1e-12)
        # drift past the co-planar value clips to 1
        assert gamma(TripletCoord(0.0, 0.0), 1.0 + 1e-12) == 1.0

    def test_orthogonal_tangents_is_zero(self):
        f_a, f_p, f_n = triplet_vectors(0.5, -0.2, 0.0)
        assert gamma_of(f_a, f_p, f_n) == pytest.approx(0.0, abs=1e-12)

    def test_colinear_raises(self):
        u = np.array([1.0, 0.0, 0.0])
        with pytest.raises(UndefinedGammaError):
            gamma_of(u, u, np.array([0.0, 1.0, 0.0]))
        # one colinear point refuses the whole array
        with pytest.raises(UndefinedGammaError):
            gamma(TripletCoord(np.array([0.2, 1.0 - 1e-9]),
                               np.array([0.1, 0.3])), np.zeros(2))

    def test_solves_pn_identity_in_4d(self, rng):
        # gamma is exactly the number that closes the s_pn identity, and
        # the cosine between the parts of p and n orthogonal to the anchor
        for _ in range(200):
            f_a, f_p, f_n = random_triplet(rng, 4)
            c = TripletCoord(f_a @ f_p, f_a @ f_n)
            if max(abs(c.s_ap), abs(c.s_an)) > 1 - 1e-6:
                continue
            g = gamma(c, f_p @ f_n)
            assert s_pn_from(c, g) == pytest.approx(f_p @ f_n, abs=1e-9)
            p_orth = f_p - c.s_ap * f_a
            n_orth = f_n - c.s_an * f_a
            assert g == pytest.approx(
                p_orth @ n_orth
                / (np.linalg.norm(p_orth) * np.linalg.norm(n_orth)),
                abs=1e-9,
            )

    def test_rotation_invariance(self, rng):
        for _ in range(50):
            f_a, f_p, f_n = t = random_triplet(rng, 5)
            if max(abs(f_a @ f_p), abs(f_a @ f_n)) > 1 - 1e-6:
                continue
            rot, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            rotated = [rot @ v for v in t]
            assert gamma_of(*rotated) == pytest.approx(gamma_of(*t),
                                                       abs=1e-9)


class TestSPnFrom:
    def test_coplanar_half_coord(self):
        # 0.25 + 1 * 0.75, cross-checked with explicit co-planar vectors
        coord = TripletCoord(0.5, 0.5)
        assert s_pn_from(coord, 1.0) == pytest.approx(1.0, abs=1e-12)
        f_a, f_p, f_n = triplet_vectors(0.5, 0.5, 1.0)
        assert f_p @ f_n == pytest.approx(1.0, abs=1e-12)

    def test_zero_gamma_zero_sap(self):
        assert s_pn_from(TripletCoord(0.0, 0.37), 0.0) == 0.0

    def test_colinear_coordinate_forces_s_an(self):
        for g in (-1.0, -0.3, 0.0, 0.8, 1.0):
            assert s_pn_from(TripletCoord(1.0, 0.25), g) == pytest.approx(
                0.25, abs=1e-12
            )


def test_pn_identity_bulk():
    """s_pn_from(coord, gamma(coord, s_pn)) == p.n across dimensions, one
    elementwise call per dimension over explicit vectors' dot products."""
    rng = np.random.default_rng(7)
    for dim in (3, 8, 64):
        f_a, f_p, f_n = map(np.array, zip(*(random_triplet(rng, dim)
                                            for _ in range(10_000 // 3 + 1))))
        c = TripletCoord(np.sum(f_a * f_p, axis=1), np.sum(f_a * f_n, axis=1))
        keep = np.maximum(abs(c.s_ap), abs(c.s_an)) <= 1 - 1e-6
        c = TripletCoord(c.s_ap[keep], c.s_an[keep])
        s_pn = np.sum(f_p * f_n, axis=1)[keep]
        assert np.all(abs(s_pn_from(c, gamma(c, s_pn)) - s_pn) < 1e-9)
