import numpy as np
import pytest

from tripletlab.geometry import TripletCoord, TripletFeatures
from tripletlab.losses import (
    LossKind,
    LossSpec,
    coord_grad,
    feature_grads,
    hinge_argument,
    loss_value,
    margin_loss,
    nca_loss,
    sct_loss,
    softmax_weight,
)

from conftest import random_unit, triplet_vectors

SCT = LossSpec(kind=LossKind.SCT, lam=1.0)
FD_STEP = 1e-5


def fd_coord(fn, coord, step=FD_STEP):
    """Central finite differences of a scalar loss over (s_ap, s_an)."""
    d_sap = (
        fn(TripletCoord(coord.s_ap + step, coord.s_an))
        - fn(TripletCoord(coord.s_ap - step, coord.s_an))
    ) / (2 * step)
    d_san = (
        fn(TripletCoord(coord.s_ap, coord.s_an + step))
        - fn(TripletCoord(coord.s_ap, coord.s_an - step))
    ) / (2 * step)
    return d_sap, d_san


class TestNcaLoss:
    def test_symmetric_arguments(self):
        assert nca_loss(TripletCoord(0.0, 0.0)) == pytest.approx(np.log(2))

    def test_shift_invariance(self, rng):
        for s in rng.uniform(-1, 1, size=20):
            assert nca_loss(TripletCoord(s, s)) == pytest.approx(np.log(2))

    def test_high_precision_value(self):
        # log(1 + exp(-2))
        assert nca_loss(TripletCoord(1.0, -1.0)) == pytest.approx(
            0.1269280110429725, abs=1e-15
        )

    def test_always_positive(self, rng):
        for _ in range(200):
            c = TripletCoord(*rng.uniform(-1, 1, size=2))
            assert nca_loss(c) > 0.0


class TestMarginLoss:
    def test_easy_triplet_inactive(self):
        assert margin_loss(TripletCoord(0.9, 0.1), 0.2) == 0.0

    def test_active_value_matches_distance_oracle(self):
        # 2*(0.9-0.1)+0.2, verified against explicit squared distances
        assert margin_loss(TripletCoord(0.1, 0.9), 0.2) == pytest.approx(1.8)
        f_a, f_p, f_n = triplet_vectors(0.1, 0.9, 0.6)
        direct = (
            np.sum((f_a - f_p) ** 2) - np.sum((f_a - f_n) ** 2) + 0.2
        )
        assert margin_loss(TripletCoord(0.1, 0.9), 0.2) == pytest.approx(
            direct, abs=1e-12
        )

    def test_diagonal_boundary(self):
        assert margin_loss(TripletCoord(0.4, 0.4), 0.0) == 0.0
        assert hinge_argument(TripletCoord(0.4, 0.4), 0.0) == 0.0


class TestSctLoss:
    def test_hard_branch_reads_s_an(self):
        assert sct_loss(TripletCoord(0.2, 0.8), SCT) == pytest.approx(0.8)

    def test_easy_branch_is_base_loss(self):
        # log(1 + exp(-0.6))
        assert sct_loss(TripletCoord(0.8, 0.2), SCT) == pytest.approx(
            0.4374879504858856, abs=1e-15
        )

    def test_boundary_goes_to_easy_branch(self):
        assert sct_loss(TripletCoord(0.5, 0.5), SCT) == pytest.approx(
            np.log(2)
        )

    def test_hard_branch_scales_with_lam(self):
        spec = LossSpec(kind=LossKind.SCT, lam=2.5)
        assert sct_loss(TripletCoord(0.0, 0.4), spec) == pytest.approx(1.0)

    def test_margin_base(self):
        spec = LossSpec(kind=LossKind.SCT, lam=1.0, base=LossKind.MARGIN,
                        margin=0.2)
        assert sct_loss(TripletCoord(0.8, 0.2), spec) == 0.0


def test_softmax_weight_is_elementwise():
    """Arrays give each point's scalar sigma, both branches' formulas,
    with no overflow far from the diagonal; a point gives a scalar."""
    x = np.array([-800.0, -3.0, -1e-300, 0.0, 0.25, 3.0, 800.0])
    with np.errstate(over="raise"):
        sigma = softmax_weight(TripletCoord(np.zeros_like(x), x))
    e = np.exp(x[:3])
    assert np.array_equal(sigma[:3], e / (1.0 + e))
    assert np.array_equal(sigma[3:], 1.0 / (1.0 + np.exp(-x[3:])))
    for xi, si in zip(x, sigma):
        scalar = softmax_weight(TripletCoord(0.0, float(xi)))
        assert np.ndim(scalar) == 0 and scalar == si


class TestCoordGrad:
    def test_nca_symmetric_point(self):
        g = coord_grad(TripletCoord(0.0, 0.0), LossSpec(kind=LossKind.NCA))
        assert g.d_sap == pytest.approx(-0.5)
        assert g.d_san == pytest.approx(0.5)

    def test_sct_hard_branch(self):
        g = coord_grad(TripletCoord(0.2, 0.8), SCT)
        assert g == (0.0, 1.0)

    def test_nca_matches_finite_difference(self):
        g = coord_grad(TripletCoord(0.9, 0.3), LossSpec(kind=LossKind.NCA))
        fd = fd_coord(nca_loss, TripletCoord(0.9, 0.3))
        assert g.d_sap == pytest.approx(fd[0], abs=1e-6)
        assert g.d_san == pytest.approx(fd[1], abs=1e-6)

    def test_margin_active_and_inactive(self):
        spec = LossSpec(kind=LossKind.MARGIN, margin=0.2)
        assert coord_grad(TripletCoord(0.1, 0.9), spec) == (-2.0, 2.0)
        assert coord_grad(TripletCoord(0.9, 0.1), spec) == (0.0, 0.0)
        # exactly on the hinge (0.25/0.5/0.5 are float-exact, D == 0):
        # the inactive-side subgradient applies
        on_hinge = LossSpec(kind=LossKind.MARGIN, margin=0.5)
        assert hinge_argument(TripletCoord(0.75, 0.5), 0.5) == 0.0
        assert coord_grad(TripletCoord(0.75, 0.5), on_hinge) == (0.0, 0.0)

    def test_nca_components_cancel_exactly(self, rng):
        spec = LossSpec(kind=LossKind.NCA)
        for _ in range(200):
            g = coord_grad(TripletCoord(*rng.uniform(-1, 1, 2)), spec)
            assert g.d_sap + g.d_san == 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            LossSpec(kind=LossKind.NCA),
            LossSpec(kind=LossKind.MARGIN, margin=0.3),
            SCT,
            LossSpec(kind=LossKind.SCT, lam=0.7, base=LossKind.MARGIN,
                     margin=0.3),
        ],
        ids=["nca", "margin", "sct-nca", "sct-margin"],
    )
    def test_matches_finite_difference_in_bulk(self, spec):
        """Every loss gradient agrees with central differences away from
        the hinge and the hard/easy switch."""
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 1000:
            coord = TripletCoord(*rng.uniform(-0.999, 0.999, size=2))
            if abs(hinge_argument(coord, spec.margin)) < 1e-3:
                continue
            if abs(coord.s_an - coord.s_ap) < 1e-3:
                continue
            g = coord_grad(coord, spec)
            fd = fd_coord(lambda c: loss_value(c, spec), coord)
            scale = max(abs(fd[0]), abs(fd[1]), 1e-12)
            assert abs(g.d_sap - fd[0]) <= 1e-4 * max(scale, 1.0)
            assert abs(g.d_san - fd[1]) <= 1e-4 * max(scale, 1.0)
            checked += 1


class TestFeatureGrads:
    def test_margin_inactive_is_zero(self):
        t = TripletFeatures(
            anchor=np.array([1.0, 0.0]),
            positive=np.array([1.0, 0.0]),
            negative=np.array([0.0, 1.0]),
        )
        g = feature_grads(t, LossSpec(kind=LossKind.MARGIN, margin=0.2))
        assert not np.any(g.g_a) and not np.any(g.g_p) and not np.any(g.g_n)

    # anchor (1,0) and negative (0,1) give s_an = 0; the positive at the
    # antipode makes s_ap = -1 so the triplet is strictly hard
    HARD_TRIPLET = TripletFeatures(
        anchor=np.array([1.0, 0.0]),
        positive=np.array([-1.0, 0.0]),
        negative=np.array([0.0, 1.0]),
    )

    def test_sct_hard_branch_direct(self):
        g = feature_grads(self.HARD_TRIPLET, SCT)
        assert np.allclose(g.g_n, [1.0, 0.0])
        assert np.allclose(g.g_a, [0.0, 1.0])
        assert np.allclose(g.g_p, [0.0, 0.0])

    def test_sct_frozen_anchor_switch(self):
        spec = LossSpec(kind=LossKind.SCT, lam=1.0, sct_moves_anchor=False)
        g = feature_grads(self.HARD_TRIPLET, spec)
        assert not np.any(g.g_a)
        assert np.allclose(g.g_n, [1.0, 0.0])

    @pytest.mark.parametrize(
        "spec",
        [
            LossSpec(kind=LossKind.NCA),
            LossSpec(kind=LossKind.MARGIN, margin=0.4),
            SCT,
        ],
        ids=["nca", "margin", "sct"],
    )
    def test_matches_finite_difference_over_features(self, spec, rng):
        """Perturb raw feature coordinates (no renormalization) and compare
        the loss change against the analytic feature gradients.

        The oracle evaluates each loss in its native off-sphere form: the
        margin loss through explicit squared distances (its gradients carry
        the ||f||^2 terms), the softmax and selective losses through dot
        products.
        """

        def loss_of(f_a, f_p, f_n):
            s_ap = float(f_a @ f_p)
            s_an = float(f_a @ f_n)
            kind = spec.kind
            if kind == LossKind.SCT:
                if s_an > s_ap:
                    return spec.lam * s_an
                kind = spec.base
            if kind == LossKind.MARGIN:
                d = (
                    np.sum((f_a - f_p) ** 2)
                    - np.sum((f_a - f_n) ** 2)
                    + spec.margin
                )
                return max(float(d), 0.0)
            return float(np.logaddexp(0.0, s_an - s_ap))

        checked = 0
        while checked < 60:
            vecs = [random_unit(rng, 4) for _ in range(3)]
            coord = TripletCoord(
                float(vecs[0] @ vecs[1]), float(vecs[0] @ vecs[2])
            )
            if abs(coord.s_an - coord.s_ap) < 1e-2:
                continue
            if abs(hinge_argument(coord, spec.margin)) < 1e-2:
                continue
            t = TripletFeatures(*vecs)
            g = feature_grads(t, spec)
            for which, analytic in (
                (0, g.g_a), (1, g.g_p), (2, g.g_n)
            ):
                for axis in range(4):
                    bumped = [v.copy() for v in vecs]
                    bumped[which][axis] += FD_STEP
                    up = loss_of(*bumped)
                    bumped[which][axis] -= 2 * FD_STEP
                    down = loss_of(*bumped)
                    fd = (up - down) / (2 * FD_STEP)
                    assert analytic[axis] == pytest.approx(
                        fd, abs=2e-6, rel=1e-4
                    )
            checked += 1


def test_sct_branch_discontinuity_is_bounded():
    """The jump across s_an == s_ap equals |lam*s_an - nca_loss| on the
    line; documented behavior, spot-checked here."""
    for s in (-0.5, 0.0, 0.7):
        c_hard = TripletCoord(s, s + 1e-9)
        c_easy = TripletCoord(s, s)
        jump = abs(sct_loss(c_hard, SCT) - sct_loss(c_easy, SCT))
        assert jump == pytest.approx(abs(1.0 * s - np.log(2)), abs=1e-6)
