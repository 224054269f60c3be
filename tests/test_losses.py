import numpy as np
import pytest

from tripletlab.geometry import TripletCoord
from tripletlab.losses import (
    LossKind,
    LossSpec,
    batch_feature_grads,
    coord_grads,
    hinge_argument,
    loss_values,
    softmax_weight,
)

from conftest import random_unit, triplet_vectors

NCA = LossSpec(kind=LossKind.NCA)
SCT = LossSpec(kind=LossKind.SCT, lam=1.0)
FD_STEP = 1e-5


def point(s_ap, s_an):
    """One diagram point as shape-(1,) coordinate arrays."""
    return TripletCoord(np.array([s_ap]), np.array([s_an]))


def loss_at(s_ap, s_an, spec):
    """loss_values of one diagram point."""
    return loss_values(point(s_ap, s_an), spec)[0]


def margin_at(s_ap, s_an, margin):
    """loss_values of one diagram point under the margin hinge."""
    return loss_at(s_ap, s_an, LossSpec(kind=LossKind.MARGIN, margin=margin))


def grad_at(s_ap, s_an, spec):
    """coord_grads of one diagram point as the list [d_sap, d_san]."""
    return np.ravel(coord_grads(point(s_ap, s_an), spec)).tolist()


def grads_of(f_a, f_p, f_n, spec):
    """batch_feature_grads of one triplet's vectors (k = 1 rows)."""
    g_a, g_p, g_n = batch_feature_grads(f_a[None], f_p[None], f_n[None], spec)
    return g_a[0], g_p[0], g_n[0]


def fd_coord(fn, coord, step=FD_STEP):
    """Central finite differences of a loss over (s_ap, s_an), elementwise
    over coordinate arrays."""
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
        assert loss_at(0.0, 0.0, NCA) == pytest.approx(np.log(2))

    def test_shift_invariance(self, rng):
        s = rng.uniform(-1, 1, size=20)
        values = loss_values(TripletCoord(s, s), NCA)
        assert values == pytest.approx(np.full(20, np.log(2)))

    def test_high_precision_value(self):
        # log(1 + exp(-2))
        assert loss_at(1.0, -1.0, NCA) == pytest.approx(
            0.1269280110429725, abs=1e-15
        )

    def test_always_positive(self, rng):
        c = TripletCoord(*rng.uniform(-1, 1, size=(200, 2)).T)
        assert (loss_values(c, NCA) > 0.0).all()


class TestMarginLoss:
    def test_easy_triplet_inactive(self):
        assert margin_at(0.9, 0.1, 0.2) == 0.0

    def test_active_value_matches_distance_oracle(self):
        # 2*(0.9-0.1)+0.2, verified against explicit squared distances
        assert margin_at(0.1, 0.9, 0.2) == pytest.approx(1.8)
        f_a, f_p, f_n = triplet_vectors(0.1, 0.9, 0.6)
        direct = (
            np.sum((f_a - f_p) ** 2) - np.sum((f_a - f_n) ** 2) + 0.2
        )
        assert margin_at(0.1, 0.9, 0.2) == pytest.approx(direct, abs=1e-12)

    def test_diagonal_boundary(self):
        assert margin_at(0.4, 0.4, 0.0) == 0.0
        assert hinge_argument(TripletCoord(0.4, 0.4), 0.0) == 0.0


class TestSctLoss:
    def test_hard_branch_reads_s_an(self):
        assert loss_at(0.2, 0.8, SCT) == pytest.approx(0.8)

    def test_easy_branch_is_base_loss(self):
        # log(1 + exp(-0.6))
        assert loss_at(0.8, 0.2, SCT) == pytest.approx(
            0.4374879504858856, abs=1e-15
        )

    def test_boundary_goes_to_easy_branch(self):
        assert loss_at(0.5, 0.5, SCT) == pytest.approx(np.log(2))

    def test_hard_branch_scales_with_lam(self):
        spec = LossSpec(kind=LossKind.SCT, lam=2.5)
        assert loss_at(0.0, 0.4, spec) == pytest.approx(1.0)

    def test_margin_base(self):
        spec = LossSpec(kind=LossKind.SCT, lam=1.0, base=LossKind.MARGIN,
                        margin=0.2)
        assert loss_at(0.8, 0.2, spec) == 0.0


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
        d_sap, d_san = grad_at(0.0, 0.0, NCA)
        assert d_sap == pytest.approx(-0.5)
        assert d_san == pytest.approx(0.5)

    def test_sct_hard_branch(self):
        assert grad_at(0.2, 0.8, SCT) == [0.0, 1.0]

    def test_nca_matches_finite_difference(self):
        g = grad_at(0.9, 0.3, NCA)
        fd = fd_coord(lambda c: loss_values(c, NCA), point(0.9, 0.3))
        assert g[0] == pytest.approx(fd[0][0], abs=1e-6)
        assert g[1] == pytest.approx(fd[1][0], abs=1e-6)

    def test_margin_active_and_inactive(self):
        spec = LossSpec(kind=LossKind.MARGIN, margin=0.2)
        assert grad_at(0.1, 0.9, spec) == [-2.0, 2.0]
        assert grad_at(0.9, 0.1, spec) == [0.0, 0.0]
        # exactly on the hinge (0.25/0.5/0.5 are float-exact, D == 0):
        # the inactive-side subgradient applies
        on_hinge = LossSpec(kind=LossKind.MARGIN, margin=0.5)
        assert hinge_argument(TripletCoord(0.75, 0.5), 0.5) == 0.0
        assert grad_at(0.75, 0.5, on_hinge) == [0.0, 0.0]

    def test_nca_components_cancel_exactly(self, rng):
        coords = TripletCoord(*rng.uniform(-1, 1, size=(200, 2)).T)
        g = coord_grads(coords, NCA)
        assert (g.d_sap + g.d_san == 0.0).all()

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
        kept = []
        while len(kept) < 1000:
            coord = TripletCoord(*rng.uniform(-0.999, 0.999, size=2))
            if abs(hinge_argument(coord, spec.margin)) < 1e-3:
                continue
            if abs(coord.s_an - coord.s_ap) < 1e-3:
                continue
            kept.append(coord)
        coords = TripletCoord(*np.array(kept).T)
        g = coord_grads(coords, spec)
        fd = fd_coord(lambda c: loss_values(c, spec), coords)
        scale = np.maximum(np.maximum(abs(fd[0]), abs(fd[1])), 1.0)
        assert (abs(g.d_sap - fd[0]) <= 1e-4 * scale).all()
        assert (abs(g.d_san - fd[1]) <= 1e-4 * scale).all()


class TestFeatureGrads:
    def test_margin_inactive_is_zero(self):
        g = grads_of(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                     np.array([0.0, 1.0]),
                     LossSpec(kind=LossKind.MARGIN, margin=0.2))
        assert not any(np.any(part) for part in g)

    # anchor (1,0) and negative (0,1) give s_an = 0; the positive at the
    # antipode makes s_ap = -1 so the triplet is strictly hard
    HARD_TRIPLET = (np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                    np.array([0.0, 1.0]))

    def test_sct_hard_branch_direct(self):
        g_a, g_p, g_n = grads_of(*self.HARD_TRIPLET, SCT)
        assert np.allclose(g_n, [1.0, 0.0])
        assert np.allclose(g_a, [0.0, 1.0])
        assert np.allclose(g_p, [0.0, 0.0])

    def test_sct_frozen_anchor_switch(self):
        spec = LossSpec(kind=LossKind.SCT, lam=1.0, sct_moves_anchor=False)
        g_a, _, g_n = grads_of(*self.HARD_TRIPLET, spec)
        assert not np.any(g_a)
        assert np.allclose(g_n, [1.0, 0.0])

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

        kept = []
        while len(kept) < 60:
            vecs = [random_unit(rng, 4) for _ in range(3)]
            coord = TripletCoord(
                float(vecs[0] @ vecs[1]), float(vecs[0] @ vecs[2])
            )
            if abs(coord.s_an - coord.s_ap) < 1e-2:
                continue
            if abs(hinge_argument(coord, spec.margin)) < 1e-2:
                continue
            kept.append(vecs)
        # one batched call: row i holds triplet i's gradients
        grads = batch_feature_grads(*np.array(kept).transpose(1, 0, 2), spec)
        for i, vecs in enumerate(kept):
            for which, analytic in enumerate(g[i] for g in grads):
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


def test_sct_branch_discontinuity_is_bounded():
    """The jump across s_an == s_ap equals |lam*s_an - nca loss| on the
    line; documented behavior, spot-checked here."""
    s = np.array([-0.5, 0.0, 0.7])
    c_hard = TripletCoord(s, s + 1e-9)
    c_easy = TripletCoord(s, s)
    jump = abs(loss_values(c_hard, SCT) - loss_values(c_easy, SCT))
    assert jump == pytest.approx(abs(1.0 * s - np.log(2)), abs=1e-6)
