import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletlab.dynamics import (
    MAX_RESOLUTION,
    MAX_STEPS,
    StepParams,
    step,
    trajectory,
    vector_field,
)
from tripletlab.geometry import DegenerateVectorError, TripletCoord
from tripletlab.losses import LossKind, LossSpec, softmax_weight

from conftest import sphere_step_oracle

NCA = LossSpec(kind=LossKind.NCA)
MARGIN02 = LossSpec(kind=LossKind.MARGIN, margin=0.2)


def nca_params_for_beta(coord, beta, g=1.0, p=0.0):
    """StepParams whose internal beta equals the requested value."""
    return StepParams(
        learning_rate=beta / softmax_weight(coord),
        gamma=g,
        entanglement_p=p,
        loss=NCA,
    )


def assert_matches_oracle(upd, oracle, tol=1e-9):
    assert upd.s_ap_new == pytest.approx(oracle[0], abs=tol)
    assert upd.s_an_new == pytest.approx(oracle[1], abs=tol)
    assert upd.norm_a == pytest.approx(oracle[2], abs=tol)
    assert upd.norm_p == pytest.approx(oracle[3], abs=tol)
    assert upd.norm_n == pytest.approx(oracle[4], abs=tol)
    assert upd.d_sap == pytest.approx(oracle[5], abs=tol)
    assert upd.d_san == pytest.approx(oracle[6], abs=tol)


class TestStepNca:
    def test_zero_learning_rate_is_identity(self):
        upd = step(TripletCoord(0.3, -0.4), StepParams(learning_rate=0.0))
        assert upd.d_sap == 0.0 and upd.d_san == 0.0
        assert upd.norm_a == upd.norm_p == upd.norm_n == 1.0

    def test_coincident_fixed_point(self):
        # (1,1) is the degenerate minimum; updates are colinear, deltas vanish
        upd = step(
            TripletCoord(1.0, 1.0),
            StepParams(learning_rate=0.2, gamma=0.3, entanglement_p=0.0),
        )
        assert abs(upd.d_sap) < 1e-12
        assert abs(upd.d_san) < 1e-12

    def test_known_prenormalization_values(self):
        # s_pn = 1 at gamma=1: 0.6 / 0.4 before renormalization
        coord = TripletCoord(0.5, 0.5)
        upd = step(coord, nca_params_for_beta(coord, 0.1))
        assert upd.s_ap_new == pytest.approx(0.6, abs=1e-12)
        assert upd.s_an_new == pytest.approx(0.4, abs=1e-12)
        assert_matches_oracle(upd, sphere_step_oracle(0.5, 0.5, 1.0, 0.1))

    def test_oracle_equivalence_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            s_ap, s_an = rng.uniform(-1, 1, size=2)
            g = rng.uniform(-1, 1)
            beta = rng.uniform(0.0, 0.5)
            coord = TripletCoord(s_ap, s_an)
            upd = step(coord, nca_params_for_beta(coord, beta, g=g))
            assert_matches_oracle(
                upd, sphere_step_oracle(s_ap, s_an, g, beta, "nca")
            )


class TestStepMargin:
    def test_inactive_hinge_no_motion(self):
        params = StepParams(learning_rate=0.1, loss=LossSpec(
            kind=LossKind.MARGIN, margin=0.0))
        upd = step(TripletCoord(0.9, 0.1), params)
        assert upd.d_sap == 0.0 and upd.d_san == 0.0
        assert upd.s_ap_new == 0.9 and upd.s_an_new == 0.1

    def test_zero_step_is_identity(self):
        params = StepParams(learning_rate=0.0, loss=MARGIN02)
        upd = step(TripletCoord(0.1, 0.9), params)
        assert upd.d_sap == 0.0 and upd.d_san == 0.0

    def test_active_matches_oracle(self):
        params = StepParams(learning_rate=0.01, gamma=1.0, loss=MARGIN02)
        upd = step(TripletCoord(0.3, 0.7), params)
        assert_matches_oracle(
            upd, sphere_step_oracle(0.3, 0.7, 1.0, 0.02, "margin", 0.2)
        )

    def test_oracle_equivalence_sweep(self):
        rng = np.random.default_rng(43)
        for _ in range(2000):
            s_ap, s_an = rng.uniform(-1, 1, size=2)
            g = rng.uniform(-1, 1)
            lr = rng.uniform(0.0, 0.25)
            margin = rng.uniform(0.0, 1.0)
            params = StepParams(
                learning_rate=lr,
                gamma=g,
                loss=LossSpec(kind=LossKind.MARGIN, margin=margin),
            )
            upd = step(TripletCoord(s_ap, s_an), params)
            assert_matches_oracle(
                upd,
                sphere_step_oracle(s_ap, s_an, g, 2 * lr, "margin", margin),
            )


class TestEntanglement:
    def test_zero_p_totals_equal_plain_deltas(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            coord = TripletCoord(*rng.uniform(-1, 1, 2))
            params = StepParams(
                learning_rate=0.1, gamma=rng.uniform(-1, 1),
                entanglement_p=0.0)
            upd = step(coord, params)
            assert upd.d_sap_total == upd.d_sap
            assert upd.d_san_total == upd.d_san

    def test_coupling_uses_p_times_q(self):
        coord = TripletCoord(0.6, 0.5)
        base = step(coord, StepParams(learning_rate=0.1, gamma=1.0))
        coupled = step(
            coord,
            StepParams(learning_rate=0.1, gamma=1.0, entanglement_p=0.8),
        )
        q = 0.6 * 0.5
        assert coupled.d_sap_total == pytest.approx(
            base.d_sap + 0.8 * q * base.d_san, abs=1e-15
        )
        assert coupled.d_san_total == pytest.approx(
            base.d_san + 0.8 * q * base.d_sap, abs=1e-15
        )

    def test_fixed_point_for_all_gamma_p(self):
        for g in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for p in (0.0, 0.5, 1.0):
                for params_loss in (NCA, MARGIN02):
                    params = StepParams(
                        learning_rate=0.15, gamma=g, entanglement_p=p,
                        loss=params_loss)
                    upd = step(TripletCoord(1.0, 1.0), params)
                    assert abs(upd.d_sap_total) < 1e-12
                    assert abs(upd.d_san_total) < 1e-12


class TestVectorField:
    def test_grid_size_and_cells(self):
        field = vector_field(5, StepParams(learning_rate=0.05, loss=NCA))
        assert len(field) == 25
        assert field.s_ap.min() == -1.0 and field.s_ap.max() == 1.0

    def test_resolution_validation(self):
        params = StepParams(learning_rate=0.05, loss=NCA)
        for resolution in (1, MAX_RESOLUTION + 1):
            with pytest.raises(ValueError, match="resolution"):
                vector_field(resolution, params)

    @pytest.mark.parametrize("loss", [NCA, MARGIN02], ids=["nca", "margin"])
    def test_equals_per_cell_step(self, loss):
        """Every cell holds the scalar step's deltas at its coordinates."""
        params = StepParams(learning_rate=0.3, gamma=0.4, entanglement_p=0.7,
                            loss=loss)
        field = vector_field(41, params)
        assert len(field) == 41 * 41
        for i, (ap, an) in enumerate(zip(field.s_ap, field.s_an)):
            upd = step(TripletCoord(float(ap), float(an)), params)
            assert (field.d_sap[i], field.d_san[i], field.d_sap_total[i],
                    field.d_san_total[i]) == upd[5:]

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", -0.1), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("gamma", 1.5), ("gamma", float("nan")), ("gamma", float("inf")),
        ("gamma", float("-inf")),
        ("entanglement_p", -0.5), ("entanglement_p", float("nan")),
        ("entanglement_p", float("inf")),
    ])
    def test_step_params_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            StepParams(**{"learning_rate": 0.1, field: value})

    def test_projection_kills_gradient_near_sap_one(self):
        """|d_sap| at s_ap > 0.99 stays under 1% of the field max."""
        field = vector_field(
            41,
            StepParams(learning_rate=0.05, gamma=1.0, entanglement_p=0.0,
                       loss=NCA),
        )
        edge = np.abs(field.d_sap[field.s_ap > 0.99])
        assert edge.size > 0
        assert edge.max() < 0.01 * np.abs(field.d_sap).max()

    def test_entangled_field_pushes_hard_region_up(self):
        """With full entanglement some hard-region cells gain s_an."""
        field = vector_field(
            41,
            StepParams(learning_rate=0.05, gamma=1.0, entanglement_p=1.0,
                       loss=NCA),
        )
        hard = field.s_an > field.s_ap
        assert np.any(field.d_san_total[hard] > 0)

    def test_corner_cell_is_fixed(self):
        field = vector_field(
            3,
            StepParams(learning_rate=0.1, gamma=1.0, entanglement_p=1.0,
                       loss=NCA),
        )
        at_corner = (field.s_ap == 1.0) & (field.s_an == 1.0)
        assert np.all(np.abs(field.d_sap_total[at_corner]) < 1e-12)
        assert np.all(np.abs(field.d_san_total[at_corner]) < 1e-12)

    def test_sct_dynamics_rejected(self):
        with pytest.raises(ValueError, match="nca and margin losses"):
            StepParams(learning_rate=0.1, loss=LossSpec(kind=LossKind.SCT))


class TestTrajectory:
    def test_fixed_point_is_constant(self):
        params = StepParams(learning_rate=0.1, gamma=0.5, entanglement_p=1.0)
        points = trajectory(TripletCoord(1.0, 1.0), params, steps=8)
        assert len(points) == 9
        for pt in points:
            assert pt.s_ap == pytest.approx(1.0, abs=1e-12)
            assert pt.s_an == pytest.approx(1.0, abs=1e-12)

    def test_single_step_composition(self):
        params = StepParams(learning_rate=0.1, gamma=1.0, entanglement_p=0.5)
        start = TripletCoord(0.2, 0.6)
        upd = step(start, params)
        points = trajectory(start, params, steps=1)
        assert points[1].s_ap == pytest.approx(
            start.s_ap + upd.d_sap_total, abs=1e-15
        )
        assert points[1].s_an == pytest.approx(
            start.s_an + upd.d_san_total, abs=1e-15
        )

    def test_hard_corner_attracts_under_entanglement(self):
        """Near (1,1) with full entanglement the negative keeps gaining
        similarity: the degenerate-minimum pull."""
        params = StepParams(learning_rate=0.1, gamma=1.0, entanglement_p=1.0)
        points = trajectory(TripletCoord(0.8, 0.95), params, steps=10)
        s_an_values = [pt.s_an for pt in points]
        assert all(
            b >= a for a, b in zip(s_an_values, s_an_values[1:])
        )
        assert s_an_values[-1] > s_an_values[0]

    def test_clamped_to_square(self):
        params = StepParams(learning_rate=2.0, gamma=1.0)
        for pt in trajectory(TripletCoord(0.9, -0.9), params, steps=20):
            assert -1.0 <= pt.s_ap <= 1.0
            assert -1.0 <= pt.s_an <= 1.0

    def test_steps_validation(self):
        for steps in (0, MAX_STEPS + 1):
            with pytest.raises(ValueError, match="steps"):
                trajectory(TripletCoord(0, 0), StepParams(learning_rate=0.1),
                           steps)

    @pytest.mark.parametrize("start, params", [
        # the margin step sends the positive to zero at s_ap = -1
        ((-1.0, -0.5), StepParams(learning_rate=0.25, loss=MARGIN02)),
        ((0.0, 0.5), StepParams(learning_rate=1e308)),
    ])
    def test_non_finite_step_refused(self, start, params):
        with pytest.raises(DegenerateVectorError, match="not finite"):
            trajectory(TripletCoord(*start), params, 5)

    @pytest.mark.parametrize("start", [
        (1.5, 0.2), (0.2, -1.0000001), (float("nan"), 0.0),
        (0.0, float("inf")),
    ])
    def test_start_outside_square_refused(self, start):
        with pytest.raises(ValueError, match="start"):
            trajectory(TripletCoord(*start), StepParams(learning_rate=0.1), 5)


_UNIT = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                  st.floats(-1.0, 1.0))


@st.composite
def _points_and_params(draw):
    coords = draw(st.lists(st.tuples(_UNIT, _UNIT), min_size=1,
                           max_size=32))
    kind = draw(st.sampled_from([LossKind.NCA, LossKind.MARGIN]))
    params = StepParams(
        learning_rate=draw(st.floats(0.0, 2.0)),
        gamma=draw(_UNIT),
        entanglement_p=draw(st.floats(0.0, 2.0)),
        loss=LossSpec(kind=kind, margin=draw(st.floats(0.0, 1.0))),
    )
    return coords, params


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_points_and_params())
def test_array_step_equals_scalar_step_bit_for_bit(case):
    """One step over coordinate arrays gives, bit for bit, each point's
    scalar step: nca and margin, inactive hinges, lr = 0, gamma = +-1 and
    the square's corners included."""
    coords, params = case
    s_ap, s_an = np.array(coords).T
    array_upd = step(TripletCoord(s_ap, s_an), params)
    scalar_upd = [step(TripletCoord(*c), params) for c in coords]
    for name, column in zip(array_upd._fields, array_upd):
        scalar = np.array([getattr(u, name) for u in scalar_upd])
        assert column.shape == scalar.shape
        assert np.array_equal(column.view(np.uint64),
                              scalar.view(np.uint64)), name


def _assert_same_bits(array_upd, scalar_upd):
    for name, column in zip(array_upd._fields, array_upd):
        scalar = np.array([getattr(u, name) for u in scalar_upd])
        assert column.shape == scalar.shape
        assert np.array_equal(column.view(np.uint64),
                              scalar.view(np.uint64)), name


@pytest.mark.parametrize("s_ap, s_an, params", [
    # the margin step zeroes the positive at s_ap = -1: a zero norm
    ([-1.0, -1.0, 0.3], [-0.5, 1.0, 0.6],
     StepParams(learning_rate=0.25, loss=MARGIN02)),
    # beta overflows
    ([0.0, -1.0, 1.0, 0.4], [0.5, 1.0, 1.0, -0.7],
     StepParams(learning_rate=1e308, gamma=-1.0, entanglement_p=2.0)),
    ([0.0, 0.9], [0.5, -0.9], StepParams(learning_rate=1e308, loss=MARGIN02)),
    # a mixed float/array point
    (0.3, [-1.0, -0.2, 0.6, 1.0],
     StepParams(learning_rate=0.3, gamma=-1.0, entanglement_p=1.0)),
    ([-1.0, 0.5, 1.0], -0.5,
     StepParams(learning_rate=0.25, gamma=0.5, loss=MARGIN02)),
], ids=["zero-norm", "overflow-nca", "overflow-margin", "mixed-nca",
        "mixed-margin-zero-norm"])
def test_degenerate_array_step_equals_scalar_step_bit_for_bit(s_ap, s_an,
                                                              params):
    """Zero norms, overflow and mixed float/array points, which the
    random strategy rarely draws: the array step's bits, NaN included,
    are each point's scalar step's, and no ZeroDivisionError or
    OverflowError escapes a scalar step."""
    coord = TripletCoord(*(np.array(c) if isinstance(c, list) else c
                           for c in (s_ap, s_an)))
    points = zip(*(c.tolist() for c in np.broadcast_arrays(*coord)))
    with np.errstate(all="ignore"):
        array_upd = step(coord, params)
        scalar_upd = [step(TripletCoord(*pt), params) for pt in points]
    _assert_same_bits(array_upd, scalar_upd)


def _array_rollout(start, params, steps):
    """trajectory's rollout done on shape-(1,) arrays: the points up to
    the first non-finite step, and whether every step was finite."""
    coord = TripletCoord(np.array([start.s_ap]), np.array([start.s_an]))
    points = [start]
    with np.errstate(all="ignore"):
        for _ in range(steps):
            upd = step(coord, params)
            d_sap, d_san = upd.d_sap_total, upd.d_san_total
            if not (np.isfinite(d_sap).all() and np.isfinite(d_san).all()):
                return points, False
            coord = TripletCoord(
                np.minimum(np.maximum(coord.s_ap + d_sap, -1.0), 1.0),
                np.minimum(np.maximum(coord.s_an + d_san, -1.0), 1.0))
            points.append(TripletCoord(*(float(c[0]) for c in coord)))
    return points, True


@settings(max_examples=200, deadline=None, derandomize=True)
@given(start=st.tuples(_UNIT, _UNIT),
       kind=st.sampled_from([LossKind.NCA, LossKind.MARGIN]),
       learning_rate=st.floats(0.0, 2.0), gamma=_UNIT,
       entanglement_p=st.floats(0.0, 2.0), margin=st.floats(0.0, 1.0),
       steps=st.integers(1, 40))
def test_trajectory_equals_array_rollout_bit_for_bit(
        start, kind, learning_rate, gamma, entanglement_p, margin, steps):
    """trajectory steps a point of Python floats; the same rollout on
    shape-(1,) arrays gives its points bit for bit, or fails at the same
    step. Starts on the square's edges and gamma = +-1 included."""
    params = StepParams(learning_rate=learning_rate, gamma=gamma,
                        entanglement_p=entanglement_p,
                        loss=LossSpec(kind=kind, margin=margin))
    start = TripletCoord(*start)
    expected, finite = _array_rollout(start, params, steps)
    if not finite:
        with pytest.raises(DegenerateVectorError,
                           match=f"step {len(expected)} is not finite"):
            trajectory(start, params, steps)
        return
    points = trajectory(start, params, steps)
    assert all(type(c) is float for pt in points for c in pt)
    assert (np.array(points).view(np.uint64).tolist()
            == np.array(expected).view(np.uint64).tolist())
    # a finite scalar step builds no numpy scalar
    assert all(type(v) is float for v in step(start, params))
