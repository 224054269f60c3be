import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletlab.geometry import TripletCoord
from tripletlab.losses import LossKind, LossSpec, loss_values
from tripletlab.mining import MinedTriplet, MiningStrategy
from tripletlab.synthdata import DatasetConfig, generate
from tripletlab.trainer import (
    MAX_EMBED_DIM,
    GradMode,
    ModelParams,
    TrainConfig,
    _sample_batch,
    backward,
    embed,
    init_params,
    train,
)

from conftest import random_unit, triplets_of

FD_STEP = 1e-5


def small_dataset():
    return generate(
        DatasetConfig(
            num_classes=4, per_class=4, input_dim=6, intra_spread=1.0, seed=3
        )
    )


def batch_loss(weight, xs, triplets, spec):
    """Mean triplet loss through embedding and normalization, from each
    triplet's explicit dot products."""
    z = xs @ weight
    feats = z / np.linalg.norm(z, axis=1, keepdims=True)
    coords = TripletCoord(
        np.array([feats[t.anchor] @ feats[t.positive] for t in triplets]),
        np.array([feats[t.anchor] @ feats[t.negative] for t in triplets]),
    )
    return float(np.mean(loss_values(coords, spec)))


class TestForward:
    """The forward pass: embed on one row."""

    def one(self, params, x):
        return embed(params, x[None, :])[0][0]

    def test_identity_weight_passthrough(self, rng):
        x = random_unit(rng, 5)
        params = ModelParams(weight=np.eye(5))
        assert np.allclose(self.one(params, x), x, atol=1e-12)

    def test_scale_invariance(self, rng):
        w = rng.standard_normal((6, 4))
        x = random_unit(rng, 6)
        a = self.one(ModelParams(weight=w), x)
        b = self.one(ModelParams(weight=5.0 * w), x)
        assert np.allclose(a, b, atol=1e-12)

    def test_unit_output(self, rng):
        params = ModelParams(weight=rng.standard_normal((6, 4)))
        for _ in range(20):
            out = self.one(params, random_unit(rng, 6))
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_embed_matches_forward(self, rng):
        """Each row of a batch embed is normalize(W^T x) of that row."""
        params = ModelParams(weight=rng.standard_normal((6, 4)))
        xs = np.stack([random_unit(rng, 6) for _ in range(8)])
        feats, _ = embed(params, xs)
        for i in range(8):
            z = params.weight.T @ xs[i]
            assert np.allclose(feats[i], z / np.linalg.norm(z), atol=1e-12)


class TestBackward:
    def fixed_triplets(self):
        # labels [0,0,1,1,2,2]; coords filled in by mining normally but the
        # gradient path only needs the indices
        dummy = TripletCoord(0.0, 0.0)
        return triplets_of([
            MinedTriplet(0, 1, 2, dummy),
            MinedTriplet(2, 3, 4, dummy),
            MinedTriplet(4, 5, 0, dummy),
            MinedTriplet(1, 0, 5, dummy),
        ])

    @pytest.mark.parametrize(
        "spec",
        [
            LossSpec(kind=LossKind.NCA),
            LossSpec(kind=LossKind.MARGIN, margin=0.4),
            LossSpec(kind=LossKind.SCT, lam=1.0),
        ],
        ids=["nca", "margin", "sct"],
    )
    def test_through_mode_matches_finite_differences(self, spec, rng):
        xs = np.stack([random_unit(rng, 4) for _ in range(6)])
        weight = rng.standard_normal((4, 3))
        triplets = self.fixed_triplets()
        grad = backward(
            xs, *embed(ModelParams(weight=weight), xs), triplets, spec,
            GradMode.THROUGH_NORMALIZATION,
        )
        for i in range(4):
            for j in range(3):
                bumped = weight.copy()
                bumped[i, j] += FD_STEP
                up = batch_loss(bumped, xs, triplets, spec)
                bumped[i, j] -= 2 * FD_STEP
                down = batch_loss(bumped, xs, triplets, spec)
                fd = (up - down) / (2 * FD_STEP)
                assert grad[i, j] == pytest.approx(fd, abs=1e-7, rel=1e-4)

    def test_zero_feature_grads_give_zero_matrix(self, rng):
        xs = np.stack([random_unit(rng, 4) for _ in range(6)])
        params = ModelParams(weight=rng.standard_normal((4, 3)))
        # margin huge in the easy direction: hinge inactive for everything
        spec = LossSpec(kind=LossKind.MARGIN, margin=0.0)
        feats, norms = embed(params, xs)
        triplets = []
        for a, p, n in [(0, 1, 2), (2, 3, 4)]:
            coord = TripletCoord(
                float(feats[a] @ feats[p]), float(feats[a] @ feats[n])
            )
            if coord.s_an < coord.s_ap:  # only inactive triplets
                triplets.append(MinedTriplet(a, p, n, coord))
        if triplets:
            grad = backward(xs, feats, norms, triplets_of(triplets), spec,
                            GradMode.POST_PROJECTION)
            assert not np.any(grad)

    def test_empty_triplets_zero_gradient(self, rng):
        params = ModelParams(weight=rng.standard_normal((4, 3)))
        xs = np.stack([random_unit(rng, 4) for _ in range(4)])
        grad = backward(xs, *embed(params, xs), triplets_of([]), LossSpec(),
                        GradMode.POST_PROJECTION)
        assert grad.shape == (4, 3)
        assert not np.any(grad)

    def test_post_and_through_differ_by_radial_component(self):
        """With one-hot inputs and unit-norm weight rows, the parameter
        gradient rows are the per-item embedding gradients, and the through
        rows are exactly the tangent projections of the post rows."""
        rng = np.random.default_rng(11)
        weight = np.stack([random_unit(rng, 3) for _ in range(3)])
        xs = np.eye(3)
        feats, norms = embed(ModelParams(weight=weight), xs)
        assert np.allclose(feats, weight, atol=1e-12)  # rows already unit
        coord = TripletCoord(
            float(feats[0] @ feats[1]), float(feats[0] @ feats[2])
        )
        triplets = triplets_of([MinedTriplet(0, 1, 2, coord)])
        spec = LossSpec(kind=LossKind.NCA)
        g_post = backward(xs, feats, norms, triplets, spec,
                          GradMode.POST_PROJECTION)
        g_through = backward(xs, feats, norms, triplets, spec,
                             GradMode.THROUGH_NORMALIZATION)
        for i in range(3):
            f = feats[i]
            tangent = g_post[i] - f * (f @ g_post[i])
            assert np.allclose(g_through[i], tangent, atol=1e-12)
            # the difference is purely radial
            diff = g_post[i] - g_through[i]
            assert np.allclose(
                diff, f * (f @ diff), atol=1e-12
            )


def class_index(labels):
    """The sampler's class index: rows sorted by class, starts and sizes."""
    rows = np.argsort(labels, kind="stable")
    _, start, size = np.unique(labels[rows], return_index=True,
                               return_counts=True)
    return rows, start, size


def choice_sampler(rng, members, classes_per_batch):
    """Oracle: the per-class sampler, one Generator.choice call per class."""
    class_ids = np.asarray(sorted(members.keys()))
    chosen = rng.choice(class_ids, size=classes_per_batch, replace=False)
    return np.concatenate(
        [members[c][rng.choice(members[c].size, size=2, replace=False)]
         for c in chosen.tolist()]
    )


class TestSampler:
    def test_two_per_class_no_repeats(self):
        ds = small_dataset()
        rows, start, size = class_index(ds.labels)
        rng = np.random.default_rng(0)
        for _ in range(50):
            idx = _sample_batch(rng, rows, start, size, classes_per_batch=3)
            assert len(idx) == 6
            labels = ds.labels[idx]
            values, counts = np.unique(labels, return_counts=True)
            assert len(values) == 3
            assert np.all(counts == 2)
            assert len(np.unique(idx)) == 6


@st.composite
def labelled_classes(draw):
    """Shuffled labels of 2-12 classes with non-contiguous ids and unequal
    sizes 2-300 (size 2 has a one-value first draw), and per batch a
    classes-per-batch count from 2 to all classes."""
    sizes = draw(st.lists(st.integers(2, 300), min_size=2, max_size=12))
    ids = draw(st.lists(st.integers(-1000, 1000), min_size=len(sizes),
                        max_size=len(sizes), unique=True))
    labels = np.repeat(np.asarray(ids), sizes)
    np.random.default_rng(draw(st.integers(0, 2**32 - 1))).shuffle(labels)
    per_batch = draw(st.lists(st.integers(2, len(sizes)), min_size=1,
                              max_size=6))
    return labels, per_batch


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=labelled_classes(), seed=st.integers(0, 2**63 - 1))
def test_sampler_matches_per_class_choice(case, seed):
    """The one-call sampler returns the rows of per-class Generator.choice
    draws and leaves the generator in the same state after every batch,
    starting with half of a 64-bit output pending."""
    labels, per_batch = case
    members = {int(c): np.flatnonzero(labels == c) for c in np.unique(labels)}
    index = class_index(labels)
    want, got = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (want, got):
        rng.integers(7)  # one 32-bit draw: the other half stays pending
        assert rng.bit_generator.state["has_uint32"] == 1
    for k in per_batch:
        expected = choice_sampler(want, members, k)
        assert np.array_equal(_sample_batch(got, *index, k), expected)
        assert got.bit_generator.state == want.bit_generator.state


class TestTrain:
    CFG = dict(
        learning_rate=0.3,
        epochs=3,
        classes_per_batch=3,
        embed_dim=4,
        seed=7,
        snapshot_every=2,
    )

    def test_deterministic(self):
        ds = small_dataset()
        cfg = TrainConfig(strategy=MiningStrategy.HARD_NEGATIVE, **self.CFG)
        params_a, logs_a = train(ds, cfg)
        params_b, logs_b = train(ds, cfg)
        assert np.array_equal(params_a.weight, params_b.weight)
        assert logs_a == logs_b

    def test_zero_learning_rate_flat_metrics(self):
        ds = small_dataset()
        cfg = TrainConfig(
            strategy=MiningStrategy.RANDOM,
            learning_rate=0.0,
            epochs=4,
            classes_per_batch=3,
            embed_dim=4,
            seed=1,
        )
        _, logs = train(ds, cfg)
        recalls = {log.recall_at_1 for log in logs}
        collapses = {log.collapse for log in logs}
        assert len(recalls) == 1
        assert len(collapses) == 1

    def test_log_fields_in_range(self):
        ds = small_dataset()
        cfg = TrainConfig(strategy=MiningStrategy.SEMI_HARD_NEGATIVE,
                          **self.CFG)
        _, logs = train(ds, cfg)
        assert [log.epoch for log in logs] == [0, 1, 2]
        for log in logs:
            assert 0.0 <= log.hard_fraction <= 1.0
            assert 0.0 <= log.recall_at_1 <= 1.0
            assert -1.0 <= log.collapse <= 1.0

    def test_float_fields_are_python_floats(self):
        ds = small_dataset()
        cfg = TrainConfig(strategy=MiningStrategy.HARD_NEGATIVE, **self.CFG)
        _, logs = train(ds, cfg)
        for log in logs:
            for name in ("mean_loss", "hard_fraction", "recall_at_1",
                         "collapse"):
                assert type(getattr(log, name)) is float, name

    def test_snapshot_cadence_and_indices(self):
        ds = small_dataset()
        cfg = TrainConfig(strategy=MiningStrategy.HARD_NEGATIVE, **self.CFG)
        _, logs = train(ds, cfg)
        assert logs[0].snapshot is not None
        assert logs[1].snapshot is None
        assert logs[2].snapshot is not None
        for t in logs[0].snapshot:
            # snapshot indices refer to dataset rows with valid labels
            assert ds.labels[t.anchor] == ds.labels[t.positive]
            assert ds.labels[t.anchor] != ds.labels[t.negative]

    @pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf")])
    def test_learning_rate_validation(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("dim", [1, MAX_EMBED_DIM + 1])
    def test_embed_dim_validation(self, dim):
        with pytest.raises(ValueError, match="embed_dim"):
            TrainConfig(embed_dim=dim)

    def test_too_few_classes_rejected(self):
        ds = small_dataset()
        cfg = TrainConfig(classes_per_batch=5, embed_dim=4,
                          learning_rate=0.1, epochs=1, seed=0)
        with pytest.raises(ValueError, match="fewer classes"):
            train(ds, cfg)

    def test_scale_invariant_init_dimensions(self):
        params = init_params(input_dim=10, embed_dim=5, seed=0)
        assert params.weight.shape == (10, 5)
        # 1/sqrt(input_dim) scaling keeps entries modest
        assert np.std(params.weight) == pytest.approx(
            1 / np.sqrt(10), rel=0.3
        )
