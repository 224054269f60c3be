import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletlab import trainer
from tripletlab.evaluation import collapse_metric, recall_at_k
from tripletlab.geometry import TripletCoord
from tripletlab.losses import (
    LossKind,
    LossSpec,
    batch_feature_grads,
    is_hard,
    loss_values,
)
from tripletlab.mining import (Batch, MinedTriplet, MiningStrategy,
                               Triplets, mine)
from tripletlab.synthdata import DatasetConfig, generate
from tripletlab.trainer import (
    MAX_EMBED_DIM,
    EpochLog,
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
    def fixed_triplets(self, feats):
        """Triplets of labels [0,0,1,1,2,2] at the coordinates of their
        explicit dot products: the gradient is taken at the given point."""
        return triplets_of([
            MinedTriplet(a, p, n, TripletCoord(float(feats[a] @ feats[p]),
                                               float(feats[a] @ feats[n])))
            for a, p, n in [(0, 1, 2), (2, 3, 4), (4, 5, 0), (1, 0, 5)]
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
        feats, norms = embed(ModelParams(weight=weight), xs)
        triplets = self.fixed_triplets(feats)
        grad = backward(xs, feats, norms, triplets, spec,
                        GradMode.THROUGH_NORMALIZATION)
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

    @pytest.mark.parametrize("mode", ["Through", "POST", None])
    @pytest.mark.parametrize("empty", [False, True], ids=["triplets", "empty"])
    def test_refuses_a_grad_mode_that_is_no_mode(self, mode, empty, rng):
        """Not computed as post, with or without triplets."""
        xs = np.stack([random_unit(rng, 4) for _ in range(6)])
        feats, norms = embed(ModelParams(rng.standard_normal((4, 3))), xs)
        triplets = triplets_of([]) if empty else self.fixed_triplets(feats)
        with pytest.raises(ValueError, match="GradMode"):
            backward(xs, feats, norms, triplets, LossSpec(), mode)

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


def add_at_backward(inputs, feats, norms, triplets, loss, grad_mode):
    """Oracle: backward as it was before its per-row sums moved to
    np.bincount, with the np.add.at call into zeros."""
    t = triplets
    xs = np.asarray(inputs, dtype=np.float64)
    if not t:
        return np.zeros((xs.shape[1], feats.shape[1]))
    rows = np.column_stack([t.anchor, t.positive, t.negative])
    grads = batch_feature_grads(t, feats[rows], loss)
    grad_feat = np.zeros_like(feats)
    np.add.at(grad_feat, rows.ravel(),
              (1.0 / len(t)) * grads.reshape(rows.size, -1))
    if grad_mode == GradMode.THROUGH_NORMALIZATION:
        radial = np.sum(grad_feat * feats, axis=1, keepdims=True)
        grad_z = (grad_feat - feats * radial) / norms
    else:
        grad_z = grad_feat
    return xs.T @ grad_z


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(2, 10), d=st.integers(1, 5), k=st.integers(0, 24),
       kind=st.sampled_from(list(LossKind)),
       grad_mode=st.sampled_from(list(GradMode)),
       seed=st.integers(0, 2**32 - 1))
def test_backward_sums_rows_as_add_at(n, d, k, kind, grad_mode, seed):
    """backward's gradient has the bits of the np.add.at oracle: rows named
    by several triplets and roles, rows no triplet names (those from
    `named` on), -0.0 terms (a zero feature entry under a negative weight,
    or a negative entry under a zero weight such as an inactive hinge's)
    and k = 0. Half the coordinates sit on a grid that holds the hard and
    hinge boundaries."""
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.6)
    norms = rng.uniform(0.5, 2.0, (n, 1))
    xs = rng.standard_normal((n, 3))
    named = int(rng.integers(1, n + 1))
    grid = rng.choice([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0], (2, k))
    coords = np.where(rng.random((2, k)) < 0.5, grid,
                      rng.uniform(-1.0, 1.0, (2, k)))
    triplets = Triplets(*rng.integers(0, named, (3, k)), *coords)
    spec = LossSpec(kind=kind, margin=0.5)
    got = backward(xs, feats, norms, triplets, spec, grad_mode)
    want = add_at_backward(xs, feats, norms, triplets, spec, grad_mode)
    assert got.tobytes() == want.tobytes()


def class_index(labels):
    """The sampler's class index: rows sorted by class, starts, and each
    class's draw bounds (size - 1, size, 2)."""
    rows = np.argsort(labels, kind="stable")
    _, start, size = np.unique(labels[rows], return_index=True,
                               return_counts=True)
    return rows, start, np.stack((size - 1, size, np.full_like(size, 2)), 1)


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
        index = class_index(ds.labels)
        rng = np.random.default_rng(0)
        for count in (1, 7, 42):
            block, seeds = _sample_batch(rng, *index, 3, count)
            assert block.shape == (count, 6) and len(seeds) == count
            for idx in block:
                values, counts = np.unique(ds.labels[idx], return_counts=True)
                assert len(values) == 3
                assert np.all(counts == 2)
                assert len(np.unique(idx)) == 6


@st.composite
def labelled_classes(draw):
    """Shuffled labels of 2-12 classes with non-contiguous ids and unequal
    sizes 2-300 (size 2 has a one-value first draw), and per block a
    classes-per-batch count from 2 to all classes and 1-5 batches."""
    sizes = draw(st.lists(st.integers(2, 300), min_size=2, max_size=12))
    ids = draw(st.lists(st.integers(-1000, 1000), min_size=len(sizes),
                        max_size=len(sizes), unique=True))
    labels = np.repeat(np.asarray(ids), sizes)
    np.random.default_rng(draw(st.integers(0, 2**32 - 1))).shuffle(labels)
    blocks = draw(st.lists(st.tuples(st.integers(2, len(sizes)),
                                     st.integers(1, 5)),
                           min_size=1, max_size=6))
    return labels, blocks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=labelled_classes(), seed=st.integers(0, 2**63 - 1))
def test_sampler_matches_per_class_choice(case, seed):
    """Each batch of a block holds the rows of per-class Generator.choice
    draws, each seed is the integers(2**63 - 1) draw after its batch, and
    the generator ends every block in the per-step loop's state, starting
    with half of a 64-bit output pending."""
    labels, blocks = case
    members = {int(c): np.flatnonzero(labels == c) for c in np.unique(labels)}
    index = class_index(labels)
    want, got = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (want, got):
        rng.integers(7)  # one 32-bit draw: the other half stays pending
        assert rng.bit_generator.state["has_uint32"] == 1
    for k, count in blocks:
        block, seeds = _sample_batch(got, *index, k, count)
        assert block.shape == (count, 2 * k)
        for idx, seed_drawn in zip(block, seeds, strict=True):
            assert np.array_equal(idx, choice_sampler(want, members, k))
            assert seed_drawn == int(want.integers(2**63 - 1))
        assert got.bit_generator.state == want.bit_generator.state


def reference_train(dataset, config):
    """Oracle: the per-step loop, which draws a batch and its mining seed
    right before using them and takes each batch's losses and hard flags
    as it goes."""
    members = {int(c): np.flatnonzero(dataset.labels == c)
               for c in np.unique(dataset.labels)}
    n, k = len(dataset), config.classes_per_batch
    batches = config.batches_per_epoch or max(1, round(n / (2 * k)))
    rng = np.random.default_rng(config.seed)
    params = init_params(dataset.dim, config.embed_dim,
                         seed=int(rng.integers(2**63 - 1)))
    logs = []
    for epoch in range(config.epochs):
        losses, hard = [], []
        for _ in range(batches):
            idx = choice_sampler(rng, members, k)
            seed = int(rng.integers(2**63 - 1))
            xs = dataset.points[idx]
            feats, norms = embed(params, xs)
            mined = mine(Batch(feats, dataset.labels[idx]), config.strategy,
                         seed)
            losses.append(loss_values(mined, config.loss))
            hard.append(is_hard(mined))
            grad = backward(xs, feats, norms, mined, config.loss,
                            config.grad_mode)
            params = ModelParams(params.weight - config.learning_rate * grad)
        full = Batch(embed(params, dataset.points)[0], dataset.labels)
        logs.append(EpochLog(
            epoch=epoch,
            mean_loss=float(np.mean(np.concatenate(losses))),
            hard_fraction=float(np.mean(np.concatenate(hard))),
            recall_at_1=recall_at_k(full, full, k=1,
                                    exclude_self=True).recall,
            collapse=collapse_metric(full),
            snapshot=(mined.remap(idx) if epoch % config.snapshot_every == 0
                      else None),
        ))
    return params, logs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(strategy=st.sampled_from(list(MiningStrategy)),
       kind=st.sampled_from(list(LossKind)),
       grad_mode=st.sampled_from(list(GradMode)),
       classes_per_batch=st.integers(2, 4),
       batches_per_epoch=st.integers(1, 9),
       draw_rows=st.sampled_from([1, 20, 10_000]),
       seed=st.integers(0, 2**32))
def test_train_matches_per_step_loop(strategy, kind, grad_mode,
                                     classes_per_batch, batches_per_epoch,
                                     draw_rows, seed):
    """train() gives the per-step loop's weights, epoch logs and snapshots
    bit for bit, whether a block holds one batch (draw_rows 1), ends in a
    partial block (20 rows: 2-5 batches per block) or is longer than the
    epoch (10,000 rows)."""
    config = TrainConfig(loss=LossSpec(kind=kind, margin=0.3),
                         strategy=strategy, grad_mode=grad_mode,
                         learning_rate=0.5, epochs=3,
                         classes_per_batch=classes_per_batch, embed_dim=3,
                         seed=seed, snapshot_every=2,
                         batches_per_epoch=batches_per_epoch)
    ds = small_dataset()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "_DRAW_ROWS", draw_rows)
        got, got_logs = train(ds, config)
    want, want_logs = reference_train(ds, config)
    assert got.weight.tobytes() == want.weight.tobytes()
    assert got_logs == want_logs


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

    @pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf"), True,
                                    "0.1"])
    def test_learning_rate_validation(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("dim", [1, MAX_EMBED_DIM + 1])
    def test_embed_dim_validation(self, dim):
        with pytest.raises(ValueError, match="embed_dim"):
            TrainConfig(embed_dim=dim)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, float("nan")])
    @pytest.mark.parametrize("name", ["epochs", "classes_per_batch",
                                      "embed_dim", "snapshot_every",
                                      "batches_per_epoch"])
    def test_sizes_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value, kind", [
        ("strategy", "HN", "MiningStrategy"),
        ("strategy", "hard", "MiningStrategy"),
        ("strategy", None, "MiningStrategy"),
        ("grad_mode", "Through", "GradMode"),
        ("grad_mode", None, "GradMode"),
    ])
    def test_settings_of_the_wrong_kind_rejected(self, name, value, kind):
        """A misspelt setting is refused, not trained as another one."""
        with pytest.raises(ValueError, match=kind):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("loss", ["sct", None, LossKind.SCT],
                             ids=["name", "none", "kind"])
    def test_loss_that_is_no_loss_spec_rejected(self, loss):
        with pytest.raises(ValueError, match="LossSpec"):
            TrainConfig(loss=loss)

    def test_setting_names_become_members(self):
        cfg = TrainConfig(strategy="shn", grad_mode="post")
        assert cfg.strategy is MiningStrategy.SEMI_HARD_NEGATIVE
        assert cfg.grad_mode is GradMode.POST_PROJECTION

    def test_too_few_classes_rejected(self):
        ds = small_dataset()
        cfg = TrainConfig(classes_per_batch=5, embed_dim=4,
                          learning_rate=0.1, epochs=1, seed=0)
        with pytest.raises(ValueError, match="fewer classes"):
            train(ds, cfg)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", 2.5, True,
                                      float("nan")])
    def test_seed_validation(self, seed):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("easy, drawn", [("ephn", "hn"),
                                             ("ep", "random")])
    def test_easy_positive_trains_as_drawn_positive(self, easy, drawn,
                                                    kind):
        """A training batch holds two members of each class, so every
        anchor has one positive: the easiest is the one a draw picks, and
        a draw over one value consumes nothing. So ephn trains bit for bit
        as hn, and ep as random."""
        ds = small_dataset()
        (a, logs_a), (b, logs_b) = (
            train(ds, TrainConfig(loss=LossSpec(kind=kind),
                                  strategy=MiningStrategy(strategy),
                                  **self.CFG))
            for strategy in (easy, drawn)
        )
        assert a.weight.tobytes() == b.weight.tobytes()
        assert logs_a == logs_b

    def test_scale_invariant_init_dimensions(self):
        params = init_params(input_dim=10, embed_dim=5, seed=0)
        assert params.weight.shape == (10, 5)
        # 1/sqrt(input_dim) scaling keeps entries modest
        assert np.std(params.weight) == pytest.approx(
            1 / np.sqrt(10), rel=0.3
        )
