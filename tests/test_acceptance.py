"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s -v`` to see them).

Criterion 4's p = 0 clause is checked in its own test against the band
that the closed-form dynamics derive for gamma = 1 and against the
explicit-vector oracle (see that test's docstring).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import tripletlab as tl
from tripletlab.dynamics import StepParams, step, vector_field
from tripletlab.geometry import TripletCoord
from tripletlab.losses import (
    LossKind,
    LossSpec,
    coord_grads,
    hinge_argument,
    softmax_weight,
)
from tripletlab.mining import Batch, MiningStrategy, mine
from tripletlab.evaluation import recall_at_k
from tripletlab.trainer import (
    GradMode,
    ModelParams,
    TrainConfig,
    backward,
    embed,
    train,
)
from tripletlab.cli import main as cli_main

from conftest import random_unit, sphere_step_oracle, triplets_of
from test_evaluation import brute_force_recall
from test_losses import loss_at, point
from test_mining import brute_force_mine
from test_trainer import batch_loss


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    else:
        print(f"\nACCEPTANCE {label}: PASS")


def test_criterion_1_closed_form_oracle_equivalence():
    """10k random (s_ap, s_an, gamma, beta): closed forms match the
    explicit 3D vector oracle within 1e-9, in under 10 s."""
    with criterion("1 (closed-form dynamics equivalence)"):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        for _ in range(10_000):
            s_ap, s_an = rng.uniform(-1, 1, size=2)
            g = rng.uniform(-1, 1)
            beta = rng.uniform(0.0, 0.5)
            margin = rng.uniform(0.0, 1.0)
            coord = TripletCoord(s_ap, s_an)

            upd = step(
                coord,
                StepParams(
                    learning_rate=beta / softmax_weight(coord), gamma=g
                ),
            )
            oracle = sphere_step_oracle(s_ap, s_an, g, beta, "nca")
            got = (upd.s_ap_new, upd.s_an_new, upd.norm_a, upd.norm_p,
                   upd.norm_n, upd.d_sap, upd.d_san)
            assert np.allclose(got, oracle, atol=1e-9, rtol=0.0)

            upd = step(
                coord,
                StepParams(
                    learning_rate=beta / 2.0,
                    gamma=g,
                    loss=LossSpec(kind=LossKind.MARGIN, margin=margin),
                ),
            )
            oracle = sphere_step_oracle(s_ap, s_an, g, beta, "margin",
                                        margin)
            got = (upd.s_ap_new, upd.s_an_new, upd.norm_a, upd.norm_p,
                   upd.norm_n, upd.d_sap, upd.d_san)
            assert np.allclose(got, oracle, atol=1e-9, rtol=0.0)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_gradient_correctness():
    """coord_grads and through-normalization backward match central finite
    differences (step 1e-5, relative error <= 1e-4) away from branch
    boundaries, in under 30 s."""
    with criterion("2 (gradient correctness)"):
        start = time.monotonic()
        rng = np.random.default_rng(7)
        specs = [
            LossSpec(kind=LossKind.NCA),
            LossSpec(kind=LossKind.MARGIN, margin=0.3),
            LossSpec(kind=LossKind.SCT, lam=1.0),
        ]
        h = 1e-5
        checked = 0
        while checked < 1000:
            coord = TripletCoord(*rng.uniform(-0.999, 0.999, size=2))
            spec = specs[checked % 3]
            if abs(coord.s_an - coord.s_ap) < 1e-3:
                continue
            if abs(hinge_argument(coord, spec.margin)) < 1e-3:
                continue
            g = coord_grads(point(*coord), spec)
            fd_sap = (
                loss_at(coord.s_ap + h, coord.s_an, spec)
                - loss_at(coord.s_ap - h, coord.s_an, spec)
            ) / (2 * h)
            fd_san = (
                loss_at(coord.s_ap, coord.s_an + h, spec)
                - loss_at(coord.s_ap, coord.s_an - h, spec)
            ) / (2 * h)
            for got, want in ((g.d_sap[0], fd_sap), (g.d_san[0], fd_san)):
                assert abs(got - want) <= 1e-4 * max(abs(want), 1.0)
            checked += 1

        # parameter gradient on a 4x3 weight matrix, every entry
        configs = 0
        while configs < 25:
            spec = specs[configs % 3]
            weight = rng.standard_normal((4, 3))
            xs = np.stack([random_unit(rng, 4) for _ in range(6)])
            params = ModelParams(weight=weight)
            z = xs @ weight
            feats = z / np.linalg.norm(z, axis=1, keepdims=True)
            triplets = []
            for a, p, n in ((0, 1, 2), (2, 3, 4), (4, 5, 0), (1, 0, 5)):
                c = TripletCoord(
                    float(feats[a] @ feats[p]), float(feats[a] @ feats[n])
                )
                if abs(c.s_an - c.s_ap) < 1e-2:
                    break
                if abs(hinge_argument(c, spec.margin)) < 1e-2:
                    break
                triplets.append(tl.MinedTriplet(a, p, n, c))
            else:
                triplets = triplets_of(triplets)
                grad = backward(xs, *embed(params, xs), triplets, spec,
                                GradMode.THROUGH_NORMALIZATION)
                for i in range(4):
                    for j in range(3):
                        bumped = weight.copy()
                        bumped[i, j] += h
                        up = batch_loss(bumped, xs, triplets, spec)
                        bumped[i, j] -= 2 * h
                        down = batch_loss(bumped, xs, triplets, spec)
                        fd = (up - down) / (2 * h)
                        assert abs(grad[i, j] - fd) <= 1e-4 * max(
                            abs(fd), 1.0
                        )
                configs += 1
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_fixed_point_and_zero_step():
    """(1,1) has zero deltas for all gamma, p, both losses; beta = 0 is the
    identity update; both to 1e-12."""
    with criterion("3 (fixed point and zero step)"):
        corner = TripletCoord(1.0, 1.0)
        for g in np.linspace(-1, 1, 9):
            for p in (0.0, 0.5, 1.0):
                upd = step(
                    corner,
                    StepParams(learning_rate=0.2, gamma=float(g),
                               entanglement_p=p),
                )
                assert abs(upd.d_sap_total) <= 1e-12
                assert abs(upd.d_san_total) <= 1e-12
                for margin in (0.0, 0.2):
                    upd = step(
                        corner,
                        StepParams(
                            learning_rate=0.2,
                            gamma=float(g),
                            entanglement_p=p,
                            loss=LossSpec(kind=LossKind.MARGIN,
                                          margin=margin),
                        ),
                    )
                    assert abs(upd.d_sap_total) <= 1e-12
                    assert abs(upd.d_san_total) <= 1e-12

        rng = np.random.default_rng(0)
        for _ in range(50):
            coord = TripletCoord(*rng.uniform(-1, 1, 2))
            for loss in (LossSpec(kind=LossKind.NCA),
                         LossSpec(kind=LossKind.MARGIN, margin=0.5)):
                params = StepParams(learning_rate=0.0, gamma=1.0, loss=loss)
                upd = step(coord, params)
                assert abs(upd.d_sap) <= 1e-12
                assert abs(upd.d_san) <= 1e-12
                assert abs(upd.s_ap_new - coord.s_ap) <= 1e-12
                assert abs(upd.s_an_new - coord.s_an) <= 1e-12


def _field(kind: LossKind, p: float, margin: float = 0.2):
    return vector_field(
        41,
        StepParams(
            learning_rate=0.05,
            gamma=1.0,
            entanglement_p=p,
            loss=LossSpec(kind=kind, margin=margin),
        ),
    )


def test_criterion_4_field_structure():
    """Fig-2-style structure at gamma = 1: (a) the anchor-positive delta is
    suppressed at s_ap > 0.99 for p in {0, 0.5, 1}; (b) at p = 1 a nonempty
    hard-region cell set has d_san_total > 0. Margin fields behave the same
    way. (The p = 0 side of (b), where the hard region rises only on a
    derived band, is checked in the companion test below.)"""
    with criterion("4 (field structure)"):
        for kind in (LossKind.NCA, LossKind.MARGIN):
            for p in (0.0, 0.5, 1.0):
                # (a) concerns the raw anchor-positive delta: the part of
                # the gradient that re-projection wipes out near s_ap = 1
                field = _field(kind, p)
                edge = np.abs(field.d_sap[field.s_ap > 0.99])
                max_dsap = np.abs(field.d_sap).max()
                assert edge.size > 0
                assert edge.max() < 0.01 * max_dsap, (kind, p)
            field = _field(kind, 1.0)
            hard = field.s_an > field.s_ap
            assert np.any(field.d_san_total[hard] > 0), kind


def test_criterion_4_hard_region_empty_at_p0():
    """Criterion 4(b) at p = 0: without entanglement the hard negative is
    pushed away everywhere except on a derived band near the top of the
    diagram. To first order in the effective step beta, the co-planar
    (gamma = 1) anchor turns toward the negative by
    beta (sin theta_p - sin theta_n) while the negative turns away by
    beta sin theta_n, so s_an rises exactly when
    sqrt(1 - s_ap^2) > 2 sqrt(1 - s_an^2): the open band s_an < 1,
    s_an^2 > (3 + s_ap^2)/4 (an anchor rushing toward a distant positive
    sweeps past a very similar negative). A cell is rising when it is hard
    (s_an > s_ap) and d_san_total > 1e-12, criterion 3's zero. Checks:
    (1) d_san_total equals d_san exactly, so no coupling leaks in;
    (2) every hard cell of the band rises; (3) no hard cell with
    s_an^2 <= (3 + s_ap^2)/4 - beta rises, beta being the cell's effective
    step (lr * sigma for nca, 2 lr for margin), which leaves only an O(beta)
    edge to the finite step; (4) every rising cell's d_san matches the
    explicit-vector oracle within 1e-9 and the oracle's value is positive.
    """
    with criterion("4b (p=0 hard region rises only on the derived band)"):
        for kind in (LossKind.NCA, LossKind.MARGIN):
            field = _field(kind, 0.0)
            lr = field.params.learning_rate
            assert np.array_equal(field.d_san_total, field.d_san), kind
            hard = field.s_an > field.s_ap
            rising = hard & (field.d_san_total > 1e-12)
            boundary = (3.0 + field.s_ap**2) / 4.0
            band = hard & (field.s_an < 1.0) & (field.s_an**2 > boundary)
            if kind == LossKind.NCA:
                beta = lr * np.array([
                    softmax_weight(TripletCoord(ap, an))
                    for ap, an in zip(field.s_ap, field.s_an)
                ])
            else:
                beta = np.full(len(field), 2.0 * lr)
            below = hard & (field.s_an**2 <= boundary - beta)
            assert band.any() and below.any(), kind
            assert np.all(rising[band]), (
                f"{kind.value}: {np.sum(band & ~rising)} band cells do not rise"
            )
            assert not np.any(rising[below]), (
                f"{kind.value}: {np.sum(rising & below)} hard cells below the "
                f"band rise at p=0"
            )
            for i in np.flatnonzero(rising):
                want = sphere_step_oracle(
                    field.s_ap[i], field.s_an[i], field.params.gamma, beta[i],
                    kind.value, field.params.loss.margin,
                )[6]
                assert want > 0.0, (kind, field.s_ap[i], field.s_an[i])
                assert abs(field.d_san[i] - want) <= 1e-9, (
                    kind, field.s_ap[i], field.s_an[i]
                )


def test_criterion_5_collapse_vs_convergence():
    """Directional Fig-5 reproduction on the spread-2.0 dataset for seeds
    0-4: hard-negative NCA ends more collapsed than SCT, SCT ends with
    higher recall@1, and semi-hard mining avoids collapse; under 5 min."""
    with criterion("5 (collapse vs convergence)"):
        start = time.monotonic()
        ds = tl.generate(
            tl.DatasetConfig(
                num_classes=8, per_class=32, input_dim=16,
                intra_spread=2.0, seed=0,
            )
        )

        def final_log(spec, strategy, seed):
            cfg = TrainConfig(
                loss=spec,
                strategy=strategy,
                grad_mode=GradMode.THROUGH_NORMALIZATION,
                learning_rate=0.5,
                epochs=50,
                classes_per_batch=8,
                embed_dim=8,
                seed=seed,
                snapshot_every=1000,
                batches_per_epoch=96,
            )
            return train(ds, cfg)[1][-1]

        nca = LossSpec(kind=LossKind.NCA)
        sct = LossSpec(kind=LossKind.SCT, lam=1.0)
        for seed in range(5):
            hn = final_log(nca, MiningStrategy.HARD_NEGATIVE, seed)
            sc = final_log(sct, MiningStrategy.HARD_NEGATIVE, seed)
            shn = final_log(nca, MiningStrategy.SEMI_HARD_NEGATIVE, seed)
            print(f"\nseed {seed}: collapse NCA+HN {hn.collapse:.4f}, "
                  f"SCT+HN {sc.collapse:.4f}, NCA+SHN {shn.collapse:.4f}; "
                  f"recall@1 NCA+HN {hn.recall_at_1:.4f}, "
                  f"SCT+HN {sc.recall_at_1:.4f}", end="")
            assert hn.collapse > sc.collapse, (
                f"seed {seed}: HN collapse {hn.collapse:.4f} <= "
                f"SCT {sc.collapse:.4f}"
            )
            assert sc.recall_at_1 > hn.recall_at_1, (
                f"seed {seed}: SCT recall {sc.recall_at_1:.4f} <= "
                f"HN {hn.recall_at_1:.4f}"
            )
            assert shn.collapse < 0.9, (
                f"seed {seed}: SHN collapsed ({shn.collapse:.4f})"
            )
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_6_mining_and_recall_oracles():
    """All mining strategies and recall_at_k match exhaustive brute force
    exactly on 200 random batches of size <= 64."""
    with criterion("6 (mining/eval oracle equivalence)"):
        rng = np.random.default_rng(606)
        strategies = list(MiningStrategy)
        for trial in range(200):
            n = int(rng.integers(4, 65))
            dim = int(rng.integers(2, 7))
            emb = np.stack([random_unit(rng, dim) for _ in range(n)])
            labels = rng.integers(0, int(rng.integers(2, 7)), size=n)
            labels[0], labels[1] = 0, 1
            batch = Batch(embeddings=emb, labels=labels)
            seed = int(rng.integers(100_000))
            for strategy in strategies:
                got = [
                    (t.anchor, t.positive, t.negative)
                    for t in mine(batch, strategy, seed)
                ]
                assert got == brute_force_mine(batch, strategy, seed)
            for k in (1, 2, 4, 8):
                if k >= n:
                    continue
                for exclude in (False, True):
                    got = recall_at_k(batch, batch, k, exclude).recall
                    assert got == brute_force_recall(batch, batch, k,
                                                     exclude)


def test_criterion_7_cli_determinism(tmp_path, monkeypatch):
    """Every CLI command run twice with identical flags emits byte-identical
    artifacts."""
    with criterion("7 (CLI determinism)"):
        monkeypatch.setenv("TRIPLETLAB_OUT", str(tmp_path))
        data = str(tmp_path / "d.csv")
        commands = [
            ["gen-data", "--classes", "4", "--per-class", "4", "--dim", "8",
             "--spread", "1.0", "--seed", "3", "--out", "d.csv"],
            ["simulate", "--loss", "nca", "--p", "0.5", "--resolution",
             "15", "--out-prefix", "f"],
            ["simulate", "--loss", "margin", "--p", "1.0", "--resolution",
             "15", "--out-prefix", "fm"],
            ["trajectory", "--start-sap", "0.8", "--start-san", "0.95",
             "--p", "1.0", "--steps", "15", "--out-prefix", "t"],
            ["train", "--data", data, "--loss", "sct", "--miner", "hn",
             "--epochs", "3", "--classes-per-batch", "2", "--embed-dim",
             "4", "--seed", "1", "--out-prefix", "r"],
            ["diagram", "--data", data, "--weights",
             str(tmp_path / "r.weights.csv"), "--out-prefix", "g"],
        ]
        snapshots = {}
        for argv in commands:
            assert cli_main(argv) == 0, argv
        for path in sorted(tmp_path.iterdir()):
            snapshots[path.name] = path.read_bytes()
        for argv in commands:
            assert cli_main(argv) == 0, argv
        for path in sorted(tmp_path.iterdir()):
            assert path.read_bytes() == snapshots[path.name], path.name
        assert set(p.name for p in tmp_path.iterdir()) == set(snapshots)
