import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletlab import mining
from tripletlab.evaluation import diagram_extract
from tripletlab.geometry import TripletCoord
from tripletlab.losses import is_hard
from tripletlab.mining import (
    Batch,
    MinedTriplet,
    MiningStrategy,
    Triplets,
    mine,
)

from conftest import EXACT_UNIT_ROWS, random_unit


def random_batch(rng, n, dim=4, classes=3):
    emb = np.stack([random_unit(rng, dim) for _ in range(n)])
    labels = rng.integers(0, classes, size=n)
    # force at least two classes so mining is well-defined
    labels[0], labels[1] = 0, 1
    return Batch(embeddings=emb, labels=labels)


def clipped_sims(batch):
    """The whole similarity matrix, clamped to [-1, 1]."""
    return np.clip(batch.embeddings @ batch.embeddings.T, -1, 1)


def brute_force_mine(batch, strategy, seed):
    """Independent re-implementation via explicit loops and comparisons."""
    sims = np.clip(batch.embeddings @ batch.embeddings.T, -1, 1)
    rng = np.random.default_rng(seed)
    out = []
    for a in range(len(batch)):
        pos = [
            j
            for j in range(len(batch))
            if j != a and batch.labels[j] == batch.labels[a]
        ]
        neg = [
            j for j in range(len(batch)) if batch.labels[j] != batch.labels[a]
        ]
        if not pos or not neg:
            continue

        def best(indices, key, reverse):
            chosen = indices[0]
            for j in indices[1:]:
                if (key(j) > key(chosen)) if reverse else (key(j) < key(chosen)):
                    chosen = j
            return chosen

        if strategy == MiningStrategy.RANDOM:
            p = int(rng.choice(pos))
            n = int(rng.choice(neg))
        elif strategy == MiningStrategy.HARD_NEGATIVE:
            p = int(rng.choice(pos))
            n = best(neg, lambda j: sims[a, j], reverse=True)
        elif strategy == MiningStrategy.SEMI_HARD_NEGATIVE:
            p = int(rng.choice(pos))
            feasible = [j for j in neg if sims[a, j] < sims[a, p]]
            if feasible:
                n = best(feasible, lambda j: sims[a, j], reverse=True)
            else:
                n = best(neg, lambda j: sims[a, j], reverse=False)
        elif strategy == MiningStrategy.EASY_POSITIVE:
            p = best(pos, lambda j: sims[a, j], reverse=True)
            n = int(rng.choice(neg))
        else:
            p = best(pos, lambda j: sims[a, j], reverse=True)
            n = best(neg, lambda j: sims[a, j], reverse=True)
        out.append((a, p, n))
    return out


def brute_force_diagram(batch):
    """Easiest positive and hardest negative of every item, by double loop."""
    sims = np.clip(batch.embeddings @ batch.embeddings.T, -1, 1)
    out = []
    for i in range(len(batch)):
        p = n = None
        for j in range(len(batch)):
            if j == i:
                continue
            if batch.labels[j] == batch.labels[i]:
                if p is None or sims[i, j] > sims[i, p]:
                    p = j
            elif n is None or sims[i, j] > sims[i, n]:
                n = j
        if p is not None and n is not None:
            coord = TripletCoord(float(sims[i, p]), float(sims[i, n]))
            out.append(MinedTriplet(i, p, n, coord))
    return out


@st.composite
def tied_batches(draw, exact=False):
    """2-40 rows with 1-6 labels. Components are small integers, so rows
    repeat and distinct rows share similarities: ties are exact. With
    exact, rows come from EXACT_UNIT_ROWS, whose products are exact."""
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(2, 3))
    vector = (st.sampled_from(EXACT_UNIT_ROWS) if exact else
              st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
    rows = draw(st.lists(vector.filter(any), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, draw(st.integers(0, 5))),
                           min_size=n, max_size=n))
    emb = np.array(rows, dtype=np.float64)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return Batch(embeddings=emb, labels=labels)


class TestBatch:
    def test_nan_embedding_rejected(self):
        with pytest.raises(ValueError, match="unit vectors"):
            Batch(embeddings=[[np.nan, 0.0], [1.0, 0.0]], labels=[0, 1])

    def test_overflowing_row_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="unit vectors"):
                Batch(embeddings=[[1e200, 0.0], [0.0, 1.0]], labels=[0, 1])


def block_sims(batch):
    """The similarity rows of mining._row_blocks, stacked; each block must
    start where the previous one ended."""
    emb = batch.embeddings
    los, blocks = zip(*mining._row_blocks(emb, emb))
    assert list(los) == list(np.cumsum([0] + [len(b) for b in blocks[:-1]]))
    return np.vstack(blocks)


class TestSimilarityMatrix:
    def test_repeated_vector_all_ones(self):
        v = random_unit(np.random.default_rng(0), 3)
        batch = Batch(embeddings=np.stack([v, v, v]), labels=[0, 0, 1])
        assert np.allclose(block_sims(batch), 1.0)

    def test_orthonormal_identity(self):
        batch = Batch(embeddings=np.eye(4), labels=[0, 0, 1, 1])
        assert np.allclose(block_sims(batch), np.eye(4))

    def test_matches_double_loop(self, rng, monkeypatch):
        batch = random_batch(rng, 12)
        monkeypatch.setattr(mining, "_BLOCK_ROWS", 5)  # blocks of 5, 5, 2
        sims = block_sims(batch)
        for i in range(12):
            for j in range(12):
                expect = batch.embeddings[i] @ batch.embeddings[j]
                assert abs(sims[i, j] - expect) < 1e-12

    def test_symmetric_unit_diagonal(self, rng):
        sims = block_sims(random_batch(rng, 10))
        assert np.allclose(sims, sims.T, atol=1e-9)
        assert np.allclose(np.diag(sims), 1.0, atol=1e-9)


class TestMine:
    def test_hn_picks_known_negative(self):
        # hand-set embeddings: anchor 0's most similar negative is index 2
        emb = np.array(
            [
                [1.0, 0.0],
                [0.0, 1.0],
                [np.cos(0.3), np.sin(0.3)],
                [-1.0, 0.0],
            ]
        )
        batch = Batch(embeddings=emb, labels=[0, 0, 1, 1])
        triplets = mine(batch, MiningStrategy.HARD_NEGATIVE, seed=0)
        by_anchor = {t.anchor: t for t in triplets}
        assert by_anchor[0].negative == 2
        assert by_anchor[0].positive == 1

    def test_tie_breaks_to_lowest_index(self):
        # both negatives exactly equidistant from every anchor
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        batch = Batch(embeddings=emb, labels=[0, 0, 1, 1])
        for t in mine(batch, MiningStrategy.HARD_NEGATIVE, seed=3):
            if t.anchor in (0, 1):
                assert t.negative == 2

    def test_single_class_mines_nothing(self):
        batch = Batch(embeddings=np.eye(3), labels=[5, 5, 5])
        for strategy in MiningStrategy:
            assert len(mine(batch, strategy, seed=0)) == 0
        assert len(diagram_extract(batch)) == 0

    @pytest.mark.parametrize("seed", [-1, 1.5])
    @pytest.mark.parametrize("strategy", list(MiningStrategy))
    def test_bad_seed_refused_without_draws(self, strategy, seed):
        """A two-per-class batch draws no positive, and ephn draws
        nothing: the seed is refused all the same."""
        batch = Batch(embeddings=np.eye(4), labels=[0, 0, 1, 1])
        with pytest.raises(ValueError, match="expected non-negative integer"):
            mine(batch, strategy, seed)

    def test_singleton_class_anchor_skipped(self):
        batch = Batch(embeddings=np.eye(3), labels=[0, 0, 1])
        triplets = mine(batch, MiningStrategy.HARD_NEGATIVE, seed=0)
        assert sorted(t.anchor for t in triplets) == [0, 1]

    def test_deterministic_in_seed(self, rng):
        batch = random_batch(rng, 20)
        for strategy in MiningStrategy:
            a = mine(batch, strategy, seed=77)
            b = mine(batch, strategy, seed=77)
            assert a == b

    @pytest.mark.parametrize("strategy", list(MiningStrategy))
    def test_matches_exhaustive_oracle(self, strategy, rng):
        for trial in range(30):
            n = int(rng.integers(4, 32))
            batch = random_batch(rng, n, dim=3, classes=4)
            seed = int(rng.integers(10_000))
            got = [(t.anchor, t.positive, t.negative)
                   for t in mine(batch, strategy, seed)]
            assert got == brute_force_mine(batch, strategy, seed)

    @pytest.mark.parametrize("strategy", list(MiningStrategy))
    def test_label_constraints_hold(self, strategy, rng):
        batch = random_batch(rng, 24, classes=5)
        for t in mine(batch, strategy, seed=1):
            assert batch.labels[t.anchor] == batch.labels[t.positive]
            assert batch.labels[t.anchor] != batch.labels[t.negative]
            assert t.anchor != t.positive

    def test_hn_negative_is_argmax(self, rng):
        sims_batch = random_batch(rng, 30, classes=4)
        sims = clipped_sims(sims_batch)
        for t in mine(sims_batch, MiningStrategy.HARD_NEGATIVE, seed=5):
            neg_mask = sims_batch.labels != sims_batch.labels[t.anchor]
            assert not np.any(
                sims[t.anchor, neg_mask] > sims[t.anchor, t.negative]
            )

    def test_shn_feasibility_when_possible(self, rng):
        batch = random_batch(rng, 30, classes=4)
        sims = clipped_sims(batch)
        for t in mine(batch, MiningStrategy.SEMI_HARD_NEGATIVE, seed=5):
            neg_mask = batch.labels != batch.labels[t.anchor]
            any_feasible = np.any(
                sims[t.anchor, neg_mask] < sims[t.anchor, t.positive]
            )
            if any_feasible:
                assert sims[t.anchor, t.negative] < sims[t.anchor, t.positive]

    def test_coord_matches_matrix(self, rng):
        batch = random_batch(rng, 16)
        sims = clipped_sims(batch)
        for t in mine(batch, MiningStrategy.EASY_POSITIVE_HARD_NEGATIVE, 0):
            assert t.coord.s_ap == sims[t.anchor, t.positive]
            assert t.coord.s_an == sims[t.anchor, t.negative]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(batch=tied_batches(), exact=tied_batches(exact=True),
       seed=st.integers(0, 2**32 - 1))
def test_mining_and_diagram_match_brute_force_with_ties(batch, exact, seed):
    """Random batches with singleton classes and exact ties: every miner
    matches brute_force_mine, diagram_extract matches a double loop, and a
    single-class batch mines nothing. The exact batch runs in blocks
    of 3 rows, which split the anchors across blocks; its products
    are exact, so the blocks keep the whole-matrix product's bits."""
    check_mining_against_brute_force(batch, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mining, "_BLOCK_ROWS", 3)
        check_mining_against_brute_force(exact, seed)


@pytest.mark.parametrize("seed", range(8))
def test_blocks_of_anchors_and_of_mixed_rows_match_brute_force(seed):
    """In blocks of 4 rows, the first and last blocks hold only anchors
    (mined on the block itself) and the middle one a singleton-class row
    (mined on a copy of its anchor rows); every miner matches
    brute_force_mine and diagram_extract the double loop."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(len(EXACT_UNIT_ROWS), size=11)
    labels = [0, 0, 1, 1, 2, 0, 1, 3, 1, 2, 0]  # 3 is a singleton
    batch = Batch(embeddings=np.array(EXACT_UNIT_ROWS)[rows], labels=labels)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mining, "_BLOCK_ROWS", 4)
        check_mining_against_brute_force(batch, seed)


def check_mining_against_brute_force(batch, seed):
    if len(np.unique(batch.labels)) < 2:
        for strategy in MiningStrategy:
            assert len(mine(batch, strategy, seed)) == 0
        assert len(diagram_extract(batch)) == 0
        return
    for strategy in MiningStrategy:
        got = [(t.anchor, t.positive, t.negative)
               for t in mine(batch, strategy, seed)]
        assert got == brute_force_mine(batch, strategy, seed)
    assert list(diagram_extract(batch)) == brute_force_diagram(batch)


class TestHardPredicate:
    def test_definition(self):
        assert is_hard(TripletCoord(0.3, 0.7))
        assert not is_hard(TripletCoord(0.7, 0.3))

    def test_boundary_is_easy(self):
        assert not is_hard(TripletCoord(0.5, 0.5))


class TestHardFraction:
    """The trainer's hard fraction: the mean of is_hard over Triplets."""

    def _fraction(self, *coords):
        s_ap, s_an = np.array(coords).T
        idx = np.zeros(len(coords), dtype=np.int64)
        return np.mean(is_hard(Triplets(idx, idx + 1, idx + 2, s_ap, s_an)))

    def test_all_easy(self):
        assert self._fraction(*[(0.9, 0.1)] * 4) == 0.0

    def test_all_hard(self):
        assert self._fraction(*[(0.1, 0.9)] * 4) == 1.0

    def test_half_and_half(self):
        assert self._fraction((0.9, 0.1), (0.1, 0.9)) == 0.5


def _triplets(anchor, s_ap):
    anchor = np.array(anchor)
    return Triplets(anchor, anchor + 1, anchor + 2, np.array(s_ap),
                    np.zeros(len(s_ap)))


@pytest.mark.parametrize("left, right, equal", [
    pytest.param(([0], [np.nan]), ([0], [np.nan]), False,
                 id="nan coordinate"),
    pytest.param(([0], [-0.0]), ([0], [0.0]), True, id="signed zero"),
    pytest.param(([0, 1], [0.5, 1.0]), ([0.0, 1.0], [0.5, 1]), True,
                 id="int and float by value"),
    pytest.param(([0, 1], [0.5, 0.5]), ([0], [0.5]), False,
                 id="different lengths"),
])
def test_triplets_equal_column_by_column(left, right, equal):
    """Columns compare as arrays: by value, and NaN is never equal."""
    a, b = _triplets(*left), _triplets(*right)
    assert (a == b) is equal and (b == a) is equal
