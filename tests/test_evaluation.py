import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletlab import mining
from tripletlab.evaluation import (
    collapse_metric,
    diagram_extract,
    recall_at_k,
)
from tripletlab.geometry import unit_rows
from tripletlab.losses import is_hard
from tripletlab.mining import Batch

from conftest import (EXACT_UNIT_ROWS, assert_peak_within_blocks,
                      random_unit)


def random_labeled_batch(rng, n, dim=6, classes=5):
    emb = np.stack([random_unit(rng, dim) for _ in range(n)])
    labels = rng.integers(0, classes, size=n)
    return Batch(embeddings=emb, labels=labels)


def brute_force_recall(queries, gallery, k, exclude_self):
    hits = 0
    sims = queries.embeddings @ gallery.embeddings.T
    for i in range(len(queries)):
        scored = [
            (-sims[i, j], j, gallery.labels[j])
            for j in range(len(gallery))
            if not (exclude_self and j == i)
        ]
        scored.sort()
        top = scored[:k]
        if any(lab == queries.labels[i] for _, _, lab in top):
            hits += 1
    return hits / len(queries)


class TestRecallAtK:
    def test_duplicated_gallery_perfect(self, rng):
        q = random_labeled_batch(rng, 10)
        res = recall_at_k(q, q, k=1, exclude_self=False)
        assert res.recall == 1.0
        assert res.num_queries == 10

    def test_recall_is_a_python_float(self, rng):
        q = random_labeled_batch(rng, 10)
        for exclude in (False, True):
            assert type(recall_at_k(q, q, 1, exclude).recall) is float

    def test_disjoint_labels_zero(self, rng):
        q = random_labeled_batch(rng, 8)
        gallery = Batch(
            embeddings=q.embeddings, labels=q.labels + 100
        )
        for k in (1, 2, 4):
            assert recall_at_k(q, gallery, k=k).recall == 0.0

    def test_matches_brute_force(self, rng):
        q = random_labeled_batch(rng, 100, dim=5, classes=7)
        for k in (1, 2, 4, 8):
            for exclude in (False, True):
                got = recall_at_k(q, q, k=k, exclude_self=exclude)
                assert got.recall == brute_force_recall(q, q, k, exclude)

    def test_monotone_in_k(self, rng):
        q = random_labeled_batch(rng, 40)
        values = [
            recall_at_k(q, q, k=k, exclude_self=True).recall
            for k in range(1, 9)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_self_never_counts_when_excluded(self):
        """Adversarial gallery: each query is its own only same-label
        match, so recall must be exactly zero with exclusion on."""
        emb = np.eye(6)
        batch = Batch(embeddings=emb, labels=np.arange(6))
        assert recall_at_k(batch, batch, k=2, exclude_self=True).recall == 0.0
        assert recall_at_k(batch, batch, k=1, exclude_self=False).recall == 1.0

    def test_tie_breaks_to_lowest_gallery_index(self):
        # queries equally similar to gallery 1 and 2; only index 1 matches
        q = Batch(
            embeddings=np.array([[1.0, 0.0], [1.0, 0.0]]), labels=[7, 7]
        )
        g = Batch(
            embeddings=np.array([[0.0, 1.0], [0.6, 0.8], [0.6, 0.8]]),
            labels=[0, 7, 0],
        )
        assert recall_at_k(q, g, k=1).recall == 1.0

    def test_tie_with_a_lower_index_negative_ranks_it_first(self):
        # the negative at index 1 ties the only match at index 2
        q = Batch(
            embeddings=np.array([[1.0, 0.0], [1.0, 0.0]]), labels=[7, 7]
        )
        g = Batch(
            embeddings=np.array([[0.0, 1.0], [0.6, 0.8], [0.6, 0.8]]),
            labels=[0, 0, 7],
        )
        assert recall_at_k(q, g, k=1).recall == 0.0
        assert recall_at_k(q, g, k=2).recall == 1.0

    def test_tie_in_a_later_row_of_a_later_block(self, monkeypatch):
        """Blocks of 2 rows: query 3, row 1 of the second block, ties its
        only match with a lower-index negative; queries 0-2 hit at k=1."""
        monkeypatch.setattr(mining, "_BLOCK_ROWS", 2)
        q = Batch(embeddings=np.array([[0.0, 1.0]] * 3 + [[1.0, 0.0]]),
                  labels=[0, 0, 0, 7])
        g = Batch(
            embeddings=np.array([[0.0, 1.0], [0.6, 0.8], [0.6, 0.8]]),
            labels=[0, 0, 7],
        )
        for k, expected in ((1, 0.75), (2, 1.0)):
            assert recall_at_k(q, g, k=k).recall == expected
            assert brute_force_recall(q, g, k, False) == expected

    def test_label_absent_from_gallery_never_hits(self):
        # query 1's label 5 is not in the gallery; query 0 hits at k=1
        q = Batch(
            embeddings=np.array([[1.0, 0.0], [1.0, 0.0]]), labels=[7, 5]
        )
        g = Batch(embeddings=np.array([[1.0, 0.0], [0.0, 1.0]]),
                  labels=[7, 0])
        for k in (1, 2, 3):  # k = 3 is past the gallery size
            assert recall_at_k(q, g, k=k).recall == 0.5

    def test_peak_memory_is_one_similarity_block(self):
        """4,096 points: the traced peak of one call stays within 1.5
        blocks (12 MiB for 256 x 4,096 float64): no n-wide masked copy,
        and no second block alive while the next product is built."""
        assert_peak_within_blocks(
            lambda b: recall_at_k(b, b, 10, exclude_self=True), 1.5)

    def test_validation(self, rng):
        q = random_labeled_batch(rng, 4)
        for k in (0, 1.5, 2.0, True, float("nan")):
            with pytest.raises(ValueError, match="k must be an integer"):
                recall_at_k(q, q, k=k)
        with pytest.raises(ValueError):
            recall_at_k(q, q, k=4, exclude_self=True)

    def test_exclude_self_needs_equal_sizes(self, rng):
        q = random_labeled_batch(rng, 4)
        g = random_labeled_batch(rng, 5)
        with pytest.raises(ValueError, match="equal size"):
            recall_at_k(q, g, k=1, exclude_self=True)


@st.composite
def retrieval_cases(draw, exact=False):
    """Queries and a gallery of 2-30 rows with small-integer components,
    so similarities tie exactly, and 1-6 labels each, so classes can be
    singletons. The gallery is the query set (self excluded or not) or a
    distinct set, whose labels may miss some of the queries'. k runs up
    to past the gallery size when self is not excluded. With exact, rows
    come from EXACT_UNIT_ROWS, whose products are exact."""
    dim = draw(st.integers(1, 3))
    vector = (st.sampled_from(EXACT_UNIT_ROWS) if exact else
              st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))

    def batch():
        n = draw(st.integers(2, 30))
        rows = np.array(draw(st.lists(vector.filter(any), min_size=n,
                                      max_size=n)), dtype=np.float64)
        labels = draw(st.lists(st.integers(0, draw(st.integers(0, 5))),
                               min_size=n, max_size=n))
        return Batch(rows / np.linalg.norm(rows, axis=1, keepdims=True),
                     labels)

    queries = batch()
    if draw(st.booleans()):
        gallery, exclude_self = batch(), False
    else:
        gallery, exclude_self = queries, draw(st.booleans())
    top_k = len(gallery) - 1 if exclude_self else len(gallery) + 2
    return queries, gallery, draw(st.integers(1, top_k)), exclude_self


def check_recall_against_brute_force(queries, gallery, k, exclude_self):
    got = recall_at_k(queries, gallery, k, exclude_self)
    assert got.recall == brute_force_recall(queries, gallery, k,
                                            exclude_self)
    assert got.num_queries == len(queries)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=retrieval_cases(), exact=retrieval_cases(exact=True))
def test_recall_matches_brute_force_with_ties(case, exact):
    """The exact case runs in blocks of 3 rows, where query lo + r
    is excluded at column lo + r of its block; its products are exact, so
    the blocks keep the whole-matrix product's bits."""
    check_recall_against_brute_force(*case)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mining, "_BLOCK_ROWS", 3)
        check_recall_against_brute_force(*exact)


class TestCollapseMetric:
    def test_identical_vectors(self):
        v = np.array([0.6, 0.8])
        batch = Batch(embeddings=np.stack([v, v, v]), labels=[0, 1, 2])
        assert collapse_metric(batch) == pytest.approx(1.0)
        assert collapse_metric(batch) <= 1.0  # unclipped: 1 + 2.2e-16

    def test_orthonormal_zero(self):
        batch = Batch(embeddings=np.eye(4), labels=[0, 1, 2, 3])
        assert collapse_metric(batch) == pytest.approx(0.0)

    def test_antipodal_pair(self):
        batch = Batch(
            embeddings=np.array([[1.0, 0.0], [-1.0, 0.0]]), labels=[0, 1]
        )
        assert collapse_metric(batch) == pytest.approx(-1.0)
        assert collapse_metric(batch) >= -1.0

    def test_near_identical_rows_stay_in_range(self, rng):
        """500 rows within 1e-9 of one direction: the embedding-sum mean
        rounds up to ~1e-15 past 1 in about half the draws."""
        for _ in range(20):
            rows, _ = unit_rows(rng.standard_normal(8)
                                + 1e-9 * rng.standard_normal((500, 8)))
            value = collapse_metric(Batch(embeddings=rows,
                                          labels=np.arange(500)))
            assert value == pytest.approx(1.0) and -1.0 <= value <= 1.0

    @pytest.mark.parametrize("n", [2, 3, 37, 255, 256])
    def test_matches_whole_matrix_formula(self, rng, n):
        """To 1e-15: the metric sums embeddings instead of similarities,
        so it does not round as the whole matrix does."""
        batch = random_labeled_batch(rng, n, dim=4)
        sims = np.clip(batch.embeddings @ batch.embeddings.T, -1.0, 1.0)
        expected = float((sims.sum() - np.trace(sims)) / (n * (n - 1)))
        assert abs(collapse_metric(batch) - expected) <= 1e-15


class TestDiagramExtract:
    def test_identical_pair_plus_orthogonal_negative(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        batch = Batch(embeddings=emb, labels=[0, 0, 1, 1])
        points = {t.anchor: t for t in diagram_extract(batch)}
        for i in (0, 1):
            assert points[i].coord.s_ap == pytest.approx(1.0)
            assert points[i].coord.s_an == pytest.approx(0.0)
            assert not is_hard(points[i].coord)

    def test_nearest_neighbor_wrong_class_is_hard(self):
        emb = np.array(
            [[1.0, 0.0], [np.cos(0.1), np.sin(0.1)], [-1.0, 0.0]]
        )
        batch = Batch(embeddings=emb, labels=[0, 1, 0])
        points = {t.anchor: t for t in diagram_extract(batch)}
        assert is_hard(points[0].coord)

    def test_peak_memory_is_one_similarity_block(self):
        """4,096 points: the traced peak of one call stays within 1.5
        blocks (12 MiB for 256 x 4,096 float64): no n-wide masked copy,
        and no second block alive while the next product is built."""
        assert_peak_within_blocks(diagram_extract, 1.5)

    def test_matches_double_loop_oracle(self, rng):
        batch = random_labeled_batch(rng, 40, classes=5)
        sims = batch.embeddings @ batch.embeddings.T
        extracted = {t.anchor: t for t in diagram_extract(batch)}
        for i in range(40):
            pos = [
                j for j in range(40)
                if j != i and batch.labels[j] == batch.labels[i]
            ]
            neg = [
                j for j in range(40) if batch.labels[j] != batch.labels[i]
            ]
            if not pos or not neg:
                assert i not in extracted
                continue
            t = extracted[i]
            assert t.coord.s_ap == pytest.approx(
                max(sims[i, j] for j in pos), abs=1e-12
            )
            assert t.coord.s_an == pytest.approx(
                max(sims[i, j] for j in neg), abs=1e-12
            )

    def test_singletons_skipped(self):
        batch = Batch(embeddings=np.eye(3), labels=[0, 0, 9])
        anchors = [t.anchor for t in diagram_extract(batch)]
        assert anchors == [0, 1]

    def test_coords_in_square(self, rng):
        for t in diagram_extract(random_labeled_batch(rng, 30)):
            assert -1.0 <= t.coord.s_ap <= 1.0
            assert -1.0 <= t.coord.s_an <= 1.0
