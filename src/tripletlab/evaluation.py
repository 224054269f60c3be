"""Retrieval metrics and whole-batch diagram extraction.

Recall@K counts a query as a hit when at least one of its top-K gallery
neighbors (by cosine, self excluded on request) shares the query label,
ties ranking the lower gallery index first. Nothing is sorted: a query
hits iff fewer than K items rank ahead of its best same-label item (the
masked argmax, lowest index on ties), "ahead" meaning a larger
similarity, or an equal one at a lower index.

Similarities are computed in blocks of 256 query rows and never as an
n x n matrix. Up to 256 points are one block, the same single product as
a whole-matrix one; more points may differ from it in the last bits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .mining import (Batch, MiningStrategy, NoNegativesError, Triplets,
                     _row_blocks, mine)


class RetrievalResult(NamedTuple):
    k: int
    recall: float
    num_queries: int


def recall_at_k(
    queries: Batch, gallery: Batch, k: int, exclude_self: bool = False
) -> RetrievalResult:
    """Fraction of queries with a same-label item in their top-k neighbors.

    With exclude_self the query and gallery sets must be the same points
    in the same order; entry i of the gallery is masked out for query i.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n_q = len(queries)
    n_g = len(gallery)
    if n_q == 0:
        raise ValueError("empty query set")
    if exclude_self:
        if n_q != n_g:
            raise ValueError(
                "exclude_self requires query and gallery sets of equal size"
            )
        if n_g <= k:
            raise ValueError("gallery size must exceed k when excluding self")
    hits = 0
    for lo, block in _row_blocks(queries.embeddings, gallery.embeddings):
        if exclude_self:  # query lo + r is gallery item lo + r
            np.fill_diagonal(block[:, lo:], -np.inf)
        same = queries.labels[lo:lo + len(block), None] == gallery.labels
        masked = np.where(same, block, -np.inf)  # the excluded self is -inf
        top = masked.argmax(axis=1)[:, None]
        best = np.take_along_axis(masked, top, axis=1)  # -inf: no match
        ahead = (block > best) | ((block == best) & (np.arange(n_g) < top))
        hits += int(np.count_nonzero(np.isfinite(best[:, 0])
                                     & (np.count_nonzero(ahead, axis=1) < k)))
    return RetrievalResult(k=k, recall=hits / n_q, num_queries=n_q)


def collapse_metric(batch: Batch) -> float:
    """Mean off-diagonal pairwise cosine; 1.0 means fully collapsed."""
    n = len(batch)
    total = 0.0
    for lo, block in _row_blocks(batch.embeddings, batch.embeddings):
        np.clip(block, -1.0, 1.0, out=block)
        total += block.sum() - np.trace(block, offset=lo)
    return float(total / (n * (n - 1)))


def diagram_extract(batch: Batch) -> Triplets:
    """Easiest-positive / hardest-negative diagram point for every item.

    For each item: s_ap is the maximum same-class similarity (self
    excluded) and s_an the maximum different-class similarity. Items whose
    class has no second member, or with no different-class item at all,
    are skipped. These are the ephn miner's triplets, which draw nothing
    at random.
    """
    try:
        return mine(batch, MiningStrategy.EASY_POSITIVE_HARD_NEGATIVE, seed=0)
    except NoNegativesError:  # a single class: no item has a negative
        none = np.empty(0, dtype=np.int64)
        return Triplets(none, none, none, np.empty(0), np.empty(0))
