"""Batch triplet mining on the similarity matrix.

A batch is a set of unit embeddings with class labels. Each strategy emits
one triplet per anchor. An item anchors when its class has a second member
and the batch holds another class, so a batch of one class, or of
singleton classes only, mines no triplet. Selection is a masked argmax
(or argmin) over label-masked rows of the batch similarity matrix,
computed one block of rows at a time, so ties are always broken toward
the lowest index. Random picks come from the caller's seed: one uniform
draw per anchor and random role, in anchor order, with the positive drawn
before the negative under ``random``. Mining is a pure function of
(batch, strategy, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

from .geometry import TripletCoord

# query rows per similarity block: products and temporaries stay
# _BLOCK_ROWS x n and no n x n array is built. Up to _BLOCK_ROWS rows are
# one block, the same single product as a whole-matrix one; more rows may
# differ from a whole-matrix product in the last bits.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class Batch:
    """Unit embeddings with parallel class labels."""

    embeddings: np.ndarray  # (n, d), rows unit-norm
    labels: np.ndarray  # (n,)

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        labels = np.asarray(self.labels)
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "labels", labels)
        if emb.ndim != 2 or emb.shape[0] != labels.shape[0]:
            raise ValueError("embeddings and labels must be parallel arrays")
        if emb.shape[0] < 2:
            raise ValueError("a batch needs at least 2 items")
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.sqrt((emb * emb).sum(axis=1))
        if not (np.abs(norms - 1.0) <= 1e-6).all():  # NaN fails too
            raise ValueError("batch embeddings must be unit vectors")

    def __len__(self) -> int:
        return self.embeddings.shape[0]


class MiningStrategy(str, Enum):
    RANDOM = "random"
    HARD_NEGATIVE = "hn"
    SEMI_HARD_NEGATIVE = "shn"
    EASY_POSITIVE = "ep"
    EASY_POSITIVE_HARD_NEGATIVE = "ephn"


class MinedTriplet(NamedTuple):
    anchor: int
    positive: int
    negative: int
    coord: TripletCoord


@dataclass(frozen=True, eq=False)
class Triplets:
    """Mined triplets as a struct of arrays, one entry per triplet.

    Iterating yields MinedTriplet rows of Python ints and floats; two
    Triplets are equal when every column is (``np.array_equal``).
    """

    anchor: np.ndarray  # (k,) int64 rows
    positive: np.ndarray
    negative: np.ndarray
    s_ap: np.ndarray  # (k,) float64
    s_an: np.ndarray

    def remap(self, rows: np.ndarray) -> Triplets:
        """The same triplets with every index i replaced by rows[i]."""
        return Triplets(rows[self.anchor], rows[self.positive],
                        rows[self.negative], self.s_ap, self.s_an)

    def __len__(self) -> int:
        return self.anchor.shape[0]

    def __iter__(self) -> Iterator[MinedTriplet]:
        columns = (self.anchor, self.positive, self.negative, self.s_ap,
                   self.s_an)
        for a, p, n, s_ap, s_an in zip(*(c.tolist() for c in columns)):
            yield MinedTriplet(a, p, n, TripletCoord(s_ap, s_an))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Triplets):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(),
                       vars(other).values()))


def _row_blocks(queries: np.ndarray,
                gallery: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, queries[lo:lo + _BLOCK_ROWS] @ gallery.T) for each block."""
    for lo in range(0, queries.shape[0], _BLOCK_ROWS):
        yield lo, queries[lo:lo + _BLOCK_ROWS] @ gallery.T


def _argmax_where(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Column of each row's largest value under mask (lowest on ties)."""
    return np.where(mask, values, -np.inf).argmax(axis=1)


def _nth(mask: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Column of each row's k-th (0-based) True entry."""
    return (np.cumsum(mask, axis=1) > k[:, None]).argmax(axis=1)


def mine(batch: Batch, strategy: MiningStrategy, seed: int) -> Triplets:
    """Select one triplet per anchor: every item whose class has a second
    member, if the batch holds another class.

    hn   : most similar different-class negative, random positive
    shn  : most similar negative still below the chosen positive's
           similarity; falls back to the least similar negative when no
           candidate qualifies
    ep   : most similar positive, random negative
    ephn : most similar positive and most similar negative (no draws)
    random: seeded-uniform positive and negative

    A draw whose range holds one value, such as the only positive of a
    two-per-class batch, would return 0: when no draw has a wider range,
    no generator is built and every pick is the same as drawn. The seed
    is checked either way: a negative or non-integer one is refused.
    """
    strategy = MiningStrategy(strategy)
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("expected non-negative integer")
    labels = batch.labels
    ordered = np.sort(labels)
    # each item's class size: the span of its label in the sorted labels
    size = (np.searchsorted(ordered, labels, "right")
            - np.searchsorted(ordered, labels, "left"))
    # an anchor needs a positive and a negative
    anchors = np.flatnonzero((size > 1) & (size < len(batch)))
    random_p = strategy not in (MiningStrategy.EASY_POSITIVE,
                                MiningStrategy.EASY_POSITIVE_HARD_NEGATIVE)
    random_n = strategy in (MiningStrategy.RANDOM,
                            MiningStrategy.EASY_POSITIVE)
    counts = (([size[anchors] - 1] if random_p else [])
              + ([len(batch) - size[anchors]] if random_n else []))
    # a row per anchor: the positive's draw, then the negative's
    counts = np.array(counts, np.int64).T
    drawn = (counts > 1).any()
    draws = (np.random.default_rng(seed).integers(0, counts)
             if drawn else np.zeros_like(counts))
    positive = np.empty_like(anchors)
    negative = np.empty_like(anchors)
    s_ap = np.empty(anchors.shape)
    s_an = np.empty(anchors.shape)
    emb = batch.embeddings
    for lo, block in _row_blocks(emb, emb):
        np.clip(block, -1.0, 1.0, out=block)
        # the anchors among this block's rows
        part = slice(anchors.searchsorted(lo),
                     anchors.searchsorted(lo + len(block)))
        rows = anchors[part]
        # a block whose rows all anchor, as in every training batch, is
        # its own anchor rows: no copy
        row_sims = block if rows.size == len(block) else block[rows - lo]
        each = np.arange(rows.size)
        neg = labels[rows, None] != labels
        pos = ~neg
        pos[each, rows] = False
        if random_p:  # with nothing drawn, the first eligible column
            p = _nth(pos, draws[part, 0]) if drawn else pos.argmax(axis=1)
        else:
            p = _argmax_where(row_sims, pos)
        s_ap[part] = row_sims[each, p]
        if random_n:
            n = _nth(neg, draws[part, -1])
        elif strategy == MiningStrategy.SEMI_HARD_NEGATIVE:
            feasible = neg & (row_sims < s_ap[part, None])
            n = np.where(feasible.any(axis=1),
                         _argmax_where(row_sims, feasible),
                         _argmax_where(-row_sims, neg))
        else:
            n = _argmax_where(row_sims, neg)
        positive[part], negative[part] = p, n
        s_an[part] = row_sims[each, n]
    return Triplets(anchors, positive, negative, s_ap, s_an)

