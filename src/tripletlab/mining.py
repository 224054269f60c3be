"""Batch triplet mining on the similarity matrix.

A batch is a set of unit embeddings with class labels. Each strategy emits
one triplet per eligible anchor (an anchor is eligible when its class has a
second member; singleton-class anchors are skipped). Selection is a masked
argmax (or argmin) over label-masked rows of the batch similarity matrix,
so ties are always broken toward the lowest index. Random picks come from
the caller's seed: one uniform draw per eligible anchor and random role,
in anchor order, with the positive drawn before the negative under
``random``. Mining is a pure function of (batch, strategy, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .geometry import TripletCoord
from .losses import is_hard

__all__ = [
    "Batch",
    "MinedTriplet",
    "MiningStrategy",
    "NoNegativesError",
    "Triplets",
    "hard_fraction",
    "is_hard",
    "mine",
    "similarity_matrix",
]

# anchor rows per masked pass: temporaries stay _BLOCK_ROWS x n, so a
# large batch never holds a second n x n array next to its similarities
_BLOCK_ROWS = 256


class NoNegativesError(ValueError):
    """Raised when a batch has no second class to mine negatives from."""


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

    Iterating yields MinedTriplet rows of Python ints and floats, and
    triplets compare equal to any sequence of equal rows.
    """

    anchor: np.ndarray  # (k,) int64 rows
    positive: np.ndarray
    negative: np.ndarray
    s_ap: np.ndarray  # (k,) float64
    s_an: np.ndarray

    @classmethod
    def of(cls, rows: Iterable[MinedTriplet]) -> Triplets:
        """The arrays of a sequence of rows; a Triplets is returned as is."""
        if isinstance(rows, Triplets):
            return rows
        rows = list(rows)
        idx = np.array([r[:3] for r in rows], dtype=np.int64).reshape(-1, 3)
        coords = np.array([r.coord for r in rows], dtype=np.float64)
        return cls(*idx.T, *coords.reshape(-1, 2).T)

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
        if not isinstance(other, (Triplets, list, tuple)):
            return NotImplemented
        return list(self) == list(other)


def similarity_matrix(batch: Batch) -> np.ndarray:
    """Pairwise cosine matrix, clamped to [-1, 1]."""
    sims = batch.embeddings @ batch.embeddings.T
    return np.clip(sims, -1.0, 1.0, out=sims)


def _argmax_where(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Column of each row's largest value under mask (lowest on ties)."""
    return np.where(mask, values, -np.inf).argmax(axis=1)


def _nth(mask: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Column of each row's k-th (0-based) True entry."""
    return (np.cumsum(mask, axis=1) > k[:, None]).argmax(axis=1)


def mine(batch: Batch, strategy: MiningStrategy, seed: int) -> Triplets:
    """Select one triplet per eligible anchor.

    hn   : most similar different-class negative, random positive
    shn  : most similar negative still below the chosen positive's
           similarity; falls back to the least similar negative when no
           candidate qualifies
    ep   : most similar positive, random negative
    ephn : most similar positive and most similar negative (no draws)
    random: seeded-uniform positive and negative

    A draw whose range holds one value, such as the only positive of a
    two-per-class batch, would return 0: when no draw has a wider range,
    no generator is built and every pick is the same as drawn.
    Raises NoNegativesError when the batch holds a single class.
    """
    strategy = MiningStrategy(strategy)
    labels = batch.labels
    ordered = np.sort(labels)
    if ordered[0] == ordered[-1]:
        raise NoNegativesError("batch contains a single class; no negatives")
    sims = similarity_matrix(batch)
    # each item's class size: the span of its label in the sorted labels
    size = (np.searchsorted(ordered, labels, "right")
            - np.searchsorted(ordered, labels, "left"))
    anchors = np.flatnonzero(size > 1)  # singleton classes anchor nothing
    random_p = strategy not in (MiningStrategy.EASY_POSITIVE,
                                MiningStrategy.EASY_POSITIVE_HARD_NEGATIVE)
    random_n = strategy in (MiningStrategy.RANDOM,
                            MiningStrategy.EASY_POSITIVE)
    counts = (([size[anchors] - 1] if random_p else [])
              + ([len(batch) - size[anchors]] if random_n else []))
    # a row per anchor: the positive's draw, then the negative's
    counts = np.array(counts, np.int64).T
    draws = (np.random.default_rng(seed).integers(0, counts)
             if (counts > 1).any() else np.zeros_like(counts))
    positive = np.empty_like(anchors)
    negative = np.empty_like(anchors)
    for lo in range(0, anchors.size, _BLOCK_ROWS):
        part = slice(lo, lo + _BLOCK_ROWS)
        rows = anchors[part]
        row_sims = sims[rows]
        neg = labels[rows, None] != labels
        pos = ~neg
        pos[np.arange(rows.size), rows] = False
        if random_p:
            p = _nth(pos, draws[part, 0])
        else:
            p = _argmax_where(row_sims, pos)
        if random_n:
            n = _nth(neg, draws[part, -1])
        elif strategy == MiningStrategy.SEMI_HARD_NEGATIVE:
            s_ap = row_sims[np.arange(rows.size), p]
            feasible = neg & (row_sims < s_ap[:, None])
            n = np.where(feasible.any(axis=1),
                         _argmax_where(row_sims, feasible),
                         _argmax_where(-row_sims, neg))
        else:
            n = _argmax_where(row_sims, neg)
        positive[part], negative[part] = p, n
    return Triplets(anchors, positive, negative,
                    sims[anchors, positive], sims[anchors, negative])


def hard_fraction(triplets: Iterable[MinedTriplet]) -> float:
    """Fraction of triplets whose negative outranks the positive."""
    triplets = Triplets.of(triplets)
    if len(triplets) == 0:
        raise ValueError("hard_fraction of an empty triplet list")
    return int(np.count_nonzero(is_hard(triplets))) / len(triplets)
