"""Batch triplet mining on the similarity matrix.

A batch is a set of unit embeddings with class labels. Each strategy emits
one triplet per anchor. An item anchors when its class has a second member
and the batch holds another class, so a batch of one class, or of
singleton classes only, mines no triplet. Selection reads the batch
similarity matrix one block of rows at a time, and ties always go to
the lowest index. An easiest positive is the argmax over the anchor's
class members, gathered in ascending index order. A hardest negative is
a plain argmax over the block's own product after its same-class
columns are filled with -inf. Semi-hard negatives and random picks use
label masks. Random picks come from the caller's seed: one uniform
draw per anchor and random role, in anchor order, with the positive drawn
before the negative under ``random``. Mining is a pure function of
(batch, strategy, seed).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

from .geometry import TripletCoord, check_count

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
        if emb.ndim != 2 or labels.ndim != 1 or len(emb) != len(labels):
            raise ValueError("embeddings and labels must be parallel arrays")
        if labels.dtype.kind not in "iu":  # NaN never equals itself
            raise ValueError("batch labels must be int or uint ids")
        if emb.shape[0] < 2:
            raise ValueError("a batch needs at least 2 items")
        sq = np.einsum("ij,ij->i", emb, emb)  # overflows to inf, no warning
        if not (sq.min() >= (1 - 1e-6) ** 2 and sq.max() <= (1 + 1e-6) ** 2):
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


def _nth(mask: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Column of each row's k-th (0-based) True entry. The running count
    is int32, half the default's bytes: it never exceeds the row width."""
    return (mask.cumsum(axis=1, dtype=np.int32) > k[:, None]).argmax(axis=1)


@functools.lru_cache(maxsize=8)
def _class_table(key: bytes, dtype: np.dtype) -> tuple:
    """Read-only (order, first, size, anchors, undrawn, same) of the labels
    whose bytes are key: an item's class is order[first:first + size],
    ascending; undrawn is an anchor's first other member, and same the
    anchors' same-class mask, None past one block."""
    labels = np.frombuffer(key, dtype)
    order = labels.argsort(kind="stable")
    first = labels[order].searchsorted(labels, "left")
    size = labels[order].searchsorted(labels, "right") - first
    anchors = ((size > 1) & (size < len(labels))).nonzero()[0]
    undrawn = order[first[anchors] + (order[first[anchors]] == anchors)]
    same = (labels[anchors, None] == labels
            if len(labels) <= _BLOCK_ROWS else None)
    table = (order, first, size, anchors, undrawn, same)
    for array in filter(lambda a: a is not None, table):
        array.flags.writeable = False
    return table


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

    Picks and ties follow the module docstring. Mining reads only which
    items share a class: batches with the same label bytes share one
    cached class layout (_class_table).

    A draw whose range holds one value, such as the only positive of a
    two-per-class batch, would return 0: when no draw has a wider range,
    no generator is built and every pick is the same as drawn. The seed
    is checked either way: a negative or non-integer one is refused.
    """
    strategy = MiningStrategy(strategy)
    check_count("seed", seed, 0)
    labels = batch.labels
    order, first, size, anchors, undrawn, same_mask = _class_table(
        labels.tobytes(), labels.dtype)
    random_p = strategy not in (MiningStrategy.EASY_POSITIVE,
                                MiningStrategy.EASY_POSITIVE_HARD_NEGATIVE)
    random_n = strategy in (MiningStrategy.RANDOM,
                            MiningStrategy.EASY_POSITIVE)
    drawn = ((random_p and (size[anchors] > 2).any())
             or (random_n and (size[anchors] < len(batch) - 1).any()))
    if drawn:  # a row per anchor, a column per drawn role (positive first)
        counts = np.stack((size[anchors] - 1, len(batch) - size[anchors]), 1)
        draws = np.random.default_rng(seed).integers(
            0, counts[:, 1 - random_p:1 + random_n])
    positive, negative = np.empty_like(anchors), np.empty_like(anchors)
    s_ap, s_an = np.empty(anchors.shape), np.empty(anchors.shape)
    emb = batch.embeddings
    for lo, block in _row_blocks(emb, emb):
        block.clip(-1.0, 1.0, out=block)
        # the anchors among this block's rows
        part = slice(anchors.searchsorted(lo),
                     anchors.searchsorted(lo + len(block)))
        rows = anchors[part]
        # a block whose rows all anchor, as in every training batch, is
        # its own anchor rows: no copy
        row_sims = block if rows.size == len(block) else block[rows - lo]
        each = np.arange(rows.size)
        if strategy != MiningStrategy.EASY_POSITIVE_HARD_NEGATIVE:
            same = (labels[rows, None] == labels if same_mask is None
                    else same_mask[part])
        if random_p and drawn:
            pos = same.copy()
            pos[each, rows] = False
            p = _nth(pos, draws[part, 0])
        elif random_p:
            p = undrawn[part]
        else:
            # each anchor's class members, ascending, padded with the last
            span = np.arange(size[rows].max(initial=1))[:, None]
            members = order[(first[rows]
                             + np.minimum(span, size[rows] - 1)).T]
            row_sims[each, rows] = -np.inf  # not itself, nor as padding
            p = members[each, row_sims[each[:, None], members].argmax(axis=1)]
        s_ap[part] = row_sims[each, p]
        if random_n:
            n = _nth(~same, draws[part, -1]) if drawn else same.argmin(axis=1)
        elif strategy == MiningStrategy.SEMI_HARD_NEGATIVE:
            feasible = ~same & (row_sims < s_ap[part, None])
            n = np.where(feasible.any(axis=1),
                         np.where(feasible, row_sims, -np.inf).argmax(axis=1),
                         np.where(same, np.inf, row_sims).argmin(axis=1))
        else:  # row_sims is a fresh product: fill class columns in place
            if random_p:
                np.putmask(row_sims, same, -np.inf)
            else:
                row_sims[each[:, None], members] = -np.inf
            n = row_sims.argmax(axis=1)
        positive[part], negative[part] = p, n
        s_an[part] = row_sims[each, n]
        del block, row_sims  # one similarity block alive at a time
    return Triplets(anchors, positive, negative, s_ap, s_an)
