"""Deterministic toy training loop for triplet losses.

The model is a single linear map followed by projection onto the unit
sphere; the phenomena of interest are loss-geometry effects, so no extra
capacity is wanted and finite-difference oracles stay cheap. Batches
follow the two-per-class protocol: a batch draws classes_per_batch distinct
classes and two random members of each, and mining runs inside the batch.

Two gradient modes ship:

* post: the per-feature loss gradients are treated as gradients of the
  unnormalized embedding and chained through the linear map only, ignoring
  the sphere projection (the regime whose failure modes the diagram
  dynamics predict);
* through: the exact chain rule, inserting the normalization Jacobian
  (I - f f^T)/||z|| before the linear map.

Everything is driven by one seeded generator, so training is
bit-deterministic given (dataset, config). Batches are drawn up to
_DRAW_ROWS rows ahead of their steps, with the generator calls in per-step
order (classes, pairs, the batch's mining seed), so no bit depends on it.
Each batch is mined under labels 0, 0, 1, 1, ..., its own partition (rows
2c and 2c + 1 share a class), so the miner builds its class layout once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .evaluation import collapse_metric, recall_at_k
from .geometry import (DegenerateVectorError, TripletCoord, check_amount,
                       check_count, unit_rows)
from .losses import LossSpec, batch_feature_grads, is_hard, loss_values
from .mining import Batch, MiningStrategy, Triplets, mine
from .synthdata import DatasetParseError, LabeledDataset

_SEED_MAX = 2**63 - 1
_DRAW_ROWS = 1024  # batch rows drawn ahead of the steps that use them
MAX_EMBED_DIM = 1024  # checked before the weights are allocated
# each epoch keeps a log and evaluates the whole dataset, each batch its
# mined s_ap and s_an until the epoch ends: both checked before training starts
MAX_EPOCHS = 100_000
MAX_BATCHES_PER_EPOCH = 1_000_000


class GradMode(str, Enum):
    POST_PROJECTION = "post"
    THROUGH_NORMALIZATION = "through"


@dataclass(frozen=True)
class ModelParams:
    """Linear embedding weights, input_dim x embed_dim."""

    weight: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        object.__setattr__(self, "weight", w)
        if w.ndim != 2:
            raise ValueError("weight must be a 2D matrix")
        if not np.isfinite(w).all():  # an SGD update that overflowed
            raise DegenerateVectorError("weight entries must be finite")

    @property
    def input_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    loss: LossSpec = field(default_factory=LossSpec)
    strategy: MiningStrategy = MiningStrategy.HARD_NEGATIVE
    grad_mode: GradMode = GradMode.THROUGH_NORMALIZATION
    learning_rate: float = 0.5
    epochs: int = 50
    classes_per_batch: int = 8
    embed_dim: int = 8
    seed: int = 0
    snapshot_every: int = 10
    # batches per epoch; None sizes the epoch so that on average every
    # example is drawn once (n / (2 * classes_per_batch) batches)
    batches_per_epoch: int | None = None

    def __post_init__(self):
        if not isinstance(self.loss, LossSpec):
            raise ValueError("loss must be a LossSpec")
        object.__setattr__(self, "strategy", MiningStrategy(self.strategy))
        object.__setattr__(self, "grad_mode", GradMode(self.grad_mode))
        check_amount("learning_rate", self.learning_rate)
        check_count("epochs", self.epochs, 1, MAX_EPOCHS)
        check_count("classes_per_batch", self.classes_per_batch, 2)
        check_count("embed_dim", self.embed_dim, 2, MAX_EMBED_DIM)
        check_count("snapshot_every", self.snapshot_every, 1)
        check_count("seed", self.seed, 0)
        if self.batches_per_epoch is not None:
            check_count("batches_per_epoch", self.batches_per_epoch, 1,
                        MAX_BATCHES_PER_EPOCH)


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    hard_fraction: float
    recall_at_1: float
    collapse: float
    snapshot: Triplets | None = None


def embed(params: ModelParams, xs: np.ndarray) -> tuple[np.ndarray,
                                                     np.ndarray]:
    """Embed rows of xs onto the unit sphere: (features, norms), the norms
    of the unnormalized embeddings as an (n, 1) column.

    A zero or non-finite norm raises DegenerateVectorError; the latter is
    where a run diverging under too large a learning rate first shows.
    """
    return unit_rows(np.asarray(xs, dtype=np.float64) @ params.weight)


def init_params(input_dim: int, embed_dim: int, seed: int) -> ModelParams:
    """Seeded Gaussian init scaled by 1/sqrt(input_dim)."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((input_dim, embed_dim)) / np.sqrt(input_dim)
    return ModelParams(weight=w)


def backward(inputs: np.ndarray, feats: np.ndarray, norms: np.ndarray,
             triplets: Triplets, loss: LossSpec,
             grad_mode: GradMode) -> np.ndarray:
    """Gradient of the mean triplet loss with respect to the weights.

    feats, norms = embed(params, inputs) at the weights differentiated;
    triplet indices refer to rows of inputs. Per-feature gradients from
    one batched loss evaluation at the triplets' own (s_ap, s_an) are
    summed per row, each entry from 0.0 in triplet order (anchor, positive,
    negative, then the next triplet) as np.add.at sums, optionally pushed
    through the normalization Jacobian, then chained through the linear map.
    """
    t = triplets
    xs = np.asarray(inputs, dtype=np.float64)
    n, d = feats.shape
    through = GradMode(grad_mode) == GradMode.THROUGH_NORMALIZATION
    if not t:
        return np.zeros((xs.shape[1], d))
    rows = np.array((t.anchor, t.positive, t.negative)).T
    grads = (1.0 / len(t)) * batch_feature_grads(t, feats[rows], loss)
    entries = rows[:, :, None] * d + np.arange(d)
    grad_feat = np.bincount(entries.ravel(), grads.ravel(),
                            minlength=n * d).reshape(n, d)
    if through:
        radial = (grad_feat * feats).sum(axis=1, keepdims=True)
        grad_z = (grad_feat - feats * radial) / norms
    else:
        grad_z = grad_feat
    return xs.T @ grad_z


def _sample_batch(rng: np.random.Generator, rows: np.ndarray,
                  start: np.ndarray, bounds: np.ndarray, k: int,
                  count: int) -> tuple[np.ndarray, list[int]]:
    """count batches, each two rows of each of k distinct classes, as a
    (count, 2k) array, and the mining seed drawn after each batch. Class c
    has rows[start[c]:][:n] and bounds[c] = (n-1, n, 2): one integers call
    per batch draws what rng.choice(n, 2, replace=False) would, Floyd's
    d0 < n-1, d1 < n (n-1 if d1 == d0), then d2 < 2 (0 swaps the pair)."""
    chosen, d, seeds = [], [], []
    for _ in range(count):
        chosen.append(rng.choice(len(bounds), size=k, replace=False))
        d.append(rng.integers(0, bounds[chosen[-1]]))
        seeds.append(int(rng.integers(_SEED_MAX)))
    chosen, d = np.array(chosen), np.array(d)
    np.copyto(d[..., 1], bounds[chosen, 0], where=d[..., 1] == d[..., 0])
    pair = np.where(d[..., 2:], d[..., :2], d[..., 1::-1])
    return rows[start[chosen][..., None] + pair].reshape(count, -1), seeds


def train(
    dataset: LabeledDataset, config: TrainConfig
) -> tuple[ModelParams, list[EpochLog]]:
    """Run SGD (momentum 0) and log per-epoch retrieval health.

    Returns the final weights along with the logs. Epoch metrics: mean
    triplet loss and hard fraction, computed once from the coordinates of
    everything mined that epoch (elementwise, so the per-batch values);
    recall@1 (self excluded) and mean off-diagonal similarity over the
    full dataset embedding. Every snapshot_every epochs the log keeps the
    last batch's mined triplets with indices remapped to dataset rows.
    Raises DatasetParseError when a class has one member, and
    DegenerateVectorError when training diverges (an embedding norm or an
    SGD update overflows) or an epoch's mean loss overflows.
    """
    rows = np.argsort(dataset.labels, kind="stable")
    _, start, size = np.unique(dataset.labels[rows], return_index=True,
                               return_counts=True)
    if size.size < config.classes_per_batch:
        raise ValueError("dataset has fewer classes than classes_per_batch")
    if (size < 2).any():
        raise DatasetParseError(
            "every class needs at least 2 members for sampling"
        )
    bounds = np.stack((size - 1, size, np.full_like(size, 2)), axis=1)
    n, k = len(dataset), config.classes_per_batch
    batches = config.batches_per_epoch or max(1, round(n / (2 * k)))
    per_block = max(1, _DRAW_ROWS // (2 * k))
    layout = np.repeat(np.arange(k), 2)  # see the module docstring
    rng = np.random.default_rng(config.seed)
    params = init_params(
        dataset.dim, config.embed_dim, seed=int(rng.integers(_SEED_MAX))
    )
    logs: list[EpochLog] = []
    for epoch in range(config.epochs):
        # two members of each drawn class: every item anchors a triplet
        s_ap, s_an = [], []
        for first in range(0, batches, per_block):
            block, seeds = _sample_batch(rng, rows, start, bounds, k,
                                         min(per_block, batches - first))
            for idx, seed in zip(block, seeds):
                xs = dataset.points[idx]  # per step: input_dim may be large
                feats, norms = embed(params, xs)
                batch = Batch(embeddings=feats, labels=layout)
                mined = mine(batch, config.strategy, seed=seed)
                s_ap.append(mined.s_ap)
                s_an.append(mined.s_an)
                with np.errstate(over="ignore", invalid="ignore"):
                    grad = backward(xs, feats, norms, mined, config.loss,
                                    config.grad_mode)
                    weight = params.weight - config.learning_rate * grad
                params = ModelParams(weight=weight)
        all_feats, _ = embed(params, dataset.points)
        full = Batch(embeddings=all_feats, labels=dataset.labels)
        result = recall_at_k(full, full, k=1, exclude_self=True)
        coords = TripletCoord(np.concatenate(s_ap), np.concatenate(s_an))
        with np.errstate(over="ignore"):
            mean_loss = float(np.mean(loss_values(coords, config.loss)))
        if not np.isfinite(mean_loss):  # finite losses, an overflowing sum
            raise DegenerateVectorError("the epoch's mean loss overflows")
        logs.append(
            EpochLog(
                epoch=epoch,
                mean_loss=mean_loss,
                hard_fraction=float(np.mean(is_hard(coords))),
                recall_at_1=result.recall,
                collapse=collapse_metric(full),
                snapshot=(
                    mined.remap(idx)  # the last batch, in dataset rows
                    if epoch % config.snapshot_every == 0 else None
                ),
            )
        )
    return params, logs
