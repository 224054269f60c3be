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
bit-deterministic given (dataset, config).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .evaluation import collapse_metric, recall_at_k
from .geometry import DegenerateVectorError
from .losses import LossSpec, batch_feature_grads, is_hard, loss_values
from .mining import Batch, MinedTriplet, MiningStrategy, Triplets, mine
from .synthdata import LabeledDataset

_SEED_MAX = 2**63 - 1
MAX_EMBED_DIM = 1024  # checked before the weights are allocated


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
        if not np.isfinite(w).all():
            raise ValueError("weight entries must be finite")

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
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.classes_per_batch < 2:
            raise ValueError("classes_per_batch must be >= 2")
        if not 2 <= self.embed_dim <= MAX_EMBED_DIM:
            raise ValueError(f"embed_dim must lie in [2, {MAX_EMBED_DIM}]")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if self.batches_per_epoch is not None and self.batches_per_epoch < 1:
            raise ValueError("batches_per_epoch must be >= 1")


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    hard_fraction: float
    recall_at_1: float
    collapse: float
    snapshot: Triplets | None = None


def embed(params: ModelParams, xs: np.ndarray) -> np.ndarray:
    """Embed rows of xs onto the unit sphere.

    A zero or non-finite norm raises DegenerateVectorError; the latter is
    where a run diverging under too large a learning rate first shows.
    """
    z = np.asarray(xs, dtype=np.float64) @ params.weight
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt((z * z).sum(axis=1, keepdims=True))
    if not np.isfinite(norms).all():
        raise DegenerateVectorError(
            "embedding norm is not finite: training diverged"
        )
    if (norms <= 1e-12).any():
        raise DegenerateVectorError("embedding collapsed to a zero vector")
    return z / norms


def init_params(input_dim: int, embed_dim: int, seed: int) -> ModelParams:
    """Seeded Gaussian init scaled by 1/sqrt(input_dim)."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((input_dim, embed_dim)) / np.sqrt(input_dim)
    return ModelParams(weight=w)


def backward(
    params: ModelParams,
    inputs: np.ndarray,
    triplets: Triplets | list[MinedTriplet],
    loss: LossSpec,
    grad_mode: GradMode,
) -> np.ndarray:
    """Gradient of the mean triplet loss with respect to the weights.

    Triplet indices refer to rows of inputs. Per-feature gradients from
    one batched loss evaluation are summed per row in triplet order
    (anchor, positive, negative, then the next triplet), optionally pushed
    through the normalization Jacobian, then chained through the linear map.
    """
    t = Triplets.of(triplets)
    if not t:
        return np.zeros_like(params.weight)
    xs = np.asarray(inputs, dtype=np.float64)
    z = xs @ params.weight
    z_norms = np.sqrt((z * z).sum(axis=1))
    feats = z / z_norms[:, None]
    grads = batch_feature_grads(
        feats[t.anchor], feats[t.positive], feats[t.negative], loss
    )
    rows = np.column_stack([t.anchor, t.positive, t.negative]).ravel()
    grad_feat = np.zeros_like(feats)
    np.add.at(grad_feat, rows, (1.0 / len(t))
              * np.stack(grads, axis=1).reshape(rows.size, -1))
    if grad_mode == GradMode.THROUGH_NORMALIZATION:
        radial = np.sum(grad_feat * feats, axis=1, keepdims=True)
        grad_z = (grad_feat - feats * radial) / z_norms[:, None]
    else:
        grad_z = grad_feat
    return xs.T @ grad_z


def _sample_batch(
    rng: np.random.Generator,
    members: dict[int, np.ndarray],
    classes_per_batch: int,
) -> np.ndarray:
    class_ids = np.asarray(sorted(members.keys()))
    chosen = rng.choice(class_ids, size=classes_per_batch, replace=False)
    pairs = [members[c][rng.choice(members[c].size, size=2, replace=False)]
             for c in chosen.tolist()]
    return np.concatenate(pairs)


def train(
    dataset: LabeledDataset, config: TrainConfig
) -> tuple[ModelParams, list[EpochLog]]:
    """Run SGD (momentum 0) and log per-epoch retrieval health.

    Returns the final weights along with the logs. Epoch metrics: mean
    triplet loss and hard fraction over everything mined that epoch;
    recall@1 (self excluded) and mean off-diagonal similarity over the
    full dataset embedding. Every snapshot_every epochs the log keeps the
    last batch's mined triplets with indices remapped to dataset rows.
    Raises DegenerateVectorError when training diverges.
    """
    classes = np.unique(dataset.labels)
    if classes.size < config.classes_per_batch:
        raise ValueError(
            "dataset has fewer classes than classes_per_batch"
        )
    members = {
        int(c): np.flatnonzero(dataset.labels == c) for c in classes
    }
    if any(m.size < 2 for m in members.values()):
        raise ValueError("every class needs at least 2 members for sampling")
    n = len(dataset)
    batches = config.batches_per_epoch or max(
        1, round(n / (2 * config.classes_per_batch))
    )
    rng = np.random.default_rng(config.seed)
    params = init_params(
        dataset.dim, config.embed_dim, seed=int(rng.integers(_SEED_MAX))
    )
    logs: list[EpochLog] = []
    for epoch in range(config.epochs):
        # two members of each drawn class: every item anchors a triplet
        losses, hard = [], []
        for _ in range(batches):
            idx = _sample_batch(rng, members, config.classes_per_batch)
            xs = dataset.points[idx]
            feats = embed(params, xs)
            batch = Batch(embeddings=feats, labels=dataset.labels[idx])
            mined = mine(
                batch, config.strategy, seed=int(rng.integers(_SEED_MAX))
            )
            losses.append(loss_values(mined, config.loss))
            hard.append(is_hard(mined))
            grad = backward(params, xs, mined, config.loss, config.grad_mode)
            params = ModelParams(
                weight=params.weight - config.learning_rate * grad
            )
        all_feats = embed(params, dataset.points)
        full = Batch(embeddings=all_feats, labels=dataset.labels)
        result = recall_at_k(full, full, k=1, exclude_self=True)
        logs.append(
            EpochLog(
                epoch=epoch,
                mean_loss=float(np.mean(np.concatenate(losses))),
                hard_fraction=float(np.mean(np.concatenate(hard))),
                recall_at_1=result.recall,
                collapse=collapse_metric(full),
                snapshot=(
                    mined.remap(idx)  # the last batch, in dataset rows
                    if epoch % config.snapshot_every == 0 else None
                ),
            )
        )
    return params, logs
