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
from .geometry import DegenerateVectorError, TripletFeatures, normalize
from .losses import LossSpec, feature_grads, is_hard, loss_value
from .mining import Batch, MinedTriplet, MiningStrategy, mine
from .synthdata import LabeledDataset

_SEED_MAX = 2**63 - 1


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
        if not np.all(np.isfinite(w)):
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
        if self.embed_dim < 2:
            raise ValueError("embed_dim must be >= 2")
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
    snapshot: list[MinedTriplet] | None = None


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Embed one input: normalize(W^T x)."""
    return normalize(params.weight.T @ np.asarray(x, dtype=np.float64))


def embed(params: ModelParams, xs: np.ndarray) -> np.ndarray:
    """Embed rows of xs onto the unit sphere."""
    z = np.asarray(xs, dtype=np.float64) @ params.weight
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    if np.any(norms <= 1e-12):
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
    triplets: list[MinedTriplet],
    loss: LossSpec,
    grad_mode: GradMode,
) -> np.ndarray:
    """Gradient of the mean triplet loss with respect to the weights.

    Triplet indices refer to rows of inputs. Per-feature gradients from
    the loss are accumulated per row, optionally pushed through the
    normalization Jacobian, then chained through the linear map.
    """
    if not triplets:
        return np.zeros_like(params.weight)
    xs = np.asarray(inputs, dtype=np.float64)
    z = xs @ params.weight
    z_norms = np.linalg.norm(z, axis=1)
    feats = z / z_norms[:, None]
    grad_feat = np.zeros_like(feats)
    scale = 1.0 / len(triplets)
    for t in triplets:
        view = TripletFeatures(
            anchor=feats[t.anchor],
            positive=feats[t.positive],
            negative=feats[t.negative],
        )
        g = feature_grads(view, loss)
        grad_feat[t.anchor] += scale * g.g_a
        grad_feat[t.positive] += scale * g.g_p
        grad_feat[t.negative] += scale * g.g_n
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
    picks = []
    for c in chosen:
        picks.extend(rng.choice(members[int(c)], size=2, replace=False))
    return np.asarray(picks, dtype=np.int64)


def train(
    dataset: LabeledDataset, config: TrainConfig
) -> tuple[ModelParams, list[EpochLog]]:
    """Run SGD (momentum 0) and log per-epoch retrieval health.

    Returns the final weights along with the logs. Epoch metrics: mean
    triplet loss and hard fraction over everything mined that epoch;
    recall@1 (self excluded) and mean off-diagonal similarity over the
    full dataset embedding. Every snapshot_every epochs the log keeps the
    last batch's mined triplets with indices remapped to dataset rows.
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
        losses: list[float] = []
        hard = 0
        total = 0
        last_snapshot: list[MinedTriplet] | None = None
        for _ in range(batches):
            idx = _sample_batch(rng, members, config.classes_per_batch)
            xs = dataset.points[idx]
            feats = embed(params, xs)
            batch = Batch(embeddings=feats, labels=dataset.labels[idx])
            mined = mine(
                batch, config.strategy, seed=int(rng.integers(_SEED_MAX))
            )
            if not mined:
                continue
            losses.extend(loss_value(t.coord, config.loss) for t in mined)
            hard += sum(t.coord.s_an > t.coord.s_ap for t in mined)
            total += len(mined)
            grad = backward(params, xs, mined, config.loss, config.grad_mode)
            params = ModelParams(
                weight=params.weight - config.learning_rate * grad
            )
            last_snapshot = [
                MinedTriplet(
                    int(idx[t.anchor]),
                    int(idx[t.positive]),
                    int(idx[t.negative]),
                    t.coord,
                )
                for t in mined
            ]
        all_feats = embed(params, dataset.points)
        full = Batch(embeddings=all_feats, labels=dataset.labels)
        result = recall_at_k(full, full, k=1, exclude_self=True)
        logs.append(
            EpochLog(
                epoch=epoch,
                mean_loss=float(np.mean(losses)) if losses else 0.0,
                hard_fraction=hard / total if total else 0.0,
                recall_at_1=result.recall,
                collapse=collapse_metric(full),
                snapshot=(
                    last_snapshot if epoch % config.snapshot_every == 0 else None
                ),
            )
        )
    return params, logs
