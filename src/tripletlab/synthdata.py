"""Synthetic labeled clusters on the unit sphere.

Class centers are drawn uniformly on the sphere; members are the centers
plus isotropic Gaussian noise, re-projected onto the sphere. The noise
scale (intra_spread) tunes the intra-class variance relative to the fixed
inter-class geometry: small spreads give tight, easily separated classes,
large spreads the overlapping high-variance regime where hard triplets
dominate. Generation is a pure function of the config.

Datasets serialize to CSV with header ``label,x0,...,x{d-1}`` and values
at 12 significant digits.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import DegenerateVectorError

FLOAT_FMT = "%.12g"
# classes x per_class x input_dim, checked before anything is allocated
MAX_CELLS = 2**24


class DatasetParseError(ValueError):
    """Malformed dataset file; message carries the 1-based line number."""


@dataclass(frozen=True)
class DatasetConfig:
    num_classes: int
    per_class: int
    input_dim: int
    intra_spread: float
    seed: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.per_class < 2:
            raise ValueError("per_class must be >= 2")
        if self.input_dim < 2:
            raise ValueError("input_dim must be >= 2")
        if self.num_classes * self.per_class * self.input_dim > MAX_CELLS:
            raise ValueError(
                f"classes x per_class x input_dim must be <= {MAX_CELLS}"
            )
        if not (np.isfinite(self.intra_spread) and self.intra_spread >= 0):
            raise ValueError("intra_spread must be finite and >= 0")


@dataclass(frozen=True)
class LabeledDataset:
    points: np.ndarray  # (n, input_dim), unit rows
    labels: np.ndarray  # (n,), int class ids

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        if points.ndim != 2 or points.shape[0] != labels.shape[0]:
            raise ValueError("points and labels must be parallel arrays")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def num_classes(self) -> int:
        return int(np.unique(self.labels).size)


def generate(config: DatasetConfig) -> LabeledDataset:
    """Draw a dataset from the config's seed.

    Centers are normalized standard-Gaussian draws (uniform on the
    sphere); each member is normalize(center + intra_spread * noise)
    where the Gaussian noise vector has expected norm ~1, so intra_spread
    is the noise magnitude relative to the unit class center (0.1 gives
    tight clusters, 2.0 noise twice as strong as the class signal).
    """
    rng = np.random.default_rng(config.seed)
    centers = rng.standard_normal((config.num_classes, config.input_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    noise = rng.standard_normal(
        (config.num_classes, config.per_class, config.input_dim)
    ) / np.sqrt(config.input_dim)
    points = centers[:, None, :] + config.intra_spread * noise
    points = points.reshape(-1, config.input_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(points, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise DegenerateVectorError(
            "a member's norm is not finite or is zero: the spread overflows"
        )
    points /= norms
    labels = np.repeat(np.arange(config.num_classes), config.per_class)
    return LabeledDataset(points=points, labels=labels)


def save(ds: LabeledDataset, path: str | Path) -> None:
    """Write the dataset as a deterministic CSV."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["label"] + [f"x{i}" for i in range(ds.dim)]
        )
        for label, row in zip(ds.labels, ds.points):
            writer.writerow([int(label)] + [FLOAT_FMT % x for x in row])


def read_table(
    path: str | Path, labeled: bool = False
) -> tuple[list[str], np.ndarray | None, np.ndarray]:
    """Read a numeric CSV with a header line, reporting bad lines by number.

    Returns (header, labels, values). With labeled=True the first column
    holds int labels and values the remaining columns; otherwise labels
    is None and values holds every column. Non-finite values are rejected.
    """
    path = Path(path)
    with path.open("r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DatasetParseError(f"{path}: empty file")
    header = rows[0]
    first = 1 if labeled else 0
    labels = []
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DatasetParseError(
                f"{path}: line {lineno}: expected {len(header)} columns, "
                f"got {len(row)}"
            )
        try:
            if labeled:
                labels.append(int(row[0]))
            values.append([float(x) for x in row[first:]])
        except ValueError as exc:
            raise DatasetParseError(
                f"{path}: line {lineno}: {exc}"
            ) from exc
    if not values:
        raise DatasetParseError(f"{path}: no data rows")
    values = np.asarray(values)
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise DatasetParseError(
            f"{path}: line {int(np.argmax(bad)) + 2}: non-finite value"
        )
    return header, np.asarray(labels) if labeled else None, values


def load(path: str | Path) -> LabeledDataset:
    """Read a dataset CSV, reporting malformed lines by number."""
    header, labels, points = read_table(path, labeled=True)
    if len(header) < 3 or header[0] != "label":
        raise DatasetParseError(
            f"{path}: line 1: expected header 'label,x0,...', got {header!r}"
        )
    return LabeledDataset(points=points, labels=labels)
