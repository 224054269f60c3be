"""Synthetic labeled clusters on the unit sphere.

Class centers are drawn uniformly on the sphere; members are the centers
plus isotropic Gaussian noise, re-projected onto the sphere. The noise
scale (intra_spread) tunes the intra-class variance relative to the fixed
inter-class geometry: small spreads give tight, easily separated classes,
large spreads the overlapping high-variance regime where hard triplets
dominate. Generation is a pure function of the config.

Datasets serialize to CSV (header ``label,x0,...,x{d-1}``, floats at 12
significant digits) through ``write_table``, the package's one CSV writer.
Its cells are written by the renderer that writes every SVG number,
``_render``: ``%.12g`` cells from digit tables, with ``"%.12g" %`` for
inf, nan, a decimal exponent beyond +-290 (subnormals included) and a
value whose 12-digit scaling lies within 1e-3 of a half; ``%d`` cells
(int, uint and bool columns) from digit tables alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._render import _blocks
from .geometry import DegenerateVectorError, unit_rows

FLOAT_FMT = "%.12g"
# classes x per_class x input_dim, checked before anything is allocated
MAX_CELLS = 2**24


class DatasetParseError(ValueError):
    """A dataset a command cannot use: a malformed file, whose message
    carries the 1-based line number, or a class too small to sample."""


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


def generate(config: DatasetConfig) -> LabeledDataset:
    """Draw a dataset from the config's seed.

    Centers are normalized standard-Gaussian draws (uniform on the
    sphere); each member is center + intra_spread * noise, normalized,
    where the Gaussian noise vector has expected norm ~1, so intra_spread
    is the noise magnitude relative to the unit class center (0.1 gives
    tight clusters, 2.0 noise twice as strong as the class signal).
    """
    rng = np.random.default_rng(config.seed)
    k, m, d = config.num_classes, config.per_class, config.input_dim
    centers, _ = unit_rows(rng.standard_normal((k, d)))
    noise = rng.standard_normal((k, m, d)) / np.sqrt(d)
    with np.errstate(over="ignore", invalid="ignore"):
        points = centers[:, None, :] + config.intra_spread * noise
    try:
        points, _ = unit_rows(points.reshape(-1, d))
    except DegenerateVectorError as exc:
        raise DegenerateVectorError(f"the spread overflows: {exc}") from exc
    labels = np.repeat(np.arange(k), m)
    return LabeledDataset(points=points, labels=labels)


def save(ds: LabeledDataset, path: str | Path) -> None:
    """Write the dataset as a deterministic CSV."""
    write_table(path, ["label"] + [f"x{i}" for i in range(ds.dim)],
                [ds.labels, *ds.points.T])


def write_table(path: str | Path, header: list[str], columns) -> None:
    """Write a header line, then one float, int or bool array per column;
    the columns are checked before the file is opened."""
    columns = [np.asarray(c) for c in columns]
    fmts = {"f": FLOAT_FMT, "i": "%d", "u": "%d", "b": "%d"}
    if not columns:
        raise ValueError("a table needs at least one column")
    if bad := [c.dtype for c in columns if c.dtype.kind not in fmts]:
        raise TypeError(f"no CSV format for dtype {bad[0]}")
    if any(c.ndim != 1 for c in columns):
        raise ValueError("every column must be 1-D")
    if len({len(c) for c in columns}) > 1:
        raise ValueError("every column must have the same length")
    template = ",".join(fmts[c.dtype.kind] for c in columns)
    with Path(path).open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(_blocks([template], columns))


def read_table(
    path: str | Path, labeled: bool = False
) -> tuple[list[str], np.ndarray | None, np.ndarray]:
    """Read a numeric CSV with a header line, reporting bad lines by number.

    Returns (header, labels, values). With labeled=True the first column
    holds int labels and values the remaining columns; otherwise labels
    is None and values holds every column. Non-finite values are rejected.
    """
    path = Path(path)
    try:
        with path.open("r", newline="") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"{path}: not UTF-8 text ({exc})") from exc
    if not rows:
        raise DatasetParseError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    if not body:
        raise DatasetParseError(f"{path}: no data rows")
    first = 1 if labeled else 0
    if any(len(row) != len(header) for row in body):
        _raise_first_bad_line(path, header, body, first)
    try:
        labels = (np.array([int(row[0]) for row in body], dtype=np.int64)
                  if labeled else None)
        # float() of every cell, labels included: int() text is float() text
        values = np.array(body, dtype=np.float64)[:, first:].copy()
    except (ValueError, OverflowError):
        _raise_first_bad_line(path, header, body, first)
        raise
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise DatasetParseError(
            f"{path}: line {int(np.argmax(bad)) + 2}: non-finite value"
        )
    return header, labels, values


def _raise_first_bad_line(path: Path, header: list[str],
                          body: list[list[str]], first: int) -> None:
    """Raise for the first row with a wrong width, a label that int()
    refuses or int64 cannot hold, or a cell that float() refuses, checking
    one row at a time."""
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise DatasetParseError(
                f"{path}: line {lineno}: expected {len(header)} columns, "
                f"got {len(row)}"
            )
        try:
            if first and not -2**63 <= int(row[0]) < 2**63:
                raise ValueError(f"label {row[0]} does not fit in int64")
            [float(x) for x in row[first:]]
        except ValueError as exc:
            raise DatasetParseError(
                f"{path}: line {lineno}: {exc}"
            ) from exc


def load(path: str | Path) -> LabeledDataset:
    """Read a dataset CSV of at least two rows, reporting malformed lines
    by number."""
    header, labels, points = read_table(path, labeled=True)
    if len(header) < 3 or header[0] != "label":
        raise DatasetParseError(
            f"{path}: line 1: expected header 'label,x0,...', got {header!r}"
        )
    if len(labels) < 2:
        raise DatasetParseError(f"{path}: a dataset needs at least 2 rows")
    return LabeledDataset(points=points, labels=labels)
