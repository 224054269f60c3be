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
(int, uint and bool columns) through the same ``%.12g`` tables below
10^12 in magnitude, by ``"%d" %`` above.

``read_table`` is the one CSV reader. A file whose body is plain numbers
(the bytes ``0-9 + - . e E ,`` and newlines only, as ``write_table``
writes them) under a header without quotes or carriage returns is parsed
in one ``np.loadtxt`` pass; any other file goes through ``csv.reader``,
with ``int()`` and ``float()`` per cell, which would give the same
arrays or the same error.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._render import _blocks
from .geometry import (DegenerateVectorError, check_amount, check_count,
                       unit_rows)

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
        check_count("num_classes", self.num_classes, 2)
        check_count("per_class", self.per_class, 2)
        check_count("input_dim", self.input_dim, 2)
        if self.num_classes * self.per_class * self.input_dim > MAX_CELLS:
            raise ValueError(
                f"classes x per_class x input_dim must be <= {MAX_CELLS}"
            )
        check_amount("intra_spread", self.intra_spread)
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class LabeledDataset:
    points: np.ndarray  # (n, input_dim), unit rows
    labels: np.ndarray  # (n,), int class ids

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.dtype.kind not in "iu":
            raise ValueError("labels must be a 1-D int or uint array")
        if (labels > np.iinfo(np.int64).max).any():  # uint64 would wrap
            raise ValueError("labels must fit int64")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels.astype(np.int64))
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
    the header and columns are checked before the file is opened."""
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
    if len(header) != len(columns):
        raise ValueError("the header must name every column, and no more")
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

    A plain numeric body is parsed in one pass (``_read_plain``); any other
    file by ``csv.reader``, ``int()`` and ``float()`` per cell, which would
    return the same arrays bit for bit. Either way values is C-contiguous.
    """
    path = Path(path)
    first = 1 if labeled else 0
    table = _read_plain(path.read_bytes(), first)
    header, labels, values = table or _read_csv(path, first)
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise DatasetParseError(
            f"{path}: line {int(np.argmax(bad)) + 2}: non-finite value"
        )
    return header, labels, values


# the bytes of a body write_table writes: on such text float() and
# loadtxt's float64 parse both call PyOS_string_to_double, and int() and
# loadtxt's int64 parse accept and refuse the same labels
_PLAIN = b"0123456789+-.eE,\n"


def _read_plain(raw: bytes, first: int):
    """(header, labels, values) parsed by np.loadtxt, or None where the
    csv path must decide: a body byte outside _PLAIN, a quote or carriage
    return in the header, no body, a blank line (loadtxt would skip it,
    csv reads an empty row), a line past csv's field size limit, a header
    that is not UTF-8 or too narrow, or a cell loadtxt refuses."""
    ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
    if not len(ends):
        return None
    # byte length of each line, the header first; 0 last after a final \n
    lines = np.diff(ends, prepend=-1, append=len(raw)) - 1
    head = raw[:ends[0]]
    if (not lines[1:].any() or not lines[1:-1].all()
            or lines.max() > csv.field_size_limit()
            or b'"' in head or b"\r" in head
            # every byte outside _PLAIN lies in the header
            or len(raw.translate(None, _PLAIN))
            != len(head.translate(None, _PLAIN))):
        return None
    try:
        header = next(csv.reader([head.decode("utf-8") + "\n"]))
    except UnicodeDecodeError:
        return None
    width = len(header) - first
    if width < 1:
        return None
    dtype = (np.dtype([("label", np.int64), ("x", np.float64, (width,))])
             if first else np.float64)
    body = io.BytesIO(raw)  # the bytes checked above, not a second read
    body.seek(ends[0] + 1)
    try:
        table = np.loadtxt(body, dtype, delimiter=",", comments=None,
                           ndmin=1 if first else 2)
    except ValueError:
        return None
    if first:  # the fields are strided: copy each into its own array
        return (header, np.ascontiguousarray(table["label"]),
                np.ascontiguousarray(table["x"]))
    return (header, None, table) if table.shape[1] == width else None


def _read_csv(path: Path, first: int):
    """(header, labels, values) from csv.reader, int() and float() per
    cell, raising for the first line with a wrong width, a label that
    int() refuses or int64 cannot hold, or a cell that float() refuses."""
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"{path}: not UTF-8 text ({exc})") from exc
    if not rows:
        raise DatasetParseError(f"{path}: empty file")
    header, body = rows[0], rows[1:]
    if not body:
        raise DatasetParseError(f"{path}: no data rows")
    labels, values = [], []
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise DatasetParseError(
                f"{path}: line {lineno}: expected {len(header)} columns, "
                f"got {len(row)}"
            )
        try:
            label = int(row[0]) if first else 0
            if not -2**63 <= label < 2**63:
                raise ValueError(f"label {row[0]} does not fit in int64")
            labels.append(label)
            values.append([float(x) for x in row[first:]])
        except ValueError as exc:
            raise DatasetParseError(
                f"{path}: line {lineno}: {exc}"
            ) from exc
    return (header, np.array(labels, np.int64) if first else None,
            np.array(values, np.float64))


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
