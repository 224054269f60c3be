import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripletlab import _render
from tripletlab.geometry import DegenerateVectorError
from tripletlab.synthdata import (
    FLOAT_FMT,
    MAX_CELLS,
    DatasetConfig,
    DatasetParseError,
    LabeledDataset,
    generate,
    load,
    read_table,
    save,
    write_table,
)

from conftest import RETRIEVAL, traced_peak

CFG = DatasetConfig(
    num_classes=8, per_class=32, input_dim=16, intra_spread=2.0, seed=0
)


class TestGenerate:
    def test_zero_spread_points_equal_centers(self):
        cfg = DatasetConfig(
            num_classes=3, per_class=4, input_dim=5, intra_spread=0.0, seed=1
        )
        ds = generate(cfg)
        for c in range(3):
            members = ds.points[ds.labels == c]
            sims = members @ members.T
            assert np.allclose(sims, 1.0, atol=1e-12)
            assert np.allclose(members, members[0], atol=1e-12)

    def test_deterministic_in_seed(self):
        a = generate(CFG)
        b = generate(CFG)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)
        c = generate(
            DatasetConfig(
                num_classes=8, per_class=32, input_dim=16,
                intra_spread=2.0, seed=1,
            )
        )
        assert not np.array_equal(a.points, c.points)

    def test_unit_norms(self):
        ds = generate(CFG)
        assert np.allclose(np.linalg.norm(ds.points, axis=1), 1.0, atol=1e-9)

    def test_class_sizes_exact(self):
        ds = generate(CFG)
        _, counts = np.unique(ds.labels, return_counts=True)
        assert np.all(counts == 32)

    def test_high_spread_confuses_neighbors(self):
        """Nearest-neighbor confusion grows with intra_spread."""

        def confusion(spread):
            ds = generate(
                DatasetConfig(
                    num_classes=8, per_class=32, input_dim=16,
                    intra_spread=spread, seed=0,
                )
            )
            sims = ds.points @ ds.points.T
            np.fill_diagonal(sims, -np.inf)
            nearest = sims.argmax(axis=1)
            return float(np.mean(ds.labels[nearest] != ds.labels))

        assert confusion(2.0) > confusion(0.1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DatasetConfig(1, 4, 8, 0.5, 0)
        with pytest.raises(ValueError):
            DatasetConfig(4, 1, 8, 0.5, 0)
        for size in (2.5, 3.0, True, float("nan")):
            for sizes in ((size, 4, 8), (4, size, 8), (4, 4, size)):
                with pytest.raises(ValueError, match="must be an integer"):
                    DatasetConfig(*sizes, 0.5, 0)
        for spread in (-0.5, float("nan"), float("inf"), True, "0.5"):
            with pytest.raises(ValueError, match="intra_spread"):
                DatasetConfig(4, 4, 8, spread, 0)
        for seed in (-3, 1.5, "0", 2.5, True, float("nan")):
            with pytest.raises(ValueError, match="seed"):
                DatasetConfig(4, 4, 8, 0.5, seed)
        # refused before anything is allocated
        with pytest.raises(ValueError, match=str(MAX_CELLS)):
            DatasetConfig(4, 4, MAX_CELLS // 16 + 1, 0.5, 0)

    def test_overflowing_spread_refused(self):
        with pytest.raises(DegenerateVectorError, match="spread overflows"):
            generate(DatasetConfig(3, 3, 4, 1e308, 0))


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        ds = generate(CFG)
        path = tmp_path / "data.csv"
        save(ds, path)
        back = load(path)
        assert np.array_equal(back.labels, ds.labels)
        assert np.allclose(back.points, ds.points, atol=1e-12)

    def test_byte_identical_across_saves(self, tmp_path):
        ds = generate(CFG)
        save(ds, tmp_path / "a.csv")
        save(ds, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (
            tmp_path / "b.csv"
        ).read_bytes()

    def test_header_format(self, tmp_path):
        ds = generate(
            DatasetConfig(
                num_classes=2, per_class=2, input_dim=3,
                intra_spread=0.1, seed=0,
            )
        )
        save(ds, tmp_path / "d.csv")
        first = (tmp_path / "d.csv").read_text().splitlines()[0]
        assert first == "label,x0,x1,x2"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetParseError, match="empty"):
            load(path)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,x0,x1\n0,0.6,0.8\n1,1.0\n")
        with pytest.raises(DatasetParseError, match="line 3"):
            load(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,x0,x1\n0,0.6,what\n")
        with pytest.raises(DatasetParseError, match="line 2"):
            load(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"label,x0,x1\n0,0.6,0.8\n1,{cell},0.8\n")
        with pytest.raises(DatasetParseError, match="line 3: non-finite"):
            load(path)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_unlabeled_table_rejects_non_finite(self, tmp_path, cell):
        path = tmp_path / "w.csv"
        path.write_text(f"w0,w1\n0.5,0.25\n1.0,0.5\n0.1,{cell}\n")
        with pytest.raises(DatasetParseError, match="line 4: non-finite"):
            read_table(path)

    def test_unlabeled_table_values(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("w0,w1\n0.5,0.25\n1,-2\n")
        header, labels, values = read_table(path)
        assert header == ["w0", "w1"] and labels is None
        assert np.array_equal(values, [[0.5, 0.25], [1.0, -2.0]])

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,x0,x1\n0.5,0.6,0.8\n")
        with pytest.raises(DatasetParseError, match="line 2"):
            load(path)

    @pytest.mark.parametrize("label", ["99999999999999999999",
                                       str(2**63), str(-2**63 - 1)])
    def test_label_beyond_int64_rejected(self, tmp_path, label):
        path = tmp_path / "bad.csv"
        path.write_text(f"label,x0,x1\n0,0.6,0.8\n{label},0.8,0.6\n")
        with pytest.raises(DatasetParseError,
                           match=f"line 3: label {label} does not fit"):
            load(path)

    def test_int64_extreme_labels_accepted(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text(f"label,x0,x1\n{-2**63},0.6,0.8\n{2**63 - 1},0,1\n")
        assert load(path).labels.tolist() == [-2**63, 2**63 - 1]

    @pytest.mark.parametrize("labeled", [True, False])
    def test_non_utf8_file_rejected(self, tmp_path, labeled):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b,c\n0,0.6,0.8\n1,0.8,\xff6\n")
        with pytest.raises(DatasetParseError,
                           match=f"{path.name}: not UTF-8 text"):
            read_table(path, labeled=labeled)

    @pytest.mark.parametrize("labeled", [True, False])
    def test_non_utf8_message_gives_the_file_offset(self, tmp_path, labeled):
        """The offset of a byte that is not UTF-8 counts from the start of
        the file, not from the start of a decode chunk."""
        path = tmp_path / "late.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * 5004 + b"\xff\n")
        with pytest.raises(DatasetParseError,
                           match="decode byte 0xff in position 20020:"):
            read_table(path, labeled=labeled)

    def test_dataset_dim_and_classes(self):
        ds = generate(CFG)
        assert ds.dim == 16
        assert np.unique(ds.labels).size == 8
        assert len(ds) == 256


# floats whose 12-digit form is easy to get wrong: signed zeros, the
# infinities, nan, subnormals, the ends of the normal range, and values
# that round across a power of ten
SPECIAL_FLOATS = [
    -0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
    2.225073858507201e-308, 2.2250738585072014e-308, 1e308, -1e308,
    1.7976931348623157e308, 0.1, 1 / 3, 999999999999.5, 1e16, -1e-5,
]
SPECIAL_INTS = [0, -1, 1, 2**62, -(2**62), 10**12, -(10**12) - 1]


def _old_csv(header, columns) -> str:
    """The per-row formatter the CLI used before write_table: numpy
    scalars of each row, floats at FLOAT_FMT, everything else through str
    (bools were passed as ints)."""
    columns = [c.astype(np.int64) if c.dtype == bool else c for c in columns]
    return ",".join(header) + "\n" + "".join(
        ",".join(FLOAT_FMT % v if isinstance(v, float) else str(v)
                 for v in row) + "\n"
        for row in zip(*columns)
    )


def _column(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    """n values of a float64, int64 or bool column, about a fifth of them
    special."""
    if kind == "b":
        return rng.random(n) < 0.5
    if kind == "i":
        values = rng.integers(-(2**62), 2**62, n, endpoint=True)
        values[rng.random(n) < 0.3] //= 2**40  # small ints as well
        special = SPECIAL_INTS
    else:
        bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        values = np.where(rng.random(n) < 0.5, bits.view(np.float64),
                          rng.standard_normal(n) * 10.0 ** rng.integers(
                              -20, 20, n))
        special = SPECIAL_FLOATS
    where = rng.random(n) < 0.2
    values[where] = rng.choice(np.array(special, dtype=values.dtype),
                               where.sum())
    return values


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=st.integers(0, 3000), kinds=st.text("fib", min_size=1,
                                                 max_size=6),
       block_rows=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_write_table_matches_the_per_row_formatter(tmp_path_factory, rows,
                                                   kinds, block_rows, seed):
    """Float64 columns with signed zeros, infinities, nan, subnormals and
    +-1e308, int64 columns up to +-2^62 and bool columns, in blocks small
    enough that most tables span several and end on a short one."""
    rng = np.random.default_rng(seed)
    columns = [_column(rng, kind, rows) for kind in kinds]
    header = [f"{kind}{j}" for j, kind in enumerate(kinds)]
    path = tmp_path_factory.mktemp("table") / "t.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_render, "_BLOCK_ROWS", block_rows)
        write_table(path, header, columns)
    assert path.read_text() == _old_csv(header, columns)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(rows=st.integers(1, 300), dim=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_write_table_reads_back_bit_for_bit(tmp_path_factory, rows, dim,
                                            seed):
    """Finite values that 12 significant digits hold exactly, -0.0 and
    subnormals included, come back from read_table with the same bits."""
    rng = np.random.default_rng(seed)
    labels = _column(rng, "i", rows)
    values = np.column_stack([_column(rng, "f", rows) for _ in range(dim)])
    values[~np.isfinite(values)] = -0.0
    values = np.array([float(FLOAT_FMT % v) for v in values.ravel()]
                      ).reshape(rows, dim)
    path = tmp_path_factory.mktemp("table") / "t.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_render, "_BLOCK_ROWS", 7)
        write_table(path, ["label"] + [f"x{j}" for j in range(dim)],
                    [labels, *values.T])
    _, back_labels, back = read_table(path, labeled=True)
    assert back_labels.dtype == np.int64
    assert np.array_equal(back_labels, labels)
    assert np.array_equal(back.view(np.int64), values.view(np.int64))


def csv_read_table(path, labeled=False):
    """read_table's csv path as an oracle: csv.reader, then int() and
    float() per cell, row by row, with read_table's messages."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        reader = csv.reader(io.StringIO(raw.decode("utf-8"), newline=""))
        rows = list(reader)
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:
        raise DatasetParseError(
            f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise DatasetParseError(f"{path}: empty file")
    if not rows[0]:
        raise DatasetParseError(f"{path}: line 1: empty header")
    if len(rows) == 1:
        raise DatasetParseError(f"{path}: no data rows")
    header, first = rows[0], int(labeled)
    labels, values = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DatasetParseError(f"{path}: line {lineno}: expected "
                                    f"{len(header)} columns, got {len(row)}")
        try:
            if labeled:
                labels.append(int(row[0]))
                if not -2**63 <= labels[-1] < 2**63:
                    raise ValueError(f"label {row[0]} does not fit in int64")
            values.append([float(x) for x in row[first:]])
        except ValueError as exc:
            raise DatasetParseError(f"{path}: line {lineno}: {exc}") from exc
    for lineno, row in enumerate(values, start=2):
        if not np.isfinite(row).all():
            raise DatasetParseError(f"{path}: line {lineno}: non-finite value")
    return (header, np.array(labels, dtype=np.int64) if labeled else None,
            np.array(values, dtype=np.float64))


def _outcome(read, path, labeled):
    """(header, labels, values), or (exception type, message)."""
    try:
        return read(path, labeled=labeled)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def numeric_tables(draw):
    """A table's text: a label column of int() text, some with a sign,
    leading zeros or past int64, and floats written by %.12g, repr or
    %.17g, or with an exponent (inf and nan included)."""
    width = draw(st.integers(1, 4))
    fmt = draw(st.sampled_from(["%.12g", "%r", "%.17g", "%.6e", "%.3E"]))
    label = st.one_of(
        st.sampled_from(["+3", "0003", "-0", str(2**63 - 1), str(2**63),
                         str(-2**63)]),
        st.integers(-2**64, 2**64).map(str))
    row = st.tuples(label, st.lists(st.floats(), min_size=width,
                                    max_size=width))
    rows = draw(st.lists(row, min_size=1, max_size=6))
    return "".join([",".join(["label"] + [f"x{j}" for j in range(width)])
                    + "\n"] + [",".join([lab] + [fmt % v for v in vals])
                               + "\n" for lab, vals in rows])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=numeric_tables())
@example(text="label,x0\n1,0.5\n\n2,0.25\n")  # a blank line
@example(text="label,x0\n1,0.5\n\n")  # a trailing blank line
@example(text="label,x0\r\n1,0.5\r\n2,0.25\r\n")
@example(text="label,x0\n1,0.5\r2,0.25\n")  # a lone \r
@example(text="label,x0\r1,0.5\n2,0.25\n")  # a lone \r in the first line
@example(text="label,x0\n1,0.5\r\r\n2,0.25\n")
@example(text="label,x0\n1,0.5\r\n\r\n2,0.25\n")  # a blank \r\n line
@example(text='label,x0\n"1","0.5"\n2,0.25\n')  # quoted cells
@example(text='"label",x0\n1,0.5\n')  # a header with quotes
@example(text='"label,x0\n1\n')  # a quote that never closes
@example(text="label,x0\n 1 , 0.5 \n")  # padded cells
@example(text="label,x0\n1,0.5\n2,inf\n")
@example(text="label,x0\n1,nan\n")
@example(text="label,x0\n1,0.5\n2,1e400\n")  # plain text, not finite
@example(text="label,x0\n1,1_5\n")
@example(text="label,x0\n\u0661,0.5\n")  # an Arabic-Indic digit
@example(text="label,x0,x1\n1,,0.5\n")  # an empty cell
@example(text="label,x0\n1,0.5,0.25\n")  # a wrong width
@example(text="label,x0\n3.0,0.5\n")
@example(text="label,x0\n1,0.5\n2,0.25")  # no final newline
@example(text="")
@example(text="label,x0\n")  # no data rows
@example(text="label\n3\n")  # no value column
@example(text="\n1,2\n")  # an empty header
@example(text="\n\n\n")  # blank lines: an empty header and empty rows
@example(text="\n\n")
@example(text=b"label,x0\n1,0.5\n2,\xff\n")  # not UTF-8
@example(text=b"label,x\xff\n1,0.5\n")  # a header not UTF-8
@example(text="label,x0\n1," + "0" * 131073 + "\n")  # past the field limit
@example(text="label," + "x" * 131073 + "\n1,0.5\n")  # a header field too
@example(text='label,x0\n1,"' + "0\n" * 65537 + '"\n')  # a multiline field
@example(text=b"label,x0\n" + b"1,0.5\n" * 2000 + b"2,\xff\n")  # past 8 KiB
def test_read_table_matches_the_csv_oracle(tmp_path_factory, text):
    """Labeled and not, read_table returns the oracle's header and
    arrays bit for bit, with its dtypes and C-contiguous values, or raises
    its exception with its message: a plain numeric body parsed in one
    pass reads as the csv path would read it, and every other file goes
    through the csv path."""
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    for labeled in (True, False):
        want = _outcome(csv_read_table, path, labeled)
        got = _outcome(read_table, path, labeled)
        assert len(got) == len(want)
        if len(want) == 2:
            assert got == want
            continue
        assert got[0] == want[0]
        for array, expected in zip(got[1:], want[1:]):  # labels, values
            if expected is None:
                assert array is None
                continue
            assert array.dtype == expected.dtype
            assert array.shape == expected.shape
            assert array.flags.c_contiguous
            assert array.tobytes() == expected.tobytes()


def test_load_peak_memory(tmp_path):
    """One load of the 4,096-point retrieval data stays within 10 MiB
    traced: no list of str cells, only the file's bytes, the parsed table
    and the arrays copied out of it."""
    path = tmp_path / "data.csv"
    save(generate(RETRIEVAL), path)
    assert traced_peak(lambda: load(path)) <= 10 * 2**20


@pytest.mark.parametrize("column", [
    np.array(["a"]), np.array([1 + 2j]), np.array([None], dtype=object),
])
def test_write_table_refuses_other_dtypes(tmp_path, column):
    with pytest.raises(TypeError, match="no CSV format"):
        write_table(tmp_path / "t.csv", ["c"], [column])


@pytest.mark.parametrize("columns", [
    [],
    [np.ones((2, 2))],
    [np.array(1.0)],
    [np.array([1.0, 2.0, 3.0]), np.array([4.0])],
    [np.array([1, 2]), np.array([True, False, True])],
], ids=["none", "2-D", "0-D", "shorter second", "longer second"])
def test_write_table_refuses_bad_columns_before_opening(tmp_path, columns):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="column"):
        write_table(path, [f"c{j}" for j in range(len(columns))], columns)
    assert not path.exists()


@pytest.mark.parametrize("header", [["a"], ["a", "b", "c"], []])
def test_write_table_refuses_header_of_other_width_before_opening(tmp_path,
                                                                  header):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="header"):
        write_table(path, header, [np.array([1.0]), np.array([2.0])])
    assert not path.exists()


@pytest.mark.parametrize("labels", [
    np.array([[0], [1]]), np.array(0), None, np.array([0.5, 1.5]),
    np.array([0.0, 1.0]), np.array([True, False]), np.array(["0", "1"]),
    np.array([2**63, 0], dtype=np.uint64),
], ids=["2-D", "0-D", "none", "fractional", "float", "bool", "str",
        "above-int64"])
def test_labeled_dataset_refuses_labels_not_1d_integers(labels):
    with pytest.raises(ValueError, match="labels"):
        LabeledDataset(points=np.eye(2), labels=labels)


def test_labeled_dataset_takes_int_and_uint_labels_as_int64():
    for labels in ([3, 1], np.array([3, 1], dtype=np.uint8),
                   np.array([2**63 - 1, 1], dtype=np.uint64)):
        ds = LabeledDataset(points=np.eye(2), labels=labels)
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [int(labels[0]), 1]
