import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletlab import synthdata
from tripletlab.geometry import DegenerateVectorError
from tripletlab.synthdata import (
    FLOAT_FMT,
    MAX_CELLS,
    DatasetConfig,
    DatasetParseError,
    generate,
    load,
    read_table,
    save,
    write_table,
)

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
        for spread in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                DatasetConfig(4, 4, 8, spread, 0)
        # refused before anything is allocated
        with pytest.raises(ValueError, match=str(MAX_CELLS)):
            DatasetConfig(4, 4, MAX_CELLS // 16 + 1, 0.5, 0)

    @pytest.mark.filterwarnings("error")  # no overflow RuntimeWarning
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
        patch.setattr(synthdata, "_BLOCK_ROWS", block_rows)
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
        patch.setattr(synthdata, "_BLOCK_ROWS", 7)
        write_table(path, ["label"] + [f"x{j}" for j in range(dim)],
                    [labels, *values.T])
    _, back_labels, back = read_table(path, labeled=True)
    assert back_labels.dtype == np.int64
    assert np.array_equal(back_labels, labels)
    assert np.array_equal(back.view(np.int64), values.view(np.int64))


@pytest.mark.parametrize("column", [
    np.array(["a"]), np.array([1 + 2j]), np.array([None], dtype=object),
])
def test_write_table_refuses_other_dtypes(tmp_path, column):
    with pytest.raises(TypeError, match="no CSV format"):
        write_table(tmp_path / "t.csv", ["c"], [column])
