import numpy as np
import pytest

from tripletlab.geometry import DegenerateVectorError
from tripletlab.synthdata import (
    MAX_CELLS,
    DatasetConfig,
    DatasetParseError,
    generate,
    load,
    read_table,
    save,
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

    def test_dataset_dim_and_classes(self):
        ds = generate(CFG)
        assert ds.dim == 16
        assert ds.num_classes() == 8
        assert len(ds) == 256
