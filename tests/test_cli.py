import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripletlab
from tripletlab.cli import main
from tripletlab.synthdata import _read_plain
from tripletlab.trainer import MAX_BATCHES_PER_EPOCH, MAX_EPOCHS


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("TRIPLETLAB_OUT", str(tmp_path))
    return tmp_path


def gen_args(out="data.csv", classes=4, per_class=4, dim=8, spread=0.5):
    return [
        "gen-data", "--classes", str(classes), "--per-class", str(per_class),
        "--dim", str(dim), "--spread", str(spread), "--seed", "0",
        "--out", out,
    ]


class TestGenData:
    def test_row_count(self, outdir):
        assert main(gen_args(classes=8, per_class=32, dim=16,
                             spread=2.0)) == 0
        lines = (outdir / "data.csv").read_text().splitlines()
        assert len(lines) == 257  # header + 256 rows
        assert lines[0] == "label," + ",".join(f"x{i}" for i in range(16))

    def test_deterministic_bytes(self, outdir):
        assert main(gen_args(out="a.csv")) == 0
        assert main(gen_args(out="b.csv")) == 0
        assert (outdir / "a.csv").read_bytes() == (outdir / "b.csv").read_bytes()

    def test_single_class_is_usage_error(self, outdir, capsys):
        assert main(gen_args(classes=1)) == 1

    def test_unknown_flag_is_usage_error(self, outdir):
        assert main(["gen-data", "--bogus", "3"]) == 1

    def test_manifest_written(self, outdir):
        main(gen_args())
        manifest = json.loads((outdir / "data.manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["outputs"] == {"dataset": "data.csv"}
        assert "data.csv" in manifest["checksums"]


class TestSimulate:
    def test_grid_rows(self, outdir):
        rc = main(["simulate", "--p", "0", "--resolution", "41",
                   "--out-prefix", "f"])
        assert rc == 0
        rows = (outdir / "f.field.csv").read_text().splitlines()
        assert rows[0] == "s_ap,s_an,d_sap,d_san,d_sap_total,d_san_total"
        assert len(rows) == 1 + 41 * 41

    def test_entangled_field_has_rising_hard_cells(self, outdir):
        main(["simulate", "--p", "1.0", "--gamma", "1.0",
              "--resolution", "21", "--out-prefix", "f"])
        data = np.genfromtxt(outdir / "f.field.csv", delimiter=",",
                             names=True)
        hard = data["s_an"] > data["s_ap"]
        assert np.any(data["d_san_total"][hard] > 0)

    def test_corner_row_is_fixed_point(self, outdir):
        main(["simulate", "--p", "0.5", "--resolution", "11",
              "--out-prefix", "f"])
        data = np.genfromtxt(outdir / "f.field.csv", delimiter=",",
                             names=True)
        corner = (data["s_ap"] == 1.0) & (data["s_an"] == 1.0)
        assert np.all(np.abs(data["d_sap_total"][corner]) < 1e-12)
        assert np.all(np.abs(data["d_san_total"][corner]) < 1e-12)

    def test_determinism(self, outdir):
        main(["simulate", "--resolution", "11", "--out-prefix", "x"])
        first = (outdir / "x.field.csv").read_bytes()
        main(["simulate", "--resolution", "11", "--out-prefix", "x"])
        assert (outdir / "x.field.csv").read_bytes() == first

    def test_bad_resolution_usage_error(self, outdir):
        assert main(["simulate", "--resolution", "1",
                     "--out-prefix", "f"]) == 1

    def test_sct_rejected(self, outdir):
        assert main(["simulate", "--loss", "sct", "--out-prefix", "f"]) == 1


class TestTrajectory:
    def test_row_count_and_svg(self, outdir):
        rc = main(["trajectory", "--start-sap", "0.8", "--start-san", "0.95",
                   "--p", "1.0", "--steps", "10", "--out-prefix", "t"])
        assert rc == 0
        rows = (outdir / "t.trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 11  # header + start + 10 steps
        assert (outdir / "t.trajectory.svg").exists()

    def test_bad_start_usage_error(self, outdir):
        assert main(["trajectory", "--start-sap", "2.0",
                     "--start-san", "0.0", "--out-prefix", "t"]) == 1


class TestTrain:
    def _gen(self, outdir):
        main(gen_args())
        return str(outdir / "data.csv")

    def train_args(self, data, extra=()):
        return [
            "train", "--data", data, "--epochs", "3",
            "--classes-per-batch", "2", "--embed-dim", "4",
            "--out-prefix", "run", *extra,
        ]

    def test_zero_lr_flat_recall(self, outdir):
        data = self._gen(outdir)
        assert main(self.train_args(data, ["--lr", "0"])) == 0
        records = json.loads((outdir / "run.epochs.json").read_text())
        assert len({r["recall_at_1"] for r in records}) == 1

    def test_identical_json_bytes(self, outdir):
        data = self._gen(outdir)
        main(self.train_args(data))
        first = (outdir / "run.epochs.json").read_bytes()
        main(self.train_args(data))
        assert (outdir / "run.epochs.json").read_bytes() == first

    def test_outputs_exist(self, outdir):
        data = self._gen(outdir)
        main(self.train_args(data, ["--loss", "sct", "--miner", "hn",
                                    "--snapshot-every", "2"]))
        for suffix in ("epochs.json", "epochs.csv", "weights.csv",
                       "curves.svg", "manifest.json", "snap0000.csv",
                       "snap0002.csv"):
            assert (outdir / f"run.{suffix}").exists(), suffix

    def test_missing_data_is_data_error(self, outdir):
        assert main(self.train_args(str(outdir / "nope.csv"))) == 2

    def test_bad_lr_usage_error(self, outdir):
        data = self._gen(outdir)
        assert main(self.train_args(data, ["--lr", "-1"])) == 1


class TestPairedTraining:
    def test_sct_beats_hard_negative_nca_via_cli(self, outdir):
        """Paired runs of the collapse-vs-convergence protocol through the
        real CLI (seed 0 here; seeds 0-4 run at the library level in the
        acceptance suite with identical configuration)."""
        main(["gen-data", "--classes", "8", "--per-class", "32", "--dim",
              "16", "--spread", "2.0", "--seed", "0", "--out", "big.csv"])
        common = [
            "train", "--data", str(outdir / "big.csv"), "--miner", "hn",
            "--grad-mode", "through", "--lr", "0.5", "--epochs", "50",
            "--classes-per-batch", "8", "--embed-dim", "8",
            "--batches-per-epoch", "96", "--seed", "0",
        ]
        assert main(common + ["--loss", "sct", "--lambda", "1.0",
                              "--out-prefix", "sct"]) == 0
        assert main(common + ["--loss", "nca", "--out-prefix", "hn"]) == 0
        sct = json.loads((outdir / "sct.epochs.json").read_text())[-1]
        hn = json.loads((outdir / "hn.epochs.json").read_text())[-1]
        assert sct["recall_at_1"] > hn["recall_at_1"]
        assert hn["collapse"] > sct["collapse"]


class TestDiagram:
    def test_all_points_in_one_location(self, outdir):
        rows = ["label,x0,x1"] + [f"{i % 2},0.6,0.8" for i in range(4)]
        (outdir / "same.csv").write_text("\n".join(rows) + "\n")
        assert main(["diagram", "--data", str(outdir / "same.csv"),
                     "--out-prefix", "same"]) == 0
        data = np.genfromtxt(outdir / "same.diagram.csv", delimiter=",",
                             names=True)
        assert np.allclose(data["s_ap"], 1.0, atol=1e-12)
        assert np.allclose(data["s_an"], 1.0, atol=1e-12)
        assert not np.any(data["hard"])  # boundary is easy by strictness

    def test_spread_zero_identity_embedding(self, outdir):
        main(gen_args(out="tight.csv", spread=0.0))
        rc = main(["diagram", "--data", str(outdir / "tight.csv"),
                   "--out-prefix", "d"])
        assert rc == 0
        data = np.genfromtxt(outdir / "d.diagram.csv", delimiter=",",
                             names=True)
        assert len(data) == 16  # no singleton classes, so no skips
        assert np.allclose(data["s_ap"], 1.0, atol=1e-9)
        assert np.all(data["s_an"] < 1.0)
        assert not np.any(data["hard"])

    def test_with_trained_weights(self, outdir):
        main(gen_args())
        main(["train", "--data", str(outdir / "data.csv"), "--epochs", "2",
              "--classes-per-batch", "2", "--embed-dim", "4",
              "--out-prefix", "run"])
        rc = main(["diagram", "--data", str(outdir / "data.csv"),
                   "--weights", str(outdir / "run.weights.csv"),
                   "--out-prefix", "dw"])
        assert rc == 0
        assert (outdir / "dw.diagram.svg").exists()

    def test_single_class_dataset_draws_no_points(self, outdir):
        rows = ["label,x0,x1", "0,0.6,0.8", "0,0.8,0.6", "0,0,1"]
        (outdir / "one.csv").write_text("\n".join(rows) + "\n")
        assert main(["diagram", "--data", str(outdir / "one.csv"),
                     "--out-prefix", "one"]) == 0
        assert (outdir / "one.diagram.csv").read_text() == (
            "anchor,positive,negative,s_ap,s_an,hard\n")
        svg = (outdir / "one.diagram.svg").read_text()
        assert "<svg" in svg and 'r="3"' not in svg

    def test_missing_weights_is_data_error(self, outdir):
        main(gen_args())
        assert main(["diagram", "--data", str(outdir / "data.csv"),
                     "--weights", str(outdir / "nope.csv"),
                     "--out-prefix", "d"]) == 2


class TestRerun:
    def test_roundtrip_checksums_ok(self, outdir):
        main(gen_args())
        main(["train", "--data", str(outdir / "data.csv"), "--epochs", "2",
              "--classes-per-batch", "2", "--embed-dim", "4",
              "--out-prefix", "run"])
        assert main(["rerun", str(outdir / "run.manifest.json")]) == 0

    def test_tampered_checksum_detected(self, outdir):
        main(gen_args())
        manifest_path = outdir / "data.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["checksums"]["data.csv"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        assert main(["rerun", str(manifest_path)]) == 2

    def test_emptied_checksums_diverge(self, outdir, capsys):
        main(gen_args())
        path = outdir / "data.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["checksums"] = {}
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(path)]) == 2
        out = capsys.readouterr().out
        assert "  data.csv: UNRECORDED\n" in out
        assert "rerun: 1 artifact(s) diverged" in out

    def test_checksum_of_unwritten_name_is_missing(self, outdir, capsys):
        """A recorded name the run does not write is reported, never
        opened: the rerun still exits 2 with a report, not a data error."""
        main(gen_args())
        path = outdir / "data.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["checksums"]["../x.csv"] = "0" * 64
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [
            "  ../x.csv: MISSING", "  data.csv: ok",
            "rerun: 1 artifact(s) diverged",
        ]

    def test_diverged_rerun_keeps_the_manifest(self, outdir, capsys):
        """A rerun that diverges puts back the manifest it checked, so a
        second rerun reports the same mismatch."""
        main(["simulate", "--resolution", "3", "--out-prefix", "fn"])
        path = outdir / "fn.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["checksums"]["fn.field.csv"] = "0" * 64
        path.write_text(json.dumps(manifest))
        tampered = path.read_bytes()
        for _ in range(2):
            capsys.readouterr()
            assert main(["rerun", str(path)]) == 2
            assert "  fn.field.csv: MISMATCH\n" in capsys.readouterr().out
            assert path.read_bytes() == tampered

    def test_missing_manifest_is_data_error(self, outdir):
        assert main(["rerun", str(outdir / "nope.json")]) == 2

    def test_config_keys_must_match_command(self, outdir, capsys):
        main(gen_args())
        good = json.loads((outdir / "data.manifest.json").read_text())
        extra = dict(good, config=dict(good["config"], bogus=1))
        missing = dict(good, config={k: v for k, v in good["config"].items()
                                     if k != "spread"})
        empty = {"command": "train", "config": {}, "checksums": {}}
        for i, manifest in enumerate([extra, missing, empty]):
            path = outdir / f"bad{i}.json"
            path.write_text(json.dumps(manifest))
            capsys.readouterr()
            assert main(["rerun", str(path)]) == 2
            assert "malformed manifest" in capsys.readouterr().err

    def test_out_of_range_value_is_malformed(self, outdir, capsys):
        """A value of the flag's type that the command refuses is the
        manifest's fault under rerun: exit 2, not a usage error."""
        main(["trajectory", "--start-sap", "0.1", "--start-san", "0.2",
              "--steps", "3", "--out-prefix", "t"])
        path = outdir / "t.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["start_sap"] = 1.5
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(path)]) == 2
        err = capsys.readouterr().err
        assert "malformed manifest" in err and "start" in err

    @pytest.mark.parametrize("key, value", [
        ("epochs", MAX_EPOCHS + 1),
        ("batches_per_epoch", MAX_BATCHES_PER_EPOCH + 1),
    ])
    def test_size_above_bound_is_malformed(self, outdir, capsys, key, value):
        main(gen_args())
        main(["train", "--data", str(outdir / "data.csv"), "--epochs", "1",
              "--classes-per-batch", "2", "--out-prefix", "run"])
        path = outdir / "run.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"][key] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(path)]) == 2
        err = capsys.readouterr().err
        assert "malformed manifest" in err and key in err


def test_dataset_is_read_as_utf8_whatever_the_locale(tmp_path):
    """Under the C locale with UTF-8 mode off, a UTF-8 dataset with a
    non-ASCII column name is read, and a byte that is not UTF-8 is still
    refused."""
    rows = "0,0.6,0.8\n0,0.8,0.6\n1,0,1\n1,1,0\n"
    (tmp_path / "utf8.csv").write_bytes(f"label,x0,x\u00e9\n{rows}".encode())
    (tmp_path / "ff.csv").write_bytes(b"label,x0,x\xff\n" + rows.encode())
    src = str(Path(tripletlab.__file__).parents[1])
    env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0", "TRIPLETLAB_OUT": str(tmp_path),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH",
                                                              "")])}
    codes = [subprocess.run([sys.executable, "-m", "tripletlab.cli",
                             "diagram", "--data", str(tmp_path / name),
                             "--out-prefix", "d"],
                            env=env, capture_output=True).returncode
             for name in ("utf8.csv", "ff.csv")]
    assert codes == [0, 2]


def _refusal(outdir, capsys, role, text):
    """The stderr lines of diagram --data, diagram --weights or train
    --data (by role) on a file of text, which must exit 2 and write no
    output file."""
    main(gen_args(dim=2))
    (outdir / "bad.csv").write_text(text)
    data, weights = str(outdir / "data.csv"), str(outdir / "bad.csv")
    if role != "weights":
        data, weights = weights, None
    argv = ["train" if role == "train" else "diagram", "--data", data,
            "--out-prefix", "d"]
    capsys.readouterr()
    assert main(argv + (["--weights", weights] if weights else [])) == 2
    assert not list(outdir.glob("d.*"))
    return capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("text", ["\n\n\n", "\n\n"], ids=["three", "two"])
@pytest.mark.parametrize("role", ["data", "weights", "train"])
def test_blank_lines_file_is_data_error(outdir, capsys, role, text):
    """A file of blank lines has an empty header: diagram --data,
    diagram --weights and train --data print one data error line naming
    line 1 and exit 2, with no traceback and no output file."""
    assert _refusal(outdir, capsys, role, text) == [
        f"tripletlab: data error: {outdir / 'bad.csv'}: line 1: empty header"]


@pytest.mark.parametrize("role", ["data", "weights", "train"])
def test_over_long_field_is_data_error(outdir, capsys, role):
    """A cell past csv's field size limit (131,072 characters) is a data
    error naming its line, with no traceback and no output file."""
    text = "w0,w1\n0," + "0" * 131073 + "\n"
    assert _refusal(outdir, capsys, role, text) == [
        f"tripletlab: data error: {outdir / 'bad.csv'}: line 2: field "
        "larger than field limit (131072)"]


def _rewrite_for_the_csv_reader(path):
    """The table at path with \\r\\n line ends, each body row's first
    cell quoted and the others padded with spaces: cells csv.reader,
    int() and float() read as the plain file's, and _read_plain does not."""
    head, *rows = path.read_text().splitlines()
    body = [f'"{first}",' + ",".join(f" {cell} " for cell in rest)
            for first, *rest in (row.split(",") for row in rows)]
    out = path.with_name(f"csv.{path.name}")
    out.write_bytes("\r\n".join([head, *body, ""]).encode())
    return out


def test_csv_path_files_give_the_plain_files_artifacts(outdir):
    """diagram, diagram --weights and train write the same bytes from a
    dataset and weights that only the csv path reads as from the plain
    files that are parsed in one pass."""
    main(gen_args())
    main(["train", "--data", str(outdir / "data.csv"), "--epochs", "2",
          "--classes-per-batch", "2", "--embed-dim", "4",
          "--out-prefix", "w"])
    files = {"p": (outdir / "data.csv", outdir / "w.weights.csv")}
    files["c"] = tuple(map(_rewrite_for_the_csv_reader, files["p"]))
    for side, (data, weights) in files.items():
        assert (_read_plain(data.read_bytes(), 1) is None) == (side == "c")
        assert (_read_plain(weights.read_bytes(), 0) is None) == (side == "c")
        runs = {"d": ["diagram", "--data", str(data)],
                "dw": ["diagram", "--data", str(data), "--weights",
                       str(weights)],
                "t": ["train", "--data", str(data), "--epochs", "2",
                      "--classes-per-batch", "2", "--embed-dim", "4"]}
        for run, argv in runs.items():
            assert main([*argv, "--out-prefix", f"{side}.{run}"]) == 0
    made = sorted(path.name[1:] for path in outdir.glob("p.*")
                  if not path.name.endswith(".manifest.json"))
    assert len(made) == 9  # each diagram's csv and svg, train's five
    for name in made:
        assert (outdir / f"c{name}").read_bytes() == (
            outdir / f"p{name}").read_bytes(), name


def test_huge_finite_field_draws_without_nan(outdir, capsys):
    """--p 1e308 gives finite deltas up to about 1e306: the run succeeds
    with no warning and no nan or inf token in any artifact."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--p", "1e308", "--out-prefix", "f"]) == 0
    assert capsys.readouterr().err == ""
    for path in outdir.iterdir():
        text = path.read_text()
        assert not re.search(r"\b(?:nan|inf)\b", text, re.I), path.name


def test_manifest_byte_identical_after_rerun(outdir):
    main(["simulate", "--resolution", "9", "--out-prefix", "s"])
    manifest = outdir / "s.manifest.json"
    before = manifest.read_bytes()
    assert main(["rerun", str(manifest)]) == 0
    assert manifest.read_bytes() == before


@pytest.mark.parametrize("argv, key", [
    pytest.param(gen_args(spread="0.123456789012345"), "spread",
                 id="gen-data spread"),
    pytest.param(["train", "--data", "{d}/data.csv", "--lr",
                  "0.12345678901234567", "--epochs", "2",
                  "--classes-per-batch", "2", "--embed-dim", "4",
                  "--out-prefix", "r"], "lr", id="train lr"),
])
def test_long_float_flag_recorded_exactly(outdir, capsys, argv, key):
    """A flag with more than 12 significant digits is stored as given, so
    its run reruns with every checksum ok."""
    assert main(gen_args()) == 0
    assert main([arg.format(d=outdir) for arg in argv]) == 0
    value = float(argv[argv.index(f"--{key}") + 1])
    manifest = outdir / f"{Path(argv[-1]).stem}.manifest.json"
    assert json.loads(manifest.read_text())["config"][key] == value
    capsys.readouterr()
    assert main(["rerun", str(manifest)]) == 0
    assert "rerun: all checksums match" in capsys.readouterr().out


def _train(data, *flags):
    return ["train", "--data", data, "--epochs", "2",
            "--classes-per-batch", "2", "--out-prefix", "r", *flags]


@pytest.mark.parametrize("argv, code", [
    pytest.param(gen_args(out="s.csv") + ["--seed", "-1"], 1,
                 id="gen-data seed -1"),
    pytest.param(_train("{d}/data.csv", "--seed", "-1"), 1,
                 id="train seed -1"),
    pytest.param(_train("{d}/data.csv", "--classes-per-batch", "8"), 1,
                 id="classes-per-batch above class count"),
    pytest.param(_train("{d}/data.csv", "--lr", "nan"), 1, id="lr nan"),
    pytest.param(_train("{d}/data.csv", "--lr", "1e200"), 3,
                 id="divergence"),
    pytest.param(_train("{d}/data.csv", "--loss", "margin", "--margin",
                        "1e308"), 3, id="mean loss overflow"),
    pytest.param(_train("{d}/data.csv", "--loss", "sct", "--lambda", "1e308",
                        "--lr", "10", "--grad-mode", "post"), 3,
                 id="update overflow"),
    pytest.param(_train("{d}/data.csv", "--loss", "sct", "--lambda",
                        "1.7976931348623157e308", "--lr", "1"), 3,
                 id="loss gradient overflow"),
    pytest.param(gen_args(out="n.csv", spread="nan"), 1, id="spread nan"),
    pytest.param(["simulate", "--gamma", "nan", "--out-prefix", "f"], 1,
                 id="gamma nan"),
    pytest.param(["simulate", "--p", "nan", "--out-prefix", "f"], 1,
                 id="p nan"),
    pytest.param(["simulate", "--p", "inf", "--out-prefix", "f"], 1,
                 id="p inf"),
    pytest.param(["simulate", "--beta-scale", "1e308", "--out-prefix", "f"],
                 3, id="field overflow"),
    pytest.param(["simulate", "--loss", "margin", "--beta-scale", "0.25",
                  "--out-prefix", "f"], 3, id="field zeroes a feature"),
    pytest.param(["trajectory", "--loss", "margin", "--beta-scale", "0.25",
                  "--start-sap", "-1", "--start-san", "-0.5", "--steps",
                  "5", "--out-prefix", "t"], 3,
                 id="trajectory zeroes a feature"),
    pytest.param(["trajectory", "--beta-scale", "1e308", "--start-sap", "0",
                  "--start-san", "0.5", "--steps", "5", "--out-prefix", "t"],
                 3, id="trajectory overflow"),
    # the one step lands on s_ap = -1, where the written delta is nan
    pytest.param(["trajectory", "--loss", "margin", "--beta-scale", "0.25",
                  "--p", "10", "--start-sap", "-0.9", "--start-san", "-0.7",
                  "--steps", "1", "--out-prefix", "t"], 3,
                 id="trajectory last point"),
    pytest.param(gen_args(out="o.csv", classes=3, per_class=3, dim=4,
                          spread=1e308), 3, id="spread overflow"),
    # at seed 3 the spread times the noise overflows before the norm does
    pytest.param(gen_args(out="o.csv", classes=3, per_class=3, dim=3,
                          spread=1e308) + ["--seed", "3"], 3,
                 id="spread overflow in the product"),
    pytest.param(gen_args(out="o.csv", classes=2, per_class=2,
                          dim=2**22 + 1), 1, id="gen-data cells above bound"),
    pytest.param(["simulate", "--resolution", "1002", "--out-prefix", "f"], 1,
                 id="resolution above bound"),
    pytest.param(["trajectory", "--start-sap", "0", "--start-san", "0.5",
                  "--steps", "1000001", "--out-prefix", "t"], 1,
                 id="steps above bound"),
    pytest.param(_train("{d}/data.csv", "--embed-dim", "1025"), 1,
                 id="embed-dim above bound"),
    pytest.param(_train("{d}/data.csv", "--epochs", str(MAX_EPOCHS + 1)), 1,
                 id="epochs above bound"),
    pytest.param(_train("{d}/data.csv", "--batches-per-epoch",
                        str(MAX_BATCHES_PER_EPOCH + 1)), 1,
                 id="batches-per-epoch above bound"),
    pytest.param(["diagram", "--data", "{d}/data.csv", "--weights",
                  "{d}/nan_weights.csv", "--out-prefix", "d"], 2,
                 id="nan weights"),
    pytest.param(["diagram", "--data", "{d}/nan_data.csv",
                  "--out-prefix", "d"], 2, id="nan dataset diagram"),
    pytest.param(_train("{d}/nan_data.csv"), 2, id="nan dataset train"),
    pytest.param(["diagram", "--data", "{d}/big_row.csv",
                  "--out-prefix", "d"], 3, id="overflowing row diagram"),
    pytest.param(["diagram", "--data", "{d}/one_row.csv",
                  "--out-prefix", "d"], 2, id="one-row dataset diagram"),
    pytest.param(_train("{d}/one_row.csv"), 2, id="one-row dataset train"),
    pytest.param(_train("{d}/big_label.csv"), 2, id="int64 label train"),
    pytest.param(["diagram", "--data", "{d}/big_label.csv",
                  "--out-prefix", "d"], 2, id="int64 label diagram"),
    pytest.param(_train("{d}/latin1.csv"), 2, id="non-utf8 dataset train"),
    pytest.param(["diagram", "--data", "{d}/latin1.csv",
                  "--out-prefix", "d"], 2, id="non-utf8 dataset diagram"),
    pytest.param(["diagram", "--data", "{d}/data.csv", "--weights",
                  "{d}/latin1_weights.csv", "--out-prefix", "d"], 2,
                 id="non-utf8 weights"),
    pytest.param(["rerun", "{d}/bad.manifest.json"], 2, id="bad manifest"),
    pytest.param(["rerun", "{d}/typed.manifest.json"], 2,
                 id="manifest value type"),
    pytest.param(["rerun", "{d}/nan_spread.manifest.json"], 2,
                 id="manifest spread nan"),
    pytest.param(["rerun", "{d}/one_class.manifest.json"], 2,
                 id="manifest one class"),
    pytest.param(_train("{d}/one_member.csv"), 2,
                 id="one-member class train"),
    pytest.param(["diagram", "--data", "{d}/data.csv", "--weights",
                  "{d}/narrow_weights.csv", "--out-prefix", "d"], 2,
                 id="weights input_dim mismatch"),
    pytest.param(["diagram", "--data", "{d}/bad_header.csv",
                  "--out-prefix", "d"], 2, id="bad dataset header"),
    pytest.param(_train("{d}/header_only.csv"), 2,
                 id="header-only dataset train"),
    pytest.param(["rerun", "{d}/command.manifest.json"], 2,
                 id="manifest unknown command"),
    pytest.param(["simulate", "--resolution", "3", "--out-prefix", "sub/"], 1,
                 id="prefix ends in a slash"),
    pytest.param(["simulate", "--resolution", "3", "--out-prefix", "."], 1,
                 id="prefix dot"),
    pytest.param(["simulate", "--resolution", "3", "--out-prefix", ""], 1,
                 id="prefix empty"),
    pytest.param(gen_args(out="g/"), 1, id="gen-data out ends in a slash"),
])
def test_refused_input_exits_with_one_message(outdir, capsys, argv, code):
    """Inputs that once escaped as tracebacks or exited 0 with NaN
    artifacts: each returns its documented code, prints one error line,
    and writes nothing."""
    assert main(gen_args()) == 0
    weights = ["w0,w1,w2,w3"] + ["0.1,0.2,0.3,0.4"] * 8
    weights[5] = "0.1,nan,0.3,0.4"
    (outdir / "nan_weights.csv").write_text("\n".join(weights) + "\n")
    (outdir / "nan_data.csv").write_text(
        "label,x0,x1\n0,0.6,0.8\n0,0.8,0.6\n1,nan,0\n1,0,1\n"
    )
    (outdir / "big_row.csv").write_text(
        "label,x0,x1\n0,0.6,0.8\n0,1e200,1e200\n1,0.8,0.6\n1,0,1\n"
    )
    (outdir / "one_row.csv").write_text("label,x0,x1\n0,0.6,0.8\n")
    (outdir / "one_member.csv").write_text(
        "label,x0,x1\n0,0.6,0.8\n0,0.8,0.6\n1,0,1\n2,1,0\n2,0.6,0.8\n"
    )
    (outdir / "narrow_weights.csv").write_text("\n".join(weights[:4]) + "\n")
    (outdir / "bad_header.csv").write_text(
        "y,x0,x1\n0,0.6,0.8\n0,0.8,0.6\n1,0,1\n"
    )
    (outdir / "header_only.csv").write_text("label,x0,x1\n")
    (outdir / "big_label.csv").write_text(
        "label,x0,x1\n0,0.6,0.8\n0,0.8,0.6\n99999999999999999999,0,1\n"
    )
    (outdir / "latin1.csv").write_bytes(
        b"label,x0,x1\n0,0.6,0.8\n0,0.8,0.6\n1,\xff0,1\n"
    )
    (outdir / "latin1_weights.csv").write_bytes(
        "\n".join(weights).replace("0.4", "\xff", 1).encode("latin-1")
    )
    (outdir / "bad.manifest.json").write_text(json.dumps(
        {"command": "train", "config": {}, "checksums": {}}
    ))
    (outdir / "command.manifest.json").write_text(json.dumps(
        {"command": "gen-noise", "config": {}, "checksums": {}}
    ))
    for name, key, value in [("typed", "classes", "4"),
                             ("nan_spread", "spread", float("nan")),
                             ("one_class", "classes", 1)]:
        edited = json.loads((outdir / "data.manifest.json").read_text())
        edited["config"][key] = value
        (outdir / f"{name}.manifest.json").write_text(json.dumps(edited))
    before = sorted(outdir.rglob("*"))
    capsys.readouterr()
    assert main([arg.format(d=outdir) for arg in argv]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match(r"tripletlab: \w+ error: ", err[0]), err
    assert sorted(outdir.rglob("*")) == before


# float flags get non-finite, overflowing, negative and ordinary values
REALS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "-1", "0"]),
    st.floats(-2.0, 2.0).map(repr),
)
LOSSES = st.sampled_from(["nca", "margin"])


def sizes(*refused):
    """A size flag: a small value, or one its bound refuses before
    anything is allocated."""
    small = st.integers(-2, 3)
    return (small | st.sampled_from(refused) if refused else small).map(str)


# small seeds, negative ones the configs refuse, and one past 64 bits
SEEDS = st.sampled_from(["-2", "-1", "0", "3", str(2**64)])

# output names that end in a file name, and ones that do not; none is
# nested, since every written path is read as a file
PREFIXES = st.sampled_from(["f", "", ".", "..", "f/"])

# per command: the flags of a tiny valid run, and what each flag may draw
ADVERSARIAL_COMMANDS = {
    "gen-data": (
        dict(classes=3, per_class=3, dim=3, spread=0.5, out="g.csv"),
        dict(classes=sizes(2**40), per_class=sizes(2**40),
             dim=sizes(2**40), spread=REALS, seed=SEEDS,
             out=st.sampled_from(["g.csv", "g", "g/", ".csv"])),
    ),
    "simulate": (
        dict(resolution=5, out_prefix="f"),
        dict(loss=LOSSES, p=REALS, gamma=REALS, beta_scale=REALS,
             margin=REALS, resolution=sizes(1002, 10**9),
             out_prefix=PREFIXES),
    ),
    "trajectory": (
        dict(start_sap=0.3, start_san=0.5, steps=3, out_prefix="t"),
        dict(loss=LOSSES, start_sap=REALS, start_san=REALS, p=REALS,
             gamma=REALS, beta_scale=REALS, margin=REALS,
             steps=sizes(1_000_001, 10**12), out_prefix=PREFIXES),
    ),
    "train": (
        dict(data="{data}", epochs=1, classes_per_batch=2, embed_dim=2,
             batches_per_epoch=2, out_prefix="r"),
        dict(loss=st.sampled_from(["nca", "margin", "sct"]),
             miner=st.sampled_from(["random", "hn", "shn", "ep", "ephn"]),
             grad_mode=st.sampled_from(["post", "through"]),
             lr=REALS, margin=REALS, epochs=sizes(MAX_EPOCHS + 1, 10**12),
             classes_per_batch=sizes(), embed_dim=sizes(1025, 10**9),
             seed=SEEDS, snapshot_every=sizes(),
             batches_per_epoch=sizes(MAX_BATCHES_PER_EPOCH + 1, 10**12),
             out_prefix=PREFIXES, **{"lambda": REALS}),
    ),
}


@st.composite
def adversarial_argv(draw):
    """A tiny valid run with one to three flags drawn adversarially, each
    written as --flag=value so that values such as -inf are not read as
    flags."""
    name = draw(st.sampled_from(sorted(ADVERSARIAL_COMMANDS)))
    valid, drawn = ADVERSARIAL_COMMANDS[name]
    flags = dict(valid)
    for flag in draw(st.lists(st.sampled_from(sorted(drawn)), min_size=1,
                              max_size=3)):
        flags[flag] = draw(drawn[flag])
    return [name] + [f"--{flag.replace('_', '-')}={value}"
                     for flag, value in flags.items()]


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TRIPLETLAB_OUT", str(out))
        assert main(gen_args(classes=4, per_class=3, dim=3)) == 0
    return out / "data.csv"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=adversarial_argv())
def test_adversarial_flags_exit_cleanly(small_dataset, argv):
    """NaN, +-inf, 1e308 and negative flag values: a documented exit code
    (1 for a negative seed),
    no traceback and no warning, one error line on a refusal (which
    writes nothing), and no nan or inf token after an exit 0."""
    argv = [arg.format(data=small_dataset) for arg in argv]
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            pytest.MonkeyPatch.context() as patch:
        patch.setenv("TRIPLETLAB_OUT", out)
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")  # a warning is a second line
            code = main(argv)
        written = sorted(Path(out).iterdir())
        texts = {path.name: path.read_text() for path in written}
    err = stderr.getvalue().splitlines()
    assert code in (0, 1, 2, 3), (argv, code)
    if any(arg.startswith("--seed=-") for arg in argv):
        assert code == 1, (argv, code)  # refused when the config is built
    if code:
        assert len(err) == 1, (argv, err)
        assert re.match(r"tripletlab: \w+ error: ", err[0]), (argv, err)
        assert not written, (argv, written)
    else:
        assert err == [], (argv, err)
        for name, text in texts.items():
            assert not re.search(r"\b(?:nan|inf|infinity)\b", text, re.I), \
                (argv, name)
