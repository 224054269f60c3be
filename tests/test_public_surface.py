"""The package's public surface: exactly these names and settings, and no
scalar or looped copy of an array function. A new setting is a deliberate
edit here."""

import dataclasses
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import numpy as np
import pytest

import tripletlab
from tripletlab import svg, trainer
from tripletlab.mining import Triplets
from tripletlab.synthdata import LabeledDataset

from conftest import triplets_of

EXPORTED = {
    # dynamics
    "SimilarityUpdate", "StepParams", "VectorField", "step",
    "trajectory", "vector_field",
    # evaluation
    "RetrievalResult", "collapse_metric", "diagram_extract", "recall_at_k",
    # geometry
    "DegenerateVectorError", "TripletCoord", "UndefinedGammaError", "gamma",
    "s_pn_from",
    # losses
    "CoordGrad", "LossKind", "LossSpec",
    "batch_feature_grads", "coord_grads", "is_hard", "loss_values",
    # mining
    "Batch", "MinedTriplet", "MiningStrategy", "Triplets", "mine",
    # synthdata
    "DatasetConfig", "DatasetParseError", "LabeledDataset", "generate",
    "load", "save",
    # trainer
    "EpochLog", "GradMode", "ModelParams", "TrainConfig", "backward",
    "embed", "init_params", "train",
}

# scalar copies of array functions, and names nothing called
DELETED = {
    "loss_value", "nca_loss", "margin_loss", "sct_loss", "coord_grad",
    "feature_grads", "TripletFeatures", "coord_of", "normalize", "cosine",
    "similarity_matrix", "hard_fraction", "step_nca", "step_margin",
    "GridSpec", "NoNegativesError", "FeatureGrads", "_cosines",
    "_closed_form", "_fill", "_nth", "_raise_first_bad_line",
}

# every setting, each one set by the CLI or the benchmark harness
FIELDS = {
    tripletlab.LossSpec: ["kind", "lam", "margin"],
    tripletlab.StepParams: ["learning_rate", "gamma", "entanglement_p",
                            "loss"],
    tripletlab.TrainConfig: ["loss", "strategy", "grad_mode",
                             "learning_rate", "epochs", "classes_per_batch",
                             "embed_dim", "seed", "snapshot_every",
                             "batches_per_epoch"],
    tripletlab.DatasetConfig: ["num_classes", "per_class", "input_dim",
                               "intra_spread", "seed"],
}
PARAMETERS = {
    tripletlab.vector_field: ["resolution", "params"],
    svg.field_quiver: ["s_ap", "s_an", "d_sap", "d_san", "title"],
    svg.line_chart: ["series", "title"],
    svg.diagram_scatter: ["s_ap", "s_an", "hard", "title"],
    svg.trajectory_path: ["s_ap", "s_an", "title"],
    tripletlab.batch_feature_grads: ["coords", "feats", "spec"],
    tripletlab.embed: ["params", "xs"],
    tripletlab.backward: ["inputs", "feats", "norms", "triplets", "loss",
                          "grad_mode"],
}

MODULES = sorted(f"tripletlab.{m.name}"
                 for m in pkgutil.iter_modules(tripletlab.__path__))


def test_package_exports_exactly():
    exported = {name for name, value in vars(tripletlab).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == EXPORTED


@pytest.mark.parametrize("module", ["tripletlab"] + MODULES)
def test_no_deleted_name_resolves(module):
    mod = importlib.import_module(module)
    assert not DELETED & set(dir(mod))


def test_no_deleted_member_or_reexport():
    mining = importlib.import_module("tripletlab.mining")
    cli = importlib.import_module("tripletlab.cli")
    assert not hasattr(mining, "__all__")
    assert not hasattr(mining, "is_hard")  # losses.is_hard is the one
    assert not hasattr(cli, "UndefinedGammaError")  # no CLI path raises it
    assert not hasattr(Triplets, "of")
    assert not hasattr(LabeledDataset, "num_classes")
    assert not hasattr(tripletlab.LossSpec, "easy_kind")
    vf_fields = dataclasses.fields(tripletlab.VectorField)
    assert "grid" not in {f.name for f in vf_fields}
    assert triplets_of([]) != []  # Triplets equal Triplets, not lists
    assert triplets_of([]) == triplets_of([])


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_settings_exactly(cls):
    assert [f.name for f in dataclasses.fields(cls)] == FIELDS[cls]


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda fn: fn.__name__)
def test_parameters_exactly(fn):
    assert list(inspect.signature(fn).parameters) == PARAMETERS[fn]


def test_charts_return_bytes():
    """The CLI writes each chart's bytes to its file as they are."""
    one = [0.5]
    charts = [svg.field_quiver(one, one, one, one, "q"),
              svg.diagram_scatter(one, one, [True], "s"),
              svg.trajectory_path(one, one, "t"),
              svg.line_chart([("a", one)], "c")]
    assert [type(chart) for chart in charts] == [bytes] * 4


# What the benchmark harness reads: recall by position, mined rows by
# field, and the trainer's own mine and recall_at_k, which it patches to
# sample mining calls and time epochs.


def test_retrieval_result_fields():
    assert tripletlab.RetrievalResult._fields == ("k", "recall",
                                                  "num_queries")


def test_mined_rows_expose_indices_and_coordinates():
    batch = tripletlab.Batch(np.eye(6), [0, 0, 1, 1, 2, 2])
    triplets = tripletlab.mine(batch, tripletlab.MiningStrategy.RANDOM, 3)
    rows = [(t.anchor, t.positive, t.negative, t.coord.s_ap, t.coord.s_an)
            for t in triplets]
    columns = (triplets.anchor, triplets.positive, triplets.negative,
               triplets.s_ap, triplets.s_an)
    assert len(rows) == 6
    assert rows == list(zip(*(c.tolist() for c in columns)))


def test_train_calls_mine_per_batch_and_recall_per_epoch(monkeypatch):
    calls = {"mine": 0, "recall_at_k": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(trainer, name),
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(trainer, name, counted)
    dataset = tripletlab.generate(tripletlab.DatasetConfig(3, 4, 5, 0.5, 0))
    tripletlab.train(dataset, tripletlab.TrainConfig(
        epochs=2, classes_per_batch=2, embed_dim=3, batches_per_epoch=3))
    assert calls == {"mine": 6, "recall_at_k": 2}


def test_readme_library_use_runs():
    """README's "Library use" Python block, which trains a model with
    tl.train, runs as written."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library use")[1]
    code = section.split("```python\n")[1].split("```")[0]
    assert "tl.train(" in code
    exec(compile(code, "README.md", "exec"), {})
