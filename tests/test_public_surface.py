"""The package's public surface: exactly these names and settings, and no
scalar or looped copy of an array function. A new setting is a deliberate
edit here."""

import dataclasses
import importlib
import inspect
import pkgutil
import types

import pytest

import tripletlab
from tripletlab import svg
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
    "CoordGrad", "FeatureGrads", "LossKind", "LossSpec",
    "batch_feature_grads", "coord_grads", "is_hard", "loss_values",
    # mining
    "Batch", "MinedTriplet", "MiningStrategy", "NoNegativesError",
    "Triplets", "mine",
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
    "GridSpec",
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
    svg.line_chart: ["series", "title"],
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
