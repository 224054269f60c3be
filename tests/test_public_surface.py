"""The package's public surface: exactly these names, and no scalar or
looped copy of an array function."""

import importlib
import pkgutil
import types

import pytest

import tripletlab
from tripletlab.mining import Triplets
from tripletlab.synthdata import LabeledDataset

from conftest import triplets_of

EXPORTED = {
    # dynamics
    "GridSpec", "SimilarityUpdate", "StepParams", "VectorField", "step",
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
    assert triplets_of([]) != []  # Triplets equal Triplets, not lists
    assert triplets_of([]) == triplets_of([])
