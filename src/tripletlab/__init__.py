"""Desk-scale laboratory for triplet-loss geometry on the unit hypersphere."""

from .dynamics import (
    SimilarityUpdate,
    StepParams,
    VectorField,
    step,
    trajectory,
    vector_field,
)
from .evaluation import (
    RetrievalResult,
    collapse_metric,
    diagram_extract,
    recall_at_k,
)
from .geometry import (
    DegenerateVectorError,
    TripletCoord,
    UndefinedGammaError,
    gamma,
    s_pn_from,
)
from .losses import (
    CoordGrad,
    FeatureGrads,
    LossKind,
    LossSpec,
    batch_feature_grads,
    coord_grads,
    is_hard,
    loss_values,
)
from .mining import (
    Batch,
    MinedTriplet,
    MiningStrategy,
    NoNegativesError,
    Triplets,
    mine,
)
from .synthdata import (
    DatasetConfig,
    DatasetParseError,
    LabeledDataset,
    generate,
    load,
    save,
)
from .trainer import (
    EpochLog,
    GradMode,
    ModelParams,
    TrainConfig,
    backward,
    embed,
    init_params,
    train,
)

__version__ = "0.1.0"
