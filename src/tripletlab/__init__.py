"""Desk-scale laboratory for triplet-loss geometry on the unit hypersphere."""

from .dynamics import (
    GridSpec,
    SimilarityUpdate,
    StepParams,
    VectorField,
    step_margin,
    step_nca,
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
    TripletFeatures,
    UndefinedGammaError,
    coord_of,
    cosine,
    gamma,
    normalize,
    s_pn_from,
)
from .losses import (
    CoordGrad,
    FeatureGrads,
    LossKind,
    LossSpec,
    coord_grad,
    feature_grads,
    loss_value,
    margin_loss,
    nca_loss,
    sct_loss,
)
from .mining import (
    Batch,
    MinedTriplet,
    MiningStrategy,
    NoNegativesError,
    Triplets,
    hard_fraction,
    is_hard,
    mine,
    similarity_matrix,
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
