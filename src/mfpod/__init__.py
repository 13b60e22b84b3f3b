"""mfpod: multi-fidelity reduced-order surrogate modeling.

Build a reduced basis from scarce high-fidelity PDE snapshots, train an
LSTM mapping low-fidelity reduced coefficients to high-fidelity ones, and
deploy the surrogate to predict full solution fields at low-fidelity cost
across parameters and forward in time.
"""

from .errors import (
    AlignmentError,
    CoverageError,
    DataError,
    ExtrapolationError,
    FormatError,
    InstabilityError,
    MfpodError,
    ShapeError,
    StorageError,
    TrainingError,
    ValidationError,
)
from .lifting import LiftSpec, lift, lift_project
from .mflstm import (
    FeatureLayout,
    LstmLayerWeights,
    LstmModel,
    Normalizer,
    StaticModel,
    TrainConfig,
    hyperparameter_search,
    predict,
    train,
    train_static_baseline,
)
from .numerics import Grid2D, interp_time, thin_svd
from .pipeline import (
    EvalReport,
    Provenance,
    SurrogateModel,
    evaluate,
    load_model,
    offline_train,
    online_predict,
    online_predict_detailed,
    save_model,
)
from .pod import CoefficientSeries, PodBasis, PodRule, build_basis, project, reconstruct
from .snapshots import (
    ParameterGrid,
    SnapshotSet,
    ingest_external,
    read_snapshots,
    write_snapshots,
)
from .solvers import (
    FidelityProfile,
    RdConfig,
    SwConfig,
    generate_dataset,
    rd_initial,
    solve_poisson,
    solve_rd,
    solve_sw,
    sw_initial,
)

__version__ = "0.1.0"
