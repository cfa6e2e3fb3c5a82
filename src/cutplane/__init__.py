"""Cutting-plane methods for integer linear programs with Gomory cutpools,
cut-removal policies, and a learned cut scorer."""

__version__ = "0.1.0"

from .lp import (
    FLOAT,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    RATIONAL,
    UNBOUNDED,
    CycleLimitExceeded,
    LinearProgram,
    LpSolution,
    SimplexTableau,
    StandardForm,
    is_integral,
    solve_lp,
    solve_simplex,
    to_standard_form,
)
from .gomory import (
    BOUND,
    GOMORY,
    Cut,
    CutPlaneState,
    CutPool,
    apply_cuts,
    bound_cut,
    ceil_snap,
    generate_cutpool,
)
from .oracle import IlpResult, solve_ilp
from .engine import (
    ADD_ONLY,
    INTEGRAL_FOUND,
    ITER_LIMIT,
    NUMERICAL_FAILURE,
    REMOVAL,
    IterationRecord,
    RunConfig,
    Trajectory,
    compute_igc,
    extend_curve,
    load_trajectory,
    run_add_only,
    run_policy,
    run_removal,
    save_trajectory,
)
from .policies import (
    EmptyPool,
    Policy,
    lookahead_add_scores,
    lookahead_remove_scores,
    select_addition,
    select_retained,
)
from .features import FEATURE_NAMES, NUM_FEATURES, ZeroNormCut, encode, encode_many
from .model import (
    Diverged,
    Hyperparams,
    MlpParams,
    ReplayMismatch,
    SchemaMismatch,
    TrainReport,
    TrainSample,
    build_dataset,
    forward,
    init_params,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    train_sgd,
)
from .instances import (
    FAMILIES,
    PRESETS,
    InstanceSpec,
    generate,
    load_instance,
    save_instance,
)
