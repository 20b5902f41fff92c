"""repro.slapo.tuner — the schedule auto-tuner (paper §3.4).

Four strategies (exhaustive, coordinate descent, simulator-guided,
evolutionary) over define-by-run spaces, a cost-model oracle adapting
the :mod:`repro.sim` simulator, and a persistent, append-only trial cache.
See ``docs/tuning.md`` for the guide.
"""

from .cache import TrialCache, config_key
from .cost_model import (
    CallableCostModel,
    CostEstimate,
    CostModel,
    SimCostModel,
    as_cost_model,
)
from .learned import (
    FEATURE_NAMES,
    FEATURE_VERSION,
    LearnedCostModel,
    ResidualCostModel,
    StaleWeightsError,
    featurize,
    featurize_many,
    mean_relative_error,
)
from .space import (
    Space,
    SpaceError,
    enumerate_space,
    parallelism_symbols,
    symbol_values,
)
from .tuner import (
    SECONDS_PER_FAILED_TRIAL,
    SECONDS_PER_TRIAL,
    AutoTuner,
    Trial,
    TuneReport,
    TuneResult,
)
from .workers import MeasurementPool, MeasureResult, measure

__all__ = [
    "Space", "SpaceError", "enumerate_space", "symbol_values",
    "parallelism_symbols",
    "AutoTuner", "Trial", "TuneResult", "TuneReport",
    "CostModel", "CostEstimate", "SimCostModel", "CallableCostModel",
    "as_cost_model",
    "LearnedCostModel", "ResidualCostModel", "StaleWeightsError",
    "featurize", "featurize_many", "mean_relative_error",
    "FEATURE_NAMES", "FEATURE_VERSION",
    "TrialCache", "config_key",
    "MeasurementPool", "MeasureResult", "measure",
    "SECONDS_PER_TRIAL", "SECONDS_PER_FAILED_TRIAL",
]
