"""repro.slapo — the schedule language (the paper's contribution).

Quick tour (paper Fig. 3)::

    import repro.slapo as slapo

    sch = slapo.create_schedule(model)                 # default schedule
    sch["encoder.layer.0.attention"].replace(eff_attn) # module primitives
    sub = sch["encoder.layer.0"]
    sub["fc1"].shard(["weight", "bias"], axis=0)       # tensor parallelism
    sub["fc1"].sync(mode="backward")
    sub.trace()                                        # static graph
    sub.fuse(sub.find(my_pattern), compiler="TorchInductor")
    built = slapo.build(sch)                           # runnable model
"""

from . import op, pattern
from .build import BuiltModel, build
from .primitives import (  # noqa: F401  (import registers primitives)
    DecomposedLinear,
    PipelineModule,
    ShardSpec,
    partition_pipeline,
)
from .registry import (
    Primitive,
    SchedulingError,
    fuzzable_primitives,
    get_primitive,
    list_primitives,
    primitive_table,
    register_primitive,
)
from .schedule import PrimitiveRecord, Schedule, ScheduleContext, create_schedule
from .service import (
    PlanRequest,
    PlanResponse,
    PlanService,
    UnknownFamilyError,
    plan_service,
)
from .tuner import (
    AutoTuner,
    LearnedCostModel,
    ResidualCostModel,
    SimCostModel,
    Space,
    TrialCache,
    TuneReport,
    TuneResult,
    enumerate_space,
)
from .verify import (
    ScheduleSpec,
    TolerancePolicy,
    VerificationError,
    VerifyReport,
    run_fuzz,
    verify,
)

__all__ = [
    "create_schedule", "Schedule", "ScheduleContext", "PrimitiveRecord",
    "build", "BuiltModel",
    "Primitive", "register_primitive", "get_primitive", "list_primitives",
    "primitive_table", "SchedulingError", "fuzzable_primitives",
    "verify", "VerificationError", "VerifyReport", "TolerancePolicy",
    "run_fuzz", "ScheduleSpec",
    "AutoTuner", "Space", "TuneResult", "TuneReport", "enumerate_space",
    "SimCostModel", "TrialCache",
    "LearnedCostModel", "ResidualCostModel",
    "PlanService", "plan_service", "PlanRequest", "PlanResponse",
    "UnknownFamilyError",
    "ShardSpec", "PipelineModule", "partition_pipeline", "DecomposedLinear",
    "op", "pattern",
]
