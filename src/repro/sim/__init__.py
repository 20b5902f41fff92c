"""repro.sim — the V100-cluster performance & memory simulator.

Pipeline: instantiate a (scheduled) model on the meta device → record one
forward pass into a :class:`ModelTrace` → fold it into a vectorized
:class:`CompiledTrace` (built once per trace) → price compute/memory/comms
for any parallel configuration → plan micro-batches → report throughput.
Checkpoint-ratio variants are derived analytically from the base trace
(:func:`reprice_checkpoint_ratio`) instead of re-tracing the model.
"""

from .compiled import CompiledTrace, reprice_checkpoint_ratio
from .events import (
    CommEvent,
    LayerSpan,
    ModelTrace,
    OpEvent,
    TraceRecorder,
    trace_model,
)
from .features import (
    CLUSTER_FEATURE_NAMES,
    STATS_FEATURE_NAMES,
    TRACE_FEATURE_NAMES,
    cluster_features,
    stats_features,
    trace_features,
)
from .kernel_cost import KernelCostModel
from .memory import (
    MemoryBreakdown,
    ModelStats,
    compute_model_stats,
    model_memory,
    stage_inflight,
)
from .pipeline import (
    PipelinePlan,
    ScheduleCandidate,
    SchedulePlan,
    StageProfile,
    even_cuts,
    plan_pipeline_cuts,
    plan_pipeline_schedule,
    schedule_stage_inflight,
    schedule_timeline,
    stage_memory,
    stage_profiles,
    stage_step_times,
)
from .batch import BatchPoints, BatchPrediction, predict_batch
from .planner import (
    MICRO_BATCH_CANDIDATES,
    Prediction,
    micro_batch_count_candidates,
    plan_micro_batch,
    predict_config,
)
from .throughput import (
    DEFAULT_BUCKET_MB,
    StepBreakdown,
    overlap_exposed,
    step_time,
    throughput,
)

__all__ = [
    "OpEvent", "CommEvent", "ModelTrace", "LayerSpan", "TraceRecorder",
    "trace_model",
    "CompiledTrace", "reprice_checkpoint_ratio",
    "KernelCostModel", "MemoryBreakdown", "ModelStats",
    "compute_model_stats", "model_memory", "stage_inflight",
    "StageProfile", "stage_profiles", "stage_step_times", "stage_memory",
    "PipelinePlan", "plan_pipeline_cuts", "even_cuts",
    "SchedulePlan", "ScheduleCandidate", "plan_pipeline_schedule",
    "schedule_timeline", "schedule_stage_inflight",
    "StepBreakdown", "step_time", "throughput",
    "overlap_exposed", "DEFAULT_BUCKET_MB",
    "plan_micro_batch", "MICRO_BATCH_CANDIDATES",
    "micro_batch_count_candidates",
    "Prediction", "predict_config",
    "BatchPoints", "BatchPrediction", "predict_batch",
    "STATS_FEATURE_NAMES", "TRACE_FEATURE_NAMES", "CLUSTER_FEATURE_NAMES",
    "stats_features", "trace_features", "cluster_features",
]
