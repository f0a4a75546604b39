"""motionlink: cross-channel activity-sequence correlation toolkit."""

from .align import (
    AlignConfig,
    AlignmentResult,
    align_offset_search,
    correlate_with_alignment,
)
from .engine import (
    CandidatePairSet,
    FilterConfig,
    RankedIdentityList,
    activity_filter,
    correlate,
    mismatch_budget,
    rank_identities,
    read_rankings_jsonl,
    spearman_rho,
    write_rankings_jsonl,
)
from .errors import (
    ConfigError,
    DataError,
    MemoryCapExceeded,
    MotionLinkError,
)
from .evalbench import (
    EvalReport,
    bench_scaling,
    evaluate,
    intersect_sessions,
    restricted_set_from_confusion,
    sweep_parameters,
)
from .model import (
    ActivityLabel,
    ActivityVectorSeries,
    Channel,
    MagnitudeSeq,
    MotionDataset,
    SensorPosition,
    VisualDataset,
    read_dataset_jsonl,
    write_dataset_jsonl,
)
from .pipeline import (
    ClassifierModel,
    ConfusionMatrix,
    build_series,
    read_keypoint_jsonl,
    read_motion_csv,
)
from .synth import (
    CohortSpec,
    GroundTruth,
    generate_cohort,
    generate_sessions,
    synthesize_trace_cohort,
    train_classifier,
)
from .windex import (
    WildcardIndex,
    build_index,
    filter_with_index,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityLabel",
    "ActivityVectorSeries",
    "AlignConfig",
    "AlignmentResult",
    "CandidatePairSet",
    "Channel",
    "ClassifierModel",
    "CohortSpec",
    "ConfigError",
    "ConfusionMatrix",
    "DataError",
    "EvalReport",
    "FilterConfig",
    "GroundTruth",
    "MagnitudeSeq",
    "MemoryCapExceeded",
    "MotionDataset",
    "MotionLinkError",
    "RankedIdentityList",
    "SensorPosition",
    "VisualDataset",
    "WildcardIndex",
    "__version__",
    "activity_filter",
    "align_offset_search",
    "bench_scaling",
    "build_index",
    "build_series",
    "correlate",
    "correlate_with_alignment",
    "evaluate",
    "filter_with_index",
    "generate_cohort",
    "generate_sessions",
    "intersect_sessions",
    "mismatch_budget",
    "rank_identities",
    "read_dataset_jsonl",
    "read_keypoint_jsonl",
    "read_motion_csv",
    "read_rankings_jsonl",
    "restricted_set_from_confusion",
    "spearman_rho",
    "sweep_parameters",
    "synthesize_trace_cohort",
    "train_classifier",
    "write_dataset_jsonl",
    "write_rankings_jsonl",
]
