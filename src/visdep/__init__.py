"""Token-level visual dependence: measurement, re-weighted training, evaluation.

The package measures how much each generated token depends on the
conditioning input by comparing its probability under the clean input
against a noise-corrupted one, classifies tokens into image-positive /
image-invariant / image-negative, and uses those signals to re-weight the
training loss, filter training data, and analyze where hallucinated
content appears.
"""

from .dependence import (
    TokenClass,
    classify,
    classify_array,
    dependence_array,
    profile_trace,
    visual_dependence,
)
from .diffusion import NoiseSchedule, corrupt, make_schedule
from .filtering import FilterManifest, FilterStrategy, apply_filter, score_corpus
from .halleval import (
    HallucinationReport,
    class_object_counts,
    co_occurrence,
    evaluate,
)
from .reweight import (
    LossMode,
    ReweightConfig,
    normalize_weights,
    raw_weight,
    raw_weights,
    training_weights,
)
from .synth import CorpusConfig, SyntheticScene, generate_corpus, train_test_split
from .toymodel import (
    ModelParams,
    TrainConfig,
    TrainingDiverged,
    forward,
    generate,
    init_params,
    sequence_loss,
    train,
)
from .trace import TokenTrace, TraceError, TraceFile, read_traces, write_traces

__version__ = "0.1.0"

__all__ = [
    "CorpusConfig",
    "FilterManifest",
    "FilterStrategy",
    "HallucinationReport",
    "LossMode",
    "ModelParams",
    "NoiseSchedule",
    "ReweightConfig",
    "SyntheticScene",
    "TokenClass",
    "TokenTrace",
    "TraceError",
    "TraceFile",
    "TrainConfig",
    "TrainingDiverged",
    "apply_filter",
    "class_object_counts",
    "classify",
    "classify_array",
    "co_occurrence",
    "corrupt",
    "dependence_array",
    "evaluate",
    "forward",
    "generate",
    "generate_corpus",
    "init_params",
    "make_schedule",
    "normalize_weights",
    "profile_trace",
    "raw_weight",
    "raw_weights",
    "read_traces",
    "score_corpus",
    "sequence_loss",
    "train",
    "train_test_split",
    "training_weights",
    "visual_dependence",
    "write_traces",
]
