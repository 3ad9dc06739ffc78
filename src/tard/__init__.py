"""Test-time adaptation for propagation-graph classification.

A graph classifier with a Y-shaped architecture — shared GCN extractor,
supervised classification head, self-supervised contrastive head — that
fine-tunes its extractor on every test graph before predicting, steered by a
contrastive objective plus an embedding-statistics alignment penalty.
"""

from .graphs import InvalidEventError, PropGraph, PropagationEvent, to_prop_graph
from .datagen import DomainSpec, ShiftSpec, apply_shift, generate_domain, read_dataset, write_dataset
from .model import EmbeddingStats, ModelDims, TardParams, init_params
from .pipeline import (
    EventRecord,
    TrainConfig,
    TrainedModel,
    evaluate,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_phase,
    ttt_adapt,
    with_config,
)
from .presets import ExperimentConfig, shift_mid
from .reporting import (
    ALPHA_GRID,
    MetricsReport,
    compute_metrics,
    emit_report,
    run_ablation,
    run_sensitivity,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_GRID",
    "DomainSpec",
    "EmbeddingStats",
    "EventRecord",
    "ExperimentConfig",
    "InvalidEventError",
    "MetricsReport",
    "ModelDims",
    "PropGraph",
    "PropagationEvent",
    "ShiftSpec",
    "TardParams",
    "TrainConfig",
    "TrainedModel",
    "apply_shift",
    "compute_metrics",
    "emit_report",
    "evaluate",
    "generate_domain",
    "init_params",
    "load_checkpoint",
    "predict",
    "read_dataset",
    "run_ablation",
    "run_sensitivity",
    "save_checkpoint",
    "shift_mid",
    "to_prop_graph",
    "train_phase",
    "ttt_adapt",
    "with_config",
    "write_dataset",
]
