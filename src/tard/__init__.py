"""Test-time adaptation for propagation-graph classification.

A graph classifier with a Y-shaped architecture — shared GCN extractor,
supervised classification head, self-supervised contrastive head — that
fine-tunes its extractor on every test graph before predicting, steered by a
contrastive objective plus an embedding-statistics alignment penalty.
"""

import ctypes
import glob
import os
import platform

import numpy as np

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


def _keep_freed_arrays_in_heap() -> bool:
    """Make glibc's malloc keep freed arrays in the heap for reuse.

    By default glibc gives a block from 128 KiB up (a threshold that follows
    the sizes freed) its own ``mmap`` and returns the heap top to the OS once
    128 KiB of it are free. A large cascade's N x 16 and N x 32 temporaries
    then go back to the OS every adaptation step and fault in again as fresh
    zero pages. This raises the mmap threshold to glibc's 32 MiB maximum and
    turns trimming off, so freed memory stays with the process until it
    exits. Forked workers inherit the setting. Returns whether both settings
    took; where the C library is not glibc it changes nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, name or value
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1; mallopt returns 1 on success.
    return mallopt(-3, 32 << 20) == 1 and mallopt(-1, -1) == 1


_keep_freed_arrays_in_heap()


def runtime_key() -> dict:
    """What a run's bits depend on besides the code and its inputs: the
    Python and numpy versions and the kernel numpy's bundled OpenBLAS runs.

    OpenBLAS picks that kernel for the CPU at run time (``OPENBLAS_CORETYPE``
    names another), and the kernels round differently. The core reads
    ``"unknown"`` where the library or its symbol is missing.
    """
    core = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))[0])
        get = lib.scipy_openblas_get_corename64_
        get.argtypes, get.restype = [], ctypes.c_char_p
        core = get().decode()
    except (IndexError, OSError, AttributeError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "openblas_core": core}


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
    "runtime_key",
    "save_checkpoint",
    "shift_mid",
    "to_prop_graph",
    "train_phase",
    "ttt_adapt",
    "with_config",
    "write_dataset",
]
