"""The bits of the records, pinned per numpy version and OpenBLAS kernel.

OpenBLAS picks its kernel for the CPU at run time, and the kernels round
differently, so the same code gives other records under another kernel.
This test hashes the records of a small run that covers both operator forms
(dense and edge list), training, a pooled lockstep ``evaluate`` and online
mode, and compares the hash with the one pinned for this numpy and kernel.
An unknown key skips. To check another kernel, set ``OPENBLAS_CORETYPE``
(e.g. ``Haswell``) on the pytest process.

A change that alters the bits on purpose updates the table, and says which
records changed and why.
"""

from __future__ import annotations

import hashlib
import json
import platform

import numpy as np
import pytest

from conftest import make_random_event
from tard import runtime_key
from tard.graphs import EDGE_LIST_MIN_NODES
from tard.pipeline import (
    TrainConfig,
    checkpoint_record,
    evaluate,
    lockstep_batches,
    train_phase,
    with_config,
)

#: sha256 of the run's checkpoint and records, by (numpy version, OpenBLAS
#: runtime core). Filled on an x86-64 CPU with AVX-512, whose bundled
#: OpenBLAS runs SkylakeX by default and the others when OPENBLAS_CORETYPE
#: names them (Prescott, Core2 and Penryn run Katmai; Zen runs Haswell).
RECORDS_SHA256 = {
    ("2.4.6", "SkylakeX"): "010bbf798d8b0ef570050c5f02b0e6fadb7106c31b2b1d3d7f1acc604bfed2ee",
    ("2.4.6", "Haswell"): "7103393c7c7c45f13f73cc5163a5c588a166ef7c38ebbfa22c7fb54bbcbd54cc",
    ("2.4.6", "Sandybridge"): "0d1820d419a3b04e8f8745ac7581da71ee91f249b71539f32d20c16274c067f8",
    ("2.4.6", "Nehalem"): "bbc313d9807303302172c56283ce0d5a1768cb0d71f3def6ac79ead0e1a79c3b",
    ("2.4.6", "Katmai"): "97db415e1dabdb305077a18ba41b60ffe8770fe1780b4a3500108ef3d8ae89b5",
}


def _inputs() -> tuple[list, list]:
    rng = np.random.default_rng(11)
    train_set = [
        make_random_event(rng, int(rng.integers(3, 13)), 4, f"t-{i}", i % 2) for i in range(24)
    ]
    sizes = [EDGE_LIST_MIN_NODES + 7, EDGE_LIST_MIN_NODES + 40]
    sizes += [int(n) for n in rng.integers(1, 14, 20)]
    return train_set, [make_random_event(rng, n, 4, f"e-{i}", i % 2) for i, n in enumerate(sizes)]


def records_digest() -> str:
    """Train on 24 small events, then evaluate 20 small and 2 edge-list
    events episodically (pooled, in lockstep batches) and 6 online."""
    train_set, test_set = _inputs()
    config = TrainConfig(seed=2, epochs=3, d_hidden=8, ttt_steps=4, ttt_lr=5e-3)
    model = train_phase(train_set, config)
    records = evaluate(test_set, model) + evaluate(
        test_set[:6], with_config(model, adaptation_mode="online")
    )
    payload = [checkpoint_record(model)] + [
        {k: v for k, v in r.to_json_dict().items() if k != "wall_time_s"} for r in records
    ]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_records_match_the_pinned_bits():
    # The episodic run adapts its small events in batches of several.
    sizes = [e.num_nodes for e in _inputs()[1]]
    assert max(len(batch) for batch in lockstep_batches(sizes)) > 1
    runtime = runtime_key()
    key = (runtime["numpy"], runtime["openblas_core"])
    if key not in RECORDS_SHA256:
        pytest.skip(f"no pinned records digest for numpy {key[0]} with OpenBLAS core {key[1]}")
    assert records_digest() == RECORDS_SHA256[key]


def test_runtime_key_names_python_numpy_and_the_core():
    key = runtime_key()
    assert key["python"] == platform.python_version()
    assert key["numpy"] == np.__version__
    assert isinstance(key["openblas_core"], str) and key["openblas_core"]
