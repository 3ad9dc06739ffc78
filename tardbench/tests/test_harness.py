"""Fast self-check of the benchmark harness at tiny sizes.

    python3 -m pytest -q tardbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_tard()

import tracing  # noqa: E402
import workloads  # noqa: E402
import tard  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    lines, result = run.run_workload(workload, 4, 0.0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    for name, unit in run.END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    text = "\n".join(lines)
    for check in ("params_unchanged", "probs_valid", "stream_matches_batch", "io_round_trip"):
        assert f"check {check}: PASS" in text


def test_records_checksum_repeats_for_a_seed():
    def checksum():
        lines, _ = run.run_workload("shift-mid", 7, 0.0, trace=False, tiny=True)
        summary = next(line for line in lines if line.startswith("summary: "))
        return json.loads(summary[len("summary: "):])["records_sha256"]

    assert checksum() == checksum()


def test_traced_run_reports_layers_and_restores_the_package():
    originals = {name: getattr(tard.model, name) for name in ("gcn_forward", "forward_ssl")}
    _, result = run.run_workload("shift-mid", 4, 0.0, trace=True, tiny=True)
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _, _ in tracing.per_layer_spec()]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    # model.py imports gcn_forward by name: calls through it must be seen.
    assert values["nn.gcn_forward.calls"] > 0
    assert values["model.forward_ssl.calls"] > 0
    assert values["datagen.generate_domain.calls"] > 0
    assert values["nn.gcn.flops"] > 0 and values["graphs.adj_bytes"] > 0
    assert values["pipeline.train_steps"] > 0 and values["pipeline.adapt_steps"] > 0
    assert values["trace_overhead"] > 0
    for name, func in originals.items():
        assert getattr(tard.model, name) is func


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.root("outer"):
        with tracer.root("inner"):
            sum(range(10000))
    outer = tracer._ids["bench.outer"]
    inner = tracer._ids["bench.inner"]
    total = tracer._end[1] - tracer._start[1]
    assert tracer.self_s[outer] == pytest.approx(total - tracer.self_s[inner])
    assert list(tracer._id) == [1, 0] and list(tracer._parent) == [0, -1]


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(tard.model, "restore")
    lines, result = run.run_workload("large-cascade", 4, 0.0, trace=True, tiny=True)
    assert result["correct"]
    assert result["metrics"]["model.restore.calls"]["value"] == 0
    summary = next(line for line in lines if line.startswith("summary: "))
    assert json.loads(summary[len("summary: "):])["absent"] == ["model.restore"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, workloads.WORKLOADS[name].why) for name in run.WORKLOAD_NAMES
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.per_layer_spec()


def test_fails_without_the_package():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=run.OUT_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "shift-mid",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
