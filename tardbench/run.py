#!/usr/bin/env python3
"""tard benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 tardbench/run.py --workload shift-mid --seed 0 --seconds 45 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` makes a traced pass between two untraced ones and
reports per-layer calls, self time, computed counts and the tracing
overhead. ``--workload all`` runs every workload, each in its own process.
The last line of stdout is the JSON result; the lines before it give each
metric with its unit and sample count, the checks, the accuracy, the records
checksum and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".tardbench"

WORKLOAD_NAMES = ("shift-mid", "large-cascade")

#: End-to-end metrics, reported by every workload with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("train_steps_per_s", "steps/s"),
    ("eval_events_per_s", "events/s"),
    ("online_events_per_s", "events/s"),
    ("event_ms_p50", "ms"),
    ("event_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Printed with the metrics but not in the JSON result, because none of them
#: can carry a bound on its spread over seeds. accuracy is a fixed function of
#: the seed and ranges 0.35-0.99 over seeds 0-9 of shift-mid; adapt_gain and
#: events_failed are often exactly 0. io_s is a median of 0.2-0.4 s JSON round
#: trips, whose spread over ten seeds ran from 0.17 to 0.45 on a shared 2-vCPU
#: machine whose speed swings by up to 1.6x within seconds.
REPORTED = (
    ("io_s", "s"),
    ("accuracy", "fraction"),
    ("adapt_gain", "fraction"),
    ("events_failed", "count"),
)


def load_tard():
    """Import the package from this checkout's ``src``; exit non-zero if it is missing."""
    src = ROOT / "src"
    if not (src / "tard" / "__init__.py").is_file():
        sys.exit(f"tardbench: no tard package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tard  # noqa: F401

    return tard


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "TARD_THREADS": os.environ.get("TARD_THREADS", "unset"),
        "git_commit": git_commit(),
        "workload": workload.name,
        "why": workload.why,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _summarise_records(samples, checks, wl) -> dict:
    """Accuracy, gain, flips and checksum of the full-variant batch records."""
    if samples.full is None or samples.no_ttt is None:
        return {"accuracy": math.nan, "adapt_gain": math.nan, "scored": 0, "records_sha256": "none"}
    checks.check("records_repeat", len(samples.checksums) == 1, "batch records differ between rounds")
    acc = wl.accuracy(samples.full)
    fixed, broken = wl.flips(samples.no_ttt, samples.full)
    return {
        "accuracy": acc,
        "adapt_gain": acc - wl.accuracy(samples.no_ttt),
        "flips_fixed": fixed,
        "flips_broken": broken,
        "scored": len(samples.full),
        "records_sha256": wl.records_checksum(samples.full),
    }


def _rate(pairs) -> tuple[float, int]:
    """Work over time summed across all samples, so each sample counts by its length."""
    return sum(w for w, _ in pairs) / sum(t for _, t in pairs), len(pairs)


def run_untraced(workload, seed, seconds, tiny, workdir, wl):
    checks, samples = wl.Checks(), wl.Samples()
    rounds = wl.measure(workload, seed, tiny, seconds, workdir, checks, samples)
    summary = _summarise_records(samples, checks, wl)
    summary["rounds"] = rounds
    lat = samples.latencies_ms
    values = {
        "setup_s": (statistics.median(samples.setup_s), len(samples.setup_s)),
        "train_steps_per_s": _rate(samples.train_steps),
        "eval_events_per_s": _rate(samples.eval_events),
        "online_events_per_s": _rate(samples.online_events),
        "io_s": (statistics.median(samples.io_s), len(samples.io_s)),
    }
    values["event_ms_p50"] = (float(np.percentile(lat, 50)), len(lat))
    values["event_ms_p95"] = (float(np.percentile(lat, 95)), len(lat))
    values["peak_rss_mb"] = (peak_rss_mb(), 1)
    return values, summary, checks


def run_traced(workload, seed, tiny, workdir, wl, tracing, spans_path):
    """Untraced, traced, untraced passes, each a set-up and one round.

    The traced pass sits between two untraced ones, so warm-up and drift in
    machine speed weigh on both sides of ``trace_overhead`` alike.
    """
    checks = wl.Checks()
    tracer = tracing.Tracer()
    walls = {}
    for name in ("untraced", "traced", "untraced_again"):
        samples = wl.Samples()
        span = wl.no_span
        if name == "traced":
            tracer.install()
            span = tracer.root
        start = time.perf_counter()
        try:
            with span("setup"):
                state, _, _ = wl.setup(workload, seed, tiny)
            wl.run_round(workload, state, 0, workdir, checks, samples, span)
        finally:
            walls[name] = time.perf_counter() - start
            tracer.uninstall()
        if name == "traced":
            traced = samples
    summary = _summarise_records(traced, checks, wl)
    tracer.counts["pipeline.flips_fixed"] = summary.get("flips_fixed", 0)
    tracer.counts["pipeline.flips_broken"] = summary.get("flips_broken", 0)
    values = {k: (v, 1) for k, v in tracer.per_layer().items()}
    untraced = (walls["untraced"] + walls["untraced_again"]) / 2
    values["trace_overhead"] = (walls["traced"] / untraced, 1)
    summary["spans"] = tracer.write_spans(spans_path)
    summary["spans_file"] = str(spans_path.relative_to(ROOT))
    summary["absent"] = tracer.absent
    summary["uncounted"] = sorted(tracer.uncounted)
    summary["wall_s"] = walls
    return values, summary, checks


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (report lines, result object)."""
    import tracing
    import workloads as wl

    workload = wl.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="io-", dir=OUT_DIR) as tmp:
        if trace:
            spans = OUT_DIR / f"spans-{name}-seed{seed}.tsv.gz"
            values, summary, checks = run_traced(workload, seed, tiny, Path(tmp), wl, tracing, spans)
            spec = [(n, u) for n, u, _ in tracing.per_layer_spec()]
        else:
            values, summary, checks = run_untraced(workload, seed, seconds, tiny, Path(tmp), wl)
            spec = END_TO_END

    lines = [
        f"tard benchmark: workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}",
        "env: " + json.dumps(environment(workload), sort_keys=True),
        f"{'metric':<44} {'value':>16} {'unit':<14} samples",
    ]
    metrics = {}
    for metric, unit in spec:
        value, count = values[metric]
        metrics[metric] = {"value": value, "unit": unit}
        lines.append(f"{metric:<44} {value:>16.6g} {unit:<14} {count}")
    if not trace:
        scored = summary["scored"]
        reported = {
            "io_s": values["io_s"],
            "accuracy": (summary["accuracy"], scored),
            "adapt_gain": (summary["adapt_gain"], scored),
            "events_failed": (checks.failed, checks.attempted),
        }
        for metric, unit in REPORTED:
            value, count = reported[metric]
            lines.append(f"{metric + ' (not gated)':<44} {value:>16.6g} {unit:<14} {count}")
    for check, ok in sorted(checks.passed.items()):
        detail = checks.first_failure.get(check, "")
        lines.append(f"check {check}: {'PASS' if ok else 'FAIL ' + detail}")
    lines.append("summary: " + json.dumps(summary, sort_keys=True))
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return lines, result


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    if args.workload == "all":
        return run_all(args)
    load_tard()
    lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
