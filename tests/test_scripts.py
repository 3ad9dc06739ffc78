"""Smoke test of the multi-seed shift benchmark script."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_shift_benchmark.py"


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=300
    )


def test_run_shift_benchmark_writes_csv(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"epochs": 1, "ttt_steps": 1}}))
    out = tmp_path / "rows.csv"
    proc = _run("--seeds", "1", "--config", str(config), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "seed,acc_tard,acc_no_constraint,acc_no_ttt,lc_post_tard,"
        "lc_post_no_constraint,epochs_run,wall_s"
    )
    assert len(lines) == 2


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"train": {"epochs": 0}}, "'train.epochs' is out of range"),
        (
            {"domain": {"feature_dim": 3, "mean_translation": [1, 2, 3]}},
            "'shift.mean_translation' has length 8",
        ),
    ],
    ids=["range", "cross-section"],
)
def test_bad_config_exits_2_without_traceback(tmp_path, payload, named):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "rows.csv"
    proc = _run("--seeds", "2", "--config", str(config), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: config file {config}: ")
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_zero_seeds_exits_2(tmp_path):
    proc = _run("--seeds", "0", "--out", str(tmp_path / "rows.csv"))
    assert proc.returncode == 2
    assert "--seeds must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr
