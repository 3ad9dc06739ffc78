"""Smoke test of the multi-seed shift benchmark script."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_shift_benchmark.py"


def test_run_shift_benchmark_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    proc = subprocess.run(
        [
            sys.executable,
            str(SCRIPT),
            *("--seeds", "1", "--epochs", "1", "--ttt-steps", "1"),
            *("--out", str(out)),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "seed,acc_tard,acc_no_constraint,acc_no_ttt,lc_post_tard,"
        "lc_post_no_constraint,epochs_run,wall_s"
    )
    assert len(lines) == 2
