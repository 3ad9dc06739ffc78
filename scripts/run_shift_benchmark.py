#!/usr/bin/env python3
"""Multi-seed ablation on the synthetic shift benchmark.

Trains one model per seed on the source domain and evaluates the three
adaptation variants (full, no-constraint, no-ttt) on the shifted target
domain; the seeds run side by side, one forked worker per usable CPU.
Prints per-seed accuracies, the mean adaptation gain, and the
alignment-penalty comparison. ``--config`` takes the same JSON file as
``tard --config``; each seed overrides the file's seeds as ``tard gen
--seed`` does, which makes this the tool for re-calibrating the shift-mid
preset.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tard.cli import resolve_config
from tard.datagen import generate_domain
from tard.pipeline import fork_map
from tard.reporting import (
    VARIANT_FULL,
    VARIANT_NO_CONSTRAINT,
    VARIANT_NO_TTT,
    run_ablation,
)


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--config", metavar="PATH", help="JSON experiment config, as for tard")
    ap.add_argument("--out", type=Path, help="optional CSV of per-seed rows")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error("--seeds must be >= 1")
    return args


def main() -> int:
    args = parse_args()
    try:
        configs = [
            resolve_config(argparse.Namespace(config=args.config, seed=args.base_seed + i))
            for i in range(args.seeds)
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def one_seed(cfg) -> dict:
        t0 = time.perf_counter()
        train_events = generate_domain(cfg.domain)
        test_events = generate_domain(cfg.target_spec())
        result = run_ablation(train_events, test_events, cfg.train)
        acc = {v: m.accuracy for v, m in result.metrics.items()}
        lc = {v: float(np.mean([r.lc_post for r in recs])) for v, recs in result.records.items()}
        return {
            "seed": cfg.train.seed,
            "acc_tard": acc[VARIANT_FULL],
            "acc_no_constraint": acc[VARIANT_NO_CONSTRAINT],
            "acc_no_ttt": acc[VARIANT_NO_TTT],
            "lc_post_tard": lc[VARIANT_FULL],
            "lc_post_no_constraint": lc[VARIANT_NO_CONSTRAINT],
            "epochs_run": len(result.model.training_log),
            "wall_s": time.perf_counter() - t0,
        }

    t_start = time.perf_counter()
    rows = fork_map(one_seed, configs)
    for r in rows:
        print(
            f"seed {r['seed']}: tard={r['acc_tard']:.3f} "
            f"no-constraint={r['acc_no_constraint']:.3f} no-ttt={r['acc_no_ttt']:.3f} "
            f"lc {r['lc_post_tard']:.2f}/{r['lc_post_no_constraint']:.2f} "
            f"({r['epochs_run']} epochs, {r['wall_s']:.1f}s)"
        )

    total = time.perf_counter() - t_start
    tard = np.array([r["acc_tard"] for r in rows])
    no_c = np.array([r["acc_no_constraint"] for r in rows])
    no_t = np.array([r["acc_no_ttt"] for r in rows])
    gain = tard - no_t
    print(f"\nmeans: tard={tard.mean():.4f} no-constraint={no_c.mean():.4f} no-ttt={no_t.mean():.4f}")
    print(f"mean adaptation gain (tard - no-ttt): {gain.mean():+.4f}")
    print(f"tard >= no-ttt:        {int((tard >= no_t).sum())}/{len(rows)}")
    print(f"tard >= no-constraint: {int((tard >= no_c).sum())}/{len(rows)}")
    lc_wins = sum(r["lc_post_tard"] <= r["lc_post_no_constraint"] for r in rows)
    print(f"constraint lowers alignment penalty: {lc_wins}/{len(rows)}")
    print(f"total wall time: {total:.1f}s")

    if args.out:
        with args.out.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
