#!/usr/bin/env python3
"""Multi-seed ablation on the synthetic shift benchmark.

Trains one model per seed on the source domain and evaluates the three
adaptation variants (full, no-constraint, no-ttt) on the shifted target
domain. Prints per-seed accuracies, the mean adaptation gain, and the
alignment-penalty comparison. Flags override preset knobs, which makes this
the tool for re-calibrating the shift-mid preset.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tard.datagen import generate_domain
from tard.presets import shift_mid
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
    ap.add_argument("--out", type=Path, help="optional CSV of per-seed rows")
    # domain overrides
    ap.add_argument("--separation", type=float)
    ap.add_argument("--noise", type=float)
    ap.add_argument("--branching", type=float)
    ap.add_argument("--signal", type=float)
    # shift overrides
    ap.add_argument("--rotation", type=float, help="radians")
    ap.add_argument("--translation", type=float, help="target mean offset on coords 2..d-1")
    ap.add_argument("--translation-e01", type=float, default=0.0,
                    help="target mean offset on coords 0 and 1 (the class plane)")
    ap.add_argument("--noise-scale", type=float)
    ap.add_argument("--size-scale", type=float)
    ap.add_argument("--branching-shift", type=float)
    # training/adaptation overrides
    ap.add_argument("--epochs", type=int)
    ap.add_argument("--patience", type=int)
    ap.add_argument("--d-hidden", type=int)
    ap.add_argument("--alpha1", type=float)
    ap.add_argument("--alpha2", type=float)
    ap.add_argument("--ttt-steps", type=int)
    ap.add_argument("--ttt-lr", type=float)
    return ap.parse_args()


def build_config(args: argparse.Namespace, seed: int):
    cfg = shift_mid(seed)
    domain_over = {
        k: v
        for k, v in (
            ("class_mean_separation", args.separation),
            ("feature_noise_std", args.noise),
            ("branching_bias", args.branching),
            ("structure_signal_strength", args.signal),
        )
        if v is not None
    }
    shift_over = {
        k: v
        for k, v in (
            ("rotation_angle", args.rotation),
            ("noise_scale_factor", args.noise_scale),
            ("size_scale_factor", args.size_scale),
            ("branching_shift", args.branching_shift),
        )
        if v is not None
    }
    if args.translation is not None:
        d = cfg.domain.feature_dim
        e01 = args.translation_e01
        shift_over["mean_translation"] = (e01, e01) + (args.translation,) * (d - 2)
    train_over = {
        k: v
        for k, v in (
            ("epochs", args.epochs),
            ("patience", args.patience),
            ("d_hidden", args.d_hidden),
            ("alpha1", args.alpha1),
            ("alpha2", args.alpha2),
            ("ttt_steps", args.ttt_steps),
            ("ttt_lr", args.ttt_lr),
        )
        if v is not None
    }
    return replace(
        cfg,
        domain=replace(cfg.domain, **domain_over),
        shift=replace(cfg.shift, **shift_over) if shift_over else cfg.shift,
        train=replace(cfg.train, **train_over),
    )


def main() -> int:
    args = parse_args()
    rows = []
    t_start = time.perf_counter()
    for i in range(args.seeds):
        seed = args.base_seed + i
        cfg = build_config(args, seed)
        t0 = time.perf_counter()
        train_events = generate_domain(cfg.domain)
        test_events = generate_domain(cfg.target_spec())
        result = run_ablation(train_events, test_events, cfg.train)
        accs = {v: result.metrics[v].accuracy for v in result.metrics}
        lc_full = float(np.mean([r.lc_post for r in result.records[VARIANT_FULL]]))
        lc_nc = float(np.mean([r.lc_post for r in result.records[VARIANT_NO_CONSTRAINT]]))
        rows.append(
            {
                "seed": seed,
                "acc_tard": accs[VARIANT_FULL],
                "acc_no_constraint": accs[VARIANT_NO_CONSTRAINT],
                "acc_no_ttt": accs[VARIANT_NO_TTT],
                "lc_post_tard": lc_full,
                "lc_post_no_constraint": lc_nc,
                "epochs_run": len(result.model.training_log),
                "wall_s": time.perf_counter() - t0,
            }
        )
        r = rows[-1]
        print(
            f"seed {seed}: tard={r['acc_tard']:.3f} "
            f"no-constraint={r['acc_no_constraint']:.3f} no-ttt={r['acc_no_ttt']:.3f} "
            f"lc {lc_full:.2f}/{lc_nc:.2f} "
            f"({r['epochs_run']} epochs, {r['wall_s']:.1f}s)",
            flush=True,
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
