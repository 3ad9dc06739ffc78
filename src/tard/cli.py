"""Command-line entry point: dataset generation, training, evaluation,
ablations, and sensitivity sweeps as one-shot reproducible commands.

Settings resolve in three layers: built-in defaults, then the --config JSON
file, then individual flags. Every command echoes the fully resolved
configuration and its fingerprint to stderr before doing work; result files
embed the same fingerprint. stdout carries only the final metric row (eval),
so it can be piped into tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .datagen import DomainSpec, ShiftSpec, generate_domain, read_dataset, write_dataset
from .graphs import InvalidEventError
from .pipeline import (
    ADAPTATION_MODES,
    TrainConfig,
    _check_file_values,
    _check_keys,
    _check_record,
    architecture_mismatch,
    fork_map,
    load_checkpoint,
    save_checkpoint,
    train_phase,
)
from .presets import ExperimentConfig, shift_mid
from .reporting import (
    SWEEPABLE,
    config_fingerprint,
    emit_report,
    run_ablation,
    run_sensitivity,
    run_variants,
)

TRAIN_FILE = "train.jsonl"
VAL_FILE = "val.jsonl"
TEST_FILE = "test.jsonl"
META_FILE = "meta.json"
CHECKPOINT_FILE = "model.json"

#: TrainConfig fields that a flag of the same argparse dest overrides.
TRAIN_FLAGS = ("seed", "alpha1", "alpha2", "ttt_steps", "ttt_lr", "adaptation_mode")

#: Config-file sections and the dataclass whose fields each may set.
CONFIG_SECTIONS = {"domain": DomainSpec, "shift": ShiftSpec, "train": TrainConfig}
#: Every key a config file may set, checked as a checkpoint's are, but any may be left out.
CONFIG_RECORD = {"seed": int, "val_events": int, "test_events": int, **CONFIG_SECTIONS}


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
        raise ValueError(f"config file {path}: unreadable as JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    _check_record(f"config file {path}", "", data, CONFIG_RECORD, partial=True)
    return data


def resolve_config(
    args: argparse.Namespace, train: TrainConfig | None = None
) -> ExperimentConfig:
    """defaults <- config file <- flags, validated by the component types.

    ``train``, when given (a checkpoint's config), stands in for the default
    train section, and the file's top-level ``seed`` then leaves it alone.
    The file's values are checked over the defaults before any flag is
    applied, so an error names the file only when the file is at fault. The
    checked sections are the ones returned; flags apply to them through
    ``replace``.
    """
    path = getattr(args, "config", None)
    source = f"config file {path}"
    file_cfg = _load_config_file(path) if path else {}
    seed_flag = getattr(args, "seed", None)
    seed = file_cfg.get("seed", 0) if seed_flag is None else seed_flag
    if seed_flag is None:
        _check_keys(source, "", TrainConfig, {"seed": seed})
    base = shift_mid(seed)
    if train is not None:
        base = replace(base, train=train)
    sections = {
        section: _check_file_values(
            source, f"{section}.", cls, file_cfg.get(section, {}), getattr(base, section)
        )
        for section, cls in CONFIG_SECTIONS.items()
    }
    counts = {k: file_cfg[k] for k in ("val_events", "test_events") if k in file_cfg}
    cfg = _check_file_values(source, "", ExperimentConfig, counts, base)
    if seed_flag is not None:
        sections["domain"] = replace(sections["domain"], seed=seed_flag)
    flags = {f: getattr(args, f) for f in TRAIN_FLAGS if getattr(args, f, None) is not None}
    sections["train"] = replace(sections["train"], **flags)
    try:
        return replace(cfg, **sections)
    except ValueError as exc:  # the file's sections contradict each other
        raise ValueError(f"{source}: {exc}") from None


def echo_config(cfg: ExperimentConfig) -> str:
    payload = asdict(cfg)
    fingerprint = config_fingerprint(payload)
    _progress("resolved config:")
    _progress(json.dumps(payload, sort_keys=True, indent=2))
    _progress(f"config_hash={fingerprint}")
    return fingerprint


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    fingerprint = echo_config(cfg)
    out = _out_dir(args)

    train_events = generate_domain(cfg.domain)
    val_events = generate_domain(cfg.val_spec()) if cfg.val_events > 0 else []
    target_spec = cfg.target_spec()
    test_events = generate_domain(target_spec)

    write_dataset(train_events, out / TRAIN_FILE)
    write_dataset(val_events, out / VAL_FILE)
    write_dataset(test_events, out / TEST_FILE)
    meta = {
        "feature_dim": cfg.domain.feature_dim,
        "num_classes": 2,
        "config_fingerprint": fingerprint,
        "domain": asdict(cfg.domain),
        "shift": asdict(cfg.shift),
        "target_domain": asdict(target_spec),
        "counts": {
            "train": len(train_events),
            "val": len(val_events),
            "test": len(test_events),
        },
    }
    (out / META_FILE).write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    # round-trip validation: the files must parse back
    for name in (TRAIN_FILE, VAL_FILE, TEST_FILE):
        read_dataset(out / name)
    _progress(
        f"wrote {len(train_events)} train / {len(val_events)} val / "
        f"{len(test_events)} test events to {out}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    echo_config(cfg)
    train_events = read_dataset(Path(args.data_dir) / TRAIN_FILE)
    _progress(f"training on {len(train_events)} events ...")
    model = train_phase(train_events, cfg.train)
    out = _out_dir(args)
    ckpt_path = out / CHECKPOINT_FILE
    save_checkpoint(model, ckpt_path)
    load_checkpoint(ckpt_path)  # validation round-trip
    last = model.training_log[-1]
    _progress(
        f"final L_m={last['l_m']:.6f} L_s={last['l_s']:.6f} "
        f"after {len(model.training_log)} epochs; checkpoint: {ckpt_path}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model = load_checkpoint(args.checkpoint)
    train = resolve_config(args, train=model.config).train
    bad = architecture_mismatch(asdict(train), model.params.dims)
    if bad is not None:  # only a config file sets the architecture
        key, value, have = bad
        raise ValueError(
            f"config file {args.config}: 'train.{key}' is {value}, but the checkpoint has {have}"
        )
    model = replace(model, config=train)
    fingerprint = config_fingerprint(model.config)
    _progress("resolved eval config:")
    _progress(json.dumps(asdict(model.config), sort_keys=True, indent=2))
    _progress(f"config_hash={fingerprint}")

    test_events = read_dataset(args.test_data)
    try:
        result = run_variants(model, test_events, {"eval": {}})
    except ValueError as exc:  # the test set does not fit the checkpoint
        raise ValueError(f"{args.test_data}: {exc}") from None
    records, report = result.records["eval"], result.metrics["eval"]

    out = _out_dir(args)
    with (out / "records.jsonl").open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict()) + "\n")
    emit_report(
        [(model.config.adaptation_mode, report)],
        out / "metrics.json",
        "json",
        fingerprint=fingerprint,
    )
    _progress(f"wrote {out / 'records.jsonl'} and {out / 'metrics.json'}")
    row = [report.accuracy, report.macro_f1, *report.per_class_f1]
    print("\t".join(f"{v:.4f}" for v in row))
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    fingerprint = echo_config(cfg)
    data_dir = Path(args.data_dir)
    train_events = read_dataset(data_dir / TRAIN_FILE)
    test_events = read_dataset(data_dir / TEST_FILE)

    def one_seed(i: int) -> list:
        seed = cfg.train.seed + i
        _progress(f"ablation seed {seed} ({i + 1}/{args.seeds}) ...")
        result = run_ablation(train_events, test_events, replace(cfg.train, seed=seed))
        return list(result.metrics.items())

    rows = [row for seed_rows in fork_map(one_seed, range(args.seeds)) for row in seed_rows]
    out = _out_dir(args)
    emit_report(rows, out / "ablation.csv", "csv", fingerprint=fingerprint)
    emit_report(rows, out / "ablation.json", "json", fingerprint=fingerprint)
    emit_report(
        rows, out / "ablation.svg", "svg", fingerprint=fingerprint, title="ablation"
    )
    _progress(f"wrote ablation report ({len(rows)} rows) to {out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    fingerprint = echo_config(cfg)
    data_dir = Path(args.data_dir)
    train_events = read_dataset(data_dir / TRAIN_FILE)
    test_events = read_dataset(data_dir / TEST_FILE)
    _progress(f"sweeping {args.which} ...")
    table = run_sensitivity(train_events, test_events, cfg.train, args.which)
    rows = [(f"{args.which}={value:g}", report) for value, report in table]
    out = _out_dir(args)
    emit_report(rows, out / f"sweep_{args.which}.csv", "csv", fingerprint=fingerprint)
    emit_report(
        rows,
        out / f"sweep_{args.which}.svg",
        "svg",
        fingerprint=fingerprint,
        title=f"{args.which} sensitivity",
    )
    _progress(f"wrote sweep report ({len(rows)} rows) to {out}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON experiment config")
    common.add_argument("--seed", type=int, help="experiment seed (data + training)")
    common.add_argument("--alpha1", type=float, help="SSL weight during training")
    common.add_argument("--alpha2", type=float, help="alignment weight during adaptation")
    common.add_argument("--ttt-steps", type=int, dest="ttt_steps", help="adaptation steps per event")
    common.add_argument("--ttt-lr", type=float, dest="ttt_lr", help="adaptation learning rate")
    common.add_argument(
        "--mode", choices=ADAPTATION_MODES, dest="adaptation_mode", help="adaptation mode"
    )

    parser = argparse.ArgumentParser(
        prog="tard",
        description="Test-time adaptation for propagation-graph classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[common], help="generate source/target datasets")
    p_gen.add_argument("--out", required=True, metavar="DIR")
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", parents=[common], help="train a model")
    p_train.add_argument("data_dir", help="directory holding train.jsonl")
    p_train.add_argument("--out", required=True, metavar="DIR")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", parents=[common], help="adapt and evaluate")
    p_eval.add_argument("checkpoint", help="model checkpoint JSON")
    p_eval.add_argument("test_data", help="test dataset JSONL")
    p_eval.add_argument("--out", required=True, metavar="DIR")
    p_eval.set_defaults(func=cmd_eval)

    p_ablate = sub.add_parser("ablate", parents=[common], help="run adaptation ablations")
    p_ablate.add_argument("data_dir", help="directory holding train/test JSONL")
    p_ablate.add_argument("--seeds", type=_positive_int, default=1, help="number of seeds")
    p_ablate.add_argument("--out", required=True, metavar="DIR")
    p_ablate.set_defaults(func=cmd_ablate)

    p_sweep = sub.add_parser("sweep", parents=[common], help="hyperparameter sensitivity")
    p_sweep.add_argument("data_dir", help="directory holding train/test JSONL")
    p_sweep.add_argument("--which", choices=SWEEPABLE, required=True)
    p_sweep.add_argument("--out", required=True, metavar="DIR")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, InvalidEventError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
