"""Metrics (accuracy, macro-F1, per-class F1), the variants runner behind the
ablation and the sensitivity sweeps, and CSV/JSON/SVG report emission.

All emitted files embed a short fingerprint of the resolved configuration so
a result can always be traced back to the exact settings that produced it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, is_dataclass, replace
from pathlib import Path
from typing import Hashable, Mapping, Sequence

import numpy as np

from .graphs import PropagationEvent
from .pipeline import (
    EventRecord,
    TrainConfig,
    TrainedModel,
    evaluate,
    fork_map,
    train_phase,
    with_config,
)

VARIANT_FULL = "tard"
VARIANT_NO_CONSTRAINT = "tard-constraint"
VARIANT_NO_TTT = "tard-ttt"
#: Full TARD, no alignment constraint, no test-time training: one checkpoint.
ABLATION = {VARIANT_FULL: {}, VARIANT_NO_CONSTRAINT: {"alpha2": 0.0}, VARIANT_NO_TTT: {"ttt_steps": 0}}

# Sweep grid: nine points spanning [0, 10], log-spaced plus zero.
ALPHA_GRID = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)

SWEEPABLE = ("alpha1", "alpha2")


def config_fingerprint(config) -> str:
    """12-hex-digit digest of a canonically serialized configuration."""
    if is_dataclass(config) and not isinstance(config, type):
        config = asdict(config)
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate evaluation result for one (variant, seed) run.

    ``degenerate_classes`` lists classes with neither instances nor
    predictions; their F1 is 0 by convention.
    """

    accuracy: float
    macro_f1: float
    per_class_f1: tuple[float, ...]
    class_counts: tuple[int, ...]
    num_events: int
    degenerate_classes: tuple[int, ...]
    config_fingerprint: str
    seed: int


def confusion_matrix(records: Sequence[EventRecord], num_classes: int) -> np.ndarray:
    """C x C counts, rows = true class, columns = predicted class."""
    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
    for r in records:
        if not 0 <= r.label < num_classes or not 0 <= r.pred < num_classes:
            raise ValueError(
                f"record {r.event_id!r} has label/pred outside [0, {num_classes})"
            )
        conf[r.label, r.pred] += 1
    return conf


def compute_metrics(
    records: Sequence[EventRecord], fingerprint: str = "", seed: int = 0
) -> MetricsReport:
    """Accuracy, per-class F1 (0 when precision+recall is 0), macro-F1, over
    as many classes as a record has probabilities."""
    if not records:
        raise ValueError("no records to score")
    num_classes = len(records[0].probs)
    conf = confusion_matrix(records, num_classes)
    total = int(conf.sum())
    accuracy = float(np.trace(conf)) / total

    per_class = []
    degenerate = []
    for c in range(num_classes):
        tp = float(conf[c, c])
        fp = float(conf[:, c].sum()) - tp
        fn = float(conf[c, :].sum()) - tp
        if tp + fp + fn == 0:
            degenerate.append(c)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        if precision + recall > 0:
            per_class.append(2 * precision * recall / (precision + recall))
        else:
            per_class.append(0.0)

    return MetricsReport(
        accuracy=accuracy,
        macro_f1=float(np.mean(per_class)),
        per_class_f1=tuple(per_class),
        class_counts=tuple(int(v) for v in conf.sum(axis=1)),
        num_events=total,
        degenerate_classes=tuple(degenerate),
        config_fingerprint=fingerprint,
        seed=seed,
    )


@dataclass
class VariantsResult:
    """Adaptation variants of one trained checkpoint: metrics and records by
    variant name, in the order the variants were given."""

    model: TrainedModel
    metrics: dict[Hashable, MetricsReport]
    records: dict[Hashable, list[EventRecord]]


def run_variants(
    model: TrainedModel, test_set: Sequence[PropagationEvent], overrides: Mapping
) -> VariantsResult:
    """Evaluate ``with_config(model, **o)`` for each override set ``o``, named
    by any hashable, and score it under its config fingerprint. The variants
    run side by side in one ``fork_map``; a single variant runs in-process,
    where its ``evaluate`` pools the events. Records are the same either way."""

    def run(o: Mapping) -> tuple[MetricsReport, list[EventRecord]]:
        variant = with_config(model, **o)
        recs = evaluate(test_set, variant)
        return compute_metrics(recs, config_fingerprint(variant.config), model.config.seed), recs

    metrics, records = zip(*fork_map(run, list(overrides.values())))
    return VariantsResult(model, dict(zip(overrides, metrics)), dict(zip(overrides, records)))


def run_ablation(
    train_set: Sequence[PropagationEvent],
    test_set: Sequence[PropagationEvent],
    config: TrainConfig,
) -> VariantsResult:
    """Train once, evaluate the three ablation variants on the same checkpoint."""
    return run_variants(train_phase(train_set, config), test_set, ABLATION)


def run_sensitivity(
    train_set: Sequence[PropagationEvent],
    test_set: Sequence[PropagationEvent],
    base_config: TrainConfig,
    which: str,
) -> list[tuple[float, MetricsReport]]:
    """Evaluate the nine-point grid for alpha1 or alpha2.

    alpha2 only steers adaptation, so its grid values are ``run_variants``
    of one checkpoint. alpha1 is a training-time weight: each grid value
    trains afresh, the values side by side through ``fork_map``.
    """
    if which not in SWEEPABLE:
        raise ValueError(f"which must be one of {SWEEPABLE}, got {which!r}")
    if which == "alpha2":
        grid = {v: {"alpha2": v} for v in ALPHA_GRID}
        return list(run_variants(train_phase(train_set, base_config), test_set, grid).metrics.items())

    def row(value: float) -> tuple[float, MetricsReport]:
        model = train_phase(train_set, replace(base_config, alpha1=value))
        return value, run_variants(model, test_set, {value: {}}).metrics[value]

    return fork_map(row, ALPHA_GRID)


# --- report files -----------------------------------------------------------

def _csv_header(num_classes: int) -> list[str]:
    return ["variant", "seed", "accuracy", "macro_f1"] + [
        f"f1_class{c}" for c in range(num_classes)
    ]


def emit_report(
    rows: Sequence[tuple[str, MetricsReport]],
    path: str | Path,
    format: str,
    fingerprint: str,
    title: str = "results",
) -> Path:
    """Write labeled metric rows as CSV, JSON, or an SVG chart.

    Floats in the CSV are written with repr precision so reparsing
    reproduces them exactly.
    """
    if not rows:
        raise ValueError("no reports to emit")
    path = Path(path)
    if format == "csv":
        num_classes = len(rows[0][1].per_class_f1)
        with path.open("w", encoding="utf-8", newline="") as fh:
            fh.write(f"# config={fingerprint}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_csv_header(num_classes))
            for variant, rep in rows:
                writer.writerow(
                    [variant, rep.seed, repr(rep.accuracy), repr(rep.macro_f1)]
                    + [repr(v) for v in rep.per_class_f1]
                )
    elif format == "json":
        payload = {
            "config_fingerprint": fingerprint,
            "reports": [
                {"variant": variant, **asdict(rep)} for variant, rep in rows
            ],
        }
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    elif format == "svg":
        path.write_text(_render_chart(rows, fingerprint, title), encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {format!r}")
    return path


_SVG_WIDTH = 640
_SVG_HEIGHT = 400
_MARGIN_LEFT = 60
_MARGIN_RIGHT = 20
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 80
_SERIES_STYLE = (("accuracy", "#1f77b4"), ("macro_f1", "#d62728"))


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text, ``&`` first (what
    ``xml.sax.saxutils.escape`` does, without importing its urllib/ssl chain)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _render_chart(
    rows: Sequence[tuple[str, MetricsReport]], fingerprint: str, title: str
) -> str:
    """Single-panel SVG line chart of accuracy and macro-F1 per labeled row."""
    inner_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    inner_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    n = len(rows)

    def x_pos(i: int) -> float:
        if n == 1:
            return _MARGIN_LEFT + inner_w / 2
        return _MARGIN_LEFT + inner_w * i / (n - 1)

    def y_pos(v: float) -> float:
        return _MARGIN_TOP + inner_h * (1.0 - v)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<title>{_escape(title)}</title>',
        f'<text x="{_MARGIN_LEFT}" y="20" font-size="14">{_escape(title)} '
        f'(config {_escape(fingerprint)})</text>',
        # axes
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{_MARGIN_TOP + inner_h}" stroke="black"/>',
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP + inner_h}" '
        f'x2="{_MARGIN_LEFT + inner_w}" y2="{_MARGIN_TOP + inner_h}" stroke="black"/>',
        f'<text x="12" y="{_MARGIN_TOP + inner_h / 2:.1f}" font-size="11" '
        f'transform="rotate(-90 12 {_MARGIN_TOP + inner_h / 2:.1f})">metric value</text>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_pos(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 4}" y1="{y:.1f}" x2="{_MARGIN_LEFT}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.1f}" font-size="10" text-anchor="end">{tick:g}</text>'
        )
    for i, (label, _) in enumerate(rows):
        x = x_pos(i)
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_TOP + inner_h + 14}" font-size="10" '
            f'text-anchor="end" transform="rotate(-35 {x:.1f} {_MARGIN_TOP + inner_h + 14})">'
            f"{_escape(label)}</text>"
        )
    for attr, color in _SERIES_STYLE:
        points = " ".join(
            f"{x_pos(i):.2f},{y_pos(getattr(rep, attr)):.2f}"
            for i, (_, rep) in enumerate(rows)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        for i, (_, rep) in enumerate(rows):
            parts.append(
                f'<circle cx="{x_pos(i):.2f}" cy="{y_pos(getattr(rep, attr)):.2f}" '
                f'r="2.5" fill="{color}"/>'
            )
    legend_y = _MARGIN_TOP - 14
    legend_x = _MARGIN_LEFT + inner_w - 180
    for j, (attr, color) in enumerate(_SERIES_STYLE):
        parts.append(
            f'<rect x="{legend_x + 90 * j}" y="{legend_y - 8}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 90 * j + 14}" y="{legend_y + 1}" font-size="10">{attr}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
