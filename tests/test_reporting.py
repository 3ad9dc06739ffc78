"""Metrics, ablation/sensitivity runners, and CSV/JSON/SVG report emission."""

import json
import xml.etree.ElementTree as ET
from dataclasses import replace
from xml.sax.saxutils import escape

import numpy as np
import pytest

from conftest import make_random_event, parse_report_csv
from tard import pipeline, reporting
from tard.datagen import generate_domain
from tard.graphs import to_prop_graph
from tard.model import GROUP_MAIN, GROUP_SHARED, GROUP_SSL, group_bytes
from tard.pipeline import EventRecord, TrainConfig, predict, train_phase
from tard.presets import shift_mid
from tard.reporting import (
    ABLATION_VARIANTS,
    ALPHA_GRID,
    VARIANT_FULL,
    VARIANT_NO_CONSTRAINT,
    VARIANT_NO_TTT,
    MetricsReport,
    compute_metrics,
    config_fingerprint,
    confusion_matrix,
    emit_report,
    run_ablation,
    run_sensitivity,
)


def _rec(label, pred, i=0):
    return EventRecord(
        event_id=f"e{i}",
        label=label,
        pred=pred,
        probs=(1.0, 0.0) if pred == 0 else (0.0, 1.0),
        ls_pre=0.7,
        ls_post=0.6,
        lc_pre=1.0,
        lc_post=0.5,
        steps=5,
        wall_time_s=0.0,
    )


# accuracy 4/6; each class has P = R = 2/3, so F1 = 2/3 for both
SIX_RECORDS = [
    _rec(0, 0, 0),
    _rec(0, 0, 1),
    _rec(0, 1, 2),
    _rec(1, 1, 3),
    _rec(1, 0, 4),
    _rec(1, 1, 5),
]


def _report(acc, f1, seed=0, fp="fp"):
    return MetricsReport(
        accuracy=acc,
        macro_f1=f1,
        per_class_f1=(f1, f1),
        class_counts=(3, 3),
        num_events=6,
        degenerate_classes=(),
        config_fingerprint=fp,
        seed=seed,
    )


def _tiny_sets():
    rng = np.random.default_rng(0)
    train = [
        make_random_event(rng, 5, 3, event_id=f"tr-{i}", label=i % 2) for i in range(6)
    ]
    test = [
        make_random_event(rng, 5, 3, event_id=f"te-{i}", label=i % 2) for i in range(4)
    ]
    return train, test


TINY_CONFIG = TrainConfig(epochs=2, d_hidden=4, ttt_steps=2, seed=3)


class TestComputeMetrics:
    def test_hand_oracle_four_of_six(self):
        rep = compute_metrics(SIX_RECORDS)
        assert rep.accuracy == pytest.approx(4 / 6, abs=1e-12)
        assert rep.per_class_f1 == pytest.approx((2 / 3, 2 / 3), abs=1e-12)
        assert rep.macro_f1 == pytest.approx(2 / 3, abs=1e-12)
        assert rep.class_counts == (3, 3)
        assert rep.num_events == 6
        assert rep.degenerate_classes == ()

    def test_all_correct(self):
        recs = [_rec(i % 2, i % 2, i) for i in range(8)]
        rep = compute_metrics(recs)
        assert rep.accuracy == 1.0
        assert rep.macro_f1 == 1.0

    def test_degenerate_class_flagged_with_zero_f1(self):
        # A third probability gives a third class, which no record has.
        rep = compute_metrics([replace(r, probs=(*r.probs, 0.0)) for r in SIX_RECORDS])
        assert rep.degenerate_classes == (2,)
        assert rep.per_class_f1[2] == 0.0
        assert rep.class_counts == (3, 3, 0)

    def test_macro_f1_invariant_under_relabeling(self):
        swapped = [_rec(1 - r.label, 1 - r.pred, i) for i, r in enumerate(SIX_RECORDS)]
        assert compute_metrics(swapped).macro_f1 == pytest.approx(
            compute_metrics(SIX_RECORDS).macro_f1, abs=1e-15
        )

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])

    def test_metrics_within_unit_interval(self):
        rep = compute_metrics(SIX_RECORDS)
        for v in (rep.accuracy, rep.macro_f1, *rep.per_class_f1):
            assert 0.0 <= v <= 1.0

    def test_confusion_matrix_counts(self):
        conf = confusion_matrix(SIX_RECORDS, 2)
        assert conf.tolist() == [[2, 1], [1, 2]]
        assert conf.sum() == len(SIX_RECORDS)

    def test_confusion_matrix_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            confusion_matrix([_rec(2, 0)], 2)


class TestFingerprint:
    def test_stable_and_twelve_hex_digits(self):
        cfg = TrainConfig()
        fp = config_fingerprint(cfg)
        assert fp == config_fingerprint(TrainConfig())
        assert len(fp) == 12
        int(fp, 16)

    def test_sensitive_to_any_field(self):
        assert config_fingerprint(TrainConfig()) != config_fingerprint(
            TrainConfig(alpha2=0.2)
        )


class TestEmitReport:
    def test_csv_round_trip_exact(self, tmp_path):
        rows = [
            ("tard", _report(2 / 3, 0.61803398874989485, seed=0)),
            ("tard-ttt", _report(0.5, 1 / 3, seed=1)),
        ]
        path = emit_report(rows, tmp_path / "r.csv", "csv", fingerprint="cafe01")
        fp, parsed = parse_report_csv(path)
        assert fp == "cafe01"
        assert parsed[0]["variant"] == "tard"
        assert parsed[0]["seed"] == 0
        assert parsed[0]["accuracy"] == 2 / 3
        assert parsed[0]["macro_f1"] == 0.61803398874989485
        assert parsed[1]["f1_class1"] == 1 / 3

    def test_csv_columns(self, tmp_path):
        path = emit_report([("tard", _report(0.5, 0.5))], tmp_path / "r.csv", "csv", "fp")
        header = path.read_text().splitlines()[1]
        assert header == "variant,seed,accuracy,macro_f1,f1_class0,f1_class1"

    def test_json_mirrors_reports(self, tmp_path):
        rep = _report(0.75, 0.7, seed=4, fp="aa")
        path = emit_report([("tard", rep)], tmp_path / "r.json", "json", "aa")
        payload = json.loads(path.read_text())
        assert payload["config_fingerprint"] == "aa"
        assert payload["reports"] == [
            {
                "variant": "tard",
                "accuracy": 0.75,
                "macro_f1": 0.7,
                "per_class_f1": [0.7, 0.7],
                "class_counts": [3, 3],
                "num_events": 6,
                "degenerate_classes": [],
                "config_fingerprint": "aa",
                "seed": 4,
            }
        ]

    def test_svg_is_well_formed(self, tmp_path):
        rows = [(f"v{i}", _report(0.4 + 0.05 * i, 0.4)) for i in range(5)]
        path = emit_report(rows, tmp_path / "r.svg", "svg", "fp", title="ablation")
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        body = path.read_text()
        assert "polyline" in body and "ablation" in body

    def test_svg_text_escapes_as_saxutils_does(self, monkeypatch):
        rows = [
            ("a&b <c> \"d\" 'e'", _report(0.5, 0.4)),
            ("&amp; >> <<", _report(0.7, 0.6)),
        ]
        args = (rows, "f&p<'\">", "t & <title> 'q' \"x\"")
        ours = reporting._render_chart(*args)
        monkeypatch.setattr(reporting, "_escape", escape)
        assert ours == reporting._render_chart(*args)
        assert "&amp;amp; &gt;&gt; &lt;&lt;" in ours

    def test_thirty_row_files_under_ten_kb(self, tmp_path):
        rows = [
            (f"{v}/s{s}", _report(0.61234567, 0.59876543, seed=s))
            for v in ABLATION_VARIANTS
            for s in range(10)
        ]
        for fmt in ("csv", "svg"):
            path = emit_report(rows, tmp_path / f"r.{fmt}", fmt, "fp")
            assert path.stat().st_size < 10_000, fmt

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path / "r.csv", "csv", "fp")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([("a", _report(0.5, 0.5))], tmp_path / "r.xyz", "xyz", "fp")


class TestRunAblation:
    def test_three_variants_from_one_checkpoint(self):
        train, test = _tiny_sets()
        result = run_ablation(train, test, TINY_CONFIG)
        assert set(result.metrics) == set(ABLATION_VARIANTS)
        assert set(result.records) == set(ABLATION_VARIANTS)
        for recs in result.records.values():
            assert len(recs) == len(test)
        # all three report the shared seed, distinct adaptation fingerprints
        fps = {v: m.config_fingerprint for v, m in result.metrics.items()}
        assert fps[VARIANT_FULL] != fps[VARIANT_NO_TTT]
        assert all(m.seed == TINY_CONFIG.seed for m in result.metrics.values())

    def test_no_ttt_variant_equals_plain_inference(self):
        train, test = _tiny_sets()
        result = run_ablation(train, test, TINY_CONFIG)
        params = result.model.params
        for rec in result.records[VARIANT_NO_TTT]:
            event = next(e for e in test if e.id == rec.event_id)
            pred, probs = predict(to_prop_graph(event), params)
            assert rec.pred == pred
            assert rec.probs == tuple(float(p) for p in probs)

    def test_variants_share_trained_parameters(self):
        train, test = _tiny_sets()
        result = run_ablation(train, test, TINY_CONFIG)
        fresh = train_phase(train, TINY_CONFIG)
        for g in (GROUP_SHARED, GROUP_MAIN, GROUP_SSL):
            assert group_bytes(result.model.params, g) == group_bytes(fresh.params, g)


class TestRunSensitivity:
    def test_grid_has_nine_points_spanning_zero_to_ten(self):
        assert len(ALPHA_GRID) == 9
        assert ALPHA_GRID[0] == 0.0
        assert ALPHA_GRID[-1] == 10.0
        assert list(ALPHA_GRID) == sorted(ALPHA_GRID)

    def test_alpha2_sweep_exactly_nine_rows(self):
        train, test = _tiny_sets()
        rows = run_sensitivity(train, test, TINY_CONFIG, "alpha2")
        assert [v for v, _ in rows] == list(ALPHA_GRID)
        assert all(isinstance(rep, MetricsReport) for _, rep in rows)

    def test_alpha1_zero_row_matches_pure_supervised_training(self):
        train, test = _tiny_sets()
        cfg = TrainConfig(epochs=1, d_hidden=4, ttt_steps=1, seed=5)
        rows = run_sensitivity(train, test, cfg, "alpha1")
        assert len(rows) == 9
        zero_rep = rows[0][1]
        from tard.pipeline import evaluate

        supervised = train_phase(train, replace(cfg, alpha1=0.0))
        recs = evaluate(test, supervised)
        direct = compute_metrics(
            recs, fingerprint=zero_rep.config_fingerprint, seed=cfg.seed
        )
        assert direct == zero_rep

    @pytest.mark.parametrize("which", ["alpha1", "alpha2"])
    def test_grid_is_the_same_pooled_and_serial(self, monkeypatch, pools, which):
        train, test = _tiny_sets()
        cfg = TrainConfig(epochs=1, d_hidden=4, ttt_steps=1, seed=5)
        rows = {}
        for cpus in (1, 2):
            monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
            rows[cpus] = run_sensitivity(train, test, cfg, which)
        assert pools == ["fork"]
        assert rows[1] == rows[2]

    def test_rejects_unknown_hyperparameter(self):
        train, test = _tiny_sets()
        with pytest.raises(ValueError):
            run_sensitivity(train, test, TINY_CONFIG, "epochs")


class TestShiftedBenchmark:
    """Behavior of the runners on the calibrated shifted benchmark."""

    def test_variant_accuracy_ordering_across_seeds(self, shift_benchmark):
        # Full adaptation should beat adaptation without the alignment
        # penalty, which in turn should beat no adaptation at all, in most
        # seeds (the chain may break on individual draws).
        results, _ = shift_benchmark
        chains = 0
        for result in results:
            acc = {v: m.accuracy for v, m in result.metrics.items()}
            chains += (
                acc[VARIANT_FULL]
                >= acc[VARIANT_NO_CONSTRAINT]
                >= acc[VARIANT_NO_TTT]
            )
        assert chains >= 7

    def test_alpha2_sweep_peaks_off_the_grid_extremes(self):
        # The alignment weight trades off against the self-supervised term,
        # so the best accuracy should be attainable at an interior grid
        # point in most seeds rather than only at 0 or the largest value.
        interior_best = 0
        for seed in range(5):
            exp = shift_mid(seed)
            train = generate_domain(exp.domain)
            test = generate_domain(exp.target_spec())
            rows = run_sensitivity(train, test, exp.train, "alpha2")
            accs = [m.accuracy for _, m in rows]
            interior_best += max(accs) in accs[1:-1]
        assert interior_best >= 3
