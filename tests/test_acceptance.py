"""Acceptance gate: nine contract-level checks, one test per criterion.

Every test registers a PASS/FAIL line (printed in the pytest terminal
summary under "acceptance criteria") before asserting, so a red run still
reports the verdict of each criterion.
"""

import json
import time

import numpy as np

from conftest import (
    finite_difference_check,
    make_random_event,
    make_random_graph,
    record_acceptance,
)
from tard.cli import main as cli_main
from tard.graphs import PropagationEvent, to_prop_graph
from tard.model import (
    GROUP_MAIN,
    ModelDims,
    compute_embedding_stats,
    constraint_value,
    embedding_stats,
    group_bytes,
    init_params,
    objective,
)
from tard.nn import AdamState, adam_step
from tard.pipeline import (
    TrainConfig,
    evaluate,
    predict,
    train_phase,
    training_streams,
    ttt_adapt,
    with_config,
)
from tard.reporting import ALPHA_GRID, run_sensitivity


def _tiny_train_set(num=6, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return [
        make_random_event(rng, int(rng.integers(4, 9)), dim, event_id=f"a-{i}", label=i % 2)
        for i in range(num)
    ]


def test_criterion_1_gradient_correctness():
    """Analytic gradients of the training and adaptation objectives match
    central finite differences within 1e-5 on 10 random graphs, under 30s."""
    start = time.perf_counter()
    alpha1, alpha2 = 0.7, 0.25
    worst = 0.0
    rng = np.random.default_rng(314)
    for i in range(10):
        d_in = 2 if i % 2 == 0 else 4
        n = int(rng.integers(3, 9))
        graph = make_random_graph(rng, n, d_in)
        params = init_params(ModelDims(d_in=d_in, d_hidden=3), seed=1000 + i)
        label = i % 2
        perm = np.random.default_rng(i).permutation(n)
        frozen = init_params(ModelDims(d_in=d_in, d_hidden=3), seed=2000 + i)
        train_stats = compute_embedding_stats([graph], frozen)

        named = params.named_parameters()

        def joint_loss():
            params.span().grad.fill(0.0)
            out = objective(graph, params, label=label, perm=perm, w_s=alpha1)
            return out.l_m + alpha1 * out.l_s, {n_: p.grad.copy() for n_, p in named}

        def adapt_loss():
            params.span().grad.fill(0.0)
            out = objective(graph, params, perm=perm, stats=train_stats, w_c=alpha2)
            return out.l_s + alpha2 * out.l_c, {n_: p.grad.copy() for n_, p in named}

        for loss_fn in (joint_loss, adapt_loss):
            if loss_fn is adapt_loss:
                named = params.named_parameters(("e", "s"))
            report = finite_difference_check(loss_fn, named, step=1e-5, tolerance=1e-5)
            worst = max(worst, report.max_rel_error)

    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 30.0
    record_acceptance(
        1,
        "gradient correctness",
        ok,
        f"max rel error {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst < 1e-5, f"finite-difference mismatch: {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_frozen_head():
    """100 randomized adaptation calls leave the classification head
    byte-identical."""
    model = train_phase(_tiny_train_set(), TrainConfig(epochs=2, d_hidden=4, seed=1))
    rng = np.random.default_rng(42)
    violations = 0
    for i in range(100):
        variant = with_config(
            model,
            ttt_steps=int(rng.integers(1, 6)),
            alpha2=float(rng.choice([0.0, 0.1, 1.0])),
            ttt_lr=float(rng.choice([1e-3, 5e-3])),
        )
        graph = make_random_graph(rng, int(rng.integers(2, 10)), 3)
        before = group_bytes(variant.params, GROUP_MAIN)
        adapted, _ = ttt_adapt(graph, variant, np.random.default_rng(i), variant.params)
        if group_bytes(adapted, GROUP_MAIN) != before:
            violations += 1
    ok = violations == 0
    record_acceptance(2, "frozen head", ok, f"{violations}/100 violations")
    assert ok, f"{violations} adaptation calls moved the classification head"


def test_criterion_3_loss_anchors():
    """Zero-weight network: L_s = ln 2, L_m = ln 2 (binary); identical stats
    give a constraint of exactly zero."""
    rng = np.random.default_rng(7)
    params = init_params(ModelDims(d_in=4, d_hidden=5), seed=0)
    for _, p in params.named_parameters():
        p.value.fill(0.0)
    graph = make_random_graph(rng, 6, 4)
    ls = objective(graph, params, perm=np.arange(6)).l_s
    lm = objective(graph, params, label=1).l_m
    stats = embedding_stats(rng.standard_normal((8, 5)))
    lc = constraint_value(stats, stats)

    ls_err = abs(ls - np.log(2.0))
    lm_err = abs(lm - np.log(2.0))
    ok = ls_err <= 1e-9 and lm_err <= 1e-9 and lc == 0.0
    record_acceptance(
        3,
        "loss anchors",
        ok,
        f"|L_s-ln2|={ls_err:.1e}, |L_m-ln2|={lm_err:.1e}, L_c(s,s)={lc}",
    )
    assert ls_err <= 1e-9
    assert lm_err <= 1e-9
    assert lc == 0.0


def test_criterion_4_degeneracy_equalities():
    """alpha1=0 training bit-matches a pure supervised loop with the same
    seed; ttt_steps=0 evaluation bit-matches plain inference."""
    events = _tiny_train_set(num=6, dim=3, seed=9)
    cfg = TrainConfig(alpha1=0.0, epochs=3, d_hidden=4, seed=23, patience=50)
    model = train_phase(events, cfg)

    ss_init, order_rng, _ = training_streams(cfg.seed)
    oracle = init_params(ModelDims(d_in=3, d_hidden=4, num_classes=2), ss_init)
    graphs = [to_prop_graph(e) for e in events]
    # One Adam state per matrix: an oracle independent of the span update.
    opts = [(p, AdamState(lr=cfg.train_lr)) for _, p in oracle.named_parameters(("e", "m"))]
    train_match = True
    for _ in range(cfg.epochs):
        for idx in order_rng.permutation(len(graphs)):
            oracle.span(("e", "m")).grad.fill(0.0)
            objective(graphs[idx], oracle, label=events[idx].label)
            for p, opt in opts:
                adam_step(p, opt)
    for g in ("e", "m", "s"):
        train_match &= group_bytes(model.params, g) == group_bytes(oracle, g)

    plain = with_config(model, ttt_steps=0)
    records = evaluate(events, plain)
    infer_match = True
    for event, rec in zip(events, records):
        pred, probs = predict(to_prop_graph(event), model.params)
        infer_match &= rec.pred == pred and rec.probs == tuple(float(p) for p in probs)

    ok = train_match and infer_match
    record_acceptance(
        4,
        "degeneracy equalities",
        ok,
        f"alpha1=0 bit-match: {train_match}, ttt_steps=0 bit-match: {infer_match}",
    )
    assert train_match, "alpha1=0 training diverged from the supervised oracle"
    assert infer_match, "ttt_steps=0 evaluation diverged from plain inference"


def test_criterion_5_shift_benchmark(shift_benchmark):
    """Shifted benchmark over 10 seeds: adaptation buys >= 0.02 mean accuracy
    over the frozen model, wins per-seed ordering, in under 5 minutes."""
    results, elapsed = shift_benchmark
    acc = {
        v: np.array([r.metrics[v].accuracy for r in results])
        for v in ("tard", "tard-constraint", "tard-ttt")
    }
    mean_gain = float(acc["tard"].mean() - acc["tard-ttt"].mean())
    wins_ttt = int((acc["tard"] >= acc["tard-ttt"]).sum())
    wins_constraint = int((acc["tard"] >= acc["tard-constraint"]).sum())
    ok = (
        mean_gain >= 0.02
        and wins_ttt >= 8
        and wins_constraint >= 6
        and elapsed < 300.0
    )
    record_acceptance(
        5,
        "shift benchmark",
        ok,
        f"mean gain {mean_gain:+.4f}, vs no-ttt {wins_ttt}/10, "
        f"vs no-constraint {wins_constraint}/10, {elapsed:.0f}s",
    )
    assert mean_gain >= 0.02, f"mean accuracy gain {mean_gain:+.4f} < 0.02"
    assert wins_ttt >= 8, f"TARD >= TARD-ttt in only {wins_ttt}/10 seeds"
    assert wins_constraint >= 6, f"TARD >= TARD-constraint in only {wins_constraint}/10 seeds"
    assert elapsed < 300.0, f"benchmark took {elapsed:.0f}s"


def test_criterion_6_representation_distortion(shift_benchmark):
    """The alignment penalty after adaptation is no worse with the constraint
    active than without it, in >= 8/10 seeds."""
    results, _ = shift_benchmark
    wins = 0
    for r in results:
        with_c = np.mean([rec.lc_post for rec in r.records["tard"]])
        without_c = np.mean([rec.lc_post for rec in r.records["tard-constraint"]])
        wins += with_c <= without_c
    ok = wins >= 8
    record_acceptance(6, "representation distortion", ok, f"{wins}/10 seeds")
    assert ok, f"constraint lowered the penalty in only {wins}/10 seeds"


def test_criterion_7_permutation_invariance():
    """Probability vectors are invariant to node relabeling, 50 cases."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for i in range(50):
        d_in = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(2, 12))
        event = make_random_event(rng, n, d_in, event_id=f"p{i}")
        params = init_params(ModelDims(d_in=d_in, d_hidden=4), seed=i)
        perm = rng.permutation(n)
        relabeled = PropagationEvent(
            id=event.id,
            label=event.label,
            num_nodes=n,
            edges=[(int(perm[s]), int(perm[t])) for s, t in event.edges],
            features=event.features[np.argsort(perm)],
        )
        _, probs_a = predict(to_prop_graph(event), params)
        _, probs_b = predict(to_prop_graph(relabeled), params)
        worst = max(worst, float(np.max(np.abs(probs_a - probs_b))))
    ok = worst <= 1e-12
    record_acceptance(7, "permutation invariance", ok, f"max deviation {worst:.1e}")
    assert ok, f"probability vectors deviate by {worst:.3e} under relabeling"


def test_criterion_8_sweep_mechanics():
    """Both hyperparameter sweeps emit exactly nine rows over [0, 10] and are
    deterministic given the seed."""
    train_set = _tiny_train_set(num=6, dim=3, seed=2)
    rng = np.random.default_rng(3)
    test_set = [
        make_random_event(rng, 5, 3, event_id=f"t-{i}", label=i % 2) for i in range(4)
    ]
    cfg = TrainConfig(epochs=1, d_hidden=4, ttt_steps=1, seed=6)

    shapes_ok = True
    deterministic = True
    for which in ("alpha1", "alpha2"):
        first = run_sensitivity(train_set, test_set, cfg, which)
        second = run_sensitivity(train_set, test_set, cfg, which)
        values = [v for v, _ in first]
        shapes_ok &= len(first) == 9 and values == list(ALPHA_GRID)
        shapes_ok &= min(values) == 0.0 and max(values) == 10.0
        deterministic &= first == second

    ok = shapes_ok and deterministic
    record_acceptance(
        8,
        "sweep mechanics",
        ok,
        f"9-row grids: {shapes_ok}, repeat-identical: {deterministic}",
    )
    assert shapes_ok
    assert deterministic


def test_criterion_9_pipeline_determinism(tmp_path):
    """gen -> train -> eval/ablate twice with one seed: metric CSVs (and the
    checkpoint and datasets behind them) are byte-identical."""
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "seed": 0,
                "domain": {
                    "num_events": 8,
                    "feature_dim": 3,
                    "class_mean_separation": 3.0,
                    "feature_noise_std": 0.8,
                    "size_dist": [4, 8],
                    "mean_translation": None,
                },
                "shift": {
                    "rotation_angle": 0.5,
                    "mean_translation": [-0.5, -0.5, -0.5],
                },
                "train": {"epochs": 2, "d_hidden": 4, "ttt_steps": 2},
                "val_events": 2,
                "test_events": 6,
            }
        )
    )

    def run(tag: str) -> dict[str, bytes]:
        base = tmp_path / tag
        data, run_dir, ev, ab = (
            base / "data",
            base / "run",
            base / "eval",
            base / "ablate",
        )
        assert cli_main(["gen", "--config", str(config), "--out", str(data)]) == 0
        assert (
            cli_main(["train", str(data), "--config", str(config), "--out", str(run_dir)])
            == 0
        )
        assert (
            cli_main(
                [
                    "eval",
                    str(run_dir / "model.json"),
                    str(data / "test.jsonl"),
                    "--out",
                    str(ev),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "ablate",
                    str(data),
                    "--config",
                    str(config),
                    "--seeds",
                    "2",
                    "--out",
                    str(ab),
                ]
            )
            == 0
        )
        return {
            "train.jsonl": (data / "train.jsonl").read_bytes(),
            "test.jsonl": (data / "test.jsonl").read_bytes(),
            "model.json": (run_dir / "model.json").read_bytes(),
            "metrics.json": (ev / "metrics.json").read_bytes(),
            "ablation.csv": (ab / "ablation.csv").read_bytes(),
        }

    first = run("one")
    second = run("two")
    mismatched = sorted(name for name in first if first[name] != second[name])
    ok = not mismatched
    record_acceptance(
        9,
        "pipeline determinism",
        ok,
        "all artifacts byte-identical" if ok else f"differ: {', '.join(mismatched)}",
    )
    assert ok, f"artifacts differ between runs: {mismatched}"
