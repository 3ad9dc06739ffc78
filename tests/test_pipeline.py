"""Training, per-sample test-time adaptation, evaluation modes, checkpoints."""

import json
import multiprocessing
import os
import platform
import re
import resource
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_random_event, separable
import tard
from tard.datagen import ShiftSpec, apply_shift, generate_domain
from tard import graphs, pipeline
from tard.graphs import GraphBatch, to_prop_graph
from tard.model import (
    GROUP_MAIN,
    GROUP_SHARED,
    GROUP_SSL,
    LAYER_COUNTS,
    MAX_D_HIDDEN,
    MAX_LAYERS,
    ModelDims,
    group_bytes,
    init_params,
    objective,
    snapshot,
    stack,
)
from tard.nn import AdamState, adam_step
from tard.pipeline import (
    MAX_EPOCHS,
    MAX_TTT_STEPS,
    EventRecord,
    TrainConfig,
    checkpoint_record,
    evaluate,
    event_rng,
    load_checkpoint,
    lockstep_batches,
    predict,
    save_checkpoint,
    train_phase,
    training_streams,
    ttt_adapt,
    with_config,
)


SIZE_CEILINGS = [("d_hidden", MAX_D_HIDDEN), *((name, MAX_LAYERS) for name in LAYER_COUNTS)]


def _events(n=8, nodes=6, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return [
        make_random_event(rng, nodes, dim, event_id=f"u-{i}", label=i % 2)
        for i in range(n)
    ]


def _strip_wall(records):
    out = []
    for r in records:
        d = r.to_json_dict()
        d.pop("wall_time_s")
        out.append(d)
    return out


def _online(model):
    return with_config(model, adaptation_mode="online")


def _cpus(monkeypatch, n):
    """Evaluate as if this process could run on n CPUs."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: n)


def _no_pool(method=None):
    raise AssertionError(f"fork_map asked for a {method!r} pool")


@pytest.fixture(scope="module")
def separable_model():
    """One trained model on the well-separated preset, shared by this module."""
    exp = separable(0)
    train_set = generate_domain(exp.domain)
    return train_phase(train_set, exp.train), train_set


class TestTrainConfig:
    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha1=-0.1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            TrainConfig(adaptation_mode="sometimes")

    def test_rejects_zero_learning_rate(self):
        with pytest.raises(ValueError):
            TrainConfig(train_lr=0.0)

    def test_rejects_negative_ttt_steps(self):
        with pytest.raises(ValueError):
            TrainConfig(ttt_steps=-1)

    @pytest.mark.parametrize("name, top", SIZE_CEILINGS)
    def test_rejects_sizes_above_their_ceiling(self, name, top):
        assert getattr(TrainConfig(**{name: top}), name) == top
        assert getattr(ModelDims(**{"d_in": 1, "d_hidden": 1, name: top}), name) == top
        for bad in (top + 1, 10**8, 10**400):
            with pytest.raises(ValueError, match=f"^{name} must be <= {top}$"):
                TrainConfig(**{name: bad})
            with pytest.raises(ValueError, match=f"^{name} must be <= {top}$"):
                ModelDims(**{"d_in": 1, "d_hidden": 1, name: bad})

    @pytest.mark.parametrize("name", ["epochs", "patience"])
    def test_rejects_counts_above_the_epoch_ceiling(self, name):
        assert getattr(TrainConfig(**{name: MAX_EPOCHS}), name) == MAX_EPOCHS
        for bad in (MAX_EPOCHS + 1, 10**400):
            with pytest.raises(ValueError, match=f"^{name} must be <= {MAX_EPOCHS}$"):
                TrainConfig(**{name: bad})

    def test_rejects_ttt_steps_above_the_ceiling(self):
        assert TrainConfig(ttt_steps=MAX_TTT_STEPS).ttt_steps == MAX_TTT_STEPS
        for bad in (MAX_TTT_STEPS + 1, 10**400):
            with pytest.raises(ValueError, match=f"ttt_steps must be <= {MAX_TTT_STEPS}"):
                TrainConfig(ttt_steps=bad)


class TestTrainPhase:
    def test_rejects_empty_training_set(self):
        with pytest.raises(ValueError):
            train_phase([], TrainConfig())

    def test_rejects_inconsistent_feature_dims(self):
        rng = np.random.default_rng(0)
        events = [
            make_random_event(rng, 4, 3, event_id="a", label=0),
            make_random_event(rng, 4, 5, event_id="b", label=1),
        ]
        with pytest.raises(ValueError, match="feature dims"):
            train_phase(events, TrainConfig(epochs=1))

    def test_same_seed_gives_identical_checkpoint(self):
        events = _events()
        cfg = TrainConfig(epochs=3, d_hidden=4, seed=7)
        a = train_phase(events, cfg)
        b = train_phase(events, cfg)
        rec_a = json.dumps(checkpoint_record(a), sort_keys=True)
        rec_b = json.dumps(checkpoint_record(b), sort_keys=True)
        assert rec_a == rec_b

    def test_different_seeds_give_different_params(self):
        events = _events()
        a = train_phase(events, TrainConfig(epochs=2, d_hidden=4, seed=1))
        b = train_phase(events, TrainConfig(epochs=2, d_hidden=4, seed=2))
        assert group_bytes(a.params, GROUP_SHARED) != group_bytes(b.params, GROUP_SHARED)

    def test_separable_data_trains_to_high_accuracy(self, separable_model):
        model, train_set = separable_model
        hits = sum(
            predict(to_prop_graph(e), model.params)[0] == e.label for e in train_set
        )
        assert hits / len(train_set) >= 0.95

    def test_training_log_and_early_stop(self):
        events = _events(n=6)
        cfg = TrainConfig(epochs=400, d_hidden=4, patience=3, min_delta=1e9)
        model = train_phase(events, cfg)
        # huge min_delta: the first epoch improves on infinity, every later
        # epoch is stale, so training stops after 1 + patience epochs
        assert len(model.training_log) == 1 + cfg.patience
        assert {"epoch", "l_m", "l_s", "objective"} <= set(model.training_log[0])

    def test_alpha1_zero_matches_plain_supervised_loop(self):
        """With the SSL weight off, training must equal a loop that never had
        an SSL head: same inits, same epoch order, main loss only."""
        events = _events(n=6, nodes=5, dim=3, seed=4)
        cfg = TrainConfig(alpha1=0.0, epochs=3, d_hidden=4, seed=13, patience=50)
        model = train_phase(events, cfg)

        ss_init, order_rng, _ = training_streams(cfg.seed)
        params = init_params(
            ModelDims(d_in=3, d_hidden=cfg.d_hidden, num_classes=2), ss_init
        )
        graphs = [to_prop_graph(e) for e in events]
        # One Adam state per matrix, independent of the span update.
        opts = [
            (p, AdamState(lr=cfg.train_lr))
            for _, p in params.named_parameters((GROUP_SHARED, GROUP_MAIN))
        ]
        for _ in range(cfg.epochs):
            for idx in order_rng.permutation(len(graphs)):
                params.span((GROUP_SHARED, GROUP_MAIN)).grad.fill(0.0)
                objective(graphs[idx], params, label=events[idx].label)
                for p, opt in opts:
                    adam_step(p, opt)

        for g in (GROUP_SHARED, GROUP_MAIN, GROUP_SSL):
            assert group_bytes(model.params, g) == group_bytes(params, g), g


class TestTttAdapt:
    def test_classification_head_frozen(self, separable_model):
        model, train_set = separable_model
        graph = to_prop_graph(train_set[0])
        adapted, _ = ttt_adapt(graph, model, np.random.default_rng(0), model.params)
        assert group_bytes(adapted, GROUP_MAIN) == group_bytes(model.params, GROUP_MAIN)
        assert group_bytes(adapted, GROUP_SHARED) != group_bytes(
            model.params, GROUP_SHARED
        )

    def test_zero_steps_returns_identical_params(self, separable_model):
        model, train_set = separable_model
        frozen = with_config(model, ttt_steps=0)
        graph = to_prop_graph(train_set[1])
        adapted, (pre, post) = ttt_adapt(graph, frozen, np.random.default_rng(5), model.params)
        for g in (GROUP_SHARED, GROUP_MAIN, GROUP_SSL):
            assert group_bytes(adapted, g) == group_bytes(model.params, g)
        assert pre.l_s == post.l_s
        assert pre.l_c == post.l_c

    def test_input_params_never_mutated(self, separable_model):
        model, train_set = separable_model
        before = {g: group_bytes(model.params, g) for g in (GROUP_SHARED, GROUP_SSL)}
        ttt_adapt(to_prop_graph(train_set[2]), model, np.random.default_rng(9), model.params)
        for g, b in before.items():
            assert group_bytes(model.params, g) == b

    def test_non_finite_ssl_head_is_named(self, separable_model, monkeypatch):
        """One finite check covers the adapted span; when only the SSL head
        went non-finite, the error names theta_s."""
        model, train_set = separable_model
        real = pipeline.objective

        def poisoned(graph, params, **kw):
            losses = real(graph, params, **kw)
            if kw.get("grad", True):
                params.theta_s[-1].grad[0, 0] = np.nan
            return losses

        monkeypatch.setattr(pipeline, "objective", poisoned)
        with pytest.raises(FloatingPointError, match=r"^non-finite values in theta_s$"):
            ttt_adapt(to_prop_graph(train_set[0]), model, np.random.default_rng(0), model.params)

    def test_ssl_loss_decreases_on_most_graphs(self, separable_model):
        """Pure SSL descent (alignment off): ten optimizer steps should lower
        the probe contrastive loss on at least 9 of 10 fresh graphs."""
        model, _ = separable_model
        pure_ssl = with_config(model, alpha2=0.0, ttt_steps=10, ttt_lr=1e-3)
        rng = np.random.default_rng(77)
        wins = 0
        for i in range(10):
            ev = make_random_event(rng, int(rng.integers(6, 14)), 4, event_id=f"s{i}")
            _, (pre, post) = ttt_adapt(
                to_prop_graph(ev), pure_ssl, np.random.default_rng(i), model.params
            )
            wins += post.l_s <= pre.l_s
        assert wins >= 9


class TestPredict:
    def test_uniform_probs_tie_breaks_to_class_zero(self, rng):
        params = init_params(ModelDims(d_in=4, d_hidden=5), seed=0)
        for _, p in params.named_parameters():
            p.value.fill(0.0)
        ev = make_random_event(rng, 5, 4)
        pred, probs = predict(to_prop_graph(ev), params)
        assert pred == 0
        npt.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_probs_sum_to_one(self, separable_model, rng):
        model, _ = separable_model
        ev = make_random_event(rng, 7, 4)
        _, probs = predict(to_prop_graph(ev), model.params)
        npt.assert_allclose(probs.sum(), 1.0, atol=1e-12)


class TestEpisodicEvaluation:
    def test_rejects_empty_test_set(self, separable_model):
        model, _ = separable_model
        with pytest.raises(ValueError):
            evaluate([], model)

    def test_rejects_feature_dim_mismatch(self, separable_model, rng):
        model, _ = separable_model
        with pytest.raises(ValueError, match="feature dim"):
            evaluate([make_random_event(rng, 4, 9)], model)

    def test_rejects_label_outside_the_classes_before_adapting(
        self, separable_model, monkeypatch
    ):
        model, _ = separable_model
        events = _events(n=3, dim=4, seed=4)
        events[1] = replace(events[1], label=5)
        adapted = []
        monkeypatch.setattr(pipeline, "ttt_adapt", lambda *args, **kw: adapted.append(args))
        with pytest.raises(ValueError, match=r"'u-1' has label 5.*\[0, 2\)"):
            evaluate(events, model)
        assert adapted == []

    def test_order_invariance(self, separable_model):
        model, _ = separable_model
        events = _events(n=5, dim=4, seed=3)
        fwd = evaluate(events, model)
        rev = evaluate(list(reversed(events)), model)
        assert _strip_wall(fwd) == _strip_wall(list(reversed(rev)))
        assert all(r.steps == model.config.ttt_steps for r in fwd)

    def test_single_event_calls_match_batch(self, separable_model, monkeypatch, pools):
        """Each record is a pure function of (model, event, seed): evaluating
        every event on its own reproduces the batch call, from one worker
        process or two, in lockstep batches of two events."""
        model, _ = separable_model
        events = _events(n=5, dim=4, seed=6)
        monkeypatch.setattr(pipeline, "LOCKSTEP_ROWS", 2 * events[0].num_nodes)
        alone = [evaluate([e], model)[0] for e in events]
        by_workers = {}
        for n in (1, 2):
            _cpus(monkeypatch, n)
            by_workers[n] = _strip_wall(evaluate(events, model))
        assert pools == ["fork"]
        assert by_workers[1] == by_workers[2] == _strip_wall(alone)

    def test_pool_gets_the_largest_event_first(self, separable_model, monkeypatch, pools):
        """Episodic events reach the pool in lockstep batches of consecutive
        events in non-increasing size, with ties in input order, and their
        records come back in input order, equal to the one-CPU run's. The
        cut depends on the sizes and ``LOCKSTEP_ROWS`` alone, not on the CPU
        count, so an evaluate that ``fork_map`` runs serially (one CPU, or
        nested in a worker) gets the batches of a pooled one."""
        model, _ = separable_model
        rng = np.random.default_rng(15)
        events = [
            make_random_event(rng, n, 4, event_id=f"s-{i}", label=i % 2)
            for i, n in enumerate([3, 5, 5, 8, 12])
        ]
        _cpus(monkeypatch, 1)
        serial = _strip_wall(evaluate(events, model))
        handed = []
        fork_map = pipeline.fork_map

        def spy(fn, items):
            handed.append([[(e.num_nodes, e.id) for e in batch] for batch in items])
            return fork_map(fn, items)

        monkeypatch.setattr(pipeline, "fork_map", spy)
        for rows, cpus in ((1, 2), (16, 2), (16, 1), (16, 8)):
            monkeypatch.setattr(pipeline, "LOCKSTEP_ROWS", rows)
            _cpus(monkeypatch, cpus)
            got = evaluate(events, model)
            assert [r.event_id for r in got] == [e.id for e in events]
            assert _strip_wall(got) == serial
        assert [[len(b) for b in batches] for batches in handed] == [
            [1, 1, 1, 1, 1], [2, 3], [2, 3], [2, 3]
        ]
        for batches in handed:
            assert [e for b in batches for e in b] == [
                (12, "s-4"), (8, "s-3"), (5, "s-1"), (5, "s-2"), (3, "s-0")
            ]
        assert pools == ["fork", "fork", "fork"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_event_error_reaches_the_caller(
        self, separable_model, monkeypatch, pools, cpus
    ):
        """A worker's exception is re-raised with its type and message, and
        no worker process outlives the call. The bad event shares its
        lockstep batch with another."""
        model, _ = separable_model
        _cpus(monkeypatch, cpus)
        events = _events(n=4, dim=4, seed=7)
        monkeypatch.setattr(pipeline, "LOCKSTEP_ROWS", 2 * events[0].num_nodes)
        events[2] = replace(events[2], features=events[2].features * 1e150)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError, match=r"^non-finite values in theta_e of event 'u-2'$"
        ):
            evaluate(events, model)
        assert pools == (["fork"] if cpus == 2 else [])
        assert multiprocessing.active_children() == []
        assert pipeline._FORK_JOB is None

    @pytest.mark.parametrize(
        "case", ["online", "one event", "no steps", "no fork", "daemonic", "threaded"]
    )
    def test_stays_serial(self, separable_model, monkeypatch, case):
        """Chained, tiny or fork-unsafe evaluations never create a pool, and
        give the serial records."""
        model, _ = separable_model
        events = _events(n=3, dim=4, seed=8)
        if case == "online":
            model = _online(model)
        elif case == "one event":
            events = events[:1]
        elif case == "no steps":
            model = with_config(model, ttt_steps=0)
        expected = _strip_wall(evaluate(events, model))
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
        if case == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        elif case == "daemonic":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        if case == "threaded":
            other.start()
        try:
            got = _strip_wall(evaluate(events, model))
        finally:
            release.set()
        if case == "threaded":
            other.join(timeout=10)
            assert not other.is_alive()
        assert got == expected

    def test_event_rng_keyed_by_id_not_position(self):
        a = event_rng(3, "ev-x").standard_normal(4)
        b = event_rng(3, "ev-x").standard_normal(4)
        c = event_rng(3, "ev-y").standard_normal(4)
        npt.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestForkMap:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_results_come_back_in_input_order(self, monkeypatch, pools, cpus):
        """Seven items over two workers: the lambda reaches the workers
        through the fork, and the results keep the input order."""
        _cpus(monkeypatch, cpus)
        got = pipeline.fork_map(lambda x: (x * x, os.getpid()), range(7))
        assert [v for v, _ in got] == [x * x for x in range(7)]
        workers = {pid for _, pid in got}
        assert (os.getpid() in workers) == (cpus == 1)
        assert pools == (["fork"] if cpus == 2 else [])

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_error_reaches_the_caller(self, monkeypatch, pools, cpus):
        def fn(x):
            if x == 3:
                raise KeyError(f"item {x}")
            return x

        _cpus(monkeypatch, cpus)
        with pytest.raises(KeyError, match=r"^'item 3'$"):
            pipeline.fork_map(fn, range(5))
        assert pools == (["fork"] if cpus == 2 else [])
        assert multiprocessing.active_children() == []
        assert pipeline._FORK_JOB is None

    def test_nested_evaluate_runs_serially_in_a_worker(self, separable_model, monkeypatch):
        """Inside a (daemonic) worker, evaluate takes the plain loop and
        gives the serial records."""
        model, _ = separable_model
        events = _events(n=6, dim=4, seed=14)
        batches = [events[:3], events[3:]]
        serial = [_strip_wall(evaluate(b, model)) for b in batches]
        _cpus(monkeypatch, 2)

        def in_worker(batch):
            daemon = multiprocessing.current_process().daemon
            return daemon, _strip_wall(evaluate(batch, model))

        got = pipeline.fork_map(in_worker, batches)
        assert [daemon for daemon, _ in got] == [True, True]
        assert [records for _, records in got] == serial


class TestOnlineEvaluation:
    def test_single_event_matches_episodic(self, separable_model):
        model, _ = separable_model
        events = _events(n=1, dim=4, seed=11)
        online = evaluate(events, _online(model))
        episodic = evaluate(events, model)
        assert _strip_wall(online) == _strip_wall(episodic)

    def test_zero_steps_matches_episodic(self, separable_model):
        model, _ = separable_model
        frozen = with_config(model, ttt_steps=0)
        events = _events(n=4, dim=4, seed=12)
        online = evaluate(events, _online(frozen))
        episodic = evaluate(events, frozen)
        assert _strip_wall(online) == _strip_wall(episodic)

    def test_order_sensitivity(self, separable_model):
        """Adapted parameters carry over, so the same event evaluated after a
        different history gives a different record."""
        model, _ = separable_model
        events = _events(n=3, dim=4, seed=13)
        fwd = {r.event_id: r.probs for r in evaluate(events, _online(model))}
        rev = {
            r.event_id: r.probs
            for r in evaluate(list(reversed(events)), _online(model))
        }
        assert any(fwd[k] != rev[k] for k in fwd)

    def test_order_sensitivity_on_mixed_domain_stream(self, separable_model):
        """Blocked vs. interleaved orderings of a two-domain stream leave
        different adaptation histories behind, so traces diverge."""
        model, _ = separable_model
        exp = separable(0)
        src = generate_domain(replace(exp.val_spec(), num_events=4))
        tgt_spec = apply_shift(exp.domain, ShiftSpec(rotation_angle=np.pi / 2))
        tgt = generate_domain(replace(tgt_spec, num_events=4))
        blocked = src + tgt
        interleaved = [e for pair in zip(src, tgt) for e in pair]
        a = {r.event_id: r.to_json_dict() for r in evaluate(blocked, _online(model))}
        b = {
            r.event_id: r.to_json_dict()
            for r in evaluate(interleaved, _online(model))
        }
        assert set(a) == set(b)
        for d in (*a.values(), *b.values()):
            d.pop("wall_time_s")
        assert any(a[k] != b[k] for k in a)

    def test_dispatch_honors_config_mode(self, separable_model):
        """The first event starts from the trained snapshot in both modes;
        only online mode starts the second from the first's adaptation."""
        model, _ = separable_model
        events = _events(n=2, dim=4, seed=14)
        online = _strip_wall(evaluate(events, _online(model)))
        episodic = _strip_wall(evaluate(events, model))
        assert online[0] == episodic[0]
        assert online[1] != episodic[1]



class TestEdgeListThreshold:
    @pytest.mark.parametrize("mode", ["undirected", "directed"])
    @pytest.mark.parametrize("adaptation", ["episodic", "online"])
    def test_edge_list_graphs_evaluate_like_dense_ones(
        self, separable_model, monkeypatch, mode, adaptation
    ):
        """At the threshold the graphs are edge lists; forcing the same
        events onto the dense path gives the same predictions, with
        probabilities that differ only by rounding."""
        model, _ = separable_model
        model = with_config(model, adjacency=mode, adaptation_mode=adaptation)
        n = graphs.EDGE_LIST_MIN_NODES
        events = _events(n=2, nodes=n, dim=4, seed=21)
        assert isinstance(to_prop_graph(events[0], mode).adj_norm, graphs.EdgeList)
        edge_list = evaluate(events, model)
        monkeypatch.setattr(graphs, "EDGE_LIST_MIN_NODES", n + 1)
        assert isinstance(to_prop_graph(events[0], mode).adj_norm, np.ndarray)
        dense = evaluate(events, model)
        assert [r.pred for r in edge_list] == [r.pred for r in dense]
        npt.assert_allclose(
            [r.probs for r in edge_list], [r.probs for r in dense], rtol=0, atol=1e-12
        )


@pytest.fixture(scope="module", params=["undirected", "directed"])
def deep_model(request):
    """A model with two-layer extractor and SSL head, briefly trained, per
    adjacency mode."""
    exp = separable(3)
    config = TrainConfig(
        seed=3, epochs=2, d_hidden=8, shared_layers=2, ssl_layers=2, ttt_steps=3,
        adjacency=request.param,
    )
    return train_phase(generate_domain(exp.domain), config)


def _alone(event, model):
    """One event adapted and predicted on its own: the record's fields but
    wall time, and the adapted parameters' bytes."""
    graph = to_prop_graph(event, model.config.adjacency)
    rng = event_rng(model.config.seed, event.id)
    adapted, (pre, post) = ttt_adapt(graph, model, rng, model.params)
    pred, probs = predict(graph, adapted)
    fields = (pred, tuple(float(p) for p in probs), pre.l_s, post.l_s, pre.l_c, post.l_c)
    return fields, adapted.flat.value.tobytes()


class TestLockstep:
    """A batch adapts in lockstep with every event's bits unchanged."""

    @pytest.mark.parametrize(
        "sizes",
        [
            [9],
            [graphs.EDGE_LIST_MIN_NODES + 5, 6],
            [1, graphs.EDGE_LIST_MIN_NODES + 10, 3, 12, 1, 7, 30],
        ],
        ids=["K1", "K2", "K7"],
    )
    def test_batch_equals_one_at_a_time(self, deep_model, sizes):
        rng = np.random.default_rng(len(sizes))
        events = [
            make_random_event(rng, n, 4, event_id=f"b-{i}", label=i % 2)
            for i, n in enumerate(sizes)
        ]
        records, adapted = pipeline._eval_batch(events, deep_model, deep_model.params)
        stacked = adapted.flat.value.reshape(len(events), -1)
        for k, (event, record) in enumerate(zip(events, records)):
            fields, params = _alone(event, deep_model)
            got = (record.pred, record.probs, record.ls_pre, record.ls_post)
            assert got + (record.lc_pre, record.lc_post) == fields, event.id
            assert stacked[k].tobytes() == params, event.id
            assert record.event_id == event.id and record.steps == 3

    def test_objective_matches_each_graph(self, deep_model):
        """The objective on a batch, with its own weights: each graph's
        losses and gradient bytes are those of the graph alone."""
        rng = np.random.default_rng(4)
        events = [
            make_random_event(rng, n, 4, event_id=f"o-{i}", label=i % 2)
            for i, n in enumerate([5, 1, graphs.EDGE_LIST_MIN_NODES, 11])
        ]
        mode, stats = deep_model.config.adjacency, deep_model.train_stats
        alone = [to_prop_graph(e, mode) for e in events]
        batch = GraphBatch(alone, [e.id for e in events])
        params = stack(deep_model.params, len(events))
        rngs = [np.random.default_rng(k) for k in range(len(events))]
        perm = batch.blocks.permutation(rngs)
        out = objective(batch, params, perm=perm, stats=stats, w_s=0.5, w_c=0.3)
        for k, graph in enumerate(alone):
            one = snapshot(deep_model.params)
            perm = np.random.default_rng(k).permutation(graph.num_nodes)
            ref = objective(graph, one, perm=perm, stats=stats, w_s=0.5, w_c=0.3)
            assert (out.l_s[k], out.l_c[k]) == (ref.l_s, ref.l_c)
            assert params.flat.grad[k].tobytes() == one.flat.grad.tobytes()
        with pytest.raises(ValueError, match="L_m takes one graph"):
            objective(batch, params, label=[e.label for e in events])

    def test_non_finite_event_is_named(self, separable_model):
        model, _ = separable_model
        events = _events(n=5, dim=4, seed=7)
        events[3] = replace(events[3], features=events[3].features * 1e150)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError, match=r"^non-finite values in theta_e of event 'u-3'$"
        ):
            pipeline._eval_batch(events, model, model.params)

    def test_batches_close_at_the_row_budget(self, monkeypatch):
        monkeypatch.setattr(pipeline, "LOCKSTEP_ROWS", 20)
        big = graphs.EDGE_LIST_MIN_NODES
        sizes = [5, big + 50, 8, 8, big, 12, 3, 1]
        # Edge-list events alone, then 12+8 reaches 20; 8+5+3+1 does not.
        assert lockstep_batches(sizes) == [[1], [4], [5, 2], [3, 0, 6, 7]]
        assert lockstep_batches([10] * 8) == [[0, 1], [2, 3], [4, 5], [6, 7]]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc only")
def test_large_cascade_steps_reuse_freed_heap_pages(separable_model):
    """A large cascade's N x 16 temporaries stay in the heap when freed, so
    a repeated evaluation runs in pages the first one faulted in. Without
    the allocator setting, glibc unmaps them and every adaptation step
    faults them in again: about 3300 minor faults for this call."""
    model = with_config(separable_model[0], ttt_steps=3)
    event = make_random_event(np.random.default_rng(5), 1500, 4)
    evaluate([event], model)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluate([event], model)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 500, faults
    assert tard._keep_freed_arrays_in_heap()


def test_import_loads_no_network_or_xml_modules():
    """Freed memory stays resident (above), so ``import tard`` must not pull
    in modules it never uses; ``xml.sax.saxutils`` alone brings urllib.request,
    http.client, email and ssl. ``urllib.parse`` is allowed: the interpreter
    and ``pathlib`` load it anyway."""
    src = os.path.dirname(os.path.dirname(tard.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import tard; "
        "print('\\n'.join(sorted(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [
        m
        for m in proc.stdout.split()
        if m.split(".")[0] in ("xml", "urllib", "http", "email", "ssl")
        and m not in ("urllib", "urllib.parse")
    ]
    assert loaded == []


def _deepen(rec: dict, name: str, value: int) -> None:
    """Give ``params.dims`` ``value`` for ``name``, with enough (dummy)
    matrices that the layer count is not what fails first."""
    rec["params"]["dims"][name] = value
    for i in range(value):
        rec["params"]["matrices"][f"extra.{i}"] = {"shape": [1, 1], "data": [0.0]}


def _skew_eta(rec: dict) -> None:
    rec["train_stats"]["eta"][0][1] += 1.0


class TestCheckpoints:
    def test_round_trip_bit_exact(self, separable_model, tmp_path):
        model, _ = separable_model
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        for g in (GROUP_SHARED, GROUP_MAIN, GROUP_SSL):
            assert group_bytes(back.params, g) == group_bytes(model.params, g)
        npt.assert_array_equal(back.train_stats.mu, model.train_stats.mu)
        npt.assert_array_equal(back.train_stats.eta, model.train_stats.eta)
        assert back.config == model.config
        assert back.training_log == model.training_log

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        for payload in ('{"format": "something-else"}', "[]"):
            path.write_text(payload)
            with pytest.raises(ValueError, match="format"):
                load_checkpoint(path)

    def test_rejects_unparseable_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {")
        with pytest.raises(ValueError, match="unreadable"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "entry, path",
        [
            ("train_stats.mu", ("train_stats", "mu", 0)),
            ("train_stats.eta", ("train_stats", "eta", 1, 0)),
            ("theta_e.0", ("params", "matrices", "theta_e.0", "data", 3)),
            ("theta_m.out_b", ("params", "matrices", "theta_m.out_b", "data", 0)),
        ],
    )
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), pytest.param(10**400, id="int-beyond-float")]
    )
    def test_rejects_non_finite_entries(self, separable_model, tmp_path, entry, path, bad):
        model, _ = separable_model
        rec = checkpoint_record(model)
        target = rec
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(json.dumps(rec))
        with pytest.raises(ValueError, match=f"{entry}.*non-finite"):
            load_checkpoint(ckpt)

    def test_rejects_unknown_matrix(self, separable_model, tmp_path):
        model, _ = separable_model
        rec = checkpoint_record(model)
        mats = rec["params"]["matrices"]
        mats["theta_s.7"] = mats["theta_s.0"]
        ckpt = tmp_path / "extra.json"
        ckpt.write_text(json.dumps(rec))
        with pytest.raises(ValueError, match="unknown matrix 'theta_s.7'"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("name", ["d_hidden", "shared_layers", "main_layers", "ssl_layers"])
    def test_rejects_config_that_contradicts_dims(self, separable_model, tmp_path, name):
        model, _ = separable_model
        rec = checkpoint_record(model)
        have = rec["params"]["dims"][name]
        rec["config"][name] = have + 1
        ckpt = tmp_path / "arch.json"
        ckpt.write_text(json.dumps(rec))
        named = f"checkpoint {ckpt}: 'config.{name}' is {have + 1}, but 'params.dims' gives {have}"
        with pytest.raises(ValueError, match=re.escape(named)):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("layers", [3, pytest.param(10**400, id="huge")])
    @pytest.mark.parametrize("name", ["shared_layers", "main_layers", "ssl_layers"])
    def test_rejects_fewer_matrices_than_dims_give(self, separable_model, tmp_path, name, layers):
        """Counted before any layer is listed: a huge count fails at once."""
        model, _ = separable_model
        rec = checkpoint_record(model)
        rec["config"][name] = rec["params"]["dims"][name] = layers
        ckpt = tmp_path / "layers.json"
        ckpt.write_text(json.dumps(rec))
        named = (
            f"checkpoint {ckpt}: 'params.matrices' has 5 matrices, "
            f"but 'params.dims' gives {layers + 4}"
        )
        with pytest.raises(ValueError, match=re.escape(named)):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize(
        "section, key, bad",
        [
            ("config", "ttt_steps", 2.5),
            ("config", "ttt_steps", True),
            ("config", "epochs", 2.5),
            ("config", "patience", 2.5),
            ("config", "alpha2", True),
            ("train_stats", "count", 2.7),
        ],
    )
    def test_rejects_value_of_the_wrong_type(self, separable_model, tmp_path, section, key, bad):
        model, _ = separable_model
        rec = checkpoint_record(model)
        rec[section][key] = bad
        ckpt = tmp_path / "typed.json"
        ckpt.write_text(json.dumps(rec))
        named = f"checkpoint {ckpt}: '{section}.{key}' has the wrong type: {bad!r}"
        with pytest.raises(ValueError, match=re.escape(named)):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize(
        "key, bad, error",
        [
            ("ttt_steps", -1, "ttt_steps must be >= 0"),
            ("adaptation_mode", "bogus", "adaptation_mode must be one of"),
            ("alpha2", -0.5, "alpha2 must be finite and >= 0"),
        ],
        ids=["ttt_steps", "adaptation_mode", "alpha2"],
    )
    def test_rejects_config_value_out_of_range(self, separable_model, tmp_path, key, bad, error):
        model, _ = separable_model
        rec = checkpoint_record(model)
        rec["config"][key] = bad
        ckpt = tmp_path / "range.json"
        ckpt.write_text(json.dumps(rec))
        named = f"checkpoint {ckpt}: 'config.{key}' is out of range: {error}"
        with pytest.raises(ValueError, match=re.escape(named)):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize(
        "corrupt, named",
        [
            (lambda rec: rec["config"].pop("ttt_lr"), "'config.ttt_lr' is missing"),
            (lambda rec: rec["config"].pop("adjacency"), "'config.adjacency' is missing"),
            (
                lambda rec: rec["params"]["dims"].pop("ssl_layers"),
                "'params.dims.ssl_layers' is missing",
            ),
            (lambda rec: rec.pop("training_log"), "'training_log' is missing"),
            (lambda rec: rec["train_stats"].update(extra=1), "unknown key 'train_stats.extra'"),
            (
                lambda rec: rec["params"]["matrices"]["theta_m.out_b"].update(extra=1),
                "unknown key 'params.matrices.theta_m.out_b.extra'",
            ),
            (
                lambda rec: rec["params"]["matrices"]["theta_m.out_b"]["data"].__setitem__(0, True),
                "'params.matrices.theta_m.out_b.data.0' has the wrong type: True",
            ),
            (
                lambda rec: rec["params"]["matrices"]["theta_m.out_b"]["shape"].__setitem__(0, 1.0),
                "'params.matrices.theta_m.out_b.shape.0' has the wrong type: 1.0",
            ),
            (
                lambda rec: rec["train_stats"]["mu"].__setitem__(0, True),
                "'train_stats.mu.0' has the wrong type: True",
            ),
            (
                lambda rec: rec["train_stats"]["eta"][0].__setitem__(1, "0.5"),
                "'train_stats.eta.0.1' has the wrong type: '0.5'",
            ),
            (
                lambda rec: rec["train_stats"]["eta"].__setitem__(0, 0.5),
                "'train_stats.eta.0' has the wrong type: 0.5",
            ),
            (
                lambda rec: rec["train_stats"]["eta"][0].append(0.5),
                "'train_stats.eta' does not fit shape",
            ),
            (lambda rec: rec["train_stats"]["mu"].pop(), "'train_stats.mu' has"),
            (_skew_eta, "'train_stats.eta' is not symmetric"),
            (
                lambda rec: rec.update(training_log={"a": 1}),
                "'training_log' has the wrong type: {'a': 1}",
            ),
            (
                lambda rec: rec["params"]["dims"].update(d_hidden="4"),
                "'params.dims.d_hidden' has the wrong type: '4'",
            ),
            (
                lambda rec: rec["params"]["dims"].update(num_classes=1),
                "'params.dims.num_classes' is out of range: num_classes must be >= 2",
            ),
            (
                lambda rec: rec["config"].update(ttt_steps=10**400),
                f"'config.ttt_steps' is out of range: ttt_steps must be <= {MAX_TTT_STEPS}",
            ),
            *(
                (
                    lambda rec, name=name: rec["config"].update({name: 10**8}),
                    f"'config.{name}' is out of range: {name} must be <= {top}",
                )
                for name, top in SIZE_CEILINGS
            ),
            *(
                (
                    lambda rec, name=name, top=top: _deepen(rec, name, top + 1),
                    f"'params.dims.{name}' is out of range: {name} must be <= {top}",
                )
                for name, top in SIZE_CEILINGS
            ),
        ],
        ids=[
            "config-missing-ttt_lr",
            "config-missing-adjacency",
            "dims-missing",
            "log-missing",
            "stats-unknown",
            "matrix-unknown",
            "data-bool",
            "shape-float",
            "mu-bool",
            "eta-string",
            "eta-row-number",
            "eta-ragged",
            "mu-short",
            "eta-asymmetric",
            "log-not-list",
            "dims-type",
            "dims-range",
            "config-ttt-steps-ceiling",
            *(f"config-{name}-ceiling" for name, _ in SIZE_CEILINGS),
            *(f"dims-{name}-ceiling" for name, _ in SIZE_CEILINGS),
        ],
    )
    def test_rejects_a_bad_leaf_naming_its_key(self, separable_model, tmp_path, corrupt, named):
        model, _ = separable_model
        rec = json.loads(json.dumps(checkpoint_record(model)))
        corrupt(rec)
        ckpt = tmp_path / "leaf.json"
        ckpt.write_text(json.dumps(rec))
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {ckpt}: {named}")):
            load_checkpoint(ckpt)

    def test_loads_edits_that_keep_it_valid(self, separable_model, tmp_path):
        model, _ = separable_model
        rec = checkpoint_record(model)
        rec["params"]["matrices"]["theta_m.out_b"]["data"][:2] = [-0.0, 0]
        rec["training_log"] = []
        ckpt = tmp_path / "edited.json"
        ckpt.write_text(json.dumps(rec))
        back = load_checkpoint(ckpt)
        assert np.signbit(back.params.theta_m_out_b.value[0, 0])
        assert back.params.theta_m_out_b.value[0, 1] == 0.0
        assert back.training_log == []

    def test_with_config_shares_params(self, separable_model):
        model, _ = separable_model
        variant = with_config(model, ttt_steps=0, alpha2=0.0)
        assert variant.params is model.params
        assert variant.train_stats is model.train_stats
        assert variant.training_log is model.training_log
        assert variant.config.ttt_steps == 0
        assert model.config.ttt_steps != 0


class TestEventRecord:
    def test_json_round_trip(self):
        rec = EventRecord(
            event_id="e1",
            label=1,
            pred=0,
            probs=(0.75, 0.25),
            ls_pre=0.7,
            ls_post=0.6,
            lc_pre=1.5,
            lc_post=0.9,
            steps=10,
            wall_time_s=0.01,
        )
        back = EventRecord.from_json_dict(json.loads(json.dumps(rec.to_json_dict())))
        assert back == rec
