"""The three-phase protocol: joint training, per-sample test-time training
with a frozen classification head, and prediction.

Training minimizes L_m + alpha1 * L_s over all parameter groups, one graph
per optimizer step. Adaptation minimizes L_s + alpha2 * L_c on a single test
graph, updating only the extractor and the SSL head; the classification head
stays bit-identical. One ``evaluate`` loop adapts and predicts each event,
and ``adaptation_mode`` sets what the next event starts from: the trained
snapshot (episodic; order-invariant) or the parameters the previous event
was adapted to (online; order-sensitive by design). Each event yields one
``EventRecord``, which serializes through ``dataclasses.asdict``.

Determinism: a training run is a pure function of (dataset, config). The
config seed feeds three separate streams (init / epoch order / augmentation),
and each evaluated event gets its own generator derived from (seed, event
id), so episodic results do not depend on event order. That also lets an
episodic ``evaluate`` split its events across forked worker processes
(``fork_map``) with no change to any record.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import reprlib
import threading
import time
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .graphs import EDGE_LIST_MIN_NODES, GraphBatch, PropGraph, PropagationEvent, to_prop_graph
from .model import (
    ALL_GROUPS,
    GROUP_MAIN,
    GROUP_SHARED,
    GROUP_SSL,
    LAYER_COUNTS,
    MAX_D_HIDDEN,
    MAX_LAYERS,
    EmbeddingStats,
    Losses,
    ModelDims,
    TardParams,
    compute_embedding_stats,
    forward_main,
    forward_shared,
    init_params,
    objective,
    params_from_record,
    params_to_record,
    snapshot,
    stack,
    stats_from_record,
    stats_to_record,
)
from .nn import AdamState, adam_step, assert_all_finite
from .ranges import Numbers, check, check_file_values, check_record, rule

EPISODIC = "episodic"
ONLINE = "online"
ADAPTATION_MODES = (EPISODIC, ONLINE)

#: Most adaptation steps per event a config or checkpoint may ask for: 300
#: times the shift_mid preset's 30, about 1.3 s per 51-node shift-mid event
#: at ~0.13 ms a step on one CPU. Without a ceiling a count such as 10**400
#: passes as valid and evaluation never ends.
MAX_TTT_STEPS = 10_000

#: Most training epochs, and most stale epochs before early stopping
#: (``patience``), a config or checkpoint may ask for: 50 times the default
#: 200 epochs, about 15 minutes of shift_mid training at ~0.09 s an epoch.
#: Without a ceiling ``epochs=10**400`` passes as valid and training never
#: ends; a patience above the epoch count never stops a run early, so the
#: two share one ceiling.
MAX_EPOCHS = 10_000

CHECKPOINT_FORMAT = "tard-checkpoint-v1"


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for training and test-time adaptation.

    alpha1 weights the self-supervised loss during training; alpha2 weights
    the statistics-alignment penalty during adaptation. ttt_steps = 0 turns
    adaptation off entirely. Each field's range is its ``rule``.
    """

    alpha1: float = rule(1.0, ge=0, real=True)
    alpha2: float = rule(0.1, ge=0, real=True)
    epochs: int = rule(200, ge=1, le=MAX_EPOCHS)
    train_lr: float = rule(5e-3, gt=0, real=True)
    ttt_lr: float = rule(1e-3, gt=0, real=True)
    ttt_steps: int = rule(10, ge=0, le=MAX_TTT_STEPS)
    adaptation_mode: str = rule(EPISODIC, choices=ADAPTATION_MODES)
    seed: int = rule(0, ge=0)
    d_hidden: int = rule(16, ge=1, le=MAX_D_HIDDEN)
    shared_layers: int = rule(1, ge=1, le=MAX_LAYERS)
    main_layers: int = rule(1, ge=1, le=MAX_LAYERS)
    ssl_layers: int = rule(1, ge=1, le=MAX_LAYERS)
    adjacency: str = rule("undirected", choices=("undirected", "directed"))
    patience: int = rule(20, ge=1, le=MAX_EPOCHS)
    min_delta: float = rule(1e-4, ge=0, real=True)

    def __post_init__(self) -> None:
        check(TrainConfig, vars(self))


@dataclass
class TrainedModel:
    """Training output: parameters, training-set embedding stats, provenance."""

    params: TardParams
    train_stats: EmbeddingStats
    config: TrainConfig
    training_log: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class EventRecord:
    """Per-event evaluation result, one JSONL line in reports.

    ls_pre/ls_post are scored with the same probe permutation so they are
    comparable; lc_* is the alignment penalty, which needs no randomness.
    wall_time_s is the event's share of its lockstep batch: the batch's wall
    time, from graph build to prediction, over its event count.
    """

    event_id: str
    label: int
    pred: int
    probs: tuple[float, ...]
    ls_pre: float
    ls_post: float
    lc_pre: float
    lc_post: float
    steps: int
    wall_time_s: float

    def to_json_dict(self) -> dict:
        rec = asdict(self)
        rec["probs"] = list(self.probs)
        return {"id": rec.pop("event_id"), **rec}

    @staticmethod
    def from_json_dict(rec: dict) -> "EventRecord":
        fields = dict(rec, probs=tuple(rec["probs"]))
        return EventRecord(event_id=fields.pop("id"), **fields)


def training_streams(
    seed: int,
) -> tuple[np.random.SeedSequence, np.random.Generator, np.random.Generator]:
    """Split one seed into (init seed, epoch-order rng, augmentation rng).

    Separate streams keep degeneracies exact: with alpha1 = 0 the
    augmentation stream is never drawn from, so parameter updates match a
    run that never had an SSL head.
    """
    ss_init, ss_order, ss_aug = np.random.SeedSequence(seed).spawn(3)
    return ss_init, np.random.default_rng(ss_order), np.random.default_rng(ss_aug)


def _check_feature_dims(events: Sequence[PropagationEvent]) -> int:
    d = events[0].feature_dim
    for e in events[1:]:
        if e.feature_dim != d:
            raise ValueError(
                f"inconsistent feature dims: event {e.id!r} has {e.feature_dim}, expected {d}"
            )
    return d


def train_phase(train_set: Sequence[PropagationEvent], config: TrainConfig) -> TrainedModel:
    """Joint training of extractor, classification head and SSL head.

    One graph per optimizer step; epoch order reshuffled from the order
    stream. Early-stops when the epoch objective stops improving by at least
    min_delta for `patience` consecutive epochs. Embedding stats are computed
    from the final parameters over the whole training set. The classes are
    0 up to the largest label, and at least two.
    """
    if not train_set:
        raise ValueError("empty training set")
    d_in = _check_feature_dims(train_set)
    labels = [e.label for e in train_set]

    dims = ModelDims(
        d_in=d_in,
        d_hidden=config.d_hidden,
        num_classes=max(max(labels) + 1, 2),
        shared_layers=config.shared_layers,
        main_layers=config.main_layers,
        ssl_layers=config.ssl_layers,
    )
    ss_init, order_rng, aug_rng = training_streams(config.seed)
    params = init_params(dims, ss_init)
    graphs = [to_prop_graph(e, mode=config.adjacency) for e in train_set]

    # With alpha1 = 0 the SSL head receives no gradient; leaving it out of the
    # optimizer makes the pure-supervised degeneracy exact by construction.
    opt_groups = ALL_GROUPS if config.alpha1 != 0.0 else (GROUP_SHARED, GROUP_MAIN)
    span = params.span(opt_groups)
    opt = AdamState(lr=config.train_lr)

    log: list[dict] = []
    best = np.inf
    stale = 0
    for epoch in range(config.epochs):
        order = order_rng.permutation(len(graphs))
        sum_lm = 0.0
        sum_ls = 0.0
        for idx in order:
            span.grad.fill(0.0)
            perm = None
            if config.alpha1 != 0.0:
                perm = aug_rng.permutation(graphs[idx].num_nodes)
            losses = objective(
                graphs[idx], params, label=labels[idx], perm=perm, w_s=config.alpha1
            )
            sum_lm += losses.l_m
            if perm is not None:
                sum_ls += losses.l_s
            adam_step(span, opt)
        mean_lm = sum_lm / len(graphs)
        mean_ls = sum_ls / len(graphs)
        total = mean_lm + config.alpha1 * mean_ls
        log.append({"epoch": epoch, "l_m": mean_lm, "l_s": mean_ls, "objective": total})
        if total < best - config.min_delta:
            best = total
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    train_stats = compute_embedding_stats(graphs, params)
    return TrainedModel(
        params=params, train_stats=train_stats, config=config, training_log=log
    )


def with_config(model: TrainedModel, **overrides) -> TrainedModel:
    """Same trained parameters under different adaptation knobs.

    Ablation variants come from here, so their checkpoints are identical by
    construction.
    """
    return replace(model, config=replace(model.config, **overrides))


def ttt_adapt(
    graph: PropGraph | GraphBatch,
    model: TrainedModel,
    rng: np.random.Generator | Sequence[np.random.Generator],
    params: TardParams,
) -> tuple[TardParams, tuple[Losses, Losses]]:
    """Per-sample test-time training: ttt_steps Adam steps on L_s + alpha2*L_c.

    Starts from a copy of `params`. Only the extractor and SSL head move;
    the classification head is not even handed to the optimizer. The input
    parameters are never mutated. The first rng draw is a probe permutation
    used to score L_s before and after; each step then draws its own
    corruption. Returns the adapted parameters and the (pre, post) probe
    losses.

    A ``GraphBatch`` of K events, with one generator per event, adapts them
    in lockstep: one loop of steps over K stacked copies of ``params``, each
    event drawing from its own generator and getting the bits it gets alone
    (see ``objective``). The adapted parameters are then that (K, P) stack
    (one set for a batch of one) and each loss a list. A step that goes
    non-finite raises FloatingPointError naming the first group that did,
    and in a batch the first event.
    """
    cfg = model.config
    blocks = graph.blocks
    lone = isinstance(graph, PropGraph)
    rngs = (rng,) if lone else rng
    work = snapshot(params) if len(rngs) == 1 else stack(params, len(rngs))
    probe_perm = blocks.permutation(rngs)
    stats = model.train_stats
    pre = objective(graph, work, perm=probe_perm, stats=stats, grad=False)

    adapted = (GROUP_SHARED, GROUP_SSL)
    span = work.span(adapted)
    opt = AdamState(lr=cfg.ttt_lr)
    for _ in range(cfg.ttt_steps):
        perm = blocks.permutation(rngs)
        span.grad.fill(0.0)
        objective(graph, work, perm=perm, stats=stats, w_c=cfg.alpha2, values=False)
        adam_step(span, opt)
        if not np.isfinite(span.value).all():
            rows = span.value.reshape(len(rngs), -1)
            k = int(np.argmin(np.isfinite(rows).all(axis=1)))  # the first event that did
            where = "" if lone else f" of event {graph.ids[k]!r}"
            for g in adapted:  # name the first group that went non-finite
                value = work.groups[g].value.reshape(len(rngs), -1)[k]
                assert_all_finite(f"theta_{g}{where}", value)

    post = objective(graph, work, perm=probe_perm, stats=stats, grad=False)
    return work, (pre, post)


def predict(graph: PropGraph | GraphBatch, params: TardParams) -> tuple:
    """Class index (ties break toward the lower index) and probability
    vector; for a batch and stacked ``params``, a list of indices and one
    row of probabilities per event."""
    shared_h, _ = forward_shared(graph, params)
    probs, _ = forward_main(shared_h, graph, params)
    if isinstance(graph, PropGraph):
        return int(np.argmax(probs)), probs
    return [int(np.argmax(p)) for p in probs], probs


def event_rng(seed: int, event_id: str) -> np.random.Generator:
    """Generator keyed by (seed, event id): stable under test-set reordering."""
    digest = hashlib.sha256(event_id.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


def _check_model_compat(events: Sequence[PropagationEvent], model: TrainedModel) -> None:
    d = _check_feature_dims(events)
    if d != model.params.dims.d_in:
        raise ValueError(
            f"feature dim mismatch: data has {d}, checkpoint expects {model.params.dims.d_in}"
        )
    num_classes = model.params.dims.num_classes
    for e in events:
        if not 0 <= e.label < num_classes:
            raise ValueError(
                f"event {e.id!r} has label {e.label}, outside the checkpoint's "
                f"classes [0, {num_classes})"
            )


def _eval_batch(
    events: Sequence[PropagationEvent], model: TrainedModel, params: TardParams
) -> tuple[list[EventRecord], TardParams]:
    """Adapt ``events`` in lockstep from ``params`` and predict each; returns
    their records and the adapted parameters (``ttt_adapt``). Each record's
    wall time is the batch's wall time over its event count."""
    start = time.perf_counter()
    graphs = [to_prop_graph(event, mode=model.config.adjacency) for event in events]
    batch = GraphBatch(graphs, [event.id for event in events])
    rngs = [event_rng(model.config.seed, event.id) for event in events]
    adapted, (pre, post) = ttt_adapt(batch, model, rngs, params)
    preds, probs = predict(batch, adapted)
    wall = (time.perf_counter() - start) / len(events)
    records = [
        EventRecord(
            event_id=event.id,
            label=event.label,
            pred=preds[k],
            probs=tuple(float(p) for p in probs[k]),
            ls_pre=pre.l_s[k],
            ls_post=post.l_s[k],
            lc_pre=pre.l_c[k],
            lc_post=post.l_c[k],
            steps=model.config.ttt_steps,
            wall_time_s=wall,
        )
        for k, event in enumerate(events)
    ]
    return records, adapted


#: Rows, the node counts of its events summed, at which a lockstep batch of
#: an episodic ``evaluate`` closes. Measured on a 2-vCPU VM, in one process on
#: one CPU (the 100 shift-mid test events of seed 0, 30 steps each, best of
#: 5): batches closed at 100, 200, 300, 400, 600, 800 and 1200 rows took 421,
#: 351, 324, 317, 302, 296 and 297 ms, and the events one at a time about
#: 500 ms. The gain levels off from about 600 rows (12 shift-mid events).
#: Cutting a small test set finer, so that each of 2 workers gets 1, 2, 4 or
#: 8 batches, was no faster pooled than this budget alone on 12-100 events;
#: 4 and 8 per worker were slower on 12 and 24 events (``BENCH_lockstep.json``,
#: ``batches_per_worker``). The cut therefore ignores the worker count.
LOCKSTEP_ROWS = 600


def lockstep_batches(sizes: Sequence[int]) -> list[list[int]]:
    """Event indices, largest event first (ties in input order), cut into
    consecutive batches to adapt in lockstep.

    A batch closes once its rows reach :data:`LOCKSTEP_ROWS`. An event of
    :data:`~tard.graphs.EDGE_LIST_MIN_NODES` nodes or more, whose products
    outweigh the calls that make them, goes alone.
    """
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    batches: list[list[int]] = []
    rows = LOCKSTEP_ROWS
    for i in order:
        alone = sizes[i] >= EDGE_LIST_MIN_NODES
        if rows >= LOCKSTEP_ROWS or alone:
            batches.append([])
            rows = 0
        batches[-1].append(i)
        rows += LOCKSTEP_ROWS if alone else sizes[i]
    return batches


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: (fn, items) of the ``fork_map`` in progress. Set just before its pool
#: forks, so the workers inherit both instead of unpickling them; cleared
#: when the call ends.
_FORK_JOB: tuple[typing.Callable, Sequence] | None = None


def _fork_call(i: int):
    fn, items = _FORK_JOB
    return fn(items[i])


def _pin_worker(cpus: list[int], started) -> None:
    """Pool initializer: pin the k-th worker to start to ``cpus[k % len(cpus)]``.

    ``started`` is a shared counter, read and bumped under its lock, so a
    worker the pool respawns takes the next CPU instead of waiting for one.
    A CPU that left the process's set since the parent read it leaves the
    worker where the kernel put it, rather than failing its start, which the
    pool would retry for ever.
    """
    with started.get_lock():
        k = started.value
        started.value += 1
    try:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
    except OSError:
        pass


def fork_map(fn: typing.Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]`` on forked workers, one per usable CPU, in
    input order. ``fn`` and ``items`` reach the workers through the fork, so
    only results are pickled. One CPU or item, a daemonic process (a worker
    itself, which may not have children) and a process running other threads
    (whose forked child can deadlock) run the plain loop.

    Worker k is pinned to the k-th CPU of the parent's affinity mask (modulo
    its size), where the OS has affinity masks; the parent stays as it was.
    Left to itself, the kernel of a 2-vCPU VM at times ran both workers on
    one vCPU while the other sat idle: each worker's wall time was about
    twice its CPU time, and the pooled ``evaluate`` of the large-cascade
    benchmark ran at 22-25 events/s, slower than the serial online pass.
    Pinned, it ran at 43 events/s in the same stretch; where the kernel
    spreads the workers itself the two are level (``BENCH_pinned_workers.json``).
    """
    global _FORK_JOB
    workers = min(_usable_cpus(), len(items))
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
    ):
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    pin = {}
    if hasattr(os, "sched_setaffinity"):
        pin = {
            "initializer": _pin_worker,
            "initargs": (sorted(os.sched_getaffinity(0)), ctx.Value("i", 0)),
        }
    _FORK_JOB = (fn, items)
    try:
        pool = ctx.Pool(workers, **pin)
        try:
            return pool.map(_fork_call, range(len(items)), chunksize=1)
        finally:
            pool.terminate()
            pool.join()
    finally:
        _FORK_JOB = None


def evaluate(test_set: Sequence[PropagationEvent], model: TrainedModel) -> list[EventRecord]:
    """Adapt-and-predict every event in order.

    Episodic mode starts each event from the trained snapshot, and every
    event's randomness comes from (config seed, event id), so records are a
    pure function of (model, event): reordering or splitting the test set
    cannot change any record. Episodic events that adapt therefore go
    through ``fork_map`` in lockstep batches (``lockstep_batches``), and the
    records are identical for any worker count or batch cut. Each worker
    runs pinned to its own CPU, since unpinned the kernel at times stacked
    both workers of a 2-vCPU machine on one (``fork_map``). The batches go
    to the pool largest first, since ``fork_map`` hands them out in the
    order given and the largest would otherwise start last, and the records
    come back in input order. Online mode carries the adapted parameters
    over to the next event; it is order-sensitive by design, runs serially,
    and a single-event stream matches episodic mode exactly.
    """
    if not test_set:
        raise ValueError("empty test set")
    _check_model_compat(test_set, model)
    if model.config.adaptation_mode == EPISODIC and model.config.ttt_steps > 0:
        batches = lockstep_batches([e.num_nodes for e in test_set])
        done = fork_map(
            lambda events: _eval_batch(events, model, model.params)[0],
            [[test_set[i] for i in batch] for batch in batches],
        )
        by_index = {i: r for batch, recs in zip(batches, done) for i, r in zip(batch, recs)}
        return [by_index[i] for i in range(len(test_set))]
    records: list[EventRecord] = []
    running = model.params
    for event in test_set:
        (record,), adapted = _eval_batch([event], model, running)
        records.append(record)
        if model.config.adaptation_mode == ONLINE:
            running = adapted
    return records


# --- checkpoint I/O ---------------------------------------------------------

def checkpoint_record(model: TrainedModel) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "params": params_to_record(model.params),
        "train_stats": stats_to_record(model.train_stats),
        "training_log": model.training_log,
    }


def save_checkpoint(model: TrainedModel, path: str | Path) -> None:
    """JSON checkpoint; float values round-trip bit-exactly."""
    payload = json.dumps(checkpoint_record(model), sort_keys=True, separators=(",", ":"))
    Path(path).write_text(payload + "\n", encoding="utf-8")


def architecture_mismatch(values: dict, dims: ModelDims) -> tuple[str, object, int] | None:
    """``(name, value, dims value)`` of the first architecture field that
    ``values`` gives and ``dims`` contradicts; None when they agree."""
    for name in ("d_hidden",) + LAYER_COUNTS:
        have = getattr(dims, name)
        if name in values and values[name] != have:
            return name, values[name], have
    return None


#: Every key ``save_checkpoint`` writes, by its rule (``ranges.check_record``).
#: Nothing reads ``training_log``'s entries, so they are not checked.
_MATRIX_RECORD = {"shape": tuple[int, ...], "data": Numbers(1)}
_CHECKPOINT_RECORD = {
    "format": str,
    "config": TrainConfig,
    "params": {"dims": ModelDims, "matrices": dict},
    "train_stats": {"mu": Numbers(1), "eta": Numbers(2), "count": int},
    "training_log": list,
}


def load_checkpoint(path: str | Path) -> TrainedModel:
    """Read and validate a checkpoint. The walk checks every key and turns
    each array of numbers into a float64 array once; any defect raises a
    ValueError naming the file and the dotted key."""
    try:
        rec = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
        raise ValueError(f"checkpoint {path}: unreadable as JSON: {exc}") from None
    source = f"checkpoint {path}"
    fmt = rec.get("format") if isinstance(rec, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"{source}: 'format' is {reprlib.repr(fmt)}, not {CHECKPOINT_FORMAT!r}")
    check_record(source, "", rec, _CHECKPOINT_RECORD)
    for name, matrix in rec["params"]["matrices"].items():
        check_record(source, f"params.matrices.{name}", matrix, _MATRIX_RECORD)
    # Counted first, from the layer counts as written: the matrices a count
    # asks for must be there, however large it is.
    have = len(rec["params"]["matrices"])
    need = sum(rec["params"]["dims"][name] for name in LAYER_COUNTS) + 2
    if have < need:
        raise ValueError(
            f"{source}: 'params.matrices' has {have} matrices, but 'params.dims' gives {need}"
        )
    config = check_file_values(source, "config.", TrainConfig, rec["config"])
    dims = check_file_values(source, "params.dims.", ModelDims, rec["params"]["dims"])
    bad = architecture_mismatch(rec["config"], dims)
    if bad is not None:
        name, value, have = bad
        raise ValueError(f"{source}: 'config.{name}' is {value}, but 'params.dims' gives {have}")
    mu = rec["train_stats"]["mu"]
    if len(mu) != dims.d_hidden:
        raise ValueError(
            f"{source}: 'train_stats.mu' has {len(mu)} entries, "
            f"but 'params.dims' gives d_hidden {dims.d_hidden}"
        )
    try:
        params = params_from_record(rec["params"])
        train_stats = stats_from_record(rec["train_stats"])
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    return TrainedModel(params, train_stats, config, rec["training_log"])
