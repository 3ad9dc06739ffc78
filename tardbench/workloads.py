"""The benchmark's workloads, their inputs and the checks on their outputs.

Every workload runs the same phases on its own events, so every end-to-end
metric exists on every workload with one meaning:

  setup    generate the datasets (and train, where training is not measured)
  train    ``train_phase`` on the source split     -> train_steps_per_s
           (each round on shift-mid; in set-up on large-cascade)
  io       dataset + checkpoint round trip         -> io_s
  batch    ``evaluate(targets, model)``, episodic  -> eval_events_per_s, accuracy
  no-ttt   the same with ``ttt_steps=0``           -> adapt_gain (reported only)
  closed   one client, one event per call          -> event_ms_p50, event_ms_p95
  online   ``adaptation_mode="online"``            -> online_events_per_s

Only public API that later refactors keep is called: ``generate_domain``,
``shift_mid``, ``train_phase``, ``with_config``, ``evaluate`` (no
``workers=``), ``compute_metrics`` and the dataset and checkpoint I/O.
``group_bytes`` gives the byte form of the parameters for the identity check.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import tard
from tard.model import ALL_GROUPS, group_bytes

#: Fewest set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
LARGE_EVENTS = 9
LARGE_SIZES = (300, 2000)
LARGE_SOURCE_EVENTS = 200
#: Epochs of large-cascade's set-up training. Latency and throughput of
#: adaptation do not depend on how far the model was trained.
SETUP_EPOCHS = 5


@dataclass
class Inputs:
    """What a workload's seed generates, plus its training config."""

    config: "tard.TrainConfig"
    splits: dict[str, list]  # written and read back by the io phase; "train" trains
    targets: list  # the events every eval phase runs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, bool], Inputs]
    train_in_setup: bool
    closed_chunk: int  # closed-loop events per round
    min_rounds: int  # enough rounds for 200 closed-loop samples where possible


@dataclass
class Checks:
    """Correctness checks (run outside timed regions) and event accounting."""

    passed: dict[str, bool] = field(default_factory=dict)
    first_failure: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.passed[name] = self.passed.get(name, True) and bool(ok)
        if not ok and name not in self.first_failure:
            self.first_failure[name] = detail
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.passed.values()) and self.failed == 0


# --- inputs -----------------------------------------------------------------

def _tiny(cfg):
    """A few small events and steps, for the harness self-check."""
    domain = replace(cfg.domain, num_events=12, size_dist=(4, 10))
    train = replace(cfg.train, epochs=2, ttt_steps=3)
    return replace(cfg, domain=domain, train=train, val_events=4, test_events=5)


def shift_mid_inputs(seed: int, tiny: bool = False) -> Inputs:
    cfg = tard.shift_mid(seed)
    if tiny:
        cfg = _tiny(cfg)
    train = tard.generate_domain(cfg.domain)
    val = tard.generate_domain(cfg.val_spec())
    test = tard.generate_domain(cfg.target_spec())
    return Inputs(cfg.train, {"train": train, "val": val, "test": test}, test)


def large_sizes(count: int, lo: int, hi: int) -> list[int]:
    """``count`` node counts spaced evenly on a log scale from lo to hi.

    The sizes are fixed and only the cascades' content comes from the seed,
    so a run costs the same whatever the seed.
    """
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def large_cascade_inputs(seed: int, tiny: bool = False) -> Inputs:
    cfg = tard.shift_mid(seed)
    source = replace(cfg.domain, num_events=LARGE_SOURCE_EVENTS)
    train_cfg = replace(cfg.train, epochs=SETUP_EPOCHS)
    count, (lo, hi) = LARGE_EVENTS, LARGE_SIZES
    if tiny:
        cfg = _tiny(cfg)
        source, train_cfg = cfg.domain, cfg.train
        count, (lo, hi) = 3, (20, 60)
    target = cfg.target_spec()
    seeds = np.random.SeedSequence([seed, 0x1A26E]).generate_state(count, np.uint64)
    targets = []
    for n, s in zip(large_sizes(count, lo, hi), seeds):
        spec = replace(target, num_events=1, size_dist=(n, n), seed=int(s))
        targets += tard.generate_domain(spec)
    train = tard.generate_domain(source)
    return Inputs(train_cfg, {"train": train, "large": targets}, targets)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "shift-mid",
            "the shift_mid preset as tard ablate runs it, plus one event per call and "
            "online mode: Python-call-bound, so fusion shows everywhere, batching only in batch eval",
            shift_mid_inputs, train_in_setup=False, closed_chunk=100, min_rounds=2,
        ),
        Workload(
            "large-cascade",
            "9 cascades of 300-2000 nodes around the ~500-node dense/edge-list "
            "crossover: BLAS-bound N x N propagation and adjacency memory dominate",
            large_cascade_inputs, train_in_setup=True, closed_chunk=LARGE_EVENTS, min_rounds=1,
        ),
    )
}


# --- state shared by the phases ----------------------------------------------

@dataclass
class State:
    inputs: Inputs
    model: object = None  # tard.TrainedModel
    reference_bytes: tuple = ()  # param_bytes(model) when it was trained


def param_bytes(model) -> tuple:
    return tuple(group_bytes(model.params, g) for g in ALL_GROUPS)


def train(state: State) -> tuple[int, float]:
    """Train on the source split; returns (Adam steps, seconds)."""
    train_set = state.inputs.splits["train"]
    start = time.perf_counter()
    model = tard.train_phase(train_set, state.inputs.config)
    elapsed = time.perf_counter() - start
    state.model = model
    state.reference_bytes = param_bytes(model)
    return len(train_set) * len(model.training_log), elapsed


def setup(workload: Workload, seed: int, tiny: bool) -> tuple[State, float, tuple | None]:
    """Returns (state, set-up seconds, train() result when training is set-up)."""
    start = time.perf_counter()
    state = State(workload.make_inputs(seed, tiny))
    trained = train(state) if workload.train_in_setup else None
    return state, time.perf_counter() - start, trained


# --- checks -----------------------------------------------------------------

def _record_key(record) -> str:
    """Every record field except timings, in a form that compares bit for bit."""
    return repr(sorted((k, v) for k, v in vars(record).items() if "time" not in k))


def records_checksum(records) -> str:
    h = hashlib.sha256()
    for r in records:
        probs = tuple(float(p) for p in r.probs)
        h.update(f"{r.event_id}\t{r.pred}\t{probs!r}\n".encode())
    return h.hexdigest()


def _check_records(records, events, state: State, checks: Checks, tag: str) -> None:
    checks.check(
        "params_unchanged",
        param_bytes(state.model) == state.reference_bytes,
        f"model.params changed during {tag}",
    )
    ids_ok = [r.event_id for r in records] == [e.id for e in events]
    checks.check("records_match_events", ids_ok, f"{tag}: record ids differ from events")
    for r in records:
        probs = np.asarray(r.probs, dtype=np.float64)
        ok = bool(np.all(np.isfinite(probs))) and abs(float(probs.sum()) - 1.0) <= 1e-9
        if not checks.check("probs_valid", ok, f"{tag}: {r.event_id} probs {r.probs}"):
            checks.failed += 1


def _events_equal(a, b) -> bool:
    return (
        a.id == b.id
        and a.label == b.label
        and a.num_nodes == b.num_nodes
        and list(a.edges) == list(b.edges)
        and a.features.shape == b.features.shape
        and a.features.tobytes() == b.features.tobytes()
    )


def _models_equal(a, b) -> bool:
    return (
        param_bytes(a) == param_bytes(b)
        and a.config == b.config
        and a.train_stats.mu.tobytes() == b.train_stats.mu.tobytes()
        and a.train_stats.eta.tobytes() == b.train_stats.eta.tobytes()
    )


# --- timed calls --------------------------------------------------------------

def timed_evaluate(events, model, checks: Checks) -> tuple[list | None, float]:
    """One evaluate call; a raise counts every event in it as failed."""
    checks.attempted += len(events)
    start = time.perf_counter()
    try:
        records = tard.evaluate(events, model)
    except Exception:  # noqa: BLE001 - the benchmark keeps going and counts it
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        checks.failed += len(events)
        checks.check("calls_succeeded", False, "an evaluate call raised")
        return None, elapsed
    return records, time.perf_counter() - start


def io_round_trip(state: State, workdir: Path, checks: Checks) -> float:
    """write/read every split, then save/load the checkpoint; returns seconds."""
    elapsed = 0.0
    for name, events in state.inputs.splits.items():
        path = workdir / f"{name}.jsonl"
        start = time.perf_counter()
        tard.write_dataset(events, path)
        back = tard.read_dataset(path)
        elapsed += time.perf_counter() - start
        same = len(back) == len(events) and all(map(_events_equal, events, back))
        checks.check("io_round_trip", same, f"split {name} changed on disk")
    path = workdir / "model.json"
    start = time.perf_counter()
    tard.save_checkpoint(state.model, path)
    loaded = tard.load_checkpoint(path)
    elapsed += time.perf_counter() - start
    checks.check("io_round_trip", _models_equal(state.model, loaded), "checkpoint changed")
    return elapsed


@dataclass
class Samples:
    """Per-metric samples of one run, plus the records the checks need.

    Throughput samples are (work done, seconds) pairs.
    """

    setup_s: list[float] = field(default_factory=list)
    train_steps: list[tuple[int, float]] = field(default_factory=list)
    io_s: list[float] = field(default_factory=list)
    eval_events: list[tuple[int, float]] = field(default_factory=list)
    online_events: list[tuple[int, float]] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    full: list | None = None  # first full-variant batch records
    no_ttt: list | None = None
    checksums: set[str] = field(default_factory=set)


def no_span(name: str):
    return contextlib.nullcontext()


def run_round(
    workload: Workload,
    state: State,
    r: int,
    workdir: Path,
    checks: Checks,
    samples: Samples,
    span=no_span,
) -> None:
    """Round ``r`` of the measured phases. ``span(name)`` wraps each call.

    The long calls (train, batch, online) alternate with short ones (io round
    trips around a slice of the closed loop), so that every metric samples
    the machine's speed all through the run, not in one stretch of it: on a
    shared 2-vCPU machine that speed changes by up to 1.6x within seconds.
    """
    targets = state.inputs.targets

    def train_call():
        with span("train"):
            samples.train_steps.append(train(state))

    def batch_call():
        with span("batch"):
            full, secs = timed_evaluate(targets, state.model, checks)
        samples.eval_events.append((len(targets), secs))
        if full is not None:
            _check_records(full, targets, state, checks, "batch")
            samples.checksums.add(records_checksum(full))
            samples.full = samples.full or full
        if r == 0:
            with span("no_ttt"):
                no_ttt, _ = timed_evaluate(
                    targets, tard.with_config(state.model, ttt_steps=0), checks
                )
            if no_ttt is not None:
                _check_records(no_ttt, targets, state, checks, "no-ttt batch")
                samples.no_ttt = no_ttt

    def online_call():
        online_model = tard.with_config(state.model, adaptation_mode="online")
        with span("online"):
            online, secs = timed_evaluate(targets, online_model, checks)
        samples.online_events.append((len(targets), secs))
        if online is not None:
            _check_records(online, targets, state, checks, "online")

    def io_call():
        with span("io"):
            samples.io_s.append(io_round_trip(state, workdir, checks))

    long_calls = ([] if workload.train_in_setup else [train_call]) + [batch_call, online_call]
    # The closed loop walks the targets in chunks, wrapping around.
    order = [(r * workload.closed_chunk + k) % len(targets) for k in range(workload.closed_chunk)]
    closed = []
    for j, call in enumerate(long_calls):
        call()
        io_call()
        part = order[j * len(order) // len(long_calls) : (j + 1) * len(order) // len(long_calls)]
        for i in part:
            with span("closed_loop_event"):
                single, secs = timed_evaluate([targets[i]], state.model, checks)
            samples.latencies_ms.append(secs * 1e3)
            if single is not None:
                _check_records(single, [targets[i]], state, checks, "closed loop")
                closed.append((i, single[0]))
        io_call()

    if samples.full is not None:
        for i, record in closed:
            checks.check(
                "stream_matches_batch",
                _record_key(record) == _record_key(samples.full[i]),
                f"{record.event_id}: single-event record differs from the batch record",
            )


def _setup_sample(workload: Workload, seed: int, tiny: bool, samples: Samples) -> State:
    state, secs, trained = setup(workload, seed, tiny)
    samples.setup_s.append(secs)
    if trained is not None:
        samples.train_steps.append(trained)
    return state


def measure(
    workload: Workload,
    seed: int,
    tiny: bool,
    seconds: float,
    workdir: Path,
    checks: Checks,
    samples: Samples,
) -> int:
    """Set up, run a round, repeat until the rounds took about ``seconds``.

    A fresh set-up before each round spreads the set-up samples over the run
    like all the others. Returns the number of rounds.
    """
    measured = 0.0
    rounds = 0
    while True:
        state = _setup_sample(workload, seed, tiny, samples)
        start = time.perf_counter()
        run_round(workload, state, rounds, workdir, checks, samples)
        measured += time.perf_counter() - start
        rounds += 1
        # Stop where one more round would end further past the mark than now short of it.
        if rounds >= workload.min_rounds and measured + 0.5 * measured / rounds >= seconds:
            break
    while len(samples.setup_s) < SETUP_REPEATS:
        _setup_sample(workload, seed, tiny, samples)
    return rounds


def flips(no_ttt, full) -> tuple[int, int]:
    """(wrong->right, right->wrong) prediction changes from no-ttt to full."""
    fixed = sum(a.pred != a.label and b.pred == b.label for a, b in zip(no_ttt, full))
    broken = sum(a.pred == a.label and b.pred != b.label for a, b in zip(no_ttt, full))
    return fixed, broken


def accuracy(records) -> float:
    return tard.compute_metrics(records).accuracy
