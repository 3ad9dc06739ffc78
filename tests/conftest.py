"""Shared test fixtures and helpers."""

from __future__ import annotations

import csv
import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np
import pytest

from tard.datagen import DomainSpec, ShiftSpec, generate_domain
from tard.graphs import PropagationEvent, to_prop_graph
from tard.model import ModelDims, init_params
from tard.nn import Parameter
from tard.pipeline import TrainConfig, fork_map
from tard.presets import ExperimentConfig, shift_mid
from tard.reporting import run_ablation

# The acceptance tests record one (criterion, verdict, detail) entry each so
# the run can end with a compact per-criterion summary line.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_acceptance(number: int, name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((number, name, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, ok, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {number} [{name}]: {verdict}{suffix}")


def make_random_event(
    rng: np.random.Generator,
    num_nodes: int,
    feature_dim: int,
    event_id: str = "ev",
    label: int | None = None,
) -> PropagationEvent:
    """Random tree-shaped event with standard-normal features."""
    edges = [(int(rng.integers(0, k)), k) for k in range(1, num_nodes)]
    return PropagationEvent(
        id=event_id,
        label=int(rng.integers(0, 2)) if label is None else label,
        num_nodes=num_nodes,
        edges=edges,
        features=rng.standard_normal((num_nodes, feature_dim)),
    )


def make_random_graph(rng: np.random.Generator, num_nodes: int, feature_dim: int):
    return to_prop_graph(make_random_event(rng, num_nodes, feature_dim))


def separable(seed: int = 0) -> ExperimentConfig:
    """Well-separated classes, no shift: an easy, nearly noise-free sanity
    config for training-loop checks, where training should become
    near-perfect."""
    domain = DomainSpec(
        num_events=60,
        feature_dim=4,
        class_mean_separation=6.0,
        feature_noise_std=0.5,
        size_dist=(5, 15),
        branching_bias=0.5,
        structure_signal_strength=0.0,
        seed=seed,
    )
    shift = ShiftSpec()
    train = TrainConfig(seed=seed, epochs=50)
    return ExperimentConfig(
        domain=domain, shift=shift, train=train, val_events=20, test_events=20
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def shift_benchmark():
    """Ten-seed ablation on the calibrated shifted benchmark.

    Shared by the acceptance gate and the reporting tests so the (slow)
    ten training runs happen at most once per session; the seeds run side
    by side through ``fork_map``.
    """

    def one_seed(seed: int):
        exp = shift_mid(seed)
        train_set = generate_domain(exp.domain)
        test_set = generate_domain(exp.target_spec())
        return run_ablation(train_set, test_set, exp.train)

    start = time.perf_counter()
    results = fork_map(one_seed, range(10))
    return results, time.perf_counter() - start


@pytest.fixture
def pools(monkeypatch):
    """Start methods of the process pools that ``fork_map`` asks for."""
    methods = []
    get_context = multiprocessing.get_context

    def spy(method=None):
        methods.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return methods


@pytest.fixture
def small_params():
    return init_params(ModelDims(d_in=4, d_hidden=5, num_classes=2), seed=99)


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    ok: bool


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


def finite_difference_check(
    loss_fn: Callable[[], tuple[float, Mapping[str, np.ndarray]]],
    named_params: Sequence[tuple[str, Parameter]],
    step: float = 1e-5,
    tolerance: float = 1e-5,
    scale_floor: float = 1e-3,
) -> GradCheckReport:
    """Central-difference check of analytic gradients.

    ``loss_fn`` must be deterministic and pure given the current parameter
    values; it returns the loss and analytic gradients keyed like
    ``named_params``. Each entry's error is |analytic - numeric| divided by
    max(|analytic|, |numeric|, scale_floor); below ``scale_floor`` the
    comparison degrades to an absolute check, which keeps finite-difference
    round-off from dominating near-zero gradients.
    """
    _, analytic = loss_fn()
    analytic = {name: np.array(g, dtype=np.float64) for name, g in analytic.items()}
    entries = []
    for name, p in named_params:
        grad_a = analytic[name]
        if grad_a.shape != p.value.shape:
            raise ValueError(f"{name}: gradient shape {grad_a.shape} != {p.value.shape}")
        worst = 0.0
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up, _ = loss_fn()
            flat[i] = orig - step
            down, _ = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            a = grad_a.reshape(-1)[i]
            denom = max(abs(a), abs(numeric), scale_floor)
            worst = max(worst, abs(a - numeric) / denom)
        entries.append(GradCheckEntry(name=name, max_rel_error=worst, ok=worst < tolerance))
    return GradCheckReport(entries=entries, tolerance=tolerance)


def parse_report_csv(path: str | Path) -> tuple[str, list[dict]]:
    """Inverse of the CSV emitter: (fingerprint, rows with parsed floats)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    fingerprint = ""
    data_lines = []
    for line in lines:
        if line.startswith("# config="):
            fingerprint = line[len("# config=") :]
        elif line:
            data_lines.append(line)
    reader = csv.DictReader(data_lines, lineterminator="\n")
    rows = []
    for rec in reader:
        parsed: dict = {"variant": rec["variant"], "seed": int(rec["seed"])}
        for key, value in rec.items():
            if key not in ("variant", "seed"):
                parsed[key] = float(value)
        rows.append(parsed)
    return fingerprint, rows
