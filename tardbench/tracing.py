"""Outside-in tracing of the tard layers.

The benchmark never edits the package. Instead, for each public function it
traces, it rebinds every name in every loaded ``tard`` module that refers to
that function object, so calls made inside the package (``model.py`` and
``pipeline.py`` import by name) also pass through the wrapper. ``uninstall``
puts the original objects back.

Each call becomes a span (name, start, end, parent, run id). Spans are kept
in flat in-memory arrays and written out once, at the end. A span's self
time is its duration minus the durations of its direct children. A few
counts are computed from call arguments and results at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: The traced functions, by the ``tard`` module (layer) that defines them.
LAYERS: dict[str, tuple[str, ...]] = {
    "datagen": ("generate_domain", "write_dataset", "read_dataset"),
    "graphs": ("to_prop_graph", "build_adjacency", "normalize_adjacency"),
    "nn": (
        "gcn_forward",
        "gcn_backward",
        "contrastive_loss",
        "softmax_cross_entropy",
        "adam_step",
        "mean_readout_backward",
    ),
    "model": (
        "forward_shared",
        "forward_main",
        "forward_ssl",
        "main_loss",
        "ssl_loss",
        "ssl_loss_value",
        "adapt_losses",
        "constraint_loss",
        "embedding_stats",
        "compute_embedding_stats",
        "restore",
    ),
    "pipeline": (
        "train_phase",
        "ttt_adapt",
        "predict",
        "evaluate",
        "save_checkpoint",
        "load_checkpoint",
    ),
}

#: Counts reported with the per-layer metrics: (name, unit, better). The
#: flips are counted from records; the others by COUNTERS at call boundaries.
COUNTS: tuple[tuple[str, str, str], ...] = (
    ("graphs.adj_bytes", "bytes", "lower"),
    ("nn.gcn.flops", "flop_computed", "lower"),
    ("pipeline.train_steps", "count", "lower"),
    ("pipeline.epochs_run", "count", "lower"),
    ("pipeline.adapt_steps", "count", "lower"),
    ("pipeline.flips_fixed", "count", "higher"),
    ("pipeline.flips_broken", "count", "lower"),
)

TRACE_OVERHEAD = ("trace_overhead", "ratio", "lower")


def function_keys() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports: (name, unit, better)."""
    spec = []
    for key in function_keys():
        spec.append((f"{key}.calls", "count", "lower"))
        spec.append((f"{key}.self_s", "s", "lower"))
    return spec + list(COUNTS) + [TRACE_OVERHEAD]


def _gcn_forward_flops(args: tuple) -> int:
    adj, h, w = args[0], args[1], args[2]
    n, d_in, d_out = adj.shape[0], h.shape[1], w.shape[1]
    return 2 * adj.shape[0] * adj.shape[1] * d_in + 2 * n * d_in * d_out


def _gcn_backward_flops(args: tuple) -> int:
    cache = args[0]
    adj, ah, w = cache.adj_norm, cache.ah, cache.w
    n, d_in, d_out = ah.shape[0], w.shape[0], w.shape[1]
    # grad_w = ah.T @ dz, dz @ w.T, adj.T @ (...)
    return 4 * n * d_in * d_out + 2 * adj.shape[0] * adj.shape[1] * d_in


def _graph_bytes(graph) -> int:
    """Bytes of every array the built graph holds besides its features."""
    return sum(
        v.nbytes
        for k, v in vars(graph).items()
        if isinstance(v, np.ndarray) and k != "features"
    )


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {name: 0 for name, _, _ in COUNTS}
        self.uncounted: set[str] = set()
        self.absent: list[str] = []
        # One entry per finished span, in the order spans end.
        self._id = array("q")
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._run = array("q")
        # Open spans: [span id, name index, start, child time].
        self._stack: list[list] = []
        self._next_id = 0
        self._next_run = 0
        self._run_id = -1
        self._rebound: list[tuple[object, str, object]] = []
        self._ids: dict[str, int] = {}

    # --- spans -------------------------------------------------------------

    def _index(self, name: str) -> int:
        self._ids[name] = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return self._ids[name]

    def _enter(self, idx: int) -> None:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, idx, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, idx, start, child = self._stack.pop()
        dur = end - start
        self.calls[idx] += 1
        self.self_s[idx] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self._id.append(span_id)
        self._name.append(idx)
        self._start.append(start)
        self._end.append(end)
        self._parent.append(parent[0] if parent is not None else -1)
        self._run.append(self._run_id)

    @contextlib.contextmanager
    def root(self, name: str):
        """A benchmark-level span; spans under it share a new run id."""
        key = f"bench.{name}"
        idx = self._ids[key] if key in self._ids else self._index(key)
        self._run_id = self._next_run
        self._next_run += 1
        self._enter(idx)
        try:
            yield
        finally:
            self._exit()

    # --- wrapping ----------------------------------------------------------

    def _count(self, counters, args: tuple, result) -> None:
        """Add a call's counts; their cost is hidden from every span's self time."""
        start = time.perf_counter()
        for name, fn in counters:
            try:
                self.counts[name] += int(fn(args, result))
            except (AttributeError, IndexError, TypeError, ValueError):
                self.uncounted.add(name)
        if self._stack:
            self._stack[-1][3] += time.perf_counter() - start

    def _wrap(self, key: str, func):
        idx = self._index(key)
        tracer = self
        counters = [(name, fn) for k, name, fn in COUNTERS if k == key]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer._enter(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit()
            if counters:
                tracer._count(counters, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in every loaded tard module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "tard" or n.startswith("tard.")]
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"tard.{layer}")
            for fn in fns:
                key = f"{layer}.{fn}"
                func = getattr(home, fn, None)
                if not callable(func):
                    self.absent.append(key)
                    self._index(key)
                    continue
                wrapper = self._wrap(key, func)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is func:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, func))

    def uninstall(self) -> None:
        for mod, attr, func in reversed(self._rebound):
            setattr(mod, attr, func)
        self._rebound.clear()

    # --- results -----------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """calls and self time per traced function, then the computed counts."""
        out: dict[str, float] = {}
        for key in function_keys():
            i = self._ids.get(key)
            out[f"{key}.calls"] = self.calls[i] if i is not None else 0
            out[f"{key}.self_s"] = self.self_s[i] if i is not None else 0.0
        out.update(self.counts)
        return out

    def write_spans(self, path: Path) -> int:
        """Write all finished spans as gzipped TSV; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\trun\n")
            for i in range(len(self._name)):
                fh.write(
                    f"{self._id[i]}\t{self.names[self._name[i]]}\t{self._start[i]!r}\t"
                    f"{self._end[i]!r}\t{self._parent[i]}\t{self._run[i]}\n"
                )
        return len(self._name)


#: Counts computed from a traced call: (function, count, f(args, result)).
COUNTERS = (
    ("graphs.to_prop_graph", "graphs.adj_bytes", lambda args, out: _graph_bytes(out)),
    ("nn.gcn_forward", "nn.gcn.flops", lambda args, out: _gcn_forward_flops(args)),
    ("nn.gcn_backward", "nn.gcn.flops", lambda args, out: _gcn_backward_flops(args)),
    ("pipeline.train_phase", "pipeline.epochs_run", lambda args, out: len(out.training_log)),
    (
        "pipeline.train_phase",
        "pipeline.train_steps",
        lambda args, out: len(out.training_log) * len(args[0]),
    ),
    ("pipeline.evaluate", "pipeline.adapt_steps", lambda args, out: sum(r.steps for r in out)),
)
