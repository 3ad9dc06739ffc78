"""Y-structure model: a shared GCN extractor feeding a classification head
and a contrastive SSL head, plus embedding statistics for the adaptation
constraint.

Parameter groups:
  theta_e  shared extractor, ``shared_layers`` GCN layers (relu)
  theta_m  classification head: GCN layers (relu), mean readout, affine map
           to class logits, softmax
  theta_s  SSL head: GCN layers, relu on hidden layers and identity on the
           last so node-vs-readout scores can take either sign

Every GCN layer is the graph's propagation (``PropGraph.propagate``, and
``propagate_back`` on the way back) followed by the dense half in ``nn``;
the stack helpers here call the two in turn.

All parameters live in one flat value buffer and one flat grad buffer.
``layout`` names every matrix, its shape and its place in them: the groups
lie in the order m, e, s, so each set the optimizer updates (all three
groups, e+m, e+s) is one contiguous slice (``TardParams.span``). Groups and
matrices are views into the two buffers. ``objective`` computes any mix of
the three loss terms and accumulates their gradients into the grad buffer;
callers zero a span per step and hand it to the optimizer whole.

The buffers may carry a leading axis of K events (``stack``): flat (K, P),
each matrix (K, r, c). ``objective`` on a ``GraphBatch`` of K graphs steps
them all at once, event k's rows against parameter row k.
"""

from __future__ import annotations

import reprlib
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .graphs import MAX_CLASSES, GraphBatch, PropGraph
from .nn import (
    Blocks,
    Parameter,
    GcnCache,
    contrastive_loss,
    gcn_backward,
    gcn_forward,
    glorot,
    mean_readout,
    mean_readout_backward,
    softmax,
    softmax_cross_entropy,
)
from .ranges import check, rule

GROUP_SHARED = "e"
GROUP_MAIN = "m"
GROUP_SSL = "s"
ALL_GROUPS = (GROUP_SHARED, GROUP_MAIN, GROUP_SSL)


#: Widest hidden layer and most GCN layers per stack a model may have. Sizes
#: that allocate or loop need a ceiling: without one, ``d_hidden`` of 10**8
#: ends in a numpy MemoryError and 10**8 layers never finish building. At both
#: ceilings a model holds about 6.3M parameters (50 MB), and a lockstep batch
#: holds one copy per event; the presets use 16 and 1.
MAX_D_HIDDEN = 512
MAX_LAYERS = 8

LAYER_COUNTS = ("shared_layers", "main_layers", "ssl_layers")


@dataclass(frozen=True)
class ModelDims:
    """Architecture record: feature dim, hidden width, classes, layer counts."""

    d_in: int = rule(ge=1)
    d_hidden: int = rule(ge=1, le=MAX_D_HIDDEN)
    num_classes: int = rule(2, ge=2, le=MAX_CLASSES)
    shared_layers: int = rule(1, ge=1, le=MAX_LAYERS)
    main_layers: int = rule(1, ge=1, le=MAX_LAYERS)
    ssl_layers: int = rule(1, ge=1, le=MAX_LAYERS)

    def __post_init__(self) -> None:
        check(ModelDims, vars(self))


def layout(dims: ModelDims) -> dict[str, list[tuple[str, tuple[int, int]]]]:
    """Every matrix of the model, by group (m, e, s): its name and shape, in
    the order the flat buffer holds them. A name ending in ``_b`` is a bias."""
    h, c = dims.d_hidden, dims.num_classes

    def stack(prefix: str, first_in: int, count: int) -> list[tuple[str, tuple[int, int]]]:
        return [(f"{prefix}.{i}", (first_in if i == 0 else h, h)) for i in range(count)]

    return {
        GROUP_MAIN: stack("theta_m", h, dims.main_layers)
        + [("theta_m.out_w", (h, c)), ("theta_m.out_b", (1, c))],
        GROUP_SHARED: stack("theta_e", dims.d_in, dims.shared_layers),
        GROUP_SSL: stack("theta_s", h, dims.ssl_layers),
    }


@dataclass
class TardParams:
    """The three parameter groups of the Y-structure model.

    ``flat`` holds every value and every gradient, laid out by ``layout``.
    Each group in ``groups`` and each matrix is a ``Parameter`` whose value
    and grad are views into it. A (K, P) ``flat`` is a stack of K parameter
    sets, one per event of a batch: every view then has a leading axis of K.
    """

    dims: ModelDims
    flat: Parameter
    groups: dict[str, Parameter] = field(init=False)
    theta_e: list[Parameter] = field(init=False)
    theta_m_gcn: list[Parameter] = field(init=False)
    theta_m_out_w: Parameter = field(init=False)
    theta_m_out_b: Parameter = field(init=False)
    theta_s: list[Parameter] = field(init=False)
    _named: dict[str, list[tuple[str, Parameter]]] = field(init=False, repr=False)
    _bounds: dict[str, tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._named, self._bounds, start = {}, {}, 0
        value, grad = self.flat.value, self.flat.grad
        lead = value.shape[:-1]
        for g, entries in layout(self.dims).items():
            first, views = start, []
            for name, shape in entries:
                stop = start + shape[0] * shape[1]
                p = Parameter(
                    value[..., start:stop].reshape(lead + shape),
                    grad[..., start:stop].reshape(lead + shape),
                )
                views.append((name, p))
                start = stop
            self._named[g], self._bounds[g] = views, (first, start)
        self.groups = {g: self.span((g,)) for g in ALL_GROUPS}
        e, m, s = ([p for _, p in self._named[g]] for g in ALL_GROUPS)
        self.theta_e, self.theta_s = e, s
        self.theta_m_gcn, self.theta_m_out_w, self.theta_m_out_b = m[:-2], m[-2], m[-1]

    def __reduce__(self):
        # Pickle the flat buffer alone; unpickling rebuilds the views into it.
        return TardParams, (self.dims, self.flat)

    def span(self, groups: Sequence[str] = ALL_GROUPS) -> Parameter:
        """The buffers of ``groups`` as one flat ``Parameter`` of views; the
        groups must lie side by side in the layout."""
        bounds = [self._bounds[g] for g in groups]
        lo, hi = min(a for a, _ in bounds), max(b for _, b in bounds)
        if hi - lo != sum(b - a for a, b in bounds):
            raise ValueError(f"groups {tuple(groups)} are not one contiguous span")
        return Parameter(self.flat.value[..., lo:hi], self.flat.grad[..., lo:hi])

    def named_parameters(
        self, groups: Iterable[str] = ALL_GROUPS
    ) -> list[tuple[str, Parameter]]:
        """Each matrix of ``groups`` as a view into its group's buffers."""
        named: list[tuple[str, Parameter]] = []
        for g in groups:
            if g not in self._named:
                raise ValueError(f"unknown parameter group {g!r}")
            named += self._named[g]
        return named


def init_params(dims: ModelDims, seed: int | np.random.SeedSequence) -> TardParams:
    """Glorot-initialized matrices and zero biases. Groups e, m, s, in that
    order, each get a stream spawned from ``seed`` and draw their matrices
    from it in ``layout`` order."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rngs = dict(zip(ALL_GROUPS, map(np.random.default_rng, ss.spawn(len(ALL_GROUPS)))))
    mats = [
        np.zeros(r * c) if name.endswith("_b") else glorot(rngs[g], r, c).value.ravel()
        for g, entries in layout(dims).items()
        for name, (r, c) in entries
    ]
    return TardParams(dims, Parameter(np.concatenate(mats)))


def _run_stack(
    graph: PropGraph | GraphBatch,
    ah: np.ndarray,
    layers: Sequence[Parameter],
    activations: Sequence[str],
) -> tuple[np.ndarray, list[GcnCache]]:
    """Forward through a stack whose first layer reads ``ah``, its input
    already propagated over the graph; each later layer propagates the
    output of the one before. The views ``ah`` holds side by side stay side
    by side through every layer."""
    caches = []
    for i, (p, act) in enumerate(zip(layers, activations)):
        if i > 0:
            ah = graph.propagate(h)
        h, cache = gcn_forward(ah, p.value, act, graph.blocks.rows)  # type: ignore[arg-type]
        caches.append(cache)
    return h, caches


def _backward_stack(
    graph: PropGraph | GraphBatch,
    caches: Sequence[GcnCache],
    layers: Sequence[Parameter],
    grad_out: np.ndarray,
    *,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Backward through a stack, last layer first; each view's grad_w adds
    to its layer's ``.grad`` in view order. Returns the gradient at the
    first layer's propagated input, or None without ``input_grad``; carrying
    it back through the graph is the caller's choice."""
    for i in reversed(range(len(caches))):
        grad_ah, grad_ws = gcn_backward(caches[i], grad_out, input_grad=input_grad or i > 0)
        for grad_w in grad_ws:
            layers[i].grad += grad_w
        if i > 0:
            grad_out = graph.propagate_back(grad_ah)
    return grad_ah


def forward_shared(
    graph: PropGraph | GraphBatch, params: TardParams
) -> tuple[np.ndarray, list[GcnCache]]:
    """Node embeddings from the shared extractor (relu GCN layers)."""
    if graph.features.shape[1] != params.dims.d_in:
        raise ValueError(
            f"feature dim {graph.features.shape[1]} does not match model d_in {params.dims.d_in}"
        )
    acts = ["relu"] * len(params.theta_e)
    return _run_stack(graph, graph.ax, params.theta_e, acts)


def _main_head(
    graph: PropGraph | GraphBatch, params: TardParams, ah: np.ndarray
) -> tuple[list[GcnCache], np.ndarray, np.ndarray]:
    """The classification head up to its logits, from the extractor output
    already propagated over the graph (``ah``). Returns its GCN caches, the
    readout vector and the logits; a batch of more than one, with stacked
    ``params``, gets one row of each per event."""
    acts = ["relu"] * len(params.theta_m_gcn)
    h, caches = _run_stack(graph, ah, params.theta_m_gcn, acts)
    w, b = params.theta_m_out_w.value, params.theta_m_out_b.value
    if graph.blocks.one:
        g = mean_readout(h)
        w, b = (w, b) if w.ndim == 2 else (w[0], b[0])
        return caches, g, g @ w + b[0]
    g = mean_readout(h, graph.blocks)
    logits = np.empty((g.shape[0], params.dims.num_classes))
    for gk, wk, out in zip(g, w, logits):
        np.matmul(gk, wk, out=out)
    return caches, g, np.add(logits, b[:, 0], out=logits)


def forward_main(
    shared_h: np.ndarray, graph: PropGraph | GraphBatch, params: TardParams
) -> tuple:
    """Class probabilities from the classification head (one row per graph
    of a batch) and its ``_main_head`` intermediates."""
    cache = _main_head(graph, params, graph.propagate(shared_h))
    probs = softmax(cache[2].reshape(-1, params.dims.num_classes))
    return (probs[0] if isinstance(graph, PropGraph) else probs), cache


def forward_ssl(
    shared_h: np.ndarray, graph: PropGraph | GraphBatch, params: TardParams, perm: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[list[GcnCache], list[GcnCache]]]:
    """SSL-head embeddings of the original view and a feature-shuffled view.

    ``shared_h`` is the extractor output on the original view. The corrupted
    view keeps the adjacency, permutes feature rows by ``perm`` and runs
    through the extractor here. Both views then pass each head layer side by
    side, so each layer makes one propagation product for the two. Returns
    (h0, h1, g0, caches) where g0 is the mean readout of h0 (one row per
    event of a batch of more than one), and caches holds the two-view head caches and the
    shuffled-view extractor caches.
    """
    acts = ["relu"] * (len(params.theta_s) - 1) + ["identity"]
    x1 = graph.features.take(perm, axis=0)
    h_sh1, shared1 = _run_stack(
        graph, graph.propagate(x1), params.theta_e, ["relu"] * len(params.theta_e)
    )
    ah = graph.propagate(np.concatenate([shared_h, h_sh1], axis=1))
    both, head = _run_stack(graph, ah, params.theta_s, acts)
    d = shared_h.shape[1]
    h0, h1 = both[:, :d], both[:, d:]
    return h0, h1, mean_readout(h0, graph.blocks), (head, shared1)


@dataclass
class Losses:
    """Unweighted values of the objective terms that were computed."""

    l_m: float | None = None
    l_s: float | None = None
    l_c: float | None = None


def objective(
    graph: PropGraph | GraphBatch,
    params: TardParams,
    *,
    label: int | Sequence[int] | None = None,
    perm: np.ndarray | None = None,
    stats: EmbeddingStats | None = None,
    w_s: float = 1.0,
    w_c: float = 1.0,
    grad: bool = True,
    values: bool = True,
) -> Losses:
    """The Y-structure objective L_m + w_s*L_s + w_c*L_c on one graph, or on
    each graph of a batch in lockstep.

    A term is computed when its input is given: ``label`` for the supervised
    cross-entropy L_m, a corruption ``perm`` for the contrastive L_s, and
    training-side ``stats`` for the alignment penalty L_c on the extractor
    output. The extractor runs once on the original view and all terms share
    that output. With ``grad`` the weighted gradient accumulates into
    ``Parameter.grad``; each weight scales the upstream gradient of its own
    term. L_m reaches theta_e and theta_m, L_s reaches theta_e and theta_s,
    L_c reaches theta_e only and adds nothing when w_c = 0 (its value is
    still reported). Without ``values`` no loss value is computed, only the
    gradient, which has the same bits; every ``Losses`` field is then None.
    Without ``grad`` no gradient is computed either, down to the loss terms.

    A ``GraphBatch`` of K graphs takes stacked ``params`` (one row per
    graph) and a ``perm`` of all its rows that keeps each graph's block
    (``Blocks.permutation``); each ``Losses`` field is then a list with one
    value per graph. Every graph gets the values and gradient bits it gets
    alone. L_m, a training term, takes one graph (or a batch of one).

    Extractor backward passes run in a fixed order: main branch, original
    view (SSL upstream plus the penalty), shuffled view. Each distinct
    propagation product is made once: the extractor's first layer reads the
    graph's cached ``ax`` and computes no input gradient, and with both
    heads the classification head's first layer reads ``adj @ h`` from the
    SSL head's two-view product, and its gradient there joins the SSL head's
    one ``propagate_back`` as the leading columns.
    """
    blocks = graph.blocks
    h, sh_caches = forward_shared(graph, params)
    d = h.shape[1]
    out = Losses()
    head = sh1_caches = None
    if perm is not None:
        h0, h1, g0, (head, sh1_caches) = forward_ssl(h, graph, params, perm)
        out.l_s, g_h0, g_h1, g_g0 = contrastive_loss(h0, h1, g0, blocks, value=values, grad=grad)

    grad_main = None  # the main head's gradient at adj @ h
    if label is not None:
        if not blocks.one:
            raise ValueError("the supervised term L_m takes one graph at a time")
        ah = head[0].ah[:, :d] if head is not None else graph.propagate(h)
        main_caches, g, logits = _main_head(graph, params, ah)
        l_m, grad_logits = softmax_cross_entropy(logits, label)
        out.l_m = l_m if values else None
        if grad:
            params.theta_m_out_w.grad += g[:, None] * grad_logits
            params.theta_m_out_b.grad += grad_logits
            grad_g = params.theta_m_out_w.value @ grad_logits
            grad_h = mean_readout_backward(grad_g, h.shape[0])
            grad_main = _backward_stack(graph, main_caches, params.theta_m_gcn, grad_h)

    grad_h0 = grad_h1 = None  # upstream at the extractor output, per view
    if perm is not None and grad:
        # g0 = mean(h0), so the readout gradient, 1/N of g_g0, adds to every row.
        g_h0 = g_h0 + blocks.spread(g_g0 / blocks.counts)
        up = np.concatenate([g_h0, g_h1], axis=1)
        if w_s != 1.0:  # 1.0 * x is x, -0.0 and NaN included
            up = w_s * up
        grads = _backward_stack(graph, head, params.theta_s, up)
        if grad_main is None:
            grads = graph.propagate_back(grads)
        else:
            grads = graph.propagate_back(np.concatenate([grad_main, grads], axis=1))
            grad_main, grads = grads[:, :d], grads[:, d:]
        grad_h0, grad_h1 = grads[:, :d], grads[:, d:]
    elif grad_main is not None:
        grad_main = graph.propagate_back(grad_main)
    if stats is not None:
        with_grad = grad and w_c != 0.0
        out.l_c, grad_c = constraint_loss(stats, h, blocks, value=values, grad=with_grad)
        if with_grad:
            grad_h0 = w_c * grad_c if grad_h0 is None else grad_h0 + w_c * grad_c
    for g_h, caches in ((grad_main, sh_caches), (grad_h0, sh_caches), (grad_h1, sh1_caches)):
        if g_h is not None:
            _backward_stack(graph, caches, params.theta_e, g_h, input_grad=False)
    if blocks.one and isinstance(graph, GraphBatch) and values:  # a batch's losses are lists
        return Losses(*(None if v is None else [v] for v in (out.l_m, out.l_s, out.l_c)))
    return out


@dataclass
class EmbeddingStats:
    """Mean vector and population covariance of pooled node embeddings."""

    mu: np.ndarray
    eta: np.ndarray
    count: int


def _block_stats(h: np.ndarray, blocks: Blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each block's mean and population covariance, stacked (K, d) and
    (K, d, d) unless there is one block, and the rows of ``h`` centred on
    their block's mean."""
    mu = mean_readout(h, blocks)
    centered = h - blocks.spread(mu)
    if blocks.one:
        eta = centered.T @ centered / h.shape[0]
    else:
        eta = np.empty((len(blocks.rows), h.shape[1], h.shape[1]))
        for s, out in zip(blocks.rows, eta):
            c = centered[s]
            np.matmul(c.T, c, out=out)
        eta /= blocks.counts[:, :, None]
    eta = (eta + eta.swapaxes(-1, -2)) / 2.0  # exact symmetry despite float round-off
    return mu, eta, centered


def embedding_stats(h: np.ndarray) -> EmbeddingStats:
    """Stats of one embedding matrix (rows = nodes). Population covariance."""
    n = h.shape[0]
    if n < 1:
        raise ValueError("need at least one node")
    mu, eta, _ = _block_stats(h, Blocks((n,)))
    return EmbeddingStats(mu=mu, eta=eta, count=n)


def compute_embedding_stats(
    graphs: Sequence[PropGraph], params: TardParams
) -> EmbeddingStats:
    """Stats over ALL node embeddings of a graph collection (shared extractor),
    written into one preallocated matrix, not stacked from per-graph copies."""
    if not graphs:
        raise ValueError("empty graph collection")
    h = np.empty((sum(g.num_nodes for g in graphs), params.dims.d_hidden))
    start = 0
    for g in graphs:
        stop = start + g.num_nodes
        h[start:stop] = forward_shared(g, params)[0]
        start = stop
    return embedding_stats(h)


def constraint_value(train_stats: EmbeddingStats, test_stats: EmbeddingStats) -> float:
    """Alignment penalty: squared mean distance plus squared Frobenius
    covariance distance. The covariance term is skipped for a single-node
    test side, where covariance carries no information."""
    if train_stats.mu.shape != test_stats.mu.shape:
        raise ValueError(
            f"stats dims differ: {train_stats.mu.shape} vs {test_stats.mu.shape}"
        )
    return _penalty(
        train_stats.mu - test_stats.mu, train_stats.eta - test_stats.eta, test_stats.count
    )


def _penalty(diff_mu: np.ndarray, diff_eta: np.ndarray, count: int) -> float:
    """``constraint_value`` from one side's mean and covariance differences
    to the other's, taken either way round: both square to the same bits."""
    value = float(diff_mu @ diff_mu)
    if count > 1:
        value += float((diff_eta * diff_eta).sum())
    return value


def constraint_loss(
    train_stats: EmbeddingStats,
    test_h: np.ndarray,
    blocks: Blocks | None = None,
    *,
    value: bool = True,
    grad: bool = True,
) -> tuple[float | None, np.ndarray | None]:
    """Alignment penalty of test-side embeddings against training stats.

    Train-side stats are constants. Returns (value, grad w.r.t. test_h).
    For node embeddings h_i with mean mu_t and population covariance eta_t:

      d/dh_i = (2/N)(mu_t - mu) + (4/N)(eta_t - eta)(h_i - mu_t)

    with the covariance part dropped when N = 1. With ``blocks`` each block
    is one event's embeddings, and the value is a list, one per event.
    Without ``value`` (``grad``) the value (the gradient) is None and not
    computed; the other part has the same bits either way.
    """
    if train_stats.mu.shape != test_h.shape[1:]:
        raise ValueError(f"stats dims differ: {train_stats.mu.shape} vs {test_h.shape[1:]}")
    if blocks is None:
        if test_h.shape[0] < 1:
            raise ValueError("need at least one node")
        blocks = Blocks((test_h.shape[0],))
    mu, eta, centered = _block_stats(test_h, blocks)
    diff_mu, diff_eta = mu - train_stats.mu, eta - train_stats.eta
    values = None
    if value and blocks.one:
        values = _penalty(diff_mu, diff_eta, test_h.shape[0])
    elif value:
        values = [_penalty(*diffs) for diffs in zip(diff_mu, diff_eta, blocks.sizes)]
    if not grad:
        return values, None
    scaled = blocks.row_four_over_n * centered
    if blocks.one:
        n = test_h.shape[0]
        grad_h = 2.0 / n * diff_mu[None, :]
        if n > 1:
            grad_h = grad_h + scaled @ diff_eta
        return values, grad_h
    cov = np.empty(test_h.shape)
    for s, de, n in zip(blocks.rows, diff_eta, blocks.sizes):
        if n > 1:
            np.matmul(scaled[s], de, out=cov[s])
        else:
            cov[s] = -0.0  # x + -0.0 is x: one node has no covariance part
    return values, blocks.spread(2.0 / blocks.counts * diff_mu) + cov


def snapshot(params: TardParams) -> TardParams:
    """Deep value copy with zeroed gradients; safe to stash and share."""
    return TardParams(params.dims, Parameter(params.flat.value.copy()))


def stack(params: TardParams, k: int) -> TardParams:
    """A stack of ``k`` value copies of one parameter set, with zeroed
    gradients: the starting point of a lockstep batch of ``k`` events."""
    return TardParams(params.dims, Parameter(np.tile(params.flat.value, (k, 1))))


# --- serialization ----------------------------------------------------------

def _matrix_record(p: Parameter) -> dict:
    return {"shape": list(p.value.shape), "data": p.value.reshape(-1).tolist()}


def params_to_record(params: TardParams) -> dict:
    """JSON-safe record of dims plus all named matrices (row-major values)."""
    return {
        "dims": asdict(params.dims),
        "matrices": {name: _matrix_record(p) for name, p in params.named_parameters()},
    }


def params_from_record(rec: dict) -> TardParams:
    """Parameters from a checkpoint's ``params`` record; a missing, unknown
    or misshapen matrix raises a ValueError naming its dotted key."""
    dims = ModelDims(**rec["dims"])
    mats = rec["matrices"]

    def take(name: str, shape: tuple[int, int]) -> np.ndarray:
        key = f"params.matrices.{name}"
        if name not in mats:
            raise ValueError(f"{key!r} is missing")
        if tuple(mats[name]["shape"]) != shape:
            have = reprlib.repr(mats[name]["shape"])
            raise ValueError(f"'{key}.shape' is {have}, but 'params.dims' gives {list(shape)}")
        data = np.asarray(mats[name]["data"], dtype=np.float64)
        if data.size != shape[0] * shape[1]:
            raise ValueError(f"'{key}.data' does not fit shape {shape}")
        return data

    entries = [entry for group in layout(dims).values() for entry in group]
    flat = np.concatenate([take(name, shape) for name, shape in entries])
    unknown = sorted(set(mats) - {name for name, _ in entries})
    if unknown:
        raise ValueError(f"'params.matrices' has unknown matrix {unknown[0]!r}")
    return TardParams(dims, Parameter(flat))


def group_bytes(params: TardParams, group: str) -> bytes:
    """One group's values as raw bytes, for the frozen-head checks: equal bytes
    mean bit-identical values, so ``-0.0`` differs from ``0.0``."""
    return params.groups[group].value.tobytes()


def stats_to_record(stats: EmbeddingStats) -> dict:
    return {"mu": stats.mu.tolist(), "eta": stats.eta.tolist(), "count": stats.count}


def stats_from_record(rec: dict) -> EmbeddingStats:
    """Training-side stats from a checkpoint's ``train_stats`` record; a
    misshapen or asymmetric entry raises a ValueError naming it.
    ``embedding_stats`` writes ``eta`` exactly symmetric."""
    mu, eta = (np.asarray(rec[key], dtype=np.float64) for key in ("mu", "eta"))
    d = len(mu)
    if eta.shape != (d, d):
        raise ValueError(f"'train_stats.eta' does not fit shape {(d, d)}")
    if not np.array_equal(eta, eta.T):
        raise ValueError("'train_stats.eta' is not symmetric")
    return EmbeddingStats(mu=mu, eta=eta, count=int(rec["count"]))
