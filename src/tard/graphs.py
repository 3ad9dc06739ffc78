"""Propagation-event data model and adjacency construction.

Events are reply cascades: node 0 is the source post, later nodes are
responsive posts, and every node carries a feature vector. Runtime graphs
hold the normalized adjacency ``Â`` in one field, as a dense matrix or, for
large cascades, as an :class:`EdgeList` used like one, and make every
propagation product of the GCN layers. Both forms are filled from the one
set of entries :func:`normalized_entries` builds.
"""

from __future__ import annotations

import reprlib
from dataclasses import InitVar, dataclass, field
from typing import Literal, Sequence

import numpy as np

from .nn import Blocks
from .ranges import check, rule

AdjacencyMode = Literal["undirected", "directed"]


class InvalidEventError(ValueError):
    """An event's edges or features violate the data contract."""


#: Most classes a model may have, one more than the largest label an event
#: may hold: 16 times Twitter15/16's 4 (the presets use 2). A label of 10**9
#: once made ``tard train`` ask for 119 GiB for its output layer.
MAX_CLASSES = 64


@dataclass
class PropagationEvent:
    """One cascade: class label, reply edges, and per-post feature rows.

    Node 0 is the source post. ``edges`` holds ``(parent, child)`` index
    pairs with no self-edges; synthetic cascades are trees rooted at node 0,
    but any simple graph is accepted when loading external data.
    """

    id: str
    label: int = rule(ge=0, le=MAX_CLASSES - 1)
    num_nodes: int
    edges: list[tuple[int, int]]
    features: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        try:
            check(PropagationEvent, {"label": self.label})
        except ValueError as exc:
            raise InvalidEventError(f"'label' is out of range: {exc}") from None
        n, shape = self.num_nodes, self.features.shape
        if len(shape) != 2 or shape[0] != n or min(shape) < 1:
            raise InvalidEventError(
                f"'features' has shape {shape}: an event needs at least one node, "
                f"and one row of at least one value for each of its {n} nodes"
            )
        if not np.all(np.isfinite(self.features)):
            raise InvalidEventError("'features' has non-finite values")
        self.edges = [(int(s), int(t)) for s, t in self.edges]
        for i, (s, t) in enumerate(self.edges):
            if not (0 <= s < n and 0 <= t < n) or s == t:
                raise InvalidEventError(
                    f"'edges.{i}' is {reprlib.repr([s, t])}, not two different nodes "
                    f"among the {n} rows of 'features'"
                )

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])


#: Node count from which ``to_prop_graph`` builds the edge-list operator in
#: place of the dense N x N one. Measured per event (30 adaptation steps,
#: d_hidden 16; three runs of 9 alternating repeats over 4 events per size)
#: on a 2-vCPU VM with OpenBLAS, as edge-list over dense time: 1.06-1.19
#: undirected and 1.07-1.11 directed at 150 nodes, 0.93-0.94 and 0.77-0.93 at
#: 200, 0.66-0.79 and 0.69-0.80 at 250, 0.70-0.78 and 0.63-0.77 at 300. From
#: 200 nodes the edge list is faster in both modes. The threshold is left at
#: 250 so that no existing event changes form; lowering it is an open item.
#: Shift-mid's graphs (at most 90 nodes) stay dense.
EDGE_LIST_MIN_NODES = 250


#: Longest row that ``EdgeList @ x`` sums position by position. For each row
#: ``np.add.reduceat`` computes ``w0 + pairwise_sum(w1, w2, ...)``, and
#: numpy's pairwise sum adds plain left to right below 8 items (from 8 on it
#: splits them over 8 accumulators). So a row of at most 8 entries, summed as
#: ``w0 + (((w1 + w2) + w3) + ...)``, has reduceat's bits exactly.
BUCKET_MAX_ENTRIES = 8


@dataclass(frozen=True, eq=False)
class EdgeList:
    """An N x N operator in compressed sparse rows, used like a matrix.

    Row ``r`` holds ``vals[k]`` at column ``cols[k]`` for ``k`` in
    ``indptr[r]:indptr[r+1]``: O(N + E) memory. ``T`` is the stored
    transpose, built from ``transpose``'s ``(indptr, cols, vals)``, or the
    operator itself when none is given (a symmetric operator). Malformed rows
    are rejected at construction; every row holds at least one entry, as
    :func:`edge_list_operator`'s self-loops guarantee.

    ``op @ x`` gives the bits of ``np.add.reduceat(vals[:, None] * x[cols],
    indptr[:-1], axis=0)`` at a fraction of its cost. Rows with 1 to
    :data:`BUCKET_MAX_ENTRIES` entries are grouped by length ``L`` once, at
    construction, with their columns and values laid out position-major as
    ``(L, rows)``, and each group's rows given one contiguous span of a row
    buffer, with the longer rows last. A product then gathers one
    ``(L, rows, d)`` block per group with one ``take``, scales it, and sums
    its positions in reduceat's order into the group's span; the few longer
    rows, such as a cascade's root, share one ``reduceat`` call. One more
    ``take`` with the stored inverse order puts the rows back in node order.
    Evaluating one 2000-node cascade makes 96 products; on a 2-vCPU VM they
    take 50-61 ms this way, against 183-221 ms as one ``reduceat`` call each.
    """

    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    transpose: InitVar[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = None
    T: EdgeList = field(init=False, repr=False)
    # (start, stop, cols (L, rows), vals (L, rows, 1)) per row length L <= the
    # cap: the bucket's sums fill [start:stop] of the product's row buffer.
    _buckets: list[tuple[int, int, np.ndarray, np.ndarray]] = field(init=False, repr=False)
    # (start, segment starts, cols, vals (entries, 1)) of the longer rows,
    # which fill the buffer from start on.
    _long_rows: tuple[int, np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)
    # The buffer position of each node's row.
    _inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, transpose) -> None:
        lengths = self._check()
        buckets, order = [], []
        start = 0
        for length in range(1, BUCKET_MAX_ENTRIES + 1):
            rows = np.flatnonzero(lengths == length)
            if rows.size:
                at = self.indptr[rows] + np.arange(length)[:, None]
                buckets.append((start, start + rows.size, self.cols[at], self.vals[at][..., None]))
                order.append(rows)
                start += rows.size
        rows = np.flatnonzero(lengths > BUCKET_MAX_ENTRIES)
        order.append(rows)
        counts = lengths[rows]
        starts = np.cumsum(counts) - counts
        # The long rows' entries, concatenated: row j's run begins at starts[j].
        at = np.repeat(self.indptr[rows] - starts, counts) + np.arange(counts.sum())
        object.__setattr__(self, "_buckets", buckets)
        object.__setattr__(
            self, "_long_rows", (start, starts, self.cols[at], self.vals[at][:, None])
        )
        object.__setattr__(self, "_inverse", np.argsort(np.concatenate(order)))
        t = self if transpose is None else EdgeList(*transpose)
        object.__setattr__(self, "T", t)
        object.__setattr__(t, "T", self)

    def _check(self) -> np.ndarray:
        """The length of every row, after checking that the arrays form a
        valid CSR operator with no empty row."""
        indptr, nnz = self.indptr, self.cols.shape[0]
        if indptr.ndim != 1 or indptr.size < 2 or indptr[0] != 0:
            raise ValueError(f"indptr must be 1-D, start at 0 and cover a row; got {indptr!r}")
        lengths = np.diff(indptr)
        if np.any(lengths < 0):
            raise ValueError(f"indptr decreases at row {int(np.argmax(lengths < 0))}")
        if self.cols.shape != (nnz,) or self.vals.shape != (nnz,) or indptr[-1] != nnz:
            raise ValueError(
                f"indptr ends at {indptr[-1]}, but cols has shape {self.cols.shape} "
                f"and vals {self.vals.shape}"
            )
        n = indptr.size - 1
        bad = (self.cols < 0) | (self.cols >= n)
        if np.any(bad):
            raise ValueError(f"column {self.cols[bad][0]} out of range for {n} nodes")
        if np.any(lengths == 0):
            raise ValueError(f"row {int(np.argmin(lengths))} holds no entry")
        return lengths

    @property
    def shape(self) -> tuple[int, int]:
        n = self.indptr.shape[0] - 1
        return (n, n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ValueError(f"operator {self.shape} cannot multiply an array of shape {x.shape}")
        # ``vals * x`` casts x to the result dtype before it multiplies, so
        # casting x first and scaling the gathered block in place gives the
        # same bits, in that dtype, with one temporary less.
        x = x.astype(np.result_type(self.vals, x), copy=False)
        out = np.empty(x.shape, dtype=x.dtype)
        for start, stop, cols, vals in self._buckets:
            w = x.take(cols, axis=0)
            w *= vals
            if len(w) > 1:
                for k in range(2, len(w)):
                    w[1] += w[k]
                w[0] += w[1]
            out[start:stop] = w[0]
        start, starts, cols, vals = self._long_rows
        if starts.size:
            w = x.take(cols, axis=0)
            w *= vals
            np.add.reduceat(w, starts, axis=0, out=out[start:])
        return out.take(self._inverse, axis=0)


@dataclass(frozen=True, kw_only=True)
class PropGraph:
    """Runtime form of an event: normalized adjacency plus feature matrix.

    The graph owns propagation, the ``Â·H`` half of every GCN layer:
    ``propagate(x)`` is ``Â @ x`` and ``propagate_back(g)`` is ``Â.T @ g``,
    and no other module reads the operator. ``adj_norm`` is ``Â``, anything
    with ``shape``, ``@`` and ``.T``, checked against the feature rows at
    construction. ``to_prop_graph`` fills it from :func:`normalized_entries`
    as a dense array (BLAS products) below :data:`EDGE_LIST_MIN_NODES`
    nodes and as an :class:`EdgeList` from there on, so both forms hold the
    same entries bit for bit. Measured on a 2-vCPU VM with OpenBLAS,
    evaluating one event (30 adaptation steps, d_hidden 16) takes 35-39 ms
    at 300 nodes on the dense path and 23-30 ms as an edge list. At 2000
    nodes it takes 0.85-1.05 s dense, where the adjacency alone holds 32 MB,
    and 0.14-0.18 s as an edge list, which holds 0.2-0.3 MB with its row
    buckets. ``ax`` is ``propagate(features)``, computed once, since the
    extractor's first layer reads it on every pass over the original view;
    treat the arrays as read-only afterwards. A graph is a batch of one
    (:class:`GraphBatch`): ``blocks`` is its one row block.
    """

    features: np.ndarray
    adj_norm: np.ndarray | EdgeList
    ax: np.ndarray = field(init=False, repr=False)
    blocks: Blocks = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.features.shape[0]
        if self.adj_norm.shape != (n, n):
            raise ValueError(
                f"adjacency {self.adj_norm.shape} does not match features {self.features.shape}"
            )
        object.__setattr__(self, "ax", self.propagate(self.features))
        object.__setattr__(self, "blocks", Blocks((n,)))

    @property
    def num_nodes(self) -> int:
        return int(self.features.shape[0])

    def propagate(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``Â @ x``: each node mixes its neighbours' rows of ``x``; written
        into ``out`` when given."""
        return self.adj_norm @ x if out is None else _product_into(self.adj_norm, x, out)

    def propagate_back(self, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``Â.T @ g``: the gradient at ``x`` of ``propagate(x)``, given the
        gradient ``g`` at its output; written into ``out`` when given."""
        return self.adj_norm.T @ g if out is None else _product_into(self.adj_norm.T, g, out)


def _product_into(op: np.ndarray | EdgeList, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    if isinstance(op, np.ndarray):
        return np.matmul(op, x, out=out)
    out[...] = op @ x
    return out


class GraphBatch:
    """Several events' graphs as one block of rows, adapted in lockstep.

    Graph k's nodes are row block k (``blocks``) of ``features`` and ``ax``.
    Propagation runs per graph, on its block and into its block of one
    output, with the bits that graph gives alone; a batch of one hands its
    graph's own arrays and products through. ``ids`` names the events in
    messages.
    """

    def __init__(self, graphs: Sequence[PropGraph], ids: Sequence[str]) -> None:
        if len(graphs) != len(ids) or not graphs:
            raise ValueError(
                f"a batch needs one id per graph: {len(graphs)} graphs, {len(ids)} ids"
            )
        self.graphs, self.ids = tuple(graphs), tuple(ids)
        if len(graphs) == 1:  # the graph's own arrays and products, bound
            g = graphs[0]
            self.features, self.ax, self.blocks = g.features, g.ax, g.blocks
            self.propagate, self.propagate_back = g.propagate, g.propagate_back
        else:
            self.features = np.concatenate([g.features for g in graphs])
            self.ax = np.concatenate([g.ax for g in graphs])
            self.blocks = Blocks([g.num_nodes for g in graphs])

    @property
    def num_nodes(self) -> int:
        return int(self.features.shape[0])

    def propagate(self, x: np.ndarray) -> np.ndarray:
        """Each graph's ``propagate`` of its block of ``x``."""
        return self._per_graph(PropGraph.propagate, x)

    def propagate_back(self, g: np.ndarray) -> np.ndarray:
        """Each graph's ``propagate_back`` of its block of ``g``."""
        return self._per_graph(PropGraph.propagate_back, g)

    def _per_graph(self, product, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape)
        for graph, s in zip(self.graphs, self.blocks.rows):
            product(graph, x[s], out[s])
        return out


def normalized_entries(
    edges: Sequence[tuple[int, int]], n: int, mode: AdjacencyMode = "undirected"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries ``(rows, cols, vals)`` of the GCN-normalized
    adjacency, in row-major order: the only adjacency normalization.

    Every node gets a self-loop, and an edge given twice, or in both
    directions where the mode symmetrizes, is one entry. ``undirected``
    (default) links each edge both ways and gives ``d^-1/2[r] * d^-1/2[c]``,
    symmetric with spectral radius <= 1; ``directed`` keeps the direction
    and gives ``1 / d[r]``, row-stochastic. ``d`` counts a row's entries.
    """
    if mode not in ("undirected", "directed"):
        raise ValueError(f"unknown adjacency mode {mode!r}")
    idx = np.array(edges, dtype=np.intp).reshape(-1, 2)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        s, t = idx[((idx < 0) | (idx >= n)).any(axis=1)][0]
        raise InvalidEventError(f"edge ({s}, {t}) out of range for {n} nodes")
    loops = np.arange(n, dtype=np.intp)
    rows, cols = [idx[:, 0], loops], [idx[:, 1], loops]
    if mode == "undirected":
        rows.append(idx[:, 1])
        cols.append(idx[:, 0])
    # One key per entry, in row-major order: sort, then drop repeats. Not
    # np.unique: on numpy 2.4 its first call imports numpy.ma, which adds
    # about 2 MB of resident memory to a run that builds only dense graphs.
    keys = np.sort(np.concatenate(rows) * n + np.concatenate(cols))
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    r, c = np.divmod(keys, n)
    deg = np.bincount(r, minlength=n).astype(np.float64)
    if mode == "undirected":
        d_inv_sqrt = 1.0 / np.sqrt(deg)
        return r, c, d_inv_sqrt[r] * d_inv_sqrt[c]
    return r, c, 1.0 / deg[r]


def edge_list_operator(
    edges: Sequence[tuple[int, int]], n: int, mode: AdjacencyMode = "undirected"
) -> EdgeList:
    """:func:`normalized_entries` packed as an :class:`EdgeList`. The
    ``undirected`` operator is symmetric, so its ``T`` is itself; for
    ``directed`` the transpose is packed too."""
    r, c, vals = normalized_entries(edges, n, mode)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=n))])
    if mode == "undirected":
        return EdgeList(indptr, c, vals)
    order = np.argsort(c * n + r)
    indptr_t = np.concatenate([[0], np.cumsum(np.bincount(c, minlength=n))])
    return EdgeList(indptr, c, vals, transpose=(indptr_t, r[order], vals[order]))


def to_prop_graph(event: PropagationEvent, mode: AdjacencyMode = "undirected") -> PropGraph:
    """Build the runtime graph for an event: the normalized adjacency,
    dense below :data:`EDGE_LIST_MIN_NODES` nodes and an edge list from
    there on."""
    features = np.array(event.features, dtype=np.float64)
    n = event.num_nodes
    if n >= EDGE_LIST_MIN_NODES:
        return PropGraph(features=features, adj_norm=edge_list_operator(event.edges, n, mode))
    rows, cols, vals = normalized_entries(event.edges, n, mode)
    adj = np.zeros((n, n))
    adj[rows, cols] = vals
    return PropGraph(adj_norm=adj, features=features)
