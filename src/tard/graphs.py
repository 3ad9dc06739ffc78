"""Propagation-event data model and adjacency construction.

Events are reply cascades: node 0 is the source post, later nodes are
responsive posts, and every node carries a feature vector. Runtime graphs
hold the normalized adjacency ``Â`` in one field, as a dense matrix or, for
large cascades, as an :class:`EdgeList` used like one, and make every
propagation product of the GCN layers. Both forms are filled from the one
set of entries :func:`normalized_entries` builds.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Literal, Sequence

import numpy as np

AdjacencyMode = Literal["undirected", "directed"]


class InvalidEventError(ValueError):
    """An event's edges or features violate the data contract."""


@dataclass
class PropagationEvent:
    """One cascade: class label, reply edges, and per-post feature rows.

    Node 0 is the source post. ``edges`` holds ``(parent, child)`` index
    pairs with no self-edges; synthetic cascades are trees rooted at node 0,
    but any simple graph is accepted when loading external data.
    """

    id: str
    label: int
    num_nodes: int
    edges: list[tuple[int, int]]
    features: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.num_nodes < 1:
            raise InvalidEventError(f"event {self.id!r}: num_nodes must be >= 1")
        if self.label < 0:
            raise InvalidEventError(f"event {self.id!r}: negative label {self.label}")
        self.edges = [(int(s), int(t)) for s, t in self.edges]
        for s, t in self.edges:
            if not (0 <= s < self.num_nodes and 0 <= t < self.num_nodes):
                raise InvalidEventError(
                    f"event {self.id!r}: edge ({s}, {t}) out of range for "
                    f"{self.num_nodes} nodes"
                )
            if s == t:
                raise InvalidEventError(f"event {self.id!r}: self-edge at node {s}")
        if self.features.ndim != 2 or self.features.shape[0] != self.num_nodes:
            raise InvalidEventError(
                f"event {self.id!r}: feature matrix shape {self.features.shape} "
                f"does not match num_nodes={self.num_nodes}"
            )
        if self.features.shape[1] < 1:
            raise InvalidEventError(f"event {self.id!r}: empty feature rows")
        if not np.all(np.isfinite(self.features)):
            raise InvalidEventError(f"event {self.id!r}: non-finite feature values")

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])


#: Node count from which ``to_prop_graph`` builds the edge-list operator in
#: place of the dense N x N one. Measured per event (30 adaptation steps,
#: d_hidden 16) on a 2-vCPU VM with OpenBLAS, the two paths cost the same at
#: about 450 nodes undirected and 400 directed; at 500 nodes the dense path
#: is 1.04-1.16x slower, at 300 nodes 0.87-0.90x.
EDGE_LIST_MIN_NODES = 500


@dataclass(frozen=True, eq=False)
class EdgeList:
    """An N x N operator in compressed sparse rows, used like a matrix.

    Row ``r`` holds ``vals[k]`` at column ``cols[k]`` for ``k`` in
    ``indptr[r]:indptr[r+1]``: O(N + E) memory, and ``op @ x`` is one
    gather, scale and segment sum over the stored entries. ``T`` is the
    stored transpose, built from ``transpose``'s ``(indptr, cols, vals)``,
    or the operator itself when none is given (a symmetric operator). Only
    :func:`edge_list_operator` builds one, and every row it packs holds its
    self-loop: ``reduceat`` returns ``x[indptr[r]]`` for an empty segment,
    not zero.
    """

    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    transpose: InitVar[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = None
    T: EdgeList = field(init=False, repr=False)

    def __post_init__(self, transpose) -> None:
        t = self if transpose is None else EdgeList(*transpose)
        object.__setattr__(self, "T", t)
        object.__setattr__(t, "T", self)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.indptr.shape[0] - 1
        return (n, n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self.vals[:, None] * x[self.cols], self.indptr[:-1], axis=0)


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
    evaluating one event (30 adaptation steps, d_hidden 16) takes about
    30 ms at 300 nodes on the dense path. At 2000 nodes it takes about
    0.65 s dense, where the adjacency alone holds 32 MB, and 0.24 s as an
    edge list, which holds 0.1 MB. ``ax`` is ``propagate(features)``,
    computed once, since the extractor's first layer reads it on every pass
    over the original view; treat the arrays as read-only afterwards.
    """

    features: np.ndarray
    adj_norm: np.ndarray | EdgeList
    ax: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.features.shape[0]
        if self.adj_norm.shape != (n, n):
            raise ValueError(
                f"adjacency {self.adj_norm.shape} does not match features {self.features.shape}"
            )
        object.__setattr__(self, "ax", self.propagate(self.features))

    @property
    def num_nodes(self) -> int:
        return int(self.features.shape[0])

    def propagate(self, x: np.ndarray) -> np.ndarray:
        """``Â @ x``: each node mixes its neighbours' rows of ``x``."""
        return self.adj_norm @ x

    def propagate_back(self, g: np.ndarray) -> np.ndarray:
        """``Â.T @ g``: the gradient at ``x`` of ``propagate(x)``, given the
        gradient ``g`` at its output."""
        return self.adj_norm.T @ g


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
