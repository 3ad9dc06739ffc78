"""Propagation-event data model and adjacency construction.

Events are reply cascades: node 0 is the source post, later nodes are
responsive posts, and every node carries a feature vector. Runtime graphs
hold a normalized adjacency, as a dense matrix or, for large cascades, as an
edge list, and make every propagation product of the GCN layers. Both forms
are filled from the one set of entries :func:`normalized_entries` builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True, kw_only=True)
class PropGraph:
    """Runtime form of an event: normalized adjacency plus feature matrix.

    The graph owns propagation, the ``Â·H`` half of every GCN layer:
    ``propagate(x)`` is ``Â @ x`` and ``propagate_back(g)`` is ``Â.T @ g``,
    and no other module reads the operator. It is held in one of two forms,
    checked against the feature rows at construction. ``to_prop_graph``
    fills either form from the same :func:`normalized_entries`, so they hold
    the same entries bit for bit:

    - dense: ``adj_norm`` is the N x N matrix, and the products are BLAS
      matrix products;
    - edge list: ``csr_indptr``/``csr_cols``/``csr_vals`` hold ``Â`` in
      compressed sparse rows, O(N + E) memory, and each product is one
      gather, scale and segment sum over the stored entries. Each array has
      one row per operator: row 0 is ``Â`` and the last row is ``Â.T``, so a
      symmetric operator is stored once. Every row of ``Â`` has its
      self-loop, so no segment is empty.

    ``to_prop_graph`` picks the form from the node count alone, at
    :data:`EDGE_LIST_MIN_NODES`. Measured on a 2-vCPU VM with OpenBLAS,
    evaluating one event (30 adaptation steps, d_hidden 16) takes about
    30 ms at 300 nodes on the dense path. At 2000 nodes it takes about
    0.65 s dense, where the adjacency alone holds 32 MB, and 0.24 s as an
    edge list, which holds 0.1 MB. ``ax`` is ``propagate(features)``,
    computed once, since the extractor's first layer reads it on every pass
    over the original view; treat the arrays as read-only afterwards.
    """

    features: np.ndarray
    adj_norm: np.ndarray | None = None
    csr_indptr: np.ndarray | None = None
    csr_cols: np.ndarray | None = None
    csr_vals: np.ndarray | None = None
    ax: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.features.shape[0]
        csr = (self.csr_indptr, self.csr_cols, self.csr_vals)
        if self.adj_norm is not None:
            if any(a is not None for a in csr):
                raise ValueError("give the dense adjacency or the edge-list operator, not both")
            if self.adj_norm.shape != (n, n):
                raise ValueError(
                    f"adjacency {self.adj_norm.shape} does not match features {self.features.shape}"
                )
        else:
            _check_csr(*csr, self.features.shape)
        object.__setattr__(self, "ax", self.propagate(self.features))

    @property
    def num_nodes(self) -> int:
        return int(self.features.shape[0])

    def propagate(self, x: np.ndarray) -> np.ndarray:
        """``Â @ x``: each node mixes its neighbours' rows of ``x``."""
        if self.adj_norm is not None:
            return self.adj_norm @ x
        return csr_product(self.csr_indptr[0], self.csr_cols[0], self.csr_vals[0], x)

    def propagate_back(self, g: np.ndarray) -> np.ndarray:
        """``Â.T @ g``: the gradient at ``x`` of ``propagate(x)``, given the
        gradient ``g`` at its output."""
        if self.adj_norm is not None:
            return self.adj_norm.T @ g
        return csr_product(self.csr_indptr[-1], self.csr_cols[-1], self.csr_vals[-1], g)


def _check_csr(indptr, cols, vals, features_shape: tuple[int, ...]) -> None:
    """Reject an edge-list operator that does not fit ``features_shape``."""
    if indptr is None or cols is None or vals is None:
        raise ValueError("a graph needs adj_norm or all of csr_indptr, csr_cols, csr_vals")
    n = features_shape[0]
    what = f"edge-list operator (indptr {indptr.shape}, cols {cols.shape}, vals {vals.shape})"
    if not (
        indptr.ndim == cols.ndim == 2
        and indptr.shape[0] in (1, 2)
        and indptr.shape[1] == n + 1
        and cols.shape == vals.shape
        and cols.shape[0] == indptr.shape[0]
    ):
        raise ValueError(f"{what} does not match features {features_shape}")
    if np.any(indptr[:, 0] != 0) or np.any(indptr[:, -1] != cols.shape[1]):
        raise ValueError(f"{what}: indptr must run from 0 to {cols.shape[1]}")
    if np.any(np.diff(indptr, axis=1) <= 0):
        raise ValueError(f"{what} has an empty row; every node needs its self-loop")
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise ValueError(f"{what} has a column out of range for features {features_shape}")


def csr_product(
    indptr: np.ndarray, cols: np.ndarray, vals: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """``M @ x`` for ``M`` in compressed sparse rows: row ``r`` of ``M`` holds
    ``vals[k]`` at column ``cols[k]`` for ``k`` in ``indptr[r]:indptr[r+1]``.

    ``reduceat`` returns ``x[indptr[r]]`` for an empty segment rather than
    zero, so every row must hold at least one entry (``PropGraph`` checks).
    """
    return np.add.reduceat(vals[:, None] * x[cols], indptr[:-1], axis=0)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`normalized_entries` packed in compressed sparse rows.

    Returns ``(indptr, cols, vals)`` in the stacked form ``PropGraph`` holds:
    one row for the symmetric ``undirected`` operator, and for ``directed``
    a second row with its transpose.
    """
    r, c, vals = normalized_entries(edges, n, mode)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=n))])
    if mode == "undirected":
        return indptr[None, :], c[None, :], vals[None, :]
    order = np.argsort(c * n + r)
    indptr_t = np.concatenate([[0], np.cumsum(np.bincount(c, minlength=n))])
    return np.stack([indptr, indptr_t]), np.stack([c, r[order]]), np.stack([vals, vals[order]])


def to_prop_graph(event: PropagationEvent, mode: AdjacencyMode = "undirected") -> PropGraph:
    """Build the runtime graph for an event: the normalized adjacency,
    dense below :data:`EDGE_LIST_MIN_NODES` nodes and an edge list from
    there on."""
    features = np.array(event.features, dtype=np.float64)
    n = event.num_nodes
    if n >= EDGE_LIST_MIN_NODES:
        indptr, cols, vals = edge_list_operator(event.edges, n, mode)
        return PropGraph(features=features, csr_indptr=indptr, csr_cols=cols, csr_vals=vals)
    rows, cols, vals = normalized_entries(event.edges, n, mode)
    adj = np.zeros((n, n))
    adj[rows, cols] = vals
    return PropGraph(adj_norm=adj, features=features)
