"""Propagation-event data model and adjacency construction.

Events are reply cascades: node 0 is the source post, later nodes are
responsive posts, and every node carries a feature vector. Runtime graphs
hold a normalized adjacency, as a dense matrix or, for large cascades, as an
edge list, and make every propagation product of the GCN layers.
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
    checked against the feature rows at construction:

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


def build_adjacency(edges: Sequence[tuple[int, int]], n: int) -> np.ndarray:
    """Binary adjacency from an edge list: a[s, t] = 1 iff (s, t) is an edge.

    No symmetrization happens here; direction handling belongs to
    :func:`normalize_adjacency`.
    """
    idx = _edge_index(edges, n)
    a = np.zeros((n, n), dtype=np.float64)
    a[idx[:, 0], idx[:, 1]] = 1.0
    return a


def _edge_index(edges: Sequence[tuple[int, int]], n: int) -> np.ndarray:
    """Edges as an (E, 2) index array, each checked to lie in ``[0, n)``."""
    idx = np.array(edges, dtype=np.intp).reshape(-1, 2)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        s, t = idx[((idx < 0) | (idx >= n)).any(axis=1)][0]
        raise InvalidEventError(f"edge ({s}, {t}) out of range for {n} nodes")
    return idx


def normalize_adjacency(a: np.ndarray, mode: AdjacencyMode = "undirected") -> np.ndarray:
    """GCN-style normalization of a binary adjacency matrix.

    ``undirected`` (default): symmetrize with entrywise max of ``a`` and its
    transpose, add self-loops, then scale as D^(-1/2) S D^(-1/2). Output is
    symmetric with spectral radius <= 1.

    ``directed``: add self-loops to ``a`` as-is and row-normalize, giving a
    row-stochastic propagation operator.

    Self-loops are an entrywise max with the identity. The result is built
    in one new N x N array, and ``a`` is left as it was.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if mode == "undirected":
        s = np.maximum(a, a.T)
        _max_with_identity(s)
        d_inv_sqrt = 1.0 / np.sqrt(s.sum(axis=1))
        s *= d_inv_sqrt[:, None]
        s *= d_inv_sqrt[None, :]
        return s
    if mode == "directed":
        r = a.copy()
        _max_with_identity(r)
        r /= r.sum(axis=1, keepdims=True)
        return r
    raise ValueError(f"unknown adjacency mode {mode!r}")


def _max_with_identity(m: np.ndarray) -> None:
    """``m = np.maximum(m, np.eye(n))`` in place, without building the identity."""
    np.maximum(m, 0.0, out=m)
    np.fill_diagonal(m, np.maximum(m.diagonal(), 1.0))


def edge_list_operator(
    edges: Sequence[tuple[int, int]], n: int, mode: AdjacencyMode = "undirected"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``normalize_adjacency(build_adjacency(edges, n), mode)`` in compressed
    sparse rows, built from the edge list without an N x N array.

    Returns ``(indptr, cols, vals)`` in the stacked form ``PropGraph`` holds:
    one row for the symmetric ``undirected`` operator, and for ``directed``
    a second row with its transpose. The entries are the dense path's: an
    edge given twice, or in both directions where the mode symmetrizes, is
    one entry; every node has a self-loop; ``undirected`` values are
    ``d^-1/2[r] * d^-1/2[c]`` and ``directed`` ones ``1 / d[r]``, computed
    as the dense normalization computes them, so they match it bit for bit.
    """
    if mode not in ("undirected", "directed"):
        raise ValueError(f"unknown adjacency mode {mode!r}")
    idx = _edge_index(edges, n)
    loops = np.arange(n, dtype=np.intp)
    rows, cols = [idx[:, 0], loops], [idx[:, 1], loops]
    if mode == "undirected":
        rows.append(idx[:, 1])
        cols.append(idx[:, 0])
    # One key per entry, in row-major order; unique sorts and deduplicates.
    keys = np.unique(np.concatenate(rows) * n + np.concatenate(cols))
    r, c = np.divmod(keys, n)
    counts = np.bincount(r, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    deg = counts.astype(np.float64)
    if mode == "undirected":
        d_inv_sqrt = 1.0 / np.sqrt(deg)
        vals = d_inv_sqrt[r] * d_inv_sqrt[c]
        return indptr[None, :], c[None, :], vals[None, :]
    vals = 1.0 / deg[r]
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
    a = build_adjacency(event.edges, n)
    return PropGraph(adj_norm=normalize_adjacency(a, mode), features=features)
