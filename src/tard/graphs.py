"""Propagation-event data model and adjacency construction.

Events are reply cascades: node 0 is the source post, later nodes are
responsive posts, and every node carries a feature vector. Runtime graphs
hold a normalized adjacency matrix ready for GCN layers.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class PropGraph:
    """Runtime form of an event: normalized adjacency plus feature matrix.

    Dense matrices throughout. That is comfortable for real cascade corpora
    (tens to ~1000 posts per tree); above roughly 5k nodes the N x N
    adjacency becomes the bottleneck and a sparse backend would be needed.
    """

    num_nodes: int
    adj_norm: np.ndarray
    features: np.ndarray


def build_adjacency(edges: Sequence[tuple[int, int]], n: int) -> np.ndarray:
    """Binary adjacency from an edge list: a[s, t] = 1 iff (s, t) is an edge.

    No symmetrization happens here; direction handling belongs to
    :func:`normalize_adjacency`.
    """
    a = np.zeros((n, n), dtype=np.float64)
    for s, t in edges:
        s, t = int(s), int(t)
        if not (0 <= s < n and 0 <= t < n):
            raise InvalidEventError(f"edge ({s}, {t}) out of range for {n} nodes")
        a[s, t] = 1.0
    return a


def normalize_adjacency(a: np.ndarray, mode: AdjacencyMode = "undirected") -> np.ndarray:
    """GCN-style normalization of a binary adjacency matrix.

    ``undirected`` (default): symmetrize with entrywise max of ``a`` and its
    transpose, add self-loops, then scale as D^(-1/2) S D^(-1/2). Output is
    symmetric with spectral radius <= 1.

    ``directed``: add self-loops to ``a`` as-is and row-normalize, giving a
    row-stochastic propagation operator.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    n = a.shape[0]
    eye = np.eye(n)
    if mode == "undirected":
        s = np.maximum(np.maximum(a, a.T), eye)
        d_inv_sqrt = 1.0 / np.sqrt(s.sum(axis=1))
        return (s * d_inv_sqrt[:, None]) * d_inv_sqrt[None, :]
    if mode == "directed":
        r = np.maximum(a, eye)
        return r / r.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown adjacency mode {mode!r}")


def to_prop_graph(event: PropagationEvent, mode: AdjacencyMode = "undirected") -> PropGraph:
    """Build the runtime graph for an event (adjacency + normalization)."""
    a = build_adjacency(event.edges, event.num_nodes)
    return PropGraph(
        num_nodes=event.num_nodes,
        adj_norm=normalize_adjacency(a, mode),
        features=np.array(event.features, dtype=np.float64),
    )
