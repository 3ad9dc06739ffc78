"""Graph container, adjacency normalization and propagation."""

import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tard
from tard import graphs
from tard.graphs import (
    EDGE_LIST_MIN_NODES,
    InvalidEventError,
    PropagationEvent,
    PropGraph,
    edge_list_operator,
    normalized_entries,
    to_prop_graph,
)

#: The names of a graph's operator and its edge-list form; only graphs.py
#: names them.
OPERATOR_ATTRIBUTES = ("adj_norm", "EdgeList")


def _event(edges, features, label=0, event_id="t"):
    features = np.asarray(features, dtype=np.float64)
    return PropagationEvent(
        id=event_id,
        label=label,
        num_nodes=features.shape[0],
        edges=edges,
        features=features,
    )


class TestPropagationEvent:
    def test_valid_event(self):
        ev = _event([(0, 1), (0, 2)], np.zeros((3, 2)))
        assert ev.feature_dim == 2

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(InvalidEventError):
            _event([(0, 3)], np.zeros((3, 2)))

    def test_rejects_self_edge(self):
        with pytest.raises(InvalidEventError):
            _event([(1, 1)], np.zeros((3, 2)))

    def test_rejects_feature_row_mismatch(self):
        with pytest.raises(InvalidEventError):
            PropagationEvent(
                id="t", label=0, num_nodes=3, edges=[], features=np.zeros((2, 2))
            )

    def test_rejects_non_finite_features(self):
        with pytest.raises(InvalidEventError):
            _event([], [[np.nan, 0.0]])

    def test_rejects_negative_label(self):
        with pytest.raises(InvalidEventError):
            _event([], [[0.0]], label=-1)


def _reference_operator(edges, n, mode):
    """The normalized adjacency by the textbook formula on an N x N binary
    matrix: S = max(A, A.T, I), then D^-1/2 S D^-1/2 (undirected), or
    max(A, I) row-normalized (directed)."""
    a = np.zeros((n, n))
    for s, t in edges:
        a[s, t] = 1.0
    eye = np.eye(n)
    if mode == "undirected":
        s = np.maximum(np.maximum(a, a.T), eye)
        d_inv_sqrt = 1.0 / np.sqrt(s.sum(axis=1))
        return (s * d_inv_sqrt[:, None]) * d_inv_sqrt[None, :]
    r = np.maximum(a, eye)
    return r / r.sum(axis=1, keepdims=True)


def _dense_operator(edges, n, mode="undirected"):
    """The dense ``adj_norm`` ``to_prop_graph`` builds for these edges (n
    below ``EDGE_LIST_MIN_NODES``)."""
    return to_prop_graph(_event(edges, np.zeros((n, 1))), mode).adj_norm


class TestBuildAdjacency:
    """Which entries ``normalized_entries`` builds from an edge list."""

    def test_star(self):
        # Directed keeps the edges as given; each node adds its self-loop,
        # and the entries come in row-major order.
        rows, cols, _ = normalized_entries([(0, 2), (0, 1)], 3, "directed")
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 0), (0, 1), (0, 2), (1, 1), (2, 2)]

    def test_names_bad_edge(self):
        with pytest.raises(InvalidEventError, match=r"\(1, 5\)"):
            normalized_entries([(1, 5)], 3)

    def test_names_negative_edge(self):
        with pytest.raises(InvalidEventError, match=r"\(-1, 0\)"):
            normalized_entries([(0, 1), (-1, 0)], 3)

    def test_no_edges(self):
        for mode in ("undirected", "directed"):
            assert _dense_operator([], 3, mode).tobytes() == np.eye(3).tobytes()


class TestNormalizeAdjacency:
    """The values ``normalized_entries`` gives, read through the dense form."""

    def test_single_node(self):
        rows, cols, vals = normalized_entries([], 1)
        assert (rows.tolist(), cols.tolist(), vals.tolist()) == ([0], [0], [1.0])

    def test_single_edge_hand_value(self):
        # symmetrized single edge plus self-loops: both degrees 2
        s = _dense_operator([(0, 1)], 2)
        npt.assert_allclose(s, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_directed_rows_sum_to_one(self):
        r = _dense_operator([(0, 1), (0, 2)], 3, mode="directed")
        npt.assert_allclose(r.sum(axis=1), np.ones(3), atol=1e-15)

    @pytest.mark.parametrize("mode", ["undirected", "directed"])
    def test_bit_identical_to_the_eye_formula(self, mode):
        # (1, 2) and (2, 1) are a reciprocal pair: it is one entry.
        edges = [(0, 1), (1, 2), (2, 1), (0, 3), (3, 4), (4, 0)]
        rng = np.random.default_rng(8)
        block = rng.random((25, 25)) < 0.2
        np.fill_diagonal(block, False)
        edges += [(int(s) + 5, int(t) + 5) for s, t in zip(*np.nonzero(block))]
        expected = _reference_operator(edges, 30, mode)
        assert _dense_operator(edges, 30, mode).tobytes() == expected.tobytes()

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="bogus"):
            normalized_entries([], 1, mode="bogus")

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_with_spectral_radius_at_most_one(self, data):
        n = data.draw(st.integers(1, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a = rng.random((n, n)) < 0.3
        np.fill_diagonal(a, False)
        s = _dense_operator([(int(i), int(j)) for i, j in zip(*np.nonzero(a))], n)
        npt.assert_allclose(s, s.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(s)
        assert np.max(np.abs(eigs)) <= 1.0 + 1e-9


class TestToPropGraph:
    def test_single_node(self):
        g = to_prop_graph(_event([], [[1.0, 2.0]]))
        npt.assert_array_equal(g.adj_norm, [[1.0]])

    def test_three_node_star_hand_values(self):
        # center degree 3 (two children + loop), leaves degree 2
        g = to_prop_graph(_event([(0, 1), (0, 2)], np.zeros((3, 1))))
        c, l, m = 1 / 3, 1 / 2, 1 / np.sqrt(6)
        expected = [[c, m, m], [m, l, 0], [m, 0, l]]
        npt.assert_allclose(g.adj_norm, expected, atol=1e-12)
        npt.assert_allclose(g.adj_norm, np.asarray(g.adj_norm).T, atol=1e-15)

    def test_caches_adjacency_times_features(self):
        g = to_prop_graph(_event([(0, 1), (1, 2)], [[1.0, 0.0], [2.0, 1.0], [0.5, -1.0]]))
        assert g.ax.tobytes() == (g.adj_norm @ g.features).tobytes()
        with pytest.raises(AttributeError):
            g.ax = None

    def test_features_copied(self):
        ev = _event([(0, 1)], [[1.0], [2.0]])
        g = to_prop_graph(ev)
        g.features[0, 0] = 99.0
        assert ev.features[0, 0] == 1.0


class TestPropGraph:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 1\)"):
            PropGraph(adj_norm=np.eye(3)[:2], features=np.zeros((2, 1)))
        with pytest.raises(ValueError, match=r"\(2, 2\).*\(3, 2\)"):
            PropGraph(adj_norm=np.eye(2), features=np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"\(3, 3\).*\(4, 1\)"):
            PropGraph(adj_norm=edge_list_operator([(0, 1)], 3), features=np.zeros((4, 1)))

    def test_num_nodes_reads_the_feature_rows(self):
        assert PropGraph(adj_norm=np.eye(3), features=np.zeros((3, 2))).num_nodes == 3

    def test_propagation_is_the_adjacency_and_its_transpose(self):
        rng = np.random.default_rng(3)
        adj = rng.random((4, 4))
        g = PropGraph(adj_norm=adj, features=rng.standard_normal((4, 2)))
        x = rng.standard_normal((4, 3))
        assert g.propagate(x).tobytes() == (adj @ x).tobytes()
        assert g.propagate_back(x).tobytes() == (adj.T @ x).tobytes()

    def test_only_graphs_names_the_adjacency(self):
        # The operator's formats are private to graphs.py, so changing one
        # (or the threshold between them) touches no other module.
        package = Path(tard.__file__).parent
        named = [
            (str(path.relative_to(package)), name)
            for path in sorted(package.rglob("*.py"))
            if path.name != "graphs.py"
            for name in OPERATOR_ATTRIBUTES
            if name in path.read_text(encoding="utf-8")
        ]
        assert named == []


def _tree_edges(rng, n):
    return [(int(rng.integers(0, k)), k) for k in range(1, n)]


def _edge_list_graph(edges, n, mode):
    return PropGraph(features=np.zeros((n, 1)), adj_norm=edge_list_operator(edges, n, mode))


def _densify(op):
    """The N x N matrix an edge-list operator stands for."""
    m = np.zeros(op.shape)
    m[np.repeat(np.arange(op.shape[0]), np.diff(op.indptr)), op.cols] = op.vals
    return m


EDGE_CASES = {
    "tree": (_tree_edges(np.random.default_rng(5), 40), 40),
    "duplicated-edge": ([(0, 1), (1, 2), (0, 1), (2, 3)], 4),
    "reciprocal-pair": ([(0, 1), (1, 2), (2, 1), (0, 3)], 4),
    "no-edges": ([], 5),
    "hub": ([(0, k) for k in range(1, 602)] + [(5, 602), (602, 603)], 604),
}


class TestEdgeListOperator:
    """The edge-list operator is the dense normalized adjacency, entry for
    entry, and its products agree with the dense ones to rounding."""

    @pytest.mark.parametrize("mode", ["undirected", "directed"])
    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_matches_the_dense_operator(self, case, mode):
        edges, n = EDGE_CASES[case]
        dense = _reference_operator(edges, n, mode)
        op = edge_list_operator(edges, n, mode)
        assert op.shape == (n, n)
        assert (op.T is op) == (mode == "undirected")
        assert op.T.T is op
        assert _densify(op).tobytes() == dense.tobytes()
        assert _densify(op.T).tobytes() == dense.T.tobytes()
        g = _edge_list_graph(edges, n, mode)
        x = np.random.default_rng(n).standard_normal((n, 6))
        assert np.max(np.abs(g.propagate(x) - dense @ x)) <= 1e-15
        assert np.max(np.abs(g.propagate_back(x) - dense.T @ x)) <= 1e-15

    def test_directed_propagate_back_is_the_transpose(self):
        # A non-symmetric operator: back-propagation must use adj.T, not adj.
        edges, n = EDGE_CASES["hub"]
        dense = _reference_operator(edges, n, "directed")
        assert not np.array_equal(dense, dense.T)
        g = _edge_list_graph(edges, n, "directed")
        assert g.propagate(np.eye(n)).tobytes() == dense.tobytes()
        assert g.propagate_back(np.eye(n)).tobytes() == dense.T.tobytes()

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_trees_with_extra_edges(self, data):
        n = data.draw(st.integers(1, 30))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        edges = _tree_edges(rng, n)
        if n > 1:
            extra = rng.integers(0, n, size=(n, 2))
            edges += [(int(s), int(t)) for s, t in extra if s != t]
        x = rng.standard_normal((n, 3))
        for mode in ("undirected", "directed"):
            dense = _reference_operator(edges, n, mode)
            g = _edge_list_graph(edges, n, mode)
            assert g.propagate(np.eye(n)).tobytes() == dense.tobytes()
            assert np.max(np.abs(g.propagate(x) - dense @ x)) <= 1e-15
            assert np.max(np.abs(g.propagate_back(x) - dense.T @ x)) <= 1e-15

    def test_rejects_bad_edges_and_modes(self):
        with pytest.raises(InvalidEventError, match=r"\(1, 5\)"):
            edge_list_operator([(1, 5)], 3)
        with pytest.raises(ValueError, match="bogus"):
            edge_list_operator([], 2, mode="bogus")


def _reduceat_product(op, x):
    """``op @ x`` as one segment sum over the stored entries: the reference
    whose bits the bucketed kernel keeps."""
    return np.add.reduceat(op.vals[:, None] * x[op.cols], op.indptr[:-1], axis=0)


def _assert_same_bits(op, x):
    # inf - inf and 1e308 + 1e308 are part of the comparison.
    with np.errstate(invalid="ignore", over="ignore"):
        got, expected = op @ x, _reduceat_product(op, x)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _star(leaves):
    return [(0, k) for k in range(1, leaves + 1)], leaves + 1


#: Row lengths on both sides of the bucket cap: a hub row of cap - 1 and cap
#: leaves holds cap and cap + 1 entries with its self-loop.
STARS = {
    f"star-{leaves}": _star(leaves)
    for leaves in (1, graphs.BUCKET_MAX_ENTRIES - 1, graphs.BUCKET_MAX_ENTRIES, 30)
}

SPECIAL_VALUES = (-0.0, np.inf, -np.inf, 1e308, -1e308)


def _inputs(rng, n, special=False):
    """Inputs of 1, 8 and 32 columns, plus a non-contiguous column slice of
    a wider array; with ``special``, some entries are -0.0, +-inf or
    +-1e308."""
    xs = [rng.standard_normal((n, d)) for d in (1, 8, 32)]
    xs.append(rng.standard_normal((n, 17))[:, 3::2])
    if special:
        for x in xs:
            hit = rng.random(x.shape) < 0.3
            x[hit] = rng.choice(SPECIAL_VALUES, size=int(hit.sum()))
    return xs


class TestBucketedProduct:
    """``EdgeList @ x`` keeps the bits of the one-call ``reduceat`` product."""

    @pytest.mark.parametrize("special", [False, True], ids=["normal", "special"])
    @pytest.mark.parametrize("mode", ["undirected", "directed"])
    @pytest.mark.parametrize("case", list(EDGE_CASES) + list(STARS))
    def test_same_bits_as_reduceat(self, case, mode, special):
        edges, n = {**EDGE_CASES, **STARS}[case]
        op = edge_list_operator(edges, n, mode)
        rng = np.random.default_rng(n)
        for x in _inputs(rng, n, special):
            _assert_same_bits(op, x)
            _assert_same_bits(op.T, x)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_trees_with_hubs(self, data):
        # A root with 0 to n - 1 children, so its row falls on either side
        # of the cap, under a random tree with extra edges.
        n = data.draw(st.integers(2, 40))
        hub = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        edges = [(0, k) for k in range(1, hub + 1)]
        edges += [(int(rng.integers(0, k)), k) for k in range(hub + 1, n)]
        edges += [(int(s), int(t)) for s, t in rng.integers(0, n, size=(n // 4, 2)) if s != t]
        special = data.draw(st.booleans())
        for mode in ("undirected", "directed"):
            op = edge_list_operator(edges, n, mode)
            for x in _inputs(rng, n, special):
                _assert_same_bits(op, x)
                _assert_same_bits(op.T, x)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_keeps_reduceat_dtype_and_bits(self, dtype):
        # Node i has i % 10 children, so rows of every bucket length and
        # long rows alternate in node order; the transpose is checked too.
        n = 60
        edges = [(i, (i + j) % n) for i in range(n) for j in range(1, i % 10 + 1)]
        op = edge_list_operator(edges, n, "directed")
        lengths = np.diff(op.indptr)
        assert set(lengths[:10]) == set(range(1, graphs.BUCKET_MAX_ENTRIES + 3))
        rng = np.random.default_rng(3)
        if dtype is np.int64:
            x = rng.integers(-(2**62), 2**62, size=(n, 8))
        else:
            x = rng.standard_normal((n, 8)).astype(dtype)
        for o in (op, op.T):
            assert (o @ x).dtype == np.float64
            _assert_same_bits(o, x)

    def test_nan_inputs_stay_nan_where_reduceat_puts_them(self):
        # Only NaN inputs may come out with other payload bits.
        edges, n = EDGE_CASES["hub"]
        op = edge_list_operator(edges, n, "directed")
        x = np.random.default_rng(1).standard_normal((n, 8))
        x[[0, 3, 602], [0, 5, 7]] = np.nan
        for o in (op, op.T):
            assert np.isnan(o @ x).any()
            assert np.array_equal(o @ x, _reduceat_product(o, x), equal_nan=True)

    @pytest.mark.parametrize(
        "shape", [(3,), (4, 2), (2, 2), (3, 2, 1), ()], ids=["1-D", "long", "short", "3-D", "0-D"]
    )
    def test_rejects_anything_but_n_rows_of_columns(self, shape):
        # On a 1-D x a segment sum would broadcast to (3, 7), and extra rows
        # would be ignored; the error names both shapes.
        op = edge_list_operator([(0, 1), (0, 2)], 3)
        with pytest.raises(ValueError, match=re.escape("(3, 3)") + ".*" + re.escape(str(shape))):
            op @ np.zeros(shape)


class TestMalformedEdgeList:
    """An ``EdgeList`` built by hand from bad arrays is rejected by name."""

    @pytest.mark.parametrize(
        "indptr, cols, vals, problem",
        [
            ([], [], [], "indptr must"),
            ([1, 2], [0], [1.0], "indptr must"),
            ([0, 2, 1, 3], [0, 1, 2], [1.0, 1.0, 1.0], "decreases at row 1"),
            ([0, 1, 2], [0, 1, 0], [1.0, 1.0, 1.0], "ends at 2"),
            ([0, 1, 2], [0, 1], [1.0], r"vals \(1,\)"),
            ([0, 1, 2], [0, 2], [1.0, 1.0], "column 2 out of range for 2 nodes"),
            ([0, 1, 2], [-1, 1], [1.0, 1.0], "column -1 out of range"),
            ([0, 1, 1, 2], [0, 2], [1.0, 1.0], "row 1 holds no entry"),
        ],
        ids=[
            "empty", "offset", "decreasing", "short-cols", "short-vals",
            "col-high", "col-negative", "empty-row",
        ],
    )
    def test_rejects(self, indptr, cols, vals, problem):
        arrays = [np.array(indptr, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(vals)]
        with pytest.raises(ValueError, match=problem):
            graphs.EdgeList(*arrays)
        good = ([0, 1], [0], [1.0])
        with pytest.raises(ValueError, match=problem):
            graphs.EdgeList(*[np.array(a) for a in good], transpose=tuple(arrays))


class TestEdgeListThreshold:
    @pytest.mark.parametrize("mode", ["undirected", "directed"])
    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_both_forms_hold_the_reference_entries(self, monkeypatch, case, mode):
        edges, n = EDGE_CASES[case]
        expected = _reference_operator(edges, n, mode)
        event = _event(edges, np.zeros((n, 1)))
        monkeypatch.setattr(graphs, "EDGE_LIST_MIN_NODES", n + 1)
        dense = to_prop_graph(event, mode)
        monkeypatch.setattr(graphs, "EDGE_LIST_MIN_NODES", n)
        edge_list = to_prop_graph(event, mode)
        assert dense.adj_norm.tobytes() == expected.tobytes()
        assert isinstance(dense.adj_norm, np.ndarray)
        assert isinstance(edge_list.adj_norm, graphs.EdgeList)
        assert _densify(edge_list.adj_norm).tobytes() == expected.tobytes()
        assert _densify(edge_list.adj_norm.T).tobytes() == expected.T.tobytes()

    def test_below_the_threshold_the_graph_stays_dense(self):
        # Every cascade below the threshold keeps the dense products bit for
        # bit; that includes every shift-mid split, so the acceptance
        # criteria never enter the edge-list path.
        preset = tard.shift_mid(0)
        for spec in (preset.domain, preset.val_spec(), preset.target_spec()):
            assert spec.size_dist[1] < EDGE_LIST_MIN_NODES
        n = EDGE_LIST_MIN_NODES - 1
        rng = np.random.default_rng(2)
        g = to_prop_graph(_event(_tree_edges(rng, n), rng.standard_normal((n, 3))))
        assert isinstance(g.adj_norm, np.ndarray)
        assert g.ax.tobytes() == (g.adj_norm @ g.features).tobytes()

    @pytest.mark.parametrize("mode", ["undirected", "directed"])
    def test_at_the_threshold_the_graph_is_an_edge_list(self, mode):
        n = EDGE_LIST_MIN_NODES
        rng = np.random.default_rng(3)
        ev = _event(_tree_edges(rng, n), rng.standard_normal((n, 3)))
        g = to_prop_graph(ev, mode)
        assert isinstance(g.adj_norm, graphs.EdgeList)
        dense = _reference_operator(ev.edges, n, mode)
        assert g.propagate(np.eye(n)).tobytes() == dense.tobytes()
        assert np.max(np.abs(g.ax - dense @ ev.features)) <= 1e-15
