"""Y-structure model: shared extractor, two heads, the joint objective,
embedding statistics, alignment penalty, parameter snapshots and
serialization."""

import pickle

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference_check, make_random_event, make_random_graph
from tard import graphs
from tard.graphs import EDGE_LIST_MIN_NODES, GraphBatch, PropGraph
from tard.model import (
    ALL_GROUPS,
    GROUP_MAIN,
    GROUP_SHARED,
    GROUP_SSL,
    EmbeddingStats,
    Losses,
    ModelDims,
    TardParams,
    compute_embedding_stats,
    constraint_loss,
    constraint_value,
    embedding_stats,
    forward_main,
    forward_shared,
    forward_ssl,
    group_bytes,
    init_params,
    layout,
    objective,
    params_from_record,
    params_to_record,
    snapshot,
    stack,
    stats_from_record,
    stats_to_record,
)
from tard.nn import AdamState, Blocks, Parameter, adam_step
from tard.pipeline import predict


def _line_graph(features):
    """Two-node path with the symmetric normalized adjacency [[.5,.5],[.5,.5]]."""
    return PropGraph(
        adj_norm=np.full((2, 2), 0.5),
        features=np.asarray(features, dtype=np.float64),
    )


def _zeroed(params):
    for _, p in params.named_parameters():
        p.value.fill(0.0)
    return params


def _ssl_views(graph, params, perm):
    return forward_ssl(forward_shared(graph, params)[0], graph, params, perm)


def _grads(named):
    return {name: p.grad.copy() for name, p in named}


class TestDimsAndInit:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            ModelDims(d_in=2, d_hidden=2, num_classes=1)

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            ModelDims(d_in=0, d_hidden=2)

    def test_shapes(self):
        dims = ModelDims(d_in=3, d_hidden=7, num_classes=4, shared_layers=2, ssl_layers=2)
        params = init_params(dims, seed=5)
        assert [p.value.shape for p in params.theta_e] == [(3, 7), (7, 7)]
        assert params.theta_m_out_w.value.shape == (7, 4)
        assert params.theta_m_out_b.value.shape == (1, 4)
        assert [p.value.shape for p in params.theta_s] == [(7, 7), (7, 7)]

    def test_seed_determinism(self):
        a = init_params(ModelDims(d_in=3, d_hidden=4), seed=11)
        b = init_params(ModelDims(d_in=3, d_hidden=4), seed=11)
        for g in (GROUP_SHARED, GROUP_MAIN, GROUP_SSL):
            assert group_bytes(a, g) == group_bytes(b, g)

    def test_different_seeds_differ(self):
        a = init_params(ModelDims(d_in=3, d_hidden=4), seed=11)
        b = init_params(ModelDims(d_in=3, d_hidden=4), seed=12)
        assert group_bytes(a, GROUP_SHARED) != group_bytes(b, GROUP_SHARED)

    def test_named_parameters_rejects_unknown_group(self, small_params):
        with pytest.raises(ValueError):
            small_params.named_parameters(groups=("x",))


class TestLayout:
    """One flat value and one flat grad buffer; groups and matrices are views."""

    DIMS = ModelDims(
        d_in=3, d_hidden=5, num_classes=3, shared_layers=2, main_layers=2, ssl_layers=2
    )

    def test_matrices_are_views_into_group_buffers(self):
        params = init_params(self.DIMS, seed=2)
        for g in (GROUP_SHARED, GROUP_MAIN, GROUP_SSL):
            buf = params.groups[g]
            for name, p in params.named_parameters((g,)):
                assert np.shares_memory(p.value, buf.value), name
                assert np.shares_memory(p.grad, buf.grad), name

    def test_matrices_tile_each_buffer_in_layout_order(self):
        params = init_params(self.DIMS, seed=2)
        for g, entries in layout(self.DIMS).items():
            named = params.named_parameters((g,))
            assert [(n, p.value.shape) for n, p in named] == entries
            buf = params.groups[g]
            assert sum(p.value.size for _, p in named) == buf.value.size
            for arr in (buf.value, buf.grad):
                arr.fill(0.0)
            for _, p in named:  # each entry is hit once: no gap, no overlap
                p.value += 1.0
                p.grad += 1.0
            npt.assert_array_equal(buf.value, 1.0)
            npt.assert_array_equal(buf.grad, 1.0)

    def test_groups_are_views_of_one_buffer_in_order_m_e_s(self):
        params = init_params(self.DIMS, seed=2)
        params.flat.value[:] = np.arange(params.flat.value.size)
        start = 0
        for g in (GROUP_MAIN, GROUP_SHARED, GROUP_SSL):
            buf = params.groups[g]
            assert np.shares_memory(buf.value, params.flat.value)
            assert np.shares_memory(buf.grad, params.flat.grad)
            npt.assert_array_equal(buf.value, np.arange(start, start + buf.value.size))
            start += buf.value.size
        assert start == params.flat.value.size

    def test_unpickled_params_are_views_of_their_own_buffer(self):
        """Forked workers send trained models back pickled; the copy must
        keep its matrices inside its flat buffer, or a step would update
        one and not the other."""
        params = init_params(self.DIMS, seed=2)
        back = pickle.loads(pickle.dumps(params))
        assert back.flat.value.tobytes() == params.flat.value.tobytes()
        for (name, p), (_, q) in zip(params.named_parameters(), back.named_parameters()):
            assert np.shares_memory(q.value, back.flat.value), name
            assert np.shares_memory(q.grad, back.flat.grad), name
            npt.assert_array_equal(q.value, p.value)

    @pytest.mark.parametrize(
        "groups", [ALL_GROUPS, (GROUP_SHARED, GROUP_MAIN), (GROUP_SHARED, GROUP_SSL)]
    )
    def test_each_optimizer_set_is_one_slice(self, groups):
        params = init_params(self.DIMS, seed=2)
        params.flat.value[:] = np.arange(params.flat.value.size)
        span = params.span(groups)
        assert np.shares_memory(span.value, params.flat.value)
        assert np.shares_memory(span.grad, params.flat.grad)
        # The flat buffer counts up, so a sorted match means exactly these
        # groups' entries, side by side.
        entries = np.concatenate([params.groups[g].value for g in groups])
        npt.assert_array_equal(span.value, np.sort(entries))

    def test_span_rejects_groups_that_are_not_side_by_side(self):
        params = init_params(self.DIMS, seed=2)
        with pytest.raises(ValueError, match="contiguous"):
            params.span((GROUP_MAIN, GROUP_SSL))

    def test_zeroing_a_span_touches_only_its_groups(self):
        params = init_params(self.DIMS, seed=2)
        for buf in params.groups.values():
            buf.grad.fill(1.0)
        params.span((GROUP_SSL,)).grad.fill(0.0)
        for name, p in params.named_parameters((GROUP_SHARED, GROUP_MAIN)):
            npt.assert_array_equal(p.grad, 1.0, err_msg=name)
        npt.assert_array_equal(params.groups[GROUP_SSL].grad, 0.0)

    def test_snapshot_shares_no_memory(self):
        params = init_params(self.DIMS, seed=2)
        snap = snapshot(params)
        for arr in (params.flat.value, params.flat.grad):
            assert not np.shares_memory(snap.flat.value, arr)
            assert not np.shares_memory(snap.flat.grad, arr)
        for g in (GROUP_SHARED, GROUP_MAIN, GROUP_SSL):
            for arr in (params.groups[g].value, params.groups[g].grad):
                assert not np.shares_memory(snap.groups[g].value, arr)
                assert not np.shares_memory(snap.groups[g].grad, arr)

    def test_group_adam_step_matches_per_matrix_bits(self, rng):
        a = init_params(self.DIMS, seed=2)
        b = snapshot(a)
        for g in (GROUP_SHARED, GROUP_MAIN, GROUP_SSL):
            grad = rng.standard_normal(a.groups[g].grad.size)
            a.groups[g].grad[:] = grad
            b.groups[g].grad[:] = grad
        per_group = [(p, AdamState(lr=0.1)) for p in a.groups.values()]
        per_matrix = [(p, AdamState(lr=0.1)) for _, p in b.named_parameters()]
        for _ in range(3):
            for p, state in per_group + per_matrix:
                adam_step(p, state)
        for g in (GROUP_SHARED, GROUP_MAIN, GROUP_SSL):
            assert group_bytes(a, g) == group_bytes(b, g)

    @pytest.mark.parametrize(
        "groups", [ALL_GROUPS, (GROUP_SHARED, GROUP_MAIN), (GROUP_SHARED, GROUP_SSL)]
    )
    def test_span_adam_step_matches_per_group_bits(self, rng, groups):
        a = init_params(self.DIMS, seed=2)
        b = snapshot(a)
        span = a.span(groups)
        state = AdamState(lr=0.1)
        per_group = [(b.groups[g], AdamState(lr=0.1)) for g in groups]
        for _ in range(5):
            grad = rng.standard_normal(a.flat.grad.size)
            a.flat.grad[:] = grad
            b.flat.grad[:] = grad
            adam_step(span, state)
            for p, group_state in per_group:
                adam_step(p, group_state)
        assert a.flat.value.tobytes() == b.flat.value.tobytes()


class TestForwardShared:
    def test_hand_value_on_line_graph(self):
        params = init_params(ModelDims(d_in=1, d_hidden=1), seed=0)
        params.theta_e[0].value[:] = [[2.0]]
        g = _line_graph([[1.0], [3.0]])
        h, _ = forward_shared(g, params)
        # adj @ x = [[2],[2]]; times w=2 -> [[4],[4]]; relu is a no-op here
        npt.assert_allclose(h, [[4.0], [4.0]], atol=1e-15)

    def test_zero_weights_give_zero_embeddings(self, small_params, rng):
        _zeroed(small_params)
        h, _ = forward_shared(make_random_graph(rng, 5, 4), small_params)
        npt.assert_array_equal(h, np.zeros((5, 5)))

    def test_rejects_feature_dim_mismatch(self, small_params, rng):
        with pytest.raises(ValueError):
            forward_shared(make_random_graph(rng, 4, 3), small_params)

    def test_matches_straight_line_reimplementation(self, rng):
        params = init_params(ModelDims(d_in=3, d_hidden=4, shared_layers=2), seed=5)
        g = make_random_graph(rng, 4, 3)
        h, _ = forward_shared(g, params)

        # Same computation as nested scalar loops, no shared code path.
        rows = [list(row) for row in g.features]
        for layer in params.theta_e:
            w = layer.value
            mixed = [
                [
                    sum(g.adj_norm[i][k] * rows[k][j] for k in range(4))
                    for j in range(len(rows[0]))
                ]
                for i in range(4)
            ]
            rows = [
                [
                    max(0.0, sum(mixed[i][k] * w[k][j] for k in range(w.shape[0])))
                    for j in range(w.shape[1])
                ]
                for i in range(4)
            ]
        npt.assert_allclose(h, rows, atol=1e-12)


class TestForwardMain:
    def test_zero_weights_give_uniform_probs(self, small_params, rng):
        _zeroed(small_params)
        g = make_random_graph(rng, 6, 4)
        h, _ = forward_shared(g, small_params)
        probs, _ = forward_main(h, g, small_params)
        npt.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_probs_sum_to_one(self, small_params, rng):
        g = make_random_graph(rng, 8, 4)
        h, _ = forward_shared(g, small_params)
        probs, _ = forward_main(h, g, small_params)
        npt.assert_allclose(probs.sum(), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    @given(st.integers(2, 9), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_node_relabeling_invariance(self, n, seed):
        rng = np.random.default_rng(seed)
        params = init_params(ModelDims(d_in=3, d_hidden=4), seed=7)
        g = make_random_graph(rng, n, 3)
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        g_perm = PropGraph(adj_norm=p @ g.adj_norm @ p.T, features=g.features[perm])
        probs_a, _ = forward_main(forward_shared(g, params)[0], g, params)
        probs_b, _ = forward_main(forward_shared(g_perm, params)[0], g_perm, params)
        npt.assert_allclose(probs_a, probs_b, atol=1e-12)


class TestForwardSsl:
    def test_single_node_views_identical(self, small_params, rng):
        g = make_random_graph(rng, 1, 4)
        h0, h1, g0, _ = _ssl_views(g, small_params, np.arange(1))
        npt.assert_array_equal(h0, h1)
        npt.assert_allclose(g0, h0[0], atol=1e-15)

    def test_fixed_perm_is_deterministic(self, small_params, rng):
        g = make_random_graph(rng, 5, 4)
        perm = np.array([2, 0, 4, 1, 3])
        a = _ssl_views(g, small_params, perm)
        b = _ssl_views(g, small_params, perm)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_constant_features_make_views_identical(self, small_params, rng):
        # Shuffling identical feature rows is a no-op, so the corrupted
        # view embeds exactly like the clean one.
        g = PropGraph(
            adj_norm=make_random_graph(rng, 4, 1).adj_norm,
            features=np.tile([[0.3, -1.2, 0.0, 2.0]], (4, 1)),
        )
        h0, h1, _, _ = _ssl_views(g, small_params, rng.permutation(4))
        npt.assert_array_equal(h0, h1)


class TestSslLoss:
    def test_zero_weights_give_ln2(self, small_params, rng):
        _zeroed(small_params)
        g = make_random_graph(rng, 6, 4)
        loss = objective(g, small_params, perm=np.arange(6)).l_s
        npt.assert_allclose(loss, np.log(2.0), atol=1e-9)

    def test_classification_head_gradients_stay_zero(self, small_params, rng):
        g = make_random_graph(rng, 5, 4)
        small_params.span().grad.fill(0.0)
        objective(g, small_params, perm=rng.permutation(5))
        for name, p in small_params.named_parameters(groups=(GROUP_MAIN,)):
            npt.assert_array_equal(p.grad, 0.0, err_msg=name)
        # and something nonzero did flow into the other groups
        total = sum(
            float(np.abs(p.grad).sum())
            for _, p in small_params.named_parameters(groups=(GROUP_SHARED, GROUP_SSL))
        )
        assert total > 0.0

    def test_gradients_match_finite_difference(self, rng):
        params = init_params(ModelDims(d_in=3, d_hidden=4, ssl_layers=2), seed=3)
        g = make_random_graph(rng, 6, 3)
        perm = np.random.default_rng(0).permutation(6)
        named = params.named_parameters(groups=(GROUP_SHARED, GROUP_SSL))

        def loss_fn():
            params.span().grad.fill(0.0)
            return objective(g, params, perm=perm).l_s, _grads(named)

        report = finite_difference_check(loss_fn, named)
        assert report.ok, f"max rel error {report.max_rel_error}"

    def test_value_helper_matches_and_leaves_grads_alone(self, small_params, rng):
        g = make_random_graph(rng, 5, 4)
        perm = np.arange(5)[::-1].copy()
        small_params.span().grad.fill(0.0)
        v = objective(g, small_params, perm=perm, grad=False).l_s
        for name, p in small_params.named_parameters():
            npt.assert_array_equal(p.grad, 0.0, err_msg=name)
        full = objective(g, small_params, perm=perm).l_s
        assert v == full


class TestMainLoss:
    def test_zero_weights_give_ln2(self, small_params, rng):
        _zeroed(small_params)
        g = make_random_graph(rng, 4, 4)
        loss = objective(g, small_params, label=1).l_m
        npt.assert_allclose(loss, np.log(2.0), atol=1e-9)

    def test_ssl_head_gradients_stay_zero(self, small_params, rng):
        g = make_random_graph(rng, 5, 4)
        small_params.span().grad.fill(0.0)
        objective(g, small_params, label=0)
        for name, p in small_params.named_parameters(groups=(GROUP_SSL,)):
            npt.assert_array_equal(p.grad, 0.0, err_msg=name)

    def test_rejects_out_of_range_label(self, small_params, rng):
        with pytest.raises(ValueError):
            objective(make_random_graph(rng, 3, 4), small_params, label=2)

    def test_gradients_match_finite_difference(self, rng):
        params = init_params(ModelDims(d_in=3, d_hidden=4, main_layers=2), seed=8)
        g = make_random_graph(rng, 5, 3)
        named = params.named_parameters(groups=(GROUP_SHARED, GROUP_MAIN))

        def loss_fn():
            params.span().grad.fill(0.0)
            return objective(g, params, label=1).l_m, _grads(named)

        report = finite_difference_check(loss_fn, named)
        assert report.ok, f"max rel error {report.max_rel_error}"

    def test_value_helper_matches(self, small_params, rng):
        g = make_random_graph(rng, 5, 4)
        loss_a = objective(g, small_params, label=1, grad=False).l_m
        loss_b = objective(g, small_params, label=1).l_m
        assert loss_a == loss_b
        probs, _ = forward_main(forward_shared(g, small_params)[0], g, small_params)
        npt.assert_allclose(loss_a, -np.log(probs[1]), rtol=1e-12)


class TestObjective:
    def _setup(self, rng):
        dims = ModelDims(
            d_in=3, d_hidden=4, shared_layers=2, main_layers=2, ssl_layers=2
        )
        params = init_params(dims, seed=76)  # no layer dead on this graph
        g = make_random_graph(rng, 6, 3)
        frozen = init_params(dims, seed=42)
        stats = compute_embedding_stats(
            [make_random_graph(rng, n, 3) for n in (4, 7)], frozen
        )
        perm = np.random.default_rng(5).permutation(6)
        return params, g, stats, perm

    def test_all_three_terms_match_finite_difference(self, rng):
        params, g, stats, perm = self._setup(rng)
        w = {"w_s": 0.7, "w_c": 0.25}
        named = params.named_parameters()

        def loss_fn():
            params.span().grad.fill(0.0)
            out = objective(g, params, label=1, perm=perm, stats=stats, **w)
            total = out.l_m + w["w_s"] * out.l_s + w["w_c"] * out.l_c
            return total, _grads(named)

        report = finite_difference_check(loss_fn, named)
        assert report.ok, f"max rel error {report.max_rel_error}"
        assert all(np.any(g != 0.0) for g in loss_fn()[1].values())

    def test_no_grad_probe_matches_and_leaves_grads_zero(self, rng):
        params, g, stats, perm = self._setup(rng)
        kwargs = {"label": 0, "perm": perm, "stats": stats, "w_s": 0.5, "w_c": 0.3}
        params.span().grad.fill(0.0)
        probe = objective(g, params, grad=False, **kwargs)
        for name, p in params.named_parameters():
            npt.assert_array_equal(p.grad, 0.0, err_msg=name)
        full = objective(g, params, **kwargs)
        assert probe == full

    def test_absent_terms_are_not_computed(self, small_params, rng):
        out = objective(make_random_graph(rng, 4, 4), small_params, grad=False)
        assert out == Losses()

    @pytest.mark.parametrize(
        "sizes",
        [[6], [EDGE_LIST_MIN_NODES], [5, 1, 12]],
        ids=["dense", "edge-list", "lockstep-batch"],
    )
    def test_gradient_without_values_is_the_same(self, rng, sizes):
        """An adaptation step that reads no loss value accumulates the same
        gradient bytes, and the probe still reports L_s and L_c."""
        params, _, stats, _ = self._setup(rng)
        alone = [make_random_graph(rng, n, 3) for n in sizes]
        if len(sizes) == 1:
            graph = alone[0]
        else:
            graph = GraphBatch(alone, [f"b-{k}" for k in range(len(sizes))])
            params = stack(params, len(sizes))
        perm = graph.blocks.permutation([np.random.default_rng(k) for k in range(len(sizes))])
        kwargs = {"perm": perm, "stats": stats, "w_c": 0.3}
        grads, outs = [], []
        for values in (True, False):
            params.span().grad.fill(0.0)
            outs.append(objective(graph, params, values=values, **kwargs))
            grads.append(params.flat.grad.tobytes())
        assert grads[0] == grads[1]
        assert outs[1] == Losses()
        probe = objective(graph, params, grad=False, **kwargs)
        assert probe == outs[0]
        l_s, l_c = (probe.l_s, probe.l_c) if len(sizes) == 1 else (probe.l_s[0], probe.l_c[0])
        first = snapshot(params) if len(sizes) == 1 else _row(params, 0)
        h0, h1, g0, _ = _ssl_views(alone[0], first, perm[: sizes[0]])
        want = -(np.log(_sigmoid(h0 @ g0)).sum() + np.log(1 - _sigmoid(h1 @ g0)).sum())
        npt.assert_allclose(l_s, want / (2 * sizes[0]), rtol=1e-12)
        h = forward_shared(alone[0], first)[0]
        assert l_c == constraint_value(stats, embedding_stats(h))

    def test_unit_weight_is_skipped_exactly(self):
        """The SSL upstream skips ``w_s *`` at 1.0: the product is the
        input's own bits, -0.0, infinities and NaN included."""
        x = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1.5])
        assert (1.0 * x).tobytes() == x.tobytes()


def _row(params, k):
    """Event ``k``'s parameter set of a stack, as a lone copy."""
    return TardParams(params.dims, Parameter(params.flat.value[k].copy()))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class _CountingAdjacency(np.ndarray):
    """A dense adjacency that counts the matrix products it is the left
    operand of, its transpose included; results are plain arrays. The
    edge-list path adds its kernel calls to the same count."""

    products = 0

    def __matmul__(self, other):
        _CountingAdjacency.products += 1
        return self.view(np.ndarray) @ other


class TestAdjacencyProducts:
    """Each call makes every distinct N x N product once, with one layer per
    stack: adj @ X[perm], adj @ [h | h1] and adj.T @ [g0 | g1] in an
    adaptation step; adj @ X only when the graph is built."""

    def _graphs(self, rng):
        """(plain, counted): the same graph, the second counting products."""
        plain = make_random_graph(rng, 7, 4)
        counted = PropGraph(
            adj_norm=plain.adj_norm.view(_CountingAdjacency),
            features=plain.features,
        )
        return plain, counted

    def test_building_the_graph_makes_one(self, rng):
        _CountingAdjacency.products = 0
        self._graphs(rng)
        assert _CountingAdjacency.products == 1

    @pytest.mark.parametrize(
        "call, expected",
        [
            pytest.param("adapt", 3, id="adaptation-step"),
            pytest.param("probe", 2, id="loss-probe"),
            pytest.param("predict", 1, id="predict"),
            pytest.param("train", 3, id="training-step"),
        ],
    )
    def test_products_per_call(self, small_params, rng, call, expected):
        plain, counted = self._graphs(rng)
        stats = compute_embedding_stats([plain], init_params(small_params.dims, seed=1))
        perm = np.random.default_rng(2).permutation(7)
        calls = {
            "adapt": lambda g: objective(g, small_params, perm=perm, stats=stats, w_c=0.1),
            "probe": lambda g: objective(g, small_params, perm=perm, stats=stats, grad=False),
            "predict": lambda g: predict(g, small_params)[1].tolist(),
            "train": lambda g: objective(g, small_params, label=1, perm=perm, w_s=0.5),
        }
        _CountingAdjacency.products = 0
        small_params.span().grad.fill(0.0)
        got = calls[call](counted)
        assert _CountingAdjacency.products == expected
        grads = _grads(small_params.named_parameters())
        small_params.span().grad.fill(0.0)
        assert calls[call](plain) == got
        for name, grad in _grads(small_params.named_parameters()).items():
            npt.assert_array_equal(grads[name], grad, err_msg=name)


class TestEdgeListAdjacencyProducts(TestAdjacencyProducts):
    """The same counts on the edge-list path, where each product is one
    ``EdgeList @ x``."""

    @pytest.fixture(autouse=True)
    def _count_kernel_calls(self, monkeypatch):
        kernel = graphs.EdgeList.__matmul__

        def counting(op, x):
            _CountingAdjacency.products += 1
            return kernel(op, x)

        monkeypatch.setattr(graphs.EdgeList, "__matmul__", counting)

    def _graphs(self, rng):
        event = make_random_event(rng, 7, 4)
        graph = PropGraph(
            features=event.features, adj_norm=graphs.edge_list_operator(event.edges, 7)
        )
        return graph, graph


class TestEmbeddingStats:
    def test_hand_values(self):
        stats = embedding_stats(np.array([[0.0, 0.0], [2.0, 2.0]]))
        npt.assert_allclose(stats.mu, [1.0, 1.0], atol=1e-15)
        npt.assert_allclose(stats.eta, [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)
        assert stats.count == 2

    def test_single_row(self):
        stats = embedding_stats(np.array([[3.0, -1.0]]))
        npt.assert_array_equal(stats.mu, [3.0, -1.0])
        npt.assert_array_equal(stats.eta, np.zeros((2, 2)))

    def test_identical_rows_have_zero_covariance(self):
        stats = embedding_stats(np.tile([[1.5, -2.0, 0.25]], (6, 1)))
        npt.assert_array_equal(stats.mu, [1.5, -2.0, 0.25])
        npt.assert_array_equal(stats.eta, np.zeros((3, 3)))

    @given(st.integers(2, 12), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_row_order_invariance_symmetry_psd(self, n, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((n, 3))
        stats = embedding_stats(h)
        shuffled = embedding_stats(h[rng.permutation(n)])
        npt.assert_allclose(stats.mu, shuffled.mu, atol=1e-12)
        npt.assert_allclose(stats.eta, shuffled.eta, atol=1e-12)
        npt.assert_array_equal(stats.eta, stats.eta.T)
        assert np.linalg.eigvalsh(stats.eta).min() >= -1e-9

    def test_collection_stats_pool_all_nodes(self, small_params, rng):
        # Bit oracle: the stats of the stacked per-graph rows, over both
        # operator forms (dense below EDGE_LIST_MIN_NODES, edge list above).
        collection = [make_random_graph(rng, n, 4) for n in (1, 5, 300)]
        assert isinstance(collection[0].adj_norm, np.ndarray)
        assert isinstance(collection[2].adj_norm, graphs.EdgeList)
        pooled = compute_embedding_stats(collection, small_params)
        rows = np.vstack([forward_shared(g, small_params)[0] for g in collection])
        direct = embedding_stats(rows)
        assert pooled.mu.tobytes() == direct.mu.tobytes()
        assert pooled.eta.tobytes() == direct.eta.tobytes()
        assert pooled.count == 306

    def test_collection_stats_reject_empty(self, small_params):
        with pytest.raises(ValueError):
            compute_embedding_stats([], small_params)


class TestConstraint:
    @pytest.mark.parametrize("sizes", [[6], [5, 1, 9]], ids=["one-event", "three-events"])
    def test_value_and_gradient_do_not_depend_on_each_other(self, rng, sizes):
        """Leaving out the value or the gradient changes neither the other."""
        train = embedding_stats(rng.standard_normal((20, 3)))
        h, blocks = rng.standard_normal((sum(sizes), 3)), Blocks(sizes)
        value, grad = constraint_loss(train, h, blocks)
        assert constraint_loss(train, h, blocks, grad=False) == (value, None)
        no_value, same = constraint_loss(train, h, blocks, value=False)
        assert no_value is None and same.tobytes() == grad.tobytes()

    def test_identical_stats_give_exact_zero(self, rng):
        h = rng.standard_normal((5, 3))
        s = embedding_stats(h)
        assert constraint_value(s, s) == 0.0

    def test_unit_mean_offset(self):
        a = EmbeddingStats(mu=np.array([0.0, 0.0]), eta=np.zeros((2, 2)), count=4)
        b = EmbeddingStats(mu=np.array([1.0, 0.0]), eta=np.zeros((2, 2)), count=4)
        assert constraint_value(a, b) == 1.0

    def test_single_node_skips_covariance_term(self):
        train = EmbeddingStats(
            mu=np.zeros(2), eta=np.array([[5.0, 0.0], [0.0, 5.0]]), count=10
        )
        value, grad = constraint_loss(train, np.array([[1.0, 0.0]]))
        assert value == 1.0  # mean term only; eta mismatch ignored at N=1
        npt.assert_allclose(grad, [[2.0, 0.0]], atol=1e-15)

    def test_rejects_dim_mismatch(self):
        a = EmbeddingStats(mu=np.zeros(2), eta=np.zeros((2, 2)), count=2)
        b = EmbeddingStats(mu=np.zeros(3), eta=np.zeros((3, 3)), count=2)
        with pytest.raises(ValueError, match=r"stats dims differ: \(2,\) vs \(3,\)"):
            constraint_value(a, b)
        with pytest.raises(ValueError, match=r"stats dims differ: \(2,\) vs \(3,\)"):
            constraint_loss(a, np.zeros((2, 3)))

    def test_gradient_matches_finite_difference(self, rng):
        train = embedding_stats(rng.standard_normal((20, 3)))
        h = Parameter(rng.standard_normal((6, 3)))

        def loss_fn():
            value, grad = constraint_loss(train, h.value)
            return value, {"h": grad}

        report = finite_difference_check(loss_fn, [("h", h)])
        assert report.ok, f"max rel error {report.max_rel_error}"


class TestAdaptLosses:
    def test_alpha2_zero_matches_pure_ssl_gradient(self, rng):
        dims = ModelDims(d_in=3, d_hidden=4)
        params_a = init_params(dims, seed=21)
        params_b = snapshot(params_a)
        g = make_random_graph(rng, 6, 3)
        train_stats = compute_embedding_stats([g], params_a)
        perm = np.random.default_rng(1).permutation(6)

        params_a.span().grad.fill(0.0)
        out = objective(g, params_a, perm=perm, stats=train_stats, w_c=0.0)
        params_b.span().grad.fill(0.0)
        ls_b = objective(g, params_b, perm=perm).l_s

        assert out.l_s == ls_b
        assert out.l_c >= 0.0  # reported even though it contributed no gradient
        for (na, pa), (_, pb) in zip(
            params_a.named_parameters(), params_b.named_parameters()
        ):
            npt.assert_array_equal(pa.grad, pb.grad, err_msg=na)

    def test_combined_gradient_matches_finite_difference(self, rng):
        dims = ModelDims(d_in=3, d_hidden=4, ssl_layers=2)
        params = init_params(dims, seed=17)
        g = make_random_graph(rng, 5, 3)
        stats_graphs = [make_random_graph(rng, n, 3) for n in (4, 7, 3)]
        frozen = init_params(dims, seed=99)
        train_stats = compute_embedding_stats(stats_graphs, frozen)
        alpha2 = 0.35
        perm = np.random.default_rng(4).permutation(5)
        named = params.named_parameters(groups=(GROUP_SHARED, GROUP_SSL))

        def loss_fn():
            params.span().grad.fill(0.0)
            out = objective(g, params, perm=perm, stats=train_stats, w_c=alpha2)
            return out.l_s + alpha2 * out.l_c, _grads(named)

        report = finite_difference_check(loss_fn, named)
        assert report.ok, f"max rel error {report.max_rel_error}"

    def test_classification_head_never_touched(self, small_params, rng):
        g = make_random_graph(rng, 4, 4)
        stats = compute_embedding_stats([g], small_params)
        small_params.span().grad.fill(0.0)
        objective(g, small_params, perm=np.arange(4), stats=stats, w_c=0.5)
        for name, p in small_params.named_parameters(groups=(GROUP_MAIN,)):
            npt.assert_array_equal(p.grad, 0.0, err_msg=name)


class TestSnapshotsAndSerialization:
    def test_snapshot_isolated_from_mutation(self, small_params):
        snap = snapshot(small_params)
        before = group_bytes(snap, GROUP_SHARED)
        small_params.theta_e[0].value += 1.0
        assert group_bytes(snap, GROUP_SHARED) == before

    def test_restore_bit_identical(self, small_params):
        # Restoring a stash is taking a snapshot of it.
        snap = snapshot(small_params)
        small_params.theta_e[0].value += 3.0
        small_params.theta_m_out_w.value *= 2.0
        fresh = snapshot(snap)
        for g in (GROUP_SHARED, GROUP_MAIN, GROUP_SSL):
            assert group_bytes(fresh, g) == group_bytes(snap, g)

    def test_two_snapshots_of_same_params_are_equal(self, small_params):
        first = snapshot(small_params)
        second = snapshot(small_params)
        for g in (GROUP_SHARED, GROUP_MAIN, GROUP_SSL):
            assert group_bytes(first, g) == group_bytes(second, g)

    def test_restore_discards_optimizer_steps(self, small_params, rng):
        snap = snapshot(small_params)
        graph = make_random_graph(rng, 5, 4)
        state = AdamState(lr=1e-2)
        for _ in range(3):
            small_params.span().grad.fill(0.0)
            objective(graph, small_params, label=0)
            adam_step(small_params.span(), state)
        assert group_bytes(small_params, GROUP_SHARED) != group_bytes(
            snap, GROUP_SHARED
        )
        fresh = snapshot(snap)
        for g in (GROUP_SHARED, GROUP_MAIN, GROUP_SSL):
            assert group_bytes(fresh, g) == group_bytes(snap, g)

    def test_params_record_round_trip(self):
        dims = ModelDims(d_in=3, d_hidden=4, num_classes=3, shared_layers=2, ssl_layers=2)
        params = init_params(dims, seed=31)
        back = params_from_record(params_to_record(params))
        assert back.dims == dims
        for g in (GROUP_SHARED, GROUP_MAIN, GROUP_SSL):
            assert group_bytes(back, g) == group_bytes(params, g)

    def test_missing_matrix_rejected(self, small_params):
        rec = params_to_record(small_params)
        del rec["matrices"]["theta_s.0"]
        with pytest.raises(ValueError, match="theta_s.0"):
            params_from_record(rec)

    def test_stats_record_round_trip(self, rng):
        stats = embedding_stats(rng.standard_normal((9, 4)))
        back = stats_from_record(stats_to_record(stats))
        npt.assert_array_equal(back.mu, stats.mu)
        npt.assert_array_equal(back.eta, stats.eta)
        assert back.count == stats.count

    def test_group_bytes_distinguishes_groups(self, small_params):
        assert group_bytes(small_params, GROUP_SHARED) != group_bytes(
            small_params, GROUP_SSL
        )
        # ... and one ulp, and the sign of zero, within a group.
        moved, zero, negative_zero = (snapshot(small_params) for _ in range(3))
        entry = moved.groups[GROUP_SHARED].value
        entry[0] = np.nextafter(entry[0], np.inf)
        zero.groups[GROUP_SHARED].value[0] = 0.0
        negative_zero.groups[GROUP_SHARED].value[0] = -0.0
        assert group_bytes(moved, GROUP_SHARED) != group_bytes(small_params, GROUP_SHARED)
        assert group_bytes(zero, GROUP_SHARED) != group_bytes(negative_zero, GROUP_SHARED)
