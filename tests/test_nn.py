"""Numeric kernel: the dense half of the GCN layer, readout, contrastive
loss, cross-entropy, Adam."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference_check
from tard.graphs import PropGraph
from tard.nn import (
    ADAM_EPS,
    LOG_EPS,
    AdamState,
    Blocks,
    Parameter,
    adam_step,
    assert_all_finite,
    contrastive_loss,
    gcn_backward,
    gcn_forward,
    glorot,
    mean_readout,
    mean_readout_backward,
    sigmoid,
    softmax,
    softmax_cross_entropy,
)


def _graph(adj):
    """A PropGraph over ``adj``; only its propagation is used."""
    return PropGraph(adj_norm=adj, features=np.zeros((adj.shape[0], 1)))


class TestGcnForward:
    def test_identity_passthrough(self):
        ah = np.array([[1.0, -2.0], [3.0, 4.0]])
        out, _ = gcn_forward(ah, np.eye(2), activation="identity")
        npt.assert_array_equal(out, ah)

    def test_hand_product(self):
        ah = np.array([[1.0, 0.5], [3.0, -1.0]])
        w = np.array([[2.0], [4.0]])
        out, _ = gcn_forward(ah, w, activation="identity")
        npt.assert_allclose(out, [[4.0], [2.0]], atol=1e-15)

    def test_relu_clamps_negative(self):
        out, _ = gcn_forward(np.array([[-3.0]]), np.eye(1))
        npt.assert_array_equal(out, [[0.0]])

    @given(st.integers(1, 6), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_node_permutation_equivariance(self, n, seed):
        # The whole layer: propagation over the graph, then the dense half.
        rng = np.random.default_rng(seed)
        adj = rng.random((n, n))
        adj = (adj + adj.T) / 2
        h = rng.standard_normal((n, 3))
        w = rng.standard_normal((3, 2))
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        base, _ = gcn_forward(_graph(adj).propagate(h), w)
        permuted, _ = gcn_forward(_graph(p @ adj @ p.T).propagate(p @ h), w)
        npt.assert_allclose(permuted, p @ base, atol=1e-12)


class TestGcnBackward:
    def test_zero_upstream(self):
        out, cache = gcn_forward(np.ones((2, 2)), np.ones((2, 2)))
        g_ah, (gw,) = gcn_backward(cache, np.zeros_like(out))
        npt.assert_array_equal(g_ah, 0.0)
        npt.assert_array_equal(gw, 0.0)

    def test_single_node_grad_w_is_outer_product(self):
        ah = np.array([[2.0, -1.0]])
        w = np.array([[1.0, 0.5], [0.25, -2.0]])
        out, cache = gcn_forward(ah, w, activation="identity")
        upstream = np.array([[1.0, 3.0]])
        _, (gw,) = gcn_backward(cache, upstream)
        npt.assert_allclose(gw, ah.T @ upstream, atol=1e-15)

    def test_finite_difference(self, rng):
        # The whole layer: the gradient at h is propagate_back of the
        # dense half's gradient at adj @ h. The adjacency is not symmetric,
        # so a missing transpose shows.
        graph = _graph(np.array([[0.5, 0.5, 0.0], [0.25, 1 / 3, 0.0], [0.0, 0.2, 1.0]]))
        h = Parameter(rng.standard_normal((3, 4)))
        w = Parameter(rng.standard_normal((4, 2)))
        target = rng.standard_normal((3, 2))

        def loss_fn():
            out, cache = gcn_forward(graph.propagate(h.value), w.value)
            diff = out - target
            g_ah, (gw,) = gcn_backward(cache, 2.0 * diff)
            return float((diff**2).sum()), {"h": graph.propagate_back(g_ah), "w": gw}

        report = finite_difference_check(loss_fn, [("h", h), ("w", w)])
        assert report.ok, f"max rel error {report.max_rel_error}"

    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("views", [1, 2, 3])
    @pytest.mark.parametrize("d_in, d_out", [(3, 2), (16, 16)])
    @pytest.mark.parametrize("n", [1, 5, 47, 300])
    def test_views_match_separate_products(self, rng, n, d_in, d_out, views, input_grad):
        # One product with the views on a leading axis gives each view the
        # bits of its own 2-D products.
        ah = rng.standard_normal((n, views * d_in))
        w = rng.standard_normal((d_in, d_out))
        up = rng.standard_normal((n, views * d_out))
        out, cache = gcn_forward(ah, w)
        g_ah, gws = gcn_backward(cache, up, input_grad=input_grad)
        assert len(gws) == views
        assert (g_ah is None) != input_grad
        for v in range(views):
            ah_v, up_v = ah[:, v * d_in : (v + 1) * d_in], up[:, v * d_out : (v + 1) * d_out]
            z_v = ah_v @ w
            npt.assert_array_equal(out[:, v * d_out : (v + 1) * d_out], np.maximum(z_v, 0.0))
            dz_v = up_v * (z_v > 0.0)
            npt.assert_array_equal(gws[v], ah_v.T @ dz_v)
            if input_grad:
                npt.assert_array_equal(g_ah[:, v * d_in : (v + 1) * d_in], dz_v @ w.T)

    def test_rejects_width_not_matching_views(self):
        with pytest.raises(ValueError, match="whole number of views"):
            gcn_forward(np.zeros((2, 3)), np.eye(2))

    def test_no_input_grad(self, rng):
        _, cache = gcn_forward(rng.standard_normal((3, 2)), np.eye(2))
        g_ah, (gw,) = gcn_backward(cache, np.ones((3, 2)), input_grad=False)
        assert g_ah is None
        assert gw.shape == (2, 2)


class TestReadout:
    def test_mean_hand_value(self):
        npt.assert_allclose(
            mean_readout(np.array([[1.0, 2.0], [3.0, 4.0]])), [2.0, 3.0], atol=1e-15
        )

    def test_backward_spreads_one_over_n(self):
        g = mean_readout_backward(np.array([4.0, 8.0]), 4)
        npt.assert_allclose(g, np.tile([1.0, 2.0], (4, 1)), atol=1e-15)


class TestContrastiveLoss:
    def test_zero_embeddings_give_ln2(self):
        h = np.zeros((4, 3))
        loss, *_ = contrastive_loss(h, h, np.zeros(3))
        npt.assert_allclose(loss, np.log(2.0), atol=1e-9)

    def test_matches_scalar_loop(self, rng):
        h0 = rng.standard_normal((6, 4))
        h1 = rng.standard_normal((6, 4))
        g0 = rng.standard_normal(4)
        loss, *_ = contrastive_loss(h0, h1, g0)
        n = h0.shape[0]
        acc = 0.0
        for i in range(n):
            p = 1.0 / (1.0 + np.exp(-float(h0[i] @ g0)))
            q = 1.0 / (1.0 + np.exp(-float(h1[i] @ g0)))
            acc += np.log(max(p, LOG_EPS)) + np.log(max(1.0 - q, LOG_EPS))
        npt.assert_allclose(loss, -acc / (2 * n), atol=1e-12)

    def test_perfect_separation_drives_loss_to_zero(self):
        g0 = np.array([1.0, 0.0])
        h0 = np.full((3, 2), [40.0, 0.0])
        h1 = np.full((3, 2), [-40.0, 0.0])
        loss, *_ = contrastive_loss(h0, h1, g0)
        assert 0.0 <= loss < 1e-12

    @given(st.integers(1, 8), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, n, seed):
        rng = np.random.default_rng(seed)
        loss, *_ = contrastive_loss(
            rng.standard_normal((n, 3)),
            rng.standard_normal((n, 3)),
            rng.standard_normal(3),
        )
        assert loss >= 0.0

    def test_finite_difference(self, rng):
        h0 = Parameter(rng.standard_normal((5, 3)))
        h1 = Parameter(rng.standard_normal((5, 3)))
        g0 = Parameter(rng.standard_normal((3, 1)))

        def loss_fn():
            loss, gh0, gh1, gg0 = contrastive_loss(h0.value, h1.value, g0.value[:, 0])
            return loss, {"h0": gh0, "h1": gh1, "g0": gg0[:, None]}

        report = finite_difference_check(loss_fn, [("h0", h0), ("h1", h1), ("g0", g0)])
        assert report.ok, f"max rel error {report.max_rel_error}"


class TestSoftmaxCrossEntropy:
    def test_rows_sum_to_one(self, rng):
        probs = softmax(rng.standard_normal((7, 4)) * 10)
        npt.assert_allclose(probs.sum(axis=1), np.ones(7), atol=1e-12)

    def test_uniform_two_class_is_ln2(self):
        for label in (0, 1):
            loss, _ = softmax_cross_entropy(np.zeros(2), label)
            npt.assert_allclose(loss, np.log(2.0), atol=1e-12)

    def test_two_row_hand_value(self):
        # logits softmax to (0.8, 0.2) and (0.4, 0.6); labels are class 0 then 1
        logits = np.log(np.array([[0.8, 0.2], [0.4, 0.6]]))
        losses = [softmax_cross_entropy(row, label)[0] for row, label in zip(logits, (0, 1))]
        npt.assert_allclose(losses, [-np.log(0.8), -np.log(0.6)], atol=1e-12)
        npt.assert_allclose(sum(losses) / 2.0, 0.3669845875401002, atol=1e-12)

    def test_huge_margin_loss_near_zero(self):
        loss, _ = softmax_cross_entropy(np.array([500.0, -500.0]), 0)
        assert 0.0 <= loss < 1e-12

    @pytest.mark.parametrize("label", [2, -1])
    def test_rejects_label_out_of_range(self, label):
        with pytest.raises(ValueError, match="outside"):
            softmax_cross_entropy(np.zeros(2), label)

    @pytest.mark.parametrize(
        "logits, label",
        [(np.zeros(2), 0.0), (np.zeros(2), np.array([0, 1])), (np.zeros((1, 2)), 0)],
        ids=["float", "two-for-one-row", "batch-of-rows"],
    )
    def test_rejects_labels_not_one_index_per_row(self, logits, label):
        with pytest.raises(ValueError, match="label"):
            softmax_cross_entropy(logits, label)

    def test_gradient_matches_finite_difference(self, rng):
        for label in (0, 2, 1):
            logits = Parameter(rng.standard_normal(3))

            def loss_fn():
                loss, grad = softmax_cross_entropy(logits.value, label)
                return loss, {"logits": grad}

            report = finite_difference_check(loss_fn, [("logits", logits)])
            assert report.ok, f"max rel error {report.max_rel_error}"


class TestAdam:
    def test_zero_gradient_is_noop(self):
        p = Parameter(np.array([[1.0, 2.0]]))
        before = p.value.copy()
        adam_step(p, AdamState(lr=0.1))
        npt.assert_array_equal(p.value, before)

    def test_constant_gradient_two_steps(self):
        # with constant gradient g the bias-corrected update is
        # -lr * g / (|g| + eps) at every step
        g = np.array([[3.0, -0.5]])
        p = Parameter(np.zeros((1, 2)), grad=g.copy())
        state = AdamState(lr=0.01)
        adam_step(p, state)
        adam_step(p, state)
        expected = -2 * state.lr * g / (np.abs(g) + ADAM_EPS)
        npt.assert_allclose(p.value, expected, atol=1e-12)


class TestFiniteDifferenceCheck:
    def test_flags_corrupted_gradient(self, rng):
        p = Parameter(rng.standard_normal((2, 2)))

        def loss_fn():
            loss = float((p.value**2).sum())
            return loss, {"p": 2.0 * p.value + 0.25}  # deliberately wrong

        report = finite_difference_check(loss_fn, [("p", p)])
        assert not report.ok
        assert report.max_rel_error > 1e-2

    def test_accepts_exact_gradient(self, rng):
        p = Parameter(rng.standard_normal((3, 2)))

        def loss_fn():
            return float((p.value**2).sum()), {"p": 2.0 * p.value}

        report = finite_difference_check(loss_fn, [("p", p)])
        assert report.ok


def _masked_sigmoid(x):
    """The reference sigmoid: one masked pass per sign of x."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestBitIdentity:
    """The step's kernels against the straightforward formulas they replace,
    compared byte for byte."""

    def test_sigmoid_matches_masked_form(self, rng):
        special = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]
        x = np.concatenate([special, rng.standard_normal(500) * 40, rng.standard_normal(50)])
        with np.errstate(under="ignore"):
            assert sigmoid(x).tobytes() == _masked_sigmoid(x).tobytes()

    @pytest.mark.parametrize("sizes", [[40], [7, 1, 12]], ids=["one-event", "three-events"])
    def test_contrastive_parts_do_not_depend_on_each_other(self, rng, sizes):
        """Leaving out the loss or the gradients changes neither the other."""
        n, k = sum(sizes), len(sizes)
        h0, h1 = rng.standard_normal((n, 3)) * 30, rng.standard_normal((n, 3)) * 30
        g0 = rng.standard_normal((k, 3) if k > 1 else 3)
        blocks = Blocks(sizes)
        loss, *grads = contrastive_loss(h0, h1, g0, blocks)
        assert contrastive_loss(h0, h1, g0, blocks, grad=False) == (loss, None, None, None)
        no_value, *same = contrastive_loss(h0, h1, g0, blocks, value=False)
        assert no_value is None
        assert [g.tobytes() for g in same] == [g.tobytes() for g in grads]

    def test_contrastive_loss_matches_former_formula(self, rng):
        # Scores up to about +-100 saturate the sigmoid, so p = 1 and both
        # clamps occur.
        n = 40
        h0, h1 = rng.standard_normal((n, 3)) * 30, rng.standard_normal((n, 3)) * 30
        g0 = rng.standard_normal(3)
        loss, grad_h0, grad_h1, grad_g0 = contrastive_loss(h0, h1, g0)
        pq = _masked_sigmoid(np.concatenate([h0 @ g0, h1 @ g0]))
        p, q = pq[:n], pq[n:]
        pos = np.log(np.maximum(p, LOG_EPS)).sum()
        neg = np.log(np.maximum(1.0 - q, LOG_EPS)).sum()
        ds = np.where(p > LOG_EPS, -(1.0 - p) / (2.0 * n), 0.0)
        dt = np.where(1.0 - q > LOG_EPS, q / (2.0 * n), 0.0)
        assert loss == float(-(pos + neg) / (2.0 * n))
        assert grad_h0.tobytes() == (ds[:, None] * g0[None, :]).tobytes()
        assert grad_h1.tobytes() == (dt[:, None] * g0[None, :]).tobytes()
        assert grad_g0.tobytes() == (ds @ h0 + dt @ h1).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 16), (2, 3), (47, 16), (500, 32)])
    def test_mean_readout_matches_np_mean(self, rng, shape):
        h = rng.standard_normal(shape) * 1e3
        assert mean_readout(h).tobytes() == np.mean(h, axis=0).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 30.0, 500.0])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_cross_entropy_matches_softmax_form(self, rng, rows, scale):
        logits = rng.standard_normal((rows, 3)) * scale
        labels = rng.integers(0, 3, size=rows)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = softmax(logits)
        expected[np.arange(rows), labels] -= 1.0
        for row, label, log_p, want in zip(logits, labels, log_probs, expected):
            loss, grad = softmax_cross_entropy(row, label)
            assert loss == float(-log_p[label])
            assert grad.tobytes() == want.tobytes()


class TestUtilities:
    def test_sigmoid_extremes_finite(self):
        big, small, zero = sigmoid(np.array([1000.0, -1000.0, 0.0]))
        assert big == 1.0
        assert small == 0.0
        npt.assert_allclose(zero, 0.5, atol=1e-15)

    def test_sigmoid_matches_naive_in_safe_range(self, rng):
        x = rng.uniform(-20, 20, size=17)
        npt.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-12)

    def test_assert_all_finite(self):
        assert_all_finite("ok", np.ones(3))
        with pytest.raises(FloatingPointError, match="bad"):
            assert_all_finite("bad", np.array([1.0, np.inf]))

    def test_glorot_within_limit(self):
        p = glorot(np.random.default_rng(0), 30, 20)
        limit = np.sqrt(6.0 / 50)
        assert np.all(np.abs(p.value) <= limit)
        assert p.grad.shape == (30, 20)

    def test_parameter_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Parameter(np.zeros((2, 2)), grad=np.zeros((3, 2)))
