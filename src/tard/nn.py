"""Dense numeric kernel: the dense half of a GCN layer with hand-derived
gradients, mean readout, contrastive loss, softmax cross-entropy, and Adam.

Everything runs in float64. Each ``*_backward`` is the exact gradient of the
matching forward map, which the tests verify by central differences. The GCN
dense half puts its views on a leading axis, one product for all of them,
and reads their count from the shapes.

The kernels also run a batch of events in lockstep (:class:`Blocks`): the
rows of all events in one array, event k's rows in block k, and the
weights stacked one matrix per event. Every product and reduction still runs
once per event, on that event's rows and weights, so each event gets the
bits it gets alone; only elementwise work runs once over all rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, NamedTuple, Sequence

import numpy as np

Activation = Literal["relu", "identity"]

#: The row blocks of a lone array: all of its rows.
ALL_ROWS = (slice(None),)


class Blocks:
    """Consecutive row blocks, one per event of a batch, with ``sizes`` rows
    each: the unit every product and reduction runs on.

    ``spread`` turns a per-event array (K, ...) into a per-row one (N, ...).
    The per-event constants the kernels divide and scale by are made once
    here, as the same float64 values a lone event computes from its node
    count n: ``counts`` (n, as a (K, 1) column), ``two_n`` (2n, one float
    per event) and, spread to the rows, ``row_two_n`` (2n) and
    ``row_four_over_n`` (4/n, an (N, 1) column).

    ``one`` marks a single block, which the kernels take in the shapes of a
    lone event: a (d,) readout, a float loss, one product on whole arrays.
    So a batch of one makes no per-row gather and no per-block write.
    """

    __slots__ = (
        "sizes", "rows", "one", "counts", "two_n", "row_two_n", "row_four_over_n", "_event"
    )

    def __init__(self, sizes: Sequence[int]) -> None:
        self.sizes = tuple(int(n) for n in sizes)
        stops = np.cumsum(self.sizes)
        self.rows = tuple(slice(int(b) - n, int(b)) for n, b in zip(self.sizes, stops))
        self.one = len(self.sizes) == 1
        self._event = None if self.one else np.repeat(np.arange(len(sizes)), self.sizes)
        self.counts = np.array(self.sizes, dtype=np.float64)[:, None]
        self.two_n = tuple(2.0 * n for n in self.sizes)
        self.row_two_n = self.spread(2.0 * self.counts[:, 0])
        self.row_four_over_n = self.spread(4.0 / self.counts)

    def spread(self, x: np.ndarray) -> np.ndarray:
        return x if self.one else x.take(self._event, axis=0)

    def permutation(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """One ``permutation`` of each block's rows, drawn from that block's
        generator, as one permutation of all rows that keeps every block."""
        if self.one:
            return rngs[0].permutation(self.sizes[0])
        perms = [rng.permutation(n) for rng, n in zip(rngs, self.sizes)]
        return np.concatenate(perms) + self.spread(np.array([s.start for s in self.rows]))


#: Lower clamp for log arguments in the contrastive loss, so a saturated
#: node-vs-readout score yields a large finite loss instead of -inf. Gradients are
#: zero inside the clamped region.
LOG_EPS = 1e-12


def assert_all_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {name}")


@dataclass
class Parameter:
    """A trainable array and its gradient accumulator (same shape)."""

    value: np.ndarray
    grad: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        else:
            self.grad = np.asarray(self.grad, dtype=np.float64)
        if self.grad.shape != self.value.shape:
            raise ValueError(
                f"grad shape {self.grad.shape} != value shape {self.value.shape}"
            )


def glorot(rng: np.random.Generator, rows: int, cols: int) -> Parameter:
    """Glorot-uniform initialized parameter."""
    limit = np.sqrt(6.0 / (rows + cols))
    return Parameter(rng.uniform(-limit, limit, size=(rows, cols)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, without overflow for large |x|: one
    exp(-|x|), taken as ``minimum(x, -x)`` so that a NaN keeps its sign."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class GcnCache(NamedTuple):
    """Intermediates of one gcn_forward call, enough for the exact backward."""

    w: np.ndarray
    ah: np.ndarray  # the propagated input, one block per view
    z: np.ndarray  # pre-activation, block v = ah block v @ w
    activation: Activation
    rows: Sequence[slice] = ALL_ROWS  # one row block per weight matrix


def gcn_forward(
    ah: np.ndarray,
    w: np.ndarray,
    activation: Activation = "relu",
    rows: Sequence[slice] = ALL_ROWS,
) -> tuple[np.ndarray, GcnCache]:
    """The dense half of one graph convolution: act(ah @ w), for every view
    at once.

    ``ah`` is the layer input already propagated over the graph
    (``PropGraph.propagate``). It holds the views side by side,
    ``w.shape[-2]`` columns each, and so does the output; the view count is
    its width over ``w.shape[-2]``. The views go on a leading axis of one
    product, which gives each view the bits of its own 2-D ``@``. ``w`` is
    one matrix, or a (K, r, c) stack whose matrix k multiplies row block
    ``rows[k]``, one product per block written into the block's rows.
    """
    n, (d, d_out) = ah.shape[0], w.shape[-2:]
    if ah.shape[1] % d:
        raise ValueError(f"input {ah.shape} is not a whole number of views of w {w.shape}")
    views = ah.shape[1] // d
    if len(rows) == 1:  # one block: one product on the whole arrays
        wk = w if w.ndim == 2 else w[0]
        if views == 1:  # one view stays 2-D: the same product in fewer calls
            z = ah @ wk
        else:
            z = (ah.reshape(n, views, d).swapaxes(0, 1) @ wk).swapaxes(0, 1).reshape(n, -1)
    else:  # one product per block, written into the block's rows
        z = np.empty((n, views * d_out))
        a, into = ah, z
        if views > 1:  # the views on a leading axis, once for every block
            a = ah.reshape(n, views, d).swapaxes(0, 1)
            into = z.reshape(n, views, d_out).swapaxes(0, 1)
        for s, wk in zip(rows, w):
            np.matmul(a[..., s, :], wk, out=into[..., s, :])
    if activation == "relu":
        out = np.maximum(z, 0.0)
    elif activation == "identity":
        out = z
    else:
        raise ValueError(f"unknown activation {activation!r}")
    return out, GcnCache(w=w, ah=ah, z=z, activation=activation, rows=rows)


def gcn_backward(
    cache: GcnCache, upstream: np.ndarray, *, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of gcn_forward w.r.t. ``ah`` and w.

    Returns (grad_ah, grad_ws). grad_ws stacks one grad_w per view, in view
    order, for the caller to accumulate one by one; each has w's shape, a
    stack for stacked weights. grad_ah holds the views side by side, and is
    None when ``input_grad`` is false. Each is one product per row block
    with the views on a leading axis, their count read from the shapes. The
    caller carries grad_ah back through the graph (``PropGraph.propagate_back``).
    """
    if upstream.shape != cache.z.shape:
        raise ValueError(f"upstream {upstream.shape} does not match output {cache.z.shape}")
    dz = upstream * (cache.z > 0.0) if cache.activation == "relu" else upstream
    w, rows = cache.w, cache.rows
    n, (d_in, d_out) = dz.shape[0], w.shape[-2:]
    views = dz.shape[1] // d_out
    if len(rows) == 1:  # one block: one product on the whole arrays
        wk = w if w.ndim == 2 else w[0]
        if views == 1:  # one view stays 2-D: the same product in fewer calls
            grad_ws = (cache.ah.T @ dz)[None]
            return (dz @ wk.T if input_grad else None), grad_ws
        dz = dz.reshape(n, views, d_out).swapaxes(0, 1)
        grad_ws = cache.ah.reshape(n, views, d_in).transpose(1, 2, 0) @ dz
        if not input_grad:
            return None, grad_ws
        return (dz @ wk.T).swapaxes(0, 1).reshape(n, -1), grad_ws
    # One product per block, written into its rows and its grad_w slots; the
    # views go on a leading axis once for every block.
    grad_ws = np.empty((views,) + w.shape)
    grad_ah = np.empty((n, views * d_in)) if input_grad else None
    dz = dz.reshape(n, views, d_out).swapaxes(0, 1)
    ah_t = cache.ah.reshape(n, views, d_in).transpose(1, 2, 0)
    into = grad_ah.reshape(n, views, d_in).swapaxes(0, 1) if input_grad else None
    for s, wk, gw in zip(rows, w, grad_ws.swapaxes(0, 1)):
        np.matmul(ah_t[..., s], dz[:, s], out=gw)
        if input_grad:
            np.matmul(dz[:, s], wk.T, out=into[:, s])
    return grad_ah, grad_ws


def mean_readout(h: np.ndarray, blocks: Blocks | None = None) -> np.ndarray:
    """Column-wise mean of node embeddings: the global graph representation
    (``h.mean(axis=0)``'s sum and division, without its Python wrapper).
    With ``blocks`` of more than one block, the mean of each block's rows,
    as a (K, d) array."""
    if blocks is None or blocks.one:
        return np.add.reduce(h, axis=0) / h.shape[0]
    sums = np.empty((len(blocks.rows), h.shape[1]))
    for s, out in zip(blocks.rows, sums):
        np.add.reduce(h[s], axis=0, out=out)
    return sums / blocks.counts


def mean_readout_backward(grad_out: np.ndarray, num_nodes: int) -> np.ndarray:
    """Gradient of mean_readout: 1/N of the upstream vector to every row."""
    grad = np.empty((num_nodes, grad_out.shape[0]))
    grad[...] = grad_out / num_nodes
    return grad


def contrastive_loss(
    h0: np.ndarray,
    h1: np.ndarray,
    g0: np.ndarray,
    blocks: Blocks | None = None,
    *,
    value: bool = True,
    grad: bool = True,
) -> tuple[float | None, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Node-vs-readout contrastive loss over an original and a corrupted view.

    loss = -(1/2N) sum_i [log D(h0_i, g0) + log(1 - D(h1_i, g0))]
    with D(h, g) = sigmoid(h . g) and log arguments clamped
    below at LOG_EPS. Returns (loss, grad_h0, grad_h1, grad_g0); g0 is
    treated as an independent input here (callers chain it to h0 themselves).
    With ``blocks`` of K > 1 events, each block is one event with its own
    readout row of the (K, d) ``g0``; the loss is then a list and grad_g0 a
    (K, d) array, one entry per event. Without ``value`` the loss is None
    and none of its logs or sums is taken; without ``grad`` the gradients
    are None and none of them is computed. Each part has the same bits
    either way.
    """
    if h0.shape != h1.shape:
        raise ValueError(f"view shapes differ: {h0.shape} vs {h1.shape}")
    if h0.shape[1] != g0.shape[-1]:
        raise ValueError(f"g0 length {g0.shape} does not match {h0.shape}")
    n = h0.shape[0]
    one = blocks is None or blocks.one
    # One sigmoid over both views: positive-pair scores, then negative-pair.
    if one:
        pq = np.concatenate([h0 @ g0, h1 @ g0])
        g_rows, two_n = g0, 2.0 * n
    else:
        pq = np.empty(2 * n)
        for s, g in zip(blocks.rows, g0):
            np.matmul(h0[s], g, out=pq[s])
            np.matmul(h1[s], g, out=pq[n:][s])
        g_rows, two_n = blocks.spread(g0), blocks.row_two_n
    pq = sigmoid(pq)
    p, q = pq[:n], pq[n:]
    not_q = 1.0 - q
    loss = None
    if value:
        log_pos = np.log(np.maximum(p, LOG_EPS))
        log_neg = np.log(np.maximum(not_q, LOG_EPS))
        if one:
            loss = float(-(np.add.reduce(log_pos) + np.add.reduce(log_neg)) / two_n)
        else:
            loss = [
                float(-(np.add.reduce(log_pos[s]) + np.add.reduce(log_neg[s])) / t)
                for s, t in zip(blocks.rows, blocks.two_n)
            ]
    if not grad:
        return loss, None, None, None
    # d/ds log(sigmoid(s)) = 1 - p ; d/dt log(1 - sigmoid(t)) = -q,
    # zeroed where the clamp is active.
    ds = np.where(p > LOG_EPS, (1.0 - p) / -two_n, 0.0)
    dt = np.where(not_q > LOG_EPS, q / two_n, 0.0)
    grad_h0 = ds[:, None] * g_rows
    grad_h1 = dt[:, None] * g_rows
    if one:
        return loss, grad_h0, grad_h1, ds @ h0 + dt @ h1
    grads = np.empty((2,) + g0.shape)
    for s, a, b in zip(blocks.rows, *grads):
        np.matmul(ds[s], h0[s], out=a)
        np.matmul(dt[s], h1[s], out=b)
    return loss, grad_h0, grad_h1, np.add(*grads)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of softmax(logits) against one integer class label.

    ``logits`` is one (classes,) vector. The log-probability comes from the
    max-subtracted log-sum-exp form, so the loss stays finite for any finite
    logits. Returns (loss, grad_logits).
    """
    if logits.ndim != 1 or isinstance(label, bool) or not isinstance(label, (int, np.integer)):
        raise ValueError(f"label {label!r} is not one class index for logits {logits.shape}")
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} outside [0, {logits.shape[0]})")
    shifted = logits - logits.max()
    e = np.exp(shifted)
    total = e.sum()
    loss = -(shifted[label] - np.log(total))
    grad = e / total  # softmax(logits), bit for bit
    grad[label] -= 1.0
    return float(loss), grad


#: Adam's moment decay rates and denominator floor, the same for every run.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's learning rate and the moments of the one parameter it steps."""

    lr: float = 5e-3
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(p: Parameter, state: AdamState) -> None:
    """One bias-corrected Adam update of ``p``, in place. It is elementwise, so
    one update of a span of the parameter buffer has the bits of updating
    each matrix in it apart."""
    if state.m is None:
        state.m, state.v = np.zeros_like(p.value), np.zeros_like(p.value)
    state.step_count += 1
    bc1 = 1.0 - ADAM_BETA1**state.step_count
    bc2 = 1.0 - ADAM_BETA2**state.step_count
    m, v, g = state.m, state.v, p.grad
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    p.value -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
