"""Dense numeric kernel: the dense half of a GCN layer with hand-derived
gradients, mean readout, contrastive loss, softmax cross-entropy, and Adam.

Everything runs in float64. Each ``*_backward`` is the exact gradient of the
matching forward map, which the tests verify by central differences. The GCN
dense half puts its views on a leading axis, one product for all of them,
and reads their count from the shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

Activation = Literal["relu", "identity"]

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


def gcn_forward(
    ah: np.ndarray, w: np.ndarray, activation: Activation = "relu"
) -> tuple[np.ndarray, GcnCache]:
    """The dense half of one graph convolution: act(ah @ w), for every view
    at once.

    ``ah`` is the layer input already propagated over the graph
    (``PropGraph.propagate``). It holds the views side by side,
    ``w.shape[0]`` columns each, and so does the output; the view count is
    its width over ``w.shape[0]``. The views go on a leading axis of one
    product, which gives each view the bits of its own 2-D ``@``.
    """
    n, d = ah.shape[0], w.shape[0]
    if ah.shape[1] % d:
        raise ValueError(f"input {ah.shape} is not a whole number of views of w {w.shape}")
    z = (ah.reshape(n, -1, d).swapaxes(0, 1) @ w).swapaxes(0, 1).reshape(n, -1)
    if activation == "relu":
        out = np.maximum(z, 0.0)
    elif activation == "identity":
        out = z
    else:
        raise ValueError(f"unknown activation {activation!r}")
    return out, GcnCache(w=w, ah=ah, z=z, activation=activation)


def gcn_backward(
    cache: GcnCache, upstream: np.ndarray, *, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of gcn_forward w.r.t. ``ah`` and w.

    Returns (grad_ah, grad_ws). grad_ws stacks one grad_w per view, in view
    order, for the caller to accumulate one by one; grad_ah holds the views
    side by side, and is None when ``input_grad`` is false. Each is one
    product with the views on a leading axis, their count read from the
    shapes. The caller carries grad_ah back through the graph
    (``PropGraph.propagate_back``).
    """
    if upstream.shape != cache.z.shape:
        raise ValueError(f"upstream {upstream.shape} does not match output {cache.z.shape}")
    dz = upstream * (cache.z > 0.0) if cache.activation == "relu" else upstream
    n, (d_in, d_out) = dz.shape[0], cache.w.shape
    dz = dz.reshape(n, -1, d_out).swapaxes(0, 1)
    grad_ws = cache.ah.reshape(n, -1, d_in).transpose(1, 2, 0) @ dz
    if not input_grad:
        return None, grad_ws
    return (dz @ cache.w.T).swapaxes(0, 1).reshape(n, -1), grad_ws


def mean_readout(h: np.ndarray) -> np.ndarray:
    """Column-wise mean of node embeddings: the global graph representation
    (``h.mean(axis=0)``'s sum and division, without its Python wrapper)."""
    return np.add.reduce(h, axis=0) / h.shape[0]


def mean_readout_backward(grad_out: np.ndarray, num_nodes: int) -> np.ndarray:
    """Gradient of mean_readout: 1/N of the upstream vector to every row."""
    grad = np.empty((num_nodes, grad_out.shape[0]))
    grad[...] = grad_out / num_nodes
    return grad


def contrastive_loss(
    h0: np.ndarray, h1: np.ndarray, g0: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Node-vs-readout contrastive loss over an original and a corrupted view.

    loss = -(1/2N) sum_i [log D(h0_i, g0) + log(1 - D(h1_i, g0))]
    with D(h, g) = sigmoid(h . g) and log arguments clamped
    below at LOG_EPS. Returns (loss, grad_h0, grad_h1, grad_g0); g0 is
    treated as an independent input here (callers chain it to h0 themselves).
    """
    if h0.shape != h1.shape:
        raise ValueError(f"view shapes differ: {h0.shape} vs {h1.shape}")
    if h0.shape[1] != g0.shape[0]:
        raise ValueError(f"g0 length {g0.shape} does not match {h0.shape}")
    n = h0.shape[0]
    # One sigmoid over both views: positive-pair scores, then negative-pair.
    pq = sigmoid(np.concatenate([h0 @ g0, h1 @ g0]))
    p, q = pq[:n], pq[n:]
    not_q = 1.0 - q
    pos_arg = np.maximum(p, LOG_EPS)
    neg_arg = np.maximum(not_q, LOG_EPS)
    loss = -(np.log(pos_arg).sum() + np.log(neg_arg).sum()) / (2.0 * n)
    # d/ds log(sigmoid(s)) = 1 - p ; d/dt log(1 - sigmoid(t)) = -q,
    # zeroed where the clamp is active.
    ds = np.where(p > LOG_EPS, (1.0 - p) / -(2.0 * n), 0.0)
    dt = np.where(not_q > LOG_EPS, q / (2.0 * n), 0.0)
    grad_h0 = ds[:, None] * g0
    grad_h1 = dt[:, None] * g0
    grad_g0 = ds @ h0 + dt @ h1
    return float(loss), grad_h0, grad_h1, grad_g0


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of row-softmax(logits) against integer class labels.

    ``logits`` is (batch, classes) and ``labels`` holds one class index per
    row. Log-probabilities come from the max-subtracted log-sum-exp form, so
    the loss stays finite for any finite logits. Returns (loss, grad_logits).
    """
    b, c = logits.shape
    if labels.shape != (b,) or labels.dtype.kind not in "iu":
        raise ValueError(f"labels {labels.shape} {labels.dtype} vs logits {logits.shape}")
    if not ((labels >= 0) & (labels < c)).all():
        raise ValueError(f"labels {labels.tolist()} outside [0, {c})")
    rows = np.arange(b)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = -(shifted - np.log(total))[rows, labels].sum() / b
    grad = e / total  # softmax(logits), bit for bit
    grad[rows, labels] -= 1.0
    return float(loss), grad / b


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
