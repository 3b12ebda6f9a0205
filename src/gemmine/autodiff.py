"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The op set is exactly what fully-connected ReLU classifiers with a
softmax-cross-entropy head require, plus straight-through wrappers for
the non-differentiable masking steps used during score optimization.
Everything runs in float64 and single-threaded numpy, so repeated runs
with identical inputs are bit-identical.

No training loop builds this graph: they all call the closed-form
``masking.loss_and_grads``. The graph is the reference that the tests
check that kernel against, loss and gradients bit for bit.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "add",
    "mul",
    "scale",
    "linear",
    "relu",
    "sum_all",
    "abs_all",
    "ste_round",
    "ste_substitute",
    "softmax_cross_entropy",
    "backward",
]


class Tensor:
    """One node of the computation graph.

    Wraps a float64 ndarray together with the closure that routes the
    upstream gradient to its parents. Leaves created with
    ``requires_grad=True`` accumulate gradients in ``grad`` once
    :func:`backward` has run.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.data.shape})"


def _node(data: np.ndarray, parents: Sequence[Tensor], bwd: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = bwd
    return out


def _shape_check(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; scalars broadcast against anything."""
    if a.data.shape != () and b.data.shape != ():
        _shape_check("add", a, b)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a.accumulate(g if a.data.shape == g.shape else np.sum(g))
        if b.requires_grad or b._parents:
            b.accumulate(g if b.data.shape == g.shape else np.sum(g))

    return _node(a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors (or a scalar operand)."""
    if a.data.shape != () and b.data.shape != ():
        _shape_check("mul", a, b)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            ga = g * b.data
            a.accumulate(ga if a.data.shape == ga.shape else np.sum(ga))
        if b.requires_grad or b._parents:
            gb = g * a.data
            b.accumulate(gb if b.data.shape == gb.shape else np.sum(gb))

    return _node(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a plain python constant."""

    def bwd(g: np.ndarray) -> None:
        a.accumulate(g * factor)

    return _node(a.data * factor, (a,), bwd)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """Apply a dense layer: ``x`` is (batch, fan_in), ``w`` is (fan_out, fan_in)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ValueError(
            f"linear: incompatible shapes x={x.data.shape}, w={w.data.shape} "
            "(need x=(batch, fan_in), w=(fan_out, fan_in))"
        )

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad or x._parents:
            x.accumulate(g @ w.data)
        if w.requires_grad or w._parents:
            w.accumulate(g.T @ x.data)

    return _node(x.data @ w.data.T, (x, w), bwd)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is 0."""
    keep = x.data > 0.0

    def bwd(g: np.ndarray) -> None:
        x.accumulate(g * keep)

    return _node(np.where(keep, x.data, 0.0), (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    """Reduce to a scalar."""

    def bwd(g: np.ndarray) -> None:
        x.accumulate(np.full_like(x.data, float(g)))

    return _node(np.sum(x.data), (x,), bwd)


def abs_all(x: Tensor) -> Tensor:
    """Elementwise absolute value; subgradient at 0 is 0."""
    sgn = np.sign(x.data)

    def bwd(g: np.ndarray) -> None:
        x.accumulate(g * sgn)

    return _node(np.abs(x.data), (x,), bwd)


def ste_round(p: Tensor, threshold: float = 0.5) -> Tensor:
    """Deterministic rounding 1[p >= threshold] with a straight-through backward.

    The forward pass binarizes; the backward pass copies the upstream
    gradient unchanged, as if the rounding were the identity map.
    """

    def bwd(g: np.ndarray) -> None:
        p.accumulate(g)

    return _node((p.data >= threshold).astype(np.float64), (p,), bwd)


def ste_substitute(p: Tensor, values: np.ndarray) -> Tensor:
    """Forward an externally computed binarization of ``p``, backward identity.

    Used when the binarization is not elementwise (top-k selections,
    sampled masks): ``values`` must share ``p``'s shape.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != p.data.shape:
        raise ValueError(f"ste_substitute: values shape {values.shape} != scores shape {p.data.shape}")

    def bwd(g: np.ndarray) -> None:
        p.accumulate(g)

    return _node(values.copy(), (p,), bwd)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels.

    Computed through the log-sum-exp form so large logits cannot overflow.
    """
    y = np.asarray(labels)
    if logits.data.ndim != 2 or y.ndim != 1 or y.shape[0] != logits.data.shape[0]:
        raise ValueError(
            f"softmax_cross_entropy: logits {logits.data.shape} incompatible with labels {y.shape}"
        )
    n, k = logits.data.shape
    if np.any(y < 0) or np.any(y >= k):
        raise ValueError(f"softmax_cross_entropy: label outside [0, {k})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -np.sum(log_probs[np.arange(n), y]) / n

    def bwd(g: np.ndarray) -> None:
        # delta[label] = p[label] - 1 = -sum of the other probabilities;
        # the subtraction form underflows to 0 when p[label] rounds to 1
        delta = np.exp(log_probs)
        rows = np.arange(n)
        delta[rows, y] = 0.0
        delta[rows, y] = -np.sum(delta, axis=1)
        logits.accumulate(delta * (float(g) / n))

    return _node(np.asarray(loss), (logits,), bwd)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable leaf with d(loss)/d(leaf).

    ``loss`` must be a scalar. Each graph node's backward closure runs
    exactly once, in reverse topological order.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
