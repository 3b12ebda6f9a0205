"""Plain-array optimizers shared by score mining and weight training.

A step updates the parameters in place and consumes its gradients: it
writes its temporaries into them, so every caller hands in fresh gradient
arrays and drops them after the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np


@dataclass(frozen=True)
class SgdMomentum:
    momentum: float = 0.9

    def __post_init__(self):
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"sgd momentum must be in [0, 1), got {self.momentum}")


@dataclass(frozen=True)
class Adam:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"adam betas must be in [0, 1), got {self.beta1}, {self.beta2}")
        if not self.eps > 0.0:
            raise ValueError(f"adam eps must be > 0, got {self.eps}")
        if not math.isfinite(self.eps):
            raise ValueError(f"adam eps must be finite, got {self.eps}")


OptimizerChoice = Union[SgdMomentum, Adam]


class _SgdState:
    def __init__(self, spec: SgdMomentum, params: Sequence[np.ndarray]):
        self.momentum = spec.momentum
        self.buffers = [np.zeros_like(p) for p in params]

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray], lr: float) -> None:
        """``buf = momentum * buf + g; p -= lr * buf``, in place.

        Consumes ``grads``: each is overwritten with its step ``buf * lr``
        (the bits of ``lr * buf``), so a step allocates no parameter-sized array.
        """
        for p, g, buf in zip(params, grads, self.buffers):
            buf *= self.momentum
            buf += g
            p -= np.multiply(buf, lr, out=g)


class _AdamState:
    def __init__(self, spec: Adam, params: Sequence[np.ndarray]):
        self.spec = spec
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.scratch = [np.empty_like(p) for p in params]
        self.t = 0

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray], lr: float) -> None:
        """One bias-corrected Adam step, in place.

        ``m = b1 * m + (1 - b1) * g``, ``v = b2 * v + (1 - b2) * g * g`` and
        ``p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)``, each product and
        quotient in that order, so the bits are those of the expressions.
        Consumes ``grads``: the temporaries go into each spent gradient and one
        scratch array per parameter, so a step allocates no parameter-sized array.
        """
        b1, b2, eps = self.spec.beta1, self.spec.beta2, self.spec.eps
        self.t += 1
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, g, m, v, s in zip(params, grads, self.m, self.v, self.scratch):
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v *= b2
            v += s
            g *= 1.0 - b1
            m *= b1
            m += g
            np.divide(m, bias1, out=g)
            g *= lr
            np.divide(v, bias2, out=s)
            np.sqrt(s, out=s)
            s += eps
            g /= s
            p -= g


def make_optimizer(choice: OptimizerChoice, params: Sequence[np.ndarray]):
    if isinstance(choice, SgdMomentum):
        return _SgdState(choice, params)
    if isinstance(choice, Adam):
        return _AdamState(choice, params)
    raise ValueError(f"unknown optimizer choice {choice!r}")
