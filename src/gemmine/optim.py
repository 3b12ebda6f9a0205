"""Plain-array optimizers shared by score mining and weight training."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
        for p, g, buf in zip(params, grads, self.buffers):
            buf *= self.momentum
            buf += g
            p -= lr * buf


class _AdamState:
    def __init__(self, spec: Adam, params: Sequence[np.ndarray]):
        self.spec = spec
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray], lr: float) -> None:
        b1, b2, eps = self.spec.beta1, self.spec.beta2, self.spec.eps
        self.t += 1
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


def make_optimizer(choice: OptimizerChoice, params: Sequence[np.ndarray]):
    if isinstance(choice, SgdMomentum):
        return _SgdState(choice, params)
    if isinstance(choice, Adam):
        return _AdamState(choice, params)
    raise ValueError(f"unknown optimizer choice {choice!r}")


def parse_optimizer(text: str) -> OptimizerChoice:
    """Parse config strings like ``sgd``, ``sgd:0.9``, ``adam:0.9,0.999,1e-8``.

    The arguments fill the optimizer's fields in order; the rest keep their defaults.
    """
    head, _, args = text.strip().partition(":")
    head = head.lower()
    if head == "sgd":
        kind = SgdMomentum
    elif head == "adam":
        kind = Adam
    else:
        raise ValueError(f"unknown optimizer {text!r}")
    values = [float(x) for x in args.split(",")] if args else []
    names = [f.name for f in fields(kind)]
    if len(values) > len(names):
        raise ValueError(f"{head} takes only {', '.join(names)}, got {len(values)} values")
    return kind(**dict(zip(names, values)))
