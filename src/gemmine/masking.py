"""Masked-network representation shared by every miner.

A network is a list of :class:`MaskedLayer` values: fixed weights and the
binary mask applied to them. A Gem-Miner layer also keeps the [0, 1]
scores its mask was rounded from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor, linear, relu

SIGNED_CONSTANT = "signed_constant"
SCALED_NORMAL = "scaled_normal"
INIT_SCHEMES = (SIGNED_CONSTANT, SCALED_NORMAL)

# rng stream tags, so one run seed yields independent deterministic streams
STREAM_WEIGHTS = 11
STREAM_SCORES = 12
STREAM_BATCHES = 13
STREAM_SAMPLING = 14


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, int(seed)])


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths of a fully-connected ReLU network, input first."""

    widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 3:
            raise ValueError(f"NetworkSpec needs at least one hidden layer, got widths {self.widths}")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"NetworkSpec widths must be positive, got {self.widths}")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def layer_shapes(self) -> list[tuple[int, int]]:
        return [(self.widths[i + 1], self.widths[i]) for i in range(self.n_layers)]

    @property
    def total_params(self) -> int:
        return sum(o * i for o, i in self.layer_shapes)


@dataclass
class MaskedLayer:
    """One layer: weights (fan_out, fan_in), a mask in {0,1}, optional scores.

    A mask bit of 1 needs a score >= 0.5 where scores are given, so the
    checkpoint reader's ``round(scores) * bitset`` gives the mask back.
    """

    weights: np.ndarray
    mask: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        shapes = [a.shape for a in (self.weights, self.mask, self.scores) if a is not None]
        if len(set(shapes)) != 1:
            raise ValueError(f"MaskedLayer fields must share one shape, got {'/'.join(map(str, shapes))}")
        if self.scores is not None and np.any((self.mask != 0.0) & ~(self.scores >= 0.5)):
            raise ValueError("MaskedLayer mask keeps a weight whose score is below 0.5")


Mask = list[np.ndarray]


def select_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k smallest entries of a 1-D array.

    Selects the same set as ``np.argsort(values, kind="stable")[:k]``
    without a full sort: ``np.partition`` finds the k-th value, everything
    below it is kept, and the places left go to the entries equal to it
    with the lowest index. As in the sort, -0.0 ties with +0.0 and NaN
    ranks above +inf, its ties broken by lowest index too.
    """
    n = values.size
    if k <= 0 or k >= n:
        return np.full(n, k > 0)
    kth = np.partition(values, k - 1)[k - 1]
    if kth != kth:  # NaN: every number is below it, every NaN ties with it
        tied = np.isnan(values)
        chosen = ~tied
    else:
        tied = values == kth
        chosen = values < kth
    chosen[np.flatnonzero(tied)[: k - int(np.count_nonzero(chosen))]] = True
    return chosen


def select_smallest_across(values: Sequence[np.ndarray], k: int) -> list[np.ndarray]:
    """Boolean masks, one per array of ``values`` and of its shape, of the k smallest entries of them all.

    This is the one statement of the cross-layer tie order: the arrays are
    ranked as one, equal values chosen from the earlier array first, then
    by lower flat index (``select_smallest`` on their concatenation).
    Callers exclude entries by passing them as +inf, which no finite value
    ties with, so while k is at most the number of finite entries none is chosen.
    """
    chosen = select_smallest(np.concatenate([v.reshape(-1) for v in values]), k)
    bounds = np.cumsum([v.size for v in values])[:-1]
    return [part.reshape(v.shape) for part, v in zip(np.split(chosen, bounds), values)]


class SmallestSelector:
    """``select_smallest_across`` for values that move little from one call to the next.

    It keeps a window [lo, hi] of values around the last call's k-th
    smallest, about ``MARGIN`` ranks to each side. Two counts show exactly
    whether this call's k-th smallest lies in it: fewer than k entries are
    below lo, and at least k are at most hi. Then every entry below lo is
    chosen, and ``select_smallest`` picks the rest among the entries inside
    the window, taken in (array, flat index) order, so ties fall as in
    ``select_smallest_across``; otherwise that full partition runs. NaN is
    inside no window and -0.0 compares equal to +0.0 on both sides, so the
    chosen set is the same for any values and any k. A k of at most 0 or at
    least the entry count chooses none or all without a partition.
    ``window_calls`` counts the window path, ``fallback_calls`` the others.
    """

    MARGIN = 256

    def __init__(self):
        self.window: tuple[float, float] | None = None
        self.window_calls = 0
        self.fallback_calls = 0

    def __call__(self, values: Sequence[np.ndarray], k: int) -> list[np.ndarray]:
        n = sum(v.size for v in values)
        if not 0 < k < n:
            self.fallback_calls += 1
            self.window = None
            return [np.full(v.shape, k > 0) for v in values]
        if self.window is not None:
            lo, hi = self.window
            below = [v < lo for v in values]
            n_below = sum(int(np.count_nonzero(b)) for b in below)
            upto = [v <= hi for v in values]
            if n_below < k <= sum(int(np.count_nonzero(u)) for u in upto):
                # lo <= hi, so the entries below lo are among those at most hi
                inside = [np.flatnonzero(np.logical_xor(u, b, out=u)) for u, b in zip(upto, below)]
                candidates = np.concatenate([v.reshape(-1)[i] for v, i in zip(values, inside)])
                rest = k - n_below
                chosen = select_smallest(candidates, rest)
                start = 0
                for b, i in zip(below, inside):
                    b.reshape(-1)[i[chosen[start : start + i.size]]] = True
                    start += i.size
                self._recentre(candidates, rest)
                self.window_calls += 1
                return below
        self.fallback_calls += 1
        chosen = select_smallest_across(values, k)
        self.window = None  # the new window keeps no bound of the old one
        self._recentre(np.concatenate([v.reshape(-1) for v in values]), k)
        return chosen

    def _recentre(self, values: np.ndarray, k: int) -> None:
        """Window ``values``' k-th smallest and ``MARGIN`` ranks to each side; a side with fewer keeps its old bound."""
        lo_rank, hi_rank = k - 1 - self.MARGIN, k - 1 + self.MARGIN
        ranks = [max(lo_rank, 0), min(hi_rank, values.size - 1)]
        lo, hi = np.partition(values, ranks)[ranks]
        if self.window is not None:
            lo = lo if lo_rank >= 0 else self.window[0]
            hi = hi if hi_rank < values.size else self.window[1]
        if hi != hi:  # NaN: the window runs to the largest number
            hi = np.inf
        self.window = (lo, hi) if lo == lo else None


def round_scores(scores: np.ndarray) -> np.ndarray:
    """Deterministic rounding: 1 exactly where score >= 0.5."""
    return (np.asarray(scores, dtype=np.float64) >= 0.5).astype(np.float64)


def extract_mask(layers: Sequence[MaskedLayer]) -> Mask:
    return [layer.mask for layer in layers]


def mask_sparsity(mask: Sequence[np.ndarray]) -> float:
    if len(mask) == 0:
        raise ValueError("mask_sparsity: empty mask")
    return sum(int(np.sum(m)) for m in mask) / sum(m.size for m in mask)


def layer_stddev(fan_in: int) -> float:
    # fan-in scaled magnitude used by both init schemes
    return float(np.sqrt(2.0 / fan_in))


def init_weights(spec: NetworkSpec, scheme: str, seed: int) -> list[np.ndarray]:
    """Draw per-layer weights.

    ``signed_constant``: every entry is +/- sqrt(2 / fan_in), sign uniform.
    ``scaled_normal``: zero-mean normal with the same per-layer stddev.
    """
    if scheme not in INIT_SCHEMES:
        raise ValueError(f"unknown init scheme {scheme!r}, expected one of {INIT_SCHEMES}")
    rng = stream_rng(seed, STREAM_WEIGHTS)
    out = []
    for fan_out, fan_in in spec.layer_shapes:
        sigma = layer_stddev(fan_in)
        if scheme == SIGNED_CONSTANT:
            signs = rng.integers(0, 2, size=(fan_out, fan_in)).astype(np.float64) * 2.0 - 1.0
            out.append(signs * sigma)
        else:
            out.append(rng.normal(0.0, sigma, size=(fan_out, fan_in)))
    return out


def init_scores(spec: NetworkSpec, seed: int) -> list[np.ndarray]:
    """Scores i.i.d. uniform on [0, 1], one tensor per layer."""
    rng = stream_rng(seed, STREAM_SCORES)
    return [rng.random(size=(fan_out, fan_in)) for fan_out, fan_in in spec.layer_shapes]


def mlp_forward(x: Tensor, layer_weights: Sequence[Tensor]) -> Tensor:
    """Logits of the ReLU MLP defined by per-layer weight tensors."""
    out = x
    last = len(layer_weights) - 1
    for i, w in enumerate(layer_weights):
        out = linear(out, w)
        if i != last:
            out = relu(out)
    return out


def mlp_activations(features: np.ndarray, layer_weights: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Graph-free forward pass: the input, each hidden ReLU output, then the logits."""
    acts = [np.asarray(features, dtype=np.float64)]
    last = len(layer_weights) - 1
    for i, w in enumerate(layer_weights):
        out = acts[-1] @ w.T
        acts.append(out if i == last else np.where(out > 0.0, out, 0.0))
    return acts


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax through the log-sum-exp form, so large logits cannot overflow."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def loss_and_grads(features: np.ndarray, labels: np.ndarray, layer_weights: Sequence[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """Mean softmax cross-entropy of the ReLU MLP and its gradient for each layer's weights.

    A closed-form backward over the kept activations, doing the autodiff
    graph's float64 operations in its order, so the results equal its bit for bit.
    """
    acts = mlp_activations(features, layer_weights)
    y = np.asarray(labels)
    n, k = acts[-1].shape
    if y.shape != (n,):
        raise ValueError(f"loss_and_grads: logits {acts[-1].shape} incompatible with labels {y.shape}")
    if np.any(y < 0) or np.any(y >= k):
        raise ValueError(f"loss_and_grads: label outside [0, {k})")
    log_probs = log_softmax(acts[-1])
    rows = np.arange(n)
    loss = -np.sum(log_probs[rows, y]) / n
    # delta[label] = p[label] - 1 = -sum of the other probabilities;
    # the subtraction form underflows to 0 when p[label] rounds to 1
    delta = np.exp(log_probs)
    delta[rows, y] = 0.0
    delta[rows, y] = -np.sum(delta, axis=1)
    g = delta * (1.0 / n)
    grads = [g.T @ acts[-2]]
    for i in range(len(layer_weights) - 1, 0, -1):
        # ReLU backward: acts[i] > 0 exactly where its pre-activation was
        g = (g @ layer_weights[i]) * (acts[i] > 0.0)
        grads.append(g.T @ acts[i - 1])
    grads.reverse()
    return float(loss), grads
