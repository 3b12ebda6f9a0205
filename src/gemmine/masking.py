"""Masked-network representation shared by every miner.

A network is a list of :class:`MaskedLayer` values: fixed weights and the
boolean mask applied to them. A mined layer also keeps the scores that the
``invert`` sanity variant ranks: Gem-Miner's [0, 1] scores, edge-popup's
unconstrained scores and the magnitudes of IMP's trained weights. A
smart-ratio layer, and a sanity variant's, keeps none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .autodiff import Tensor, linear, relu
from .data import float_features

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


def as_mask(m) -> np.ndarray:
    """``m`` as a boolean mask: booleans pass through, 0/1 numbers convert, anything else raises ``ValueError``."""
    m = np.asarray(m)
    if m.dtype != bool and not np.all((m == 0) | (m == 1)):
        raise ValueError("mask entries must be 0 or 1")
    return m.astype(bool, copy=False)


@dataclass
class MaskedLayer:
    """One layer: dense weights (fan_out, fan_in), a boolean mask (``as_mask``) over them, and the scores ``invert`` ranks, if any.

    The layer's network is ``weights * mask``. The scores are a miner's
    per-weight importances, of any sign and size; the mask alone says which
    weights are kept.
    """

    weights: np.ndarray
    mask: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        self.mask = as_mask(self.mask)
        shapes = [a.shape for a in (self.weights, self.mask, self.scores) if a is not None]
        if len(set(shapes)) != 1:
            raise ValueError(f"MaskedLayer fields must share one shape, got {'/'.join(map(str, shapes))}")


def select_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k smallest entries of a 1-D array.

    Selects the same set as ``np.argsort(values, kind="stable")[:k]``
    without a full sort: a partitioned copy finds the k-th value, everything
    below it is kept, and the places left go to the entries equal to it
    with the lowest index. As in the sort, -0.0 ties with +0.0 and NaN
    ranks above +inf, its ties broken by lowest index too.
    """
    n = values.size
    if k <= 0 or k >= n:
        return np.full(n, k > 0)
    part = values.copy()
    part.partition(k - 1)
    kth = part[k - 1]
    del part  # freed before the two comparisons below allocate theirs
    if kth != kth:  # NaN: every number is below it, every NaN ties with it
        tied = np.isnan(values)
        chosen = ~tied
    else:
        tied = values == kth
        chosen = values < kth
    chosen[tied.nonzero()[0][: k - int(np.count_nonzero(chosen))]] = True
    return chosen


def select_smallest_across(
    values: Iterable[np.ndarray], k: int, eligible: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Boolean masks, one per array of ``values`` and of its shape, of the k smallest eligible entries of them all.

    This is the one statement of the cross-layer tie order: the arrays are
    ranked as one, equal values chosen from the earlier array first, then
    by lower flat index (``select_smallest`` on their concatenation).
    ``eligible``, one mask per array that is nonzero where an entry may be
    chosen, limits the ranking to those entries, in that order.
    ``values`` is read once, an array at a time, so it may be a generator
    that makes each array as it is needed: the eligible entries are copied
    into one vector and each array is freed before the next is made.
    """
    counts = [int(np.count_nonzero(e)) for e in eligible]
    ranked = np.empty(sum(counts))
    start = 0
    for v, e, n in zip(values, eligible, counts, strict=True):
        # "clip": the positions are in range, and take buffers ``out`` in its default mode
        v.reshape(-1).take(e.reshape(-1).nonzero()[0], out=ranked[start : start + n], mode="clip")
        start += n
    chosen = select_smallest(ranked, k)
    del ranked  # freed before the masks below are made
    hits = [np.zeros(e.shape, dtype=bool) for e in eligible]
    start = 0
    for hit, e, n in zip(hits, eligible, counts):
        # the positions again, not kept from the gather: kept, they would sit beside the partitioned copy
        positions = e.reshape(-1).nonzero()[0]
        hit.reshape(-1)[positions.take(chosen[start : start + n].nonzero()[0])] = True
        start += n
    return hits


def _split_like(flat: np.ndarray, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """``flat`` cut into consecutive views, one per array of ``arrays`` and of its shape."""
    out, start = [], 0
    for a in arrays:
        out.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return out


class LargestSelector:
    """The k largest entries of values that move little from one call to the next.

    Equal values are chosen lowest (array, flat index) first: a call is
    exactly ``select_smallest_across`` on the negated values, but only the
    few values near the threshold are negated. It keeps a window [lo, hi]
    of negated values around the last call's threshold, about ``MARGIN``
    ranks to each side. Two counts show exactly whether this call's
    threshold lies in it: fewer than k entries are above -lo, and at least
    k are at least -hi. Then every entry above -lo is chosen, and
    ``select_smallest`` picks the rest among the negated entries inside the
    window, taken in (array, flat index) order, so ties fall as in
    ``select_smallest_across``. Otherwise ``select_smallest`` runs on one
    negated copy of all the values, concatenated in that order, and the
    same copy, partitioned in place, gives the new window. Either way the
    window's bounds are two order statistics, each found by a partition at
    one rank. ``v > -lo`` is ``-v < lo``, and ``v >= -hi`` is
    ``-v <= hi``, for every float. NaN is inside no window and -0.0 compares
    equal to +0.0 on both sides, so the chosen set is the same for any
    values and any k. A k of at most 0 or at least the entry count chooses
    none or all without a partition. ``window_calls`` counts the window
    path, ``fallback_calls`` the others.
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
            above = [v > -lo for v in values]
            n_above = sum(int(np.count_nonzero(a)) for a in above)
            atleast = [v >= -hi for v in values]
            if n_above < k <= sum(int(np.count_nonzero(a)) for a in atleast):
                # lo <= hi, so the entries above -lo are among those at least -hi
                inside = [np.logical_xor(a, b, out=a).reshape(-1).nonzero()[0] for a, b in zip(atleast, above)]
                candidates = np.concatenate([v.reshape(-1)[i] for v, i in zip(values, inside)])
                np.negative(candidates, out=candidates)
                rest = k - n_above
                chosen = select_smallest(candidates, rest)
                start = 0
                for a, i in zip(above, inside):
                    a.reshape(-1)[i[chosen[start : start + i.size]]] = True
                    start += i.size
                self._recentre(candidates, rest)
                self.window_calls += 1
                return above
        self.fallback_calls += 1
        negated = np.concatenate([v.reshape(-1) for v in values])
        np.negative(negated, out=negated)
        chosen = select_smallest(negated, k)
        self.window = None  # the new window keeps no bound of the old one
        self._recentre(negated, k)
        return _split_like(chosen, values)

    def _recentre(self, negated: np.ndarray, k: int) -> None:
        """Window ``negated``'s k-th smallest and ``MARGIN`` ranks to each side; a side with fewer keeps its old bound.

        Partitions ``negated`` in place.
        """
        lo_rank, hi_rank = k - 1 - self.MARGIN, k - 1 + self.MARGIN
        lo_at, hi_at = max(lo_rank, 0), min(hi_rank, negated.size - 1)
        # two single-rank partitions: 0.2-0.4 ms on 784-128-10's 101,632 scores with numpy 2.4.6; one at both ranks takes 1.2-1.6 ms
        negated.partition(hi_at)
        hi = negated[hi_at]
        prefix = negated[: hi_at + 1]  # the hi_at + 1 smallest, so its rank lo_at is the vector's
        prefix.partition(lo_at)
        lo = prefix[lo_at]
        if self.window is not None:
            lo = lo if lo_rank >= 0 else self.window[0]
            hi = hi if hi_rank < negated.size else self.window[1]
        if hi != hi:  # NaN: the window runs to the largest number
            hi = np.inf
        self.window = (lo, hi) if lo == lo else None


def round_scores(scores: np.ndarray) -> np.ndarray:
    """Deterministic rounding: the boolean mask that is True exactly where score >= 0.5."""
    return np.asarray(scores) >= 0.5


def extract_mask(layers: Sequence[MaskedLayer]) -> list[np.ndarray]:
    return [layer.mask for layer in layers]


def mask_sparsity(mask: Sequence[np.ndarray]) -> float:
    if len(mask) == 0:
        raise ValueError("mask_sparsity: empty mask")
    return sum(int(np.count_nonzero(m)) for m in mask) / sum(m.size for m in mask)


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
    """Graph-free forward pass: the input as float64, each hidden ReLU output, then the logits.

    ``features`` are rows as a split stores them: uint8 pixels are scaled to
    [0, 1] here, as ``x / 255.0``, and other non-float rows raise ``ValueError``.
    """
    acts = [np.asarray(float_features(np.asarray(features)), dtype=np.float64)]
    last = len(layer_weights) - 1
    for i, w in enumerate(layer_weights):
        out = acts[-1] @ w.T
        acts.append(out if i == last else np.where(out > 0.0, out, 0.0))
    return acts


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax through the log-sum-exp form, so large logits cannot overflow."""
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))


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
    if y.size and (np.minimum.reduce(y) < 0 or np.maximum.reduce(y) >= k):
        raise ValueError(f"loss_and_grads: label outside [0, {k})")
    log_probs = log_softmax(acts[-1])
    rows = np.arange(n)
    loss = -np.add.reduce(log_probs[rows, y], axis=None) / n
    # delta[label] = p[label] - 1 = -sum of the other probabilities;
    # the subtraction form underflows to 0 when p[label] rounds to 1
    delta = np.exp(log_probs)
    delta[rows, y] = 0.0
    delta[rows, y] = -np.add.reduce(delta, axis=1)
    g = delta * (1.0 / n)
    grads = [g.T @ acts[-2]]
    for i in range(len(layer_weights) - 1, 0, -1):
        # ReLU backward: acts[i] > 0 exactly where its pre-activation was
        g = (g @ layer_weights[i]) * (acts[i] > 0.0)
        grads.append(g.T @ acts[i - 1])
    grads.reverse()
    return float(loss), grads
