"""The one home of the tests' shared oracles and helpers: small hand-built tasks, the exact loss oracle, the
stable-sort selection, central finite differences, the per-batch score penalty, the traced memory peak of a call
and the byte equality of array lists.

    from toy_tasks import enumerated_expected_loss, random_classification, stable_sort_selection, traced_peak

A plain module beside the tests, imported the way ``golden`` and
``source_sites`` are, so ``pytest`` collects every test file from any
working directory.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from gemmine.data import DatasetSplit
from gemmine.masking import loss_and_grads


def random_classification(n: int, dim: int, classes: int, seed: int) -> DatasetSplit:
    """Structureless labelled data for purely structural miner tests."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    y = rng.integers(0, classes, size=n).astype(np.int64)
    n_train = int(0.8 * n)
    n_val = int(0.1 * n)
    return DatasetSplit(
        train_x=x[:n_train],
        train_y=y[:n_train],
        val_x=x[n_train : n_train + n_val],
        val_y=y[n_train : n_train + n_val],
        test_x=x[n_train + n_val :],
        test_y=y[n_train + n_val :],
        n_classes=classes,
    )


def toy_one_useful_weight() -> tuple[DatasetSplit, list[np.ndarray]]:
    """(1, 2, 2) net where only the first hidden weight carries signal."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 1)) * 2.0
    y = (x[:, 0] > 0).astype(np.int64)
    data = DatasetSplit(
        train_x=x[:48],
        train_y=y[:48],
        val_x=x[48:56],
        val_y=y[48:56],
        test_x=x[56:],
        test_y=y[56:],
        n_classes=2,
    )
    weights = [np.array([[4.0], [0.0]]), np.array([[-3.0, 0.0], [3.0, 0.0]])]
    return data, weights


def enumerated_expected_loss(weights, ratios, data) -> float:
    """Exact expectation of the loss over all Bernoulli mask assignments."""
    sizes = [w.size for w in weights]
    total = sum(sizes)
    expected = 0.0
    for bits in range(2**total):
        prob = 1.0
        masks = []
        cursor = 0
        for w, r in zip(weights, ratios):
            m = np.zeros(w.size)
            for i in range(w.size):
                keep = (bits >> (cursor + i)) & 1
                m[i] = keep
                prob *= r if keep else (1.0 - r)
            cursor += w.size
            masks.append(m.reshape(w.shape))
        if prob == 0.0:
            continue
        loss = loss_and_grads(data.train_x, data.train_y, [w * m for w, m in zip(weights, masks)])[0]
        expected += prob * loss
    return expected


def stable_sort_selection(values, k: int) -> np.ndarray:
    """The reference "k smallest" rule: a flat boolean mask of the first k entries of a stable sort of ``values``
    read flat, so equal values go lowest index first and NaN last; a k below 0 chooses none."""
    values = np.asarray(values).reshape(-1)
    chosen = np.zeros(values.size, dtype=bool)
    chosen[np.argsort(values, kind="stable")[: max(k, 0)]] = True
    return chosen


def finite_difference(f, arrays, h=1e-5):
    """Central-difference gradient of scalar ``f(arrays)`` with respect to each array, perturbing each entry in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f(arrays)
            flat[i] = orig - h
            down = f(arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def score_penalty(loss, grads, scores, config):
    """A batch's loss and score gradients with ``config``'s squared-L2 score penalty added, written as per-batch
    formulas: the gradient as (g + lam*p) + lam*p."""
    lam = config.reg_weight
    if lam > 0.0:
        penalty = sum(np.sum(p * p) for p in scores)
        grads = [(g + lam * p) + lam * p for g, p in zip(grads, scores)]
        loss = loss + penalty * lam
    return loss, grads


def traced_peak(call, *args, **kwargs):
    """``call(*args, **kwargs)``'s result and the peak of the memory tracemalloc traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_arrays_identical(got, want):
    """Two lists of arrays, equal in length and, array by array, in dtype, shape and bytes."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
