"""Small hand-built tasks, and an exact loss oracle, shared by several test files.

    from toy_tasks import enumerated_expected_loss, random_classification, toy_one_useful_weight

A plain module beside the tests, imported the way ``golden`` and
``source_sites`` are, so ``pytest`` collects every test file from any
working directory.
"""

from __future__ import annotations

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
