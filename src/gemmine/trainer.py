"""Weight training of masked subnetworks, evaluation, and the run report record (``harness.write_report`` writes it)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .data import DatasetSplit
from .masking import STREAM_BATCHES, as_mask, loss_and_grads, mask_sparsity, mlp_activations, stream_rng
from .optim import OptimizerChoice, SgdMomentum, make_optimizer
from .sanity import layerwise_report


@dataclass(frozen=True)
class MultiStep:
    milestones: tuple[int, ...]
    gamma: float = 0.1


@dataclass(frozen=True)
class Cosine:
    pass


ScheduleChoice = Union[MultiStep, Cosine]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    optimizer: OptimizerChoice = SgdMomentum()
    lr: float = 0.1
    schedule: ScheduleChoice = Cosine()
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if isinstance(self.schedule, MultiStep):
            ms = self.schedule.milestones
            if any(b <= a for a, b in zip(ms, ms[1:])) or any(m < 0 or m >= self.epochs for m in ms):
                raise ValueError(f"milestones must be strictly increasing and in [0, epochs), got {ms}")
            if not self.schedule.gamma > 0.0:
                raise ValueError(f"multistep gamma must be > 0, got {self.schedule.gamma}")


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 0-indexed epoch."""
    if epoch < 0 or epoch >= max(cfg.epochs, 1):
        raise ValueError(f"epoch {epoch} outside [0, {cfg.epochs})")
    if isinstance(cfg.schedule, MultiStep):
        passed = sum(1 for m in cfg.schedule.milestones if epoch >= m)
        return cfg.lr * cfg.schedule.gamma**passed
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / max(cfg.epochs, 1)))


@dataclass
class EpochRecord:
    """One epoch's report row; ``epoch`` is the number of epochs run when it was taken, 1 for the first."""

    epoch: int
    sparsity: float
    train_loss: float
    val_accuracy: float
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The record's fields in order, ``extra``'s columns following them in its place."""
        row = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "extra"}
        row.update(self.extra)
        return row


@dataclass
class RunReport:
    """Per-epoch trajectory plus end-of-run accuracy summary; the run's epoch count is ``len(records)``."""

    records: list[EpochRecord] = field(default_factory=list)
    pre_finetune_accuracy: float | None = None
    post_finetune_accuracy: float | None = None
    layerwise: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        """The report's fields in order, each of ``records`` as its ``EpochRecord.as_dict``."""
        report = {f.name: getattr(self, f.name) for f in fields(self)}
        report["records"] = [r.as_dict() for r in self.records]
        return report


def evaluate(weights: Sequence[np.ndarray], features: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of the network with these (effective) weights; NaN on an empty split."""
    if features.shape[0] == 0:
        return float("nan")
    logits = mlp_activations(features, weights)[-1]
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def record_epoch(
    report: RunReport, data: DatasetSplit, weights: Sequence[np.ndarray], epoch: int, sparsity: float,
    train_loss: float, **extra,
) -> None:
    """Append an epoch's record to ``report``, with the validation accuracy of these (effective) weights.

    ``extra`` becomes the record's trailing columns, in the order given.
    """
    val_acc = evaluate(weights, data.val_x, data.val_y)
    report.records.append(EpochRecord(epoch=epoch, sparsity=sparsity, train_loss=train_loss, val_accuracy=val_acc, extra=extra))


def batch_indices(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def run_epoch(
    params: list[np.ndarray], batch_loss_and_grads: Callable, features: np.ndarray, labels: np.ndarray,
    batch_size: int, optimizer, lr: float, rng: np.random.Generator,
) -> float:
    """One epoch of minibatch descent on ``params``, in place. Returns mean loss.

    ``batch_loss_and_grads(x, y)`` gives a batch's loss and the gradient for
    each of ``params``; ``x`` is the batch's rows of ``features`` as stored,
    uint8 pixels or floats, which the kernel scales as it reads them.
    A non-finite batch loss raises ``FloatingPointError``. numpy's float errors
    are ignored in the loop, so that is the one divergence test under any warnings filter.
    """
    total_loss = 0.0
    n = features.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for idx in batch_indices(n, batch_size, rng):
            value, grads = batch_loss_and_grads(features[idx], labels[idx])
            if not math.isfinite(value):
                raise FloatingPointError(f"training diverged: loss={value}")
            optimizer.step(params, grads, lr)
            del grads  # else they stay alive while the next batch's are computed
            total_loss += value * idx.size
    return total_loss / n


def run_masked_epoch(
    weights: list[np.ndarray],
    layouts: Sequence[tuple[bool, np.ndarray]],
    features: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    optimizer,
    lr: float,
    rng: np.random.Generator,
) -> float:
    """One epoch of ``train_masked``, in place, with each layer's ``(in_place, indices)`` from it. Returns mean loss.

    An in-place layer's parameter is its own flat weights, and the entries of
    its gradient at ``indices`` (the pruned ones) are set to +0.0 before each
    step. Any other layer's parameter is a compact vector of its weights at
    ``indices`` (the kept ones): it is scattered into the weights before each
    batch's kernel and after the last step, and its gradient is gathered there.
    """
    flat = [w.reshape(-1) for w in weights]
    params = [f if in_place else f[i] for f, (in_place, i) in zip(flat, layouts)]
    compact = [(f, i, p) for f, (in_place, i), p in zip(flat, layouts, params) if not in_place]

    def scatter():
        for f, i, p in compact:
            f[i] = p

    def gradient(d, in_place, i):
        if not in_place:
            return d.take(i)
        d = d.reshape(-1)
        d[i] = 0.0
        return d

    def batch_loss_and_grads(x, y):
        scatter()
        loss, d_eff = loss_and_grads(x, y, weights)
        return loss, [gradient(d, *layout) for d, layout in zip(d_eff, layouts)]

    mean_loss = run_epoch(params, batch_loss_and_grads, features, labels, batch_size, optimizer, lr, rng)
    scatter()
    return mean_loss


def train_masked(
    weights: list[np.ndarray], mask: Sequence[np.ndarray], data: DatasetSplit, cfg: TrainConfig, rng: np.random.Generator
) -> Iterator[tuple[int, float]]:
    """Train the kept weights of a masked network in place, yielding ``(epochs run, mean_loss)`` after each epoch.

    Each mask goes through ``masking.as_mask``, and the weights must be
    C-contiguous arrays that are 0 wherever the mask is False, so that they
    are the masked network itself; otherwise ``ValueError`` names the layer
    before any step, and the weights are left untouched. The ``e``-th yield
    counts ``e`` epochs run; that epoch runs at ``lr_at(cfg, e - 1)`` on
    batches of ``data``'s training split drawn from ``rng``. Each layer is
    stepped in one of two layouts, chosen from its mask once per call:

    - a layer that keeps at least as many weights as it prunes trains in
      place: ``cfg.optimizer`` steps its flat weights and holds layer-sized
      state, and the pruned entries of each gradient are set to +0.0 first;
    - any other layer's kept weights, in flat-index order, form one compact
      vector, which ``cfg.optimizer`` steps and holds state for; the
      kernel's gradient is gathered at the kept indices, and the dense
      weights are written only there.

    A +0.0 gradient leaves a pruned weight's optimizer state at +0.0 and its
    step at +0.0, so in either layout pruned weights keep their zeros, signs
    included, and each kept weight gets the same float operations. At each
    yield the dense weights are up to date.
    """
    layouts = []
    for i, (w, m) in enumerate(zip(weights, mask)):
        try:
            m = as_mask(m)
        except ValueError as exc:
            raise ValueError(f"layer {i}: {exc}") from None
        if np.any(np.where(m, 0.0, w)):
            raise ValueError(f"layer {i}: weights must be 0 where the mask is 0")
        if not w.flags.c_contiguous:
            raise ValueError(f"layer {i}: weights must be a C-contiguous array")
        in_place = 2 * np.count_nonzero(m) >= m.size
        layouts.append((in_place, np.flatnonzero(~m if in_place else m)))
    optimizer = make_optimizer(
        cfg.optimizer, [w.reshape(-1) if in_place else np.take(w, i) for w, (in_place, i) in zip(weights, layouts)]
    )
    for epoch in range(cfg.epochs):
        yield epoch + 1, run_masked_epoch(
            weights, layouts, data.train_x, data.train_y, cfg.batch_size, optimizer, lr_at(cfg, epoch), rng
        )


def finetune(
    weights: Sequence[np.ndarray],
    mask: Sequence[np.ndarray],
    data: DatasetSplit,
    cfg: TrainConfig,
) -> tuple[list[np.ndarray], RunReport]:
    """Train only the masked-in weights for ``cfg.epochs`` epochs.

    Returns fresh weight arrays, ``weights * mask`` trained by
    ``train_masked`` (whose docstring gives the mask rules and the training
    scheme), so they are 0 wherever the mask is False; the inputs are not
    modified. The report's pre/post accuracies are measured on the test
    split, and its layerwise rows describe ``mask``.
    """
    sparsity = mask_sparsity(list(mask))
    if sparsity == 0.0:
        raise ValueError("finetune: mask keeps no weights")
    trained = [np.multiply(np.asarray(w, dtype=np.float64), m, order="C") for w, m in zip(weights, mask)]
    report = RunReport(layerwise=layerwise_report(mask))
    report.pre_finetune_accuracy = evaluate(trained, data.test_x, data.test_y)

    for epoch, mean_loss in train_masked(trained, mask, data, cfg, stream_rng(cfg.seed, STREAM_BATCHES)):
        record_epoch(report, data, trained, epoch, sparsity, mean_loss)
    report.post_finetune_accuracy = evaluate(trained, data.test_x, data.test_y)
    return trained, report
