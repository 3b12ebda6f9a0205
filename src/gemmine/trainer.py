"""Weight training of masked subnetworks, evaluation, and run reports."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .data import DatasetSplit
from .masking import STREAM_BATCHES, log_softmax, loss_and_grads, mask_sparsity, mlp_activations, stream_rng
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
        if self.epochs < 0 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError(f"invalid TrainConfig: epochs={self.epochs}, batch_size={self.batch_size}, lr={self.lr}")
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
    epoch: int
    sparsity: float
    train_loss: float
    val_accuracy: float
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        row = {
            "epoch": self.epoch,
            "sparsity": self.sparsity,
            "train_loss": self.train_loss,
            "val_accuracy": self.val_accuracy,
        }
        row.update(self.extra)
        return row


@dataclass
class RunReport:
    """Per-epoch trajectory plus end-of-run accuracy summary."""

    epochs: int
    records: list[EpochRecord] = field(default_factory=list)
    pre_finetune_accuracy: float | None = None
    post_finetune_accuracy: float | None = None
    layerwise: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "records": [r.as_dict() for r in self.records],
            "pre_finetune_accuracy": self.pre_finetune_accuracy,
            "post_finetune_accuracy": self.post_finetune_accuracy,
            "layerwise": self.layerwise,
            "warnings": self.warnings,
        }

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), indent=2) + "\n")

    def save_metrics_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["epoch", "sparsity", "train_loss", "val_accuracy"])
            for r in self.records:
                writer.writerow([r.epoch, f"{r.sparsity:.12g}", f"{r.train_loss:.12g}", f"{r.val_accuracy:.12g}"])


def evaluate(weights: Sequence[np.ndarray], features: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy and top-1 accuracy of the network with these (effective) weights."""
    if features.shape[0] == 0:
        return float("nan"), float("nan")
    logits = mlp_activations(features, weights)[-1]
    log_probs = log_softmax(logits)
    n = features.shape[0]
    loss = float(-np.sum(log_probs[np.arange(n), labels]) / n)
    accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
    return loss, accuracy


def record_epoch(
    report: RunReport, data: DatasetSplit, weights: Sequence[np.ndarray], epoch: int, sparsity: float,
    train_loss: float, **extra,
) -> None:
    """Append an epoch's record to ``report``, with the validation accuracy of these (effective) weights.

    ``extra`` becomes the record's trailing columns, in the order given.
    """
    _, val_acc = evaluate(weights, data.val_x, data.val_y)
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

    ``batch_loss_and_grads(x, y)`` gives a batch's loss and the gradient for each of ``params``.
    """
    total_loss = 0.0
    n = features.shape[0]
    for idx in batch_indices(n, batch_size, rng):
        value, grads = batch_loss_and_grads(features[idx], labels[idx])
        if not math.isfinite(value):
            raise FloatingPointError(f"training diverged: loss={value}")
        optimizer.step(params, grads, lr)
        total_loss += value * idx.size
    return total_loss / n


def run_masked_epoch(
    weights: list[np.ndarray],
    live: Sequence[np.ndarray],
    features: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    optimizer,
    lr: float,
    rng: np.random.Generator,
) -> float:
    """One epoch of ``train_masked``, in place: steps each layer's weights at flat indices ``live``. Returns mean loss."""
    flat = [w.reshape(-1) for w in weights]
    params = [f[i] for f, i in zip(flat, live)]

    def scatter():
        for f, i, p in zip(flat, live, params):
            f[i] = p

    def batch_loss_and_grads(x, y):
        scatter()
        loss, d_eff = loss_and_grads(x, y, weights)
        return loss, [np.take(d, i) for d, i in zip(d_eff, live)]

    mean_loss = run_epoch(params, batch_loss_and_grads, features, labels, batch_size, optimizer, lr, rng)
    scatter()
    return mean_loss


def train_masked(
    weights: list[np.ndarray], mask: Sequence[np.ndarray], data: DatasetSplit, cfg: TrainConfig, rng: np.random.Generator
) -> Iterator[tuple[int, float]]:
    """Train the kept weights of a masked network in place, yielding ``(epoch, mean_loss)`` after each epoch.

    The mask must be 0 or 1, and the weights C-contiguous arrays that are 0
    wherever the mask is 0, so that they are the masked network itself;
    otherwise ``ValueError`` names the layer before any step, and the weights
    are left untouched. Only the kept weights are stepped: each layer's, in
    flat-index order, form one compact vector, and ``cfg.optimizer`` holds
    state for these vectors only. Epoch ``e`` runs at ``lr_at(cfg, e)`` on
    batches of ``data``'s training split drawn from ``rng``. The kernel's
    gradient is gathered at the kept indices, and the dense weights are
    written only there, so pruned weights keep their zeros, signs included.
    At each yield the dense weights are up to date.
    """
    live = []
    for i, (w, m) in enumerate(zip(weights, mask)):
        keep, drop = m == 1.0, m == 0.0
        if not np.all(keep | drop):
            raise ValueError(f"layer {i}: mask entries must be 0 or 1")
        if np.any(np.where(drop, w, 0.0)):
            raise ValueError(f"layer {i}: weights must be 0 where the mask is 0")
        if not w.flags.c_contiguous:
            raise ValueError(f"layer {i}: weights must be a C-contiguous array")
        live.append(np.flatnonzero(keep))
    optimizer = make_optimizer(cfg.optimizer, [np.take(w, i) for w, i in zip(weights, live)])
    for epoch in range(cfg.epochs):
        yield epoch, run_masked_epoch(
            weights, live, data.train_x, data.train_y, cfg.batch_size, optimizer, lr_at(cfg, epoch), rng
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
    scheme), so they are 0 wherever the mask is 0; the inputs are not
    modified. The report's pre/post accuracies are measured on the test
    split, and its layerwise rows describe ``mask``.
    """
    sparsity = mask_sparsity(list(mask))
    if sparsity == 0.0:
        raise ValueError("finetune: mask keeps no weights")
    trained = [np.asarray(w, dtype=np.float64) * m for w, m in zip(weights, mask)]
    report = RunReport(epochs=cfg.epochs, layerwise=layerwise_report(mask))
    _, pre_acc = evaluate(trained, data.test_x, data.test_y)
    report.pre_finetune_accuracy = pre_acc

    for epoch, mean_loss in train_masked(trained, mask, data, cfg, stream_rng(cfg.seed, STREAM_BATCHES)):
        record_epoch(report, data, trained, epoch, sparsity, mean_loss)
    _, post_acc = evaluate(trained, data.test_x, data.test_y)
    report.post_finetune_accuracy = post_acc
    return trained, report
