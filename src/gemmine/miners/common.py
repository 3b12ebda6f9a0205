"""Shared miner configuration types, the mining result record and its builder, and the score-descent loop."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..data import DatasetSplit
from ..masking import STREAM_BATCHES, MaskedLayer, NetworkSpec, extract_mask, init_scores, init_weights, loss_and_grads, stream_rng
from ..optim import OptimizerChoice, SgdMomentum, make_optimizer
from ..sanity import layerwise_report
from ..trainer import RunReport, evaluate, record_epoch, run_epoch


@dataclass(frozen=True)
class SparsitySchedule:
    """Exponential sparsity envelope: from 1 at epoch 0 down to the target.

    The decay rate is fixed so the envelope lands exactly on the target
    after the final epoch; freezing is applied every ``freeze_period``
    epochs.
    """

    target_sparsity: float
    total_epochs: int
    freeze_period: int

    def __post_init__(self):
        if not (0.0 < self.target_sparsity <= 1.0):
            raise ValueError(f"target sparsity must be in (0, 1], got {self.target_sparsity}")
        if self.total_epochs < 1 or self.freeze_period < 1:
            raise ValueError(f"epochs and freeze period must be positive, got {self.total_epochs}, {self.freeze_period}")
        if self.freeze_period > self.total_epochs or self.total_epochs % self.freeze_period != 0:
            raise ValueError(
                f"freeze period {self.freeze_period} must divide total epochs {self.total_epochs}"
            )

    @property
    def decay_rate(self) -> float:
        return math.log(1.0 / self.target_sparsity) / self.total_epochs

    @property
    def keep_factor(self) -> float:
        """Fraction of unfrozen weights surviving one freeze event."""
        return math.exp(-self.decay_rate * self.freeze_period)

    def survivors(self, unfrozen: int) -> int:
        """Weights left unfrozen by one freeze event of ``unfrozen``: floor(keep_factor * unfrozen)."""
        return math.floor(self.keep_factor * unfrozen)

    @property
    def n_events(self) -> int:
        return self.total_epochs // self.freeze_period

    def envelope(self, epoch: int | float) -> float:
        if epoch < 0 or epoch > self.total_epochs:
            raise ValueError(f"epoch {epoch} outside [0, {self.total_epochs}]")
        return math.exp(-self.decay_rate * epoch)


@dataclass(frozen=True)
class MinerConfig:
    """Hyperparameters of the miners that train: the score miners and IMP.

    IMP reads ``lr``, ``optimizer``, ``batch_size`` and ``seed``;
    ``reg_weight`` is the weight of the score miners' squared-L2 penalty.
    """

    lr: float = 0.1
    reg_weight: float = 0.0
    optimizer: OptimizerChoice = SgdMomentum()
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if not (math.isfinite(self.reg_weight) and self.reg_weight >= 0):
            raise ValueError(f"regularization weight must be >= 0 and finite, got {self.reg_weight}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")


@dataclass
class MiningResult:
    """What a miner hands back: the masked layers and a report.

    Each layer's ``weights`` are the dense weights its mask selects from: the
    fixed random weights of every miner but IMP, whose are its rewind point.
    Each layer's ``scores`` are the per-weight importances a score-inversion
    sanity check ranks: the final scores of a score-based miner, the weight
    magnitudes at the last prune of IMP, none for smart-ratio.
    ``round_masks`` (IMP only, an ``imp.RoundMasks``) gives the mask after
    each round's prune; it keeps one pruning-round index per weight, and
    each access builds that round's boolean masks. Every mask is boolean,
    1 byte per weight; the weights and scores are float64.
    """

    layers: list[MaskedLayer]
    report: RunReport
    layer_ratios: "LayerRatios | None" = None
    round_masks: Sequence[list[np.ndarray]] | None = None

    @property
    def weights(self) -> list[np.ndarray]:
        return [layer.weights for layer in self.layers]

    @property
    def mask(self) -> list[np.ndarray]:
        return extract_mask(self.layers)


def warn_once(warnings: list[str], message: str) -> None:
    """Append ``message`` to ``warnings`` unless it is there already."""
    if message not in warnings:
        warnings.append(message)


def keep_at_least_one(kept: int, warnings: list[str] | None, clamped: str) -> int:
    """``kept``, raised to 1 if it is below 1, with the warning ``clamped`` given once in ``warnings`` when they are given."""
    if kept < 1 and warnings is not None:
        warn_once(warnings, clamped)
    return max(1, kept)


def check_layer_collapse(mask: Sequence[np.ndarray], warnings: list[str], when: str) -> None:
    """Warn once in ``warnings`` about each layer that ``mask`` empties, saying ``when``."""
    for i, m in enumerate(mask):
        if int(np.sum(m)) == 0:
            warn_once(warnings, f"layer_collapse: layer {i} mask is empty ({when})")


def mining_result(
    weights: Sequence[np.ndarray],
    mask: Sequence[np.ndarray],
    report: RunReport,
    data: DatasetSplit | None,
    scores: Sequence[np.ndarray] | None = None,
    **fields,
) -> MiningResult:
    """A miner's result: its dense ``weights`` and their ``mask`` as layers, and ``report`` finished.

    The report gets a layer-collapse warning for each layer the mask
    empties, the network's (``weights * mask``) test accuracy as
    ``pre_finetune_accuracy`` (left ``None`` without ``data``) and the mask's
    layerwise rows. Each layer keeps its entry of ``scores``, what ``invert``
    ranks, if given; ``fields`` are the other ``MiningResult`` fields.
    """
    check_layer_collapse(mask, report.warnings, when="final mask")
    if data is not None:
        report.pre_finetune_accuracy = evaluate([w * m for w, m in zip(weights, mask)], data.test_x, data.test_y)
    report.layerwise = layerwise_report(mask)
    if scores is None:
        scores = [None] * len(mask)
    layers = [MaskedLayer(weights=w, mask=m, scores=p) for w, m, p in zip(weights, mask, scores)]
    return MiningResult(layers=layers, report=report, **fields)


@dataclass(frozen=True)
class LayerRatios:
    """Per-layer keep fractions in (0, 1]."""

    ratios: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        if any(not (0.0 < r <= 1.0) for r in self.ratios):
            raise ValueError(f"keep ratios must be in (0, 1], got {self.ratios}")

    def __len__(self) -> int:
        return len(self.ratios)


def patch_flips(
    effective: Sequence[np.ndarray], base: Sequence[np.ndarray], bits: Sequence[np.ndarray], now: Sequence[np.ndarray]
) -> None:
    """Turn ``effective``, holding ``base * bits``, into ``base * now`` in place; ``bits`` becomes ``now`` too.

    ``bits`` and ``now`` are boolean arrays. Only the entries whose bit
    flips are written, each as the product ``base[i] * now[i]`` a full
    rebuild gives (``b * True`` has the bits of ``b * 1.0``), zero signs included.
    """
    for e, b, old, new in zip(effective, base, bits, now):
        new = new.reshape(-1)
        flips = (old.reshape(-1) != new).nonzero()[0]
        if flips.size:
            e.reshape(-1)[flips] = b.reshape(-1)[flips] * new[flips]
            old.reshape(-1)[flips] = new[flips]


def score_loss_and_grads(
    x: np.ndarray, y: np.ndarray, effective: Sequence[np.ndarray], base: Sequence[np.ndarray],
    scores: Sequence[np.ndarray], config: MinerConfig, scratch: Sequence[np.ndarray],
) -> tuple[float, list[np.ndarray]]:
    """Batch loss and straight-through score gradients for ``effective`` weights, ``base`` times the binarized ``scores``.

    ``x`` is the batch's rows as the split stores them; the kernel scales them.
    The binarization has an identity backward, so the score gradient is
    d(loss)/d(effective weight) * base, plus that of ``config.reg_weight`` times
    the scores' squared-L2 norm, added as ``lam * p`` twice. ``scratch``, one
    array per layer of ``scores``, is overwritten with the penalty's terms; it is
    not read, and may be ``None``, when ``config.reg_weight`` is 0. The returned
    gradients are the kernel's freshly allocated arrays, scaled and penalized in place.
    """
    loss, grads = loss_and_grads(x, y, effective)
    for g, b in zip(grads, base):
        g *= b
    lam = config.reg_weight
    if lam > 0.0:
        penalty = 0.0
        for g, p, t in zip(grads, scores, scratch):
            penalty += np.add.reduce(np.square(p, out=t), axis=None)
            # one lam*p per factor of p*p, added in turn: g + 2*lam*p rounds differently
            np.multiply(p, lam, out=t)
            g += t
            g += t
        loss = loss + penalty * lam
    return float(loss), grads


def score_descent(
    data: DatasetSplit, spec: NetworkSpec, schedule: SparsitySchedule, config: MinerConfig, init_scheme: str,
    take_bits: Callable, end_epoch: Callable,
) -> tuple[list[np.ndarray], list[np.ndarray], RunReport]:
    """Straight-through score descent over fixed random weights; a miner supplies only its mask rule.

    ``take_bits(scores, epoch, warnings)`` turns the scores into one boolean
    mask per layer; it runs before each batch and after each epoch's last
    step, and may project the scores in place first. ``end_epoch(weights,
    scores, epoch, warnings)`` then returns ``(base, sparsity, extra)``:
    ``base`` is ``None`` or the new fixed factor of the effective weights
    (they start as ``weights``), and ``sparsity`` and ``extra`` are the
    epoch's report columns (see ``trainer.record_epoch``).

    The kernel's effective weights ``base * bits`` are kept across batches.
    A step flips few mask bits, so each batch rewrites only the entries
    whose bit flipped (``patch_flips``); a new ``base`` rewrites them all.
    The epoch is recorded on the effective weights.
    Returns the weights, which never move: they are read-only until the
    loop ends, so a write into them raises ``ValueError`` where it happens.
    Also returns the trained scores and the report.
    """
    weights = init_weights(spec, init_scheme, config.seed)
    for w in weights:
        w.flags.writeable = False
    scores = init_scores(spec, config.seed)
    optimizer = make_optimizer(config.optimizer, scores)
    rng = stream_rng(config.seed, STREAM_BATCHES)
    report = RunReport()
    scratch = [np.empty_like(p) for p in scores] if config.reg_weight > 0.0 else None
    base = weights
    # all bits off: the first batch writes every kept entry
    bits = [np.zeros(w.shape, dtype=bool) for w in weights]
    effective = [w * m for w, m in zip(weights, bits)]

    def batch_loss_and_grads(x, y):
        patch_flips(effective, base, bits, take_bits(scores, epoch, report.warnings))
        return score_loss_and_grads(x, y, effective, base, scores, config, scratch)

    for epoch in range(1, schedule.total_epochs + 1):
        train_loss = run_epoch(
            scores, batch_loss_and_grads, data.train_x, data.train_y, config.batch_size, optimizer, config.lr, rng
        )
        patch_flips(effective, base, bits, take_bits(scores, epoch, report.warnings))
        new_base, sparsity, extra = end_epoch(weights, scores, epoch, report.warnings)
        if new_base is not None:
            base = new_base
            for e, b, old, now in zip(effective, base, bits, take_bits(scores, epoch, report.warnings)):
                np.copyto(old, now)
                np.multiply(b, old, out=e)
        record_epoch(report, data, effective, epoch, sparsity, train_loss, **extra)

    for w in weights:
        w.flags.writeable = True
    return weights, scores, report
