"""Iterative magnitude pruning with cold / warm / learning-rate rewinding.

Each round trains the surviving weights, prunes the smallest-magnitude
fraction of them globally, then either rewinds the survivors to their
initial values (cold), to an early checkpoint from round one (warm), or
keeps them and restarts only the learning-rate schedule (lr_rewind).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import DatasetSplit
from ..masking import SCALED_NORMAL, STREAM_BATCHES, NetworkSpec, init_weights, mask_sparsity, select_smallest_across, stream_rng
from ..trainer import RunReport, TrainConfig, record_epoch, train_masked
from .common import MinerConfig, MiningResult, mining_result

COLD = "cold"
WARM = "warm"
LR_REWIND = "lr_rewind"

__all__ = ["imp", "check_imp_settings", "RewindSpec", "COLD", "WARM", "LR_REWIND", "prune_by_magnitude"]


@dataclass(frozen=True)
class RewindSpec:
    kind: str = COLD
    warm_epoch: int = 1  # 1-indexed epoch of round one whose weights warm rewinding restores

    def __post_init__(self):
        if self.kind not in (COLD, WARM, LR_REWIND):
            raise ValueError(f"rewind kind must be one of ({COLD!r}, {WARM!r}, {LR_REWIND!r}), got {self.kind!r}")
        if self.kind == WARM and self.warm_epoch < 1:
            raise ValueError(f"warm rewind epoch must be >= 1, got {self.warm_epoch}")


def check_imp_settings(rounds: int, prune_rate: float, rewind: RewindSpec, epochs_per_round: int) -> None:
    """Raise ``ValueError`` unless ``imp`` can run with these settings.

    Warm rewinding restores an epoch of round one before its last, so it
    needs ``1 <= rewind.warm_epoch < epochs_per_round``.
    """
    if not (0.0 < prune_rate < 1.0):
        raise ValueError(f"prune rate must be in (0, 1), got {prune_rate}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if epochs_per_round < 0:
        raise ValueError(f"epochs_per_round must be >= 0, got {epochs_per_round}")
    if rewind.kind == WARM and rewind.warm_epoch >= max(epochs_per_round, 1):
        raise ValueError(f"warm rewind epoch {rewind.warm_epoch} must be < epochs per round {epochs_per_round}")


def prune_by_magnitude(
    weights: list[np.ndarray], mask: list[np.ndarray], prune_rate: float, warnings: list[str]
) -> list[np.ndarray]:
    """Zero out the smallest-magnitude fraction of currently kept weights, globally.

    Equal magnitudes are pruned in ``select_smallest_across``'s order.
    """
    alive = sum(int(np.count_nonzero(m)) for m in mask)
    n_prune = int(prune_rate * alive + 0.5)
    if alive - n_prune < 1:
        n_prune = alive - 1
        msg = "magnitude pruning clamped to keep 1 weight"
        if msg not in warnings:
            warnings.append(msg)
    # n_prune < alive, so the pruned weights, passed as +inf, are never chosen again
    candidates = [np.where(m != 0.0, np.abs(w), np.inf) for w, m in zip(weights, mask)]
    return [np.where(hit, 0.0, m) for m, hit in zip(mask, select_smallest_across(candidates, n_prune))]


def imp(
    data: DatasetSplit,
    spec: NetworkSpec,
    rounds: int,
    prune_rate: float,
    rewind: RewindSpec,
    epochs_per_round: int,
    config: MinerConfig,
    init_scheme: str = SCALED_NORMAL,
) -> MiningResult:
    """Run ``rounds`` of train / global-magnitude-prune / rewind.

    The kept fraction after round r is (1 - prune_rate)^r up to integer
    rounding; masks are nested across rounds. With zero epochs per round the
    procedure reduces to magnitude sorts of the initialization. Each round
    trains with ``trainer.train_masked`` (whose docstring gives the mask
    rules and the training scheme) on one batch stream shared by all rounds.
    Each rewind multiplies the weights by the new mask, so they are 0
    wherever the mask is 0, as ``train_masked`` requires, and the returned
    weights are the masked network itself.
    """
    check_imp_settings(rounds, prune_rate, rewind, epochs_per_round)
    initial = init_weights(spec, init_scheme, config.seed)
    weights = [w.copy() for w in initial]
    mask = [np.ones_like(w) for w in initial]
    report = RunReport(epochs=rounds * epochs_per_round)
    rng = stream_rng(config.seed, STREAM_BATCHES)
    warm_checkpoint: list[np.ndarray] | None = None
    round_masks: list[list[np.ndarray]] = []
    # every round restarts the cosine schedule
    round_cfg = TrainConfig(epochs=epochs_per_round, batch_size=config.batch_size, optimizer=config.optimizer, lr=config.lr)

    for round_idx in range(rounds):
        kept_fraction = mask_sparsity(mask)
        for epoch, mean_loss in train_masked(weights, mask, data, round_cfg, rng):
            if round_idx == 0 and rewind.kind == WARM and epoch + 1 == rewind.warm_epoch:
                warm_checkpoint = [w.copy() for w in weights]
            record_epoch(report, data, weights, round_idx * epochs_per_round + epoch, kept_fraction, mean_loss)

        magnitudes = [np.abs(w) for w in weights]
        mask = prune_by_magnitude(weights, mask, prune_rate, report.warnings)
        round_masks.append([m.copy() for m in mask])
        if rewind.kind == COLD:
            weights = [w0 * m for w0, m in zip(initial, mask)]
        elif rewind.kind == WARM:
            # set in round one: check_imp_settings holds warm_epoch below epochs_per_round
            weights = [w0 * m for w0, m in zip(warm_checkpoint, mask)]
        else:
            weights = [w * m for w, m in zip(weights, mask)]

    return mining_result(weights, mask, report, data, inversion_scores=magnitudes, round_masks=round_masks)
