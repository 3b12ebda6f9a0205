"""Iterative magnitude pruning with cold / warm / learning-rate rewinding.

Each round trains the surviving weights, prunes the smallest-magnitude
fraction of them globally, then restarts the survivors from the rewind
point: their initial values (cold), an early checkpoint from round one
(warm), or their trained values, restarting only the learning-rate
schedule (lr_rewind).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..data import DatasetSplit
from ..masking import SCALED_NORMAL, STREAM_BATCHES, NetworkSpec, init_weights, mask_sparsity, select_smallest_across, stream_rng
from ..trainer import RunReport, TrainConfig, record_epoch, train_masked
from .common import MinerConfig, MiningResult, keep_at_least_one, mining_result

COLD = "cold"
WARM = "warm"
LR_REWIND = "lr_rewind"

__all__ = ["imp", "check_imp_settings", "RewindSpec", "RoundMasks", "COLD", "WARM", "LR_REWIND", "prune_by_magnitude"]


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

    Only the kept weights are ranked; ``int(prune_rate * kept + 0.5)`` of
    them are pruned, at most all but one (with a warning), and equal
    magnitudes are pruned in ``select_smallest_across``'s order. A mask
    that keeps no weight raises ``ValueError``.
    """
    alive = sum(int(np.count_nonzero(m)) for m in mask)
    if alive == 0:
        raise ValueError("prune_by_magnitude: mask keeps no weights")
    n_prune = alive - keep_at_least_one(alive - int(prune_rate * alive + 0.5), warnings, "magnitude pruning clamped to keep 1 weight")
    magnitudes = (np.abs(w) for w in weights)  # one layer at a time, as the selection reads them
    return [m & ~hit for m, hit in zip(mask, select_smallest_across(magnitudes, n_prune, eligible=mask))]


class RoundMasks(Sequence):
    """IMP's mask after each round's prune, built on access from the round each weight was pruned in.

    ``pruned_in`` holds, per layer, the 0-indexed round whose prune removed
    each weight, or the round count for a weight never pruned, as read-only
    arrays of the smallest unsigned type that holds the count. Item ``r`` is
    round ``r``'s mask, ``[p > r for p in pruned_in]``: new boolean arrays on
    every access. A slice is another ``RoundMasks`` over the same arrays.
    """

    def __init__(self, pruned_in: list[np.ndarray], rounds: range):
        self.pruned_in = pruned_in
        self._rounds = rounds

    def __len__(self) -> int:
        return len(self._rounds)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RoundMasks(self.pruned_in, self._rounds[index])
        r = self._rounds[index]
        return [p > r for p in self.pruned_in]


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
    rounding; masks are nested across rounds, and the result's
    ``round_masks`` is a ``RoundMasks``. With zero epochs per round the
    procedure reduces to magnitude sorts of the initialization. Each round
    trains ``point * mask`` with ``trainer.train_masked`` (whose docstring
    gives the mask rules and the training scheme) on one batch stream shared
    by all rounds. ``point``, dense, is where each round restarts: the
    initialization (cold), round one's weights after epoch
    ``rewind.warm_epoch`` (warm), or each weight's value after the last
    round that trained it (lr_rewind). The result's weights are that point,
    the dense weights the final mask selects from.
    """
    check_imp_settings(rounds, prune_rate, rewind, epochs_per_round)
    point = init_weights(spec, init_scheme, config.seed)
    mask = [np.ones(p.shape, dtype=bool) for p in point]
    report = RunReport()
    rng = stream_rng(config.seed, STREAM_BATCHES)
    # how many prunes each weight has survived: in the end, the 0-indexed round that pruned it, or ``rounds``
    pruned_in = [np.zeros(p.shape, dtype=np.min_scalar_type(rounds)) for p in point]
    # every round restarts the cosine schedule
    round_cfg = TrainConfig(epochs=epochs_per_round, batch_size=config.batch_size, optimizer=config.optimizer, lr=config.lr)

    for round_idx in range(rounds):
        weights = [p * m for p, m in zip(point, mask)]
        kept_fraction = mask_sparsity(mask)
        for epoch, mean_loss in train_masked(weights, mask, data, round_cfg, rng):
            if round_idx == 0 and rewind.kind == WARM and epoch == rewind.warm_epoch:
                point = [w.copy() for w in weights]
            record_epoch(report, data, weights, round_idx * epochs_per_round + epoch, kept_fraction, mean_loss)
        if rewind.kind == LR_REWIND:
            point = [np.where(m, w, p) for p, w, m in zip(point, weights, mask)]

        mask = prune_by_magnitude(weights, mask, prune_rate, report.warnings)
        for p, m in zip(pruned_in, mask):
            p += m

    for p in pruned_in:
        p.flags.writeable = False
    magnitudes = [np.abs(w) for w in weights]
    return mining_result(point, mask, report, data, scores=magnitudes, round_masks=RoundMasks(pruned_in, range(rounds)))
