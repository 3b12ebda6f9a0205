"""Gem-Miner: score descent whose mask is the rounded scores of the unfrozen weights.

Its rule on ``common.score_descent``: the scores are clipped to [0, 1]
after every step and a weight is kept where its score is at least 0.5 and
it is not frozen. Every ``freeze_period`` epochs the globally smallest
unfrozen scores are frozen, and set to 0 at that event, so the unfrozen
fraction tracks the exponential envelope and lands at the target; the
fixed factor of the effective weights becomes ``w * freeze``. The
optimizer still steps every score, so SGD momentum can move a frozen score
afterwards; the mask ignores it, since its freeze bit is 0.
"""

from __future__ import annotations

import math

import numpy as np

from ..data import DatasetSplit
from ..masking import SIGNED_CONSTANT, NetworkSpec, mask_sparsity, round_scores, select_smallest_across
from .common import MinerConfig, MiningResult, SparsitySchedule, mining_result, score_descent

__all__ = ["freeze_step", "gem_mine", "check_layer_collapse"]


def freeze_step(scores: list[np.ndarray], freeze: list[np.ndarray], schedule: SparsitySchedule) -> int:
    """Freeze the globally smallest unfrozen scores, in place.

    ``freeze`` holds one {0, 1} array per layer of ``scores``, 1 where unfrozen.
    The survivor count is floor(keep_factor * unfrozen), which keeps the
    unfrozen fraction at or below the envelope; each event can overshoot
    the envelope downward by at most one weight. Equal scores are frozen in
    ``select_smallest_across``'s order. The scores frozen by this call are
    set to 0; frozen weights never thaw. Returns the number of weights frozen.
    """
    total_unfrozen = sum(int(np.count_nonzero(f)) for f in freeze)
    n_freeze = total_unfrozen - math.floor(schedule.keep_factor * total_unfrozen)
    if n_freeze < 1:
        return 0
    # n_freeze <= unfrozen, so the frozen scores, passed as +inf, are never chosen
    candidates = [np.where(f != 0.0, p, np.inf) for p, f in zip(scores, freeze)]
    for p, f, hit in zip(scores, freeze, select_smallest_across(candidates, n_freeze)):
        f[hit] = 0.0
        p[hit] = 0.0
    return n_freeze


def check_layer_collapse(mask: list[np.ndarray], warnings: list[str], when: str) -> None:
    for i, m in enumerate(mask):
        msg = f"layer_collapse: layer {i} mask is empty ({when})"
        if int(np.sum(m)) == 0 and msg not in warnings:
            warnings.append(msg)


def gem_mine(
    data: DatasetSplit,
    spec: NetworkSpec,
    schedule: SparsitySchedule,
    config: MinerConfig,
    init_scheme: str = SIGNED_CONSTANT,
) -> MiningResult:
    """Mine a subnetwork by regularized score descent with iterative freezing.

    Weights stay fixed at their initialization; only the scores move. The
    per-epoch report logs the unfrozen fraction as the sparsity column
    (the controlled, monotone quantity) and the current mask density under
    ``mask_sparsity``.
    """
    freeze = [np.ones(shape) for shape in spec.layer_shapes]

    def current_mask(scores):
        return [round_scores(p) * f for p, f in zip(scores, freeze)]

    def take_bits(scores, epoch, warnings):
        # each optimizer step is projected onto [0, 1] before the scores are used
        for p in scores:
            np.clip(p, 0.0, 1.0, out=p)
        return [p >= 0.5 for p in scores]

    def end_epoch(weights, scores, epoch, warnings):
        base = None
        if epoch % schedule.freeze_period == 0:
            freeze_step(scores, freeze, schedule)
            base = [w * f for w, f in zip(weights, freeze)]
            check_layer_collapse(current_mask(scores), warnings, when=f"after freeze at epoch {epoch}")
        return base, mask_sparsity(freeze), {"mask_sparsity": mask_sparsity(current_mask(scores))}

    weights, scores, report = score_descent(data, spec, schedule, config, init_scheme, take_bits, end_epoch)
    mask = current_mask(scores)
    check_layer_collapse(mask, report.warnings, when="final mask")
    return mining_result(weights, mask, report, data, scores=scores, inversion_scores=[p.copy() for p in scores])
