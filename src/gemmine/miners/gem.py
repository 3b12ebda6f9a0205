"""Score-descent miner with regularization and periodic iterative freezing.

Scores are trained by straight-through gradient descent on the task loss
plus an optional score-norm penalty. Every ``freeze_period`` epochs the
globally smallest unfrozen scores are frozen, and set to 0 at that event,
so the unfrozen fraction tracks the exponential envelope and lands at the
target. The optimizer still steps every score, so SGD momentum can move a
frozen score afterwards; the mask ignores it, since its freeze bit is 0.

The kernel's effective weights ``(w * freeze) * (score >= 0.5)`` are kept
across batches. A step flips few mask bits, so each batch rewrites only
the entries whose bit flipped; a freeze event rebuilds them whole.
"""

from __future__ import annotations

import math

import numpy as np

from ..data import DatasetSplit
from ..masking import (
    SIGNED_CONSTANT,
    STREAM_BATCHES,
    NetworkSpec,
    init_scores,
    init_weights,
    mask_sparsity,
    round_scores,
    select_smallest_across,
    stream_rng,
)
from ..optim import make_optimizer
from ..trainer import RunReport, record_epoch, run_epoch
from .common import MinerConfig, MiningResult, SparsitySchedule, mining_result, patch_flips, score_loss_and_grads

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
    weights = init_weights(spec, init_scheme, config.seed)
    scores = init_scores(spec, config.seed)
    freeze = [np.ones_like(w) for w in weights]
    optimizer = make_optimizer(config.optimizer, scores)
    rng = stream_rng(config.seed, STREAM_BATCHES)
    report = RunReport(epochs=schedule.total_epochs)

    def current_mask():
        return [round_scores(p) * f for p, f in zip(scores, freeze)]

    def effective_weights():
        # the kernel's weights (w * freeze) * (p >= 0.5): base * True has the bits of base * 1.0
        base = [w * f for w, f in zip(weights, freeze)]
        bits = [p >= 0.5 for p in scores]
        return base, bits, [b * m for b, m in zip(base, bits)]

    base, bits, effective = effective_weights()
    scratch = [np.empty_like(p) for p in scores]

    def batch_loss_and_grads(x, y):
        # each optimizer step is projected onto [0, 1]: here before the next
        # batch uses the scores, and after the epoch's last step below
        for p in scores:
            np.clip(p, 0.0, 1.0, out=p)
        patch_flips(effective, base, bits, [p >= 0.5 for p in scores])
        return score_loss_and_grads(x, y, effective, base, scores, config, scratch)

    for epoch in range(1, schedule.total_epochs + 1):
        train_loss = run_epoch(
            scores, batch_loss_and_grads, data.train_x, data.train_y, config.batch_size, optimizer, config.lr, rng
        )
        for p in scores:
            np.clip(p, 0.0, 1.0, out=p)

        if epoch % schedule.freeze_period == 0:
            freeze_step(scores, freeze, schedule)
            # freezing is the only change to w * freeze, so the kept arrays are rebuilt here, not per batch
            base, bits, effective = effective_weights()
            check_layer_collapse(current_mask(), report.warnings, when=f"after freeze at epoch {epoch}")

        mask = current_mask()
        record_epoch(
            report, data, [w * m for w, m in zip(weights, mask)], epoch, mask_sparsity(freeze), train_loss,
            mask_sparsity=mask_sparsity(mask),
        )

    mask = current_mask()
    check_layer_collapse(mask, report.warnings, when="final mask")
    return mining_result(weights, mask, report, data, scores=scores, inversion_scores=[p.copy() for p in scores])
