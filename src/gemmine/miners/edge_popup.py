"""Top-k score miner: weights never move, the mask is the current top-k.

Three ablation axes on the vanilla layerwise form: global top-k across the
whole network, a gradual keep-fraction schedule that follows the same
exponential envelope as the freezing miner, and an optional squared-norm
penalty on the scores (via ``config.reg_weight``).

A step moves few scores across the top-k threshold, so the miner keeps the
effective weights ``weights * mask`` across batches and rewrites only the
entries whose mask bit flips; the top-k itself is found through a window
around the last threshold (``masking.SmallestSelector``).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..data import DatasetSplit
from ..masking import (
    SIGNED_CONSTANT,
    STREAM_BATCHES,
    NetworkSpec,
    SmallestSelector,
    init_scores,
    init_weights,
    stream_rng,
)
from ..optim import make_optimizer
from ..trainer import RunReport, record_epoch, run_epoch
from .common import MinerConfig, MiningResult, SparsitySchedule, mining_result, patch_flips, score_loss_and_grads

LAYERWISE = "layerwise"
GLOBAL = "global"

__all__ = ["edge_popup", "topk_mask", "LAYERWISE", "GLOBAL"]


def _kept_count(k: float, size: int) -> int:
    return max(1, int(math.floor(k * size)))


def topk_mask(
    scores: Sequence[np.ndarray], keep_fraction: float, scope: str, warnings: list[str] | None = None,
    *, selectors: Sequence[SmallestSelector] | None = None,
) -> list[np.ndarray]:
    """Boolean masks keeping the highest-scoring fraction, per layer or globally.

    Equal scores are kept lowest flat index first; globally, in
    ``select_smallest_across``'s order. ``selectors``, one
    ``SmallestSelector`` per layer (or one for the global scope), carry a
    run's previous thresholds from call to call; while the scores move
    little, only the scores near the last threshold are partitioned. Without
    them, fresh ones make the full selection.
    """
    if not (0.0 < keep_fraction <= 1.0):
        raise ValueError(f"keep fraction must be in (0, 1], got {keep_fraction}")
    if scope == LAYERWISE:
        selectors = selectors or [SmallestSelector() for _ in scores]
        masks = []
        for i, p in enumerate(scores):
            kept = _kept_count(keep_fraction, p.size)
            if warnings is not None and math.floor(keep_fraction * p.size) < 1:
                msg = f"layerwise top-k clamped to 1 weight in layer {i}"
                if msg not in warnings:
                    warnings.append(msg)
            masks += selectors[i]([-p], kept)
        return masks
    if scope == GLOBAL:
        kept = _kept_count(keep_fraction, sum(p.size for p in scores))
        (select,) = selectors or [SmallestSelector()]
        return select([-p for p in scores], kept)
    raise ValueError(f"scope must be {LAYERWISE!r} or {GLOBAL!r}, got {scope!r}")


def edge_popup(
    data: DatasetSplit,
    spec: NetworkSpec,
    schedule: SparsitySchedule,
    config: MinerConfig,
    scope: str = LAYERWISE,
    gradual: bool = False,
    init_scheme: str = SIGNED_CONSTANT,
) -> MiningResult:
    """Mine a subnetwork by straight-through descent on top-k scores.

    ``schedule.target_sparsity`` is the keep fraction; with ``gradual`` the
    effective fraction steps down the envelope every ``freeze_period``
    epochs, from 1 over the first period to ``envelope((n_events - 1) *
    freeze_period)`` over the last, so no epoch trains at the target; only
    the returned mask is cut to it (ROADMAP item 3a).
    Scores are unconstrained here (no unit-interval projection): top-k only
    consumes their ranking.
    """
    weights = init_weights(spec, init_scheme, config.seed)
    initial_weights = [w.copy() for w in weights]
    scores = init_scores(spec, config.seed)
    optimizer = make_optimizer(config.optimizer, scores)
    rng = stream_rng(config.seed, STREAM_BATCHES)
    report = RunReport(epochs=schedule.total_epochs)
    selectors = [SmallestSelector() for _ in range(len(scores) if scope == LAYERWISE else 1)]
    bits = [np.zeros(w.shape, dtype=bool) for w in weights]
    effective = [w * m for w, m in zip(weights, bits)]
    scratch = [np.empty_like(p) for p in scores]

    def apply_topk():
        # weights * mask is kept across batches: a new mask rewrites only the entries it flips
        patch_flips(effective, weights, bits, topk_mask(scores, current_k, scope, report.warnings, selectors=selectors))

    def batch_loss_and_grads(x, y):
        apply_topk()
        return score_loss_and_grads(x, y, effective, weights, scores, config, scratch)

    target_k = schedule.target_sparsity
    for epoch in range(1, schedule.total_epochs + 1):
        if gradual:
            # staircase along the envelope, updated once per freeze period
            steps_done = (epoch - 1) // schedule.freeze_period
            current_k = schedule.envelope(steps_done * schedule.freeze_period)
        else:
            current_k = target_k

        train_loss = run_epoch(
            scores, batch_loss_and_grads, data.train_x, data.train_y, config.batch_size, optimizer, config.lr, rng
        )
        apply_topk()
        record_epoch(report, data, effective, epoch, current_k, train_loss)

    final_mask = [m.astype(np.float64) for m in topk_mask(scores, target_k, scope, report.warnings)]
    if any(not np.array_equal(w, w0) for w, w0 in zip(weights, initial_weights)):
        raise AssertionError("edge_popup must never update weights")
    return mining_result(weights, final_mask, report, data, inversion_scores=[p.copy() for p in scores])
