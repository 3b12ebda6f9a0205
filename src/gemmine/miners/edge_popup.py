"""edge-popup: score descent whose mask is the current top-k of the scores.

Its rule on ``common.score_descent``: the mask keeps the highest-scoring
fraction of the weights, found through a window around the last threshold
(``masking.SmallestSelector``), and the fixed factor of the effective
weights is the weights themselves. Three ablation axes on the vanilla
layerwise form: global top-k across the whole network, a gradual
keep-fraction schedule that follows the same exponential envelope as the
freezing miner, and an optional squared-norm penalty on the scores (via
``config.reg_weight``).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..data import DatasetSplit
from ..masking import SIGNED_CONSTANT, NetworkSpec, SmallestSelector
from .common import MinerConfig, MiningResult, SparsitySchedule, mining_result, score_descent

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
    the returned mask is cut to it (see
    ``test_edge_popup_gradual_trains_its_last_period_at_the_target``).
    Scores are unconstrained here (no unit-interval projection): top-k only
    consumes their ranking.
    """
    selectors = [SmallestSelector() for _ in range(len(spec.layer_shapes) if scope == LAYERWISE else 1)]

    def keep_fraction(epoch):
        if not gradual:
            return schedule.target_sparsity
        # staircase along the envelope, updated once per freeze period
        return schedule.envelope((epoch - 1) // schedule.freeze_period * schedule.freeze_period)

    def take_bits(scores, epoch, warnings):
        return topk_mask(scores, keep_fraction(epoch), scope, warnings, selectors=selectors)

    def end_epoch(weights, scores, epoch, warnings):
        return None, keep_fraction(epoch), {}

    weights, scores, report = score_descent(data, spec, schedule, config, init_scheme, take_bits, end_epoch)
    final_mask = [m.astype(np.float64) for m in topk_mask(scores, schedule.target_sparsity, scope, report.warnings)]
    return mining_result(weights, final_mask, report, data, inversion_scores=[p.copy() for p in scores])
