"""edge-popup: score descent whose mask is the current top-k of the scores.

Its rule on ``common.score_descent``: the mask keeps the highest-scoring
fraction of the weights, found through a window around the last threshold
(``masking.LargestSelector``), and the fixed factor of the effective
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
from ..masking import SIGNED_CONSTANT, LargestSelector, NetworkSpec
from .common import MinerConfig, MiningResult, SparsitySchedule, keep_at_least_one, mining_result, score_descent

LAYERWISE = "layerwise"
GLOBAL = "global"


def topk_mask(
    scores: Sequence[np.ndarray], keep_fraction: float, scope: str, warnings: list[str] | None = None,
    *, selectors: Sequence[LargestSelector] | None = None,
) -> list[np.ndarray]:
    """Boolean masks keeping the largest scores, a ``keep_fraction`` of them, per layer or globally.

    Largest first, and equal scores kept lowest flat index first; globally,
    lowest (layer, flat index) first. That is ``select_smallest_across`` on
    the negated scores, but the scores are read as they are, not negated.
    ``selectors``, one ``LargestSelector`` per layer (or one for the global
    scope), carry a run's previous thresholds from call to call; while the
    scores move little, only the scores near the last threshold are
    partitioned. Without them, fresh ones make the full selection. A keep
    count that floors to 0 (per layer, or over the network) is raised to 1,
    and ``warnings``, when given, notes each such clamp once.
    """
    if not (0.0 < keep_fraction <= 1.0):
        raise ValueError(f"keep fraction must be in (0, 1], got {keep_fraction}")
    if scope == LAYERWISE:
        selectors = selectors or [LargestSelector() for _ in scores]
        masks = []
        for i, p in enumerate(scores):
            kept = keep_at_least_one(math.floor(keep_fraction * p.size), warnings, f"layerwise top-k clamped to 1 weight in layer {i}")
            masks += selectors[i]([p], kept)
        return masks
    if scope == GLOBAL:
        kept = keep_at_least_one(math.floor(keep_fraction * sum(p.size for p in scores)), warnings, "global top-k clamped to 1 weight")
        (select,) = selectors or [LargestSelector()]
        return select(scores, kept)
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
    consumes their ranking. Every mask, the returned one included, comes
    from the run's own ``LargestSelector`` windows, so when k is the last
    batch's, as in every non-gradual run, the returned mask partitions only
    the scores near the last threshold; the chosen set does not depend on
    the windows.
    """
    selectors = [LargestSelector() for _ in range(len(spec.layer_shapes) if scope == LAYERWISE else 1)]

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
    final_mask = topk_mask(scores, schedule.target_sparsity, scope, report.warnings, selectors=selectors)
    return mining_result(weights, final_mask, report, data, scores=scores)
