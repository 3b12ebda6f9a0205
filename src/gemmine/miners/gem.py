"""Gem-Miner: score descent whose mask is the rounded scores of the unfrozen weights.

Its rule on ``common.score_descent``: the scores are clipped to [0, 1]
after every step and a weight is kept where its score is at least 0.5 and
it is not frozen. Every ``freeze_period`` epochs the globally smallest
unfrozen scores are frozen, and set to 0 at that event, which leaves
``schedule.survivors(unfrozen)``, ``floor(keep_factor * unfrozen)``, of
the unfrozen weights unfrozen. The unfrozen fraction so stays at or below
the exponential envelope. Each event floors again, so the final unfrozen
count can fall short of ``floor(target * N)`` by up to one weight per
event (acceptance criterion 1 allows ``n_events / N``). The fixed factor
of the effective weights becomes ``w * freeze``. The optimizer still
steps every score, so SGD momentum can move a frozen score afterwards;
the mask ignores it, since its freeze bit is 0.
"""

from __future__ import annotations

import numpy as np

from ..data import DatasetSplit
from ..masking import SIGNED_CONSTANT, NetworkSpec, mask_sparsity, round_scores, select_smallest_across
from .common import MinerConfig, MiningResult, SparsitySchedule, check_layer_collapse, mining_result, score_descent


def freeze_step(scores: list[np.ndarray], freeze: list[np.ndarray], schedule: SparsitySchedule) -> int:
    """Freeze the globally smallest unfrozen scores, in place.

    ``freeze`` holds one boolean array per layer of ``scores``, True where unfrozen.
    The survivor count is ``schedule.survivors(unfrozen)``, which keeps the
    unfrozen fraction at or below the envelope; each event can overshoot
    the envelope downward by at most one weight. Equal scores are frozen in
    ``select_smallest_across``'s order; only the unfrozen scores are ranked.
    The scores frozen by this call are set to 0; frozen weights never thaw.
    Returns the number of weights frozen.
    """
    total_unfrozen = sum(int(np.count_nonzero(f)) for f in freeze)
    n_freeze = total_unfrozen - schedule.survivors(total_unfrozen)
    if n_freeze < 1:
        return 0
    for p, f, hit in zip(scores, freeze, select_smallest_across(scores, n_freeze, eligible=freeze)):
        f[hit] = False
        p[hit] = 0.0
    return n_freeze


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
    # 1 byte per weight; a float times True has the bits of it times 1.0
    freeze = [np.ones(shape, dtype=bool) for shape in spec.layer_shapes]

    def current_mask(scores):
        return [round_scores(p) & f for p, f in zip(scores, freeze)]

    def take_bits(scores, epoch, warnings):
        # each optimizer step is projected onto [0, 1] before the scores are used
        for p in scores:
            np.clip(p, 0.0, 1.0, out=p)
        return [round_scores(p) for p in scores]

    def end_epoch(weights, scores, epoch, warnings):
        base = None
        if epoch % schedule.freeze_period == 0:
            freeze_step(scores, freeze, schedule)
            base = [w * f for w, f in zip(weights, freeze)]
            check_layer_collapse(current_mask(scores), warnings, when=f"after freeze at epoch {epoch}")
        return base, mask_sparsity(freeze), {"mask_sparsity": mask_sparsity(current_mask(scores))}

    weights, scores, report = score_descent(data, spec, schedule, config, init_scheme, take_bits, end_epoch)
    return mining_result(weights, current_mask(scores), report, data, scores=scores)
