from .common import LayerRatios, MinerConfig, MiningResult, SparsitySchedule
from .edge_popup import GLOBAL, LAYERWISE, edge_popup, topk_mask
from .gem import freeze_step, gem_mine
from .imp import COLD, LR_REWIND, WARM, RewindSpec, imp, prune_by_magnitude
from .smart_ratio import VARIANTS, sample_ratio_mask, smart_ratio, smooth_ratios, tune_ratios

__all__ = [
    "LayerRatios",
    "MinerConfig",
    "MiningResult",
    "SparsitySchedule",
    "GLOBAL",
    "LAYERWISE",
    "edge_popup",
    "topk_mask",
    "freeze_step",
    "gem_mine",
    "COLD",
    "LR_REWIND",
    "WARM",
    "RewindSpec",
    "imp",
    "prune_by_magnitude",
    "VARIANTS",
    "sample_ratio_mask",
    "smart_ratio",
    "smooth_ratios",
    "tune_ratios",
]
