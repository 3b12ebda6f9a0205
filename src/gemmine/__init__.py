"""Mining sparse trainable subnetworks from randomly initialized networks.

Miners: score descent with iterative freezing (``gem_mine``), top-k score
optimization (``edge_popup``), iterative magnitude pruning (``imp``), and
engineered-ratio random masks (``smart_ratio``). Mined masks feed the
shuffle / reinit / inversion sanity suite and a masked finetuning trainer.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, build_experiment_config, load_experiment_config
from .data import DatasetSplit, gen_synthetic, load_idx, make_digit_archive
from .harness import build_dataset, run_experiment
from .masking import (
    SCALED_NORMAL,
    SIGNED_CONSTANT,
    MaskedLayer,
    NetworkSpec,
    extract_mask,
    init_scores,
    init_weights,
    mask_sparsity,
    round_scores,
)
from .miners.common import LayerRatios, MinerConfig, MiningResult, SparsitySchedule
from .miners.edge_popup import edge_popup
from .miners.gem import freeze_step, gem_mine
from .miners.imp import RewindSpec, imp
from .miners.smart_ratio import smart_ratio, tune_ratios
from .optim import Adam, SgdMomentum
from .sanity import SanityVariant, invert_scores, layerwise_report, reinit_weights, shuffle_mask
from .trainer import Cosine, MultiStep, RunReport, TrainConfig, evaluate, finetune, lr_at

__all__ = [
    "load_checkpoint",
    "save_checkpoint",
    "ExperimentConfig",
    "build_experiment_config",
    "load_experiment_config",
    "DatasetSplit",
    "gen_synthetic",
    "load_idx",
    "make_digit_archive",
    "build_dataset",
    "run_experiment",
    "SCALED_NORMAL",
    "SIGNED_CONSTANT",
    "MaskedLayer",
    "NetworkSpec",
    "extract_mask",
    "init_scores",
    "init_weights",
    "mask_sparsity",
    "round_scores",
    "LayerRatios",
    "MinerConfig",
    "MiningResult",
    "RewindSpec",
    "SparsitySchedule",
    "edge_popup",
    "freeze_step",
    "gem_mine",
    "imp",
    "smart_ratio",
    "tune_ratios",
    "Adam",
    "SgdMomentum",
    "SanityVariant",
    "invert_scores",
    "layerwise_report",
    "reinit_weights",
    "shuffle_mask",
    "Cosine",
    "MultiStep",
    "RunReport",
    "TrainConfig",
    "evaluate",
    "finetune",
    "lr_at",
]
