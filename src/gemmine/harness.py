"""Experiment orchestration: mine, apply sanity variants, finetune the
whole matrix, and emit checkpoints, reports, and a summary table.

Output layout under ``<out_root>/<run_id>/``::

    config.snapshot          verbatim copy of the config text
    masks/seed<K>_<variant>.tfmc
    reports/seed<K>_<variant>.json / .csv / _layerwise.csv
    summary.csv              algorithm,variant,seed,sparsity,pre_acc,post_acc
    errors.log               only when a per-seed stage failed
"""

from __future__ import annotations

import csv
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, TaskConfig
from .data import DatasetSplit, gen_synthetic, load_idx
from .masking import (
    SCALED_NORMAL,
    SIGNED_CONSTANT,
    MaskedLayer,
    extract_mask,
    init_weights,
    mask_sparsity,
)
from .miners import (
    MiningResult,
    edge_popup,
    gem_mine,
    imp,
    smart_ratio,
)
from .sanity import INVERT, REINIT, SHUFFLE, invert_scores, layerwise_report, reinit_weights, shuffle_mask, write_layerwise_csv
from .trainer import TrainConfig, finetune

BASE_VARIANT = "none"
_REINIT_SEED_OFFSET = 7919
_SHUFFLE_SEED_OFFSET = 104729


@dataclass
class SummaryRow:
    algorithm: str
    variant: str
    seed: int
    sparsity: float
    pre_acc: float
    post_acc: float

    def as_list(self) -> list:
        return [
            self.algorithm,
            self.variant,
            self.seed,
            f"{self.sparsity:.12g}",
            f"{self.pre_acc:.12g}",
            f"{self.post_acc:.12g}",
        ]


def build_dataset(task: TaskConfig) -> DatasetSplit:
    if task.kind == "idx":
        assert task.path is not None
        return load_idx(
            task.path,
            train_limit=task.train_limit,
            val_fraction=task.val_fraction,
            seed=task.seed,
            expected_classes=task.classes,
        )
    return gen_synthetic(task.kind, task.n, task.noise, task.seed)


def default_init_scheme(algorithm: str) -> str:
    # score miners operate on fixed-magnitude weights; weight trainers draw normals
    return SIGNED_CONSTANT if algorithm in ("gem", "ep") else SCALED_NORMAL


def mine_for_seed(cfg: ExperimentConfig, data: DatasetSplit, seed: int) -> MiningResult:
    scheme = cfg.init_scheme or default_init_scheme(cfg.algorithm)
    miner = replace(cfg.miner, seed=seed)
    if cfg.algorithm == "gem":
        return gem_mine(data, cfg.spec, cfg.schedule, miner, init_scheme=scheme)
    if cfg.algorithm == "ep":
        return edge_popup(
            data, cfg.spec, cfg.schedule, miner, scope=cfg.ep_scope, gradual=cfg.ep_gradual, init_scheme=scheme
        )
    if cfg.algorithm == "imp":
        return imp(
            data,
            cfg.spec,
            rounds=cfg.imp_rounds,
            prune_rate=cfg.imp_prune_rate,
            rewind=cfg.imp_rewind,
            epochs_per_round=cfg.imp_epochs_per_round,
            config=miner,
            init_scheme=scheme,
        )
    if cfg.algorithm == "sr":
        return smart_ratio(
            cfg.spec,
            cfg.schedule.target_sparsity,
            cfg.sr_variant,
            seed,
            data=data,
            weights=init_weights(cfg.spec, scheme, seed),
            reference_profile=cfg.sr_reference_profile,
            imp_profile=cfg.sr_imp_profile,
            last_layer_keep=cfg.sr_last_layer_keep,
            tune_steps=cfg.sr_tune_steps,
            tune_lr=cfg.sr_tune_lr,
            init_scheme=scheme,
        )
    raise ValueError(f"unknown algorithm {cfg.algorithm!r}")


def variant_network(
    cfg: ExperimentConfig, result: MiningResult, variant: str, seed: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weights and mask for one sanity variant of a mining result.

    ``seed`` combines the run seed with the variant's own seed so that a
    pinned variant seed shifts the transformation deterministically.
    """
    weights = result.weights
    mask = result.mask
    if variant == BASE_VARIANT:
        return weights, mask
    if variant == SHUFFLE:
        return weights, shuffle_mask(mask, seed + _SHUFFLE_SEED_OFFSET)
    if variant == REINIT:
        scheme = cfg.init_scheme or default_init_scheme(cfg.algorithm)
        fresh = reinit_weights(result.layers, cfg.spec, scheme, seed + _REINIT_SEED_OFFSET)
        return [layer.weights for layer in fresh], mask
    if variant == INVERT:
        if result.inversion_scores is None:
            raise ValueError(f"{cfg.algorithm} produces no scores; score inversion undefined")
        inverted, _ = invert_scores(result.inversion_scores, mask)
        return weights, inverted
    raise ValueError(f"unknown sanity variant {variant!r}")


def run_experiment(cfg: ExperimentConfig, out_root: str | Path) -> Path:
    run_dir = Path(out_root) / cfg.run_id
    masks_dir = run_dir / "masks"
    reports_dir = run_dir / "reports"
    masks_dir.mkdir(parents=True, exist_ok=True)
    reports_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.snapshot").write_text(cfg.raw_text)

    data = build_dataset(cfg.task)
    rows: list[SummaryRow] = []
    errors: list[str] = []

    for seed in cfg.seeds:
        try:
            result = mine_for_seed(cfg, data, seed)
        except Exception as exc:  # noqa: BLE001 - seed isolation is the contract
            errors.append(f"seed {seed}: mining failed: {exc}\n{traceback.format_exc()}")
            continue
        variants = [(BASE_VARIANT, 0)] + [(v.kind, v.seed) for v in cfg.sanity]
        for variant, variant_seed in variants:
            try:
                weights, mask = variant_network(cfg, result, variant, seed + variant_seed)
                if variant == BASE_VARIANT:
                    ckpt_layers = result.layers
                else:
                    ckpt_layers = [MaskedLayer(weights=w, mask=m) for w, m in zip(weights, mask)]
                ckpt_path = masks_dir / f"seed{seed}_{variant}.tfmc"
                save_checkpoint(ckpt_path, ckpt_layers)
                loaded = load_checkpoint(ckpt_path)
                loaded_mask = extract_mask(loaded)
                sparsity = mask_sparsity(loaded_mask)

                ft_cfg: TrainConfig = replace(cfg.finetune, seed=seed)
                loaded_weights = [layer.weights for layer in loaded]
                _, report = finetune(loaded_weights, loaded_mask, data, ft_cfg)
                report.layerwise = layerwise_report(loaded_mask)
                if variant == BASE_VARIANT:
                    report.warnings = list(result.report.warnings) + report.warnings

                stem = f"seed{seed}_{variant}"
                report.save_json(reports_dir / f"{stem}.json")
                report.save_metrics_csv(reports_dir / f"{stem}.csv")
                write_layerwise_csv(reports_dir / f"{stem}_layerwise.csv", report.layerwise)
                if variant == BASE_VARIANT:
                    result.report.save_json(reports_dir / f"{stem}_mining.json")
                    result.report.save_metrics_csv(reports_dir / f"{stem}_mining.csv")

                rows.append(
                    SummaryRow(
                        algorithm=cfg.algorithm,
                        variant=variant,
                        seed=seed,
                        sparsity=sparsity,
                        pre_acc=report.pre_finetune_accuracy,
                        post_acc=report.post_finetune_accuracy,
                    )
                )
            except Exception as exc:  # noqa: BLE001
                errors.append(f"seed {seed}: variant {variant} failed: {exc}\n{traceback.format_exc()}")

    write_summary(run_dir / "summary.csv", rows)
    if errors:
        (run_dir / "errors.log").write_text("\n".join(errors) + "\n")
    return run_dir


def write_summary(path: str | Path, rows: list[SummaryRow]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["algorithm", "variant", "seed", "sparsity", "pre_acc", "post_acc"])
        for row in rows:
            writer.writerow(row.as_list())


def read_summary(path: str | Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))
