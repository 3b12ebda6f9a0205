"""Experiment orchestration: mine, apply sanity variants, finetune the
whole matrix, and emit checkpoints, reports, and a summary table.

``run_experiment`` and the CLI subcommands build the run directory from the
same three stages: ``mine_seed``, ``write_variant`` and
``finetune_checkpoint``. This module is the one writer of the layout under
``<out_root>/<run_id>/``, and the only module that knows a report file's
bytes: ``write_report`` writes a ``RunReport`` as ``<stem>.json`` and its
per-epoch ``<stem>.csv``, and ``write_table`` writes every CSV, the
layerwise tables (``write_layerwise``) and ``summary.csv`` included::

    config.snapshot                  verbatim copy of the config text (run, mine)
    masks/seed<K>_<variant>.tfmc     mined network (variant none) and its sanity variants
    reports/seed<K>_<variant>.json / .csv / _layerwise.csv   finetune reports (run)
    reports/seed<K>_none_mining.json / .csv                  mining reports (run, mine)
    masks/<ckpt>_<kind>.tfmc         sanity variants of checkpoint <ckpt>.tfmc (sanity)
    reports/<ckpt>_<kind>_layerwise.csv                      (sanity)
    reports/<ckpt>_finetune_seed<K>.json / .csv / _layerwise.csv   (finetune)
    summary.csv                      algorithm,variant,seed,sparsity,pre_acc,post_acc (run, report)
    errors.log                       only when a per-seed stage failed (run)
"""

from __future__ import annotations

import csv
import json
import traceback
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, ExperimentConfig, TaskConfig
from .data import DatasetSplit, IdxFormatError, gen_synthetic, load_idx
from .masking import MaskedLayer, extract_mask, mask_sparsity
from .miners import MiningResult, edge_popup, gem_mine, imp, smart_ratio
from .sanity import INVERT, REINIT, SHUFFLE, invert_scores, layerwise_report, reinit_weights, shuffle_mask
from .trainer import RunReport, finetune

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


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV of ``header`` and ``rows``: each float as ``f"{v:.12g}"``, any other value as ``csv`` writes it."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)


def write_report(stem: str | Path, report: RunReport) -> None:
    """Write ``report`` whole as ``<stem>.json`` and its per-epoch columns as ``<stem>.csv``."""
    Path(f"{stem}.json").write_text(json.dumps(report.as_dict(), indent=2) + "\n")
    epochs = ([r.epoch, r.sparsity, r.train_loss, r.val_accuracy] for r in report.records)
    write_table(f"{stem}.csv", ["epoch", "sparsity", "train_loss", "val_accuracy"], epochs)


def write_layerwise(path: str | Path, rows: Sequence[dict]) -> None:
    """Write ``sanity.layerwise_report`` rows, all but their ``collapsed`` flag."""
    header = ["layer_index", "params", "kept", "keep_fraction"]
    write_table(path, header, ([row[key] for key in header] for row in rows))


def build_dataset(task: TaskConfig) -> DatasetSplit:
    if task.kind == "idx":
        assert task.path is not None
        return load_idx(task.path, train_limit=task.train_limit, val_fraction=task.val_fraction, seed=task.seed)
    return gen_synthetic(task.kind, task.n, task.noise, task.seed)


def load_dataset(cfg: ExperimentConfig) -> DatasetSplit:
    """``build_dataset(cfg.task)``, checked against the rest of ``cfg`` once, before any seed runs.

    A config that does not fit its data raises a ``ConfigError`` that starts with the key to change:
    - ``task.path``: the directory lacks an IDX file, one is malformed, or the splits disagree;
    - ``task.val_fraction`` (``task.train_limit`` when it is set): the archive leaves no training row;
    - ``task.classes``: a train, validation or test label is not below it;
    - ``net.widths``: the input width is not the feature count, or the output
      width is not the class count (``task.classes`` when it is set, the data's otherwise).
    """
    try:
        data = build_dataset(cfg.task)
    except (FileNotFoundError, IdxFormatError) as exc:
        raise ConfigError(f"task.path: {exc}") from exc
    except ValueError as exc:  # the split settings passed the config, so the archive is too small for them
        key = "task.val_fraction" if cfg.task.train_limit is None else "task.train_limit"
        raise ConfigError(f"{key}: too large for the archive's training images ({exc})") from exc
    classes = data.n_classes if cfg.task.classes is None else cfg.task.classes
    for split, labels in (("train", data.train_y), ("val", data.val_y), ("test", data.test_y)):
        if labels.size and labels.max() >= classes:
            raise ConfigError(f"task.classes: {split} label {labels.max()} is not below {classes}")
    widths = cfg.spec.widths
    if widths[0] != data.n_features:
        raise ConfigError(f"net.widths: input width {widths[0]} is not the {data.n_features} features of the data")
    if widths[-1] != classes:
        raise ConfigError(f"net.widths: output width {widths[-1]} is not the {classes} classes of the data")
    return data


def mine_for_seed(cfg: ExperimentConfig, data: DatasetSplit, seed: int) -> MiningResult:
    miner = replace(cfg.miner, seed=seed)
    if cfg.algorithm == "gem":
        return gem_mine(data, cfg.spec, cfg.schedule, miner, init_scheme=cfg.init_scheme)
    if cfg.algorithm == "ep":
        return edge_popup(
            data, cfg.spec, cfg.schedule, miner, scope=cfg.ep_scope, gradual=cfg.ep_gradual, init_scheme=cfg.init_scheme
        )
    if cfg.algorithm == "imp":
        return imp(
            data, cfg.spec, rounds=cfg.imp_rounds, prune_rate=cfg.imp_prune_rate, rewind=cfg.imp_rewind,
            epochs_per_round=cfg.imp_epochs_per_round, config=miner, init_scheme=cfg.init_scheme,
        )
    if cfg.algorithm == "sr":
        return smart_ratio(
            cfg.spec, cfg.schedule.target_sparsity, cfg.sr_variant, seed, data=data,
            reference_profile=cfg.sr_reference_profile, imp_profile=cfg.sr_imp_profile,
            last_layer_keep=cfg.sr_last_layer_keep, tune_steps=cfg.sr_tune_steps, tune_lr=cfg.sr_tune_lr,
            init_scheme=cfg.init_scheme,
        )
    raise ValueError(f"unknown algorithm {cfg.algorithm!r}")


def variant_network(
    cfg: ExperimentConfig, result: MiningResult, variant: str, seed: int, warnings: list[str]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weights and mask for one sanity variant of a mining result.

    ``seed`` combines the run seed with the variant's own seed so that a
    pinned variant seed shifts the transformation deterministically.
    The variant's warnings (a degenerate inversion) are appended to ``warnings``.
    """
    weights = result.weights
    mask = result.mask
    if variant == SHUFFLE:
        return weights, shuffle_mask(mask, seed + _SHUFFLE_SEED_OFFSET)
    if variant == REINIT:
        fresh = reinit_weights(result.layers, cfg.spec, cfg.init_scheme, seed + _REINIT_SEED_OFFSET)
        return [layer.weights for layer in fresh], mask
    if variant == INVERT:
        if result.inversion_scores is None:
            raise ValueError(f"{cfg.algorithm} produces no scores; score inversion undefined")
        inverted, inversion_warnings = invert_scores(result.inversion_scores, mask)
        warnings.extend(inversion_warnings)
        return weights, inverted
    raise ValueError(f"unknown sanity variant {variant!r}")


def seed_stem(seed: int, variant: str) -> str:
    return f"seed{seed}_{variant}"


def parse_seed_stem(stem: str) -> tuple[int, str]:
    """``(seed, variant)`` of a ``seed_stem`` name."""
    seed_text, _, variant = stem.partition("_")
    return int(seed_text.removeprefix("seed")), variant


def open_run_dir(cfg: ExperimentConfig, out_root: str | Path, snapshot: bool = False) -> Path:
    """``<out_root>/<run_id>`` with its ``masks/`` and ``reports/``, and the config snapshot if asked."""
    run_dir = Path(out_root) / cfg.run_id
    for sub in ("masks", "reports"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    if snapshot:
        (run_dir / "config.snapshot").write_text(cfg.raw_text)
    return run_dir


def mine_seed(cfg: ExperimentConfig, data: DatasetSplit, seed: int, run_dir: Path) -> tuple[MiningResult, Path]:
    """Mine ``seed``; write its base checkpoint and mining reports and return the checkpoint's path."""
    result = mine_for_seed(cfg, data, seed)
    stem = seed_stem(seed, BASE_VARIANT)
    checkpoint = run_dir / "masks" / f"{stem}.tfmc"
    save_checkpoint(checkpoint, result.layers)
    write_report(run_dir / "reports" / f"{stem}_mining", result.report)
    return result, checkpoint


def write_variant(
    cfg: ExperimentConfig, result: MiningResult, variant: str, seed: int, path: Path, warnings: list[str]
) -> list[np.ndarray]:
    """Write the checkpoint of one sanity variant of ``result`` to ``path``, add its warnings to ``warnings``; return its mask."""
    weights, mask = variant_network(cfg, result, variant, seed, warnings)
    save_checkpoint(path, [MaskedLayer(weights=w, mask=m) for w, m in zip(weights, mask)])
    return mask


def finetune_checkpoint(
    cfg: ExperimentConfig, data: DatasetSplit, seed: int, checkpoint: Path, stem: Path, variant: str, warnings: Sequence[str] = ()
) -> SummaryRow:
    """Finetune the network read back from ``checkpoint``; write ``<stem>.json``, ``.csv`` and ``_layerwise.csv``.

    The checkpoint stores float32 weights, so finetuning what it reads back,
    not the network in memory, gives every path the same numbers.
    ``warnings`` go first in the report.
    """
    layers = load_checkpoint(checkpoint)
    mask = extract_mask(layers)
    _, report = finetune([layer.weights for layer in layers], mask, data, replace(cfg.finetune, seed=seed))
    report.warnings[:0] = warnings
    write_report(stem, report)
    write_layerwise(f"{stem}_layerwise.csv", report.layerwise)
    return SummaryRow(cfg.algorithm, variant, seed, mask_sparsity(mask), report.pre_finetune_accuracy, report.post_finetune_accuracy)


def run_experiment(cfg: ExperimentConfig, out_root: str | Path) -> Path:
    run_dir = open_run_dir(cfg, out_root, snapshot=True)
    data = load_dataset(cfg)
    rows: list[SummaryRow] = []
    errors: list[str] = []

    for seed in cfg.seeds:
        try:
            result, _ = mine_seed(cfg, data, seed, run_dir)
        except Exception as exc:  # noqa: BLE001 - seed isolation is the contract
            errors.append(f"seed {seed}: mining failed: {exc}\n{traceback.format_exc()}")
            continue
        for variant, variant_seed in [(BASE_VARIANT, 0)] + [(v.kind, v.seed) for v in cfg.sanity]:
            stem = seed_stem(seed, variant)
            checkpoint = run_dir / "masks" / f"{stem}.tfmc"
            warnings = result.report.warnings if variant == BASE_VARIANT else []
            try:
                if variant != BASE_VARIANT:
                    write_variant(cfg, result, variant, seed + variant_seed, checkpoint, warnings)
                rows.append(finetune_checkpoint(cfg, data, seed, checkpoint, run_dir / "reports" / stem, variant, warnings))
            except Exception as exc:  # noqa: BLE001
                errors.append(f"seed {seed}: variant {variant} failed: {exc}\n{traceback.format_exc()}")

    write_summary(run_dir / "summary.csv", rows)
    if errors:
        (run_dir / "errors.log").write_text("\n".join(errors) + "\n")
    return run_dir


def finetune_file(cfg: ExperimentConfig, checkpoint: str | Path, seed: int, out_root: str | Path) -> tuple[SummaryRow, Path]:
    """Finetune a checkpoint file into ``reports/<ckpt>_finetune_seed<K>.*``; the row and the reports' stem."""
    checkpoint = Path(checkpoint)
    stem = open_run_dir(cfg, out_root) / "reports" / f"{checkpoint.stem}_finetune_seed{seed}"
    row = finetune_checkpoint(cfg, load_dataset(cfg), seed, checkpoint, stem, checkpoint.stem)
    return row, stem


def sanity_file(
    cfg: ExperimentConfig, checkpoint: str | Path, seed: int, out_root: str | Path
) -> Iterator[tuple[str, Path, float | Exception, list[str]]]:
    """Write each configured sanity variant of a checkpoint file as ``masks/<ckpt>_<kind>.tfmc``
    with its ``reports/<ckpt>_<kind>_layerwise.csv``.

    Yields ``(kind, checkpoint path, sparsity, warnings)``, the error in place
    of the sparsity for a variant that failed; the other variants are still written.
    Only Gem-Miner's checkpoints hold scores, so ``invert`` fails for the others.
    """
    checkpoint = Path(checkpoint)
    layers = load_checkpoint(checkpoint)
    scores = [layer.scores for layer in layers] if cfg.algorithm == "gem" else None
    result = MiningResult(layers=layers, report=RunReport(epochs=0), inversion_scores=scores)
    run_dir = open_run_dir(cfg, out_root)
    for variant in cfg.sanity:
        stem = f"{checkpoint.stem}_{variant.kind}"
        path = run_dir / "masks" / f"{stem}.tfmc"
        warnings: list[str] = []
        try:
            mask = write_variant(cfg, result, variant.kind, seed + variant.seed, path, warnings)
        except Exception as exc:  # noqa: BLE001 - variant isolation is the contract
            yield variant.kind, path, exc, warnings
            continue
        write_layerwise(run_dir / "reports" / f"{stem}_layerwise.csv", layerwise_report(mask))
        yield variant.kind, path, mask_sparsity(mask), warnings


def rebuild_summary(cfg: ExperimentConfig, out_root: str | Path) -> tuple[Path, int]:
    """Rewrite ``summary.csv`` from the finetune reports of a run directory; its path and row count.

    Reports without a ``seed<K>_<variant>.tfmc`` checkpoint of the same name
    (mining reports, ``finetune_file`` output) are not matrix cells and are
    skipped. Raises ``FileNotFoundError`` when the run has no reports.
    """
    run_dir = Path(out_root) / cfg.run_id
    reports_dir = run_dir / "reports"
    if not reports_dir.is_dir():
        raise FileNotFoundError(f"no reports directory at {reports_dir}")
    rows: list[SummaryRow] = []
    for path in sorted(reports_dir.glob("seed*_*.json")):
        checkpoint = run_dir / "masks" / f"{path.stem}.tfmc"
        if path.stem.endswith("_mining") or not checkpoint.exists():
            continue
        seed, variant = parse_seed_stem(path.stem)
        payload = json.loads(path.read_text())
        sparsity = mask_sparsity(extract_mask(load_checkpoint(checkpoint)))
        rows.append(SummaryRow(cfg.algorithm, variant, seed, sparsity, payload["pre_finetune_accuracy"], payload["post_finetune_accuracy"]))
    # matrix order: config seeds first, each base variant then the configured sanity kinds
    variant_order = {BASE_VARIANT: 0, **{v.kind: i for i, v in enumerate(cfg.sanity, start=1)}}
    seed_order = {seed: i for i, seed in enumerate(cfg.seeds)}
    rows.sort(key=lambda r: (seed_order.get(r.seed, len(seed_order)), r.seed, variant_order.get(r.variant, 99), r.variant))
    write_summary(run_dir / "summary.csv", rows)
    return run_dir / "summary.csv", len(rows)


def write_summary(path: str | Path, rows: list[SummaryRow]) -> None:
    write_table(path, [f.name for f in fields(SummaryRow)], map(astuple, rows))


def read_summary(path: str | Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))
