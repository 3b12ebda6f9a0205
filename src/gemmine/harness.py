"""Experiment orchestration: mine, apply sanity variants, finetune the
whole matrix, and emit checkpoints, reports, and a summary table.

``run_experiment`` and the CLI subcommands build the run directory from the same three
stages: ``mine_seed``, ``sanity.variant_network`` (it computes a variant, this module writes
it) and ``finetune_checkpoint``. Every cell of a seed starts from its ``masks/seed<K>_none.tfmc``
read back, so ``run`` writes what ``mine``, then ``sanity`` and ``finetune`` of the same files
write. This module is the one writer of the layout under ``<out_root>/<run_id>/``, and the only
module that knows a report file's bytes: ``write_report`` writes a ``RunReport``'s per-epoch
``<stem>.csv`` and then ``<stem>.json``, and ``write_table`` writes every CSV, ``summary.csv`` included::

    config.snapshot                  the config text, with --seed and a relative task.path appended (run, mine)
    masks/seed<K>_<variant>.tfmc     mined network (variant none) and its sanity variants
    reports/seed<K>_<variant>_layerwise.csv / .csv / .json   a cell's finetune reports (run)
    reports/seed<K>_none_mining.csv / .json                  mining reports (run, mine)
    masks/<ckpt>_<kind>.tfmc         sanity variants of checkpoint <ckpt>.tfmc (sanity)
    reports/<ckpt>_<kind>_layerwise.csv                      (sanity)
    reports/<ckpt>_finetune_seed<K>_layerwise.csv / .csv / .json   (finetune)
    summary.csv                      algorithm,variant,seed,sparsity,pre_acc,post_acc (run, report)
    errors.log                       only when a per-seed stage failed (run)

A cell, one (seed, variant) pair, has finished when its report JSON, written last, exists.
``rebuild_summary`` is the one writer of ``summary.csv``: it lists the config's finished cells.
"""

from __future__ import annotations

import csv
import json
import math
import os
import traceback
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, ExperimentConfig, TaskConfig, parse_key_values, with_value
from .data import DatasetSplit, IdxFormatError, gen_synthetic, load_idx
from .masking import MaskedLayer, extract_mask, mask_sparsity
from .miners.common import MiningResult
from .miners.edge_popup import edge_popup
from .miners.gem import gem_mine
from .miners.imp import imp
from .miners.smart_ratio import IMP_PROFILE_VARIANTS, smart_ratio
from .sanity import layerwise_report, variant_network
from .trainer import EpochRecord, RunReport, finetune

BASE_VARIANT = "none"


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


def _nan_as_null(value):
    """``value`` with every NaN float in it, inside lists and dicts too, replaced by ``None``."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {key: _nan_as_null(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_nan_as_null(v) for v in value]
    return value


def write_report(stem: str | Path, report: RunReport) -> None:
    """Write ``report``'s records as ``<stem>.csv``, in the columns of ``EpochRecord``'s fields other than ``extra``,
    then ``report.as_dict()`` as ``<stem>.json``, renamed into place.

    The JSON is strict: an undefined (NaN) value, such as the accuracy on an empty split, is ``null``.
    """
    header = [f.name for f in fields(EpochRecord) if f.name != "extra"]
    write_table(f"{stem}.csv", header, ([getattr(r, key) for key in header] for r in report.records))
    text = json.dumps(_nan_as_null(report.as_dict()), indent=2, allow_nan=False)
    Path(f"{stem}.json.partial").write_text(text + "\n")
    os.replace(f"{stem}.json.partial", f"{stem}.json")


def write_layerwise(path: str | Path, rows: Sequence[dict]) -> None:
    """Write ``sanity.layerwise_report`` rows in the columns of their keys other than ``collapsed``."""
    header = [key for key in rows[0] if key != "collapsed"]
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
      width is not the class count (``task.classes`` when it is set, the data's otherwise);
    - ``sr``: smart-ratio v4 or v6 has no ``sr.imp_profile``. The config parses, since
      ``smart_ratio`` may be handed an IMP run's profile, but no seed of it can be mined here.
    """
    if cfg.algorithm == "sr" and cfg.sr_variant in IMP_PROFILE_VARIANTS and cfg.sr_imp_profile is None:
        raise ConfigError(f"sr: {cfg.sr_variant} needs a magnitude-pruning profile, sr.imp_profile")
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


def seed_stem(seed: int, variant: str) -> str:
    return f"seed{seed}_{variant}"


def matrix_variants(cfg: ExperimentConfig) -> list[tuple[str, int]]:
    """Each seed's cells in matrix order, as (variant, the seed it adds to the run seed): ``none``, then ``cfg.sanity``."""
    return [(BASE_VARIANT, 0)] + [(v.kind, v.seed) for v in cfg.sanity]


def open_run_dir(cfg: ExperimentConfig, out_root: str | Path, snapshot: bool = False) -> Path:
    """``<out_root>/<run_id>`` with its ``masks/`` and ``reports/``, and the config snapshot if asked."""
    run_dir = Path(out_root) / cfg.run_id
    for sub in ("masks", "reports"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    if snapshot:
        (run_dir / "config.snapshot").write_text(_snapshot_text(cfg, run_dir), encoding="utf-8")
    return run_dir


def _snapshot_text(cfg: ExperimentConfig, run_dir: Path) -> str:
    """``cfg.raw_text``, and a relative ``task.path`` appended as seen from ``run_dir``, so the snapshot loads there."""
    written = parse_key_values(cfg.raw_text).get("task.path")
    if written is None or Path(written).is_absolute():
        return cfg.raw_text
    relative = os.path.relpath(cfg.task.path, run_dir)
    return cfg.raw_text if relative == written else with_value(cfg.raw_text, "task.path", relative)


def mine_seed(cfg: ExperimentConfig, data: DatasetSplit, seed: int, run_dir: Path) -> tuple[MiningResult, Path]:
    """Mine ``seed``; write its base checkpoint and mining reports and return the checkpoint's path."""
    result = mine_for_seed(cfg, data, seed)
    stem = seed_stem(seed, BASE_VARIANT)
    checkpoint = run_dir / "masks" / f"{stem}.tfmc"
    save_checkpoint(checkpoint, result.layers)
    write_report(run_dir / "reports" / f"{stem}_mining", result.report)
    return result, checkpoint


def read_checkpoint(cfg: ExperimentConfig, path: Path) -> list[MaskedLayer]:
    """The layers of checkpoint ``path``; a ``ConfigError`` when it cannot be read or its shapes are not ``net.widths``."""
    try:
        layers = load_checkpoint(path)
    except (OSError, CheckpointError) as exc:
        raise ConfigError.unreadable("checkpoint", path, exc) from exc
    shapes, expected = [layer.weights.shape for layer in layers], list(cfg.spec.layer_shapes)
    if shapes != expected:
        raise ConfigError(f"net.widths: checkpoint {path} holds layers of shapes {shapes}, not {expected}")
    return layers


def finetune_checkpoint(
    cfg: ExperimentConfig, data: DatasetSplit, seed: int, layers: list[MaskedLayer], stem: Path, warnings: Sequence[str] = ()
) -> RunReport:
    """Finetune ``layers`` read back by ``read_checkpoint``; write ``<stem>_layerwise.csv``, then ``write_report``'s files.

    The checkpoint stores float32 weights, so finetuning what it reads back, not the network in memory,
    gives every path the same numbers. ``warnings`` go first in the report.
    """
    _, report = finetune([layer.weights for layer in layers], extract_mask(layers), data, replace(cfg.finetune, seed=seed))
    report.warnings[:0] = warnings
    write_layerwise(f"{stem}_layerwise.csv", report.layerwise)
    write_report(stem, report)
    return report


def run_experiment(cfg: ExperimentConfig, out_root: str | Path) -> Path:
    """Run the matrix; a failed seed or cell goes to ``errors.log`` and the rest still run. An earlier run's
    ``errors.log``, and a seed's cell reports before it is mined, are removed: ``summary.csv`` lists this call's cells."""
    data = load_dataset(cfg)  # first, so a config that does not fit its data leaves no run directory
    run_dir = open_run_dir(cfg, out_root, snapshot=True)
    (run_dir / "errors.log").unlink(missing_ok=True)
    errors: list[str] = []

    for seed in cfg.seeds:
        for variant, _ in matrix_variants(cfg):
            (run_dir / "reports" / f"{seed_stem(seed, variant)}.json").unlink(missing_ok=True)
        try:
            result, checkpoint = mine_seed(cfg, data, seed, run_dir)
            mining_warnings, result = result.report.warnings, None  # every cell starts from the checkpoint read back
            layers = read_checkpoint(cfg, checkpoint)
        except Exception as exc:  # noqa: BLE001 - seed isolation is the contract
            errors.append(f"seed {seed}: mining failed: {exc}\n{traceback.format_exc()}")
            continue
        for variant, variant_seed in matrix_variants(cfg):
            stem = seed_stem(seed, variant)
            checkpoint = run_dir / "masks" / f"{stem}.tfmc"
            warnings = mining_warnings if variant == BASE_VARIANT else []
            try:
                if variant != BASE_VARIANT:  # finetuned as the file reads back, float32 weights included, as the base is
                    save_checkpoint(checkpoint, variant_network(layers, variant, seed + variant_seed, cfg.init_scheme, warnings))
                cell = layers if variant == BASE_VARIANT else read_checkpoint(cfg, checkpoint)
                finetune_checkpoint(cfg, data, seed, cell, run_dir / "reports" / stem, warnings)
            except Exception as exc:  # noqa: BLE001
                errors.append(f"seed {seed}: variant {variant} failed: {exc}\n{traceback.format_exc()}")
        del layers, cell  # the next seed mines without this one's networks

    rebuild_summary(cfg, out_root)
    if errors:
        (run_dir / "errors.log").write_text("\n".join(errors) + "\n", encoding="utf-8")
    return run_dir


def finetune_file(cfg: ExperimentConfig, checkpoint: str | Path, seed: int, out_root: str | Path) -> tuple[RunReport, Path]:
    """Finetune a checkpoint file into ``reports/<ckpt>_finetune_seed<K>.*``; the report and the reports' stem."""
    checkpoint = Path(checkpoint)
    data = load_dataset(cfg)
    layers = read_checkpoint(cfg, checkpoint)  # before the run directory opens, so a bad checkpoint leaves none
    stem = open_run_dir(cfg, out_root) / "reports" / f"{checkpoint.stem}_finetune_seed{seed}"
    return finetune_checkpoint(cfg, data, seed, layers, stem), stem


def sanity_file(
    cfg: ExperimentConfig, checkpoint: str | Path, seed: int, out_root: str | Path
) -> Iterator[tuple[str, Path, float | Exception, list[str]]]:
    """Write each configured sanity variant of a checkpoint file as ``masks/<ckpt>_<kind>.tfmc``
    with its ``reports/<ckpt>_<kind>_layerwise.csv``.

    Yields ``(kind, checkpoint path, sparsity, warnings)``, the error in place
    of the sparsity for a variant that failed; the other variants are still written.
    ``invert`` ranks the scores the checkpoint holds, so it fails on a file without
    them: a sanity variant's or a smart-ratio network's.
    """
    checkpoint = Path(checkpoint)
    layers = read_checkpoint(cfg, checkpoint)
    run_dir = open_run_dir(cfg, out_root)
    for variant in cfg.sanity:
        stem = f"{checkpoint.stem}_{variant.kind}"
        path = run_dir / "masks" / f"{stem}.tfmc"
        warnings: list[str] = []
        try:
            variant_layers = variant_network(layers, variant.kind, seed + variant.seed, cfg.init_scheme, warnings)
            save_checkpoint(path, variant_layers)
        except Exception as exc:  # noqa: BLE001 - variant isolation is the contract
            yield variant.kind, path, exc, warnings
            continue
        mask = extract_mask(variant_layers)
        write_layerwise(run_dir / "reports" / f"{stem}_layerwise.csv", layerwise_report(mask))
        yield variant.kind, path, mask_sparsity(mask), warnings


def rebuild_summary(cfg: ExperimentConfig, out_root: str | Path) -> tuple[Path, int]:
    """Write ``summary.csv`` from the config's finished cells, seeds then ``matrix_variants`` in order; its path and row count.

    A cell is finished when its ``reports/seed<K>_<variant>.json`` exists; its row reads that report's accuracies
    (NaN for a ``null`` one) and ``global`` layerwise ``keep_fraction``. Raises ``FileNotFoundError`` when the run
    has no reports directory.
    """
    run_dir = Path(out_root) / cfg.run_id
    if not (run_dir / "reports").is_dir():
        raise FileNotFoundError(f"no reports directory at {run_dir / 'reports'}")
    rows: list[SummaryRow] = []
    for seed in cfg.seeds:
        for variant, _ in matrix_variants(cfg):
            path = run_dir / "reports" / f"{seed_stem(seed, variant)}.json"
            if path.exists():
                report = json.loads(path.read_text())
                sparsity = next(row["keep_fraction"] for row in report["layerwise"] if row["layer_index"] == "global")
                accuracies = (report[key] for key in ("pre_finetune_accuracy", "post_finetune_accuracy"))
                pre, post = (math.nan if a is None else a for a in accuracies)
                rows.append(SummaryRow(cfg.algorithm, variant, seed, sparsity, pre, post))
    summary = run_dir / "summary.csv"
    write_table(summary, [f.name for f in fields(SummaryRow)], map(astuple, rows))
    return summary, len(rows)


def read_summary(path: str | Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))
