"""Command-line front end.

Subcommands:
    run       mine + sanity variants + finetune matrix, emit summary.csv
    mine      run the configured miner for one or more seeds
    finetune  finetune a saved mask checkpoint
    sanity    apply configured sanity transformations to a checkpoint
    report    rebuild summary.csv from a completed run directory
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, load_experiment_config
from .harness import (
    BASE_VARIANT,
    SummaryRow,
    build_dataset,
    mine_for_seed,
    run_experiment,
    variant_network,
    write_summary,
)
from .masking import MaskedLayer, extract_mask, mask_sparsity
from .miners import MiningResult
from .sanity import layerwise_report, write_layerwise_csv
from .trainer import RunReport, finetune


def _load(args) -> ExperimentConfig:
    return load_experiment_config(args.config)


def _run_dir(cfg: ExperimentConfig, args) -> Path:
    run_dir = Path(args.out_dir) / cfg.run_id
    (run_dir / "masks").mkdir(parents=True, exist_ok=True)
    (run_dir / "reports").mkdir(parents=True, exist_ok=True)
    return run_dir


def cmd_run(args) -> int:
    cfg = _load(args)
    if args.seed is not None:
        cfg.seeds = [args.seed]
    run_dir = run_experiment(cfg, args.out_dir)
    print(f"run complete: {run_dir / 'summary.csv'}")
    errors = run_dir / "errors.log"
    if errors.exists():
        print(f"some stages failed, see {errors}", file=sys.stderr)
        return 1
    return 0


def cmd_mine(args) -> int:
    cfg = _load(args)
    seeds = [args.seed] if args.seed is not None else cfg.seeds
    run_dir = _run_dir(cfg, args)
    (run_dir / "config.snapshot").write_text(cfg.raw_text)
    data = build_dataset(cfg.task)
    for seed in seeds:
        result = mine_for_seed(cfg, data, seed)
        ckpt = run_dir / "masks" / f"seed{seed}_{BASE_VARIANT}.tfmc"
        save_checkpoint(ckpt, result.layers)
        stem = run_dir / "reports" / f"seed{seed}_{BASE_VARIANT}_mining"
        result.report.save_json(stem.with_suffix(".json"))
        result.report.save_metrics_csv(stem.with_suffix(".csv"))
        sparsity = mask_sparsity(result.mask)
        print(f"seed {seed}: sparsity {sparsity:.6f}, checkpoint {ckpt}")
    return 0


def cmd_finetune(args) -> int:
    cfg = _load(args)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    layers = load_checkpoint(args.checkpoint)
    mask = extract_mask(layers)
    data = build_dataset(cfg.task)
    _, report = finetune([l.weights for l in layers], mask, data, replace(cfg.finetune, seed=seed))
    report.layerwise = layerwise_report(mask)
    run_dir = _run_dir(cfg, args)
    stem = run_dir / "reports" / (Path(args.checkpoint).stem + f"_finetune_seed{seed}")
    report.save_json(stem.with_suffix(".json"))
    report.save_metrics_csv(stem.with_suffix(".csv"))
    print(
        f"finetuned {args.checkpoint}: pre {report.pre_finetune_accuracy:.4f} "
        f"-> post {report.post_finetune_accuracy:.4f} ({stem}.json)"
    )
    return 0


def cmd_sanity(args) -> int:
    cfg = _load(args)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    layers = load_checkpoint(args.checkpoint)
    result = MiningResult(
        layers=layers,
        report=RunReport(epochs=0),
        inversion_scores=[l.scores.copy() for l in layers],
    )
    run_dir = _run_dir(cfg, args)
    stem = Path(args.checkpoint).stem
    if not cfg.sanity:
        print("no sanity variants configured", file=sys.stderr)
        return 1
    for variant in cfg.sanity:
        weights, new_mask = variant_network(cfg, result, variant.kind, seed + variant.seed)
        ckpt = run_dir / "masks" / f"{stem}_{variant.kind}.tfmc"
        save_checkpoint(ckpt, [MaskedLayer(weights=w, mask=m) for w, m in zip(weights, new_mask)])
        write_layerwise_csv(
            run_dir / "reports" / f"{stem}_{variant.kind}_layerwise.csv",
            layerwise_report(new_mask),
        )
        print(f"{variant.kind}: sparsity {mask_sparsity(new_mask):.6f}, checkpoint {ckpt}")
    return 0


def cmd_report(args) -> int:
    cfg = _load(args)
    run_dir = Path(args.out_dir) / cfg.run_id
    reports_dir = run_dir / "reports"
    masks_dir = run_dir / "masks"
    if not reports_dir.is_dir():
        print(f"no reports directory at {reports_dir}", file=sys.stderr)
        return 1
    import json

    rows: list[SummaryRow] = []
    for path in sorted(reports_dir.glob("seed*_*.json")):
        if path.stem.endswith("_mining"):
            continue
        ckpt = masks_dir / f"{path.stem}.tfmc"
        if not ckpt.exists():  # not a matrix report (e.g. ad-hoc finetune output)
            continue
        seed_text, _, variant = path.stem.partition("_")
        seed = int(seed_text.removeprefix("seed"))
        payload = json.loads(path.read_text())
        sparsity = mask_sparsity(extract_mask(load_checkpoint(ckpt)))
        rows.append(
            SummaryRow(
                algorithm=cfg.algorithm,
                variant=variant,
                seed=seed,
                sparsity=sparsity,
                pre_acc=payload["pre_finetune_accuracy"],
                post_acc=payload["post_finetune_accuracy"],
            )
        )
    variant_order = {BASE_VARIANT: 0}
    for i, variant in enumerate(cfg.sanity, start=1):
        variant_order[variant.kind] = i
    rows.sort(key=lambda r: (cfg.seeds.index(r.seed) if r.seed in cfg.seeds else len(cfg.seeds), r.seed, variant_order.get(r.variant, 99), r.variant))
    write_summary(run_dir / "summary.csv", rows)
    print(f"wrote {run_dir / 'summary.csv'} ({len(rows)} rows)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="gemmine", description="Sparse subnetwork mining and validation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="key=value experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed list")
        p.add_argument("--out-dir", default="out", help="output root directory")

    p_run = sub.add_parser("run", help="full mine/sanity/finetune matrix")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_mine = sub.add_parser("mine", help="mine masks only")
    common(p_mine)
    p_mine.set_defaults(fn=cmd_mine)

    p_ft = sub.add_parser("finetune", help="finetune a mask checkpoint")
    common(p_ft)
    p_ft.add_argument("--checkpoint", required=True)
    p_ft.set_defaults(fn=cmd_finetune)

    p_san = sub.add_parser("sanity", help="apply sanity transformations to a checkpoint")
    common(p_san)
    p_san.add_argument("--checkpoint", required=True)
    p_san.set_defaults(fn=cmd_sanity)

    p_rep = sub.add_parser("report", help="rebuild summary.csv from run artifacts")
    common(p_rep)
    p_rep.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
