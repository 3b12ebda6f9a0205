"""Command-line front end.

Subcommands:
    run       mine + sanity variants + finetune matrix, emit summary.csv
    mine      run the configured miner for one or more seeds
    finetune  finetune a saved mask checkpoint
    sanity    apply configured sanity transformations to a checkpoint
    report    rewrite summary.csv from the config's finished cells

``main`` loads the config once, ``--seed`` included, and hands it to the
subcommand, which calls the harness stage that writes its files; this
module only parses arguments, prints and sets the exit code. A config
error, wherever it is raised, is one ``error:`` line and exit code 2.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_experiment_config
from .harness import finetune_file, load_dataset, mine_seed, open_run_dir, rebuild_summary, run_experiment, sanity_file
from .masking import mask_sparsity


def cmd_run(cfg, args) -> int:
    run_dir = run_experiment(cfg, args.out_dir)
    print(f"run complete: {run_dir / 'summary.csv'}")
    errors = run_dir / "errors.log"
    if errors.exists():
        print(f"some stages failed, see {errors}", file=sys.stderr)
        return 1
    return 0


def cmd_mine(cfg, args) -> int:
    data = load_dataset(cfg)
    run_dir = open_run_dir(cfg, args.out_dir, snapshot=True)
    for seed in cfg.seeds:
        result, checkpoint = mine_seed(cfg, data, seed, run_dir)
        print(f"seed {seed}: sparsity {mask_sparsity(result.mask):.6f}, checkpoint {checkpoint}")
    return 0


def cmd_finetune(cfg, args) -> int:
    report, stem = finetune_file(cfg, args.checkpoint, cfg.seeds[0], args.out_dir)
    print(f"finetuned {args.checkpoint}: pre {report.pre_finetune_accuracy:.4f} -> post {report.post_finetune_accuracy:.4f} ({stem}.json)")
    return 0


def cmd_sanity(cfg, args) -> int:
    if not cfg.sanity:
        print("no sanity variants configured", file=sys.stderr)
        return 1
    status = 0
    for kind, checkpoint, outcome, warnings in sanity_file(cfg, args.checkpoint, cfg.seeds[0], args.out_dir):
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if isinstance(outcome, Exception):
            print(f"variant {kind} failed: {outcome}", file=sys.stderr)
            status = 1
        else:
            print(f"{kind}: sparsity {outcome:.6f}, checkpoint {checkpoint}")
    return status


def cmd_report(cfg, args) -> int:
    try:
        summary, n_rows = rebuild_summary(cfg, args.out_dir)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"wrote {summary} ({n_rows} rows)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="gemmine", description="Sparse subnetwork mining and validation")
    sub = parser.add_subparsers(dest="command", required=True)

    subcommands = [
        (cmd_run, "run", "full mine/sanity/finetune matrix"),
        (cmd_mine, "mine", "mine masks only"),
        (cmd_finetune, "finetune", "finetune a mask checkpoint"),
        (cmd_sanity, "sanity", "apply sanity transformations to a checkpoint"),
        (cmd_report, "report", "rebuild summary.csv from run artifacts"),
    ]
    for fn, name, help_text in subcommands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key=value experiment config file")
        if fn is not cmd_report:
            p.add_argument("--seed", type=int, default=None, help="override the config seed list")
        p.add_argument("--out-dir", default="out", help="output root directory")
        if fn in (cmd_finetune, cmd_sanity):
            p.add_argument("--checkpoint", required=True)
        p.set_defaults(fn=fn, seed=None)

    args = parser.parse_args(argv)
    try:
        return args.fn(load_experiment_config(args.config, seed=args.seed), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
