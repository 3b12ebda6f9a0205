"""The four benchmark workloads on the 784-128-10 digit task.

Each workload is built in two steps. ``setup`` writes the digit archive
for the workload seed, loads it and builds the experiment configs; it is
timed as set-up. ``run`` is the timed part and calls the library exactly
as a user would. The checks that the outputs are right (``digest`` and
``invariant_errors``) run after the timer stops.

All library functions are looked up through their modules at call time,
so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

WORKLOADS = ("gem_mine", "ep_ablation", "matrix_gem", "baselines")

# The workload seed picks one of this many archives, so that every seed
# has a stored reference hash.
ARCHIVE_VARIANTS = 16


def lib(name: str):
    # importlib, not attribute access: gemmine.miners re-exports functions
    # that shadow the submodules of the same name
    return importlib.import_module(f"gemmine.{name}")


@dataclass(frozen=True)
class Sizes:
    widths: str = "784,128,10"
    archive_train: int = 1250
    archive_test: int = 400
    rows: int = 1000  # training rows for gem_mine and baselines
    matrix_rows: int = 500  # training rows for matrix_gem
    ep_rows: int = 256  # training rows for ep_ablation
    gem_epochs: int = 30
    gem_period: int = 5
    ep_epochs: int = 24
    ep_period: int = 4
    finetune_epochs: int = 15
    imp_rounds: int = 19
    tune_steps: int = 50


FULL = Sizes()
TINY = Sizes(
    widths="784,16,10",
    archive_train=160,
    archive_test=60,
    rows=64,
    matrix_rows=64,
    ep_rows=64,
    gem_epochs=4,
    gem_period=2,
    ep_epochs=4,
    ep_period=2,
    finetune_epochs=2,
    imp_rounds=3,
    tune_steps=5,
)

TUNE_BATCH = 64  # tune_ratios' default batch size
IMP_PRUNE_RATE = 0.2


def config_texts(workload: str, sizes: Sizes, data_dir: Path) -> dict[str, str]:
    """The experiment configs of one workload, as config-file text."""
    common = (
        f"task.kind = idx\ntask.path = {data_dir}\ntask.val_fraction = 0.1\n"
        f"net.widths = {sizes.widths}\nminer.batch_size = 32\nseeds = 1\n"
    )
    if workload in ("gem_mine", "matrix_gem"):
        # acceptance criterion 1 / scripts/run_image_experiment.py, one seed
        rows = sizes.matrix_rows if workload == "matrix_gem" else sizes.rows
        text = common + (
            f"run.id = {workload}\ntask.train_limit = {rows}\n"
            "miner.algorithm = gem\nminer.lr = 0.5\nminer.lambda = 1e-6\nschedule.sparsity = 0.05\n"
            f"schedule.epochs = {sizes.gem_epochs}\nschedule.freeze_period = {sizes.gem_period}\n"
            f"finetune.epochs = {sizes.finetune_epochs}\nfinetune.lr = 0.1\nfinetune.batch_size = 32\n"
            "sanity = shuffle,reinit,invert\n"
        )
        return {workload: text}
    if workload == "ep_ablation":
        # acceptance criterion 6: vanilla layerwise, then global + gradual
        base = common + (
            f"task.train_limit = {sizes.ep_rows}\nminer.algorithm = ep\nminer.lr = 0.1\n"
            f"schedule.sparsity = 0.02\nschedule.epochs = {sizes.ep_epochs}\n"
            f"schedule.freeze_period = {sizes.ep_period}\n"
        )
        return {
            "ep_layerwise": base + "run.id = ep_layerwise\nep.scope = layerwise\nep.gradual = false\n",
            "ep_global_gradual": base + "run.id = ep_global_gradual\nep.scope = global\nep.gradual = true\n",
        }
    if workload == "baselines":
        # acceptance criterion 3's IMP, then smart-ratio v6 from its profile
        imp_text = common + (
            f"run.id = imp_cold\ntask.train_limit = {sizes.rows}\nminer.algorithm = imp\nminer.lr = 0.1\n"
            f"imp.rounds = {sizes.imp_rounds}\nimp.prune_rate = {IMP_PRUNE_RATE}\n"
            "imp.epochs_per_round = 1\nimp.rewind = cold\n"
        )
        target = (1.0 - IMP_PRUNE_RATE) ** sizes.imp_rounds
        sr_text = common + (
            f"run.id = sr_v6\ntask.train_limit = {sizes.rows}\nminer.algorithm = sr\n"
            f"schedule.sparsity = {target!r}\nsr.variant = v6\nsr.tune_steps = {sizes.tune_steps}\n"
            "sr.tune_lr = 0.01\n"
        )
        return {"imp_cold": imp_text, "sr_v6": sr_text}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


@dataclass
class Prepared:
    data: object  # gemmine.data.DatasetSplit
    configs: dict  # name -> ExperimentConfig
    samples: int  # training rows taken through forward and backward


def setup(workload: str, sizes: Sizes, seed: int, work_dir: Path) -> Prepared:
    """Archive generation, ``load_idx`` and config build: the timed set-up."""
    data_dir = lib("data").make_digit_archive(
        work_dir / "digits",
        n_train=sizes.archive_train,
        n_test=sizes.archive_test,
        seed=seed % ARCHIVE_VARIANTS,
        noise=1.0,
    )
    texts = config_texts(workload, sizes, data_dir)
    build = lib("config").build_experiment_config
    configs = {name: build(text, default_run_id=name) for name, text in texts.items()}
    task = next(iter(configs.values())).task
    data = lib("data").load_idx(task.path, train_limit=task.train_limit, val_fraction=task.val_fraction, seed=task.seed)
    rows = data.train_x.shape[0]
    if workload == "gem_mine":
        samples = configs[workload].schedule.total_epochs * rows
    elif workload == "ep_ablation":
        samples = sum(cfg.schedule.total_epochs for cfg in configs.values()) * rows
    elif workload == "matrix_gem":
        cfg = configs[workload]
        variants = 1 + len(cfg.sanity)
        samples = len(cfg.seeds) * (cfg.schedule.total_epochs + variants * cfg.finetune.epochs) * rows
    else:
        imp_cfg, sr_cfg = configs["imp_cold"], configs["sr_v6"]
        samples = imp_cfg.imp_rounds * imp_cfg.imp_epochs_per_round * rows + sr_cfg.sr_tune_steps * min(TUNE_BATCH, rows)
    return Prepared(data=data, configs=configs, samples=samples)


@dataclass
class Outcome:
    masks: dict  # name -> list of per-layer 0/1 arrays
    summary: bytes  # summary.csv for matrix_gem, an equivalent table otherwise
    pre_acc: list
    post_acc: list
    extra: dict  # what invariant_errors needs


def run(workload: str, prep: Prepared, out_dir: Path) -> Outcome:
    """The timed part of one unit."""
    if workload == "gem_mine":
        cfg = prep.configs[workload]
        result = lib("miners.gem").gem_mine(prep.data, cfg.spec, cfg.schedule, replace(cfg.miner, seed=cfg.seeds[0]))
        return _miner_outcome({"gem": result})
    if workload == "ep_ablation":
        ep = lib("miners.edge_popup").edge_popup
        results = {
            name: ep(
                prep.data, cfg.spec, cfg.schedule, replace(cfg.miner, seed=cfg.seeds[0]),
                scope=cfg.ep_scope, gradual=cfg.ep_gradual,
            )
            for name, cfg in prep.configs.items()
        }
        return _miner_outcome(results)
    if workload == "matrix_gem":
        run_dir = lib("harness").run_experiment(prep.configs[workload], out_dir)
        return _matrix_outcome(run_dir)
    imp_cfg, sr_cfg = prep.configs["imp_cold"], prep.configs["sr_v6"]
    seed = imp_cfg.seeds[0]
    imp_result = lib("miners.imp").imp(
        prep.data, imp_cfg.spec, rounds=imp_cfg.imp_rounds, prune_rate=imp_cfg.imp_prune_rate,
        rewind=imp_cfg.imp_rewind, epochs_per_round=imp_cfg.imp_epochs_per_round,
        config=replace(imp_cfg.miner, seed=seed), init_scheme=lib("masking").SCALED_NORMAL,
    )
    profile = lib("miners.common").LayerRatios(tuple(float(np.mean(m)) for m in imp_result.mask))
    scheme = lib("masking").SCALED_NORMAL
    sr_result = lib("miners.smart_ratio").smart_ratio(
        sr_cfg.spec, sr_cfg.schedule.target_sparsity, sr_cfg.sr_variant, seed, data=prep.data,
        weights=lib("masking").init_weights(sr_cfg.spec, scheme, seed), imp_profile=profile,
        last_layer_keep=sr_cfg.sr_last_layer_keep, tune_steps=sr_cfg.sr_tune_steps,
        tune_lr=sr_cfg.sr_tune_lr, init_scheme=scheme,
    )
    return _miner_outcome({"imp_cold": imp_result, "sr_v6": sr_result})


def _miner_outcome(results: dict) -> Outcome:
    masking = lib("masking")
    masks = {name: masking.extract_mask(r.layers) for name, r in results.items()}
    pre = [r.report.pre_finetune_accuracy for r in results.values()]
    lines = [f"{name},{masking.mask_sparsity(masks[name]):.12g},{acc:.12g}" for name, acc in zip(results, pre)]
    extra = {name: r for name, r in results.items()}
    return Outcome(masks=masks, summary=("\n".join(lines) + "\n").encode(), pre_acc=pre, post_acc=[], extra=extra)


def _matrix_outcome(run_dir: Path) -> Outcome:
    load, extract = lib("checkpoint").load_checkpoint, lib("masking").extract_mask
    masks = {path.stem: extract(load(path)) for path in sorted((run_dir / "masks").glob("*.tfmc"))}
    rows = lib("harness").read_summary(run_dir / "summary.csv")
    base = [row for row in rows if row["variant"] == "none"]
    errors_log = run_dir / "errors.log"
    return Outcome(
        masks=masks,
        summary=(run_dir / "summary.csv").read_bytes(),
        pre_acc=[float(row["pre_acc"]) for row in base],
        post_acc=[float(row["post_acc"]) for row in base],
        extra={"rows": rows, "errors": errors_log.read_text() if errors_log.exists() else ""},
    )


def digest(outcome: Outcome) -> dict[str, str]:
    """sha256 of the mask bits and of the summary table."""
    h = hashlib.sha256()
    for name in sorted(outcome.masks):
        h.update(name.encode())
        for m in outcome.masks[name]:
            h.update(np.asarray(m.shape, dtype="<i8").tobytes())
            h.update(np.packbits(np.asarray(m).reshape(-1) != 0.0).tobytes())
    return {"mask": h.hexdigest(), "summary": hashlib.sha256(outcome.summary).hexdigest()}


def invariant_errors(workload: str, prep: Prepared, outcome: Outcome) -> list[str]:
    """Seed-independent checks of the outputs, from the acceptance criteria."""
    errors = []
    accs = outcome.pre_acc + outcome.post_acc
    if not accs or not all(0.0 <= a <= 1.0 for a in accs):
        errors.append(f"accuracy outside [0, 1] or missing: {accs}")
    kept = {name: [int(np.sum(m)) for m in mask] for name, mask in outcome.masks.items()}
    if workload in ("gem_mine", "matrix_gem"):
        cfg = prep.configs[workload]
        total = cfg.spec.total_params
        low = cfg.schedule.target_sparsity - cfg.schedule.n_events / total
        for name, counts in kept.items():
            if not low <= sum(counts) / total <= cfg.schedule.target_sparsity:
                errors.append(f"{name}: sparsity {sum(counts) / total} misses the target landing band")
    if workload == "matrix_gem":
        cfg = prep.configs[workload]
        if outcome.extra["errors"]:
            errors.append(f"errors.log: {outcome.extra['errors'].strip()}")
        expected = len(cfg.seeds) * (1 + len(cfg.sanity))
        if len(outcome.extra["rows"]) != expected or len(kept) != expected:
            errors.append(f"{len(outcome.extra['rows'])} summary rows, {len(kept)} masks; expected {expected}")
        for seed in cfg.seeds:
            per_layer = {tuple(c) for name, c in kept.items() if name.startswith(f"seed{seed}_")}
            if len(per_layer) != 1:
                errors.append(f"seed {seed}: sanity variants change per-layer kept counts: {per_layer}")
    if workload == "ep_ablation":
        for name, cfg in prep.configs.items():
            sizes = [o * i for o, i in cfg.spec.layer_shapes]
            keep = cfg.schedule.target_sparsity
            if cfg.ep_scope == "global":
                want = max(1, math.floor(keep * sum(sizes)))
            else:
                want = sum(max(1, math.floor(keep * s)) for s in sizes)
            if sum(kept[name]) != want:
                errors.append(f"{name}: keeps {sum(kept[name])} weights, expected {want}")
    if workload == "baselines":
        imp_cfg = prep.configs["imp_cold"]
        want = imp_cfg.spec.total_params
        for _ in range(imp_cfg.imp_rounds):
            want -= int(imp_cfg.imp_prune_rate * want + 0.5)
        if sum(kept["imp_cold"]) != want:
            errors.append(f"imp_cold: keeps {sum(kept['imp_cold'])} weights, expected {want}")
        rounds = outcome.extra["imp_cold"].round_masks
        for previous, current in zip(rounds, rounds[1:]):
            if any(np.any(c > p) for p, c in zip(previous, current)):
                errors.append("imp_cold: round masks are not nested")
                break
        ratios = outcome.extra["sr_v6"].layer_ratios.ratios
        want_sr = [max(1, math.floor(r * o * i)) for r, (o, i) in zip(ratios, imp_cfg.spec.layer_shapes)]
        if kept["sr_v6"] != want_sr:
            errors.append(f"sr_v6: per-layer kept {kept['sr_v6']}, expected {want_sr}")
    return errors
