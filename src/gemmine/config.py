"""Experiment configuration: a flat UTF-8 key=value format with dotted
sections, parsed into the typed configs the library consumes.

Example::

    run.id = demo
    task.kind = blobs
    task.n = 400
    task.noise = 0.15
    net.widths = 2,16,8,2
    miner.algorithm = gem
    miner.lambda = 1e-4
    schedule.sparsity = 0.1
    schedule.epochs = 20
    schedule.freeze_period = 5
    finetune.epochs = 15
    finetune.lr = 0.1
    sanity = shuffle,reinit,invert
    seeds = 1,2,3
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .data import check_split_settings, check_synthetic_settings
from .masking import INIT_SCHEMES, SCALED_NORMAL, SIGNED_CONSTANT, NetworkSpec
from .miners.common import L1, L2, LayerRatios, MinerConfig, SparsitySchedule
from .miners.edge_popup import GLOBAL, LAYERWISE
from .miners.imp import COLD, LR_REWIND, WARM, RewindSpec, check_imp_settings
from .miners.smart_ratio import VARIANTS, check_smart_ratio_settings
from .optim import parse_optimizer
from .sanity import INVERT, SanityVariant
from .trainer import Cosine, MultiStep, TrainConfig

ALGORITHMS = ("gem", "ep", "imp", "sr")
TASK_KINDS = ("blobs", "two_moons", "idx")
TRUE_WORDS, FALSE_WORDS = ("true", "1", "yes"), ("false", "0", "no")


class ConfigError(ValueError):
    pass


def _parse(key: str, text: str, kind):
    """``kind(text)``, or a ConfigError naming ``key`` when that fails or gives a float that is NaN or infinite."""
    try:
        value = kind(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {text!r}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key}: must be a finite number, got {text!r}")
    return value


def _checked(key: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError re-raised as a ConfigError naming ``key``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_key_values(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


@dataclass(frozen=True)
class TaskConfig:
    kind: str  # blobs | two_moons | idx
    n: int = 400
    noise: float = 0.1
    seed: int = 0
    path: str | None = None
    train_limit: int | None = None
    val_fraction: float = 0.1
    classes: int | None = None


@dataclass
class ExperimentConfig:
    run_id: str
    task: TaskConfig
    spec: NetworkSpec
    algorithm: str
    miner: MinerConfig
    schedule: SparsitySchedule
    finetune: TrainConfig
    sanity: list[SanityVariant]
    seeds: list[int]
    init_scheme: str
    ep_scope: str
    ep_gradual: bool
    imp_rounds: int
    imp_prune_rate: float
    imp_epochs_per_round: int
    imp_rewind: RewindSpec
    sr_variant: str
    sr_last_layer_keep: float
    sr_tune_steps: int
    sr_tune_lr: float
    sr_reference_profile: LayerRatios | None
    sr_imp_profile: LayerRatios | None
    raw_text: str


class _Fields:
    """Checked readers over the flat key space, tracking unknown keys.

    Every error about one key starts with ``<key>: ``.
    """

    def __init__(self, values: dict[str, str]):
        self.values = dict(values)
        self.used: set[str] = set()

    def get(self, key: str, default=None) -> str | None:
        if key in self.values:
            self.used.add(key)
            return self.values[key]
        return default

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise ConfigError(f"{key}: missing required key")
        return value

    def number(self, key: str, kind, default):
        """``kind(value)``, or ``default`` when the key is absent."""
        raw = self.get(key)
        return default if raw is None else _parse(key, raw, kind)

    def choice(self, key: str, choices: tuple[str, ...], default: str | None = None) -> str:
        """The lower-cased value, which must be one of ``choices``; required when ``default`` is None."""
        raw = self.require(key) if default is None else self.get(key, default)
        value = raw.lower()
        if value not in choices:
            raise ConfigError(f"{key}: must be one of {', '.join(choices)}, got {raw!r}")
        return value

    def get_list(self, key: str) -> list[str]:
        raw = self.get(key)
        if raw is None or not raw.strip():
            return []
        return [part.strip() for part in raw.split(",") if part.strip()]

    def unknown(self) -> list[str]:
        return sorted(set(self.values) - self.used)


def _parse_rewind(key: str, text: str) -> RewindSpec:
    head, _, arg = text.partition(":")
    head = head.strip().lower()
    if head == COLD:
        return RewindSpec(COLD)
    if head == WARM:
        return _checked(key, RewindSpec, WARM, warm_epoch=_parse(key, arg, int) if arg else 1)
    if head == LR_REWIND:
        return RewindSpec(LR_REWIND)
    raise ConfigError(f"{key}: unknown rewind {text!r}")


def _parse_schedule_choice(key: str, text: str):
    head, _, args = text.partition(":")
    head = head.strip().lower()
    if head == "cosine":
        return Cosine()
    if head == "multistep":
        milestones_text, _, gamma_text = args.partition(":")
        milestones = tuple(_parse(key, m, int) for m in milestones_text.split(",") if m.strip())
        gamma = _parse(key, gamma_text, float) if gamma_text else 0.1
        return MultiStep(milestones=milestones, gamma=gamma)
    raise ConfigError(f"{key}: unknown lr schedule {text!r}")


def build_experiment_config(text: str, default_run_id: str = "run", base_dir: Path | None = None) -> ExperimentConfig:
    fields = _Fields(parse_key_values(text))

    kind = fields.choice("task.kind", TASK_KINDS)
    if kind == "idx":
        path = Path(fields.require("task.path"))
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ConfigError(f"task.path: does not exist: {path}")
        task = TaskConfig(
            kind=kind,
            seed=fields.number("task.seed", int, 0),
            path=str(path),
            train_limit=fields.number("task.train_limit", int, None),
            val_fraction=fields.number("task.val_fraction", float, 0.1),
            classes=fields.number("task.classes", int, None),
        )
        _checked("task.train_limit", check_split_settings, train_limit=task.train_limit)
        _checked("task.val_fraction", check_split_settings, val_fraction=task.val_fraction)
    else:
        task = TaskConfig(
            kind=kind,
            n=fields.number("task.n", int, 400),
            noise=fields.number("task.noise", float, 0.1),
            seed=fields.number("task.seed", int, 0),
        )
        _checked("task.n", check_synthetic_settings, task.n)

    widths = [_parse("net.widths", w, int) for w in fields.require("net.widths").split(",")]
    spec = _checked("net.widths", NetworkSpec, tuple(widths))

    algorithm = fields.choice("miner.algorithm", ALGORITHMS, "gem")
    miner = _checked(
        "miner",
        MinerConfig,
        lr=fields.number("miner.lr", float, 0.1),
        reg_weight=fields.number("miner.lambda", float, 0.0),
        regularizer=fields.choice("miner.regularizer", (L1, L2), L2),
        optimizer=_checked("miner.optimizer", parse_optimizer, fields.get("miner.optimizer", "sgd")),
        batch_size=fields.number("miner.batch_size", int, 32),
    )

    epochs = fields.number("schedule.epochs", int, 10)
    schedule = _checked(
        "schedule",
        SparsitySchedule,
        target_sparsity=fields.number("schedule.sparsity", float, 0.5),
        total_epochs=epochs,
        freeze_period=fields.number("schedule.freeze_period", int, epochs),
    )

    finetune = _checked(
        "finetune",
        TrainConfig,
        epochs=fields.number("finetune.epochs", int, 10),
        batch_size=fields.number("finetune.batch_size", int, 32),
        optimizer=_checked("finetune.optimizer", parse_optimizer, fields.get("finetune.optimizer", "sgd")),
        lr=fields.number("finetune.lr", float, 0.1),
        schedule=_parse_schedule_choice("finetune.schedule", fields.get("finetune.schedule", "cosine")),
    )

    sanity = []
    for entry in fields.get_list("sanity"):
        kind, _, extra = entry.partition(":")
        sanity.append(_checked("sanity", SanityVariant, kind=kind.lower(), seed=_parse("sanity", extra, int) if extra else 0))
    seeds = [_parse("seeds", s, int) for s in fields.get_list("seeds")] or [0]
    for key, seed in [("task.seed", task.seed)] + [("seeds", s) for s in seeds] + [("sanity", v.seed) for v in sanity]:
        if seed < 0:
            raise ConfigError(f"{key}: a seed must be >= 0, got {seed}")
    # a repeated seed or kind would write its cell's files twice, and summary.csv would disagree with them
    for key, values in (("sanity", [v.kind for v in sanity]), ("seeds", seeds)):
        if len(set(values)) < len(values):
            raise ConfigError(f"{key}: each entry must be distinct, got {', '.join(map(str, values))}")

    def profile(key: str) -> LayerRatios | None:
        parts = fields.get_list(key)
        return _checked(key, LayerRatios, tuple(_parse(key, p, float) for p in parts)) if parts else None

    # score miners operate on fixed-magnitude weights; weight trainers draw normals
    default_scheme = SIGNED_CONSTANT if algorithm in ("gem", "ep") else SCALED_NORMAL
    cfg = ExperimentConfig(
        run_id=fields.get("run.id", default_run_id),
        task=task,
        spec=spec,
        algorithm=algorithm,
        miner=miner,
        schedule=schedule,
        finetune=finetune,
        sanity=sanity,
        seeds=seeds,
        init_scheme=fields.choice("init.scheme", INIT_SCHEMES, default_scheme),
        ep_scope=fields.choice("ep.scope", (LAYERWISE, GLOBAL), LAYERWISE),
        ep_gradual=fields.choice("ep.gradual", TRUE_WORDS + FALSE_WORDS, "false") in TRUE_WORDS,
        imp_rounds=fields.number("imp.rounds", int, 3),
        imp_prune_rate=fields.number("imp.prune_rate", float, 0.2),
        imp_epochs_per_round=fields.number("imp.epochs_per_round", int, 1),
        imp_rewind=_parse_rewind("imp.rewind", fields.get("imp.rewind", COLD)),
        sr_variant=fields.choice("sr.variant", VARIANTS, "v1"),
        sr_last_layer_keep=fields.number("sr.last_layer_keep", float, 0.3),
        sr_tune_steps=fields.number("sr.tune_steps", int, 50),
        sr_tune_lr=fields.number("sr.tune_lr", float, 0.01),
        sr_reference_profile=profile("sr.reference_profile"),
        sr_imp_profile=profile("sr.imp_profile"),
        raw_text=text,
    )
    if algorithm == "gem":
        unfrozen = spec.total_params
        for _ in range(schedule.n_events):
            unfrozen = schedule.survivors(unfrozen)
        if unfrozen < 1:
            raise ConfigError(
                f"schedule.sparsity: {schedule.target_sparsity:g} leaves none of {spec.total_params} weights "
                f"unfrozen after {schedule.n_events} freeze events"
            )
    if algorithm == "imp":
        _checked("imp", check_imp_settings, cfg.imp_rounds, cfg.imp_prune_rate, cfg.imp_rewind, cfg.imp_epochs_per_round)
    if algorithm == "sr":
        sr_settings = (cfg.sr_reference_profile, cfg.sr_imp_profile, cfg.sr_last_layer_keep, cfg.sr_tune_steps)
        _checked("sr", check_smart_ratio_settings, spec, cfg.sr_variant, *sr_settings)
        if any(v.kind == INVERT for v in sanity):
            raise ConfigError("sanity: invert is undefined for sr, which produces no scores")
    unknown = fields.unknown()
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return cfg


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return build_experiment_config(path.read_text(), default_run_id=path.stem, base_dir=path.parent)
