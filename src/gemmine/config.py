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

from dataclasses import dataclass, field
from pathlib import Path

from .masking import INIT_SCHEMES, NetworkSpec
from .miners.common import L1, L2, LayerRatios, MinerConfig, SparsitySchedule
from .miners.edge_popup import GLOBAL, LAYERWISE
from .miners.imp import COLD, LR_REWIND, WARM, RewindSpec, check_imp_settings
from .miners.smart_ratio import VARIANTS, check_smart_ratio_settings
from .optim import parse_optimizer
from .sanity import SanityVariant
from .trainer import Cosine, MultiStep, TrainConfig

ALGORITHMS = ("gem", "ep", "imp", "sr")


class ConfigError(ValueError):
    pass


def _parse(key: str, text: str, kind):
    """``kind(text)``, or a ConfigError naming ``key`` when that fails."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {text!r}") from exc


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
    init_scheme: str | None = None
    ep_scope: str = LAYERWISE
    ep_gradual: bool = False
    imp_rounds: int = 3
    imp_prune_rate: float = 0.2
    imp_epochs_per_round: int = 1
    imp_rewind: RewindSpec = field(default_factory=RewindSpec)
    sr_variant: str = "v1"
    sr_last_layer_keep: float = 0.3
    sr_tune_steps: int = 50
    sr_tune_lr: float = 0.01
    sr_reference_profile: LayerRatios | None = None
    sr_imp_profile: LayerRatios | None = None
    raw_text: str = ""


class _Fields:
    """Typed accessors over the flat key space, tracking unknown keys."""

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
            raise ConfigError(f"missing required key {key!r}")
        return value

    def _convert(self, key: str, kind, default):
        raw = self.get(key)
        return default if raw is None else _parse(key, raw, kind)

    def get_int(self, key: str, default: int | None = None) -> int | None:
        return self._convert(key, int, default)

    def get_float(self, key: str, default: float | None = None) -> float | None:
        return self._convert(key, float, default)

    def get_bool(self, key: str, default: bool = False) -> bool:
        raw = self.get(key)
        if raw is None:
            return default
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")

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
    if head in (LR_REWIND, "lr"):
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

    kind = fields.require("task.kind").lower()
    if kind in ("idx", "idx_dataset"):
        path_text = fields.require("task.path")
        path = Path(path_text)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ConfigError(f"task.path does not exist: {path}")
        task = TaskConfig(
            kind="idx",
            seed=fields.get_int("task.seed", 0),
            path=str(path),
            train_limit=fields.get_int("task.train_limit", None),
            val_fraction=fields.get_float("task.val_fraction", 0.1),
            classes=fields.get_int("task.classes", None),
        )
    elif kind in ("blobs", "two_moons", "two-moons"):
        task = TaskConfig(
            kind="two_moons" if kind.startswith("two") else "blobs",
            n=fields.get_int("task.n", 400),
            noise=fields.get_float("task.noise", 0.1),
            seed=fields.get_int("task.seed", 0),
        )
    else:
        raise ConfigError(f"task.kind must be blobs, two_moons, or idx, got {kind!r}")

    widths = [_parse("net.widths", w, int) for w in fields.require("net.widths").split(",")]
    spec = _checked("net.widths", NetworkSpec, tuple(widths))

    algorithm = fields.get("miner.algorithm", "gem").lower()
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"miner.algorithm must be one of {ALGORITHMS}, got {algorithm!r}")

    regularizer = (fields.get("miner.regularizer", L2) or L2).lower()
    if regularizer not in (L1, L2):
        raise ConfigError(f"miner.regularizer must be l1 or l2, got {regularizer!r}")
    miner = _checked(
        "miner",
        MinerConfig,
        lr=fields.get_float("miner.lr", 0.1),
        reg_weight=fields.get_float("miner.lambda", 0.0),
        regularizer=regularizer,
        optimizer=_checked("miner.optimizer", parse_optimizer, fields.get("miner.optimizer", "sgd")),
        batch_size=fields.get_int("miner.batch_size", 32),
    )

    schedule = _checked(
        "schedule",
        SparsitySchedule,
        target_sparsity=fields.get_float("schedule.sparsity", 0.5),
        total_epochs=fields.get_int("schedule.epochs", 10),
        freeze_period=fields.get_int("schedule.freeze_period", fields.get_int("schedule.epochs", 10)),
    )

    finetune = _checked(
        "finetune",
        TrainConfig,
        epochs=fields.get_int("finetune.epochs", 10),
        batch_size=fields.get_int("finetune.batch_size", 32),
        optimizer=_checked("finetune.optimizer", parse_optimizer, fields.get("finetune.optimizer", "sgd")),
        lr=fields.get_float("finetune.lr", 0.1),
        schedule=_parse_schedule_choice("finetune.schedule", fields.get("finetune.schedule", "cosine")),
    )

    sanity = []
    for entry in fields.get_list("sanity"):
        kind, _, extra = entry.partition(":")
        sanity.append(_checked("sanity", SanityVariant, kind=kind.lower(), seed=_parse("sanity", extra, int) if extra else 0))
    seeds = [_parse("seeds", s, int) for s in fields.get_list("seeds")] or [0]
    # a repeated seed or kind would write its cell's files twice, and summary.csv would disagree with them
    for key, values in (("sanity", [v.kind for v in sanity]), ("seeds", seeds)):
        if len(set(values)) < len(values):
            raise ConfigError(f"{key}: each entry must be distinct, got {', '.join(map(str, values))}")

    init_scheme = fields.get("init.scheme")
    if init_scheme is not None and init_scheme not in INIT_SCHEMES:
        raise ConfigError(f"init.scheme must be one of {INIT_SCHEMES}, got {init_scheme!r}")

    sr_variant = fields.get("sr.variant", "v1").lower()
    if sr_variant not in VARIANTS:
        raise ConfigError(f"sr.variant must be one of {VARIANTS}, got {sr_variant!r}")

    def profile(key: str) -> LayerRatios | None:
        parts = fields.get_list(key)
        return _checked(key, LayerRatios, tuple(_parse(key, p, float) for p in parts)) if parts else None

    ep_scope = fields.get("ep.scope", LAYERWISE).lower()
    if ep_scope not in (LAYERWISE, GLOBAL):
        raise ConfigError(f"ep.scope must be layerwise or global, got {ep_scope!r}")

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
        init_scheme=init_scheme,
        ep_scope=ep_scope,
        ep_gradual=fields.get_bool("ep.gradual", False),
        imp_rounds=fields.get_int("imp.rounds", 3),
        imp_prune_rate=fields.get_float("imp.prune_rate", 0.2),
        imp_epochs_per_round=fields.get_int("imp.epochs_per_round", 1),
        imp_rewind=_parse_rewind("imp.rewind", fields.get("imp.rewind", "cold")),
        sr_variant=sr_variant,
        sr_last_layer_keep=fields.get_float("sr.last_layer_keep", 0.3),
        sr_tune_steps=fields.get_int("sr.tune_steps", 50),
        sr_tune_lr=fields.get_float("sr.tune_lr", 0.01),
        sr_reference_profile=profile("sr.reference_profile"),
        sr_imp_profile=profile("sr.imp_profile"),
        raw_text=text,
    )
    if algorithm == "imp":
        _checked("imp", check_imp_settings, cfg.imp_rounds, cfg.imp_prune_rate, cfg.imp_rewind, cfg.imp_epochs_per_round)
    if algorithm == "sr":
        sr_settings = (cfg.sr_reference_profile, cfg.sr_imp_profile, cfg.sr_last_layer_keep, cfg.sr_tune_steps)
        _checked("sr", check_smart_ratio_settings, spec, sr_variant, *sr_settings)
    unknown = fields.unknown()
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return cfg


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return build_experiment_config(path.read_text(), default_run_id=path.stem, base_dir=path.parent)
