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
from functools import partial
from pathlib import Path

from .data import check_split_settings, check_synthetic_settings
from .masking import INIT_SCHEMES, SCALED_NORMAL, SIGNED_CONSTANT, NetworkSpec
from .miners.common import L1, L2, LayerRatios, MinerConfig, SparsitySchedule
from .miners.edge_popup import GLOBAL, LAYERWISE
from .miners.imp import COLD, LR_REWIND, WARM, RewindSpec, check_imp_settings
from .miners.smart_ratio import LAST_LAYER_KEEP, TUNE_LR, TUNE_STEPS, VARIANTS, check_smart_ratio_settings
from .optim import Adam, SgdMomentum
from .sanity import INVERT, VARIANT_KINDS, SanityVariant
from .trainer import Cosine, MultiStep, TrainConfig

ALGORITHMS = ("gem", "ep", "imp", "sr")
TASK_KINDS = ("blobs", "two_moons", "idx")
TRUE_WORDS, FALSE_WORDS = ("true", "1", "yes"), ("false", "0", "no")
# the kinds of each <kind>[:<arg>[:<arg>]] value: kind -> (constructor, arguments, how many are required), see _kind
_OPTIMIZERS = {"sgd": (SgdMomentum, [(float, ("momentum",))], 0), "adam": (Adam, [(float, ("beta1", "beta2", "eps"))], 0)}
_REWINDS = {
    COLD: (partial(RewindSpec, COLD), [], 0),
    WARM: (partial(RewindSpec, WARM), [(int, ("warm_epoch",))], 0),
    LR_REWIND: (partial(RewindSpec, LR_REWIND), [], 0),
}
_SCHEDULES = {"cosine": (Cosine, [], 0), "multistep": (MultiStep, [(int, "milestones"), (float, ("gamma",))], 1)}
_SANITY_VARIANTS = {kind: (partial(SanityVariant, kind), [(int, ("seed",))], 0) for kind in VARIANT_KINDS}


class ConfigError(ValueError):
    @classmethod
    def unreadable(cls, what: str, path: Path, exc: Exception) -> ConfigError:
        """``<what> <path>: cannot be read (<reason>)``, the reason an ``OSError``'s text or ``exc`` itself."""
        return cls(f"{what} {path}: cannot be read ({exc.strerror if isinstance(exc, OSError) and exc.strerror else exc})")


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


def _choice(key: str, text: str, choices) -> str:
    """``text`` lower-cased, which must be one of ``choices``."""
    if text.lower() not in choices:
        raise ConfigError(f"{key}: must be one of {', '.join(choices)}, got {text!r}")
    return text.lower()


def _items(key: str, text: str, kind) -> list:
    """The comma-separated entries of ``text``, each stripped and read by ``_parse`` as ``kind``.

    A blank ``text`` has none; an empty entry among others is an error.
    """
    entries = [entry.strip() for entry in text.split(",")] if text.strip() else []
    if "" in entries:
        raise ConfigError(f"{key}: empty entry in {text!r}")
    return [_parse(key, entry, kind) for entry in entries]


def _kind(key: str, text: str | None, kinds: dict, absent=None):
    """A ``<kind>[:<arg>[:<arg>]]`` value, built as ``kinds[<kind>] = (make, arguments, required)`` says,
    or ``absent`` when ``text`` is None.

    The kind is one of ``kinds`` (``_choice``). Each argument is ``(type, names)``, its text read
    by ``_items`` as ``type``: the entries fill the fields ``names`` in order, or, when ``names``
    is one name, that field takes them all as a tuple. The first ``required`` arguments must be
    given; omitted ones, and omitted entries, keep ``make``'s defaults.
    """
    if text is None:
        return absent
    name, *args = (part.strip() for part in text.split(":"))
    name = _choice(key, name, kinds)
    make, params, required = kinds[name]
    if len(args) > len(params):
        most = ("no argument", "at most one argument", "at most two arguments")[len(params)]
        raise ConfigError(f"{key}: {name} takes {most}, got {text!r}")
    if len(args) < required:
        raise ConfigError(f"{key}: {name} needs {params[len(args)][1]}, got {text!r}")
    if "" in args:
        raise ConfigError(f"{key}: empty argument in {text!r}")
    values = {}
    for arg, (kind, names) in zip(args, params):
        entries = _items(key, arg, kind)
        if isinstance(names, str):
            values[names] = tuple(entries)
        elif len(entries) > len(names):
            raise ConfigError(f"{key}: {name} takes only {', '.join(names)}, got {len(entries)} values")
        else:
            values.update(zip(names, entries))
    return _checked(key, make, **values)


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
        return _choice(key, self.require(key) if default is None else self.get(key, default), choices)

    def ratios(self, key: str) -> LayerRatios | None:
        """The comma-separated keep ratios, or None when the key is absent or empty."""
        ratios = _items(key, self.get(key, ""), float)
        return _checked(key, LayerRatios, tuple(ratios)) if ratios else None

    def unknown(self) -> list[str]:
        return sorted(set(self.values) - self.used)


def with_value(text: str, key: str, value) -> str:
    """``text`` with the line ``<key> = <value>`` appended; a repeated key takes its last value, so it replaces the text's."""
    return text.removesuffix("\n") + f"\n{key} = {value}\n"


def build_experiment_config(
    text: str, default_run_id: str = "run", base_dir: Path | None = None, seed: int | None = None
) -> ExperimentConfig:
    """Parse and check config ``text``; ``seed``, when given, is appended as its ``seeds``, so ``raw_text`` names it too."""
    if seed is not None:
        text = with_value(text, "seeds", seed)
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
            seed=fields.number("task.seed", int, TaskConfig.seed),
            path=str(path),
            train_limit=fields.number("task.train_limit", int, TaskConfig.train_limit),
            val_fraction=fields.number("task.val_fraction", float, TaskConfig.val_fraction),
            classes=fields.number("task.classes", int, TaskConfig.classes),
        )
        _checked("task.train_limit", check_split_settings, train_limit=task.train_limit)
        _checked("task.val_fraction", check_split_settings, val_fraction=task.val_fraction)
    else:
        task = TaskConfig(
            kind=kind,
            n=fields.number("task.n", int, TaskConfig.n),
            noise=fields.number("task.noise", float, TaskConfig.noise),
            seed=fields.number("task.seed", int, TaskConfig.seed),
        )
        _checked("task.n", check_synthetic_settings, task.n)

    spec = _checked("net.widths", NetworkSpec, tuple(_items("net.widths", fields.require("net.widths"), int)))

    algorithm = fields.choice("miner.algorithm", ALGORITHMS, "gem")
    miner = _checked(
        "miner",
        MinerConfig,
        lr=fields.number("miner.lr", float, MinerConfig.lr),
        reg_weight=fields.number("miner.lambda", float, MinerConfig.reg_weight),
        regularizer=fields.choice("miner.regularizer", (L1, L2), MinerConfig.regularizer),
        optimizer=_kind("miner.optimizer", fields.get("miner.optimizer"), _OPTIMIZERS, MinerConfig.optimizer),
        batch_size=fields.number("miner.batch_size", int, MinerConfig.batch_size),
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
        batch_size=fields.number("finetune.batch_size", int, TrainConfig.batch_size),
        optimizer=_kind("finetune.optimizer", fields.get("finetune.optimizer"), _OPTIMIZERS, TrainConfig.optimizer),
        lr=fields.number("finetune.lr", float, TrainConfig.lr),
        schedule=_kind("finetune.schedule", fields.get("finetune.schedule"), _SCHEDULES, TrainConfig.schedule),
    )

    sanity = [_kind("sanity", entry, _SANITY_VARIANTS) for entry in _items("sanity", fields.get("sanity", ""), str)]
    seeds = _items("seeds", fields.get("seeds", ""), int) or [0]
    for key, value in [("task.seed", task.seed)] + [("seeds", s) for s in seeds] + [("sanity", v.seed) for v in sanity]:
        if value < 0:
            raise ConfigError(f"{key}: a seed must be >= 0, got {value}")
    # a repeated seed or kind would write its cell's files twice, and summary.csv would disagree with them
    for key, values in (("sanity", [v.kind for v in sanity]), ("seeds", seeds)):
        if len(set(values)) < len(values):
            raise ConfigError(f"{key}: each entry must be distinct, got {', '.join(map(str, values))}")

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
        imp_rewind=_kind("imp.rewind", fields.get("imp.rewind"), _REWINDS, RewindSpec()),
        sr_variant=fields.choice("sr.variant", VARIANTS, "v1"),
        sr_last_layer_keep=fields.number("sr.last_layer_keep", float, LAST_LAYER_KEEP),
        sr_tune_steps=fields.number("sr.tune_steps", int, TUNE_STEPS),
        sr_tune_lr=fields.number("sr.tune_lr", float, TUNE_LR),
        sr_reference_profile=fields.ratios("sr.reference_profile"),
        sr_imp_profile=fields.ratios("sr.imp_profile"),
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
        sr_settings = (cfg.sr_reference_profile, cfg.sr_imp_profile, cfg.sr_last_layer_keep, cfg.sr_tune_steps, cfg.sr_tune_lr)
        _checked("sr", check_smart_ratio_settings, spec, cfg.sr_variant, *sr_settings)
        if any(v.kind == INVERT for v in sanity):
            raise ConfigError("sanity: invert is undefined for sr, which produces no scores")
    unknown = fields.unknown()
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return cfg


def load_experiment_config(path: str | Path, seed: int | None = None) -> ExperimentConfig:
    """``build_experiment_config`` of the file ``path``; a file that cannot be read as text is a ``ConfigError`` too."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError.unreadable("config", path, exc) from exc
    return build_experiment_config(text, default_run_id=path.stem, base_dir=path.parent, seed=seed)
