import ast
import json
import math
import re
import tempfile
import tokenize
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gemmine.harness as harness
from gemmine.checkpoint import load_checkpoint, save_checkpoint
from gemmine.cli import main as cli_main
from gemmine.config import ConfigError, build_experiment_config, parse_key_values
from gemmine.data import make_digit_archive, write_idx
from gemmine.masking import SCALED_NORMAL, SIGNED_CONSTANT, MaskedLayer, extract_mask, mask_sparsity
from gemmine.miners import smooth_ratios
from gemmine.miners.imp import WARM
from gemmine.optim import SgdMomentum
from gemmine.trainer import MultiStep, finetune

BASE_CFG = """
# tiny end-to-end experiment
run.id = tiny
task.kind = blobs
task.n = 80
task.noise = 0.3
task.seed = 4
net.widths = 2,10,2
miner.algorithm = gem
miner.lr = 0.1
miner.lambda = 1e-4
miner.batch_size = 16
schedule.sparsity = 0.3
schedule.epochs = 4
schedule.freeze_period = 2
finetune.epochs = 3
finetune.lr = 0.1
finetune.batch_size = 16
sanity = shuffle,reinit,invert
seeds = 1,2
"""

# BASE_CFG's sanity variants without invert, which sr has no scores for
NO_INVERT = "sanity = shuffle,reinit\n"


def test_parse_key_values_and_errors():
    values = parse_key_values("a.b = 1\n# comment\n\nc=hello # trailing\n")
    assert values == {"a.b": "1", "c": "hello"}
    with pytest.raises(ConfigError, match="key=value"):
        parse_key_values("not a pair\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_key_values("= 3\n")


def test_build_experiment_config_full():
    cfg = build_experiment_config(BASE_CFG, default_run_id="fallback")
    assert cfg.run_id == "tiny"
    assert cfg.task.kind == "blobs" and cfg.task.n == 80
    assert cfg.spec.widths == (2, 10, 2)
    assert cfg.miner.reg_weight == pytest.approx(1e-4)
    assert cfg.miner.optimizer == SgdMomentum()
    assert cfg.schedule.target_sparsity == 0.3
    assert [v.kind for v in cfg.sanity] == ["shuffle", "reinit", "invert"]
    assert cfg.seeds == [1, 2]


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        build_experiment_config(BASE_CFG + "\nmystery.key = 1\n")


def test_config_parses_imp_and_schedules():
    text = """
task.kind = blobs
net.widths = 2,6,2
miner.algorithm = imp
imp.rounds = 4
imp.prune_rate = 0.25
imp.rewind = warm:2
imp.epochs_per_round = 5
finetune.epochs = 130
finetune.schedule = multistep:80,120:0.2
seeds = 0
"""
    cfg = build_experiment_config(text)
    assert cfg.imp_rewind.kind == WARM and cfg.imp_rewind.warm_epoch == 2
    assert cfg.finetune.schedule == MultiStep(milestones=(80, 120), gamma=0.2)


@pytest.mark.parametrize(
    "line, key",
    [
        ("seeds = 1,b", "seeds"),
        ("net.widths = 2,a,2", "net.widths"),
        ("sanity = shuffle:x", "sanity"),
        ("imp.rewind = warm:z", "imp.rewind"),
        ("finetune.schedule = multistep:3,x", "finetune.schedule"),
        ("finetune.schedule = multistep:3:q", "finetune.schedule"),
        ("sr.imp_profile = 0.5,q", "sr.imp_profile"),
        ("sr.reference_profile = q", "sr.reference_profile"),
    ],
)
def test_config_number_errors_name_the_key(line, key):
    # a repeated key takes its last value
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: cannot parse"):
        build_experiment_config(BASE_CFG + line + "\n")


@pytest.mark.parametrize(
    "line, key, message",
    [
        ("sanity = bogus", "sanity", "sanity variant must be one of"),
        # NaN passes every "x <= 0" style range check, and Gem-Miner then mines an all-zero mask
        ("miner.lr = nan", "miner.lr", "must be a finite number, got 'nan'"),
        ("miner.lr = inf", "miner.lr", "must be a finite number, got 'inf'"),
        ("miner.lambda = nan", "miner.lambda", "must be a finite number, got 'nan'"),
        ("finetune.lr = nan", "finetune.lr", "must be a finite number, got 'nan'"),
        ("sr.tune_lr = nan", "sr.tune_lr", "must be a finite number, got 'nan'"),
        ("miner.algorithm = sr\nsr.tune_lr = -inf", "sr.tune_lr", "must be a finite number, got '-inf'"),
        ("task.noise = nan", "task.noise", "must be a finite number, got 'nan'"),
        ("finetune.schedule = multistep:2:nan", "finetune.schedule", "must be a finite number, got 'nan'"),
        # caught when the config is read, not by run_experiment outside its per-seed isolation
        ("task.n = 5", "task.n", "gen_synthetic needs n >= 10, got 5"),
        ("task.n = -3", "task.n", "gen_synthetic needs n >= 10, got -3"),
        ("net.widths = 2", "net.widths", "at least one hidden layer"),
        ("schedule.sparsity = 2", "schedule", "target sparsity must be in (0, 1]"),
        ("schedule.freeze_period = 3\nschedule.epochs = 10", "schedule", "freeze period 3 must divide"),
        ("miner.lr = 0", "miner", "learning rate must be positive"),
        ("miner.batch_size = 0", "miner", "batch size must be positive"),
        ("miner.optimizer = foo", "miner.optimizer", "unknown optimizer"),
        ("miner.optimizer = sgd:abc", "miner.optimizer", "could not convert"),
        ("imp.rewind = warm:0", "imp.rewind", "warm rewind epoch must be >= 1"),
        ("miner.algorithm = imp\nimp.rounds = 0", "imp", "rounds must be >= 1, got 0"),
        ("miner.algorithm = imp\nimp.prune_rate = 1.5", "imp", "prune rate must be in (0, 1), got 1.5"),
        ("miner.algorithm = imp\nimp.epochs_per_round = -1", "imp", "epochs_per_round must be >= 0, got -1"),
        (
            "miner.algorithm = imp\nimp.rewind = warm:3\nimp.epochs_per_round = 1",
            "imp",
            "warm rewind epoch 3 must be < epochs per round 1",
        ),
        ("finetune.epochs = -1", "finetune", "invalid TrainConfig"),
        ("finetune.schedule = multistep:5,2", "finetune", "milestones must be strictly increasing"),
        ("finetune.schedule = multistep:-1,2", "finetune", "milestones must be strictly increasing and in [0, epochs), got (-1, 2)"),
        ("finetune.schedule = multistep:2:-1", "finetune", "multistep gamma must be > 0, got -1.0"),
        ("finetune.schedule = multistep:2:0", "finetune", "multistep gamma must be > 0, got 0.0"),
        ("miner.optimizer = sgd:-3", "miner.optimizer", "sgd momentum must be in [0, 1), got -3.0"),
        ("finetune.optimizer = sgd:1", "finetune.optimizer", "sgd momentum must be in [0, 1), got 1.0"),
        ("miner.optimizer = adam:1.5,0.999", "miner.optimizer", "adam betas must be in [0, 1), got 1.5, 0.999"),
        ("finetune.optimizer = adam:0.9,-0.1", "finetune.optimizer", "adam betas must be in [0, 1), got 0.9, -0.1"),
        ("finetune.optimizer = adam:0.9,0.999,0", "finetune.optimizer", "adam eps must be > 0, got 0.0"),
        # every Adam step would be 0, so the scores would never move
        ("miner.optimizer = adam:0.9,0.999,inf", "miner.optimizer", "adam eps must be finite, got inf"),
        ("miner.optimizer = adam:0.9,0.999,1e-8,7", "miner.optimizer", "adam takes only beta1, beta2, eps, got 4 values"),
        ("finetune.optimizer = sgd:0.9,0.5", "finetune.optimizer", "sgd takes only momentum, got 2 values"),
        ("sr.imp_profile = 0.5,2", "sr.imp_profile", "keep ratios must be in (0, 1]"),
        ("miner.algorithm = sr\nsr.variant = v2", "sr", "v2 needs a reference mining profile"),
        ("miner.algorithm = sr\nsr.variant = v5", "sr", "v5 needs a reference mining profile"),
        (
            "miner.algorithm = sr\nsr.variant = v4\nsr.imp_profile = 0.5,0.5,0.5",
            "sr",
            "v4 needs a magnitude-pruning profile of 2 ratios, got 3",
        ),
        (
            "miner.algorithm = sr\nsr.variant = v6\nsr.imp_profile = 0.5\nsr.tune_steps = 3",
            "sr",
            "v6 needs a magnitude-pruning profile of 2 ratios, got 1",
        ),
        (
            "miner.algorithm = sr\nsr.variant = v5\nsr.reference_profile = 0.5,0.5\nsr.tune_steps = 0",
            "sr",
            "tune steps must be >= 1, got 0",
        ),
        (
            "miner.algorithm = sr\nsr.variant = v6\nsr.imp_profile = 0.5,0.5\nsr.tune_steps = 0",
            "sr",
            "tune steps must be >= 1, got 0",
        ),
        ("miner.algorithm = sr\nsr.last_layer_keep = 0", "sr", "last layer keep must be in (0, 1], got 0.0"),
        ("seeds = 1,1", "seeds", "each entry must be distinct, got 1, 1"),
        ("sanity = shuffle,shuffle:5", "sanity", "each entry must be distinct, got shuffle, shuffle"),
        # each of these used to fail every seed's variant cell into errors.log
        ("miner.algorithm = sr\nsanity = invert", "sanity", "invert is undefined for sr, which produces no scores"),
        ("sanity = reinit:-8000\nseeds = 1", "sanity", "a seed must be >= 0, got -8000"),
        # every seed would fail with "finetune: mask keeps no weights"
        ("schedule.sparsity = 1e-9", "schedule.sparsity", "1e-09 leaves none of 40 weights unfrozen after 2 freeze events"),
    ],
)
def test_config_range_errors_name_the_key(line, key, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: .*{re.escape(message)}"):
        build_experiment_config(BASE_CFG + line + "\n")


@pytest.mark.parametrize(
    "line",
    [
        # unused settings: v1 reads no magnitude-pruning profile, v4 no tune steps
        "miner.algorithm = sr\nsr.imp_profile = 0.5,0.5,0.5\nsr.tune_steps = 0",
        "miner.algorithm = sr\nsr.variant = v4\nsr.imp_profile = 0.5,0.5\nsr.tune_steps = 0",
        # v2 and v5 read only the first and last entries of the reference profile
        "miner.algorithm = sr\nsr.variant = v2\nsr.reference_profile = 0.5",
        # the profile may come from an IMP run made after the config is read
        "miner.algorithm = sr\nsr.variant = v6",
        # smart-ratio settings are not checked for the other miners
        "sr.last_layer_keep = 0",
    ],
)
def test_config_accepts_smart_ratio_settings_that_run(line):
    build_experiment_config(BASE_CFG + line + "\n" + NO_INVERT)


@pytest.mark.parametrize(
    "line, message",
    [
        ("task.train_limit = -5", "train_limit must be >= 1, got -5"),
        # an empty training split would stop the run in build_dataset, before any seed
        ("task.train_limit = 0", "train_limit must be >= 1, got 0"),
        ("task.val_fraction = -0.5", "val_fraction must be in [0, 1), got -0.5"),
        ("task.val_fraction = 1", "val_fraction must be in [0, 1), got 1.0"),
    ],
)
def test_config_rejects_a_bad_idx_split(tmp_path, line, message):
    make_digit_archive(tmp_path / "digits", n_train=20, n_test=10, seed=0)
    text = f"task.kind = idx\ntask.path = digits\nnet.widths = 784,4,10\nseeds = 0\n{line}\n"
    key = line.partition(" =")[0]
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: {re.escape(message)}"):
        build_experiment_config(text, base_dir=tmp_path)


GEM_2_4_2 = "task.kind = blobs\nnet.widths = 2,4,2\nschedule.epochs = 2\nschedule.freeze_period = 1\nseeds = 1\n"


def test_gem_config_checks_the_freeze_arithmetic_freeze_step_runs():
    # 16 -> 3 -> 0 unfrozen weights
    with pytest.raises(ConfigError, match=r"^schedule\.sparsity: 0\.06 leaves none of 16 weights unfrozen"):
        build_experiment_config(GEM_2_4_2 + "schedule.sparsity = 0.06\n")
    # edge-popup clamps its top-k to one weight per layer, so such a target runs
    build_experiment_config(GEM_2_4_2 + "schedule.sparsity = 1e-9\nminer.algorithm = ep\n")
    # 16 -> 4 -> 1 unfrozen: accepted, and the run freezes exactly so
    cfg = build_experiment_config(GEM_2_4_2 + "schedule.sparsity = 0.07\n")
    data = harness.build_dataset(cfg.task)
    result = harness.mine_for_seed(cfg, data, 1)
    assert [r.sparsity for r in result.report.records] == [4 / 16, 1 / 16]


DIGITS_784_4_10 = "task.kind = idx\ntask.path = digits\nnet.widths = 784,4,10\nschedule.epochs = 2\nfinetune.epochs = 1\nseeds = 1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # labels 0-9 against 3 classes: the archive's labels, not the network, are out of range
        (DIGITS_784_4_10 + "net.widths = 784,4,3\ntask.classes = 3\n", "task.classes: train label 9 is not below 3"),
        (GEM_2_4_2 + "net.widths = 3,4,2\n", "net.widths: input width 3 is not the 2 features of the data"),
        (GEM_2_4_2 + "net.widths = 2,4,5\n", "net.widths: output width 5 is not the 2 classes of the data"),
        (DIGITS_784_4_10 + "task.val_fraction = 0.98\n", "task.val_fraction: too large for the archive's training images (train: no rows)"),
        (DIGITS_784_4_10 + "task.path = .\n", "task.path: missing IDX file"),
    ],
)
def test_run_checks_the_config_against_its_data_before_any_seed(tmp_path, text, message):
    make_digit_archive(tmp_path / "digits", n_train=20, n_test=10, seed=0)
    cfg = build_experiment_config(text, base_dir=tmp_path)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        harness.run_experiment(cfg, tmp_path / "out")
    assert list((tmp_path / "out" / cfg.run_id / "masks").iterdir()) == []


@pytest.mark.parametrize(
    "name, array, message",
    [
        ("t10k-labels-idx1-ubyte", np.arange(9, dtype=np.uint8), ": 10 test images but 9 labels"),
        # every seed used to fail in its first matmul
        ("t10k-images-idx3-ubyte", np.zeros((10, 28, 27), dtype=np.uint8), ": test images of shape (28, 27), train images (28, 28)"),
    ],
)
def test_an_archive_whose_test_split_disagrees_with_its_training_split_fails_on_task_path(tmp_path, name, array, message):
    make_digit_archive(tmp_path / "digits", n_train=20, n_test=10, seed=0)
    write_idx(tmp_path / "digits" / name, array)
    cfg = build_experiment_config(DIGITS_784_4_10, base_dir=tmp_path)
    with pytest.raises(ConfigError, match=f"^task.path: .*{re.escape(message)}$"):
        harness.load_dataset(cfg)


@pytest.mark.parametrize("command", ["mine", "finetune"])
def test_cli_checks_the_config_against_its_data(tmp_path, command):
    cfg_path = _write_cfg(tmp_path, GEM_2_4_2 + "net.widths = 3,4,2\n")
    argv = [command, "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]
    if command == "finetune":
        argv += ["--checkpoint", str(tmp_path / "never_read.tfmc")]
    with pytest.raises(ConfigError, match="^net.widths: input width 3 "):
        cli_main(argv)


def test_config_missing_idx_path(tmp_path):
    text = "task.kind = idx\ntask.path = missing_dir\nnet.widths = 2,4,2\nseeds = 0\n"
    with pytest.raises(ConfigError, match="does not exist"):
        build_experiment_config(text, base_dir=tmp_path)


@pytest.mark.parametrize(
    "line, key",
    [
        ("task.kind = spirals", "task.kind"),
        ("miner.algorithm = sgd", "miner.algorithm"),
        ("miner.regularizer = l3", "miner.regularizer"),
        ("init.scheme = uniform", "init.scheme"),
        ("sr.variant = v7", "sr.variant"),
        ("ep.scope = everywhere", "ep.scope"),
        ("ep.gradual = maybe", "ep.gradual"),
    ],
)
def test_config_choice_errors_name_the_key(line, key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be one of"):
        build_experiment_config(BASE_CFG + line + "\n")


@pytest.mark.parametrize(
    "line, key, message",
    [
        # each value has one spelling, the one README documents
        ("task.kind = two-moons", "task.kind", "must be one of blobs, two_moons, idx, got 'two-moons'"),
        ("task.kind = idx_dataset", "task.kind", "must be one of blobs, two_moons, idx, got 'idx_dataset'"),
        ("imp.rewind = lr", "imp.rewind", "unknown rewind 'lr'"),
        ("miner.optimizer = sgd_momentum", "miner.optimizer", "unknown optimizer 'sgd_momentum'"),
        ("finetune.optimizer = sgd_momentum:0.9", "finetune.optimizer", "unknown optimizer 'sgd_momentum:0.9'"),
        ("miner.regularizer =", "miner.regularizer", "must be one of l1, l2, got ''"),
    ],
)
def test_config_rejects_removed_spellings(line, key, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: {re.escape(message)}$"):
        build_experiment_config(BASE_CFG + line + "\n")


@pytest.mark.parametrize(
    "text, key",
    [
        ("net.widths = 2,4,2\n", "task.kind"),
        ("task.kind = blobs\n", "net.widths"),
        ("task.kind = idx\nnet.widths = 2,4,2\n", "task.path"),
    ],
)
def test_config_missing_key_errors_name_the_key(text, key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: missing required key$"):
        build_experiment_config(text)


def test_config_missing_idx_path_names_the_key(tmp_path):
    text = "task.kind = idx\ntask.path = missing_dir\nnet.widths = 2,4,2\nseeds = 0\n"
    missing = re.escape(str(tmp_path / "missing_dir"))
    with pytest.raises(ConfigError, match=f"^task.path: does not exist: {missing}$"):
        build_experiment_config(text, base_dir=tmp_path)


@pytest.mark.parametrize(
    "algorithm, scheme",
    [("gem", SIGNED_CONSTANT), ("ep", SIGNED_CONSTANT), ("imp", SCALED_NORMAL), ("sr", SCALED_NORMAL)],
)
def test_config_resolves_the_init_scheme(algorithm, scheme):
    assert build_experiment_config(BASE_CFG + NO_INVERT + f"miner.algorithm = {algorithm}\n").init_scheme == scheme
    other = SCALED_NORMAL if scheme == SIGNED_CONSTANT else SIGNED_CONSTANT
    text = BASE_CFG + NO_INVERT + f"miner.algorithm = {algorithm}\ninit.scheme = {other}\n"
    assert build_experiment_config(text).init_scheme == other


def test_config_choice_values_ignore_case():
    text = BASE_CFG + (
        "task.kind = Two_Moons\nminer.algorithm = EP\nminer.regularizer = L1\n"
        "init.scheme = Scaled_Normal\nsr.variant = V3\nep.scope = GLOBAL\nep.gradual = Yes\n"
    )
    cfg = build_experiment_config(text)
    values = (cfg.task.kind, cfg.algorithm, cfg.miner.regularizer, cfg.init_scheme, cfg.sr_variant, cfg.ep_scope)
    assert values == ("two_moons", "ep", "l1", SCALED_NORMAL, "v3", "global")
    assert cfg.ep_gradual is True


@pytest.mark.parametrize("word, value", [("true", True), ("1", True), ("yes", True), ("false", False), ("0", False), ("no", False)])
def test_config_ep_gradual_spellings(word, value):
    assert build_experiment_config(BASE_CFG + f"ep.gradual = {word}\n").ep_gradual is value


def test_run_experiment_matrix(tmp_path):
    cfg = build_experiment_config(BASE_CFG)
    run_dir = harness.run_experiment(cfg, tmp_path)
    summary = (run_dir / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "algorithm,variant,seed,sparsity,pre_acc,post_acc"
    # 2 seeds x (1 base + 3 sanity variants)
    assert len(summary) == 1 + 2 * 4
    assert (run_dir / "config.snapshot").read_text() == cfg.raw_text
    assert not (run_dir / "errors.log").exists()

    rows = harness.read_summary(run_dir / "summary.csv")
    for row in rows:
        ckpt = run_dir / "masks" / f"seed{row['seed']}_{row['variant']}.tfmc"
        loaded = load_checkpoint(ckpt)
        assert abs(mask_sparsity(extract_mask(loaded)) - float(row["sparsity"])) <= 1e-12
        report = run_dir / "reports" / f"seed{row['seed']}_{row['variant']}.json"
        assert report.exists()


def test_run_experiment_smart_ratio_on_a_digit_archive(tmp_path):
    make_digit_archive(tmp_path / "digits", n_train=60, n_test=20, seed=0)
    text = (
        "task.kind = idx\ntask.path = digits\ntask.train_limit = 40\nnet.widths = 784,8,10\n"
        "miner.algorithm = sr\nsr.variant = v1\nschedule.sparsity = 0.1\n"
        "finetune.epochs = 1\nfinetune.batch_size = 16\nsanity = shuffle,reinit\nseeds = 3\n"
    )
    cfg = build_experiment_config(text, default_run_id="sr_idx", base_dir=tmp_path)
    run_dir = harness.run_experiment(cfg, tmp_path / "out")
    assert not (run_dir / "errors.log").exists()
    rows = harness.read_summary(run_dir / "summary.csv")
    assert [(r["algorithm"], r["variant"], r["seed"]) for r in rows] == [("sr", v, "3") for v in ("none", "shuffle", "reinit")]
    ratios = smooth_ratios(cfg.spec, cfg.schedule.target_sparsity, cfg.sr_last_layer_keep).ratios
    want = [max(1, math.floor(r * o * i)) for r, (o, i) in zip(ratios, cfg.spec.layer_shapes, strict=True)]
    for row in rows:
        mask = extract_mask(load_checkpoint(run_dir / "masks" / f"seed3_{row['variant']}.tfmc"))
        assert [int(np.count_nonzero(m)) for m in mask] == want
        assert abs(float(row["sparsity"]) - sum(want) / cfg.spec.total_params) <= 1e-12
        assert 0.0 <= float(row["pre_acc"]) <= 1.0 and 0.0 <= float(row["post_acc"]) <= 1.0


def test_run_experiment_rerun_is_identical(tmp_path):
    cfg = build_experiment_config(BASE_CFG)
    first = harness.run_experiment(cfg, tmp_path / "a")
    second = harness.run_experiment(cfg, tmp_path / "b")
    assert (first / "summary.csv").read_text() == (second / "summary.csv").read_text()
    for ckpt in sorted((first / "masks").glob("*.tfmc")):
        other = second / "masks" / ckpt.name
        assert ckpt.read_bytes() == other.read_bytes()


def test_run_experiment_no_sanity_one_row_per_seed(tmp_path):
    text = BASE_CFG.replace("sanity = shuffle,reinit,invert", "sanity =")
    cfg = build_experiment_config(text)
    run_dir = harness.run_experiment(cfg, tmp_path)
    summary = (run_dir / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + 2


def test_run_experiment_isolates_seed_failures(tmp_path, monkeypatch):
    cfg = build_experiment_config(BASE_CFG)
    real = harness.mine_for_seed

    def flaky(cfg_arg, data, seed):
        if seed == 1:
            raise RuntimeError("boom")
        return real(cfg_arg, data, seed)

    monkeypatch.setattr(harness, "mine_for_seed", flaky)
    run_dir = harness.run_experiment(cfg, tmp_path)
    log = (run_dir / "errors.log").read_text()
    assert "boom" in log
    assert "Traceback" in log and "flaky" in log
    rows = harness.read_summary(run_dir / "summary.csv")
    assert {row["seed"] for row in rows} == {"2"}


def test_checkpoint_save_load_save_in_harness_layout(tmp_path):
    cfg = build_experiment_config(BASE_CFG)
    run_dir = harness.run_experiment(cfg, tmp_path)
    ckpt = run_dir / "masks" / "seed1_none.tfmc"
    loaded = load_checkpoint(ckpt)
    resaved = tmp_path / "resaved.tfmc"
    save_checkpoint(resaved, loaded)
    assert ckpt.read_bytes() == resaved.read_bytes()


def test_base_checkpoint_reloads_the_mined_mask(tmp_path, monkeypatch):
    # at 0.6 some unfrozen weights end with scores below 0.5, so the mask is not the freeze set
    cfg = build_experiment_config(BASE_CFG.replace("schedule.sparsity = 0.3", "schedule.sparsity = 0.6"))
    mined = {}
    real = harness.mine_for_seed

    def recording(cfg_arg, data, seed):
        result = real(cfg_arg, data, seed)
        # float32 stores a score just below 0.5 as 0.5; the dropped weights' bits must stay 0
        for layer in result.layers:
            layer.scores[layer.mask == 0.0] = 0.5 - 2.0**-30
        mined[seed] = result
        return result

    monkeypatch.setattr(harness, "mine_for_seed", recording)
    run_dir = harness.run_experiment(cfg, tmp_path)
    rows = {row["seed"]: row for row in harness.read_summary(run_dir / "summary.csv") if row["variant"] == "none"}
    assert sorted(mined) == [1, 2]
    for seed, result in mined.items():
        reloaded = extract_mask(load_checkpoint(run_dir / "masks" / f"seed{seed}_none.tfmc"))
        assert [m.tobytes() for m in reloaded] == [m.tobytes() for m in result.mask]
        assert float(rows[str(seed)]["sparsity"]) == float(f"{mask_sparsity(result.mask):.12g}")


DEGENERATE = ["inversion degenerate: all scores equal in layer 0", "inversion degenerate: all scores equal in layer 1"]


def test_run_reports_a_degenerate_inversion(tmp_path, monkeypatch):
    cfg = build_experiment_config(BASE_CFG.replace("seeds = 1,2", "seeds = 1"))
    real = harness.mine_for_seed

    def constant_scores(cfg_arg, data, seed):
        return replace(real(cfg_arg, data, seed), inversion_scores=[np.full((10, 2), 0.25), np.full((2, 10), 0.25)])

    monkeypatch.setattr(harness, "mine_for_seed", constant_scores)
    run_dir = harness.run_experiment(cfg, tmp_path)
    invert = json.loads((run_dir / "reports" / "seed1_invert.json").read_text())
    assert invert["warnings"][:2] == DEGENERATE
    for variant in ("none", "shuffle", "reinit"):
        warnings = json.loads((run_dir / "reports" / f"seed1_{variant}.json").read_text())["warnings"]
        assert not any(w.startswith("inversion degenerate") for w in warnings), variant


def test_run_finetunes_the_network_its_checkpoint_reads_back(tmp_path):
    # the checkpoint stores float32 weights; finetuning the mined float64 network gives other records
    cfg = build_experiment_config(BASE_CFG)
    run_dir = harness.run_experiment(cfg, tmp_path)
    data = harness.build_dataset(cfg.task)
    for variant in ("none", "shuffle", "reinit", "invert"):
        layers = load_checkpoint(run_dir / "masks" / f"seed1_{variant}.tfmc")
        _, report = finetune([layer.weights for layer in layers], extract_mask(layers), data, replace(cfg.finetune, seed=1))
        written = json.loads((run_dir / "reports" / f"seed1_{variant}.json").read_text())
        assert written["records"] == [r.as_dict() for r in report.records]
        assert written["post_finetune_accuracy"] == report.post_finetune_accuracy


def _write_cfg(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    summary = out_dir / "tiny" / "summary.csv"
    before = summary.read_text()
    assert cli_main(["report", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    assert summary.read_text() == before


def test_cli_report_takes_no_seed(tmp_path):
    # report rebuilds summary.csv from every seed's reports, so a seed would be ignored
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["report", "--config", str(cfg_path), "--seed", "1", "--out-dir", str(tmp_path / "out")])
    assert exit_info.value.code == 2


def test_cli_mine_finetune_sanity(tmp_path):
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    out_dir = tmp_path / "out"
    common = ["--config", str(cfg_path), "--seed", "3", "--out-dir", str(out_dir)]
    assert cli_main(["mine", *common]) == 0
    ckpt = out_dir / "tiny" / "masks" / "seed3_none.tfmc"
    assert ckpt.exists()
    assert cli_main(["finetune", *common, "--checkpoint", str(ckpt)]) == 0
    assert cli_main(["sanity", *common, "--checkpoint", str(ckpt)]) == 0
    kept = [int(m.sum()) for m in extract_mask(load_checkpoint(ckpt))]
    for kind in ("shuffle", "reinit", "invert"):
        variant = extract_mask(load_checkpoint(out_dir / "tiny" / "masks" / f"seed3_none_{kind}.tfmc"))
        assert [int(m.sum()) for m in variant] == kept  # every variant keeps the per-layer counts
        csv_lines = (out_dir / "tiny" / "reports" / f"seed3_none_{kind}_layerwise.csv").read_text().splitlines()
        assert csv_lines[0] == "layer_index,params,kept,keep_fraction"
        assert [line.split(",")[2] for line in csv_lines[1:]] == [str(k) for k in kept + [sum(kept)]]
    # rebuilding a summary tolerates ad-hoc finetune reports in the same dir
    assert cli_main(["report", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0

    # the subcommands write what `run` writes for the same seed
    run_out = tmp_path / "run"
    assert cli_main(["run", "--config", str(cfg_path), "--seed", "3", "--out-dir", str(run_out)]) == 0
    cli_dir, run_dir = out_dir / "tiny", run_out / "tiny"
    assert ckpt.read_bytes() == (run_dir / "masks" / "seed3_none.tfmc").read_bytes()
    mining = "reports/seed3_none_mining.json"
    assert (cli_dir / mining).read_bytes() == (run_dir / mining).read_bytes()
    for kind in ("shuffle", "reinit", "invert"):
        cli_variant = (cli_dir / "masks" / f"seed3_none_{kind}.tfmc").read_bytes()
        assert cli_variant == (run_dir / "masks" / f"seed3_{kind}.tfmc").read_bytes()
    cli_ft = json.loads((cli_dir / "reports" / "seed3_none_finetune_seed3.json").read_text())
    run_ft = json.loads((run_dir / "reports" / "seed3_none.json").read_text())
    for key in ("records", "pre_finetune_accuracy", "post_finetune_accuracy", "layerwise"):
        assert cli_ft[key] == run_ft[key]
    layerwise = "_layerwise.csv"
    assert (cli_dir / "reports" / f"seed3_none_finetune_seed3{layerwise}").read_bytes() == (
        run_dir / "reports" / f"seed3_none{layerwise}"
    ).read_bytes()


def test_cli_sanity_prints_a_degenerate_inversion(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    out_dir = tmp_path / "out"
    common = ["--config", str(cfg_path), "--seed", "3", "--out-dir", str(out_dir)]
    assert cli_main(["mine", *common]) == 0
    ckpt = out_dir / "tiny" / "masks" / "seed3_none.tfmc"
    # every score 1.0: the mask is unchanged and the inversion has nothing to rank
    layers = [MaskedLayer(l.weights, l.mask, np.ones_like(l.scores)) for l in load_checkpoint(ckpt)]
    save_checkpoint(ckpt, layers)
    capsys.readouterr()
    assert cli_main(["sanity", *common, "--checkpoint", str(ckpt)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: {w}" for w in DEGENERATE]


@pytest.mark.parametrize("miner", ["miner.algorithm = ep\nep.scope = global", "miner.algorithm = imp"])
def test_cli_sanity_inverts_only_scored_checkpoints(tmp_path, capsys, miner):
    # only Gem-Miner checkpoints hold scores; the others' stored mask is no score to invert
    cfg_path = _write_cfg(tmp_path, BASE_CFG + miner + "\n")
    out_dir = tmp_path / "out"
    common = ["--config", str(cfg_path), "--seed", "3", "--out-dir", str(out_dir)]
    assert cli_main(["mine", *common]) == 0
    ckpt = out_dir / "tiny" / "masks" / "seed3_none.tfmc"
    capsys.readouterr()
    assert cli_main(["sanity", *common, "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert "variant invert failed" in err and "score inversion undefined" in err
    masks = out_dir / "tiny" / "masks"
    assert (masks / "seed3_none_shuffle.tfmc").exists() and (masks / "seed3_none_reinit.tfmc").exists()
    assert not (masks / "seed3_none_invert.tfmc").exists()


def test_cli_leaves_the_run_directory_to_the_harness():
    """cli.py parses, prints and sets exit codes; the harness stages write every file."""
    cli = Path(__file__).resolve().parents[1] / "src" / "gemmine" / "cli.py"
    banned = {
        "save_checkpoint",
        "finetune",
        "mine_for_seed",
        "variant_network",
        "write_layerwise",
        "write_report",
        "write_table",
        "write_summary",
        "MaskedLayer",
    }
    with open(cli, "rb") as f:
        # whole NAME tokens only: docstrings, comments and the "finetune" subcommand string may mention them
        tokens = tokenize.tokenize(f.readline)
        offenders = [f"cli.py:{t.start[0]}: {t.string}" for t in tokens if t.type == tokenize.NAME and t.string in banned]
    assert offenders == []


# the modules that write files: the run directory, the checkpoint format and IDX archives
FILE_WRITERS = {"harness.py", "checkpoint.py", "data.py"}


def _file_writes(source: str) -> list[str]:
    """``line: what`` for each use of csv or json, ``.write_text(``, ``.write_bytes(`` and write-mode ``open(`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name in ("csv", "json")]
        elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
            found.append(f"{node.lineno}: from {node.module}")
        elif isinstance(node, ast.Name) and node.id in ("csv", "json"):
            found.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("write_text", "write_bytes"):
            found.append(f"{node.lineno}: .{node.func.attr}(")
        elif isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "open" or getattr(node.func, "attr", None) == "open"):
            # open(path, mode) or path.open(mode); a mode that is not a literal may write
            args = node.args[1:] if isinstance(node.func, ast.Name) else node.args
            mode = next((k.value for k in node.keywords if k.arg == "mode"), args[0] if args else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+")):
                found.append(f"{node.lineno}: open(")
    return sorted(found)


def test_only_the_file_writing_modules_write_files():
    """trainer, sanity and the other modules compute; harness writes the run directory's files."""
    package = Path(__file__).resolve().parents[1] / "src" / "gemmine"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if str(path.relative_to(package)) not in FILE_WRITERS:
            offenders += [f"{path.relative_to(package)}:{hit}" for hit in _file_writes(path.read_text())]
    assert offenders == []


def test_the_file_write_guard_sees_each_spelling():
    source = """
import csv
from json import dumps
p.write_text(json.dumps(x))
p.write_bytes(b)
open(p, "w")
open(p, mode="ab")
p.open("r+")
open(p, m)
open(p)
open(p, "rb")
p.open()
"""
    assert _file_writes(source) == sorted(
        ["2: import csv", "3: from json", "4: .write_text(", "4: json", "5: .write_bytes(", "6: open(", "7: open(", "8: open(", "9: open("]
    )


def test_cli_seed_override_runs_single_seed(tmp_path):
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--seed", "5", "--out-dir", str(out_dir)]) == 0
    rows = harness.read_summary(out_dir / "tiny" / "summary.csv")
    assert {row["seed"] for row in rows} == {"5"}


# ---------------------------------------------------------------------------
# every config either runs or fails on its key
# ---------------------------------------------------------------------------

PROPERTY_BASES = {
    "blobs": "task.kind = blobs\ntask.n = 40\nnet.widths = 2,4,2\nschedule.epochs = 2\nfinetune.epochs = 1\nseeds = 1\n",
    "digits": "task.kind = idx\ntask.path = digits\nnet.widths = 784,4,10\nschedule.epochs = 2\nfinetune.epochs = 1\nseeds = 1\n",
}
# README's keys, each with values that are valid on its own; "base" stands for the base config's own value
VALID_VALUES = {
    "run.id": ("prop",),
    "task.kind": ("base",),
    "task.seed": ("3",),
    "net.widths": ("base",),
    "miner.algorithm": ("gem", "ep", "imp", "sr"),
    "miner.lr": ("0.2",),
    "miner.lambda": ("1e-4",),
    "miner.regularizer": ("l1", "l2"),
    "miner.optimizer": ("sgd:0.5", "adam"),
    "miner.batch_size": ("8",),
    "schedule.sparsity": ("0.3",),
    "schedule.epochs": ("4",),
    "schedule.freeze_period": ("2",),
    "finetune.epochs": ("2",),
    "finetune.batch_size": ("8",),
    "finetune.optimizer": ("adam",),
    "finetune.lr": ("0.05",),
    "finetune.schedule": ("cosine", "multistep:0:0.5"),
    "sanity": ("shuffle,reinit", "invert", "shuffle:3"),
    "seeds": ("1,2", "4"),
    "init.scheme": ("signed_constant", "scaled_normal"),
    "ep.scope": ("layerwise", "global"),
    "ep.gradual": ("true", "no"),
    "imp.rounds": ("2",),
    "imp.prune_rate": ("0.3",),
    "imp.epochs_per_round": ("1",),
    "imp.rewind": ("cold", "warm:1", "lr_rewind"),
    "sr.variant": ("v1", "v3", "v4"),
    "sr.last_layer_keep": ("0.5",),
    "sr.tune_steps": ("3",),
    "sr.tune_lr": ("0.01",),
    "sr.reference_profile": ("0.5,0.4",),
    "sr.imp_profile": ("0.5,0.4",),
}
TASK_KEYS = {
    "blobs": {"task.n": ("40",), "task.noise": ("0.3",)},
    "digits": {"task.path": ("digits",), "task.train_limit": ("30",), "task.val_fraction": ("0.2",), "task.classes": ("10",)},
}
HUGE = "1000000000"
BAD_VALUES = ("0", "-1", "nan", "inf", "1e-9", HUGE, "", "bogus")
# a huge count of rows, epochs, rounds or steps is a long run, not a config error
WORK_COUNTS = {"task.n", "schedule.epochs", "finetune.epochs", "imp.rounds", "imp.epochs_per_round", "sr.tune_steps"}
SECTIONS = {"miner", "schedule", "finetune", "imp", "sr"}


@st.composite
def _config_texts(draw):
    base = draw(st.sampled_from(sorted(PROPERTY_BASES)))
    values = {**VALID_VALUES, **TASK_KEYS[base]}
    lines = []
    for key in draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=4)):
        bad = [v for v in BAD_VALUES if not (v == HUGE and key in WORK_COUNTS)]
        value = draw(st.sampled_from(values[key] + tuple(bad)))
        lines.append(f"{key} = {value}" if value != "base" else "")
    return base, PROPERTY_BASES[base] + "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def property_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("property")
    make_digit_archive(root / "digits", n_train=60, n_test=20, seed=0)
    return root


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=_config_texts())
def test_every_config_runs_or_fails_on_its_key(property_root, case):
    """Either the config or its check against the data raises a ConfigError that starts with a key or
    section, or the run returns with summary.csv written."""
    base, text = case
    out = Path(tempfile.mkdtemp(dir=property_root))
    try:
        cfg = build_experiment_config(text, base_dir=property_root)
        run_dir = harness.run_experiment(cfg, out)
    except ConfigError as exc:
        keys = set(VALID_VALUES) | set(TASK_KEYS[base]) | SECTIONS
        assert str(exc).partition(": ")[0] in keys, str(exc)
        return
    assert (run_dir / "summary.csv").is_file()
