import ast
import inspect
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gemmine.harness as harness
import gemmine.sanity as sanity
import golden
from gemmine.checkpoint import load_checkpoint, save_checkpoint
from gemmine.cli import main as cli_main
from gemmine.config import ConfigError, build_experiment_config, parse_key_values
from gemmine.data import make_digit_archive, write_idx
from gemmine.masking import SCALED_NORMAL, SIGNED_CONSTANT, MaskedLayer, extract_mask, init_weights, mask_sparsity
from gemmine.miners.imp import WARM
from gemmine.miners.smart_ratio import smart_ratio, smooth_ratios
from gemmine.optim import SgdMomentum
from gemmine.sanity import invert_scores
from gemmine.trainer import RunReport, finetune
from source_sites import PACKAGE, modules, names, sites

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


def test_parse_key_values_and_errors(tmp_path):
    values = parse_key_values("a.b = 1\n# comment\n\nc=hello # trailing\n")
    assert values == {"a.b": "1", "c": "hello"}
    with pytest.raises(ConfigError, match="key=value"):
        parse_key_values("not a pair\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_key_values("= 3\n")
    # a repeated key takes its last value: a caller of configs/*.cfg appends its own lines
    assert parse_key_values("a = 1\nb = 2\na = 3\n") == {"a": "3", "b": "2"}
    assert build_experiment_config(BASE_CFG + "miner.lr = 0.25\n").miner.lr == 0.25
    # the overridden task.path is neither resolved nor checked, and is not an unknown key
    text = f"task.kind = idx\ntask.path = ../missing\nnet.widths = 2,3,2\ntask.path = {tmp_path}\n"
    assert build_experiment_config(text, base_dir=tmp_path / "configs").task.path == str(tmp_path)


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
    # a removed key is unknown too: a config that still sets it fails on it rather than running without it
    for key, value in (("mystery.key", "1"), ("miner.regularizer", "l2"), ("finetune.schedule", "cosine")):
        with pytest.raises(ConfigError, match=f"^unknown config keys: {re.escape(key)}$"):
            build_experiment_config(BASE_CFG + f"{key} = {value}\n")


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
seeds = 0
"""
    cfg = build_experiment_config(text)
    assert cfg.imp_rewind.kind == WARM and cfg.imp_rewind.warm_epoch == 2


@pytest.mark.parametrize(
    "line, key",
    [
        ("seeds = 1,b", "seeds"),
        ("net.widths = 2,a,2", "net.widths"),
        ("sanity = shuffle:x", "sanity"),
        ("imp.rewind = warm:z", "imp.rewind"),
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
        ("sanity = bogus", "sanity", "must be one of shuffle, reinit, invert, got 'bogus'"),
        # NaN passes every "x <= 0" style range check, and Gem-Miner then mines an all-zero mask
        ("miner.lr = nan", "miner.lr", "must be a finite number, got 'nan'"),
        ("miner.lr = inf", "miner.lr", "must be a finite number, got 'inf'"),
        ("miner.lambda = nan", "miner.lambda", "must be a finite number, got 'nan'"),
        ("finetune.lr = nan", "finetune.lr", "must be a finite number, got 'nan'"),
        ("sr.tune_lr = nan", "sr.tune_lr", "must be a finite number, got 'nan'"),
        ("miner.algorithm = sr\nsr.tune_lr = -inf", "sr.tune_lr", "must be a finite number, got '-inf'"),
        ("task.noise = nan", "task.noise", "must be a finite number, got 'nan'"),
        # caught when the config is read, not by run_experiment outside its per-seed isolation
        ("task.n = 5", "task.n", "gen_synthetic needs n >= 10, got 5"),
        ("task.n = -3", "task.n", "gen_synthetic needs n >= 10, got -3"),
        ("net.widths = 2", "net.widths", "at least one hidden layer"),
        ("schedule.sparsity = 2", "schedule", "target sparsity must be in (0, 1]"),
        ("schedule.freeze_period = 3\nschedule.epochs = 10", "schedule", "freeze period 3 must divide"),
        ("miner.lr = 0", "miner", "learning rate must be positive"),
        ("miner.batch_size = 0", "miner", "batch size must be positive"),
        ("miner.optimizer = foo", "miner.optimizer", "must be one of sgd, adam, got 'foo'"),
        ("miner.optimizer = sgd:abc", "miner.optimizer", "cannot parse 'abc'"),
        ("imp.rewind = warm:0", "imp.rewind", "warm rewind epoch must be >= 1"),
        # cold and lr_rewind take no argument, and warm one: a surplus one is an error, not dropped
        ("imp.rewind = cold:5", "imp.rewind", "cold takes no argument, got 'cold:5'"),
        ("imp.rewind = lr_rewind:2", "imp.rewind", "lr_rewind takes no argument, got 'lr_rewind:2'"),
        ("imp.rewind = warm:1:2", "imp.rewind", "warm takes at most one argument, got 'warm:1:2'"),
        # an empty or missing argument or entry is an error, not a default
        ("imp.rewind = warm:", "imp.rewind", "empty argument in 'warm:'"),
        ("sanity = shuffle:", "sanity", "empty argument in 'shuffle:'"),
        ("miner.optimizer = sgd:", "miner.optimizer", "empty argument in 'sgd:'"),
        ("miner.optimizer = adam:", "miner.optimizer", "empty argument in 'adam:'"),
        ("seeds = 1,,2", "seeds", "empty entry in '1,,2'"),
        ("seeds = 1,2,", "seeds", "empty entry in '1,2,'"),
        ("sanity = shuffle,,reinit", "sanity", "empty entry in 'shuffle,,reinit'"),
        ("sr.imp_profile = 0.5,,0.4", "sr.imp_profile", "empty entry in '0.5,,0.4'"),
        ("miner.algorithm = imp\nimp.rounds = 0", "imp", "rounds must be >= 1, got 0"),
        ("miner.algorithm = imp\nimp.prune_rate = 1.5", "imp", "prune rate must be in (0, 1), got 1.5"),
        ("miner.algorithm = imp\nimp.epochs_per_round = -1", "imp", "epochs_per_round must be >= 0, got -1"),
        (
            "miner.algorithm = imp\nimp.rewind = warm:3\nimp.epochs_per_round = 1",
            "imp",
            "warm rewind epoch 3 must be < epochs per round 1",
        ),
        ("finetune.epochs = -1", "finetune", "epochs must be >= 0, got -1"),
        ("finetune.batch_size = 0", "finetune", "batch size must be positive, got 0"),
        ("finetune.lr = -1", "finetune", "learning rate must be positive and finite, got -1.0"),
        ("miner.optimizer = sgd:-3", "miner.optimizer", "sgd momentum must be in [0, 1), got -3.0"),
        ("finetune.optimizer = sgd:1", "finetune.optimizer", "sgd momentum must be in [0, 1), got 1.0"),
        ("miner.optimizer = adam:1.5,0.999", "miner.optimizer", "adam betas must be in [0, 1), got 1.5, 0.999"),
        ("finetune.optimizer = adam:0.9,-0.1", "finetune.optimizer", "adam betas must be in [0, 1), got 0.9, -0.1"),
        ("finetune.optimizer = adam:0.9,0.999,0", "finetune.optimizer", "adam eps must be > 0, got 0.0"),
        # every Adam step would be 0, so the scores would never move
        ("miner.optimizer = adam:0.9,0.999,inf", "miner.optimizer", "must be a finite number, got 'inf'"),
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
        # a rate <= 0 would stand still or climb the loss that the tuning descends
        (
            "miner.algorithm = sr\nsr.variant = v5\nsr.reference_profile = 0.5,0.5\nsr.tune_lr = -1",
            "sr",
            "v5 tunes its ratios: tune learning rate must be > 0, got -1.0",
        ),
        (
            "miner.algorithm = sr\nsr.variant = v6\nsr.imp_profile = 0.5,0.5\nsr.tune_lr = 0",
            "sr",
            "v6 tunes its ratios: tune learning rate must be > 0, got 0.0",
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
        # unused settings: v1 reads no magnitude-pruning profile, v4 no tune steps or tune rate
        "miner.algorithm = sr\nsr.imp_profile = 0.5,0.5,0.5\nsr.tune_steps = 0",
        "miner.algorithm = sr\nsr.variant = v4\nsr.imp_profile = 0.5,0.5\nsr.tune_steps = 0\nsr.tune_lr = -1",
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
    make_digit_archive(tmp_path / "digits", n_train=20, n_test=10, seed=0, noise=0.25)
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
    make_digit_archive(tmp_path / "digits", n_train=20, n_test=10, seed=0, noise=0.25)
    cfg = build_experiment_config(text, base_dir=tmp_path)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        harness.run_experiment(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _reject_constant(token):
    raise ValueError(f"not JSON: {token}")


def test_a_run_with_an_empty_validation_split_writes_strict_json_reports(tmp_path):
    # its undefined validation accuracies used to be bare NaN tokens, which jq and JavaScript reject
    make_digit_archive(tmp_path / "digits", n_train=20, n_test=10, seed=0, noise=0.25)
    cfg = build_experiment_config(DIGITS_784_4_10 + "task.val_fraction = 0\n", base_dir=tmp_path)
    run_dir = harness.run_experiment(cfg, tmp_path / "out")
    reports = sorted((run_dir / "reports").glob("*.json"))
    assert [path.name for path in reports][:2] == ["seed1_none.json", "seed1_none_mining.json"]
    for path in reports:
        report = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert [record["val_accuracy"] for record in report["records"]] == [None] * len(report["records"])


def test_rebuild_summary_writes_an_undefined_accuracy_as_nan(tmp_path):
    cfg = build_experiment_config(BASE_CFG.replace("seeds = 1,2", "seeds = 1") + "sanity =\n")
    reports = tmp_path / cfg.run_id / "reports"
    reports.mkdir(parents=True)
    layerwise = [{"layer_index": "global", "params": 40, "kept": 12, "keep_fraction": 0.3}]
    report = RunReport(pre_finetune_accuracy=float("nan"), post_finetune_accuracy=0.5, layerwise=layerwise)
    harness.write_report(reports / "seed1_none", report)
    assert json.loads((reports / "seed1_none.json").read_text())["pre_finetune_accuracy"] is None
    summary, rows = harness.rebuild_summary(cfg, tmp_path)
    assert rows == 1
    assert summary.read_text().splitlines()[1] == "gem,none,1,0.3,nan,0.5"


@pytest.mark.parametrize(
    "name, array, message",
    [
        ("t10k-labels-idx1-ubyte", np.arange(9, dtype=np.uint8), ": 10 test images but 9 labels"),
        # every seed used to fail in its first matmul
        ("t10k-images-idx3-ubyte", np.zeros((10, 28, 27), dtype=np.uint8), ": test images of shape (28, 27), train images (28, 28)"),
    ],
)
def test_an_archive_whose_test_split_disagrees_with_its_training_split_fails_on_task_path(tmp_path, name, array, message):
    make_digit_archive(tmp_path / "digits", n_train=20, n_test=10, seed=0, noise=0.25)
    write_idx(tmp_path / "digits" / name, array)
    cfg = build_experiment_config(DIGITS_784_4_10, base_dir=tmp_path)
    with pytest.raises(ConfigError, match=f"^task.path: .*{re.escape(message)}$"):
        harness.load_dataset(cfg)


@pytest.mark.parametrize("command", ["run", "mine", "finetune"])
def test_cli_checks_the_config_against_its_data(tmp_path, capsys, command):
    cfg_path = _write_cfg(tmp_path, GEM_2_4_2 + "net.widths = 3,4,2\n")
    argv = [command, "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]
    if command == "finetune":
        argv += ["--checkpoint", str(tmp_path / "never_read.tfmc")]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("error: net.widths: input width 3 ")
    # the data is checked before the run directory is opened: it used to hold config.snapshot here
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "mine"])
@pytest.mark.parametrize("variant", ["v4", "v6"])
def test_cli_rejects_smart_ratio_without_its_profile_before_any_seed(tmp_path, capsys, command, variant):
    # it parses, since smart_ratio may be handed an IMP run's profile; run used to fail every seed
    text = GEM_2_4_2 + f"miner.algorithm = sr\nsr.variant = {variant}\n"
    assert build_experiment_config(text).sr_imp_profile is None
    out_dir = tmp_path / "out"
    assert cli_main(_cli_argv(command, _write_cfg(tmp_path, text), out_dir)) == 2
    assert capsys.readouterr().err == f"error: sr: {variant} needs a magnitude-pruning profile, sr.imp_profile\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["finetune", "sanity"])
def test_cli_checks_a_checkpoint_against_net_widths(tmp_path, capsys, command):
    # a 2-4-2 checkpoint under a 2-8-2 config: finetune ran it silently, and reinit failed on a shape naming no key
    ckpt = tmp_path / "small.tfmc"
    save_checkpoint(ckpt, [MaskedLayer(np.ones(s), np.ones(s, dtype=bool)) for s in [(4, 2), (2, 4)]])
    cfg_path = _write_cfg(tmp_path, GEM_2_4_2 + "net.widths = 2,8,2\nsanity = reinit\n")
    out_dir = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg_path), "--out-dir", str(out_dir), "--checkpoint", str(ckpt)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: net.widths: checkpoint {ckpt} holds layers of shapes [(4, 2), (2, 4)], not [(8, 2), (2, 8)]"
    ]
    assert [p for p in out_dir.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("command", ["finetune", "sanity"])
@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "No such file or directory"),
        (b"garbage!", "bad magic b'garb' at offset 0 (expected b'TFMC')"),
        (b"TFMC" + struct.pack("<II", 1, 0), "unsupported checkpoint version 1, expected 2"),
    ],
    ids=["missing", "corrupt", "version_1"],
)
def test_cli_prints_an_unreadable_checkpoint_as_one_line(tmp_path, capsys, command, content, reason):
    # a FileNotFoundError or CheckpointError traceback, and finetune left empty masks/ and reports/ behind
    ckpt = tmp_path / "seed1_none.tfmc"
    if content is not None:
        ckpt.write_bytes(content)
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    out_dir = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg_path), "--out-dir", str(out_dir), "--checkpoint", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: checkpoint {ckpt}: cannot be read ({reason})\n"
    assert captured.out == ""
    assert not out_dir.exists()


def _cli_argv(command, cfg_path, out_dir, *extra):
    argv = [command, "--config", str(cfg_path), "--out-dir", str(out_dir), *extra]
    return argv + ["--checkpoint", str(out_dir / "never_read.tfmc")] * (command in ("finetune", "sanity"))


@pytest.mark.parametrize("command", ["run", "mine", "finetune", "sanity"])
def test_cli_seed_obeys_the_config_seed_rule(tmp_path, capsys, command):
    # run logged the seed's mining failure in errors.log, and mine died in numpy
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    out_dir = tmp_path / "out"
    assert cli_main(_cli_argv(command, cfg_path, out_dir, "--seed", "-1")) == 2
    assert capsys.readouterr().err == "error: seeds: a seed must be >= 0, got -1\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "mine", "finetune", "sanity", "report"])
@pytest.mark.parametrize("how", ["missing", "directory", "not_text"])
def test_cli_prints_an_unreadable_config_as_one_line(tmp_path, capsys, command, how):
    # a missing config file used to end in a FileNotFoundError traceback
    cfg_path = tmp_path / "nope.cfg"
    if how == "directory":
        cfg_path.mkdir()
    elif how == "not_text":
        cfg_path.write_bytes(b"run.id = \xff\xfe\n")
    out_dir = tmp_path / "out"
    assert cli_main(_cli_argv(command, cfg_path, out_dir)) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(f"error: config {re.escape(str(cfg_path))}: cannot be read \\(.+\\)\n", captured.err), captured.err
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "mine", "finetune", "sanity", "report"])
def test_cli_prints_a_config_error_as_one_line(tmp_path, capsys, command):
    cfg_path = _write_cfg(tmp_path, BASE_CFG + "schedule.epochs = 0\n")
    assert cli_main(_cli_argv(command, cfg_path, tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: schedule: epochs and freeze period must be positive, got 0, 2\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "line, key",
    [
        ("task.kind = spirals", "task.kind"),
        ("task.kind = two_moons", "task.kind"),
        ("miner.algorithm = sgd", "miner.algorithm"),
        ("init.scheme = uniform", "init.scheme"),
        ("sr.variant = v7", "sr.variant"),
        ("ep.scope = everywhere", "ep.scope"),
        ("ep.gradual = maybe", "ep.gradual"),
        ("ep.gradual = yes", "ep.gradual"),
    ],
)
def test_config_choice_errors_name_the_key(line, key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be one of"):
        build_experiment_config(BASE_CFG + line + "\n")


@pytest.mark.parametrize(
    "line, key, message",
    [
        # each value has one spelling, the one README documents
        ("task.kind = two-moons", "task.kind", "must be one of blobs, idx, got 'two-moons'"),
        ("task.kind = idx_dataset", "task.kind", "must be one of blobs, idx, got 'idx_dataset'"),
        ("imp.rewind = lr", "imp.rewind", "must be one of cold, warm, lr_rewind, got 'lr'"),
        ("miner.optimizer = sgd_momentum", "miner.optimizer", "must be one of sgd, adam, got 'sgd_momentum'"),
        ("finetune.optimizer = sgd_momentum:0.9", "finetune.optimizer", "must be one of sgd, adam, got 'sgd_momentum'"),
        ("ep.gradual =", "ep.gradual", "must be one of false, true, got ''"),
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
        "task.kind = Blobs\nminer.algorithm = EP\n"
        "init.scheme = Scaled_Normal\nsr.variant = V3\nep.scope = GLOBAL\nep.gradual = True\n"
    )
    cfg = build_experiment_config(text)
    values = (cfg.task.kind, cfg.algorithm, cfg.init_scheme, cfg.sr_variant, cfg.ep_scope)
    assert values == ("blobs", "ep", SCALED_NORMAL, "v3", "global")
    assert cfg.ep_gradual is True


@pytest.mark.parametrize("word, value", [("true", True), ("false", False)])
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
    make_digit_archive(tmp_path / "digits", n_train=60, n_test=20, seed=0, noise=0.25)
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
        result = real(cfg_arg, data, seed)
        for layer in result.layers:
            layer.scores = np.full(layer.weights.shape, 0.25)
        return result

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


def test_cli_sanity_without_variants_fails(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, BASE_CFG + "sanity =\n")
    out_dir = tmp_path / "out"
    assert cli_main(_cli_argv("sanity", cfg_path, out_dir)) == 1
    assert capsys.readouterr().err == "no sanity variants configured\n"


def test_cli_report_without_a_run_fails(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    out_dir = tmp_path / "out"
    assert cli_main(_cli_argv("report", cfg_path, out_dir)) == 1
    assert capsys.readouterr().err == f"no reports directory at {out_dir / 'tiny' / 'reports'}\n"


def test_mine_for_seed_rejects_an_unknown_algorithm():
    cfg = replace(build_experiment_config(BASE_CFG), algorithm="magic")
    with pytest.raises(ValueError, match="^unknown algorithm 'magic'$"):
        harness.mine_for_seed(cfg, harness.build_dataset(cfg.task), 1)


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    summary = out_dir / "tiny" / "summary.csv"
    before = summary.read_text()
    assert cli_main(["report", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    assert summary.read_text() == before


def test_report_lists_the_cells_of_the_config_not_of_an_earlier_run(tmp_path):
    # report used to list every seed<K>_<variant> report in the directory: 8 rows against run's 4
    out_dir = tmp_path / "out"
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    assert cli_main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    cfg_path = _write_cfg(tmp_path, BASE_CFG.replace("seeds = 1,2", "seeds = 1"))
    assert cli_main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    summary = out_dir / "tiny" / "summary.csv"
    after_run = summary.read_bytes()
    assert [(row["seed"], row["variant"]) for row in harness.read_summary(summary)] == [
        ("1", variant) for variant in ("none", "shuffle", "reinit", "invert")
    ]
    assert cli_main(["report", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    assert summary.read_bytes() == after_run


@pytest.mark.parametrize("stage", ["finetune", "write_layerwise"])
def test_report_after_an_interrupted_run_lists_the_finished_cells(tmp_path, monkeypatch, stage):
    # the third cell is seed 1's reinit; the parent wrote a cell's report JSON before its layerwise CSV
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    cfg = build_experiment_config(BASE_CFG)
    whole = harness.run_experiment(cfg, tmp_path / "whole")
    real, calls = getattr(harness, stage), []

    def interrupted(*args, **kwargs):
        calls.append(stage)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, stage, interrupted)
    with pytest.raises(KeyboardInterrupt):
        harness.run_experiment(cfg, tmp_path / "cut")
    assert cli_main(["report", "--config", str(cfg_path), "--out-dir", str(tmp_path / "cut")]) == 0
    summary = (tmp_path / "cut" / "tiny" / "summary.csv").read_text()
    assert summary.splitlines(keepends=True) == (whole / "summary.csv").read_text().splitlines(keepends=True)[:3]


def test_run_replaces_an_earlier_runs_errors_log(tmp_path, capsys):
    # a clean run used to keep the old errors.log, print "some stages failed" and return 1
    cfg_path = _write_cfg(tmp_path, BASE_CFG.replace("seeds = 1,2", "seeds = 1"))
    run_dir = tmp_path / "out" / "tiny"
    run_dir.mkdir(parents=True)
    (run_dir / "errors.log").write_text("seed 1: mining failed: boom\n")
    assert cli_main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert not (run_dir / "errors.log").exists()


def test_cli_report_takes_no_seed(tmp_path):
    # report lists the config's seeds, so a --seed would give a summary other than the run's
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


def test_run_and_sanity_write_the_same_variants_when_float32_ties_two_scores(tmp_path, monkeypatch):
    # layer 0's scores are 0 .. n-1, but entries kept-1 and kept hold kept-1+1e-9 and kept-1: in float64
    # invert keeps entry kept, in float32 the two tie and invert keeps the lower flat index, kept-1
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    real = harness.mine_for_seed

    def near_tie(cfg_arg, data, seed):
        result = real(cfg_arg, data, seed)
        layer = result.layers[0]
        kept = int(layer.mask.sum())
        assert 1 <= kept < layer.mask.size - 1
        scores = np.arange(layer.mask.size, dtype=np.float64)
        scores[kept - 1], scores[kept] = kept - 1 + 1e-9, kept - 1
        layer.scores = scores.reshape(layer.mask.shape)
        return result

    monkeypatch.setattr(harness, "mine_for_seed", near_tie)
    run_masks, sanity_masks = tmp_path / "run" / "tiny" / "masks", tmp_path / "sanity" / "tiny" / "masks"
    assert cli_main(["run", "--config", str(cfg_path), "--seed", "3", "--out-dir", str(tmp_path / "run")]) == 0
    ckpt = run_masks / "seed3_none.tfmc"
    saved = load_checkpoint(ckpt)[0]
    kept = int(saved.mask.sum())
    assert saved.scores.reshape(-1)[kept - 1] == saved.scores.reshape(-1)[kept] == kept - 1
    assert cli_main(["sanity", "--config", str(cfg_path), "--seed", "3", "--out-dir", str(tmp_path / "sanity"), "--checkpoint", str(ckpt)]) == 0
    for kind in ("shuffle", "reinit", "invert"):
        assert (run_masks / f"seed3_{kind}.tfmc").read_bytes() == (sanity_masks / f"seed3_none_{kind}.tfmc").read_bytes(), kind


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
    # a mined checkpoint holds its miner's scores (IMP: magnitudes), a sanity variant's holds none
    cfg_path = _write_cfg(tmp_path, BASE_CFG + miner + "\n")
    out_dir = tmp_path / "out"
    masks = out_dir / "tiny" / "masks"
    common = ["--config", str(cfg_path), "--seed", "3", "--out-dir", str(out_dir)]
    assert cli_main(["mine", *common]) == 0
    base = load_checkpoint(masks / "seed3_none.tfmc")
    assert cli_main(["sanity", *common, "--checkpoint", str(masks / "seed3_none.tfmc")]) == 0
    inverted = extract_mask(load_checkpoint(masks / "seed3_none_invert.tfmc"))
    assert [int(m.sum()) for m in inverted] == [int(m.sum()) for m in extract_mask(base)]
    want = invert_scores([layer.scores for layer in base], extract_mask(base), [])
    assert [m.tobytes() for m in inverted] == [m.tobytes() for m in want]

    capsys.readouterr()
    assert cli_main(["sanity", *common, "--checkpoint", str(masks / "seed3_none_shuffle.tfmc")]) == 1
    err = capsys.readouterr().err
    assert "variant invert failed" in err and "score inversion undefined" in err
    assert (masks / "seed3_none_shuffle_shuffle.tfmc").exists() and (masks / "seed3_none_shuffle_reinit.tfmc").exists()
    assert not (masks / "seed3_none_shuffle_invert.tfmc").exists()


@pytest.mark.parametrize("algorithm", ["gem", "ep", "imp", "sr"])
def test_run_checkpoints_hold_the_miners_scores_and_the_variants_none(tmp_path, monkeypatch, algorithm):
    text = BASE_CFG.replace("seeds = 1,2", "seeds = 1") + f"miner.algorithm = {algorithm}\n"
    cfg = build_experiment_config(text + (NO_INVERT if algorithm == "sr" else ""))
    mined = {}
    real = harness.mine_for_seed

    def recording(cfg_arg, data, seed):
        mined[seed] = real(cfg_arg, data, seed)
        return mined[seed]

    monkeypatch.setattr(harness, "mine_for_seed", recording)
    run_dir = harness.run_experiment(cfg, tmp_path)
    assert not (run_dir / "errors.log").exists()
    for layer, saved in zip(mined[1].layers, load_checkpoint(run_dir / "masks" / "seed1_none.tfmc"), strict=True):
        if algorithm == "sr":
            assert layer.scores is None and saved.scores is None
        else:  # gem's and edge-popup's scores, IMP's magnitudes
            assert saved.scores.tobytes() == layer.scores.astype(np.float32).astype(np.float64).tobytes()
    for variant, _ in harness.matrix_variants(cfg)[1:]:
        assert [layer.scores for layer in load_checkpoint(run_dir / "masks" / f"seed1_{variant}.tfmc")] == [None, None]


def test_imp_sanity_variants_start_from_the_mined_weights(tmp_path):
    # the variants move IMP's mask over the dense weights it selects from, so no kept weight starts at 0
    make_digit_archive(tmp_path / "digits", n_train=60, n_test=20, seed=0, noise=0.25)
    text = (
        "task.kind = idx\ntask.path = digits\ntask.train_limit = 40\nnet.widths = 784,8,10\n"
        "miner.algorithm = imp\nimp.rounds = 6\nimp.prune_rate = 0.3\nimp.epochs_per_round = 1\n"
        "finetune.epochs = 1\nfinetune.batch_size = 16\nsanity = shuffle,invert\nseeds = 3\n"
    )
    cfg = build_experiment_config(text, default_run_id="imp_idx", base_dir=tmp_path)
    run_dir = harness.run_experiment(cfg, tmp_path / "out")
    assert not (run_dir / "errors.log").exists()
    for variant in ("shuffle", "invert"):
        layers = load_checkpoint(run_dir / "masks" / f"seed3_{variant}.tfmc")
        assert mask_sparsity(extract_mask(layers)) < 0.2
        assert all(np.all(layer.weights[layer.mask] != 0.0) for layer in layers)
        assert json.loads((run_dir / "reports" / f"seed3_{variant}.json").read_text())["warnings"] == []


def _zero_weight_warning(kind, layers):
    zeros = sum(int(np.count_nonzero(layer.weights[layer.mask] == 0.0)) for layer in layers)
    kept = sum(int(np.count_nonzero(layer.mask)) for layer in layers)
    assert zeros > 0
    return f"variant {kind}: {zeros} of {kept} kept weights are exactly 0"


def test_cli_sanity_warns_about_the_zero_weights_of_a_pre_masked_checkpoint(tmp_path, capsys):
    # a network stored as weights * mask, as IMP's were once, has nothing but zeros to move a mask onto
    cfg_path = _write_cfg(tmp_path, BASE_CFG.replace("sanity = shuffle,reinit,invert", "sanity = shuffle,invert"))
    layers = []
    for w in init_weights(build_experiment_config(BASE_CFG).spec, SCALED_NORMAL, 0):
        mask = np.zeros(w.size, dtype=bool)
        mask[::3] = True
        mask = mask.reshape(w.shape)
        layers.append(MaskedLayer(w * mask, mask, np.abs(w * mask)))
    ckpt = tmp_path / "premasked.tfmc"
    save_checkpoint(ckpt, layers)
    out_dir = tmp_path / "out"
    common = ["--config", str(cfg_path), "--seed", "3", "--out-dir", str(out_dir)]
    assert cli_main(["sanity", *common, "--checkpoint", str(ckpt)]) == 0
    want = [
        "warning: " + _zero_weight_warning(kind, load_checkpoint(out_dir / "tiny" / "masks" / f"premasked_{kind}.tfmc"))
        for kind in ("shuffle", "invert")
    ]
    assert capsys.readouterr().err.splitlines() == want
    assert want[1] == "warning: variant invert: 14 of 14 kept weights are exactly 0"


def test_run_reports_the_zero_weights_a_variant_keeps(tmp_path, monkeypatch):
    cfg = build_experiment_config(BASE_CFG.replace("seeds = 1,2", "seeds = 1") + "sanity = shuffle,reinit\n")
    real = harness.mine_for_seed

    def pre_masked(cfg_arg, data, seed):
        result = real(cfg_arg, data, seed)
        result.layers = [replace(layer, weights=layer.weights * layer.mask) for layer in result.layers]
        return result

    monkeypatch.setattr(harness, "mine_for_seed", pre_masked)
    run_dir = harness.run_experiment(cfg, tmp_path)
    shuffled = load_checkpoint(run_dir / "masks" / "seed1_shuffle.tfmc")
    report = json.loads((run_dir / "reports" / "seed1_shuffle.json").read_text())
    assert report["warnings"] == [_zero_weight_warning("shuffle", shuffled)]
    assert json.loads((run_dir / "reports" / "seed1_reinit.json").read_text())["warnings"] == []


SCORED_MINERS = {
    "gem": "miner.algorithm = gem\n",
    "ep": "miner.algorithm = ep\nep.scope = global\nep.gradual = true\n",
    "imp": "miner.algorithm = imp\nimp.rounds = 2\nimp.epochs_per_round = 1\n",
}


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2),
    miner=st.sampled_from(sorted(SCORED_MINERS)),
    seed=st.integers(0, 1000),
)
def test_sanity_variants_of_a_read_back_checkpoint_keep_their_contracts(hidden, miner, seed):
    widths = ",".join(map(str, [2, *hidden, 2]))
    cfg = build_experiment_config(BASE_CFG.replace("net.widths = 2,10,2", f"net.widths = {widths}") + SCORED_MINERS[miner])
    result = harness.mine_for_seed(cfg, harness.build_dataset(cfg.task), seed)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(Path(tmp) / "mined.tfmc", result.layers)
        layers = harness.read_checkpoint(cfg, Path(tmp) / "mined.tfmc")

    def as_float32(a):
        return a.astype(np.float32).astype(np.float64).tobytes()

    mask, kept = extract_mask(layers), [int(layer.mask.sum()) for layer in layers]
    assert [m.tobytes() for m in mask] == [m.tobytes() for m in result.mask]
    assert [layer.weights.tobytes() for layer in layers] == [as_float32(layer.weights) for layer in result.layers]
    assert [layer.scores.tobytes() for layer in layers] == [as_float32(layer.scores) for layer in result.layers]

    def variant(kind):
        warnings: list[str] = []
        return extract_mask(harness.variant_network(layers, kind, seed, cfg.init_scheme, warnings)), warnings

    assert [int(m.sum()) for m in variant("shuffle")[0]] == kept
    assert [m.tobytes() for m in variant("reinit")[0]] == [m.tobytes() for m in mask]
    inverted, warnings = variant("invert")
    degenerate = [f"inversion degenerate: all scores equal in layer {i}" for i, l in enumerate(layers) if np.ptp(l.scores) == 0.0]
    assert [int(m.sum()) for m in inverted] == kept
    assert [w for w in warnings if w.startswith("inversion degenerate")] == degenerate


def test_cli_leaves_the_run_directory_to_the_harness():
    """cli.py parses, prints and sets exit codes; the harness stages write every file."""
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
    # whole names only: docstrings, comments and the "finetune" subcommand string may mention them
    assert [f"cli.py:{line}: {name}" for line, name in names((PACKAGE / "cli.py").read_text()) if name in banned] == []


def _sanity_rule_names(source: str) -> list[str]:
    """``line: name`` for each NAME token in ``source`` that is a sanity transform or a ``*_SEED_OFFSET``."""
    transforms = {"shuffle_mask", "reinit_weights", "invert_scores"}
    return [f"{line}: {name}" for line, name in names(source) if name in transforms or name.endswith("_SEED_OFFSET")]


def _private_harness_names(source: str) -> list[str]:
    """``line: name`` for each underscore-prefixed name ``source`` imports from ``gemmine.harness`` or reads off ``harness``."""

    def private(node) -> list[str]:
        if isinstance(node, ast.ImportFrom) and node.module == "gemmine.harness":
            return [alias.name for alias in node.names if alias.name.startswith("_")]
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "harness" and node.attr.startswith("_"):
            return [node.attr]
        return []

    return [f"{line}: {name}" for line, _, found in sites(source, private, what=private) for name in found]


def test_a_sanity_variant_is_built_only_in_sanity():
    """``sanity.variant_network`` is the one rule for what a variant is: the harness calls it and writes what it returns."""
    assert _sanity_rule_names((PACKAGE / "harness.py").read_text()) == []
    assert harness.variant_network is sanity.variant_network
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert [f"{path.name}:{site}" for path in tests for site in _private_harness_names(path.read_text())] == []


def test_the_sanity_rule_guard_sees_each_spelling():
    source = """
from .sanity import shuffle_mask, reinit_weights as redraw
mask = sanity.invert_scores(scores, mask, warnings)
_REINIT_SEED_OFFSET = 7919
seed + _SHUFFLE_SEED_OFFSET  # shuffle_mask in a comment
text = "invert_scores in a string"
"""
    want = ["2: shuffle_mask", "2: reinit_weights", "3: invert_scores", "4: _REINIT_SEED_OFFSET", "5: _SHUFFLE_SEED_OFFSET"]
    assert _sanity_rule_names(source) == want
    imports = """
from gemmine.harness import _REINIT_SEED_OFFSET, write_report
from gemmine.harness import (_hidden as shown)
from gemmine.sanity import _SHUFFLE_SEED_OFFSET
offset = harness._SHUFFLE_SEED_OFFSET + harness.BASE_VARIANT
"""
    assert _private_harness_names(imports) == ["2: _REINIT_SEED_OFFSET", "3: _hidden", "5: _SHUFFLE_SEED_OFFSET"]


def _algorithm_branches(source: str) -> list[str]:
    """``function:line`` for each comparison or ``match`` in ``source`` that reads an ``.algorithm`` attribute."""

    def reads_algorithm(node) -> bool:
        operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
        operands += [node.subject] if isinstance(node, ast.Match) else []
        return any(isinstance(o, ast.Attribute) and o.attr == "algorithm" for o in operands)

    return [f"{function}:{line}" for line, function in sites(source, reads_algorithm)]


def test_the_harness_branches_on_the_algorithm_only_to_mine_and_check_the_data():
    """Once mined, a network's layers say what it holds: ``invert`` reads their scores, whichever miner made them."""
    branches = _algorithm_branches((PACKAGE / "harness.py").read_text())
    assert branches and {site.partition(":")[0] for site in branches} <= {"mine_for_seed", "load_dataset"}
    assert [str(path) for path, text in modules() if "inversion_scores" in text] == []


def test_the_algorithm_guard_sees_each_spelling():
    source = """
def mine_for_seed(cfg):
    if cfg.algorithm == "gem": pass
def sanity_file(cfg, self):
    scores = 1 if cfg.algorithm == "gem" else None
    same = "sr" != self.algorithm
    if cfg.algorithm in ("ep", "imp"): pass
    match cfg.algorithm:
        case "gem": pass
    return cfg.algorithm
"""
    assert _algorithm_branches(source) == ["mine_for_seed:3", "sanity_file:5", "sanity_file:6", "sanity_file:7", "sanity_file:8"]


def _value_splits(source: str) -> list[str]:
    """``function:line`` for each ``.split``, ``.partition`` or right-hand variant in ``source`` that cuts at ``':'`` or ``','``."""

    def cuts_a_value(node) -> bool:
        if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("split", "rsplit", "partition", "rpartition")):
            return False
        separators = node.args[:1] + [k.value for k in node.keywords if k.arg == "sep"]
        return any(isinstance(a, ast.Constant) and a.value in (":", ",") for a in separators)

    return [f"{function}:{line}" for line, function in sites(source, cuts_a_value)]


def test_value_text_is_cut_only_by_the_two_config_readers():
    """A list or a ``<kind>[:<arg>]`` value has one grammar: ``config._items`` and ``config._kind`` read them all."""
    splits = [f"{path}:{site}" for path, text in modules() for site in _value_splits(text)]
    assert {site.rpartition(":")[0] for site in splits} == {"config.py:_items", "config.py:_kind"}


def test_the_value_split_guard_sees_each_spelling():
    source = """
def read(text, scores):
    kind, _, arg = text.partition(":")
    text.split(",")
    text.rsplit(sep=",", maxsplit=1)
    text.rpartition(":")
    scores.partition(3)
    text.split("#", 1)
    text.split()
    text.partition("=")
"""
    assert _value_splits(source) == ["read:3", "read:4", "read:5", "read:6"]


def _summary_sites(source: str, names_too: bool) -> list[str]:
    """``function:line: what`` for each ``SummaryRow(`` call in ``source`` and, when ``names_too``,
    each string that names ``summary.csv`` outside a docstring."""
    tree = ast.parse(source)
    scopes = [n for n in ast.walk(tree) if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    docstrings = {id(n.body[0].value) for n in scopes if n.body and isinstance(n.body[0], ast.Expr)}

    def hit(node) -> str | None:
        if isinstance(node, ast.Call) and "SummaryRow" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            return "SummaryRow("
        if names_too and isinstance(node, ast.Constant) and "summary.csv" in str(node.value) and id(node) not in docstrings:
            return "summary.csv"
        return None

    return [f"{function}:{line}: {found}" for line, function, found in sites(tree, hit, what=hit)]


def test_summary_csv_has_one_writer():
    """Only rebuild_summary builds summary rows, and, of the modules that write files, only it names summary.csv."""
    offenders = [f"{path}:{site}" for path, text in modules() for site in _summary_sites(text, str(path) in FILE_WRITERS)]
    assert [site for site in offenders if not site.startswith("harness.py:rebuild_summary:")] == []
    assert {site.partition(": ")[2] for site in offenders} == {"SummaryRow(", "summary.csv"}


def test_the_summary_guard_sees_each_spelling():
    source = '''"""summary.csv in a module docstring"""
def rebuild_summary():
    """summary.csv in a docstring"""
    return SummaryRow(1), run_dir / "summary.csv"
def run_experiment():
    harness.SummaryRow(2)
    print(f"{run_dir}/summary.csv")
'''
    assert _summary_sites(source, names_too=True) == [
        "rebuild_summary:4: SummaryRow(",
        "rebuild_summary:4: summary.csv",
        "run_experiment:6: SummaryRow(",
        "run_experiment:7: summary.csv",
    ]
    assert _summary_sites(source, names_too=False) == ["rebuild_summary:4: SummaryRow(", "run_experiment:6: SummaryRow("]


# the modules that write files: the run directory, the checkpoint format and IDX archives
FILE_WRITERS = {"harness.py", "checkpoint.py", "data.py"}


def _file_writes(source: str) -> list[str]:
    """``line: what`` for each use of csv or json, ``.write_text(``, ``.write_bytes(`` and write-mode ``open(`` in ``source``."""

    def writes(node) -> list[str]:
        if isinstance(node, ast.Import):
            return [f"import {a.name}" for a in node.names if a.name in ("csv", "json")]
        if isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
            return [f"from {node.module}"]
        if isinstance(node, ast.Name) and node.id in ("csv", "json"):
            return [node.id]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("write_text", "write_bytes"):
            return [f".{node.func.attr}("]
        if isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "open" or getattr(node.func, "attr", None) == "open"):
            # open(path, mode) or path.open(mode); a mode that is not a literal may write
            args = node.args[1:] if isinstance(node.func, ast.Name) else node.args
            mode = next((k.value for k in node.keywords if k.arg == "mode"), args[0] if args else ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+")):
                return ["open("]
        return []

    return sorted(f"{line}: {found}" for line, _, hits in sites(source, writes, what=writes) for found in hits)


def test_only_the_file_writing_modules_write_files():
    """trainer, sanity and the other modules compute; harness writes the run directory's files."""
    assert [f"{path}:{hit}" for path, text in modules() if str(path) not in FILE_WRITERS for hit in _file_writes(text)] == []


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
    # the snapshot names the seed too, so a report through it lists the seed's cells
    snapshot = out_dir / "tiny" / "config.snapshot"
    assert cli_main(["report", "--config", str(snapshot), "--out-dir", str(out_dir)]) == 0
    assert [(row["seed"], row["variant"]) for row in harness.read_summary(out_dir / "tiny" / "summary.csv")] == [
        ("5", variant) for variant in ("none", "shuffle", "reinit", "invert")
    ]
    assert snapshot.read_text() == f"{BASE_CFG}seeds = 5\n"


@pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
def test_a_mine_snapshot_loads_from_its_run_directory(tmp_path, monkeypatch, absolute):
    """A relative ``task.path`` is appended as seen from the run directory; an absolute one leaves the text as written."""
    monkeypatch.chdir(tmp_path)
    make_digit_archive(Path("data", "digits"), n_train=20, n_test=10, seed=0, noise=0.25)
    path = (tmp_path / "data" / "digits") if absolute else Path("..", "data", "digits")
    text = DIGITS_784_4_10.replace("task.path = digits", f"run.id = exp\ntask.path = {path}")
    Path("configs").mkdir()
    Path("configs", "exp.cfg").write_text(text)
    assert cli_main(["mine", "--config", "configs/exp.cfg", "--out-dir", "out"]) == 0
    snapshot = Path("out", "exp", "config.snapshot")
    assert cli_main(["mine", "--config", str(snapshot), "--out-dir", "again"]) == 0
    assert snapshot.read_text() == (text if absolute else f"{text}task.path = ../../data/digits\n")
    assert Path("again", "exp", "config.snapshot").read_text() == snapshot.read_text()
    checkpoint = Path("masks", "seed1_none.tfmc")
    assert Path("again", "exp", checkpoint).read_bytes() == Path("out", "exp", checkpoint).read_bytes()


def test_a_config_is_read_and_snapshotted_as_utf8_under_any_locale(tmp_path):
    """The format is UTF-8 whatever the locale: under ``LC_ALL=C`` the preferred encoding is ASCII, and a config
    read in it fails on a non-ASCII comment with ``cannot be read ('ascii' codec can't decode ...)``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    probe = [sys.executable, "-c", "import codecs, locale; print(codecs.lookup(locale.getpreferredencoding(False)).name)"]
    if subprocess.run(probe, env=env, capture_output=True, text=True, check=True).stdout.strip() == "utf-8":
        pytest.skip("under LC_ALL=C this Python still prefers UTF-8, so a read in the locale's encoding would pass too")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_bytes(f"# café ≥ 5%{BASE_CFG}".encode("utf-8"))
    mine = [sys.executable, "-m", "gemmine.cli", "mine", "--config", str(cfg_path), "--seed", "1", "--out-dir", str(tmp_path / "out")]
    proc = subprocess.run(mine, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "tiny" / "config.snapshot").read_bytes().startswith(cfg_path.read_bytes())


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
    "miner.optimizer": ("sgd:0.5", "adam"),
    "miner.batch_size": ("8",),
    "schedule.sparsity": ("0.3",),
    "schedule.epochs": ("4",),
    "schedule.freeze_period": ("2",),
    "finetune.epochs": ("2",),
    "finetune.batch_size": ("8",),
    "finetune.optimizer": ("adam",),
    "finetune.lr": ("0.05",),
    "sanity": ("shuffle,reinit", "invert", "shuffle:3"),
    "seeds": ("1,2", "4"),
    "init.scheme": ("signed_constant", "scaled_normal"),
    "ep.scope": ("layerwise", "global"),
    "ep.gradual": ("true", "false"),
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


def _config_reads(source: str) -> tuple[set[str], list[str]]:
    """The keys a config module reads, the string constants passed first to ``fields.<reader>(...)`` for each
    method of its ``_Fields``; and ``line: reader`` for each such call whose key is not a constant."""
    tree = ast.parse(source)
    (fields_class,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Fields"]
    readers = {f.name for f in fields_class.body if isinstance(f, ast.FunctionDef)}

    def reads(node) -> bool:
        func = getattr(node, "func", None)
        return isinstance(func, ast.Attribute) and func.attr in readers and getattr(func.value, "id", None) == "fields" and bool(node.args)

    calls = sites(tree, reads, what=lambda node: node)
    keys = {node.args[0].value for _, _, node in calls if isinstance(node.args[0], ast.Constant)}
    return keys, [f"{line}: {node.func.attr}" for line, _, node in calls if not isinstance(node.args[0], ast.Constant)]


def _readme_keys(text: str, sections: set[str]) -> set[str]:
    """The keys a README names: each ``<section>.<name>``, and each ``<name> =`` that starts a line."""
    dotted = re.findall(rf"\b(?:{'|'.join(sorted(sections))})\.[a-z_]+", text)
    return set(dotted) | set(re.findall(r"^([a-z_]+) =", text, flags=re.M))


def test_config_keys_are_the_ones_readme_and_the_property_test_list():
    read, unseen = _config_reads((PACKAGE / "config.py").read_text())
    assert unseen == []  # a key the AST cannot read would escape this test
    listed = set(VALID_VALUES).union(*TASK_KEYS.values())
    sections = {key.partition(".")[0] for key in read if "." in key}
    assert _readme_keys((Path(__file__).resolve().parents[1] / "README.md").read_text(), sections) == read
    assert listed == read


def _readme_literal_defaults(text: str) -> list[str]:
    """The ``key = value`` lines, comments cut, of README's block of keys "with the value it takes when absent"
    whose value is a literal: not a ``<…>`` placeholder, and not a required key's."""
    block = text.split("with the value it takes when absent:", 1)[1].split("```")[1]
    lines = []
    for line in block.strip().splitlines():
        setting, _, comment = line.partition("#")
        if "<" not in setting and "required" not in comment:
            lines.append(setting.strip())
    return lines


def test_readme_values_when_absent_are_the_parser_defaults():
    lines = _readme_literal_defaults((Path(__file__).resolve().parents[1] / "README.md").read_text())
    keys = {"miner.algorithm", "miner.lr", "miner.lambda", "schedule.sparsity", "schedule.epochs"}
    keys |= {"finetune.epochs", "finetune.lr", "sanity", "seeds"}
    assert {line.partition("=")[0].strip() for line in lines} == keys
    minimal = "task.kind = blobs\nnet.widths = 2,4,2\n"
    want = build_experiment_config(minimal)
    for line in lines:
        assert replace(build_experiment_config(f"{minimal}{line}\n"), raw_text=minimal) == want, line


def test_the_smart_ratio_keys_default_to_the_miners_own_defaults():
    cfg = build_experiment_config("task.kind = blobs\nnet.widths = 2,4,2\nminer.algorithm = sr\n")
    defaults = {name: p.default for name, p in inspect.signature(smart_ratio).parameters.items()}
    assert (cfg.sr_last_layer_keep, cfg.sr_tune_steps, cfg.sr_tune_lr) == (
        defaults["last_layer_keep"], defaults["tune_steps"], defaults["tune_lr"]
    )
    assert inspect.signature(smooth_ratios).parameters["last_layer_keep"].default == defaults["last_layer_keep"]

def test_the_config_key_finders_see_each_spelling():
    source = '''
class _Fields:
    def get(self, key): ...
    def number(self, key, kind, default): ...
def build(text, key):
    fields = _Fields(text)
    fields.get("run.id"), fields.number("task.n", int, 1), fields.get(key), other.get("miner.lr"), fields.unknown()
'''
    assert _config_reads(source) == ({"run.id", "task.n"}, ["7: get"])
    text = "seeds = 1\n`task.n >= 10`, then `sr.variant = v4`; run.id\nrunning = 2 and `key = value`, masking.as_mask\n"
    assert _readme_keys(text, {"run", "task", "sr"}) == {"seeds", "task.n", "sr.variant", "run.id", "running"}


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
    make_digit_archive(root / "digits", n_train=60, n_test=20, seed=0, noise=0.25)
    return root


@settings(max_examples=200, deadline=None)
@given(case=_config_texts())
# two keys drawn together, which the derandomized examples do not reach
@example(case=("blobs", PROPERTY_BASES["blobs"] + "miner.algorithm = sr\nsr.variant = v4\n"))
def test_every_config_runs_or_fails_on_its_key(property_root, case):
    """Either the config or its check against the data raises a ConfigError that starts with a key or
    section, or the run returns with summary.csv written and no errors.log entry but a diverged training."""
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
    log = run_dir / "errors.log"
    if log.exists():
        entries = re.findall(r"^seed \d+: (?:mining|variant \w+) failed: (.*)$", log.read_text(), flags=re.M)
        assert entries and all(e.startswith("training diverged") for e in entries), log.read_text()


@pytest.mark.parametrize("action", ["error", "default"])
def test_a_diverged_finetune_is_logged_the_same_under_any_warnings_filter(tmp_path, action):
    """numpy's overflow warnings, errors under a strict filter, do not decide how a divergence is logged."""
    cfg = build_experiment_config("run.id = diverge\n" + golden.CONFIGS["diverge"])
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        run_dir = harness.run_experiment(cfg, tmp_path)
    first = (run_dir / "errors.log").read_text().splitlines()[0]
    assert first == "seed 1: variant none failed: training diverged: loss=nan"
