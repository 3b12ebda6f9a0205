import json
import re
import tokenize
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gemmine.harness as harness
from gemmine.checkpoint import load_checkpoint, save_checkpoint
from gemmine.cli import main as cli_main
from gemmine.config import ConfigError, build_experiment_config, parse_key_values
from gemmine.data import make_digit_archive
from gemmine.masking import MaskedLayer, extract_mask, mask_sparsity
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
    build_experiment_config(BASE_CFG + line + "\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("task.train_limit = -5", "train_limit must be >= 0, got -5"),
        ("task.val_fraction = -0.5", "val_fraction must be in [0, 1), got -0.5"),
        ("task.val_fraction = 1", "val_fraction must be in [0, 1), got 1.0"),
    ],
)
def test_config_rejects_a_bad_idx_split(tmp_path, line, message):
    make_digit_archive(tmp_path / "digits", n_train=20, n_test=10, seed=0)
    text = f"task.kind = idx\ntask.path = digits\nnet.widths = 784,4,10\nseeds = 0\n{line}\n"
    with pytest.raises(ConfigError, match=f"^task: {re.escape(message)}"):
        build_experiment_config(text, base_dir=tmp_path)


def test_config_missing_idx_path(tmp_path):
    text = "task.kind = idx\ntask.path = missing_dir\nnet.widths = 2,4,2\nseeds = 0\n"
    with pytest.raises(ConfigError, match="does not exist"):
        build_experiment_config(text, base_dir=tmp_path)


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
        "write_layerwise_csv",
        "save_json",
        "save_metrics_csv",
        "MaskedLayer",
    }
    with open(cli, "rb") as f:
        # whole NAME tokens only: docstrings, comments and the "finetune" subcommand string may mention them
        tokens = tokenize.tokenize(f.readline)
        offenders = [f"cli.py:{t.start[0]}: {t.string}" for t in tokens if t.type == tokenize.NAME and t.string in banned]
    assert offenders == []


def test_cli_seed_override_runs_single_seed(tmp_path):
    cfg_path = _write_cfg(tmp_path, BASE_CFG)
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--seed", "5", "--out-dir", str(out_dir)]) == 0
    rows = harness.read_summary(out_dir / "tiny" / "summary.csv")
    assert {row["seed"] for row in rows} == {"5"}
