"""The benchmark's experiment configs still parse to the settings its
workloads rely on, and its ``baselines`` workload passes its own checks.

``perfbench/workloads.py`` writes each workload's configs as config-file
text and parses them in its timed set-up, so a parser change that rejects
or re-reads one would otherwise show only in a benchmark run. Its
``invariant_errors`` reads IMP's ``round_masks`` by length, slice and
iteration, so a change to that result's shape would too. This reads that
module without changing it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gemmine.config import build_experiment_config
from gemmine.masking import SCALED_NORMAL, SIGNED_CONSTANT

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

ALGORITHMS = {
    "gem_mine": "gem",
    "matrix_gem": "gem",
    "ep_layerwise": "ep",
    "ep_global_gradual": "ep",
    "imp_cold": "imp",
    "sr_v6": "sr",
}


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads_under_test", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("size", ["FULL", "TINY"])
def test_every_workload_config_parses_to_what_the_workload_runs(workloads, tmp_path, size):
    sizes = getattr(workloads, size)
    configs = {
        name: build_experiment_config(text, default_run_id=name)
        for workload in workloads.WORKLOADS
        for name, text in workloads.config_texts(workload, sizes, tmp_path).items()
    }
    assert {name: cfg.algorithm for name, cfg in configs.items()} == ALGORITHMS
    for name, cfg in configs.items():
        assert cfg.run_id == name
        assert (cfg.task.kind, cfg.task.path, cfg.task.val_fraction) == ("idx", str(tmp_path), 0.1)
        assert cfg.spec.widths == tuple(int(w) for w in sizes.widths.split(","))
        assert cfg.seeds == [1]
        assert cfg.miner.batch_size == 32
        assert cfg.init_scheme == (SIGNED_CONSTANT if cfg.algorithm in ("gem", "ep") else SCALED_NORMAL)
        assert cfg.ep_gradual == (name == "ep_global_gradual")
        assert cfg.ep_scope == ("global" if name == "ep_global_gradual" else "layerwise")

    for name in ("gem_mine", "matrix_gem"):
        cfg = configs[name]
        rows = sizes.matrix_rows if name == "matrix_gem" else sizes.rows
        assert cfg.task.train_limit == rows
        assert (cfg.miner.lr, cfg.miner.reg_weight, cfg.schedule.target_sparsity) == (0.5, 1e-6, 0.05)
        assert (cfg.schedule.total_epochs, cfg.schedule.freeze_period) == (sizes.gem_epochs, sizes.gem_period)
        assert (cfg.finetune.epochs, cfg.finetune.lr, cfg.finetune.batch_size) == (sizes.finetune_epochs, 0.1, 32)
        assert [v.kind for v in cfg.sanity] == ["shuffle", "reinit", "invert"]
    for name in ("ep_layerwise", "ep_global_gradual"):
        cfg = configs[name]
        assert cfg.task.train_limit == sizes.ep_rows
        assert (cfg.schedule.total_epochs, cfg.schedule.freeze_period) == (sizes.ep_epochs, sizes.ep_period)
        assert cfg.schedule.target_sparsity == 0.02

    imp_cfg, sr_cfg = configs["imp_cold"], configs["sr_v6"]
    assert (imp_cfg.imp_rounds, imp_cfg.imp_prune_rate, imp_cfg.imp_epochs_per_round) == (
        sizes.imp_rounds, workloads.IMP_PRUNE_RATE, 1,
    )
    assert imp_cfg.imp_rewind.kind == "cold"
    assert sr_cfg.sr_variant == "v6"
    assert sr_cfg.schedule.target_sparsity == (1.0 - workloads.IMP_PRUNE_RATE) ** sizes.imp_rounds
    assert (sr_cfg.sr_tune_steps, sr_cfg.sr_tune_lr) == (sizes.tune_steps, 0.01)
    assert imp_cfg.task.train_limit == sr_cfg.task.train_limit == sizes.rows


def test_tiny_baselines_run_passes_the_workloads_invariant_checks(workloads, tmp_path):
    prep = workloads.setup("baselines", workloads.TINY, seed=1, work_dir=tmp_path)
    outcome = workloads.run("baselines", prep, tmp_path / "out")
    assert len(outcome.extra["imp_cold"].round_masks) == workloads.TINY.imp_rounds
    assert workloads.invariant_errors("baselines", prep, outcome) == []
