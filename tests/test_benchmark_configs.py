"""The benchmark's experiment configs still parse to the settings its
workloads rely on, its ``baselines`` workload passes its own checks, and
each workload's unit reproduces the stored reference hashes.

``perfbench/workloads.py`` writes each workload's configs as config-file
text and parses them in its timed set-up, so a parser change that rejects
or re-reads one would otherwise show only in a benchmark run. Its
``invariant_errors`` reads IMP's ``round_masks`` by length, slice and
iteration, so a change to that result's shape would too. A change that
moves one bit of a mask or a summary would show only there as well. This
reads those modules and the reference hashes without changing them.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gemmine.config import build_experiment_config
from gemmine.masking import SCALED_NORMAL, SIGNED_CONSTANT

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS_PATH = PERFBENCH / "workloads.py"
BENCHMARK_WORKLOADS = ["gem_mine", "ep_ablation", "matrix_gem", "baselines"]

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


@pytest.fixture
def bench_run(workloads, monkeypatch):
    """``perfbench/run.py`` as a module; its own ``workloads`` import gets the fixture's, and ``sys.path`` is restored."""
    monkeypatch.setattr(sys, "path", [*sys.path])
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec = importlib.util.spec_from_file_location("perfbench_run_under_test", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_benchmark_unit_reproduces_the_reference_hashes(bench_run, tmp_path, workload):
    # the full-size unit at seed 1, as run.py starts it, checked as run.py checks it
    assert sorted(bench_run.WORKLOADS) == sorted(BENCHMARK_WORKLOADS)
    env = {**os.environ, **{var: str(bench_run.BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    cmd = [sys.executable, str(PERFBENCH / "unit.py"), "--workload", workload, "--seed", "1", "--work-dir", str(tmp_path / "work")]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    unit = json.loads(proc.stdout.strip().splitlines()[-1])
    assert unit["errors"] == []
    key = bench_run.reference_key([unit])
    references = json.loads(bench_run.REFERENCE.read_text())
    if key not in references:
        pytest.skip(f"no reference hashes for this BLAS build: {key!r}")
    assert unit["hashes"] == references[key][workload][str(1 % bench_run.ARCHIVE_VARIANTS)]
