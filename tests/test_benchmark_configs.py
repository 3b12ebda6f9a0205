"""The benchmark's experiment configs still parse to the settings of the
set-ups in ``configs/`` they copy, its ``baselines`` workload passes its own
checks, and each workload's unit reproduces the stored reference hashes.

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
from dataclasses import replace
from pathlib import Path

import pytest

from gemmine.config import build_experiment_config, parse_key_values
from gemmine.masking import SCALED_NORMAL

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS_PATH = PERFBENCH / "workloads.py"
BENCHMARK_WORKLOADS = ["gem_mine", "ep_ablation", "matrix_gem", "baselines"]

CONFIGS = PERFBENCH.parent / "configs"
# each workload config that copies a set-up of configs/, and that file's name
SETUPS = {
    "gem_mine": "digits_gem",
    "matrix_gem": "digits_gem",
    "ep_layerwise": "ep_ablation",
    "ep_global_gradual": "ep_ablation",
    "imp_cold": "imp_cold",
}
# what a workload sets itself: its run id, seed, rows, data path and edge-popup arm; and what TINY shrinks
WORKLOAD_KEYS = {"run.id", "seeds", "task.train_limit", "task.path", "ep.scope", "ep.gradual"}
SIZE_KEYS = {"net.widths", "schedule.epochs", "schedule.freeze_period", "finetune.epochs", "imp.rounds"}

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
    texts = {
        name: text
        for workload in workloads.WORKLOADS
        for name, text in workloads.config_texts(workload, sizes, tmp_path).items()
    }
    configs = {name: build_experiment_config(text, default_run_id=name) for name, text in texts.items()}
    assert {name: cfg.algorithm for name, cfg in configs.items()} == ALGORITHMS
    assert {name: cfg.task.train_limit for name, cfg in configs.items()} == {
        "gem_mine": sizes.rows, "matrix_gem": sizes.matrix_rows, "ep_layerwise": sizes.ep_rows,
        "ep_global_gradual": sizes.ep_rows, "imp_cold": sizes.rows, "sr_v6": sizes.rows,
    }
    gem, ep = (sizes.gem_epochs, sizes.gem_period), (sizes.ep_epochs, sizes.ep_period)
    assert {name: (cfg.schedule.total_epochs, cfg.schedule.freeze_period) for name, cfg in configs.items()
            if cfg.algorithm in ("gem", "ep")} == {"gem_mine": gem, "matrix_gem": gem, "ep_layerwise": ep, "ep_global_gradual": ep}
    assert configs["gem_mine"].finetune.epochs == configs["matrix_gem"].finetune.epochs == sizes.finetune_epochs
    assert configs["imp_cold"].imp_rounds == sizes.imp_rounds
    for name, cfg in configs.items():
        assert cfg.run_id == name
        assert (cfg.task.kind, cfg.task.path, cfg.task.val_fraction) == ("idx", str(tmp_path), 0.1)
        assert cfg.spec.widths == tuple(int(w) for w in sizes.widths.split(","))
        assert cfg.seeds == [1]
        assert cfg.ep_gradual == (name == "ep_global_gradual")
        assert cfg.ep_scope == ("global" if name == "ep_global_gradual" else "layerwise")

    # every other setting is the set-up's file's, until the workloads read the files themselves
    own_keys = WORKLOAD_KEYS | (SIZE_KEYS if size == "TINY" else set())
    for name, setup in SETUPS.items():
        own = {key: value for key, value in parse_key_values(texts[name]).items() if key in own_keys}
        text = (CONFIGS / f"{setup}.cfg").read_text() + "".join(f"{key} = {value}\n" for key, value in own.items())
        want = build_experiment_config(text, base_dir=CONFIGS)
        if setup == "ep_ablation":  # the workload mines each arm and does not finetune it
            want = replace(want, finetune=configs[name].finetune)
        assert replace(configs[name], raw_text="") == replace(want, raw_text=""), name

    sr_cfg = configs["sr_v6"]  # no other user, so no file
    assert (sr_cfg.miner.batch_size, sr_cfg.init_scheme, sr_cfg.sr_variant) == (32, SCALED_NORMAL, "v6")
    assert sr_cfg.schedule.target_sparsity == (1.0 - workloads.IMP_PRUNE_RATE) ** sizes.imp_rounds
    assert configs["imp_cold"].imp_prune_rate == workloads.IMP_PRUNE_RATE
    assert (sr_cfg.sr_tune_steps, sr_cfg.sr_tune_lr) == (sizes.tune_steps, 0.01)


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
