"""Fast checks of the benchmark itself, at tiny sizes.

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import unit  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402


def bench(capsys, *args: str) -> tuple[dict, str]:
    """One tiny run of the runner in this process; its units still get their own processes."""
    assert run.main(["--tiny", "--seconds", "0", *args]) == 0
    stdout = capsys.readouterr().out
    return json.loads(stdout.strip().splitlines()[-1]), stdout


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in declared()["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, capsys):
    result, stdout = bench(capsys, "--workload", "matrix_gem", "--seed", "2", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    want = {m["name"]: m["unit"] for m in declared()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    lines = stdout.splitlines()
    for name, unit_name in want.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit_name}") for line in lines), name


def test_corrupted_reference_hash_counts_as_failure(tmp_path, monkeypatch, capsys):
    ref = tmp_path / "ref.json"
    monkeypatch.setattr(run, "REFERENCE", ref)
    args = ("--workload", "gem_mine", "--seed", "5")
    bench(capsys, *args, "--update-reference")
    good, _ = bench(capsys, *args)
    assert good["correct"] and good["failed"] == 0

    stored = json.loads(ref.read_text())
    (key,) = stored
    entry = stored[key]["gem_mine@tiny"]["5"]
    entry["mask"] = "0" * len(entry["mask"])
    ref.write_text(json.dumps(stored))
    bad, stdout = bench(capsys, *args)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] >= 3
    assert f"fail_frac = {bad['failed']}/{bad['attempted']} = 1" in stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_outputs_unchanged(workload, tmp_path):
    autodiff = importlib.import_module("gemmine.autodiff")
    backward = autodiff.backward
    plain = unit.run_unit(workload, 3, tmp_path / "plain", traced=False, tiny=True)
    traced = unit.run_unit(workload, 3, tmp_path / "traced", traced=True, tiny=True)
    assert traced["hashes"] == plain["hashes"]
    assert plain["errors"] == [] and traced["errors"] == []
    assert sum(s["calls"] for s in traced["spans"].values()) > 0
    # the wrappers are gone again, in the defining module and where imported
    assert autodiff.backward is backward
    assert importlib.import_module("gemmine.miners.gem").backward is backward
