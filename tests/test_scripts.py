import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gemmine import harness
from gemmine.config import load_experiment_config
from gemmine.data import TEST_IMAGES, TEST_LABELS, TRAIN_IMAGES, TRAIN_LABELS, make_digit_archive

ROOT = Path(__file__).resolve().parents[1]


def test_pytest_collects_every_test_file_from_outside_the_repo(tmp_path):
    # a test file that imports another through a ``tests`` package collects only with the repo root on sys.path
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    collect = [sys.executable, "-m", "pytest", str(ROOT / "tests"), "--collect-only", "-q", "-p", "no:cacheprovider"]
    proc = subprocess.run(collect, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr


def test_make_digits_script_writes_the_library_archive(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "script"
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_digits.py"), "--out", str(out), "--train", "40", "--test", "10"],
        env=env,
        check=True,
        capture_output=True,
    )
    # the flags not given take make_digit_archive's defaults
    want = make_digit_archive(tmp_path / "library", n_train=40, n_test=10)
    for name in (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS):
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


@pytest.mark.parametrize(
    "flags, appended, archive",
    [
        ((), "", {}),  # no flag given: the file as it is, on the archive of make_digit_archive's defaults
        (("--sparsity", "0.1", "--noise", "0.25"), "schedule.sparsity = 0.1\n", {"noise": 0.25}),
    ],
)
def test_image_experiment_snapshot_runs_again_from_a_relative_out_dir(tmp_path, monkeypatch, flags, appended, archive):
    spec = importlib.util.spec_from_file_location("run_image_experiment", ROOT / "scripts" / "run_image_experiment.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def write_snapshot_only(cfg, out):
        run_dir = harness.open_run_dir(cfg, out, snapshot=True)
        harness.rebuild_summary(cfg, out)
        return run_dir

    monkeypatch.setattr(script, "run_experiment", write_snapshot_only)
    monkeypatch.setattr(sys, "argv", ["run_image_experiment.py", "--out-dir", "out", *flags])
    monkeypatch.chdir(tmp_path)
    script.main()

    snapshot = tmp_path / "out" / "digits_gem" / "config.snapshot"
    data_dir = tmp_path.resolve() / "out" / "digits_data"
    assert load_experiment_config(snapshot).task.path == str(data_dir)
    assert snapshot.read_text() == script.CONFIG.read_text() + f"task.path = {data_dir}\n" + appended
    want = make_digit_archive(tmp_path / "library", **archive)
    for name in (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS):
        assert (data_dir / name).read_bytes() == (want / name).read_bytes(), name
