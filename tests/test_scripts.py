import os
import subprocess
import sys
from pathlib import Path

from gemmine.data import TEST_IMAGES, TEST_LABELS, TRAIN_IMAGES, TRAIN_LABELS, make_digit_archive

ROOT = Path(__file__).resolve().parents[1]


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
    # the script's defaults: seed 5, noise 1.0
    want = make_digit_archive(tmp_path / "library", n_train=40, n_test=10, seed=5, noise=1.0)
    for name in (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS):
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
