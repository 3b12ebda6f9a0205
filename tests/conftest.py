from pathlib import Path

import numpy as np
import pytest

from gemmine.config import ExperimentConfig, build_experiment_config
from gemmine.data import DatasetSplit, gen_synthetic, make_digit_archive
from gemmine.harness import build_dataset

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="session")
def blobs() -> DatasetSplit:
    return gen_synthetic("blobs", 120, noise=0.4, seed=7)


@pytest.fixture(scope="session")
def digits_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("digits")
    return make_digit_archive(directory)


@pytest.fixture(scope="session")
def experiment_config(digits_dir):
    """``experiment_config(name, *lines)``: ``configs/<name>.cfg`` on the fixture's digit archive, ``lines`` appended.

    A repeated key takes its last value, so the appended ``task.path`` and ``lines`` replace the file's.
    """

    def build(name: str, *lines: str) -> ExperimentConfig:
        text = (CONFIGS / f"{name}.cfg").read_text() + "".join(f"{line}\n" for line in (f"task.path = {digits_dir}", *lines))
        return build_experiment_config(text, base_dir=CONFIGS)

    return build


@pytest.fixture(scope="session")
def digits_1k(experiment_config) -> DatasetSplit:
    """The digit task of ``configs/digits_gem.cfg``: 1000 training rows, 10 classes, 784 features."""
    return build_dataset(experiment_config("digits_gem").task)


def random_classification(n: int, dim: int, classes: int, seed: int) -> DatasetSplit:
    """Structureless labelled data for purely structural miner tests."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    y = rng.integers(0, classes, size=n).astype(np.int64)
    n_train = int(0.8 * n)
    n_val = int(0.1 * n)
    return DatasetSplit(
        train_x=x[:n_train],
        train_y=y[:n_train],
        val_x=x[n_train : n_train + n_val],
        val_y=y[n_train : n_train + n_val],
        test_x=x[n_train + n_val :],
        test_y=y[n_train + n_val :],
        n_classes=classes,
    )
