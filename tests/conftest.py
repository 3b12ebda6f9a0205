from pathlib import Path

import pytest
from hypothesis import settings

from gemmine.config import ExperimentConfig, build_experiment_config
from gemmine.data import DatasetSplit, gen_synthetic, make_digit_archive
from gemmine.harness import build_dataset

# every run draws the same examples and reads no saved ones, so a test's verdict does not depend on the run;
# each test keeps its own max_examples and deadline
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")

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

