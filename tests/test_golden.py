"""The tiny run tree of ``golden.py`` has the bytes its BLAS kernel's manifest records, and one report schema."""

import csv
import json

import pytest

import golden


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """The directory of the tiny run tree's outputs, built once for this module."""
    return golden.build(tmp_path_factory.mktemp("golden"))


def test_every_file_of_a_tiny_run_tree_keeps_its_bytes(tree):
    kernel = golden.blas_kernel()
    if kernel is None:
        pytest.skip("no OpenBLAS runtime string to name a kernel by")
    path = golden.manifest_path(kernel)
    if not path.exists():
        pytest.skip(f"no golden manifest for BLAS kernel {kernel}")
    assert golden.differences(json.loads(path.read_text()), golden.manifest(tree)) == []


def test_every_run_report_counts_epochs_run_and_restates_no_field(tree):
    reports = sorted(tree.rglob("reports/*.json"))
    assert reports
    for path in reports:
        report = json.loads(path.read_text())
        assert "epochs" not in report, path
        epochs = [record["epoch"] for record in report["records"]]
        assert epochs == list(range(1, len(epochs) + 1)), path
        assert all("collapsed" not in row for row in report["layerwise"]), path
        with open(path.with_suffix(".csv"), newline="") as f:
            assert [int(row["epoch"]) for row in csv.DictReader(f)] == epochs, path
