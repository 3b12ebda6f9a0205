"""The tiny run tree of ``golden.py`` has the bytes its BLAS kernel's manifest records."""

import json

import pytest

import golden


def test_every_file_of_a_tiny_run_tree_keeps_its_bytes():
    kernel = golden.blas_kernel()
    if kernel is None:
        pytest.skip("no OpenBLAS runtime string to name a kernel by")
    path = golden.manifest_path(kernel)
    if not path.exists():
        pytest.skip(f"no golden manifest for BLAS kernel {kernel}")
    assert golden.differences(json.loads(path.read_text()), golden.built_manifest()) == []
