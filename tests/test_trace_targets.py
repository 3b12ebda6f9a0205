"""The traced benchmark's targets still name functions the package has.

``perfbench/spans.py`` patches each ``(module, attr)`` of its ``TARGETS`` and
the ``step`` of each optimizer class; a renamed function breaks
``perfbench/run.py --trace 1``, which the benchmark's own tests catch only
when run on their own. This reads that list without changing it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(spans):
    assert spans.TARGETS
    for span, module, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{span}: {module}.{attr} is gone"


def test_every_traced_optimizer_class_has_step(spans):
    optim = importlib.import_module("gemmine.optim")
    for cls_name in spans.OPTIMIZER_CLASSES:
        assert callable(getattr(getattr(optim, cls_name, None), "step", None)), f"gemmine.optim.{cls_name}.step is gone"
