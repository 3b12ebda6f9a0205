"""The traced benchmark's targets still name functions the package has.

``perfbench/spans.py`` patches each ``(module, attr)`` of its ``TARGETS`` and
the ``step`` of each optimizer class; a renamed function breaks
``perfbench/run.py --trace 1``, which the benchmark's own tests catch only
when run on their own. This reads that list without changing it.
"""

import importlib
import importlib.util
import inspect
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


def test_every_counter_hook_fits_the_function_it_traces(spans):
    """The hooks read a call's arguments by position and its result by type;
    a reordered signature would skew the counters without any error."""
    for span, module, attr, hook in spans.TARGETS:
        fn = getattr(importlib.import_module(module), attr)
        params = list(inspect.signature(fn).parameters)
        if hook == "generator":
            assert inspect.isgeneratorfunction(fn), f"{span}: stepped with next(), so it must be a generator function"
        elif hook == "_count_topk":
            assert params[:3] == ["scores", "keep_fraction", "scope"], f"{span}: {params}"
        elif hook == "_count_bytes":
            assert params[:1] == ["path"], f"{span}: {params}"
        elif hook == "_count_frozen":
            assert inspect.signature(fn).return_annotation in ("int", int), f"{span}: counts the result as an int"
        else:
            assert hook is None, f"{span}: no check for hook {hook!r}"
