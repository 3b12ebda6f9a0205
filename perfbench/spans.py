"""Outside-in tracing of the gemmine modules for the traced benchmark run.

For the duration of a ``Tracer.installed`` block, every traced function is
replaced in every ``gemmine`` module that binds it: modules use
``from .x import f``, so patching only the defining module would miss most
calls. Spans are aggregated in memory per name: call count, self time (the
span's duration minus the time its child spans cover) and total time
(outermost calls only, so a name that nests inside itself is not counted
twice). A few spans also carry counters computed from their arguments or
result; the time spent computing those is booked separately, and like any
time passed to ``Tracer.exclude`` it is kept out of every open span.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

AUTODIFF_OPS = (
    "add",
    "mul",
    "scale",
    "linear",
    "relu",
    "sum_all",
    "abs_all",
    "ste_round",
    "ste_substitute",
    "softmax_cross_entropy",
)

# (span, defining module, function, counter hook or "generator")
TARGETS = [
    ("autodiff.backward", "gemmine.autodiff", "backward", None),
    *[("autodiff.ops", "gemmine.autodiff", op, None) for op in AUTODIFF_OPS],
    ("masking.mlp_forward", "gemmine.masking", "mlp_forward", None),
    ("config.build_experiment_config", "gemmine.config", "build_experiment_config", None),
    ("data.make_digit_archive", "gemmine.data", "make_digit_archive", None),
    ("data.load_idx", "gemmine.data", "load_idx", None),
    ("miners.gem.gem_mine", "gemmine.miners.gem", "gem_mine", None),
    ("miners.gem.freeze_step", "gemmine.miners.gem", "freeze_step", "_count_frozen"),
    ("miners.edge_popup.edge_popup", "gemmine.miners.edge_popup", "edge_popup", None),
    ("miners.edge_popup.topk_mask", "gemmine.miners.edge_popup", "topk_mask", "_count_topk"),
    ("miners.imp.imp", "gemmine.miners.imp", "imp", None),
    ("miners.imp.prune_by_magnitude", "gemmine.miners.imp", "prune_by_magnitude", None),
    ("miners.smart_ratio.smart_ratio", "gemmine.miners.smart_ratio", "smart_ratio", None),
    ("miners.smart_ratio.tune_ratios", "gemmine.miners.smart_ratio", "tune_ratios", None),
    ("miners.smart_ratio.sample_ratio_mask", "gemmine.miners.smart_ratio", "sample_ratio_mask", None),
    ("trainer.evaluate", "gemmine.trainer", "evaluate", None),
    ("trainer.run_masked_epoch", "gemmine.trainer", "run_masked_epoch", None),
    ("trainer.finetune", "gemmine.trainer", "finetune", None),
    ("trainer.batch_indices", "gemmine.trainer", "batch_indices", "generator"),
    ("sanity.shuffle_mask", "gemmine.sanity", "shuffle_mask", None),
    ("sanity.reinit_weights", "gemmine.sanity", "reinit_weights", None),
    ("sanity.invert_scores", "gemmine.sanity", "invert_scores", None),
    ("checkpoint.save_checkpoint", "gemmine.checkpoint", "save_checkpoint", "_count_bytes"),
    ("checkpoint.load_checkpoint", "gemmine.checkpoint", "load_checkpoint", None),
    ("harness.mine_for_seed", "gemmine.harness", "mine_for_seed", None),
    ("harness.variant_network", "gemmine.harness", "variant_network", None),
    ("harness.run_experiment", "gemmine.harness", "run_experiment", None),
]
OPTIMIZER_CLASSES = ("_SgdState", "_AdamState")  # gemmine.optim; their ``step`` is span "optim.step"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counters: dict = field(default_factory=dict)
    active: int = 0

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Tracer:
    """Aggregating span recorder; one instance per traced unit of work."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.bookkeeping_s = 0.0
        self._stack: list[list] = []  # [stats, start, time covered by children, time excluded]
        self._last_topk: dict = {}

    def _enter(self, stat: SpanStats) -> list:
        stat.active += 1
        frame = [stat, 0.0, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1] - frame[3]
        stat = frame[0]
        self._stack.pop()
        stat.calls += 1
        stat.self_s += duration - frame[2]
        if stat.active == 1:
            stat.total_s += duration
        stat.active -= 1
        if self._stack:
            self._stack[-1][2] += duration

    def exclude(self, spent: float) -> None:
        """Keep ``spent`` seconds, just taken by something other than the program, out of every open span."""
        for frame in self._stack:
            frame[3] += spent

    def wrap(self, name: str, fn, hook=None):
        stat = self.stats.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(stat)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if hook is not None:
                start = time.perf_counter()
                hook(stat, args, kwargs, result)
                spent = time.perf_counter() - start
                self.bookkeeping_s += spent
                self.exclude(spent)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Time each ``next()`` of a generator function as one span call."""
        stat = self.stats.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = self._enter(stat)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                yield item

        return traced

    @staticmethod
    def call_cost_s() -> float:
        """Seconds one traced call adds to its caller, on this host, now.

        Times 20,000 calls of a wrapped no-op nested in an open span against
        the bare no-op, on a scratch tracer, and returns the median of 5
        such per-call differences. Multiplied by a unit's span calls, it is
        the wrappers' own cost, apart from the host's drift between units.
        """
        calls, trials = 20000, 5
        probe = Tracer()

        def noop(*args, **kwargs):
            return None

        wrapped = probe.wrap("probe", noop)
        outer = probe._enter(SpanStats())
        costs = []
        for _ in range(trials):
            start = time.perf_counter()
            for _ in range(calls):
                noop(None)
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped(None)
            costs.append((time.perf_counter() - start - bare) / calls)
        probe._exit(outer)
        return sorted(costs)[trials // 2]

    def snapshot(self) -> dict:
        return {
            name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s, **s.counters}
            for name, s in self.stats.items()
        }

    def reset(self) -> None:
        for s in self.stats.values():
            s.calls, s.self_s, s.total_s, s.counters = 0, 0.0, 0.0, {}
        self.bookkeeping_s = 0.0
        self._last_topk = {}

    # counter hooks: (stats, args, kwargs, result) of the call just traced

    def _count_topk(self, stat: SpanStats, args, kwargs, result) -> None:
        bound = dict(zip(("scores", "keep_fraction", "scope"), args), **kwargs)
        stat.count("elements", sum(int(np.size(p)) for p in bound["scores"]))
        key = (float(bound["keep_fraction"]), bound["scope"])
        bits = np.packbits(np.concatenate([np.asarray(m).reshape(-1) != 0.0 for m in result])).tobytes()
        stat.count("unchanged", int(self._last_topk.get(key) == bits))
        self._last_topk[key] = bits

    @staticmethod
    def _count_frozen(stat: SpanStats, args, kwargs, result) -> None:
        stat.count("frozen", int(result))

    @staticmethod
    def _count_bytes(stat: SpanStats, args, kwargs, result) -> None:
        stat.count("bytes", os.path.getsize(args[0] if args else kwargs["path"]))

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; undo on exit."""
        importlib.import_module("gemmine")
        modules = [m for name, m in list(sys.modules.items()) if name == "gemmine" or name.startswith("gemmine.")]
        undo = []

        def patch(owner, attr, replacement):
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)

        try:
            for span, module, attr, hook in TARGETS:
                # importlib, not attribute access: gemmine.miners re-exports
                # functions that shadow the submodules of the same name
                original = getattr(importlib.import_module(module), attr)
                if hook == "generator":
                    replacement = self.wrap_generator(span, original)
                else:
                    replacement = self.wrap(span, original, hook and getattr(self, hook))
                for owner in modules:
                    for name, value in list(vars(owner).items()):
                        if value is original:
                            patch(owner, name, replacement)
            optim = importlib.import_module("gemmine.optim")
            for cls_name in OPTIMIZER_CLASSES:
                cls = getattr(optim, cls_name)
                patch(cls, "step", self.wrap("optim.step", cls.step))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
