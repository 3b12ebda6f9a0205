import ast
import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gemmine
from gemmine.autodiff import Tensor, backward, linear, mul, relu, softmax_cross_entropy, ste_round
from gemmine.checkpoint import load_checkpoint, save_checkpoint
from gemmine.data import gen_synthetic
from gemmine.masking import (
    SCALED_NORMAL,
    SIGNED_CONSTANT,
    STREAM_BATCHES,
    NetworkSpec,
    init_scores,
    init_weights,
    loss_and_grads,
    mask_sparsity,
    round_scores,
    stream_rng,
)
from gemmine.miners.common import L1, L2, LayerRatios, MinerConfig, SparsitySchedule, check_layer_collapse, patch_flips, score_descent
from gemmine.miners.edge_popup import GLOBAL, LAYERWISE, edge_popup, topk_mask
from gemmine.miners.gem import freeze_step, gem_mine
from gemmine.miners.imp import COLD, LR_REWIND, WARM, RewindSpec, imp, prune_by_magnitude
from gemmine.miners.smart_ratio import (
    MIN_RATIO, check_smart_ratio_settings, sample_ratio_mask, smart_ratio, smooth_ratios, tune_ratios,
)
from gemmine.optim import Adam, SgdMomentum, make_optimizer
from gemmine.sanity import INVERT, invert_scores, layerwise_report, variant_network
from gemmine.trainer import evaluate, run_epoch
from source_sites import PACKAGE, modules, names, sites
from toy_tasks import enumerated_expected_loss, random_classification, toy_one_useful_weight


# ---------------------------------------------------------------------------
# the package's namespace
# ---------------------------------------------------------------------------

MINER_MODULES = ("common", "gem", "edge_popup", "imp", "smart_ratio")


@pytest.mark.parametrize("name", MINER_MODULES)
def test_each_miner_module_is_reached_by_attribute(name):
    assert getattr(gemmine.miners, name) is importlib.import_module(f"gemmine.miners.{name}")


def test_gemmine_miners_holds_its_five_modules_and_binds_nothing_else():
    bound = {name: value for name, value in vars(gemmine.miners).items() if not name.startswith("__")}
    assert sorted(bound) == sorted(MINER_MODULES)
    assert all(inspect.ismodule(value) for value in bound.values()), bound
    assert sorted(m.name for m in pkgutil.iter_modules(gemmine.miners.__path__)) == sorted(MINER_MODULES)


def test_gemmine_binds_only_its_submodules():
    bound = {name: value for name, value in vars(gemmine).items() if not name.startswith("__")}
    assert [name for name, value in bound.items() if not (inspect.ismodule(value) and value.__name__ == f"gemmine.{name}")] == []


def test_no_module_keeps_an_all_list():
    def assigns_all(node):
        return isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)

    found = {str(path): sites(text, assigns_all) for path, text in modules()}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_import_gemmine_loads_every_module_but_cli():
    # perfbench's tracer runs ``import gemmine`` and patches the traced functions in every module it loaded
    package = {".".join(("gemmine", *path.with_suffix("").parts)).removesuffix(".__init__") for path, _ in modules()}
    show = "import sys, gemmine; print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'gemmine'))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = subprocess.run([sys.executable, "-c", show], env=env, capture_output=True, text=True, check=True).stdout.split()
    assert loaded == sorted(package - {"gemmine.cli"})


# ---------------------------------------------------------------------------
# sparsity schedule arithmetic
# ---------------------------------------------------------------------------


def test_envelope_boundaries():
    sched = SparsitySchedule(0.05, 30, 5)
    assert sched.envelope(0) == 1.0
    assert sched.envelope(30) == pytest.approx(0.05, rel=1e-12)


def test_envelope_halfway_value():
    sched = SparsitySchedule(0.5, 100, 5)
    assert sched.envelope(50) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert sched.envelope(50) == pytest.approx(0.7071, abs=1e-4)


def test_keep_factor_matches_root_of_target():
    sched = SparsitySchedule(0.014, 150, 5)
    ref = 0.014 ** (1.0 / 30.0)
    assert abs(sched.keep_factor - ref) / ref <= 1e-12
    assert sched.keep_factor == pytest.approx(0.8674, abs=1e-4)
    assert 1.0 - sched.keep_factor == pytest.approx(0.13263, abs=1e-4)


def test_keep_factor_telescopes_to_target():
    sched = SparsitySchedule(0.014, 150, 5)
    assert abs(sched.keep_factor**30 - 0.014) / 0.014 <= 1e-12


@settings(max_examples=60)
@given(
    s=st.floats(min_value=0.001, max_value=1.0),
    events=st.integers(min_value=1, max_value=40),
    period=st.integers(min_value=1, max_value=12),
)
def test_envelope_lands_on_target(s, events, period):
    sched = SparsitySchedule(s, events * period, period)
    assert sched.envelope(sched.total_epochs) == pytest.approx(s, rel=1e-12)
    assert sched.keep_factor**events == pytest.approx(s, rel=1e-9)


def test_miner_config_validation():
    with pytest.raises(ValueError):
        MinerConfig(lr=0.0)
    with pytest.raises(ValueError):
        MinerConfig(reg_weight=-1.0)
    with pytest.raises(ValueError):
        MinerConfig(regularizer="l3")
    with pytest.raises(ValueError):
        MinerConfig(batch_size=0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="learning rate must be positive and finite"):
            MinerConfig(lr=value)
        with pytest.raises(ValueError, match="regularization weight must be >= 0 and finite"):
            MinerConfig(reg_weight=value)


def test_long_schedule_is_scale_invariant():
    # stretching epochs and freeze period together preserves the per-event
    # keep factor and event count, so the long variant reuses the machinery
    short = SparsitySchedule(0.014, 150, 5)
    long = SparsitySchedule(0.014, 3000, 100)
    assert long.n_events == short.n_events == 30
    assert long.keep_factor == pytest.approx(short.keep_factor, rel=1e-15)


def test_schedule_validation():
    with pytest.raises(ValueError):
        SparsitySchedule(0.0, 10, 5)
    with pytest.raises(ValueError):
        SparsitySchedule(0.5, 10, 3)  # period must divide epochs
    with pytest.raises(ValueError):
        SparsitySchedule(0.5, 10, 20)
    with pytest.raises(ValueError):
        SparsitySchedule(0.5, 10, 5).envelope(11)


# ---------------------------------------------------------------------------
# freeze_step
# ---------------------------------------------------------------------------


def _single_layer_network(scores):
    """One layer's (scores, freeze) lists, nothing frozen yet."""
    scores = np.asarray(scores, dtype=float).reshape(1, -1)
    return [scores.copy()], [np.ones_like(scores)]


def test_freeze_step_bottom_half():
    scores, freeze = _single_layer_network([0.9, 0.1, 0.8, 0.2])
    half = SparsitySchedule(0.5, 1, 1)  # keep factor exactly 0.5
    frozen = freeze_step(scores, freeze, half)
    assert frozen == 2
    np.testing.assert_array_equal(freeze[0], [[1.0, 0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(scores[0], [[0.9, 0.0, 0.8, 0.0]])


def test_freeze_step_noop_when_target_is_dense():
    scores, freeze = _single_layer_network([0.9, 0.1, 0.8, 0.2])
    dense = SparsitySchedule(1.0, 10, 5)
    assert freeze_step(scores, freeze, dense) == 0
    np.testing.assert_array_equal(freeze[0], np.ones((1, 4)))


def test_freeze_step_composition_on_synthetic_scores():
    # 30 events at keep factor 0.014^(1/30) on 10000 scores: the floored
    # survivor counts compose to 136, within 30 weights of s*d = 140
    sched = SparsitySchedule(0.014, 150, 5)
    rng = np.random.default_rng(0)
    scores, freeze = _single_layer_network(rng.random(10_000))
    expected_unfrozen = 10_000
    for _ in range(30):
        expected_unfrozen = math.floor(sched.keep_factor * expected_unfrozen)
        freeze_step(scores, freeze, sched)
        assert int(np.sum(freeze[0])) == expected_unfrozen
    assert expected_unfrozen == 136
    assert 140 - 30 <= expected_unfrozen <= 140


def test_freeze_step_is_global_across_layers():
    scores = [np.array([[0.9, 0.8]]), np.array([[0.1, 0.2]])]
    freeze = [np.ones((1, 2)), np.ones((1, 2))]
    half = SparsitySchedule(0.5, 1, 1)
    freeze_step(scores, freeze, half)
    np.testing.assert_array_equal(freeze[0], [[1.0, 1.0]])
    np.testing.assert_array_equal(freeze[1], [[0.0, 0.0]])


def test_freeze_step_breaks_ties_by_layer_then_flat_index():
    # five unfrozen scores tie at 0.2 across both layers and four are frozen:
    # layer a's three in row-major flat order, then the first of layer b's
    scores = [np.array([[0.7, 0.2], [0.2, 0.2]]), np.array([[0.9, 0.2, 0.2, 0.8]])]
    freeze = [np.ones((2, 2)), np.ones((1, 4))]
    freeze[1][0, 0] = 0.0  # an already-frozen entry is never a candidate
    scores[1][0, 0] = 0.0
    half = SparsitySchedule(0.5, 1, 1)
    assert freeze_step(scores, freeze, half) == 4  # 7 unfrozen, floor(3.5) = 3 survive
    np.testing.assert_array_equal(freeze[0], [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(freeze[1], [[0.0, 0.0, 1.0, 1.0]])
    np.testing.assert_array_equal(scores[0], [[0.7, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(scores[1], [[0.0, 0.0, 0.2, 0.8]])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_freeze_monotone_and_envelope_compliant(seed):
    rng = np.random.default_rng(seed)
    sched = SparsitySchedule(0.1, 12, 3)
    scores, freeze = _single_layer_network(rng.random(500))
    d = 500
    previous = freeze[0].copy()
    for event in range(1, sched.n_events + 1):
        freeze_step(scores, freeze, sched)
        now = freeze[0]
        # frozen set only grows
        assert np.all(now <= previous)
        previous = now.copy()
        epoch = event * sched.freeze_period
        assert mask_sparsity(freeze) <= sched.envelope(epoch) + 1.0 / d


# ---------------------------------------------------------------------------
# gem_mine
# ---------------------------------------------------------------------------


def test_gem_mine_without_target_never_freezes(blobs):
    spec = NetworkSpec((2, 16, 2))
    sched = SparsitySchedule(1.0, 6, 3)
    res = gem_mine(blobs, spec, sched, MinerConfig(lr=0.05, seed=1, batch_size=16))
    # the sparsity column is the unfrozen fraction
    assert all(record.sparsity == 1.0 for record in res.report.records)
    # density stays near the uniform-initialization half
    assert 0.3 < mask_sparsity(res.mask) < 0.7


def test_gem_mine_lands_at_target_on_10k_params():
    # d = 9984; keep factor floors compose independently of training
    spec = NetworkSpec((100, 96, 4))
    assert spec.total_params == 9984
    data = random_classification(96, 100, 4, seed=3)
    sched = SparsitySchedule(0.05, 30, 5)
    res = gem_mine(data, spec, sched, MinerConfig(lr=0.1, seed=0, batch_size=32))

    expected_unfrozen = spec.total_params
    for _ in range(sched.n_events):
        expected_unfrozen = math.floor(sched.keep_factor * expected_unfrozen)
    # the sparsity column is the unfrozen count over the parameter count
    assert res.report.records[-1].sparsity == expected_unfrozen / spec.total_params
    achieved = mask_sparsity(res.mask)
    assert achieved <= 0.05
    assert achieved >= 0.05 - (sched.n_events + 10) / spec.total_params
    # envelope compliance after every freeze event, straight from the report
    for record in res.report.records:
        if record.epoch % sched.freeze_period == 0:
            assert record.sparsity <= sched.envelope(record.epoch) + 1.0 / spec.total_params


def test_gem_mine_sparsity_column_non_increasing(blobs):
    spec = NetworkSpec((2, 12, 2))
    sched = SparsitySchedule(0.1, 8, 2)
    res = gem_mine(blobs, spec, sched, MinerConfig(lr=0.1, seed=2, batch_size=16))
    column = [r.sparsity for r in res.report.records]
    assert all(b <= a for a, b in zip(column, column[1:]))


def test_gem_mine_huge_regularization_collapses_to_chance(blobs):
    spec = NetworkSpec((2, 12, 2))
    sched = SparsitySchedule(0.5, 4, 2)
    res = gem_mine(blobs, spec, sched, MinerConfig(lr=0.1, reg_weight=1000.0, seed=1, batch_size=16))
    assert any("layer_collapse" in w for w in res.report.warnings)
    assert res.report.pre_finetune_accuracy <= 0.65  # chance is 0.5 on balanced blobs


def test_gem_mine_rejects_labels_beyond_outputs(blobs):
    # blobs has 2 classes; a 1-output net cannot score label 1
    with pytest.raises(ValueError, match="label outside"):
        gem_mine(blobs, NetworkSpec((2, 4, 1)), SparsitySchedule(0.5, 2, 1), MinerConfig(batch_size=16))


def test_gem_mine_deterministic(blobs):
    spec = NetworkSpec((2, 10, 2))
    sched = SparsitySchedule(0.3, 4, 2)
    cfg = MinerConfig(lr=0.1, seed=11, batch_size=16)
    a = gem_mine(blobs, spec, sched, cfg)
    b = gem_mine(blobs, spec, sched, cfg)
    for ma, mb in zip(a.mask, b.mask):
        assert ma.tobytes() == mb.tobytes()


def test_gem_mine_freeze_monotone_over_run(blobs):
    spec = NetworkSpec((2, 10, 2))
    sched = SparsitySchedule(0.2, 6, 2)
    res = gem_mine(blobs, spec, sched, MinerConfig(lr=0.1, seed=5, batch_size=16))
    assert res.report.records[-1].sparsity <= 0.2 + 1e-12


def _reference_gem_mine(data, spec, schedule, config):
    """gem_mine written with per-batch formulas: w * freeze and float-rounded
    scores rebuilt every batch, the L2 gradient as (g + lam*p) + lam*p."""
    weights = init_weights(spec, SIGNED_CONSTANT, config.seed)
    scores = init_scores(spec, config.seed)
    freeze = [np.ones_like(w) for w in weights]
    optimizer = make_optimizer(config.optimizer, scores)
    rng = stream_rng(config.seed, STREAM_BATCHES)
    lam = config.reg_weight

    def batch_loss_and_grads(x, y):
        for p in scores:
            np.clip(p, 0.0, 1.0, out=p)
        base = [w * f for w, f in zip(weights, freeze)]
        loss, d_eff = loss_and_grads(x, y, [b * round_scores(p) for b, p in zip(base, scores)])
        grads = [d * b for d, b in zip(d_eff, base)]
        if lam > 0.0:
            if config.regularizer == L1:
                penalty = sum(np.sum(np.abs(p)) for p in scores)
                grads = [g + lam * np.sign(p) for g, p in zip(grads, scores)]
            else:
                penalty = sum(np.sum(p * p) for p in scores)
                grads = [(g + lam * p) + lam * p for g, p in zip(grads, scores)]
            loss = loss + penalty * lam
        return float(loss), grads

    columns = {"epoch": [], "sparsity": [], "train_loss": [], "val_accuracy": [], "mask_sparsity": []}
    warnings = []
    for epoch in range(1, schedule.total_epochs + 1):
        train_loss = run_epoch(
            scores, batch_loss_and_grads, data.train_x, data.train_y, config.batch_size, optimizer, config.lr, rng
        )
        for p in scores:
            np.clip(p, 0.0, 1.0, out=p)
        if epoch % schedule.freeze_period == 0:
            freeze_step(scores, freeze, schedule)
        mask = [round_scores(p) * f for p, f in zip(scores, freeze)]
        if epoch % schedule.freeze_period == 0:
            check_layer_collapse(mask, warnings, f"after freeze at epoch {epoch}")
        val_acc = evaluate([w * m for w, m in zip(weights, mask)], data.val_x, data.val_y)
        for name, value in zip(columns, (epoch, mask_sparsity(freeze), train_loss, val_acc, mask_sparsity(mask))):
            columns[name].append(value)
    mask = [round_scores(p) * f for p, f in zip(scores, freeze)]
    check_layer_collapse(mask, warnings, "final mask")
    pre_acc = evaluate([w * m for w, m in zip(weights, mask)], data.test_x, data.test_y)
    return mask, scores, columns, pre_acc, layerwise_report(mask), warnings


def _report_columns(report):
    return {
        "epoch": [r.epoch for r in report.records],
        "sparsity": [r.sparsity for r in report.records],
        "train_loss": [r.train_loss for r in report.records],
        "val_accuracy": [r.val_accuracy for r in report.records],
        "mask_sparsity": [r.extra["mask_sparsity"] for r in report.records],
    }


@pytest.mark.parametrize("optimizer", [SgdMomentum(), Adam()], ids=["sgd", "adam"])
@pytest.mark.parametrize("penalty", [None, L2, L1])
def test_gem_mine_matches_the_per_batch_reference_loop(digits_1k, penalty, optimizer):
    data = dataclasses.replace(digits_1k, train_x=digits_1k.train_x[:300], train_y=digits_1k.train_y[:300])
    spec = NetworkSpec((784, 16, 10))
    sched = SparsitySchedule(0.1, 6, 2)
    config = MinerConfig(
        lr=0.5 if isinstance(optimizer, SgdMomentum) else 0.05,
        reg_weight=0.0 if penalty is None else 1e-3,
        regularizer=penalty or L2,
        optimizer=optimizer,
        seed=5,
        batch_size=32,
    )
    res = gem_mine(data, spec, sched, config)
    mask, scores, columns, pre_acc, layerwise, warnings = _reference_gem_mine(data, spec, sched, config)

    unfrozen = columns["sparsity"]
    assert sum(b < a for a, b in zip(unfrozen, unfrozen[1:])) == 3  # freeze events at epochs 2, 4 and 6
    for got, want in zip(res.mask, mask):  # the reference holds float 0/1 masks
        assert got.dtype == np.bool_ and got.tobytes() == (want != 0).tobytes()
    for layer, want in zip(res.layers, scores):
        assert layer.scores.tobytes() == want.tobytes()
    for name, got in _report_columns(res.report).items():
        assert np.array(got).tobytes() == np.array(columns[name]).tobytes(), name
    assert np.float64(res.report.pre_finetune_accuracy).tobytes() == np.float64(pre_acc).tobytes()
    assert res.report.layerwise == layerwise
    assert res.report.warnings == warnings


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="gem_mine passes frozen scores to the optimizer, so SGD momentum moves them off 0 after freeze_step zeroes them",
)
def test_frozen_scores_stay_zero_after_freeze(digits_1k, monkeypatch):
    data = dataclasses.replace(digits_1k, train_x=digits_1k.train_x[:300], train_y=digits_1k.train_y[:300])
    seen = {}
    real_freeze_step = freeze_step

    def recording_freeze_step(scores, freeze, schedule):
        seen["freeze"] = freeze  # gem_mine's own arrays, updated in place until the run ends
        return real_freeze_step(scores, freeze, schedule)

    monkeypatch.setattr(gemmine.miners.gem, "freeze_step", recording_freeze_step)
    res = gem_mine(data, NetworkSpec((784, 16, 10)), SparsitySchedule(0.1, 4, 2), MinerConfig(lr=0.5, seed=5, batch_size=32))
    for layer, f in zip(res.layers, seen["freeze"]):
        assert np.count_nonzero(f == 0.0) > 0
        assert np.all(layer.scores[f == 0.0] == 0.0)


@st.composite
def _gem_runs(draw):
    period = draw(st.integers(1, 2))
    return dict(
        spec=NetworkSpec((2, *draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)), 2)),
        schedule=SparsitySchedule(draw(st.floats(0.05, 1.0)), period * draw(st.integers(1, 4)), period),
        config=MinerConfig(lr=0.5, seed=draw(st.integers(0, 1000)), batch_size=32),
    )


def _unfrozen(freeze):
    return sum(int(np.count_nonzero(f)) for f in freeze)


def _gem_freeze_events(data, run):
    """``gem_mine(data, **run)`` and a copy of its unfrozen sets before and after each ``freeze_step``."""
    events = []

    def recording_freeze_step(scores, freeze, schedule):
        before = [f.copy() for f in freeze]
        frozen = freeze_step(scores, freeze, schedule)
        events.append((before, [f.copy() for f in freeze]))
        return frozen

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gemmine.miners.gem, "freeze_step", recording_freeze_step)
        result = gem_mine(data, **run)
    return result, events


@settings(max_examples=60, deadline=None)
@given(run=_gem_runs())
def test_gem_mine_freezes_monotonically_to_the_survivor_count(blobs, run):
    """Each event leaves ``survivors(previous unfrozen)`` unfrozen, no weight thaws, and the mask lies inside the unfrozen set."""
    result, events = _gem_freeze_events(blobs, run)
    schedule = run["schedule"]
    assert len(events) == schedule.n_events
    previous = [np.ones(shape, dtype=bool) for shape in run["spec"].layer_shapes]
    for before, after in events:
        assert [b.tobytes() for b in before] == [p.tobytes() for p in previous]
        assert not any((a & ~b).any() for a, b in zip(after, before))
        assert _unfrozen(after) == schedule.survivors(_unfrozen(before))
        previous = after
    assert not any((m & ~f).any() for m, f in zip(result.mask, previous))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="freeze_step floors survivors() at every event, so the final unfrozen count falls short of "
    "floor(target * N); ROADMAP item 7(d) counts every event against the starting count",
)
@settings(max_examples=60, deadline=None)
@given(run=_gem_runs())
@example(run=dict(spec=NetworkSpec((2, 1, 2)), schedule=SparsitySchedule(0.5, 2, 1), config=MinerConfig(lr=0.5, seed=0, batch_size=32)))
def test_gem_mine_leaves_floor_target_n_weights_unfrozen(blobs, run):
    _, events = _gem_freeze_events(blobs, run)
    assert _unfrozen(events[-1][1]) == math.floor(run["schedule"].target_sparsity * run["spec"].total_params)


def _first_step_score_gradients(weights, scale_layer=None, factor=1.0):
    """One per-sample straight-through backward pass on a 2-class probe."""
    rng = np.random.default_rng(99)
    x = rng.standard_normal((1, weights[0].shape[1]))
    y = np.array([1])
    scores = [np.full(w.shape, 0.75) for w in weights]
    ws = [w * (factor if i == scale_layer else 1.0) for i, w in enumerate(weights)]
    leaves = [Tensor(p, requires_grad=True) for p in scores]
    eff = [mul(Tensor(w), ste_round(leaf)) for w, leaf in zip(ws, leaves)]
    h = relu(linear(Tensor(x), eff[0]))
    logits = linear(h, eff[1])
    backward(softmax_cross_entropy(logits, y))
    return [leaf.grad.copy() for leaf in leaves]


@pytest.mark.parametrize("scale_layer", [0, 1])
@pytest.mark.parametrize("factor", [0.5, 3.0, 10.0])
def test_score_gradient_signs_invariant_to_layer_scale(scale_layer, factor):
    # rescaling one layer's weights rescales 2-class gradients without
    # flipping any sign
    rng = np.random.default_rng(4)
    weights = [rng.standard_normal((8, 5)), rng.standard_normal((2, 8))]
    base = _first_step_score_gradients(weights)
    scaled = _first_step_score_gradients(weights, scale_layer=scale_layer, factor=factor)
    for g0, g1 in zip(base, scaled):
        np.testing.assert_array_equal(np.sign(g0), np.sign(g1))


# ---------------------------------------------------------------------------
# edge-popup
# ---------------------------------------------------------------------------


def test_topk_layerwise_example():
    mask = topk_mask([np.array([[0.9, 0.1, 0.8, 0.2]])], 0.5, LAYERWISE)
    np.testing.assert_array_equal(mask[0], [[1.0, 0.0, 1.0, 0.0]])


def test_topk_global_example():
    scores = [np.array([[0.9, 0.1]]), np.array([[0.8, 0.7]])]
    mask = topk_mask(scores, 0.5, GLOBAL)
    np.testing.assert_array_equal(mask[0], [[1.0, 0.0]])
    np.testing.assert_array_equal(mask[1], [[1.0, 0.0]])


def test_topk_layerwise_keeps_at_least_one():
    warnings: list[str] = []
    mask = topk_mask([np.array([[0.4, 0.3, 0.2, 0.1]])], 0.01, LAYERWISE, warnings)
    assert int(np.sum(mask[0])) == 1
    assert any("clamped" in w for w in warnings)


def test_global_top_k_warns_once_when_it_clamps_to_one_weight(blobs):
    # floor(0.01 * 32) = 0, so every mask, the final one included, keeps the single highest score
    res = edge_popup(blobs, NetworkSpec((2, 8, 2)), SparsitySchedule(0.01, 2, 1), MinerConfig(seed=1, batch_size=16), scope=GLOBAL)
    assert sum(int(m.sum()) for m in res.mask) == 1
    collapsed = [i for i, m in enumerate(res.mask) if not m.any()]
    assert res.report.warnings == ["global top-k clamped to 1 weight"] + [
        f"layer_collapse: layer {i} mask is empty (final mask)" for i in collapsed
    ]


@pytest.mark.parametrize("keep_fraction", [0.0, -0.5, 1.5])
def test_topk_rejects_a_keep_fraction_outside_0_to_1(keep_fraction):
    with pytest.raises(ValueError, match=re.escape(f"keep fraction must be in (0, 1], got {keep_fraction}")):
        topk_mask([np.ones((2, 2))], keep_fraction, LAYERWISE)


def test_topk_rejects_an_unknown_scope():
    with pytest.raises(ValueError, match=re.escape("scope must be 'layerwise' or 'global', got 'network'")):
        topk_mask([np.ones((2, 2))], 0.5, "network")


def test_topk_global_ties_go_to_the_earlier_layer():
    scores = [np.array([[0.5, 0.1]]), np.array([[0.5, 0.5]])]
    mask = topk_mask(scores, 0.5, GLOBAL)
    np.testing.assert_array_equal(mask[0], [[1.0, 0.0]])
    np.testing.assert_array_equal(mask[1], [[1.0, 0.0]])


def _reference_edge_popup(data, spec, schedule, config, scope, gradual):
    """edge_popup written with per-batch formulas: topk_mask and w * mask rebuilt every batch."""
    weights = init_weights(spec, SIGNED_CONSTANT, config.seed)
    scores = init_scores(spec, config.seed)
    optimizer = make_optimizer(config.optimizer, scores)
    rng = stream_rng(config.seed, STREAM_BATCHES)
    lam = config.reg_weight
    warnings = []

    def batch_loss_and_grads(x, y):
        mask = topk_mask(scores, keep, scope, warnings)
        loss, d_eff = loss_and_grads(x, y, [w * m for w, m in zip(weights, mask)])
        grads = [d * w for d, w in zip(d_eff, weights)]
        if lam > 0.0:
            if config.regularizer == L1:
                penalty = sum(np.sum(np.abs(p)) for p in scores)
                grads = [g + lam * np.sign(p) for g, p in zip(grads, scores)]
            else:
                penalty = sum(np.sum(p * p) for p in scores)
                grads = [(g + lam * p) + lam * p for g, p in zip(grads, scores)]
            loss = loss + penalty * lam
        return float(loss), grads

    columns = {"epoch": [], "sparsity": [], "train_loss": [], "val_accuracy": []}
    for epoch in range(1, schedule.total_epochs + 1):
        keep = schedule.target_sparsity
        if gradual:
            keep = schedule.envelope((epoch - 1) // schedule.freeze_period * schedule.freeze_period)
        train_loss = run_epoch(
            scores, batch_loss_and_grads, data.train_x, data.train_y, config.batch_size, optimizer, config.lr, rng
        )
        mask = topk_mask(scores, keep, scope, warnings)
        val_acc = evaluate([w * m for w, m in zip(weights, mask)], data.val_x, data.val_y)
        for name, value in zip(columns, (epoch, keep, train_loss, val_acc)):
            columns[name].append(value)
    mask = [np.asarray(m, dtype=np.float64) for m in topk_mask(scores, schedule.target_sparsity, scope, warnings)]
    pre_acc = evaluate([w * m for w, m in zip(weights, mask)], data.test_x, data.test_y)
    return mask, scores, columns, pre_acc, layerwise_report(mask), warnings


EDGE_POPUP_CASES = [
    pytest.param(scope, gradual, penalty, optimizer, 0.1, id=f"{scope}-{'gradual' if gradual else 'fixed'}-{penalty}-{name}")
    for scope in (LAYERWISE, GLOBAL)
    for gradual in (False, True)
    for penalty in (L2, L1)
    for name, optimizer in (("sgd", SgdMomentum()), ("adam", Adam()))
] + [pytest.param(LAYERWISE, False, None, SgdMomentum(), 0.005, id="layerwise-clamped")]


@pytest.mark.parametrize("scope,gradual,penalty,optimizer,keep", EDGE_POPUP_CASES)
def test_edge_popup_matches_the_per_batch_reference_loop(digits_1k, scope, gradual, penalty, optimizer, keep):
    data = dataclasses.replace(digits_1k, train_x=digits_1k.train_x[:200], train_y=digits_1k.train_y[:200])
    spec = NetworkSpec((784, 16, 10))
    sched = SparsitySchedule(keep, 6, 2)
    config = MinerConfig(
        lr=0.1 if isinstance(optimizer, SgdMomentum) else 0.01,
        reg_weight=0.0 if penalty is None else 1e-3,
        regularizer=penalty or L2,
        optimizer=optimizer,
        seed=5,
        batch_size=32,
    )
    res = edge_popup(data, spec, sched, config, scope=scope, gradual=gradual)
    mask, scores, columns, pre_acc, layerwise, warnings = _reference_edge_popup(data, spec, sched, config, scope, gradual)

    if keep < 1 / 160:
        assert warnings == ["layerwise top-k clamped to 1 weight in layer 1"]
    for got, want in zip(res.mask, mask):  # the reference holds float 0/1 masks
        assert got.dtype == np.bool_ and got.tobytes() == (want != 0).tobytes()
    for layer, want in zip(res.layers, scores):
        assert layer.scores.tobytes() == want.tobytes()
    rows = [r.as_dict() for r in res.report.records]
    assert all(list(row) == list(columns) for row in rows)
    for name, want in columns.items():
        assert np.array([row[name] for row in rows]).tobytes() == np.array(want).tobytes(), name
    assert np.float64(res.report.pre_finetune_accuracy).tobytes() == np.float64(pre_acc).tobytes()
    assert res.report.layerwise == layerwise
    assert res.report.warnings == warnings


def test_patch_flips_keeps_the_zero_signs_of_frozen_weights():
    weights = np.array([[-0.5, 0.5, -0.25, 0.75, -2.0]])
    freeze = np.array([[0.0, 0.0, 1.0, 1.0, 0.0]])
    base = weights * freeze  # frozen entries of negative weights hold -0.0
    assert np.signbit(base[0, [0, 4]]).all()
    # frozen scores 0 and 4 drift across 0.5 and back, as SGD momentum can move them
    runs = [[0.7, 0.2, 0.6, 0.1, 0.5], [0.3, 0.9, 0.4, 0.8, 0.49], [0.7, 0.2, 0.6, 0.1, 0.5]]
    bits = np.array(runs[0]) >= 0.5
    effective = base * bits
    for p in runs[1:]:
        now = np.array(p) >= 0.5
        patch_flips([effective], [base], [bits], [now])
        assert effective.tobytes() == (base * now).tobytes()
        assert bits.tobytes() == now.tobytes()
        assert np.signbit(effective[0, [0, 4]]).all()


def test_edge_popup_never_updates_weights(blobs):
    spec = NetworkSpec((2, 12, 2))
    sched = SparsitySchedule(0.25, 4, 2)
    cfg = MinerConfig(lr=0.1, seed=3, batch_size=16)
    res = edge_popup(blobs, spec, sched, cfg)
    reference = init_weights(spec, SIGNED_CONSTANT, seed=3)
    for w, ref in zip(res.weights, reference):
        assert w.tobytes() == ref.tobytes()


def test_edge_popup_gradual_schedule_descends(blobs):
    spec = NetworkSpec((2, 12, 2))
    sched = SparsitySchedule(0.2, 8, 2)
    res = edge_popup(blobs, spec, sched, MinerConfig(lr=0.1, seed=3, batch_size=16), gradual=True)
    column = [r.sparsity for r in res.report.records]
    assert column[0] == 1.0
    assert all(b <= a for a, b in zip(column, column[1:]))
    per_layer_kept = [math.floor(0.2 * o * i) for o, i in spec.layer_shapes]
    assert mask_sparsity(res.mask) == pytest.approx(sum(per_layer_kept) / spec.total_params)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="gradual edge_popup trains its last period at envelope((n_events - 1) * period), above the target",
)
def test_edge_popup_gradual_trains_its_last_period_at_the_target(blobs):
    sched = SparsitySchedule(0.1, 8, 2)
    res = edge_popup(blobs, NetworkSpec((2, 12, 2)), sched, MinerConfig(lr=0.1, seed=3, batch_size=16), gradual=True)
    assert res.report.records[-1].sparsity == sched.target_sparsity


def test_edge_popup_fixed_keeps_constant_fraction(blobs):
    spec = NetworkSpec((2, 12, 2))
    sched = SparsitySchedule(0.25, 4, 2)
    res = edge_popup(blobs, spec, sched, MinerConfig(lr=0.1, seed=8, batch_size=16), scope=GLOBAL)
    assert all(r.sparsity == 0.25 for r in res.report.records)


def test_edge_popup_deterministic(blobs):
    spec = NetworkSpec((2, 10, 2))
    sched = SparsitySchedule(0.3, 4, 2)
    cfg = MinerConfig(lr=0.1, seed=21, batch_size=16)
    a = edge_popup(blobs, spec, sched, cfg, scope=GLOBAL, gradual=True)
    b = edge_popup(blobs, spec, sched, cfg, scope=GLOBAL, gradual=True)
    for ma, mb in zip(a.mask, b.mask):
        assert ma.tobytes() == mb.tobytes()


@st.composite
def _epochs_and_period(draw):
    epochs = draw(st.integers(min_value=1, max_value=4))
    return epochs, draw(st.sampled_from([p for p in range(1, epochs + 1) if epochs % p == 0]))


@settings(max_examples=100, deadline=None)
@given(
    hidden=st.lists(st.integers(min_value=2, max_value=20), min_size=1, max_size=2),
    epochs_and_period=_epochs_and_period(),
    keep=st.floats(min_value=0.005, max_value=1.0),
    scope=st.sampled_from([LAYERWISE, GLOBAL]),
    gradual=st.booleans(),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_every_edge_popup_mask_keeps_max_1_floor_k_size(blobs, hidden, epochs_and_period, keep, scope, gradual, seed):
    """Each mask ``edge_popup`` takes, every batch's and the returned one, keeps ``max(1, floor(k * size))``
    per layer, or over the whole network for the global scope, for that call's keep fraction k."""
    counts = []

    def recording_topk_mask(scores, keep_fraction, scope, *args, **kwargs):
        masks = topk_mask(scores, keep_fraction, scope, *args, **kwargs)
        sizes, kept = [p.size for p in scores], [int(np.count_nonzero(m)) for m in masks]
        if scope == GLOBAL:
            sizes, kept = [sum(sizes)], [sum(kept)]
        counts.append((keep_fraction, [max(1, math.floor(keep_fraction * n)) for n in sizes], kept))
        return masks

    schedule = SparsitySchedule(keep, *epochs_and_period)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gemmine.miners.edge_popup, "topk_mask", recording_topk_mask)
        edge_popup(blobs, NetworkSpec((2, *hidden, 2)), schedule, MinerConfig(seed=seed, batch_size=32), scope=scope, gradual=gradual)
    assert len(counts) > schedule.total_epochs and counts[-1][0] == keep
    for k, wanted, kept in counts:
        assert kept == wanted, f"k={k}"


# ---------------------------------------------------------------------------
# iterative magnitude pruning
# ---------------------------------------------------------------------------


def test_imp_single_round_no_training_keeps_top_half(blobs):
    spec = NetworkSpec((2, 8, 2))
    cfg = MinerConfig(lr=0.1, seed=6, batch_size=16)
    res = imp(blobs, spec, rounds=1, prune_rate=0.5, rewind=RewindSpec("cold"), epochs_per_round=0, config=cfg)
    weights = init_weights(spec, "scaled_normal", seed=6)
    flat = np.concatenate([np.abs(w).reshape(-1) for w in weights])
    kept = flat.size - int(0.5 * flat.size + 0.5)
    threshold_order = np.argsort(-flat, kind="stable")[:kept]
    expected = np.zeros(flat.size)
    expected[threshold_order] = 1.0
    got = np.concatenate([m.reshape(-1) for m in res.mask])
    np.testing.assert_array_equal(got, expected)


def test_imp_schedule_composition(blobs):
    spec = NetworkSpec((2, 8, 2))  # 32 weights
    cfg = MinerConfig(lr=0.05, seed=1, batch_size=16)
    res = imp(blobs, spec, rounds=5, prune_rate=0.2, rewind=RewindSpec("cold"), epochs_per_round=1, config=cfg)
    kept = 32
    for _ in range(5):
        kept -= int(0.2 * kept + 0.5)
    assert sum(int(np.sum(m)) for m in res.mask) == kept
    assert mask_sparsity(res.mask) == pytest.approx(0.8**5, abs=2 / 32)
    column = [r.sparsity for r in res.report.records]
    assert all(b <= a for a, b in zip(column, column[1:]))


@pytest.mark.parametrize("kind", [COLD, WARM, LR_REWIND])
def test_imp_result_weights_are_the_rewind_point(blobs, monkeypatch, kind):
    # every round's weights after each of its epochs, as train_masked leaves them
    trained = []
    real = gemmine.miners.imp.train_masked

    def recording(weights, mask, data, cfg, rng):
        for epoch, loss in real(weights, mask, data, cfg, rng):
            trained.append([w.copy() for w in weights])
            yield epoch, loss

    monkeypatch.setattr(gemmine.miners.imp, "train_masked", recording)
    spec = NetworkSpec((2, 8, 2))
    rounds, epochs = 3, 2
    cfg = MinerConfig(lr=0.05, seed=4, batch_size=16)
    res = imp(blobs, spec, rounds, 0.3, RewindSpec(kind, warm_epoch=1), epochs, cfg)
    assert len(trained) == rounds * epochs
    if kind == COLD:
        want = init_weights(spec, "scaled_normal", seed=4)
    elif kind == WARM:
        want = trained[0]  # round one, after its first epoch
    else:
        # each weight's value after the last round that trained it: round r trains the mask round r - 1 left
        want = trained[epochs - 1]
        for r in range(1, rounds):
            for w, t, m in zip(want, trained[(r + 1) * epochs - 1], res.round_masks[r - 1]):
                np.copyto(w, t, where=m)
        for w, t, m in zip(res.weights, trained[-1], res.mask):
            assert w[m].tobytes() == t[m].tobytes()
        assert all(np.all(w != 0.0) for w in res.weights)
    assert [w.tobytes() for w in res.weights] == [w.tobytes() for w in want]


def test_imp_warm_epoch_must_fit_round():
    with pytest.raises(ValueError, match="warm"):
        imp(
            random_classification(40, 2, 2, seed=0),
            NetworkSpec((2, 4, 2)),
            rounds=1,
            prune_rate=0.5,
            rewind=RewindSpec("warm", warm_epoch=3),
            epochs_per_round=3,
            config=MinerConfig(seed=0),
        )


def test_imp_rejects_an_unknown_rewind_kind():
    with pytest.raises(ValueError, match=re.escape("rewind kind must be one of ('cold', 'warm', 'lr_rewind'), got 'hot'")):
        RewindSpec("hot")


def test_imp_masks_nest_across_rounds():
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((4, 6))]
    mask = [np.ones((4, 6), dtype=bool)]
    warnings: list[str] = []
    seen = [mask[0].copy()]
    for _ in range(4):
        mask = prune_by_magnitude(weights, mask, 0.25, warnings)
        assert np.all(mask[0] <= seen[-1])
        seen.append(mask[0].copy())


def test_prune_by_magnitude_keeps_one_weight_and_warns_once():
    weights = [np.array([[0.5, -2.0, 3.0]])]
    mask = [np.array([[True, True, False]])]
    warnings: list[str] = []
    for _ in range(2):
        # two alive at rate 0.9 would round to pruning both
        pruned = prune_by_magnitude(weights, mask, 0.9, warnings)
        assert pruned[0].tolist() == [[False, True, False]]
    assert warnings == ["magnitude pruning clamped to keep 1 weight"]


def test_prune_by_magnitude_rejects_a_mask_that_keeps_no_weight():
    weights = [np.ones((2, 3)), np.ones(4)]
    mask = [np.zeros((2, 3), dtype=bool), np.zeros(4, dtype=bool)]
    warnings: list[str] = []
    with pytest.raises(ValueError, match="^prune_by_magnitude: mask keeps no weights$"):
        prune_by_magnitude(weights, mask, 0.5, warnings)
    assert warnings == []


def test_a_prune_or_a_freeze_event_ranks_only_the_weights_it_may_remove(blobs, monkeypatch):
    """Each IMP prune partitions exactly the kept weights, each freeze event exactly the unfrozen scores."""
    masking, gem = gemmine.masking, gemmine.miners.gem
    ranked = []
    real_select, real_freeze = masking.select_smallest, gem.freeze_step

    def recording_select(values, k):
        ranked.append(values.size)
        return real_select(values, k)

    monkeypatch.setattr(masking, "select_smallest", recording_select)
    spec = NetworkSpec((2, 8, 2))
    res = imp(blobs, spec, 4, 0.3, RewindSpec("cold"), 1, MinerConfig(lr=0.05, seed=2, batch_size=16))
    kept = [spec.total_params] + [sum(int(np.count_nonzero(m)) for m in round_mask) for round_mask in res.round_masks]
    assert ranked == kept[:-1] and kept[-1] < kept[0]

    unfrozen = []

    def recording_freeze(scores, freeze, schedule):
        before = sum(int(np.count_nonzero(f)) for f in freeze)
        if real_freeze(scores, freeze, schedule):
            unfrozen.append(before)

    monkeypatch.setattr(gem, "freeze_step", recording_freeze)
    ranked.clear()
    gem_mine(blobs, spec, SparsitySchedule(0.2, 6, 2), MinerConfig(lr=0.1, seed=2, batch_size=16))
    assert len(unfrozen) == 3 and unfrozen[0] == spec.total_params
    assert ranked == unfrozen


# few distinct values, so ties are everywhere, with -0.0 beside +0.0
TIED_VALUES = [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]


@st.composite
def _layers_and_eligible(draw):
    """1-3 layers of tied values and a non-empty eligibility mask: all, one, or random entries."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 5)), min_size=1, max_size=3))
    values = [np.array(draw(st.lists(st.sampled_from(TIED_VALUES), min_size=r * c, max_size=r * c))).reshape(r, c) for r, c in shapes]
    n = sum(v.size for v in values)
    kind = draw(st.sampled_from(["all", "one", "random"]))
    if kind == "all":
        flat = np.ones(n, dtype=bool)
    elif kind == "one":
        flat = np.zeros(n, dtype=bool)
        flat[draw(st.integers(0, n - 1))] = True
    else:
        flat = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        flat[draw(st.integers(0, n - 1))] = True
    bounds = np.cumsum([v.size for v in values])[:-1]
    return values, [part.reshape(v.shape) for part, v in zip(np.split(flat, bounds), values)]


def _padded_stable_sort(values, eligible, k):
    """The rule before only eligible entries were ranked: excluded entries as +inf, a stable sort of the concatenation."""
    padded = np.concatenate([np.where(e, v, np.inf).reshape(-1) for v, e in zip(values, eligible)])
    chosen = np.zeros(padded.size, dtype=bool)
    chosen[np.argsort(padded, kind="stable")[:k]] = True
    bounds = np.cumsum([v.size for v in values])[:-1]
    return [part.reshape(v.shape) for part, v in zip(np.split(chosen, bounds), values)]


@settings(max_examples=150, deadline=None)
@given(_layers_and_eligible(), st.sampled_from([0.01, 0.2, 0.5, 0.8, 0.99]))
def test_prune_by_magnitude_matches_the_padded_stable_sort(case, rate):
    weights, mask = case
    before = [m.copy() for m in mask]
    alive = sum(int(np.count_nonzero(m)) for m in mask)
    n_prune = min(int(rate * alive + 0.5), alive - 1)
    warnings: list[str] = []
    pruned = prune_by_magnitude(weights, mask, rate, warnings)
    oracle = _padded_stable_sort([np.abs(w) for w in weights], mask, n_prune)
    for got, m, hit, old in zip(pruned, mask, oracle, before):
        assert got.dtype == bool and got.shape == m.shape
        np.testing.assert_array_equal(got, m & ~hit)
        assert np.array_equal(m, old) and not np.any(got & ~old)  # no pruned weight comes back
    assert sum(int(np.count_nonzero(m)) for m in pruned) == alive - n_prune
    assert bool(warnings) == (int(rate * alive + 0.5) > alive - 1)


SCHEDULES = [SparsitySchedule(0.5, 1, 1), SparsitySchedule(0.1, 4, 2), SparsitySchedule(0.9, 2, 1), SparsitySchedule(0.01, 1, 1)]


@settings(max_examples=150, deadline=None)
@given(_layers_and_eligible(), st.sampled_from(SCHEDULES), st.sampled_from([bool, np.float64]))
def test_freeze_step_matches_the_padded_stable_sort(case, schedule, freeze_dtype):
    before, unfrozen = case
    scores = [p.copy() for p in before]
    freeze = [f.astype(freeze_dtype) for f in unfrozen]  # the float 0/1 arrays older callers pass still work
    total = sum(int(np.count_nonzero(f)) for f in unfrozen)
    n_freeze = max(total - schedule.survivors(total), 0)
    oracle = _padded_stable_sort(before, unfrozen, n_freeze)
    assert freeze_step(scores, freeze, schedule) == n_freeze
    for p, f, old_p, old_f, hit in zip(scores, freeze, before, unfrozen, oracle):
        assert f.dtype == freeze_dtype
        np.testing.assert_array_equal(f != 0, old_f & ~hit)  # newly frozen: exactly the oracle's; none thaws
        np.testing.assert_array_equal(p, np.where(hit, 0.0, old_p))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peaks of one call on 784-128-10 with every entry eligible, in bytes, when the
# excluded entries were still padded to +inf (three network-sized float64 arrays at the partition)
PADDED_PEAKS = {"prune_by_magnitude": 2_442_848, "freeze_step": 2_442_840}


@pytest.mark.parametrize("eligible_fraction", [1.0, 0.2])
def test_prune_and_freeze_memory_shrinks_with_the_eligible_count(eligible_fraction):
    spec = NetworkSpec((784, 128, 10))
    rng = np.random.default_rng(4)
    weights = [rng.standard_normal(shape) for shape in spec.layer_shapes]
    scores = [rng.random(shape) for shape in spec.layer_shapes]
    mask = [rng.random(shape) < eligible_fraction for shape in spec.layer_shapes]
    freeze = [m.copy() for m in mask]
    peaks = {
        "prune_by_magnitude": _traced_peak(lambda: prune_by_magnitude(weights, mask, 0.2, [])),
        "freeze_step": _traced_peak(lambda: freeze_step(scores, freeze, SparsitySchedule(0.5, 1, 1))),
    }
    if eligible_fraction == 1.0:
        assert all(peaks[name] <= PADDED_PEAKS[name] for name in peaks), peaks
    else:
        assert all(peak < 1.5 * 8 * spec.total_params for peak in peaks.values()), peaks


def test_imp_round_masks_are_boolean(blobs):
    spec = NetworkSpec((2, 8, 2))
    cfg = MinerConfig(lr=0.05, seed=2, batch_size=16)
    res = imp(blobs, spec, rounds=3, prune_rate=0.3, rewind=RewindSpec("cold"), epochs_per_round=1, config=cfg)
    assert len(res.round_masks) == 3
    assert all(m.dtype == np.bool_ for round_mask in res.round_masks for m in round_mask)
    for last, m in zip(res.round_masks[-1], res.mask, strict=True):
        assert last.dtype == m.dtype == np.bool_ and np.array_equal(last, m)


@pytest.mark.parametrize("rounds", [1, 3, 255])
def test_imp_round_history_is_one_byte_per_weight(rounds):
    spec = NetworkSpec((3, 4, 2))
    cfg = MinerConfig(seed=1)
    res = imp(None, spec, rounds=rounds, prune_rate=0.3, rewind=RewindSpec("cold"), epochs_per_round=0, config=cfg)
    history = res.round_masks.pruned_in
    assert [p.dtype for p in history] == [np.uint8, np.uint8]
    assert 0 == min(int(p.min()) for p in history) < max(int(p.max()) for p in history) <= rounds
    assert sum(p.nbytes for p in history) == spec.total_params
    assert [p.shape for p in history] == [m.shape for m in res.mask]
    assert not any(p.flags.writeable for p in history)


def test_imp_round_masks_act_as_a_sequence_of_boolean_mask_lists(blobs):
    spec = NetworkSpec((2, 8, 2))
    cfg = MinerConfig(lr=0.05, seed=2, batch_size=16)
    res = imp(blobs, spec, rounds=4, prune_rate=0.3, rewind=RewindSpec("cold"), epochs_per_round=1, config=cfg)
    rounds = res.round_masks
    expected = [[m.copy() for m in rounds[r]] for r in range(4)]
    for masks in expected:
        assert isinstance(masks, list) and [m.dtype for m in masks] == [np.bool_, np.bool_]
    kept = [sum(int(np.sum(m)) for m in masks) for masks in expected]
    assert kept == sorted(kept, reverse=True) and len(set(kept)) == 4
    assert len(rounds) == 4 and (rounds or []) is rounds
    for got, want in zip(rounds, expected, strict=True):
        _assert_same_masks(got, want)
    _assert_same_masks(rounds[-1], res.mask)
    _assert_same_masks(rounds[-4], expected[0])
    with pytest.raises(IndexError):
        rounds[4]
    tail = rounds[1:]
    assert len(tail) == 3 and type(tail) is type(rounds)
    for got, want in zip(tail, expected[1:], strict=True):
        _assert_same_masks(got, want)
    for got, want in zip(rounds[::-2], expected[::-2], strict=True):
        _assert_same_masks(got, want)
    assert len(rounds[4:]) == 0 and (rounds[4:] or []) == []
    with pytest.raises(ValueError):
        list(zip(rounds, rounds[1:], strict=True))
    # each access builds new arrays, so writing into one leaves the history as it was
    rounds[0][0][...] = False
    _assert_same_masks(rounds[0], expected[0])
    with pytest.raises(TypeError):
        rounds[0] = expected[0]


def _assert_same_masks(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.bool_ and a.shape == b.shape and np.array_equal(a, b)


def test_imp_deterministic(blobs):
    spec = NetworkSpec((2, 8, 2))
    cfg = MinerConfig(lr=0.05, seed=13, batch_size=16)
    kwargs = dict(rounds=3, prune_rate=0.25, rewind=RewindSpec("cold"), epochs_per_round=1, config=cfg)
    a = imp(blobs, spec, **kwargs)
    b = imp(blobs, spec, **kwargs)
    for ma, mb in zip(a.mask, b.mask):
        assert ma.tobytes() == mb.tobytes()


# ---------------------------------------------------------------------------
# smart ratio
# ---------------------------------------------------------------------------


@settings(max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    ratios=st.tuples(
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.0),
    ),
)
def test_sampled_mask_counts_are_exact(seed, ratios):
    from gemmine.miners.smart_ratio import sample_ratio_mask

    spec = NetworkSpec((7, 6, 5, 3))
    warnings: list[str] = []
    mask = sample_ratio_mask(spec, LayerRatios(ratios), seed, warnings)
    for m, r, (fan_out, fan_in) in zip(mask, ratios, spec.layer_shapes):
        expected = max(1, math.floor(r * fan_out * fan_in))
        assert int(np.sum(m)) == expected


def test_smooth_ratios_monotone_with_pinned_last_layer():
    spec = NetworkSpec((30, 25, 20, 15, 10))
    ratios = smooth_ratios(spec, target_sparsity=0.3, last_layer_keep=0.3)
    interior = ratios.ratios[:-1]
    assert all(b <= a for a, b in zip(interior, interior[1:]))
    assert ratios.ratios[-1] == 0.3
    sizes = [o * i for o, i in spec.layer_shapes]
    implied = sum(r * s for r, s in zip(ratios.ratios, sizes)) / sum(sizes)
    assert implied == pytest.approx(0.3, abs=1e-9)


def test_sr_v1_hits_target_counts(blobs):
    spec = NetworkSpec((2, 20, 10, 2))
    res = smart_ratio(spec, 0.4, "v1", seed=3, data=blobs)
    assert res.layer_ratios.ratios[-1] == 0.3
    achieved = mask_sparsity(res.mask)
    assert achieved == pytest.approx(0.4, abs=len(res.mask) / spec.total_params)


def test_sr_v3_boundary_layers_dense():
    spec = NetworkSpec((6, 10, 8, 4))
    res = smart_ratio(spec, 0.3, "v3", seed=0)
    assert res.layer_ratios.ratios[0] == 1.0
    assert res.layer_ratios.ratios[-1] == 1.0
    assert np.all(res.mask[0] == 1.0)
    assert np.all(res.mask[-1] == 1.0)


def test_sr_v2_uses_reference_boundaries():
    spec = NetworkSpec((6, 10, 8, 4))
    profile = LayerRatios((0.9, 0.5, 0.8))
    res = smart_ratio(spec, 0.3, "v2", seed=0, reference_profile=profile)
    assert res.layer_ratios.ratios[0] == 0.9
    assert res.layer_ratios.ratios[-1] == 0.8


def test_sr_v4_rescales_reference_to_target():
    spec = NetworkSpec((6, 10, 8, 4))
    profile = LayerRatios((0.6, 0.2, 0.4))
    res = smart_ratio(spec, 0.25, "v4", seed=0, imp_profile=profile)
    sizes = [o * i for o, i in spec.layer_shapes]
    implied = sum(r * s for r, s in zip(res.layer_ratios.ratios, sizes)) / sum(sizes)
    assert implied == pytest.approx(0.25, abs=1e-9)
    # proportions preserved where nothing clamped
    r = res.layer_ratios.ratios
    assert r[0] / r[1] == pytest.approx(3.0, rel=1e-6)


def test_sr_missing_inputs_raise(blobs):
    spec = NetworkSpec((2, 6, 2))
    with pytest.raises(ValueError, match="profile"):
        smart_ratio(spec, 0.3, "v2", seed=0)
    with pytest.raises(ValueError, match="profile"):
        smart_ratio(spec, 0.3, "v4", seed=0)
    with pytest.raises(ValueError, match="data"):
        smart_ratio(spec, 0.3, "v5", seed=0, reference_profile=LayerRatios((0.5, 0.5)))


def test_sr_rejects_an_unknown_variant():
    with pytest.raises(ValueError, match=r"^variant must be one of \(.*'v6'\), got 'v7'$"):
        check_smart_ratio_settings(NetworkSpec((2, 6, 2)), "v7", None, None, 0.3, 50, 0.01)


def test_sr_sample_needs_one_ratio_per_layer():
    with pytest.raises(ValueError, match="^1 ratios for 2 layers$"):
        sample_ratio_mask(NetworkSpec((2, 6, 2)), LayerRatios((0.5,)), seed=0, warnings=[])


def test_sr_tuning_needs_a_step(blobs):
    spec = NetworkSpec((2, 6, 2))
    with pytest.raises(ValueError, match="^steps must be >= 1, got 0$"):
        tune_ratios(LayerRatios((0.5, 0.5)), init_weights(spec, SCALED_NORMAL, 0), blobs, steps=0, lr=0.01)


@pytest.mark.parametrize("target", [0.0, 1.5])
def test_sr_rejects_a_target_outside_0_to_1(target):
    with pytest.raises(ValueError, match=re.escape(f"target sparsity must be in (0, 1], got {target}")):
        smart_ratio(NetworkSpec((2, 6, 2)), target, "v1", seed=0)


def test_sr_deterministic(blobs):
    spec = NetworkSpec((2, 10, 2))
    a = smart_ratio(spec, 0.35, "v1", seed=17, data=blobs)
    b = smart_ratio(spec, 0.35, "v1", seed=17, data=blobs)
    for ma, mb in zip(a.mask, b.mask):
        assert ma.tobytes() == mb.tobytes()


def test_smart_ratio_warns_once_per_layer_when_a_ratio_keeps_no_weight():
    # floor(0.001 * 20) = 0 in both layers of 2-10-2, so each keeps 1 weight
    spec = NetworkSpec((2, 10, 2))
    clamped = [f"ratio 0.001 keeps no weights in layer {i}, clamped to 1" for i in range(2)]
    warnings: list[str] = []
    for seed in (0, 1):
        mask = sample_ratio_mask(spec, LayerRatios((1e-3, 1e-3)), seed, warnings)
        assert [int(m.sum()) for m in mask] == [1, 1]
    assert warnings == clamped
    # v4 rescales the profile to a budget of 0.04 weights, so both ratios end at MIN_RATIO
    res = smart_ratio(spec, 0.001, "v4", seed=0, imp_profile=LayerRatios((0.5, 0.5)))
    assert res.layer_ratios.ratios == (1e-3, 1e-3)
    assert res.report.warnings == clamped


@settings(max_examples=100, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 8), min_size=1, max_size=2),
    ratios=st.lists(st.floats(MIN_RATIO, 1.0), min_size=3, max_size=3),
    target=st.floats(0.05, 1.0),
    seed=st.integers(0, 1000),
)
def test_smart_ratio_masks_keep_their_counts_and_read_back_without_scores(hidden, ratios, target, seed):
    spec = NetworkSpec((2, *hidden, 2))
    ratios = LayerRatios(tuple(ratios[: spec.n_layers]))
    warnings: list[str] = []
    mask = sample_ratio_mask(spec, ratios, seed, warnings)
    floors = [math.floor(r * o * i) for r, (o, i) in zip(ratios.ratios, spec.layer_shapes)]
    assert [int(np.count_nonzero(m)) for m in mask] == [max(1, f) for f in floors]
    clamped = [i for i, f in enumerate(floors) if f < 1]
    assert warnings == [f"ratio {ratios.ratios[i]:.3g} keeps no weights in layer {i}, clamped to 1" for i in clamped]
    assert [m.tobytes() for m in sample_ratio_mask(spec, ratios, seed, [])] == [m.tobytes() for m in mask]

    result = smart_ratio(spec, target, "v4", seed, imp_profile=ratios)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(Path(tmp) / "sr.tfmc", result.layers)
        layers = load_checkpoint(Path(tmp) / "sr.tfmc")
    assert [layer.mask.tobytes() for layer in layers] == [m.tobytes() for m in result.mask]
    assert [layer.weights.tobytes() for layer in layers] == [w.astype(np.float32).astype(np.float64).tobytes() for w in result.weights]
    assert [layer.scores for layer in layers] == [None] * spec.n_layers
    with pytest.raises(ValueError, match="has no scores"):
        variant_network(layers, INVERT, seed, SCALED_NORMAL, [])


# ---------------------------------------------------------------------------
# miner reports
# ---------------------------------------------------------------------------


def _accuracy(result, features, labels) -> float:
    return evaluate([w * m for w, m in zip(result.weights, result.mask)], features, labels)


def test_edge_popup_and_smart_ratio_reports_describe_the_returned_network(digits_1k):
    spec = NetworkSpec((784, 16, 16, 10))
    sched = SparsitySchedule(0.2, 4, 2)
    cfg = MinerConfig(lr=0.1, seed=5, batch_size=64)
    layerwise = edge_popup(digits_1k, spec, sched, cfg)
    gradual = edge_popup(digits_1k, spec, sched, cfg, scope=GLOBAL, gradual=True)
    v1 = smart_ratio(spec, 0.2, "v1", seed=5, data=digits_1k)
    v6 = smart_ratio(spec, 0.2, "v6", seed=5, data=digits_1k, imp_profile=LayerRatios((0.1, 0.4, 0.8)), tune_steps=5)
    for result in (layerwise, gradual, v1, v6):
        pre = _accuracy(result, digits_1k.test_x, digits_1k.test_y)
        assert np.float64(result.report.pre_finetune_accuracy).tobytes() == np.float64(pre).tobytes()
        assert result.report.layerwise == layerwise_report(result.mask)
    # without the gradual staircase the last epoch's mask is the returned one
    val = _accuracy(layerwise, digits_1k.val_x, digits_1k.val_y)
    assert np.float64(layerwise.report.records[-1].val_accuracy).tobytes() == np.float64(val).tobytes()
    assert [r.sparsity for r in gradual.report.records] == [1.0, 1.0, sched.envelope(2), sched.envelope(2)]

    no_data = smart_ratio(spec, 0.2, "v1", seed=5)
    assert no_data.report.pre_finetune_accuracy is None
    assert no_data.report.layerwise == layerwise_report(no_data.mask)
    assert [m.tobytes() for m in no_data.mask] == [m.tobytes() for m in v1.mask]


def _miner_names(banned, skip=("common.py",)):
    """``file:line: name`` for each NAME token in ``banned`` in the miner modules, except those named in ``skip``."""
    # whole names only: docstrings and comments may still mention them
    return [
        f"{path.name}:{line}: {name}"
        for path, text in modules("miners")
        if path.name not in skip
        for line, name in names(text)
        if name in banned
    ]


def test_report_building_stays_in_miners_common():
    """Miners hand their epochs to trainer.record_epoch and their tails to common.mining_result."""
    assert _miner_names({"EpochRecord", "evaluate", "layerwise_report", "MaskedLayer"}) == []


def test_score_descent_loop_stays_in_miners_common():
    """Gem-Miner and edge-popup hand their mask rules to common.score_descent; no miner runs its own loop."""
    assert _miner_names({"run_epoch", "patch_flips", "score_loss_and_grads", "init_scores"}) == []


def test_score_descent_fails_a_write_into_the_fixed_weights_where_it_happens(blobs):
    def take_bits(scores, epoch, warnings):
        return [round_scores(p) for p in scores]

    def end_epoch(weights, scores, epoch, warnings):
        weights[0][0, 0] = 1.0
        return None, 0.5, {}

    with pytest.raises(ValueError, match="read-only"):
        score_descent(blobs, NetworkSpec((2, 4, 2)), SparsitySchedule(0.5, 2, 2), MinerConfig(), SIGNED_CONSTANT, take_bits, end_epoch)


def test_score_descent_hands_back_writable_weights(blobs):
    weights, _, _ = score_descent(
        blobs, NetworkSpec((2, 4, 2)), SparsitySchedule(0.5, 2, 2), MinerConfig(), SIGNED_CONSTANT,
        lambda scores, epoch, warnings: [round_scores(p) for p in scores], lambda weights, scores, epoch, warnings: (None, 0.5, {}),
    )
    assert all(w.flags.writeable for w in weights)


def test_score_descent_rebuilds_its_effective_weights_on_a_new_base(blobs, monkeypatch):
    """A new base reaches the entries whose bit stays on, which no flip rewrites."""
    recorded = {}
    real_record = gemmine.miners.common.record_epoch

    def recording(report, data, weights, epoch, *args, **kwargs):
        recorded[epoch] = [w.copy() for w in weights]
        return real_record(report, data, weights, epoch, *args, **kwargs)

    def take_bits(scores, epoch, warnings):
        return [np.ones(p.shape, dtype=bool) for p in scores]

    def end_epoch(weights, scores, epoch, warnings):
        return ([2 * w for w in weights] if epoch == 1 else None), 1.0, {}

    monkeypatch.setattr(gemmine.miners.common, "record_epoch", recording)
    weights, _, _ = score_descent(blobs, NetworkSpec((2, 4, 2)), SparsitySchedule(0.5, 2, 1), MinerConfig(), SCALED_NORMAL, take_bits, end_epoch)
    for epoch in (1, 2):
        assert [e.tobytes() for e in recorded[epoch]] == [(2 * w).tobytes() for w in weights], epoch


def test_masked_weight_training_stays_in_the_trainer():
    """IMP trains through trainer.train_masked, and only common.score_descent builds an optimizer."""
    assert _miner_names({"run_masked_epoch", "lr_at", "live_params"}, skip=()) == []
    assert _miner_names({"make_optimizer"}) == []


def _warning_membership_tests(source: str) -> list[str]:
    """``function:line`` for each ``in`` or ``not in`` test in ``source`` against a name or attribute ``warnings``."""

    def tests_warnings(node) -> bool:
        return isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) and "warnings" in (getattr(right, "id", None), getattr(right, "attr", None))
            for op, right in zip(node.ops, node.comparators)
        )

    return [f"{function}:{line}" for line, function in sites(source, tests_warnings)]


def test_a_warning_is_deduplicated_only_by_warn_once():
    """Every "warn once" is ``common.warn_once``'s; the miners' keep-at-least-one clamps reach it through ``keep_at_least_one``."""
    tests = [f"{path}:{site}" for path, text in modules() for site in _warning_membership_tests(text)]
    assert [site.rpartition(":")[0] for site in tests] == ["miners/common.py:warn_once"]


def test_the_warning_guard_sees_each_spelling():
    source = """
def warn_once(warnings, message):
    if message not in warnings:
        warnings.append(message)
def clamp(report, msg, warnings, notes):
    if msg not in report.warnings: pass
    seen = msg in warnings
    if not msg in warnings: pass
    for w in warnings: pass
    other = msg not in notes
"""
    assert _warning_membership_tests(source) == ["warn_once:3", "clamp:6", "clamp:7", "clamp:8"]


def _variant_collections(source: str) -> list[str]:
    """``where:line`` for each tuple, list or set literal in ``source`` holding a ``"v<digit>"`` string; ``where`` is
    the name a module-level assignment binds the literal to, else the enclosing function (``None`` at module level)."""
    tree = ast.parse(source)
    bound = {id(n.value): n.targets[0].id for n in tree.body if isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Name)}

    def holds_a_variant(node) -> bool:
        return isinstance(node, (ast.Tuple, ast.List, ast.Set)) and any(
            isinstance(e, ast.Constant) and isinstance(e.value, str) and re.fullmatch(r"v\d+", e.value) for e in node.elts
        )

    return [f"{bound.get(node, function)}:{line}" for line, function, node in sites(tree, holds_a_variant, what=id)]


def test_smart_ratio_variant_sets_are_named_once():
    """The variants that need a reference or an IMP profile, and the tuned ones, are each one named set in smart_ratio.py."""
    collections = {f"{path}:{site.rpartition(':')[0]}" for path, text in modules() for site in _variant_collections(text)}
    sets = ("VARIANTS", "REFERENCE_VARIANTS", "IMP_PROFILE_VARIANTS", "TUNED_VARIANTS")
    assert collections == {f"miners/smart_ratio.py:{name}" for name in sets}


def test_the_variant_set_guard_sees_each_spelling():
    source = """
VARIANTS = ("v1", "v2")
OTHER = 3, "v4"
def check(variant):
    if variant in ("v4", "v6"): pass
    pair = ("v5",)
    names = ("a", "b")
    return variant in ["v2", "v5"] or variant in {"v3"} or variant == "v3"
"""
    assert _variant_collections(source) == ["VARIANTS:2", "OTHER:3", "check:5", "check:6", "check:8", "check:8"]


# ---------------------------------------------------------------------------
# ratio tuning
# ---------------------------------------------------------------------------


def test_tune_ratios_zero_weight_layer_unmoved():
    data, weights = toy_one_useful_weight()
    weights = [np.zeros((2, 1)), weights[1]]
    before = LayerRatios((0.5, 0.9))
    after = tune_ratios(before, weights, data, steps=5, lr=0.5, seed=1)
    # a layer of zero weights contributes no gradient to its keep ratio
    assert after.ratios[0] == pytest.approx(0.5, abs=0.0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_tune_ratios_rejects_a_non_finite_learning_rate(lr):
    data, weights = toy_one_useful_weight()
    with pytest.raises(ValueError, match="tune learning rate must be finite"):
        tune_ratios(LayerRatios((0.5, 0.9)), weights, data, steps=5, lr=lr, seed=1)


@pytest.mark.parametrize("lr", [-1.0, 0.0])
def test_tune_ratios_rejects_a_learning_rate_that_is_not_positive(lr):
    # a negative rate would climb the expected loss, and 0 would leave the ratios where they are
    data, weights = toy_one_useful_weight()
    with pytest.raises(ValueError, match=f"tune learning rate must be > 0, got {lr}"):
        tune_ratios(LayerRatios((0.5, 0.9)), weights, data, steps=5, lr=lr, seed=1)


def test_tune_ratios_dense_matches_dense_loss():
    data, weights = toy_one_useful_weight()
    dense_loss = loss_and_grads(data.train_x, data.train_y, weights)[0]
    ones = [np.ones_like(w) for w in weights]
    masked_loss = loss_and_grads(data.train_x, data.train_y, [w * m for w, m in zip(weights, ones)])[0]
    assert masked_loss == dense_loss


def test_tune_ratios_improves_enumerated_objective():
    data, weights = toy_one_useful_weight()
    start = LayerRatios((0.3, 0.7))
    improved = 0
    for seed in range(10):
        tuned = tune_ratios(start, weights, data, steps=30, lr=0.05, seed=seed)
        before = enumerated_expected_loss(weights, start.ratios, data)
        after = enumerated_expected_loss(weights, tuned.ratios, data)
        if after < before:
            improved += 1
        # the layer holding the useful weight gets a higher keep probability
        assert tuned.ratios[0] > start.ratios[0]
    assert improved >= 8


def test_tune_ratios_clamps_to_unit_interval():
    data, weights = toy_one_useful_weight()
    tuned = tune_ratios(LayerRatios((0.9, 0.9)), weights, data, steps=40, lr=2.0, seed=0)
    assert all(1e-3 <= r <= 1.0 for r in tuned.ratios)


# ---------------------------------------------------------------------------
# every selection site against the stable-sort oracle, end to end
# ---------------------------------------------------------------------------

# the modules whose global select_smallest is called: masking's, through
# select_smallest_across and LargestSelector, serves freeze_step,
# prune_by_magnitude and both scopes of top-k
SELECTION_SITES = ("masking", "sanity")


def _mine_with_every_selection(data):
    """Run each caller of select_smallest on 784-16-10; return every array it produces, as bytes."""
    spec = NetworkSpec((784, 16, 10))
    cfg = MinerConfig(lr=0.1, seed=5, batch_size=100)
    results = {
        "ep_layerwise": edge_popup(data, spec, SparsitySchedule(0.05, 2, 1), cfg),
        "ep_global_gradual": edge_popup(data, spec, SparsitySchedule(0.05, 4, 1), cfg, scope=GLOBAL, gradual=True),
        "gem": gem_mine(data, spec, SparsitySchedule(0.1, 4, 2), MinerConfig(lr=0.5, reg_weight=1e-3, seed=5, batch_size=100)),
        # signed-constant weights all share one magnitude, so pruning is mostly tie-breaking
        "imp": imp(data, spec, 3, 0.3, RewindSpec("cold"), 1, cfg, init_scheme=SIGNED_CONSTANT),
    }
    unfrozen = [r.sparsity for r in results["gem"].report.records]
    assert sum(b < a for a, b in zip(unfrozen, unfrozen[1:])) == 2  # two freeze events
    out = {}
    for name, res in results.items():
        arrays = list(res.mask) + [l.scores for l in res.layers]
        arrays.append(np.array([r.sparsity for r in res.report.records]))  # gem: the unfrozen fraction
        arrays += [m for round_mask in res.round_masks or [] for m in round_mask]
        inverted = invert_scores([l.scores for l in res.layers], res.mask, [])
        out[name] = [a.tobytes() for a in arrays + inverted]
    return out


def test_selection_sites_match_the_stable_sort_oracle(digits_1k, monkeypatch):
    data = dataclasses.replace(digits_1k, train_x=digits_1k.train_x[:300], train_y=digits_1k.train_y[:300])
    fast = _mine_with_every_selection(data)
    calls = dict.fromkeys(SELECTION_SITES, 0)
    for module in SELECTION_SITES:

        def oracle(values, k, module=module):
            calls[module] += 1
            chosen = np.zeros(np.size(values), dtype=bool)
            chosen[np.argsort(np.asarray(values).reshape(-1), kind="stable")[: max(k, 0)]] = True
            return chosen

        monkeypatch.setattr(getattr(gemmine, module), "select_smallest", oracle)
    sorted_ = _mine_with_every_selection(data)
    assert all(n > 0 for n in calls.values()), calls
    for name in fast:
        assert fast[name] == sorted_[name], name


# ---------------------------------------------------------------------------
# what every miner returns
# ---------------------------------------------------------------------------

CONTRACT_SCHEDULE = SparsitySchedule(0.3, 4, 2)
EVERY_MINER = {
    "gem": lambda data, spec, cfg: gem_mine(data, spec, CONTRACT_SCHEDULE, cfg),
    "ep_layerwise": lambda data, spec, cfg: edge_popup(data, spec, CONTRACT_SCHEDULE, cfg, scope=LAYERWISE),
    "ep_global_gradual": lambda data, spec, cfg: edge_popup(data, spec, CONTRACT_SCHEDULE, cfg, scope=GLOBAL, gradual=True),
    "imp_cold": lambda data, spec, cfg: imp(data, spec, 3, 0.3, RewindSpec(COLD), 2, cfg),
    "imp_warm": lambda data, spec, cfg: imp(data, spec, 3, 0.3, RewindSpec(WARM, warm_epoch=1), 2, cfg),
    "imp_lr_rewind": lambda data, spec, cfg: imp(data, spec, 3, 0.3, RewindSpec(LR_REWIND), 2, cfg),
    "sr_v1": lambda data, spec, cfg: smart_ratio(spec, 0.3, "v1", cfg.seed, data=data),
}


@pytest.mark.parametrize("miner", sorted(EVERY_MINER))
def test_every_miner_returns_the_dense_weights_its_mask_selects_from(blobs, tmp_path, miner):
    spec = NetworkSpec((2, 8, 2))
    res = EVERY_MINER[miner](blobs, spec, MinerConfig(lr=0.05, seed=4, batch_size=16))
    assert all(np.all(w != 0.0) for w in res.weights)
    network = [w * m for w, m in zip(res.weights, res.mask)]
    assert res.report.pre_finetune_accuracy == evaluate(network, blobs.test_x, blobs.test_y)
    save_checkpoint(tmp_path / "net.tfmc", res.layers)
    loaded = load_checkpoint(tmp_path / "net.tfmc")
    assert [l.mask.tobytes() for l in loaded] == [m.tobytes() for m in res.mask]
    assert [l.weights.tobytes() for l in loaded] == [w.astype(np.float32).astype(np.float64).tobytes() for w in res.weights]


def test_imp_warns_about_the_layers_it_empties():
    data = gen_synthetic("blobs", 400, 0.3, 0)
    res = imp(data, NetworkSpec((2, 30, 30, 2)), 12, 0.3, RewindSpec(COLD), 1, MinerConfig(seed=1))
    assert [int(m.sum()) for m in res.mask] == [14, 0, 0]
    assert res.report.warnings == [
        "layer_collapse: layer 1 mask is empty (final mask)",
        "layer_collapse: layer 2 mask is empty (final mask)",
    ]


def test_edge_popup_warns_about_the_layers_it_empties():
    data = gen_synthetic("blobs", 400, 0.3, 0)
    schedule = SparsitySchedule(0.02, 4, 2)
    res = edge_popup(data, NetworkSpec((2, 8, 30, 2)), schedule, MinerConfig(seed=2), scope=GLOBAL, gradual=True)
    assert [int(m.sum()) for m in res.mask] == [0, 2, 4]
    assert res.report.warnings == ["layer_collapse: layer 0 mask is empty (final mask)"]


def test_the_layer_collapse_warning_is_spelled_once():
    def spells(node) -> bool:
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and "layer_collapse" in node.value

    spelled = [f"{path}:{line}" for path, text in modules() for line, _ in sites(text, spells)]
    assert len(spelled) == 1 and spelled[0].startswith("miners/common.py:"), spelled
