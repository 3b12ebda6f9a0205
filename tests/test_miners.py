import dataclasses
import importlib
import math
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemmine.autodiff import Tensor, backward, linear, mul, relu, softmax_cross_entropy, ste_round
from gemmine.masking import (
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
from gemmine.miners import (
    GLOBAL,
    LAYERWISE,
    LayerRatios,
    MinerConfig,
    RewindSpec,
    SparsitySchedule,
    edge_popup,
    freeze_step,
    gem_mine,
    imp,
    prune_by_magnitude,
    smart_ratio,
    smooth_ratios,
    topk_mask,
    tune_ratios,
)
from gemmine.miners.common import L1, L2, patch_flips
from gemmine.miners.gem import check_layer_collapse
from gemmine.optim import Adam, SgdMomentum, make_optimizer
from gemmine.sanity import invert_scores, layerwise_report
from gemmine.trainer import evaluate, run_epoch
from tests.conftest import random_classification


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
        _, val_acc = evaluate([w * m for w, m in zip(weights, mask)], data.val_x, data.val_y)
        for name, value in zip(columns, (epoch, mask_sparsity(freeze), train_loss, val_acc, mask_sparsity(mask))):
            columns[name].append(value)
    mask = [round_scores(p) * f for p, f in zip(scores, freeze)]
    check_layer_collapse(mask, warnings, "final mask")
    _, pre_acc = evaluate([w * m for w, m in zip(weights, mask)], data.test_x, data.test_y)
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
    for got, want in zip(res.mask, mask):
        assert got.tobytes() == want.tobytes()
    for layer, inverted, want in zip(res.layers, res.inversion_scores, scores):
        assert layer.scores.tobytes() == want.tobytes()
        assert inverted.tobytes() == want.tobytes()
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

    monkeypatch.setattr(importlib.import_module("gemmine.miners.gem"), "freeze_step", recording_freeze_step)
    res = gem_mine(data, NetworkSpec((784, 16, 10)), SparsitySchedule(0.1, 4, 2), MinerConfig(lr=0.5, seed=5, batch_size=32))
    for layer, f in zip(res.layers, seen["freeze"]):
        assert np.count_nonzero(f == 0.0) > 0
        assert np.all(layer.scores[f == 0.0] == 0.0)


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
        _, val_acc = evaluate([w * m for w, m in zip(weights, mask)], data.val_x, data.val_y)
        for name, value in zip(columns, (epoch, keep, train_loss, val_acc)):
            columns[name].append(value)
    mask = [np.asarray(m, dtype=np.float64) for m in topk_mask(scores, schedule.target_sparsity, scope, warnings)]
    _, pre_acc = evaluate([w * m for w, m in zip(weights, mask)], data.test_x, data.test_y)
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
    for got, want in zip(res.mask, mask):
        assert got.tobytes() == want.tobytes()
    for inverted, want in zip(res.inversion_scores, scores):
        assert inverted.tobytes() == want.tobytes()
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


def test_imp_cold_rewind_bit_equals_init(blobs):
    spec = NetworkSpec((2, 8, 2))
    cfg = MinerConfig(lr=0.05, seed=4, batch_size=16)
    res = imp(blobs, spec, rounds=2, prune_rate=0.3, rewind=RewindSpec("cold"), epochs_per_round=2, config=cfg)
    initial = init_weights(spec, "scaled_normal", seed=4)
    for w, w0, m in zip(res.weights, initial, res.mask):
        survivors = m != 0.0
        assert np.array_equal(w[survivors], w0[survivors])
        assert np.all(w[~survivors] == 0.0)


def test_imp_lr_rewind_keeps_trained_weights(blobs):
    spec = NetworkSpec((2, 8, 2))
    cfg = MinerConfig(lr=0.05, seed=4, batch_size=16)
    res = imp(blobs, spec, rounds=2, prune_rate=0.3, rewind=RewindSpec("lr_rewind"), epochs_per_round=2, config=cfg)
    initial = init_weights(spec, "scaled_normal", seed=4)
    survivors = res.mask[0] != 0.0
    assert not np.array_equal(res.weights[0][survivors], initial[0][survivors])


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


def test_imp_masks_nest_across_rounds():
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((4, 6))]
    mask = [np.ones((4, 6))]
    warnings: list[str] = []
    seen = [mask[0].copy()]
    for _ in range(4):
        mask = prune_by_magnitude(weights, mask, 0.25, warnings)
        assert np.all(mask[0] <= seen[-1])
        seen.append(mask[0].copy())


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


def test_sr_deterministic(blobs):
    spec = NetworkSpec((2, 10, 2))
    a = smart_ratio(spec, 0.35, "v1", seed=17, data=blobs)
    b = smart_ratio(spec, 0.35, "v1", seed=17, data=blobs)
    for ma, mb in zip(a.mask, b.mask):
        assert ma.tobytes() == mb.tobytes()


# ---------------------------------------------------------------------------
# miner reports
# ---------------------------------------------------------------------------


def _accuracy(result, features, labels) -> float:
    return evaluate([w * m for w, m in zip(result.weights, result.mask)], features, labels)[1]


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
    offenders = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "gemmine" / "miners").glob("*.py")):
        if path.name in skip:
            continue
        with open(path, "rb") as f:
            # whole NAME tokens only: docstrings and comments may still mention them
            tokens = tokenize.tokenize(f.readline)
            offenders += [f"{path.name}:{t.start[0]}: {t.string}" for t in tokens if t.type == tokenize.NAME and t.string in banned]
    return offenders


def test_report_building_stays_in_miners_common():
    """Miners hand their epochs to trainer.record_epoch and their tails to common.mining_result."""
    assert _miner_names({"EpochRecord", "evaluate", "layerwise_report", "MaskedLayer"}) == []


def test_score_descent_loop_stays_in_miners_common():
    """Gem-Miner and edge-popup hand their mask rules to common.score_descent; no miner runs its own loop."""
    assert _miner_names({"run_epoch", "patch_flips", "score_loss_and_grads", "init_scores"}) == []


def test_masked_weight_training_stays_in_the_trainer():
    """IMP trains through trainer.train_masked, and only common.score_descent builds an optimizer."""
    assert _miner_names({"run_masked_epoch", "lr_at", "live_params"}, skip=()) == []
    assert _miner_names({"make_optimizer"}) == []


# ---------------------------------------------------------------------------
# ratio tuning
# ---------------------------------------------------------------------------


def _toy_one_useful_weight():
    """(1, 2, 2) net where only the first hidden weight carries signal."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 1)) * 2.0
    y = (x[:, 0] > 0).astype(np.int64)
    data_x = x
    from gemmine.data import DatasetSplit

    data = DatasetSplit(
        train_x=data_x[:48],
        train_y=y[:48],
        val_x=data_x[48:56],
        val_y=y[48:56],
        test_x=data_x[56:],
        test_y=y[56:],
        n_classes=2,
    )
    weights = [np.array([[4.0], [0.0]]), np.array([[-3.0, 0.0], [3.0, 0.0]])]
    return data, weights


def test_tune_ratios_zero_weight_layer_unmoved():
    data, weights = _toy_one_useful_weight()
    weights = [np.zeros((2, 1)), weights[1]]
    before = LayerRatios((0.5, 0.9))
    after = tune_ratios(before, weights, data, steps=5, lr=0.5, seed=1)
    # a layer of zero weights contributes no gradient to its keep ratio
    assert after.ratios[0] == pytest.approx(0.5, abs=0.0)


def test_tune_ratios_dense_matches_dense_loss():
    data, weights = _toy_one_useful_weight()
    from gemmine.trainer import evaluate

    dense_loss, _ = evaluate(weights, data.train_x, data.train_y)
    ones = [np.ones_like(w) for w in weights]
    masked_loss, _ = evaluate([w * m for w, m in zip(weights, ones)], data.train_x, data.train_y)
    assert masked_loss == dense_loss


def _enumerated_expected_loss(weights, ratios, data) -> float:
    """Exact expectation of the loss over all Bernoulli mask assignments."""
    from gemmine.trainer import evaluate

    sizes = [w.size for w in weights]
    total = sum(sizes)
    expected = 0.0
    for bits in range(2**total):
        prob = 1.0
        masks = []
        cursor = 0
        for w, r in zip(weights, ratios):
            m = np.zeros(w.size)
            for i in range(w.size):
                keep = (bits >> (cursor + i)) & 1
                m[i] = keep
                prob *= r if keep else (1.0 - r)
            cursor += w.size
            masks.append(m.reshape(w.shape))
        if prob == 0.0:
            continue
        loss, _ = evaluate([w * m for w, m in zip(weights, masks)], data.train_x, data.train_y)
        expected += prob * loss
    return expected


def test_tune_ratios_improves_enumerated_objective():
    data, weights = _toy_one_useful_weight()
    start = LayerRatios((0.3, 0.7))
    improved = 0
    for seed in range(10):
        tuned = tune_ratios(start, weights, data, steps=30, lr=0.05, seed=seed)
        before = _enumerated_expected_loss(weights, start.ratios, data)
        after = _enumerated_expected_loss(weights, tuned.ratios, data)
        if after < before:
            improved += 1
        # the layer holding the useful weight gets a higher keep probability
        assert tuned.ratios[0] > start.ratios[0]
    assert improved >= 8


def test_tune_ratios_clamps_to_unit_interval():
    data, weights = _toy_one_useful_weight()
    tuned = tune_ratios(LayerRatios((0.9, 0.9)), weights, data, steps=40, lr=2.0, seed=0)
    assert all(1e-3 <= r <= 1.0 for r in tuned.ratios)


# ---------------------------------------------------------------------------
# every selection site against the stable-sort oracle, end to end
# ---------------------------------------------------------------------------

# the modules whose global select_smallest is called: masking's, through
# select_smallest_across and SmallestSelector, serves freeze_step,
# prune_by_magnitude and both scopes of top-k
SELECTION_SITES = ("gemmine.masking", "gemmine.sanity")


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
        arrays = list(res.mask) + list(res.inversion_scores) + [l.scores for l in res.layers if l.scores is not None]
        arrays.append(np.array([r.sparsity for r in res.report.records]))  # gem: the unfrozen fraction
        arrays += [m for round_mask in res.round_masks or [] for m in round_mask]
        inverted, _ = invert_scores(res.inversion_scores, res.mask)
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

        # import_module: gemmine.miners re-exports functions named like its submodules
        monkeypatch.setattr(importlib.import_module(module), "select_smallest", oracle)
    sorted_ = _mine_with_every_selection(data)
    assert all(n > 0 for n in calls.values()), calls
    for name in fast:
        assert fast[name] == sorted_[name], name
