import dataclasses
import json
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemmine.autodiff import Tensor, add, backward, mul, scale
from gemmine.config import ConfigError, build_experiment_config
from gemmine.harness import write_report
from gemmine.masking import SCALED_NORMAL, STREAM_BATCHES, NetworkSpec, init_weights, loss_and_grads, mask_sparsity, stream_rng
from gemmine.miners.common import MinerConfig
from gemmine.miners.imp import COLD, LR_REWIND, WARM, RewindSpec, imp, prune_by_magnitude
from gemmine.optim import Adam, SgdMomentum, make_optimizer
from gemmine.sanity import layerwise_report
from gemmine import trainer as trainer_module
from gemmine.trainer import (
    Cosine,
    EpochRecord,
    MultiStep,
    RunReport,
    TrainConfig,
    batch_indices,
    evaluate,
    finetune,
    lr_at,
    run_epoch,
    train_masked,
)


def test_lr_multistep_example():
    cfg = TrainConfig(epochs=150, lr=0.1, schedule=MultiStep(milestones=(80, 120)))
    assert lr_at(cfg, 100) == pytest.approx(0.01)
    assert lr_at(cfg, 10) == pytest.approx(0.1)
    assert lr_at(cfg, 130) == pytest.approx(0.001)


def test_lr_cosine_boundaries():
    cfg = TrainConfig(epochs=200, lr=0.4, schedule=Cosine())
    assert lr_at(cfg, 0) == 0.4
    final = lr_at(cfg, 199)
    assert final == pytest.approx(0.4 * 0.5 * (1 + math.cos(math.pi * 199 / 200)))
    assert final < 1e-4


@pytest.mark.parametrize("epoch", [-1, 200])
def test_lr_at_rejects_an_epoch_outside_the_schedule(epoch):
    with pytest.raises(ValueError, match=re.escape(f"epoch {epoch} outside [0, 200)")):
        lr_at(TrainConfig(epochs=200, lr=0.4), epoch)


def test_milestones_must_increase_within_range():
    with pytest.raises(ValueError):
        TrainConfig(epochs=100, schedule=MultiStep(milestones=(50, 50)))
    with pytest.raises(ValueError):
        TrainConfig(epochs=100, schedule=MultiStep(milestones=(50, 120)))


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -0.1])
def test_train_config_needs_a_positive_finite_learning_rate(lr):
    with pytest.raises(ValueError, match="invalid TrainConfig"):
        TrainConfig(epochs=1, lr=lr)


def test_single_weight_hand_update():
    # 0.5 * (w*x - y)^2 with w=1, x=2, y=0 and lr=0.1: one step gives w=0.6
    w = np.array([1.0])
    opt = make_optimizer(SgdMomentum(), [w])
    leaf = Tensor(w, requires_grad=True)
    diff = mul(leaf, Tensor(np.array([2.0])))
    loss = scale(add(mul(diff, diff), Tensor(np.array([0.0]))), 0.5)
    backward(loss)
    opt.step([w], [leaf.grad], lr=0.1)
    assert w[0] == pytest.approx(0.6, abs=0.0)


# the smallest config that builds; the optimizer tests add their two keys to it
OPTIMIZER_CFG = "task.kind = blobs\nnet.widths = 2,4,2\n"


def test_parse_optimizer_has_one_sgd_spelling():
    # the message names the kind it rejects
    for key in ("miner.optimizer", "finetune.optimizer"):
        with pytest.raises(ConfigError, match=f"^{key}: must be one of sgd, adam, got 'sgd_momentum'$"):
            build_experiment_config(OPTIMIZER_CFG + f"{key} = sgd_momentum:0.9\n")


def test_parse_optimizer_forms():
    forms = {
        "sgd": SgdMomentum(),
        "sgd:0.8": SgdMomentum(momentum=0.8),
        "adam": Adam(),
        "adam:0.5,0.9,1e-6": Adam(beta1=0.5, beta2=0.9, eps=1e-6),
    }
    for text, optimizer in forms.items():
        cfg = build_experiment_config(OPTIMIZER_CFG + f"miner.optimizer = {text}\nfinetune.optimizer = {text}\n")
        assert cfg.miner.optimizer == optimizer and cfg.finetune.optimizer == optimizer
    with pytest.raises(ConfigError, match="^miner.optimizer: must be one of sgd, adam, got 'rmsprop'$"):
        build_experiment_config(OPTIMIZER_CFG + "miner.optimizer = rmsprop\n")


def test_evaluate_perfect_and_chance_and_zero():
    # logits already argmax-correct for every row
    weights = [np.eye(3), np.eye(3)]
    x = np.eye(3)
    y = np.array([0, 1, 2])
    acc = evaluate(weights, x, y)
    assert type(acc) is float and acc == 1.0
    empty = evaluate(weights, x[:0], y[:0])
    assert type(empty) is float and math.isnan(empty)

    # all-zero network: uniform logits, loss ln(k), argmax picks class 0
    k = 4
    zero_net = [np.zeros((5, 3)), np.zeros((k, 5))]
    xs = np.random.default_rng(0).standard_normal((8, 3))
    ys = np.array([0, 1, 2, 3] * 2)
    acc = evaluate(zero_net, xs, ys)
    assert loss_and_grads(xs, ys, zero_net)[0] == pytest.approx(math.log(k), rel=1e-12)
    assert acc == pytest.approx(1 / k)


def test_finetune_dense_mask_matches_plain_training(blobs):
    spec = NetworkSpec((2, 8, 2))
    weights = init_weights(spec, "scaled_normal", seed=0)
    mask = [np.ones_like(w) for w in weights]
    cfg = TrainConfig(epochs=3, batch_size=16, lr=0.1, seed=9)
    trained, _ = finetune(weights, mask, blobs, cfg)

    # reference loop: no masking anywhere, same batch stream and optimizer
    ref = [w.copy() for w in weights]
    opt = make_optimizer(cfg.optimizer, ref)
    rng = stream_rng(cfg.seed, STREAM_BATCHES)
    from gemmine.autodiff import linear, relu, softmax_cross_entropy

    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        for idx in batch_indices(blobs.train_x.shape[0], cfg.batch_size, rng):
            leaves = [Tensor(w, requires_grad=True) for w in ref]
            logits = linear(relu(linear(Tensor(blobs.train_x[idx]), leaves[0])), leaves[1])
            loss = softmax_cross_entropy(logits, blobs.train_y[idx])
            backward(loss)
            opt.step(ref, [l.grad for l in leaves], lr)
    for a, b in zip(trained, ref):
        assert a.tobytes() == b.tobytes()


def test_finetune_masked_weights_stay_zero(blobs):
    spec = NetworkSpec((2, 10, 2))
    weights = init_weights(spec, "scaled_normal", seed=1)
    rng = np.random.default_rng(0)
    mask = [(rng.random(w.shape) < 0.5).astype(float) for w in weights]
    cfg = TrainConfig(epochs=4, batch_size=16, lr=0.2, seed=2)
    trained, report = finetune(weights, mask, blobs, cfg)
    for w, m in zip(trained, mask):
        assert np.all(w[m == 0.0] == 0.0)
        assert np.count_nonzero(w * (1.0 - m)) == 0
    assert report.layerwise == layerwise_report(mask)


def test_finetune_adam_respects_mask(blobs):
    spec = NetworkSpec((2, 8, 2))
    weights = init_weights(spec, "scaled_normal", seed=3)
    mask = [(np.random.default_rng(1).random(w.shape) < 0.4).astype(float) for w in weights]
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.01, optimizer=Adam(), seed=2)
    trained, _ = finetune(weights, mask, blobs, cfg)
    for w, m in zip(trained, mask):
        assert np.all(w[m == 0.0] == 0.0)


def test_finetune_rejects_empty_mask(blobs):
    spec = NetworkSpec((2, 4, 2))
    weights = init_weights(spec, "scaled_normal", seed=0)
    with pytest.raises(ValueError, match="mask"):
        finetune(weights, [np.zeros_like(w) for w in weights], blobs, TrainConfig(epochs=1))


def test_finetune_deterministic(blobs):
    spec = NetworkSpec((2, 8, 2))
    weights = init_weights(spec, "scaled_normal", seed=5)
    mask = [np.ones_like(w) for w in weights]
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.1, seed=7)
    a, _ = finetune(weights, mask, blobs, cfg)
    b, _ = finetune(weights, mask, blobs, cfg)
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()


def test_finetune_accepts_fortran_ordered_inputs(blobs):
    weights = init_weights(NetworkSpec((2, 6, 2)), "scaled_normal", seed=8)
    mask = [np.ones_like(w) for w in weights]
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.1, seed=3)
    want, want_report = finetune(weights, mask, blobs, cfg)
    got, got_report = finetune([np.asfortranarray(w) for w in weights], [np.asfortranarray(m) for m in mask], blobs, cfg)
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()
    assert np.array(_record_rows(got_report)).tobytes() == np.array(_record_rows(want_report)).tobytes()


def test_final_loss_not_worse_than_initial_across_seeds(blobs):
    spec = NetworkSpec((2, 10, 2))
    for seed in (0, 1, 2):
        weights = init_weights(spec, "scaled_normal", seed=seed)
        mask = [np.ones_like(w) for w in weights]
        cfg = TrainConfig(epochs=5, batch_size=16, lr=0.1, seed=seed)
        _, report = finetune(weights, mask, blobs, cfg)
        assert report.records[-1].train_loss <= report.records[0].train_loss


def test_run_report_json_field_names(tmp_path):
    report = RunReport()
    report.records.append(EpochRecord(epoch=1, sparsity=0.5, train_loss=1.0, val_accuracy=0.5))
    report.records.append(
        EpochRecord(epoch=2, sparsity=0.25, train_loss=0.75, val_accuracy=0.625, extra={"mask_sparsity": 0.375})
    )
    report.pre_finetune_accuracy = 0.1
    report.post_finetune_accuracy = 0.9
    report.layerwise = [{"layer_index": 0, "params": 4, "kept": 2, "keep_fraction": 0.5}]
    report.warnings = ["example"]
    write_report(tmp_path / "report", report)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert set(payload) == {
        "records",
        "pre_finetune_accuracy",
        "post_finetune_accuracy",
        "layerwise",
        "warnings",
    }
    assert payload["records"][0] == {
        "epoch": 1,
        "sparsity": 0.5,
        "train_loss": 1.0,
        "val_accuracy": 0.5,
    }
    # the whole file, key order included: a record's extra columns follow its fields
    assert (tmp_path / "report.json").read_text() == """{
  "records": [
    {
      "epoch": 1,
      "sparsity": 0.5,
      "train_loss": 1.0,
      "val_accuracy": 0.5
    },
    {
      "epoch": 2,
      "sparsity": 0.25,
      "train_loss": 0.75,
      "val_accuracy": 0.625,
      "mask_sparsity": 0.375
    }
  ],
  "pre_finetune_accuracy": 0.1,
  "post_finetune_accuracy": 0.9,
  "layerwise": [
    {
      "layer_index": 0,
      "params": 4,
      "kept": 2,
      "keep_fraction": 0.5
    }
  ],
  "warnings": [
    "example"
  ]
}
"""


def test_metrics_csv_header(tmp_path):
    report = RunReport()
    report.records.append(EpochRecord(epoch=1, sparsity=0.25, train_loss=2.0, val_accuracy=0.75))
    report.records.append(EpochRecord(epoch=2, sparsity=0.125, train_loss=1.5, val_accuracy=0.5, extra={"mask_sparsity": 0.5}))
    write_report(tmp_path / "metrics", report)
    lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,sparsity,train_loss,val_accuracy"
    assert lines[1] == "1,0.25,2,0.75"
    # the whole file: a record's extra columns stay out of the CSV
    assert (tmp_path / "metrics.csv").read_bytes() == b"epoch,sparsity,train_loss,val_accuracy\r\n1,0.25,2,0.75\r\n2,0.125,1.5,0.5\r\n"


def test_sparsity_constant_during_finetune(blobs):
    spec = NetworkSpec((2, 8, 2))
    weights = init_weights(spec, "scaled_normal", seed=0)
    rng = np.random.default_rng(3)
    mask = [(rng.random(w.shape) < 0.6).astype(float) for w in weights]
    _, report = finetune(weights, mask, blobs, TrainConfig(epochs=3, batch_size=16, lr=0.1, seed=0))
    values = {r.sparsity for r in report.records}
    assert len(values) == 1


def test_run_masked_epoch_reports_mean_loss(blobs):
    """Through train_masked, which runs one run_masked_epoch per epoch."""
    spec = NetworkSpec((2, 6, 2))
    weights = [w.copy() for w in init_weights(spec, "scaled_normal", seed=0)]
    mask = [np.ones_like(w) for w in weights]
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.05)
    rng = stream_rng(0, STREAM_BATCHES)
    [(_, loss)] = train_masked(weights, mask, blobs, cfg, rng)
    assert math.isfinite(loss) and loss > 0.0


def test_run_epoch_releases_a_batchs_gradients_before_the_next(blobs):
    """One gradient set is alive at a time: a batch's are gone before the next batch's are computed."""
    weights = [w.copy() for w in init_weights(NetworkSpec((2, 6, 2)), SCALED_NORMAL, seed=0)]
    previous = []

    def batch_loss_and_grads(x, y):
        assert all(ref() is None for ref in previous)
        loss, grads = loss_and_grads(x, y, weights)
        previous[:] = [weakref.ref(g) for g in grads]
        return loss, grads

    optimizer = make_optimizer(SgdMomentum(), weights)
    run_epoch(weights, batch_loss_and_grads, blobs.train_x, blobs.train_y, 16, optimizer, 0.05, stream_rng(0, STREAM_BATCHES))
    assert previous


def _break_contract(weights, mask, how):
    if how == "weight_outside_mask":
        assert weights[1][0, 0] != 0.0
        mask[1][0, 0] = 0.0
        return "layer 1: weights must be 0 where the mask is 0"
    if how == "not_c_contiguous":
        weights[1] = np.asfortranarray(weights[1])
        return "layer 1: weights must be a C-contiguous array"
    mask[0][1, 1] = how
    return "layer 0: mask entries must be 0 or 1"


@pytest.mark.parametrize("how", ["weight_outside_mask", "not_c_contiguous", 0.5, 2.0, -1.0, float("nan")])
def test_run_masked_epoch_rejects_a_broken_contract(blobs, how):
    """train_masked checks the contract before its first run_masked_epoch."""
    weights = [w.copy() for w in init_weights(NetworkSpec((2, 6, 2)), SCALED_NORMAL, seed=0)]
    mask = [np.ones_like(w) for w in weights]
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.05)
    message = _break_contract(weights, mask, how)
    before = [w.copy() for w in weights]
    with pytest.raises(ValueError, match=message):
        next(train_masked(weights, mask, blobs, cfg, stream_rng(0, STREAM_BATCHES)))
    for w, w0 in zip(weights, before):
        assert w.tobytes() == w0.tobytes()


def test_finetune_rejects_a_mask_entry_other_than_0_or_1(blobs):
    weights = init_weights(NetworkSpec((2, 6, 2)), SCALED_NORMAL, seed=0)
    mask = [np.ones_like(w) for w in weights]
    mask[1][1, 2] = 0.5
    with pytest.raises(ValueError, match="layer 1: mask entries must be 0 or 1"):
        finetune(weights, mask, blobs, TrainConfig(epochs=1, batch_size=16))


def test_finetune_names_the_layer_of_a_nan_mask_entry(blobs):
    # the mask's kept counts come before its check, and must not trip over the NaN first
    weights = init_weights(NetworkSpec((2, 6, 2)), SCALED_NORMAL, seed=0)
    mask = [np.ones_like(w) for w in weights]
    mask[1][0, 0] = np.nan
    with pytest.raises(ValueError, match="^layer 1: mask entries must be 0 or 1$"):
        finetune(weights, mask, blobs, TrainConfig(epochs=1, batch_size=16))


# ---------------------------------------------------------------------------
# compact weight training against the dense per-batch loop
# ---------------------------------------------------------------------------


def _dense_masked_epoch(weights, mask, features, labels, batch_size, optimizer, lr, rng):
    """Masked training stepping every weight: the kernel sees w * m, the optimizer gets d * m."""

    def batch_loss_and_grads(x, y):
        loss, d_eff = loss_and_grads(x, y, [w * m for w, m in zip(weights, mask)])
        return loss, [d * m for d, m in zip(d_eff, mask)]

    return run_epoch(weights, batch_loss_and_grads, features, labels, batch_size, optimizer, lr, rng)


def _reference_finetune(weights, mask, data, cfg):
    trained = [np.asarray(w, dtype=np.float64) * m for w, m in zip(weights, mask)]
    pre_acc = evaluate(trained, data.test_x, data.test_y)
    optimizer = make_optimizer(cfg.optimizer, trained)
    rng = stream_rng(cfg.seed, STREAM_BATCHES)
    rows = []
    for epoch in range(cfg.epochs):
        loss = _dense_masked_epoch(
            trained, mask, data.train_x, data.train_y, cfg.batch_size, optimizer, lr_at(cfg, epoch), rng
        )
        val_acc = evaluate(trained, data.val_x, data.val_y)
        rows.append((epoch + 1, mask_sparsity(list(mask)), loss, val_acc))
    post_acc = evaluate(trained, data.test_x, data.test_y)
    return trained, rows, pre_acc, post_acc


def _reference_imp(data, spec, rounds, prune_rate, rewind, epochs_per_round, config):
    initial = init_weights(spec, SCALED_NORMAL, config.seed)
    weights = [w.copy() for w in initial]
    mask = [np.ones_like(w) for w in initial]
    total = sum(w.size for w in initial)
    rng = stream_rng(config.seed, STREAM_BATCHES)
    warm_checkpoint = None
    round_masks, rows, warnings = [], [], []
    round_cfg = TrainConfig(epochs=epochs_per_round, lr=config.lr)
    for round_idx in range(rounds):
        optimizer = make_optimizer(config.optimizer, weights)
        kept_fraction = sum(int(np.sum(m)) for m in mask) / total
        for epoch in range(epochs_per_round):
            loss = _dense_masked_epoch(
                weights, mask, data.train_x, data.train_y, config.batch_size, optimizer, lr_at(round_cfg, epoch), rng
            )
            for w, m in zip(weights, mask):
                w *= m
            if round_idx == 0 and rewind.kind == WARM and epoch + 1 == rewind.warm_epoch:
                warm_checkpoint = [w.copy() for w in weights]
            val_acc = evaluate(weights, data.val_x, data.val_y)
            rows.append((round_idx * epochs_per_round + epoch + 1, kept_fraction, loss, val_acc))
        magnitudes = [np.abs(w) for w in weights]
        # the reference holds float 0/1 masks; prune_by_magnitude takes boolean ones
        mask = [np.where(m, 1.0, 0.0) for m in prune_by_magnitude(weights, [m != 0.0 for m in mask], prune_rate, warnings)]
        round_masks.append([m != 0.0 for m in mask])
        if rewind.kind == COLD:
            weights = [w0 * m for w0, m in zip(initial, mask)]
        elif rewind.kind == WARM:
            weights = [w0 * m for w0, m in zip(warm_checkpoint, mask)]
        else:
            weights = [w * m for w, m in zip(weights, mask)]
    eff = [w * m for w, m in zip(weights, mask)]
    pre_acc = evaluate(eff, data.test_x, data.test_y)
    return weights, mask, round_masks, magnitudes, rows, pre_acc, layerwise_report(mask), warnings


def _record_rows(report):
    return [(r.epoch, r.sparsity, r.train_loss, r.val_accuracy) for r in report.records]


def _assert_arrays_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# per layer of 784-16-10: the kept fraction, or a kept count: "one" weight, or half the layer's ("half") give or
# take one; train_masked steps a layer that keeps at least half its weights in place, any other one compactly
MASK_DENSITIES = {
    "dense": (1.0, 1.0),
    "half": (0.5, 0.5),
    "sparse": (0.05, 0.05),
    "one_kept": (0.5, "one"),
    "none_kept": (0.5, 0.0),
    "half_plus_one": ("half+1", "half+1"),
    "exact_half": ("half", "half"),
    "half_minus_one": ("half-1", "half-1"),
    "in_place_then_compact": ("half", "half-1"),
    "compact_then_in_place": ("half-1", "half"),
}
HALF_OFFSETS = {"half-1": -1, "half": 0, "half+1": 1}
OPTIMIZERS = pytest.mark.parametrize(
    "optimizer, lr", [(SgdMomentum(), 0.1), (Adam(), 0.01)], ids=["sgd", "adam"]
)


@OPTIMIZERS
@pytest.mark.parametrize("case", sorted(MASK_DENSITIES))
def test_finetune_matches_the_dense_reference_loop(digits_1k, case, optimizer, lr):
    data = dataclasses.replace(digits_1k, train_x=digits_1k.train_x[:300], train_y=digits_1k.train_y[:300])
    weights = init_weights(NetworkSpec((784, 16, 10)), SCALED_NORMAL, seed=4)
    rng = np.random.default_rng(11)
    mask = []
    for w, density in zip(weights, MASK_DENSITIES[case]):
        if density == "one":
            m = np.zeros_like(w)
            m.flat[rng.integers(m.size)] = 1.0
        elif density in HALF_OFFSETS:
            m = np.zeros_like(w)
            m.flat[rng.permutation(m.size)[: m.size // 2 + HALF_OFFSETS[density]]] = 1.0
        else:
            m = (rng.random(w.shape) < density).astype(np.float64)
        mask.append(m)
    cfg = TrainConfig(epochs=3, batch_size=32, optimizer=optimizer, lr=lr, seed=6)

    trained, report = finetune(weights, mask, data, cfg)
    want, rows, pre_acc, post_acc = _reference_finetune(weights, mask, data, cfg)

    _assert_arrays_identical(trained, want)
    # an output layer with no kept weight leaves no path to train: the weights must not move at all
    moved = any(not np.array_equal(t, w * m) for t, w, m in zip(trained, weights, mask))
    assert moved == (case != "none_kept")
    if case != "dense":  # some pruned weights are -0.0, so the byte check covers zero signs
        assert any(np.signbit(w[m == 0.0]).any() for w, m in zip(trained, mask))
    assert np.array(_record_rows(report)).tobytes() == np.array(rows).tobytes()
    assert np.array([report.pre_finetune_accuracy, report.post_finetune_accuracy]).tobytes() == (
        np.array([pre_acc, post_acc]).tobytes()
    )


@OPTIMIZERS
@pytest.mark.parametrize("kind", [COLD, WARM, LR_REWIND])
def test_imp_matches_the_dense_reference_loop(digits_1k, kind, optimizer, lr):
    data = dataclasses.replace(digits_1k, train_x=digits_1k.train_x[:300], train_y=digits_1k.train_y[:300])
    spec = NetworkSpec((784, 16, 10))
    rewind = RewindSpec(kind=kind, warm_epoch=1)
    config = MinerConfig(lr=lr, optimizer=optimizer, seed=3, batch_size=32)

    res = imp(data, spec, 5, 0.5, rewind, 2, config)
    weights, mask, round_masks, magnitudes, rows, pre_acc, layerwise, warnings = _reference_imp(
        data, spec, 5, 0.5, rewind, 2, config
    )

    assert [row[1] for row in rows[::2]] == [1.0, 0.5, 0.25, 0.125, 0.0625]  # kept fraction trained each round
    _assert_arrays_identical([w * m for w, m in zip(res.weights, res.mask)], weights)
    _assert_arrays_identical(res.mask, [m != 0.0 for m in mask])
    for got, want in zip(res.round_masks, round_masks, strict=True):
        _assert_arrays_identical(got, want)
    _assert_arrays_identical([l.scores for l in res.layers], magnitudes)
    assert np.array(_record_rows(res.report)).tobytes() == np.array(rows).tobytes()
    assert np.array(res.report.pre_finetune_accuracy).tobytes() == np.array(pre_acc).tobytes()
    assert res.report.layerwise == layerwise
    assert res.report.warnings == warnings


@pytest.mark.parametrize("kept, in_place", [(13, True), (12, True), (11, False)], ids=["half+1", "half", "half-1"])
def test_train_masked_steps_a_layer_that_keeps_at_least_half_in_place(blobs, monkeypatch, kept, in_place):
    """An in-place layer's optimizer parameter is the layer's own flat weights; a compact one's holds its kept weights."""
    weights = [w.copy() for w in init_weights(NetworkSpec((2, 12, 2)), SCALED_NORMAL, seed=0)]
    mask = [np.zeros((12, 2), dtype=bool), np.ones((2, 12), dtype=bool)]
    mask[0].flat[np.random.default_rng(1).permutation(24)[:kept]] = True
    weights[0] *= mask[0]
    params = []

    def recording(choice, layer_params):
        params.extend(layer_params)
        return make_optimizer(choice, layer_params)

    monkeypatch.setattr(trainer_module, "make_optimizer", recording)
    next(train_masked(weights, mask, blobs, TrainConfig(epochs=1, batch_size=16), stream_rng(0, STREAM_BATCHES)))
    assert [p.size for p in params] == [24 if in_place else kept, 24]
    assert [np.shares_memory(p, w) for p, w in zip(params, weights)] == [in_place, True]


@st.composite
def _imp_runs(draw):
    epochs = draw(st.integers(1, 2))
    optimizer, lr = draw(st.sampled_from([(SgdMomentum(), 0.1), (Adam(), 0.01)]))
    return dict(
        spec=NetworkSpec((2, *draw(st.lists(st.integers(2, 20), min_size=1, max_size=2)), 2)),
        rounds=draw(st.integers(1, 4)),
        prune_rate=draw(st.floats(0.1, 0.7)),
        # warm rewinding restores an epoch before round one's last
        rewind=RewindSpec(kind=draw(st.sampled_from([COLD, LR_REWIND] + [WARM] * (epochs == 2))), warm_epoch=1),
        epochs_per_round=epochs,
        config=MinerConfig(lr=lr, optimizer=optimizer, seed=draw(st.integers(0, 1000)), batch_size=32),
    )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(run=_imp_runs())
def test_imp_matches_the_dense_reference_loop_on_drawn_runs(blobs, run):
    """Drawn rates put a layer on each side of train_masked's in-place rule, from round to round and layer to layer."""
    res = imp(blobs, **run)
    weights, mask, round_masks, magnitudes, *_ = _reference_imp(blobs, **run)

    _assert_arrays_identical([w * m for w, m in zip(res.weights, res.mask)], weights)
    _assert_arrays_identical(res.mask, [m != 0.0 for m in mask])
    _assert_arrays_identical([m for r in res.round_masks for m in r], [m for r in round_masks for m in r])
    _assert_arrays_identical([l.scores for l in res.layers], magnitudes)
    want = sum(w.size for w in weights)
    previous = [np.ones(w.shape, dtype=bool) for w in weights]
    for masks in res.round_masks:
        assert all(not (m & ~p).any() for m, p in zip(masks, previous))
        # prune_by_magnitude keeps at least one weight
        want = max(want - int(run["prune_rate"] * want + 0.5), 1)
        assert sum(int(np.count_nonzero(m)) for m in masks) == want
        previous = masks
