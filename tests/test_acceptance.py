"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The image task is the
synthetic 10-class digit archive from conftest, split as
``configs/digits_gem.cfg`` says (1000 training rows, 784 features), so
chance level is 10%. Criteria 1, 3, 5 and 6 read their set-ups from
``configs/``: ``digits_gem.cfg``, ``imp_cold.cfg`` and ``ep_ablation.cfg``.
Criteria 5 and 6 run their configs through ``harness.run_experiment``, as
``gemmine run`` does, and judge the ``post_acc`` of its ``summary.csv``
rows, so every cell they compare was finetuned from its checkpoint read
back.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from gemmine import harness
from gemmine.autodiff import Tensor, backward, linear, mul, relu, softmax_cross_entropy, ste_round
from gemmine.checkpoint import load_checkpoint, save_checkpoint
from gemmine.config import ExperimentConfig
from gemmine.harness import BASE_VARIANT, mine_for_seed
from gemmine.masking import (
    MaskedLayer,
    NetworkSpec,
    init_scores,
    init_weights,
    layer_stddev,
    loss_and_grads,
    mask_sparsity,
    round_scores,
)
from gemmine.miners.common import LayerRatios, MinerConfig, SparsitySchedule
from gemmine.miners.edge_popup import GLOBAL, LAYERWISE, edge_popup
from gemmine.miners.gem import freeze_step, gem_mine
from gemmine.miners.imp import RewindSpec, imp
from gemmine.miners.smart_ratio import smart_ratio, smooth_ratios, tune_ratios
from gemmine.sanity import REINIT, invert_scores, shuffle_mask, variant_network
from toy_tasks import enumerated_expected_loss, toy_one_useful_weight

SEEDS = (1, 2, 3)
IMAGE_SPEC = NetworkSpec((784, 128, 10))
CHANCE = 0.1


class criterion:
    """Prints one pass/fail line per criterion, to the stated runtime cap."""

    def __init__(self, number: int, name: str, max_seconds: float):
        self.number = number
        self.name = name
        self.max_seconds = max_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.max_seconds else "FAIL"
        print(f"criterion {self.number} ({self.name}): {verdict} [{elapsed:.1f}s]")
        if exc_type is None and elapsed >= self.max_seconds:
            raise AssertionError(f"criterion {self.number} exceeded {self.max_seconds}s ({elapsed:.1f}s)")
        return False


def test_criterion_1_schedule_landing(experiment_config, digits_1k):
    with criterion(1, "schedule landing", 120.0):
        cfg = experiment_config("digits_gem")
        sched = cfg.schedule
        res = mine_for_seed(cfg, digits_1k, cfg.seeds[0])
        d = cfg.spec.total_params
        achieved = mask_sparsity(res.mask)
        tolerance = sched.n_events / d  # one weight per freeze event
        assert achieved <= 0.05
        assert achieved >= 0.05 - tolerance
        # envelope compliance after every freeze event
        for record in res.report.records:
            if record.epoch % sched.freeze_period == 0:
                assert record.sparsity <= sched.envelope(record.epoch) + 1.0 / d


def test_criterion_2_freeze_arithmetic():
    with criterion(2, "freeze arithmetic", 1.0):
        sched = SparsitySchedule(target_sparsity=0.014, total_epochs=150, freeze_period=5)
        reference = 0.014 ** (1.0 / 30.0)
        assert abs(sched.keep_factor - reference) / reference <= 1e-12
        assert abs(sched.keep_factor**30 - 0.014) / 0.014 <= 1e-12

        # synthetic score vector, no training: counts follow the floored
        # per-event survivor rule and land within one weight per event
        rng = np.random.default_rng(0)
        scores = rng.random((1, 10_000))
        scores, freeze = [scores.copy()], [np.ones_like(scores)]
        expected = 10_000
        for _ in range(30):
            expected = math.floor(sched.keep_factor * expected)
            freeze_step(scores, freeze, sched)
            assert int(np.sum(freeze[0])) == expected
        target_count = 0.014 * 10_000
        assert target_count - 30 <= expected <= target_count


def test_criterion_3_imp_schedule(experiment_config, digits_1k):
    with criterion(3, "imp schedule", 60.0):
        cfg = experiment_config("imp_cold")
        rounds, rate = cfg.imp_rounds, cfg.imp_prune_rate
        res = mine_for_seed(cfg, digits_1k, cfg.seeds[0])
        d = cfg.spec.total_params
        kept = d
        for _ in range(rounds):
            kept -= int(rate * kept + 0.5)
        assert sum(int(np.sum(m)) for m in res.mask) == kept
        assert mask_sparsity(res.mask) == pytest.approx(0.8**19, abs=rounds / d)
        assert 0.8**19 == pytest.approx(0.01441, abs=5e-6)
        # 19 rounds of full-scale 150-epoch training is the 2850-epoch budget
        assert rounds * 150 == 2850
        assert res.round_masks is not None and len(res.round_masks) == rounds
        for previous, current in zip(res.round_masks, res.round_masks[1:]):
            for m_prev, m_cur in zip(previous, current):
                assert np.all(m_cur <= m_prev)


def test_criterion_4_pre_finetune_signal(digits_1k):
    with criterion(4, "pre-finetune signal", 300.0 * len(SEEDS)):
        gm_pre, imp_pre, sr_pre = [], [], []
        for seed in SEEDS:
            gm = gem_mine(
                digits_1k,
                IMAGE_SPEC,
                SparsitySchedule(target_sparsity=0.5, total_epochs=30, freeze_period=10),
                MinerConfig(lr=0.5, seed=seed, batch_size=32),
            )
            gm_pre.append(gm.report.pre_finetune_accuracy)
            cold = imp(
                digits_1k,
                IMAGE_SPEC,
                rounds=1,
                prune_rate=0.5,
                rewind=RewindSpec("cold"),
                epochs_per_round=10,
                config=MinerConfig(lr=0.1, seed=seed, batch_size=32),
            )
            imp_pre.append(cold.report.pre_finetune_accuracy)
            sr = smart_ratio(IMAGE_SPEC, 0.5, "v1", seed=seed, data=digits_1k)
            sr_pre.append(sr.report.pre_finetune_accuracy)
        assert np.mean(gm_pre) >= 3 * CHANCE
        assert np.mean(imp_pre) <= 2 * CHANCE
        assert np.mean(sr_pre) <= 2 * CHANCE


def summary_post_accuracies(cfg: ExperimentConfig, run_dir: Path) -> dict[str, list[float]]:
    """Each variant's ``post_acc`` in seed order, from ``run_experiment``'s ``summary.csv`` in ``run_dir``.

    The run must have logged no error and listed every cell of ``cfg``: each seed's base, then its sanity variants.
    """
    errors = run_dir / "errors.log"
    assert not errors.exists(), errors.read_text()
    rows = harness.read_summary(run_dir / "summary.csv")
    variants = [BASE_VARIANT] + [v.kind for v in cfg.sanity]
    assert [(int(row["seed"]), row["variant"]) for row in rows] == [(seed, v) for seed in cfg.seeds for v in variants]
    post = {variant: [] for variant in variants}
    for row in rows:
        post[row["variant"]].append(float(row["post_acc"]))
    return post


def test_criterion_5_sanity_gap(experiment_config, tmp_path):
    with criterion(5, "sanity gap", 20 * 60.0):
        margin = 0.02
        cfg = experiment_config("digits_gem")
        assert len(cfg.seeds) == 3 and [v.kind for v in cfg.sanity] == ["shuffle", "reinit", "invert"]
        post = summary_post_accuracies(cfg, harness.run_experiment(cfg, tmp_path))
        base_mean = np.mean(post[BASE_VARIANT])
        for variant in ("shuffle", "reinit", "invert"):
            assert base_mean >= np.mean(post[variant]) + margin, (
                f"{variant}: base {base_mean:.3f} vs {np.mean(post[variant]):.3f}"
            )


def test_criterion_6_ep_ablation_ordering(experiment_config, tmp_path):
    with criterion(6, "edge-popup ablation ordering", 15 * 60.0):
        post = {}
        for arm, scope, gradual in (("vanilla", LAYERWISE, "false"), ("improved", GLOBAL, "true")):
            lines = (f"ep.scope = {scope}", f"ep.gradual = {gradual}", f"run.id = ep_ablation_{arm}")
            cfg = experiment_config("ep_ablation", *lines)
            assert len(cfg.seeds) == 3 and cfg.sanity == []
            post[arm] = summary_post_accuracies(cfg, harness.run_experiment(cfg, tmp_path))[BASE_VARIANT]
        assert np.mean(post["improved"]) >= np.mean(post["vanilla"]) + 0.02


def test_criterion_7_gradient_correctness():
    with criterion(7, "gradient correctness", 10.0):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w1 = rng.standard_normal((3, 2))
            w2 = rng.standard_normal((3, 3))
            x = rng.standard_normal((4, 2))
            while np.min(np.abs(x @ w1.T)) < 1e-3:
                x = rng.standard_normal((4, 2))
            y = rng.integers(0, 3, size=4)

            w1_t = Tensor(w1, requires_grad=True)
            w2_t = Tensor(w2, requires_grad=True)
            loss = softmax_cross_entropy(linear(relu(linear(Tensor(x), w1_t)), w2_t), y)
            backward(loss)

            def loss_value(a1, a2):
                logits = np.maximum(x @ a1.T, 0.0) @ a2.T
                shifted = logits - logits.max(axis=1, keepdims=True)
                logp = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
                return float(-np.mean(logp[np.arange(4), y]))

            # the closed-form kernel the training loops use faces the same probe
            _, (k1, k2) = loss_and_grads(x, y, [w1, w2])

            h = 1e-5
            for arr, grads in ((w1, (w1_t.grad, k1)), (w2, (w2_t.grad, k2))):
                flat = arr.reshape(-1)
                numeric = np.zeros_like(flat)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = loss_value(w1, w2)
                    flat[i] = orig - h
                    down = loss_value(w1, w2)
                    flat[i] = orig
                    numeric[i] = (up - down) / (2 * h)
                denom = np.maximum(np.abs(numeric), 1e-6)
                for grad in grads:
                    assert np.max(np.abs(grad.reshape(-1) - numeric) / denom) < 1e-4

        # straight-through score gradients equal w*q times the effective-weight
        # gradient, exactly, on scalar probes (both sides of the threshold)
        for w, q, x, p in ((2.0, 1.0, 3.0, 0.7), (2.0, 1.0, 3.0, 0.2), (-1.5, 1.0, 4.0, 0.9), (2.0, 0.0, 3.0, 0.9)):
            leaf = Tensor(np.array(p), requires_grad=True)
            loss = mul(mul(Tensor(np.array(w * q)), ste_round(leaf)), Tensor(np.array(x)))
            backward(loss)
            grad = leaf.grad if leaf.grad is not None else np.zeros(())
            assert float(grad) == w * q * x


def test_criterion_8_conservation_and_determinism(blobs, tmp_path):
    with criterion(8, "conservation and determinism", 60.0):
        rng = np.random.default_rng(0)
        mask = [(rng.random((6, 8)) < 0.4).astype(float), (rng.random((4, 6)) < 0.6).astype(float)]
        shuffled = shuffle_mask(mask, seed=3)
        for before, after in zip(mask, shuffled):
            assert int(np.sum(before)) == int(np.sum(after))

        spec = NetworkSpec((2, 10, 2))
        layers = [
            MaskedLayer(weights=w, mask=round_scores(p), scores=p)
            for w, p in zip(init_weights(spec, "signed_constant", seed=0), init_scores(spec, seed=0))
        ]
        fresh = variant_network(layers, REINIT, 1, "signed_constant", [])
        for old, new in zip(layers, fresh):
            assert new.scores is None
            assert old.mask.tobytes() == new.mask.tobytes()
            assert old.weights.tobytes() != new.weights.tobytes()
            assert np.all(np.abs(new.weights) == layer_stddev(old.weights.shape[1]))

        scores = [rng.random((6, 8)), rng.random((4, 6))]
        inverted = invert_scores(scores, mask, [])
        for m, inv in zip(mask, inverted):
            assert int(np.sum(m)) == int(np.sum(inv))

        sched = SparsitySchedule(0.25, 4, 2)
        cfg = MinerConfig(lr=0.1, seed=5, batch_size=16)
        miners = [
            lambda: gem_mine(blobs, spec, sched, cfg),
            lambda: edge_popup(blobs, spec, sched, cfg, scope=GLOBAL, gradual=True),
            lambda: imp(blobs, spec, 2, 0.4, RewindSpec("cold"), 1, cfg),
            lambda: smart_ratio(spec, 0.3, "v1", seed=5, data=blobs),
        ]
        for run in miners:
            a, b = run(), run()
            for ma, mb in zip(a.mask, b.mask):
                assert ma.tobytes() == mb.tobytes()

        result = miners[0]()
        path_a, path_b = tmp_path / "a.tfmc", tmp_path / "b.tfmc"
        save_checkpoint(path_a, result.layers)
        save_checkpoint(path_b, load_checkpoint(path_a))
        assert path_a.read_bytes() == path_b.read_bytes()


def test_criterion_9_smart_ratio_construction():
    with criterion(9, "smart-ratio construction", 120.0):
        spec = NetworkSpec((30, 25, 20, 15, 10))
        v1 = smooth_ratios(spec, target_sparsity=0.3, last_layer_keep=0.3)
        interior = v1.ratios[:-1]
        assert all(b <= a for a, b in zip(interior, interior[1:]))
        assert v1.ratios[-1] == 0.3

        v3 = smart_ratio(spec, 0.3, "v3", seed=0)
        assert v3.layer_ratios.ratios[0] == 1.0
        assert v3.layer_ratios.ratios[-1] == 1.0

        data, weights = toy_one_useful_weight()
        start = LayerRatios((0.3, 0.7))
        before = enumerated_expected_loss(weights, start.ratios, data)
        improvements = []
        for seed in range(10):
            tuned = tune_ratios(start, weights, data, steps=30, lr=0.05, seed=seed)
            improvements.append(before - enumerated_expected_loss(weights, tuned.ratios, data))
        assert np.mean(improvements) > 0
        assert sum(1 for delta in improvements if delta > 0) >= 8
