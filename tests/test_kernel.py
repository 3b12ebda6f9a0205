"""The closed-form loss-and-gradient kernel against the autodiff graph.

Every training loop computes its gradients with ``masking.loss_and_grads``
plus one elementwise product; ``gemmine.autodiff`` is the reference those
products must reproduce bit for bit.
"""

import numpy as np
import pytest

import gemmine.autodiff as autodiff
from gemmine.autodiff import (
    Tensor,
    abs_all,
    add,
    backward,
    mul,
    scale,
    softmax_cross_entropy,
    ste_round,
    ste_substitute,
    sum_all,
)
from gemmine.data import float_features
from gemmine.masking import NetworkSpec, loss_and_grads, mlp_activations, mlp_forward, round_scores
from gemmine.miners.common import L1, L2, LayerRatios, MinerConfig, SparsitySchedule, score_loss_and_grads
from gemmine.miners.edge_popup import GLOBAL, edge_popup
from gemmine.miners.gem import gem_mine
from gemmine.miners.imp import RewindSpec, imp
from gemmine.miners.smart_ratio import smart_ratio
from gemmine.trainer import TrainConfig, evaluate, finetune

FORMS = ("gem", "edge_popup", "weights", "ratios")
PENALTY_WEIGHT = 0.37


def _bits(a) -> bytes:
    # The graph accumulates each leaf gradient into a zero array, which turns
    # -0.0 into +0.0; the kernel's products keep the sign of a zero factor.
    # Adding +0.0 maps -0.0 to +0.0 and leaves every other value unchanged,
    # and no optimizer step can tell the two zeros apart.
    return (np.asarray(a, dtype=np.float64) + 0.0).tobytes()


def _case(depth: int, form: str, seed: int):
    """A batch, per-layer leaf values, and the (base, binary) pair of one gradient form.

    Every form's effective weights are ``base * binary`` and its leaf
    gradient is d(loss)/d(effective weight) * base.
    """
    rng = np.random.default_rng(seed)
    widths = (5, 7, 4) if depth == 2 else (5, 7, 6, 4)
    shapes = [(o, i) for i, o in zip(widths, widths[1:])]
    x = rng.standard_normal((9, widths[0]))
    y = rng.integers(0, widths[-1], size=9)
    w = [rng.standard_normal(s) for s in shapes]
    if form == "gem":
        freeze = [(rng.random(s) < 0.7).astype(np.float64) for s in shapes]
        scores = [rng.random(s) * f for s, f in zip(shapes, freeze)]  # frozen scores are zeroed
        base = [wi * f for wi, f in zip(w, freeze)]
        return x, y, scores, base, [round_scores(p) for p in scores]
    masks = [(rng.random(s) < 0.6).astype(np.float64) for s in shapes]
    if form == "edge_popup":
        return x, y, [rng.standard_normal(s) for s in shapes], w, masks
    if form == "weights":
        return x, y, w, masks, w
    return x, y, masks, w, masks  # ratios: the leaves are the sampled masks


def _graph_loss(form, x, y, leaves, base, binary, penalty):
    if form == "gem":
        eff = [mul(Tensor(b), ste_round(leaf)) for b, leaf in zip(base, leaves)]
    elif form == "edge_popup":
        eff = [mul(Tensor(b), ste_substitute(leaf, m)) for b, leaf, m in zip(base, leaves, binary)]
    elif form == "weights":
        eff = [mul(leaf, Tensor(m)) for leaf, m in zip(leaves, base)]
    else:
        eff = [mul(Tensor(b), leaf) for b, leaf in zip(base, leaves)]
    loss = softmax_cross_entropy(mlp_forward(Tensor(x), eff), y)
    if penalty is None:
        return loss
    terms = None
    for leaf in leaves:
        term = sum_all(abs_all(leaf)) if penalty == L1 else sum_all(mul(leaf, leaf))
        terms = term if terms is None else add(terms, term)
    return add(loss, scale(terms, PENALTY_WEIGHT))


@pytest.mark.parametrize("penalty", [None, L2, L1])
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("depth", [2, 3])
def test_kernel_matches_graph_bitwise(depth, form, penalty):
    for seed in range(5):
        x, y, values, base, binary = _case(depth, form, seed)
        hidden = mlp_activations(x, [b * m for b, m in zip(base, binary)])[1:-1]
        assert any(np.any(h == 0.0) for h in hidden)  # the ReLU backward masks something

        leaves = [Tensor(v.copy(), requires_grad=True) for v in values]
        graph_loss = _graph_loss(form, x, y, leaves, base, binary, penalty)
        backward(graph_loss)

        config = MinerConfig(reg_weight=0.0 if penalty is None else PENALTY_WEIGHT, regularizer=penalty or L2)
        effective = [b * m for b, m in zip(base, binary)]
        loss, grads = score_loss_and_grads(x, y, effective, base, values, config, [np.empty_like(v) for v in values])

        assert np.float64(loss).tobytes() == graph_loss.data.tobytes()
        for grad, leaf in zip(grads, leaves):
            assert _bits(grad) == _bits(leaf.grad)
            # tune_ratios steps each layer's keep ratio by the summed gradient
            assert float(np.sum(grad)) == float(np.sum(leaf.grad))


def test_kernel_effective_weight_gradients_match_graph_bitwise():
    rng = np.random.default_rng(8)
    for widths in ((3, 4, 2), (6, 5, 4, 3), (784, 128, 10)):
        weights = [rng.standard_normal((o, i)) * 0.1 for i, o in zip(widths, widths[1:])]
        x = rng.standard_normal((32, widths[0]))
        y = rng.integers(0, widths[-1], size=32)
        leaves = [Tensor(w, requires_grad=True) for w in weights]
        graph_loss = softmax_cross_entropy(mlp_forward(Tensor(x), leaves), y)
        backward(graph_loss)
        loss, grads = loss_and_grads(x, y, weights)
        assert np.float64(loss).tobytes() == graph_loss.data.tobytes()
        for grad, leaf in zip(grads, leaves):
            assert _bits(grad) == _bits(leaf.grad)


def test_kernel_forward_matches_graph_forward():
    rng = np.random.default_rng(9)
    weights = [rng.standard_normal((7, 5)), rng.standard_normal((6, 7)), rng.standard_normal((3, 6))]
    x = rng.standard_normal((11, 5))
    logits = mlp_forward(Tensor(x), [Tensor(w) for w in weights]).data
    assert mlp_activations(x, weights)[-1].tobytes() == logits.tobytes()


@pytest.mark.parametrize("bad", [-1, 3])
def test_kernel_rejects_labels_outside_outputs(bad):
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((4, 2)), rng.standard_normal((3, 4))]
    with pytest.raises(ValueError, match="label outside"):
        loss_and_grads(rng.standard_normal((2, 2)), np.array([0, bad]), weights)


def test_kernel_rejects_label_count_mismatch():
    weights = [np.ones((4, 2)), np.ones((3, 4))]
    with pytest.raises(ValueError, match="incompatible"):
        loss_and_grads(np.ones((2, 2)), np.array([0, 1, 2]), weights)


def test_kernel_reads_pixel_rows_as_their_scaled_floats():
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(24, 6), dtype=np.uint8)
    labels = rng.integers(0, 3, size=24)
    weights = [rng.standard_normal((5, 6)), rng.standard_normal((3, 5))]
    floats = float_features(pixels)
    assert [a.tobytes() for a in mlp_activations(pixels, weights)] == [a.tobytes() for a in mlp_activations(floats, weights)]
    (loss_p, grads_p), (loss_f, grads_f) = loss_and_grads(pixels, labels, weights), loss_and_grads(floats, labels, weights)
    assert loss_p == loss_f and [g.tobytes() for g in grads_p] == [g.tobytes() for g in grads_f]
    assert evaluate(weights, pixels, labels) == evaluate(weights, floats, labels)


@pytest.mark.parametrize("dtype", [np.int64, np.bool_])
def test_kernel_rejects_integer_features(dtype):
    # unscaled pixels would train silently on values up to 255
    weights = [np.ones((4, 2)), np.ones((3, 4))]
    features = np.ones((2, 2), dtype=dtype)
    for call in (lambda: mlp_activations(features, weights), lambda: loss_and_grads(features, np.array([0, 1]), weights)):
        with pytest.raises(ValueError, match="features must be uint8 pixels or floating point") as raised:
            call()
        assert raised.traceback[-1].name == "float_features"


def test_training_loops_build_no_graph(blobs, monkeypatch):
    def no_graph(self, *args, **kwargs):
        raise AssertionError("a training loop built an autodiff graph node")

    monkeypatch.setattr(autodiff.Tensor, "__init__", no_graph)
    with pytest.raises(AssertionError, match="graph node"):
        Tensor(np.zeros(1))

    spec = NetworkSpec((2, 8, 2))
    sched = SparsitySchedule(0.3, 4, 2)
    for regularizer in (L2, L1):
        gem_mine(blobs, spec, sched, MinerConfig(reg_weight=1e-3, regularizer=regularizer, batch_size=16))
    edge_popup(blobs, spec, sched, MinerConfig(batch_size=16), scope=GLOBAL, gradual=True)
    pruned = imp(blobs, spec, 2, 0.4, RewindSpec("cold"), 1, MinerConfig(batch_size=16))
    smart_ratio(spec, 0.4, "v6", seed=0, data=blobs, imp_profile=LayerRatios((0.5, 0.5)), tune_steps=3)
    finetune(pruned.weights, pruned.mask, blobs, TrainConfig(epochs=2, batch_size=16))
