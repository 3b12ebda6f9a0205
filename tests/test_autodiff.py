import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemmine.autodiff import (
    Tensor,
    abs_all,
    add,
    backward,
    linear,
    mul,
    relu,
    scale,
    softmax_cross_entropy,
    ste_round,
    ste_substitute,
    sum_all,
)
from gemmine.masking import mlp_forward


def test_relu_linear_hand_example():
    w = Tensor(np.array([[1.0, -1.0]]))
    x = Tensor(np.array([[2.0, 3.0]]))
    out = relu(linear(x, w))
    assert out.data.tolist() == [[0.0]]


def test_identity_graph():
    w = Tensor(np.eye(1))
    x = Tensor(np.array([[5.0]]))
    assert linear(x, w).data.tolist() == [[5.0]]


def test_zero_weights_give_zero_logits():
    x = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
    logits = mlp_forward(x, [Tensor(np.zeros((5, 3))), Tensor(np.zeros((2, 5)))])
    assert np.all(logits.data == 0.0)


def test_backward_hand_chain_rule():
    # 0.5 * (w*x - y)^2 at w=1, x=2, y=0 has dloss/dw = 4
    w = Tensor(np.array(1.0), requires_grad=True)
    diff = add(mul(w, Tensor(np.array(2.0))), Tensor(np.array(-0.0)))
    loss = scale(mul(diff, diff), 0.5)
    backward(loss)
    assert w.grad == pytest.approx(4.0, abs=0.0)


def test_constant_loss_gives_zero_gradients():
    w = Tensor(np.ones(3), requires_grad=True)
    loss = sum_all(mul(Tensor(np.ones(3)), Tensor(np.full(3, 2.0))))
    backward(loss)
    assert w.grad is None  # never reached by the graph


def test_backward_requires_scalar():
    w = Tensor(np.ones(3), requires_grad=True)
    out = mul(w, w)
    with pytest.raises(ValueError, match="scalar"):
        backward(out)


def test_linear_shape_error_names_node():
    with pytest.raises(ValueError, match="linear"):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def test_add_shape_error():
    with pytest.raises(ValueError, match="add"):
        add(Tensor(np.ones(2)), Tensor(np.ones(3)))


def _finite_difference(f, arrays, h=1e-5):
    """Central-difference gradient of scalar f with respect to each array."""
    grads = []
    for k, a in enumerate(arrays):
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f(arrays)
            flat[i] = orig - h
            down = f(arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def test_gradient_of_mixed_ops_matches_finite_differences():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(5)

    def f(arrays):
        (a,) = arrays
        return float(np.sum(np.abs(a)) + np.sum(a * a) * 0.25)

    t = Tensor(v.copy(), requires_grad=True)
    loss = add(sum_all(abs_all(t)), scale(sum_all(mul(t, t)), 0.25))
    backward(loss)
    numeric = _finite_difference(f, [v.copy()])[0]
    assert np.max(np.abs(t.grad - numeric)) < 1e-6


def test_ste_round_forward_and_passthrough():
    p = Tensor(np.array([0.7]), requires_grad=True)
    out = ste_round(p)
    assert out.data.tolist() == [1.0]
    loss = scale(sum_all(out), 3.5)
    backward(loss)
    assert p.grad.tolist() == [3.5]


def test_ste_backward_equals_identity_on_rounded_values():
    # gradient at the scores == gradient a plain leaf holding round(scores) gets
    rng = np.random.default_rng(11)
    scores = rng.random((3, 4))
    wq = rng.standard_normal((3, 4))
    x = rng.standard_normal((2, 4))
    y = np.array([0, 2])

    p = Tensor(scores, requires_grad=True)
    loss = softmax_cross_entropy(linear(Tensor(x), mul(Tensor(wq), ste_round(p))), y)
    backward(loss)

    rounded_leaf = Tensor((scores >= 0.5).astype(float), requires_grad=True)
    loss_ref = softmax_cross_entropy(linear(Tensor(x), mul(Tensor(wq), rounded_leaf)), y)
    backward(loss_ref)

    np.testing.assert_array_equal(p.grad, rounded_leaf.grad)


def test_ste_substitute_shape_check():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="ste_substitute"):
        ste_substitute(p, np.ones(3))


def _forward_backward_bits(seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    w1 = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    w2 = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    x = Tensor(rng.standard_normal((5, 4)))
    y = rng.integers(0, 3, size=5)
    loss = softmax_cross_entropy(linear(relu(linear(x, w1)), w2), y)
    backward(loss)
    return loss.data.tobytes() + w1.grad.tobytes() + w2.grad.tobytes()


def test_forward_backward_deterministic():
    assert _forward_backward_bits(123) == _forward_backward_bits(123)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_graphs_stay_finite(seed):
    rng = np.random.default_rng(seed)
    w1 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w2 = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    x = Tensor(rng.standard_normal((3, 3)) * 10.0)
    y = rng.integers(0, 2, size=3)
    loss = softmax_cross_entropy(linear(relu(linear(x, w1)), w2), y)
    backward(loss)
    assert np.isfinite(loss.data)
    assert np.all(np.isfinite(w1.grad)) and np.all(np.isfinite(w2.grad))


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor(np.array([[0.0, -1.0, 2.0]]), requires_grad=True)
    loss = sum_all(relu(x))
    backward(loss)
    assert x.grad.tolist() == [[0.0, 0.0, 1.0]]
