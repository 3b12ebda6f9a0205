"""The in-place optimizer steps against their plain-expression form, bit for bit, and their allocations."""

import math
import tracemalloc

import numpy as np
import pytest

from gemmine.optim import Adam, SgdMomentum, make_optimizer


def _params(rng, shapes):
    """Random parameters with +0.0 and -0.0 entries among them."""
    out = []
    for shape in shapes:
        p = rng.standard_normal(shape)
        flat = p.reshape(-1)
        flat[::7] = 0.0
        flat[3::7] = -0.0
        out.append(p)
    return out


def _grads(rng, params):
    grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2) for p in params]
    for g in grads:
        g.reshape(-1)[5::11] = -0.0  # a frozen score's gradient
    return grads


def _reference_sgd_step(params, grads, buffers, momentum, lr):
    for p, g, buf in zip(params, grads, buffers):
        buf *= momentum
        buf += g
        p -= lr * buf


def _reference_adam_step(params, grads, ms, vs, t, spec, lr):
    b1, b2, eps = spec.beta1, spec.beta2, spec.eps
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, ms, vs):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


SHAPES = [(7, 5), (3, 7), (13,)]
LRS = [0.1, 0.37, 3e-4]


@pytest.mark.parametrize("momentum", [0.0, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("lr", LRS)
def test_sgd_step_has_the_bits_of_its_expressions(momentum, lr):
    rng = np.random.default_rng([1, int(momentum * 100), int(lr * 1e4)])
    params = _params(rng, SHAPES)
    ref = [p.copy() for p in params]
    ref_buffers = [np.zeros_like(p) for p in params]
    optimizer = make_optimizer(SgdMomentum(momentum), params)
    for _ in range(6):
        grads = _grads(rng, params)
        _reference_sgd_step(ref, [g.copy() for g in grads], ref_buffers, momentum, lr)
        optimizer.step(params, grads, lr)
        for got, want in zip(params + optimizer.buffers, ref + ref_buffers):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("betas", [(0.9, 0.999), (0.5, 0.9), (0.0, 0.0), (0.99, 0.5)])
@pytest.mark.parametrize("lr", LRS)
@pytest.mark.parametrize("eps", [1e-8, 0.5])
def test_adam_step_has_the_bits_of_its_expressions(betas, lr, eps):
    spec = Adam(*betas, eps=eps)
    rng = np.random.default_rng([2, int(betas[0] * 100), int(betas[1] * 1000), int(lr * 1e4), int(eps * 10)])
    params = _params(rng, SHAPES)
    ref = [p.copy() for p in params]
    ref_m = [np.zeros_like(p) for p in params]
    ref_v = [np.zeros_like(p) for p in params]
    optimizer = make_optimizer(spec, params)
    for t in range(1, 7):
        grads = _grads(rng, params)
        _reference_adam_step(ref, [g.copy() for g in grads], ref_m, ref_v, t, spec, lr)
        optimizer.step(params, grads, lr)
        for got, want in zip(params + optimizer.m + optimizer.v, ref + ref_m + ref_v):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [SgdMomentum(), Adam()], ids=["sgd", "adam"])
def test_a_step_allocates_no_parameter_sized_array(spec):
    # 784-128-10's first layer: the step writes its temporaries into the spent gradient
    param = np.random.default_rng(3).standard_normal(100_352)
    optimizer = make_optimizer(spec, [param])
    for _ in range(2):
        grad = np.random.default_rng(4).standard_normal(param.size)
        tracemalloc.start()
        try:
            optimizer.step([param], [grad], 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < param.nbytes / 4


def test_adam_rejects_an_infinite_eps():
    # the config reader rejects 'inf' before it builds an Adam; a library caller reaches this check
    with pytest.raises(ValueError, match="^adam eps must be finite, got inf$"):
        Adam(eps=math.inf)


def test_make_optimizer_rejects_an_unknown_choice():
    with pytest.raises(ValueError, match="^unknown optimizer choice 'sgd'$"):
        make_optimizer("sgd", [np.zeros(3)])
