import dataclasses
import struct
import tokenize
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gemmine import masking
from gemmine.checkpoint import MAGIC, load_checkpoint
from gemmine.masking import (
    SCALED_NORMAL,
    SIGNED_CONSTANT,
    MaskedLayer,
    NetworkSpec,
    SmallestSelector,
    extract_mask,
    init_scores,
    init_weights,
    layer_stddev,
    mask_sparsity,
    round_scores,
    select_smallest,
    select_smallest_across,
)


def test_round_boundary_is_kept():
    assert round_scores(np.array([0.5])).tolist() == [1.0]


def test_round_below_threshold():
    assert round_scores(np.array([0.499])).tolist() == [0.0]


def test_round_elementwise():
    assert round_scores(np.array([0.0, 1.0, 0.5, 0.49])).tolist() == [0.0, 1.0, 1.0, 0.0]


def _reader_layer(tmp_path, w, p, q):
    """The layer a TFMC v1 file with scores ``p`` and bitset ``q`` loads as."""
    w, p, q = (np.asarray(a, dtype=float) for a in (w, p, q))
    bits = np.packbits((q.reshape(-1) != 0.0).astype(np.uint8), bitorder="little").tobytes()
    payload = struct.pack("<II", *w.shape) + p.astype("<f4").tobytes() + bits + w.astype("<f4").tobytes()
    path = tmp_path / "layer.tfmc"
    path.write_bytes(MAGIC + struct.pack("<II", 1, 1) + payload)
    return load_checkpoint(path)[0]


def _masked(m):
    m = np.asarray(m, dtype=float)
    return MaskedLayer(weights=np.ones_like(m), mask=m)


# effective weights are weights * mask; a checkpoint's mask is round(scores) * bitset


def test_effective_weights_elementwise(tmp_path):
    layer = _reader_layer(tmp_path, [[2.0, -3.0]], [[0.7, 0.2]], [[1.0, 1.0]])
    assert (layer.weights * layer.mask).tolist() == [[2.0, 0.0]]


def test_effective_weights_freeze_dominates(tmp_path):
    layer = _reader_layer(tmp_path, [[2.0, -3.0]], [[0.9, 0.9]], [[0.0, 0.0]])
    assert (layer.weights * layer.mask).tolist() == [[0.0, 0.0]]


def test_effective_weights_mixed(tmp_path):
    layer = _reader_layer(tmp_path, [[1.0, 1.0]], [[0.9, 0.9]], [[1.0, 0.0]])
    assert (layer.weights * layer.mask).tolist() == [[1.0, 0.0]]


def test_global_sparsity_single_layer():
    mask = np.zeros((1, 10))
    mask[0, :3] = 1.0
    assert mask_sparsity(extract_mask([_masked(mask)])) == pytest.approx(0.3)


def test_global_sparsity_dense():
    assert mask_sparsity(extract_mask([_masked(np.ones((2, 5)))])) == 1.0


def test_global_sparsity_weighted_across_layers():
    a = _masked(np.concatenate([np.ones((1, 1)), np.zeros((1, 9))], axis=1))
    b_mask = np.zeros((9, 10))
    b_mask.reshape(-1)[:9] = 1.0
    assert mask_sparsity(extract_mask([a, _masked(b_mask)])) == pytest.approx(0.1)


def test_global_sparsity_rejects_empty_network():
    with pytest.raises(ValueError):
        mask_sparsity(extract_mask([]))


def test_network_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec((4, 3))  # no hidden layer
    with pytest.raises(ValueError):
        NetworkSpec((4, 0, 2))
    spec = NetworkSpec((4, 3, 2))
    assert spec.total_params == 4 * 3 + 3 * 2
    assert spec.layer_shapes == [(3, 4), (2, 3)]


def test_signed_constant_magnitude_exact():
    spec = NetworkSpec((2, 3, 2))
    weights = init_weights(spec, SIGNED_CONSTANT, seed=0)
    # fan_in=2 gives magnitude sqrt(2/2) = 1 exactly
    assert np.all(np.abs(weights[0]) == 1.0)
    assert np.all(np.abs(weights[1]) == layer_stddev(3))


def test_signed_constant_sign_balance():
    spec = NetworkSpec((100, 100, 10))
    for seed in (0, 1, 2):
        weights = init_weights(spec, SIGNED_CONSTANT, seed=seed)
        signs = np.sign(np.concatenate([w.reshape(-1) for w in weights]))
        assert abs(signs.mean()) < 0.05


def test_init_weights_deterministic():
    spec = NetworkSpec((5, 4, 3))
    a = init_weights(spec, SCALED_NORMAL, seed=9)
    b = init_weights(spec, SCALED_NORMAL, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = init_weights(spec, SCALED_NORMAL, seed=10)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_init_scores_range_and_mean():
    spec = NetworkSpec((100, 100, 10))
    scores = init_scores(spec, seed=4)
    flat = np.concatenate([p.reshape(-1) for p in scores])
    assert flat.min() >= 0.0 and flat.max() <= 1.0
    assert 0.45 < flat.mean() < 0.55
    # uniform scores land half the mask on each side of the rounding threshold
    density = round_scores(flat).mean()
    assert 0.45 < density < 0.55


def test_unknown_init_scheme():
    with pytest.raises(ValueError, match="scheme"):
        init_weights(NetworkSpec((2, 2, 2)), "xavier", seed=0)


def test_masked_layer_shape_validation():
    with pytest.raises(ValueError):
        MaskedLayer(weights=np.ones((2, 2)), mask=np.ones((2, 3)))
    with pytest.raises(ValueError):
        MaskedLayer(weights=np.ones((2, 2)), mask=np.ones((2, 2)), scores=np.ones((2, 3)))


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value= 10_000))
def test_mask_consistency_and_support(seed):
    rng = np.random.default_rng(seed)
    spec = NetworkSpec((3, 5, 2))
    weights = init_weights(spec, SIGNED_CONSTANT, seed=seed)
    scores = init_scores(spec, seed=seed)
    freeze = [(rng.random(p.shape) < 0.7).astype(float) for p in scores]
    layers = [MaskedLayer(weights=w, mask=round_scores(p) * f, scores=p) for w, p, f in zip(weights, scores, freeze)]
    mask = extract_mask(layers)
    # sparsity computed from the extracted mask counts the kept weights of the network
    assert mask_sparsity(mask) == sum(int(np.sum(l.mask)) for l in layers) / spec.total_params
    for layer, f, m in zip(layers, freeze, mask):
        eff = layer.weights * layer.mask
        support = eff != 0.0
        assert np.all(support <= (f != 0.0))
        assert np.all(support <= (round_scores(layer.scores) != 0.0))
        assert np.all(support <= (m != 0.0))


# ---------------------------------------------------------------------------
# select_smallest: the one "k best" selection, against the stable-sort oracle
# ---------------------------------------------------------------------------

SPECIAL_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan]


def _stable_sort_selection(values: np.ndarray, k: int) -> np.ndarray:
    chosen = np.zeros(values.size, dtype=bool)
    chosen[np.argsort(values, kind="stable")[: max(k, 0)]] = True
    return chosen


@st.composite
def _values_and_k(draw, elements):
    values = draw(hnp.arrays(np.float64, st.integers(min_value=0, max_value=40), elements=elements))
    n = values.size
    k = draw(st.one_of(st.sampled_from([0, 1, n - 1, n, n + 1, n + 7]), st.integers(min_value=-2, max_value=n + 2)))
    return values, k


# few distinct values: ties, mixed +0.0/-0.0, +-inf and NaN in every shape
tie_heavy = _values_and_k(st.sampled_from(SPECIAL_VALUES))
any_float = _values_and_k(st.floats(allow_nan=True, allow_infinity=True, width=64))


@settings(max_examples=300, deadline=None)
@given(tie_heavy)
def test_select_smallest_matches_stable_sort_on_ties(case):
    values, k = case
    chosen = select_smallest(values, k)
    assert chosen.dtype == bool and chosen.shape == values.shape
    np.testing.assert_array_equal(chosen, _stable_sort_selection(values, k))


@settings(max_examples=300, deadline=None)
@given(any_float)
def test_select_smallest_matches_stable_sort_on_any_floats(case):
    values, k = case
    np.testing.assert_array_equal(select_smallest(values, k), _stable_sort_selection(values, k))


@settings(max_examples=200, deadline=None)
@given(tie_heavy)
def test_select_smallest_of_negated_scores_is_stable_top_k(case):
    # topk_mask's form: the k largest scores, equal scores lowest index first
    scores, k = case
    expected = np.zeros(scores.size, dtype=bool)
    expected[np.argsort(-scores, kind="stable")[: max(k, 0)]] = True
    np.testing.assert_array_equal(select_smallest(-scores, k), expected)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SPECIAL_VALUES), st.integers(min_value=1, max_value=30), st.data())
def test_select_smallest_all_equal_takes_lowest_indices(value, n, data):
    k = data.draw(st.integers(min_value=-1, max_value=n + 1))
    chosen = select_smallest(np.full(n, value), k)
    np.testing.assert_array_equal(np.flatnonzero(chosen), np.arange(min(max(k, 0), n)))


def test_select_smallest_examples():
    values = np.array([0.0, -0.0, np.nan, -np.inf, 0.0, np.inf, np.nan])
    assert np.flatnonzero(select_smallest(values, 2)).tolist() == [0, 3]
    assert np.flatnonzero(select_smallest(values, 4)).tolist() == [0, 1, 3, 4]
    assert np.flatnonzero(select_smallest(values, 6)).tolist() == [0, 1, 2, 3, 4, 5]
    assert not select_smallest(values, 0).any() and select_smallest(values, 99).all()
    assert select_smallest(np.zeros(0), 3).shape == (0,)


@st.composite
def _layers_and_k(draw):
    shapes = st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
    elements = st.sampled_from(SPECIAL_VALUES)
    layers = draw(st.lists(hnp.arrays(np.float64, shapes, elements=elements), min_size=1, max_size=4))
    n = sum(layer.size for layer in layers)
    return layers, draw(st.integers(min_value=-1, max_value=n + 1))


@settings(max_examples=300, deadline=None)
@given(_layers_and_k())
def test_select_smallest_across_is_the_stable_sort_of_the_concatenation(case):
    layers, k = case
    chosen = select_smallest_across(layers, k)
    expected = _stable_sort_selection(np.concatenate([layer.reshape(-1) for layer in layers]), k)
    bounds = np.cumsum([layer.size for layer in layers])[:-1]
    assert len(chosen) == len(layers)
    for got, want, layer in zip(chosen, np.split(expected, bounds), layers):
        assert got.dtype == bool and got.shape == layer.shape
        np.testing.assert_array_equal(got.reshape(-1), want)


def test_select_smallest_across_never_chooses_inf_within_the_finite_count():
    layers = [np.array([[np.inf, 3.0], [1.0, np.inf]]), np.array([np.inf, 1.0, 2.0]), np.full((2, 2), np.inf)]
    for k in range(5):
        chosen = select_smallest_across(layers, k)
        assert sum(int(c.sum()) for c in chosen) == k
        assert not any(np.any(c & np.isinf(layer)) for c, layer in zip(chosen, layers))
    # equal values: the earlier layer first
    assert [c.tolist() for c in select_smallest_across(layers, 1)[:2]] == [[[False, False], [True, False]], [False, False, False]]


@st.composite
def _selection_runs(draw):
    """1-3 arrays, a window margin, and the steps of a run: a perturbation scale, a k and a noise seed each."""
    shapes = st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
    tie_heavy = draw(st.booleans())
    elements = st.sampled_from(SPECIAL_VALUES) if tie_heavy else st.floats(-1.0, 1.0)
    layers = draw(st.lists(hnp.arrays(np.float64, shapes, elements=elements), min_size=1, max_size=3))
    n = sum(layer.size for layer in layers)
    ks = st.one_of(st.sampled_from([0, 1, n - 1, n]), st.integers(min_value=0, max_value=n))
    # 0 keeps the values, 10 moves them by more than their spread
    scales = st.sampled_from([0.0, 1e-3, 0.05, 10.0])
    steps = draw(st.lists(st.tuples(scales, ks, st.integers(0, 2**32 - 1)), min_size=1, max_size=8))
    return layers, tie_heavy, draw(st.sampled_from([1, 2, 8, SmallestSelector.MARGIN])), steps


def test_smallest_selector_matches_the_full_selection_over_perturbed_runs():
    paths = Counter()

    @settings(max_examples=300, deadline=None)
    @given(_selection_runs())
    def check(run):
        layers, tie_heavy, margin, steps = run
        selector = SmallestSelector()
        selector.MARGIN = margin
        for scale, k, seed in steps:
            noise = np.random.default_rng(seed)
            layers = [layer + scale * noise.standard_normal(layer.shape) for layer in layers]
            if tie_heavy:
                layers = [np.round(layer * 4.0) / 4.0 for layer in layers]  # moved values still tie
            chosen = selector(layers, k)
            want = select_smallest_across(layers, k)
            if len(layers) == 1:
                assert want[0].tobytes() == select_smallest(layers[0].reshape(-1), k).tobytes()
            for got, expected, layer in zip(chosen, want, layers):
                assert got.dtype == bool and got.shape == layer.shape
                np.testing.assert_array_equal(got, expected)
        paths["window"] += selector.window_calls
        paths["fallback"] += selector.fallback_calls
        assert selector.window_calls + selector.fallback_calls == len(steps)

    check()
    assert paths["window"] > 0 and paths["fallback"] > 0, paths


def test_smallest_selector_takes_the_window_while_values_move_little():
    rng = np.random.default_rng(3)
    layers = [rng.random((40, 30)), rng.random(200)]
    selector = SmallestSelector()
    for _ in range(6):
        layers = [layer + 1e-4 * rng.standard_normal(layer.shape) for layer in layers]
        for got, want in zip(selector(layers, 70), select_smallest_across(layers, 70)):
            assert got.tobytes() == want.tobytes()
    assert (selector.fallback_calls, selector.window_calls) == (1, 5)
    selector(layers, 700)  # the k-th smallest moves far out of the window
    assert selector.fallback_calls == 2


def test_smallest_selector_chooses_none_or_all_without_a_partition(monkeypatch):
    def no_partition(values, k):
        raise AssertionError(f"select_smallest_across called with k={k}")

    monkeypatch.setattr(masking, "select_smallest_across", no_partition)
    layers = [np.arange(6.0).reshape(2, 3), np.array([0.5, -1.0])]
    selector = SmallestSelector()
    for k, want in ((0, False), (8, True), (-1, False), (9, True)):
        chosen = selector(layers, k)
        assert [(c.dtype, c.shape) for c in chosen] == [(np.dtype(bool), (2, 3)), (np.dtype(bool), (2,))]
        assert all(np.all(c == want) for c in chosen), k
    assert (selector.fallback_calls, selector.window_calls) == (4, 0)


def test_no_miner_concatenates_layers():
    """Cross-layer selection goes through select_smallest_across; no miner flattens the layers itself."""
    miners = Path(__file__).resolve().parents[1] / "src" / "gemmine" / "miners"
    offenders = []
    for path in sorted(miners.rglob("*.py")):
        with open(path, "rb") as f:
            tokens = tokenize.tokenize(f.readline)
            offenders += [f"{path.name}:{t.start[0]}" for t in tokens if t.type == tokenize.NAME and t.string == "concatenate"]
    assert offenders == []


def test_no_full_sort_copy_in_the_package():
    """Every "k best" selection goes through select_smallest; no module's code sorts to select."""
    package = Path(__file__).resolve().parents[1] / "src" / "gemmine"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        with open(path, "rb") as f:
            # names only, so docstrings and comments may still mention a sort
            names = [(t.string, t.start[0]) for t in tokenize.tokenize(f.readline) if t.type == tokenize.NAME]
        for (prev, _), (name, line) in zip([("", 0)] + names, names):
            if name in ("argsort", "lexsort") or (name == "sort" and prev in ("np", "numpy")):
                offenders.append(f"{path.relative_to(package)}:{line}: {name}")
    assert offenders == []


def test_freeze_state_stays_inside_gem_mine():
    """A layer is weights + mask: only miners/gem.py handles a freeze array."""
    assert "freeze" not in {f.name for f in dataclasses.fields(MaskedLayer)}
    package = Path(__file__).resolve().parents[1] / "src" / "gemmine"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package) == Path("miners", "gem.py"):
            continue
        with open(path, "rb") as f:
            # whole NAME tokens only: docstrings, strings and freeze_period do not count
            tokens = tokenize.tokenize(f.readline)
            offenders += [f"{path.relative_to(package)}:{t.start[0]}" for t in tokens if t.type == tokenize.NAME and t.string == "freeze"]
    assert offenders == []
