import ast
import dataclasses
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gemmine import masking
from gemmine.checkpoint import load_checkpoint, save_checkpoint
from gemmine.masking import (
    SCALED_NORMAL,
    SIGNED_CONSTANT,
    LargestSelector,
    MaskedLayer,
    NetworkSpec,
    as_mask,
    extract_mask,
    init_scores,
    init_weights,
    layer_stddev,
    mask_sparsity,
    round_scores,
    select_smallest,
    select_smallest_across,
)
from gemmine.miners.common import MinerConfig, SparsitySchedule
from gemmine.miners.edge_popup import GLOBAL, LAYERWISE, edge_popup, topk_mask
from gemmine.miners.gem import gem_mine
from gemmine.miners.imp import RewindSpec, imp
from gemmine.miners.smart_ratio import smart_ratio
from gemmine.sanity import invert_scores, shuffle_mask
from source_sites import PACKAGE, modules, names, sites


def test_round_boundary_is_kept():
    assert round_scores(np.array([0.5])).tolist() == [1.0]


def test_round_below_threshold():
    assert round_scores(np.array([0.499])).tolist() == [0.0]


def test_round_elementwise():
    assert round_scores(np.array([0.0, 1.0, 0.5, 0.49])).tolist() == [0.0, 1.0, 1.0, 0.0]


def _masked(m):
    m = np.asarray(m, dtype=float)
    return MaskedLayer(weights=np.ones_like(m), mask=m)


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


def test_as_mask_passes_booleans_through_and_converts_0_1_numbers():
    bits = np.array([[True, False], [False, True]])
    assert as_mask(bits) is bits
    for numbers in (np.array([[1, 0], [0, 1]]), np.array([[1.0, -0.0], [0.0, 1.0]]), [[1, 0], [0, 1]]):
        m = as_mask(numbers)
        assert m.dtype == np.bool_ and m.tobytes() == bits.tobytes()


@pytest.mark.parametrize("bad", [0.5, 2, np.nan])
def test_as_mask_rejects_an_entry_other_than_0_or_1(bad):
    with pytest.raises(ValueError, match="^mask entries must be 0 or 1$"):
        as_mask(np.array([0.0, 1.0, bad]))


def _mined(data, how):
    spec = NetworkSpec((2, 8, 2))
    cfg = MinerConfig(lr=0.1, seed=3, batch_size=16)
    if how == "gem":
        return gem_mine(data, spec, SparsitySchedule(0.3, 2, 1), cfg)
    if how.startswith("ep_"):
        return edge_popup(data, spec, SparsitySchedule(0.3, 2, 1), cfg, scope=how[3:])
    if how == "imp":
        return imp(data, spec, rounds=2, prune_rate=0.3, rewind=RewindSpec("cold"), epochs_per_round=1, config=cfg)
    return smart_ratio(spec, 0.3, "v1", seed=3, data=data)


MASK_PRODUCERS = {
    "gem_mine": lambda data, tmp: _mined(data, "gem").mask,
    "edge_popup_layerwise": lambda data, tmp: _mined(data, f"ep_{LAYERWISE}").mask,
    "edge_popup_global": lambda data, tmp: _mined(data, f"ep_{GLOBAL}").mask,
    "imp_mask": lambda data, tmp: _mined(data, "imp").mask,
    "imp_round_masks": lambda data, tmp: [m for masks in _mined(data, "imp").round_masks for m in masks],
    "smart_ratio": lambda data, tmp: _mined(data, "sr").mask,
    "shuffle_mask": lambda data, tmp: shuffle_mask(_mined(data, "gem").mask, seed=1),
    "invert_scores": lambda data, tmp: _inverted(_mined(data, "gem")),
    "load_checkpoint_scored": lambda data, tmp: _reloaded(tmp, _mined(data, "gem").layers),
    "load_checkpoint_scoreless": lambda data, tmp: _reloaded(tmp, _mined(data, "sr").layers),
}


def _inverted(result):
    return invert_scores([l.scores for l in result.layers], result.mask, [])


def _reloaded(tmp, layers):
    save_checkpoint(tmp / "a.tfmc", layers)
    return extract_mask(load_checkpoint(tmp / "a.tfmc"))


@pytest.mark.parametrize("producer", sorted(MASK_PRODUCERS))
def test_every_public_mask_producer_returns_boolean_masks(blobs, tmp_path, producer):
    masks = MASK_PRODUCERS[producer](blobs, tmp_path)
    assert masks and [m.dtype for m in masks] == [np.dtype(bool)] * len(masks)


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
def _layers_eligible_and_k(draw):
    shapes = st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
    layers = draw(st.lists(hnp.arrays(np.float64, shapes, elements=st.sampled_from(SPECIAL_VALUES)), min_size=1, max_size=4))
    eligible = [draw(hnp.arrays(np.bool_, layer.shape)) for layer in layers]
    n = sum(int(np.count_nonzero(e)) for e in eligible)
    return layers, eligible, draw(st.integers(min_value=-1, max_value=n + 1))


@settings(max_examples=300, deadline=None)
@given(_layers_eligible_and_k())
def test_select_smallest_across_ranks_only_the_eligible_entries(case):
    """With ``eligible``, the choice is the stable sort of the eligible entries alone, taken in (layer, flat index) order."""
    layers, eligible, k = case
    chosen = select_smallest_across((layer for layer in layers), k, eligible=eligible)  # read once, so a generator will do
    expected = _stable_sort_selection(np.concatenate([layer[e] for layer, e in zip(layers, eligible)]), k)
    assert [(c.dtype, c.shape) for c in chosen] == [(np.dtype(bool), layer.shape) for layer in layers]
    assert not any(np.any(c & ~e) for c, e in zip(chosen, eligible))
    np.testing.assert_array_equal(np.concatenate([c[e] for c, e in zip(chosen, eligible)]), expected)


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
    return layers, tie_heavy, draw(st.sampled_from([1, 2, 8, LargestSelector.MARGIN])), steps


def test_largest_selector_matches_the_full_selection_over_perturbed_runs():
    paths = Counter()

    @settings(max_examples=300, deadline=None)
    @given(_selection_runs())
    def check(run):
        layers, tie_heavy, margin, steps = run
        selector = LargestSelector()
        selector.MARGIN = margin
        for scale, k, seed in steps:
            noise = np.random.default_rng(seed)
            layers = [layer + scale * noise.standard_normal(layer.shape) for layer in layers]
            if tie_heavy:
                layers = [np.round(layer * 4.0) / 4.0 for layer in layers]  # moved values still tie
            chosen = selector(layers, k)
            want = select_smallest_across([-layer for layer in layers], k)
            if len(layers) == 1:
                assert want[0].tobytes() == select_smallest(-layers[0].reshape(-1), k).tobytes()
            for got, expected, layer in zip(chosen, want, layers):
                assert got.dtype == bool and got.shape == layer.shape
                np.testing.assert_array_equal(got, expected)
        paths["window"] += selector.window_calls
        paths["fallback"] += selector.fallback_calls
        assert selector.window_calls + selector.fallback_calls == len(steps)

    check()
    assert paths["window"] > 0 and paths["fallback"] > 0, paths


def test_largest_selector_takes_the_window_while_values_move_little():
    rng = np.random.default_rng(3)
    layers = [rng.random((40, 30)), rng.random(200)]
    selector = LargestSelector()
    for _ in range(6):
        layers = [layer + 1e-4 * rng.standard_normal(layer.shape) for layer in layers]
        for got, want in zip(selector(layers, 70), select_smallest_across([-layer for layer in layers], 70)):
            assert got.tobytes() == want.tobytes()
    assert (selector.fallback_calls, selector.window_calls) == (1, 5)
    selector(layers, 700)  # the k-th largest moves far out of the window
    assert selector.fallback_calls == 2


def test_largest_selector_chooses_none_or_all_without_a_partition(monkeypatch):
    def no_partition(values, k):
        raise AssertionError(f"select_smallest called with k={k}")

    monkeypatch.setattr(masking, "select_smallest", no_partition)
    layers = [np.arange(6.0).reshape(2, 3), np.array([0.5, -1.0])]
    selector = LargestSelector()
    for k, want in ((0, False), (8, True), (-1, False), (9, True)):
        chosen = selector(layers, k)
        assert [(c.dtype, c.shape) for c in chosen] == [(np.dtype(bool), (2, 3)), (np.dtype(bool), (2,))]
        assert all(np.all(c == want) for c in chosen), k
    assert (selector.fallback_calls, selector.window_calls) == (4, 0)


@st.composite
def _recentre_cases(draw):
    """Negated values with ties, +-0.0, +-inf and NaN, a k that a caller passes (1 to their count), a margin and an old window."""
    elements = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(-2.0, 2.0))
    values = draw(hnp.arrays(np.float64, st.integers(min_value=1, max_value=40), elements=elements))
    size = draw(st.sampled_from([values.size, 700, 3000]))
    if size != values.size:  # a partition sorts a few dozen entries outright, so it would hide a bound read out of place
        values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(values, size)
    k = draw(st.integers(min_value=1, max_value=values.size))
    bound = st.sampled_from([-1.0, -0.0, 0.0, 0.5, np.inf])  # a window's bounds are never NaN
    window = draw(st.one_of(st.none(), st.tuples(bound, bound)))
    return values, k, draw(st.sampled_from([0, 1, 2, 8, LargestSelector.MARGIN])), window


@settings(max_examples=400, deadline=None)
@given(_recentre_cases())
def test_recentre_windows_the_sorted_ranks_around_k(case):
    """The window is the values at ranks k - 1 -+ MARGIN of the sorted vector; a side past the vector's end keeps
    its old bound, a NaN high bound becomes inf and a NaN low bound leaves no window."""
    values, k, margin, window = case
    ordered = np.sort(values)  # NaN last, as a partition places it
    lo_rank, hi_rank = k - 1 - margin, k - 1 + margin
    lo = ordered[max(lo_rank, 0)] if lo_rank >= 0 or window is None else window[0]
    hi = ordered[min(hi_rank, values.size - 1)] if hi_rank < values.size or window is None else window[1]
    want = None if np.isnan(lo) else (lo, np.inf if np.isnan(hi) else hi)
    selector = LargestSelector()
    selector.MARGIN, selector.window = margin, window
    selector._recentre(values.copy(), k)
    assert selector.window == want  # == so that -0.0 and +0.0, which every comparison treats alike, are one bound


def test_a_full_top_k_makes_one_negated_copy_of_the_scores():
    """One fallback call on the 101,632 scores of 784-128-10 peaks at the negated copy, select_smallest's partitioned
    copy of it and boolean masks: the window is found in the negated copy itself."""
    rng = np.random.default_rng(6)
    scores = [rng.random(shape) for shape in [(128, 784), (10, 128)]]
    selector = LargestSelector()
    tracemalloc.start()
    try:
        chosen = selector(scores, 30_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert selector.fallback_calls == 1 and sum(int(np.count_nonzero(c)) for c in chosen) == 30_000
    assert peak < 2.25 * sum(p.nbytes for p in scores)


@pytest.mark.parametrize("scope, shapes", [(LAYERWISE, [(128, 784)]), (GLOBAL, [(64, 784), (64, 784)])])
def test_a_windowed_top_k_copies_no_scores(scope, shapes):
    """One window call of topk_mask on 100,352 scores reads them as they are: it allocates less than one float64 copy."""
    rng = np.random.default_rng(6)
    scores = [rng.random(shape) for shape in shapes]
    selectors = [LargestSelector() for _ in shapes] if scope == LAYERWISE else [LargestSelector()]
    topk_mask(scores, 0.3, scope, selectors=selectors)
    for p in scores:
        p += 1e-6 * rng.standard_normal(p.shape)
    tracemalloc.start()
    try:
        topk_mask(scores, 0.3, scope, selectors=selectors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [s.window_calls for s in selectors] == [1] * len(selectors)
    assert peak < sum(p.nbytes for p in scores)


def test_no_miner_concatenates_layers():
    """Cross-layer selection goes through select_smallest_across; no miner flattens the layers itself."""
    assert [f"{path}:{line}" for path, text in modules("miners") for line, name in names(text) if name == "concatenate"] == []


def test_no_miner_pads_excluded_entries_with_inf():
    """A miner passes the entries a selection may choose as ``eligible``; none builds an +inf-padded copy."""
    assert [f"{path}:{line}" for path, text in modules("miners") for line, name in names(text) if name == "inf"] == []


def test_no_full_sort_copy_in_the_package():
    """Every "k best" selection goes through select_smallest; no module's code sorts to select."""
    offenders = []
    for path, text in modules():
        # names only, so docstrings and comments may still mention a sort
        found = names(text)
        for (_, prev), (line, name) in zip([(0, "")] + found, found):
            if name in ("argsort", "lexsort") or (name == "sort" and prev in ("np", "numpy")):
                offenders.append(f"{path}:{line}: {name}")
    assert offenders == []


def test_freeze_state_stays_inside_gem_mine():
    """A layer is weights + mask: only miners/gem.py handles a freeze array."""
    assert "freeze" not in {f.name for f in dataclasses.fields(MaskedLayer)}
    # whole names only: docstrings, strings and freeze_period do not count
    offenders = [
        f"{path}:{line}" for path, text in modules() if path != Path("miners", "gem.py") for line, name in names(text) if name == "freeze"
    ]
    assert offenders == []


# the float conversions under src/gemmine that build no mask: (module, enclosing function) -> count
FLOAT_CASTS_ALLOWED = {
    (Path("data.py"), "gen_synthetic"): 1,  # the planar features
    (Path("masking.py"), "init_weights"): 1,  # the +/-1 signs of signed-constant weights
    (Path("checkpoint.py"), "load_checkpoint"): 2,  # the file's float32 scores and weights
    (Path("autodiff.py"), "ste_round"): 1,  # the oracle graph's float64 node value
}


def _is_float_dtype(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy") and np.dtype(getattr(np, node.attr)).kind == "f"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return np.dtype(node.value).kind == "f"
    return False


def _is_float_cast(node) -> bool:
    """An ``.astype(<float dtype>)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "astype"):
        return False
    return any(_is_float_dtype(d) for d in node.args[:1] + [k.value for k in node.keywords if k.arg == "dtype"])


def test_float_casts_under_src_build_no_mask():
    """Masks are boolean end to end: only the listed non-mask arrays are cast to a float dtype."""
    casts = [(path, line, function) for path, text in modules() for line, function in sites(text, _is_float_cast)]
    # exactly the listed ones: a new cast fails, and so does a stale entry
    assert Counter((path, function) for path, _, function in casts) == Counter(FLOAT_CASTS_ALLOWED), casts


def test_float_cast_guard_sees_every_spelling():
    source = (
        "def f(m):\n"
        "    a = m.astype(np.float64)\n    b = m.astype(float)\n    c = m.astype('<f4')\n"
        "    d = m.astype(dtype=numpy.float32)\n    e = m.astype(bool)\n    g = m.astype(np.int64)\n"
    )
    assert sites(source, _is_float_cast) == [(2, "f"), (3, "f"), (4, "f"), (5, "f")]


# the functions that run once per batch or once per selection: (module, qualified name)
PER_BATCH_FUNCTIONS = {
    (Path("masking.py"), "loss_and_grads"),
    (Path("masking.py"), "log_softmax"),
    (Path("masking.py"), "select_smallest"),
    (Path("masking.py"), "LargestSelector.__call__"),
    (Path("masking.py"), "LargestSelector._recentre"),
    (Path("miners", "common.py"), "patch_flips"),
    (Path("miners", "common.py"), "score_loss_and_grads"),
    (Path("trainer.py"), "run_masked_epoch"),
    (Path("miners", "smart_ratio.py"), "tune_ratios"),
}
# numpy functions that reach their C loop through Python-level wrappers
NUMPY_WRAPPERS = {"sum", "any", "all", "mean", "max", "min", "amax", "amin", "flatnonzero", "nonzero", "take", "partition"}
# array methods that numpy runs through Python (numpy/_core/_methods.py)
PYTHON_METHODS = {"sum", "any", "all", "mean", "max", "min"}


def _wrapper_calls(source: str, names: set[str]) -> dict[str, list[str]]:
    """``{name: ["line: np.sum", "line: .max()", "line: where=", ...]}`` for each function or ``Class.method`` of ``names`` in ``source``.

    ``where=`` marks a call with a ``where`` keyword: a masked ufunc or ``np.copyto(..., where=...)``
    runs a masked inner loop, and zeroing the pruned entries of a 784x128 gradient that way took
    501-840 us per call against 32-129 us for an index assignment (2-vCPU Xeon, numpy 2.4).
    """
    tree = ast.parse(source)
    functions = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            functions.update((f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, ast.FunctionDef))
    found = {}
    for name in names & set(functions):
        found[name] = []
        for node in ast.walk(functions[name]):
            if not isinstance(node, ast.Call):
                continue
            if any(k.arg == "where" for k in node.keywords):
                found[name].append(f"{node.lineno}: where=")
            if not isinstance(node.func, ast.Attribute):
                continue
            attr, owner = node.func.attr, node.func.value
            if isinstance(owner, ast.Name) and owner.id in ("np", "numpy"):
                if attr in NUMPY_WRAPPERS:
                    found[name].append(f"{node.lineno}: np.{attr}")
            elif attr in PYTHON_METHODS:
                found[name].append(f"{node.lineno}: .{attr}()")
        found[name].sort(key=lambda hit: int(hit.partition(":")[0]))
    return found


def test_per_batch_code_calls_no_python_level_numpy_wrapper():
    """Each wrapper costs a few microseconds per call before any arithmetic; these functions call the C entry
    points (``np.add.reduce``, ``.nonzero()``, ``.take``, ``.partition``) with the same arguments, hence the same bits.
    They run no masked inner loop either (``_wrapper_calls``'s ``where=``)."""
    found = {}
    for module in sorted({module for module, _ in PER_BATCH_FUNCTIONS}):
        functions = {name for m, name in PER_BATCH_FUNCTIONS if m == module}
        found.update(((module, name), hits) for name, hits in _wrapper_calls((PACKAGE / module).read_text(), functions).items())
    # every listed function exists, so a rename cannot take one out of the guard
    assert set(found) == PER_BATCH_FUNCTIONS
    assert {key: hits for key, hits in found.items() if hits} == {}


def test_the_wrapper_guard_sees_each_spelling():
    source = """
def f(x, y):
    np.sum(x), numpy.any(x), np.all(x), np.mean(x), np.max(x), np.min(x)
    np.amax(x), np.amin(x), np.flatnonzero(x), np.nonzero(x), np.take(x, y), np.partition(x, 1)
    x.sum(), x.any(), (x < y).all(), x.mean(axis=0), x.max(axis=1, keepdims=True), x.min()
    np.add.reduce(x, axis=None), np.maximum.reduce(x), x.nonzero()[0], x.take(y), x.partition(1), sum(y), max(y)
    np.copyto(x, 0.0, where=y), np.multiply(x, y, out=x, where=y), x.__isub__(y), np.where(y, x, 0.0), x[y]
class C:
    def g(self, x):
        def inner():
            return x.sum()
        return inner
def h(x):
    return x.sum()
def k(x, y):
    np.add(x, 1.0, out=x, where=y)
    return f(x, where=y)
"""
    wrappers = ["np.sum", "np.any", "np.all", "np.mean", "np.max", "np.min"]
    wrappers += ["np.amax", "np.amin", "np.flatnonzero", "np.nonzero", "np.take", "np.partition"]
    methods = [".sum()", ".any()", ".all()", ".mean()", ".max()", ".min()"]
    assert _wrapper_calls(source, {"f", "C.g", "k", "missing"}) == {
        "f": [f"3: {w}" for w in wrappers[:6]] + [f"4: {w}" for w in wrappers[6:]] + [f"5: {m}" for m in methods]
        + ["7: where=", "7: where="],
        "C.g": ["11: .sum()"],
        "k": ["16: where=", "17: where="],
    }


def test_select_smallest_peaks_at_one_copy_of_its_values():
    # the partitioned copy is freed before the two comparisons allocate theirs
    values = np.random.default_rng(0).random(100_352)
    tracemalloc.start()
    try:
        chosen = select_smallest(values, 50_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(np.count_nonzero(chosen)) == 50_000
    assert peak < 1.125 * values.nbytes
