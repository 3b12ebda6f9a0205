import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemmine.harness import write_layerwise
from gemmine.masking import (
    SCALED_NORMAL,
    SIGNED_CONSTANT,
    MaskedLayer,
    NetworkSpec,
    init_weights,
    mask_sparsity,
)
from gemmine.sanity import (
    SanityVariant,
    invert_scores,
    layerwise_report,
    reinit_weights,
    shuffle_mask,
    variant_network,
)
from toy_tasks import stable_sort_selection


def test_variant_kind_validation():
    SanityVariant("shuffle")
    with pytest.raises(ValueError):
        SanityVariant("scramble")


def test_shuffle_all_ones_fixed_point():
    mask = [np.ones((3, 3))]
    out = shuffle_mask(mask, seed=5)
    np.testing.assert_array_equal(out[0], mask[0])


def test_shuffle_deterministic_by_seed():
    mask = [np.eye(4)]
    a = shuffle_mask(mask, seed=3)
    b = shuffle_mask(mask, seed=3)
    c = shuffle_mask(mask, seed=4)
    np.testing.assert_array_equal(a[0], b[0])
    assert not np.array_equal(a[0], c[0])


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_shuffle_conserves_layer_and_global_sparsity(seed):
    rng = np.random.default_rng(seed)
    mask = [
        (rng.random((4, 6)) < 0.4).astype(float),
        (rng.random((3, 4)) < 0.7).astype(float),
    ]
    out = shuffle_mask(mask, seed=seed)
    for before, after in zip(mask, out):
        assert int(np.sum(before)) == int(np.sum(after))
    assert mask_sparsity(mask) == mask_sparsity(out)


@pytest.mark.parametrize("widths", [(4, 6, 3), (3, 5, 4, 2)])
def test_reinit_weights_draws_the_layers_shapes_as_init_weights_does(widths):
    spec = NetworkSpec(widths)
    layers = [MaskedLayer(weights=w, mask=w > 0) for w in init_weights(spec, SIGNED_CONSTANT, seed=2)]
    for scheme in (SIGNED_CONSTANT, SCALED_NORMAL):
        fresh = reinit_weights(layers, scheme, seed=3)
        assert [w.tobytes() for w in fresh] == [w.tobytes() for w in init_weights(spec, scheme, seed=3)]


def test_variant_network_rejects_an_unknown_kind():
    layers = [MaskedLayer(weights=w, mask=w > 0) for w in init_weights(NetworkSpec((4, 6, 3)), SIGNED_CONSTANT, seed=2)]
    with pytest.raises(ValueError, match="unknown sanity variant 'scramble'"):
        variant_network(layers, "scramble", 1, SIGNED_CONSTANT, [])


def test_invert_is_complement_at_half_density():
    scores = [np.array([[0.9, 0.1, 0.8, 0.2]])]
    original = [np.array([[1.0, 0.0, 1.0, 0.0]])]
    warnings: list[str] = []
    inverted = invert_scores(scores, original, warnings)
    np.testing.assert_array_equal(inverted[0], 1.0 - original[0])
    assert warnings == []


def test_invert_disjoint_when_sparse_and_distinct():
    rng = np.random.default_rng(1)
    scores = [rng.permutation(100).astype(float).reshape(10, 10)]
    mask = [stable_sort_selection(-scores[0], 20).reshape(10, 10).astype(float)]
    inverted = invert_scores(scores, mask, [])
    assert int(np.sum(mask[0] * inverted[0])) == 0


def test_invert_degenerate_scores_warn():
    scores = [np.full((2, 2), 0.5)]
    mask = [np.array([[1.0, 0.0], [0.0, 1.0]])]
    warnings: list[str] = []
    inverted = invert_scores(scores, mask, warnings)
    assert int(np.sum(inverted[0])) == 2
    assert any("degenerate" in w for w in warnings)


def test_layerwise_report_counts():
    mask = [np.array([[1.0, 1.0, 0.0, 0.0]]), np.array([[1.0, 0.0]])]
    rows = layerwise_report(mask)
    assert rows[0] == {"layer_index": 0, "params": 4, "kept": 2, "keep_fraction": 0.5}
    assert rows[1] == {"layer_index": 1, "params": 2, "kept": 1, "keep_fraction": 0.5}
    assert rows[2]["layer_index"] == "global"
    assert rows[2]["kept"] == 3 and rows[2]["params"] == 6
    # the global row's counts are the per-layer sums, and its fraction their ratio
    assert rows[2] == {"layer_index": "global", "params": 4 + 2, "kept": 2 + 1, "keep_fraction": 3 / 6}
    assert rows[2]["keep_fraction"] == pytest.approx(0.5)


def test_layerwise_report_flags_collapse():
    rows = layerwise_report([np.zeros((2, 2)), np.ones((2, 2))])
    assert rows[0]["kept"] == 0
    assert rows[0]["keep_fraction"] == 0.0
    assert rows[1]["kept"] > 0


def test_layerwise_report_dense():
    rows = layerwise_report([np.ones((3, 2))])
    assert all(row["keep_fraction"] == 1.0 for row in rows)


def test_layerwise_csv_format(tmp_path):
    path = tmp_path / "layers.csv"
    write_layerwise(path, layerwise_report([np.array([[1.0, 0.0]])]))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "layer_index,params,kept,keep_fraction"
    assert lines[1] == "0,2,1,0.5"
    assert lines[2] == "global,2,1,0.5"


def test_invert_length_mismatch():
    with pytest.raises(ValueError):
        invert_scores([np.ones((2, 2))], [np.ones((2, 2)), np.ones((1, 1))], [])
