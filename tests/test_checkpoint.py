import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemmine.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from gemmine.masking import MaskedLayer, extract_mask, round_scores

BELOW_HALF = 0.5 - 2.0**-30  # rounds to 0 in float64, to exactly 0.5 in float32


def _layer(w, m, p=None):
    return MaskedLayer(
        weights=np.asarray(w, float), mask=np.asarray(m, float), scores=None if p is None else np.asarray(p, float)
    )


def test_golden_bytes_single_layer(tmp_path):
    # 1x3 layer: scores [0.5, 0.25, 1.0], mask [1, 0, 1], weights [1, -2, 0.5]
    layer = _layer([[1.0, -2.0, 0.5]], [[1.0, 0.0, 1.0]], [[0.5, 0.25, 1.0]])
    path = tmp_path / "golden.tfmc"
    save_checkpoint(path, [layer])

    expected = b"TFMC"
    expected += struct.pack("<II", 1, 1)  # version, layer count
    expected += struct.pack("<II", 1, 3)  # fan_out, fan_in
    expected += struct.pack("<3f", 0.5, 0.25, 1.0)
    expected += bytes([0b00000101])  # LSB-first bitset: bits 0 and 2 set
    expected += struct.pack("<3f", 1.0, -2.0, 0.5)
    assert path.read_bytes() == expected

    loaded = load_checkpoint(path)
    assert len(loaded) == 1
    np.testing.assert_array_equal(loaded[0].scores, layer.scores)
    np.testing.assert_array_equal(loaded[0].mask, layer.mask)
    np.testing.assert_array_equal(loaded[0].weights, layer.weights)


def test_bad_magic_reports_offset(tmp_path):
    path = tmp_path / "bad.tfmc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="offset 0"):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    layer = _layer(np.ones((2, 3)), np.ones((2, 3)))
    path = tmp_path / "full.tfmc"
    save_checkpoint(path, [layer])
    clipped = tmp_path / "clipped.tfmc"
    clipped.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(clipped)


def test_trailing_bytes_rejected(tmp_path):
    layer = _layer(np.ones((1, 2)), np.ones((1, 2)))
    path = tmp_path / "extra.tfmc"
    save_checkpoint(path, [layer])
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v9.tfmc"
    path.write_bytes(MAGIC + struct.pack("<II", 9, 0))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


@settings(max_examples=25, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=9)),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_roundtrip_bytes_identical(tmp_path_factory, shapes, seed):
    rng = np.random.default_rng(seed)
    layers = []
    for fan_out, fan_in in shapes:
        # values exactly representable in float32 survive the save untouched
        w = (rng.integers(-64, 64, size=(fan_out, fan_in)) / 16.0).astype(np.float64)
        p = (rng.integers(0, 256, size=(fan_out, fan_in)) / 256.0).astype(np.float64)
        q = (rng.random((fan_out, fan_in)) < 0.6).astype(np.float64)
        layers.append(MaskedLayer(weights=w, mask=round_scores(p) * q, scores=p))
    tmp = tmp_path_factory.mktemp("ckpt")
    first, second = tmp / "a.tfmc", tmp / "b.tfmc"
    save_checkpoint(first, layers)
    loaded = load_checkpoint(first)
    save_checkpoint(second, loaded)
    assert first.read_bytes() == second.read_bytes()
    for before, after in zip(layers, loaded):
        np.testing.assert_array_equal(before.weights, after.weights)
        np.testing.assert_array_equal(before.scores, after.scores)
        np.testing.assert_array_equal(before.mask, after.mask)


def test_bitset_is_row_major_lsb_first(tmp_path):
    # 3x3 mask pattern packs 9 bits into 2 bytes, row-major, LSB-first
    mask = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=float)
    layer = _layer(np.zeros((3, 3)), mask)
    path = tmp_path / "bits.tfmc"
    save_checkpoint(path, [layer])
    raw = path.read_bytes()
    offset = 4 + 8 + 8 + 4 * 9  # magic, header, shape, scores
    assert raw[offset : offset + 2] == bytes([0b00011001, 0b00000001])


# ---------------------------------------------------------------------------
# a round trip gives back the mask that was saved
# ---------------------------------------------------------------------------


def _reloaded_mask(path, layers):
    save_checkpoint(path, layers)
    return extract_mask(load_checkpoint(path))


def test_roundtrip_keeps_a_score_just_below_half_dropped(tmp_path):
    # float32 stores 0.5 - 2**-30 as 0.5; the mask bit stays 0 all the same
    scores = np.array([[BELOW_HALF, 0.5, BELOW_HALF, 0.75]])
    freeze = np.array([[1.0, 1.0, 0.0, 1.0]])
    layer = _layer(np.ones((1, 4)), round_scores(scores) * freeze, scores)
    np.testing.assert_array_equal(layer.mask, [[0.0, 1.0, 0.0, 1.0]])
    np.testing.assert_array_equal(_reloaded_mask(tmp_path / "edge.tfmc", [layer])[0], layer.mask)


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=7)),
        min_size=1,
        max_size=3,
    ),
    with_scores=st.lists(st.booleans(), min_size=3, max_size=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_roundtrip_preserves_the_mask(tmp_path_factory, shapes, with_scores, seed):
    """extract_mask(load(save(L))) == extract_mask(L), for gem-like layers and for bare masks."""
    rng = np.random.default_rng(seed)
    edges = np.array([BELOW_HALF, 0.5, 0.0, 1.0])
    layers = []
    for (fan_out, fan_in), scored in zip(shapes, with_scores):
        p = rng.random((fan_out, fan_in))
        pick = rng.random(p.shape) < 0.5
        p[pick] = rng.choice(edges, size=int(np.count_nonzero(pick)))
        q = (rng.random(p.shape) < 0.7).astype(np.float64)
        w = rng.standard_normal(p.shape)
        layers.append(_layer(w, round_scores(p) * q, p if scored else None))
    reloaded = _reloaded_mask(tmp_path_factory.mktemp("ckpt") / "a.tfmc", layers)
    for before, after in zip(extract_mask(layers), reloaded):
        assert before.tobytes() == after.tobytes()


def test_masked_layer_rejects_a_kept_weight_scored_below_half():
    with pytest.raises(ValueError, match="below 0.5"):
        _layer(np.ones((1, 2)), [[1.0, 1.0]], [[0.9, BELOW_HALF]])
    with pytest.raises(ValueError, match="below 0.5"):
        _layer(np.ones((1, 1)), [[1.0]], [[np.nan]])


@pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
def test_masked_layer_rejects_a_mask_entry_other_than_0_or_1(bad):
    # such a mask would reload rounded to 0/1, or be counted by its value
    with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
        _layer(np.ones((1, 3)), [[0.0, 1.0, bad]])


def test_masked_layer_accepts_a_boolean_mask(tmp_path):
    mask = np.array([[True, False, True]])
    layer = MaskedLayer(weights=np.ones((1, 3)), mask=mask)
    assert _reloaded_mask(tmp_path / "a.tfmc", [layer])[0].tolist() == [[1.0, 0.0, 1.0]]
