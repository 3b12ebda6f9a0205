import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gemmine.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from gemmine.masking import MaskedLayer, extract_mask, round_scores

BELOW_HALF = 0.5 - 2.0**-30  # rounds to 0 in float64, to exactly 0.5 in float32


def _layer(w, m, p=None):
    return MaskedLayer(
        weights=np.asarray(w, float), mask=np.asarray(m, float), scores=None if p is None else np.asarray(p, float)
    )


def test_golden_bytes_scored_and_unscored_layer(tmp_path):
    # 1x3 scored layer: scores [-1.5, 0.25, 2.0] (an edge-popup range), mask [1, 0, 1], weights [1, -2, 0.5];
    # 2x1 layer without scores: mask [0, 1], weights [3, -0.5]
    layers = [_layer([[1.0, -2.0, 0.5]], [[1.0, 0.0, 1.0]], [[-1.5, 0.25, 2.0]]), _layer([[3.0], [-0.5]], [[0.0], [1.0]])]
    path = tmp_path / "golden.tfmc"
    save_checkpoint(path, layers)

    expected = b"TFMC"
    expected += struct.pack("<II", 2, 2)  # version, layer count
    expected += struct.pack("<III", 1, 3, 1)  # fan_out, fan_in, has_scores
    expected += struct.pack("<3f", -1.5, 0.25, 2.0)
    expected += bytes([0b00000101])  # LSB-first bitset: bits 0 and 2 set
    expected += struct.pack("<3f", 1.0, -2.0, 0.5)
    expected += struct.pack("<III", 2, 1, 0)  # no scores block follows
    expected += bytes([0b00000010])
    expected += struct.pack("<2f", 3.0, -0.5)
    assert path.read_bytes() == expected

    loaded = load_checkpoint(path)
    assert len(loaded) == 2
    np.testing.assert_array_equal(loaded[0].scores, layers[0].scores)
    assert loaded[1].scores is None
    for before, after in zip(layers, loaded):
        np.testing.assert_array_equal(after.mask, before.mask)
        np.testing.assert_array_equal(after.weights, before.weights)


def test_bad_magic_reports_offset(tmp_path):
    path = tmp_path / "bad.tfmc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="offset 0"):
        load_checkpoint(path)


def test_truncation_names_the_scores_of_a_flagged_layer_only(tmp_path):
    layers = [_layer(np.ones((2, 3)), np.ones((2, 3))), _layer(np.ones((3, 2)), np.ones((3, 2)), np.full((3, 2), -4.0))]
    path = tmp_path / "full.tfmc"
    save_checkpoint(path, layers)
    raw = path.read_bytes()
    messages = []
    for end in range(len(raw)):
        path.write_bytes(raw[:end])
        with pytest.raises(CheckpointError, match="truncated") as info:
            load_checkpoint(path)
        messages.append(str(info.value))
    assert not any("layer 0 scores" in m for m in messages)
    assert any("layer 0 has_scores" in m for m in messages) and any("layer 1 scores" in m for m in messages)


def test_a_has_scores_flag_other_than_0_or_1_is_rejected(tmp_path):
    path = tmp_path / "flag.tfmc"
    save_checkpoint(path, [_layer(np.ones((1, 2)), np.ones((1, 2)))])
    raw = bytearray(path.read_bytes())
    raw[20] = 2  # the first byte of layer 0's has_scores
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="layer 0 has_scores is 2"):
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


@pytest.mark.parametrize("version", [0, 1, 3, 2**32 - 1])
def test_unsupported_version(tmp_path, version):
    path = tmp_path / "other.tfmc"
    path.write_bytes(MAGIC + struct.pack("<II", version, 0))
    with pytest.raises(CheckpointError, match=f"^unsupported checkpoint version {version}, expected 2$"):
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
    offset = 4 + 8 + 12  # magic, header, shape and has_scores (0: no scores block)
    assert raw[offset : offset + 2] == bytes([0b00011001, 0b00000001])


@settings(max_examples=40, deadline=None)
@given(
    layers=st.lists(
        st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=7), st.booleans()).flatmap(
            lambda t: st.tuples(
                hnp.arrays(np.float64, t[:2], elements=st.floats(-1e30, 1e30)) if t[2] else st.none(),
                hnp.arrays(np.bool_, t[:2]),
            )
        ),
        min_size=1,
        max_size=3,
    )
)
def test_roundtrip_keeps_scores_of_any_sign_and_size(tmp_path_factory, layers):
    """Scores reload as their float32 values and the mask bit for bit, whatever the scores are:
    edge-popup scores are unbounded, and IMP's magnitudes are below 0.5 on kept weights."""
    rng = np.random.default_rng(len(layers))
    saved = [MaskedLayer(weights=rng.standard_normal(m.shape), mask=m, scores=p) for p, m in layers]
    path = tmp_path_factory.mktemp("ckpt") / "a.tfmc"
    save_checkpoint(path, saved)
    for before, after in zip(saved, load_checkpoint(path)):
        assert after.mask.tobytes() == before.mask.tobytes()
        if before.scores is None:
            assert after.scores is None
        else:
            assert after.scores.tobytes() == before.scores.astype(np.float32).astype(np.float64).tobytes()


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


@pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
def test_masked_layer_rejects_a_mask_entry_other_than_0_or_1(bad):
    # such a mask would reload rounded to 0/1, or be counted by its value
    with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
        _layer(np.ones((1, 3)), [[0.0, 1.0, bad]])


def test_masked_layer_accepts_a_boolean_mask(tmp_path):
    mask = np.array([[True, False, True]])
    layer = MaskedLayer(weights=np.ones((1, 3)), mask=mask)
    assert _reloaded_mask(tmp_path / "a.tfmc", [layer])[0].tolist() == [[1.0, 0.0, 1.0]]
