import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest

from gemmine.data import (
    DatasetSplit,
    IdxFormatError,
    gen_digit_images,
    gen_synthetic,
    load_idx,
    make_digit_archive,
    read_idx_images,
    read_idx_labels,
    write_idx_images,
    write_idx_labels,
)
from gemmine.masking import NetworkSpec, init_weights
from gemmine.trainer import TrainConfig, evaluate, finetune


def test_idx_image_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
    path = tmp_path / "imgs"
    write_idx_images(path, images)
    np.testing.assert_array_equal(read_idx_images(path), images)


def test_idx_label_roundtrip(tmp_path):
    labels = np.array([0, 3, 9, 1], dtype=np.uint8)
    path = tmp_path / "labels"
    write_idx_labels(path, labels)
    np.testing.assert_array_equal(read_idx_labels(path), labels)


def test_idx_golden_bytes(tmp_path):
    path = tmp_path / "two_pixels"
    write_idx_images(path, np.array([[[7, 9]]], dtype=np.uint8))
    assert path.read_bytes() == struct.pack(">IIII", 0x00000803, 1, 1, 2) + bytes([7, 9])


def test_idx_bad_magic_names_offset(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">IIII", 0x12345678, 1, 1, 1) + b"\x00")
    with pytest.raises(IdxFormatError, match="offset 0"):
        read_idx_images(path)
    with pytest.raises(IdxFormatError, match="0x12345678"):
        read_idx_images(path)


def test_idx_truncated_pixels(tmp_path):
    path = tmp_path / "short"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 3)
    with pytest.raises(IdxFormatError, match="truncated"):
        read_idx_images(path)


def _archive(tmp_path, n_train=40, n_test=10, rows=4, cols=5, classes=10):
    rng = np.random.default_rng(1)
    write_idx_images(tmp_path / "train-images-idx3-ubyte", rng.integers(0, 256, (n_train, rows, cols)).astype(np.uint8))
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", (np.arange(n_train) % classes).astype(np.uint8))
    write_idx_images(tmp_path / "t10k-images-idx3-ubyte", rng.integers(0, 256, (n_test, rows, cols)).astype(np.uint8))
    write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", (np.arange(n_test) % classes).astype(np.uint8))
    return tmp_path


def test_load_idx_flattens_and_scales(tmp_path):
    directory = _archive(tmp_path)
    split = load_idx(directory, val_fraction=0.25, seed=0)
    assert split.n_features == 20
    assert split.train_x.shape[0] == 30 and split.val_x.shape[0] == 10
    assert split.test_x.shape[0] == 10
    assert 0.0 <= split.train_x.min() and split.train_x.max() <= 1.0


def test_load_idx_train_limit_exact(tmp_path):
    directory = _archive(tmp_path)
    split = load_idx(directory, train_limit=17, val_fraction=0.25, seed=0)
    assert split.train_x.shape[0] == 17
    with pytest.raises(ValueError, match="train_limit"):
        load_idx(directory, train_limit=1000, val_fraction=0.25)
    # the split is checked when it is built, not by each miner on first use
    with pytest.raises(ValueError, match="train: no rows"):
        load_idx(directory, train_limit=0, val_fraction=0.25)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"train_limit": -5}, "train_limit must be >= 0, got -5"),
        ({"val_fraction": -0.5}, "val_fraction must be in [0, 1), got -0.5"),
        ({"val_fraction": 1.0}, "val_fraction must be in [0, 1), got 1.0"),
        ({"val_fraction": float("nan")}, "val_fraction must be in [0, 1), got nan"),
    ],
)
def test_load_idx_rejects_a_bad_split(tmp_path, settings, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load_idx(_archive(tmp_path), **settings)


def _split(n_train=4, **overrides) -> DatasetSplit:
    x = np.arange(24, dtype=np.float64).reshape(12, 2)
    y = np.arange(12) % 2
    fields = dict(train_x=x[:n_train], train_y=y[:n_train], val_x=x[8:10], val_y=y[8:10], test_x=x[10:], test_y=y[10:], n_classes=2)
    return DatasetSplit(**{**fields, **overrides})


def _poisoned(rows: int, value: float) -> np.ndarray:
    """Finite features with one entry set to ``value``, so only one of min and max can show it."""
    x = np.arange(rows * 2, dtype=np.float64).reshape(rows, 2)
    x[rows // 2, 0] = value
    return x


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n_train": 0}, "train: no rows"),
        ({"train_y": np.zeros(3, dtype=np.int64)}, "train: 4 feature rows but 3 labels"),
        ({"val_x": np.full((2, 2), np.nan)}, "val: non-finite feature values"),
        ({"test_y": np.array([0, 2])}, r"test: label outside \[0, 2\)"),
        ({"train_x": _poisoned(4, np.inf)}, "train: non-finite feature values"),
        ({"test_x": _poisoned(2, -np.inf)}, "test: non-finite feature values"),
        ({"train_x": _poisoned(4, np.nan)}, "train: non-finite feature values"),
    ],
)
def test_dataset_split_rejects_malformed_splits(overrides, message):
    with pytest.raises(ValueError, match=message):
        _split(**overrides)


def test_dataset_split_allows_empty_val_and_test():
    split = _split(val_x=np.zeros((0, 2)), val_y=np.zeros(0, dtype=np.int64), test_x=np.zeros((0, 2)), test_y=np.zeros(0, dtype=np.int64))
    assert split.n_features == 2


def test_load_idx_without_validation_rows(tmp_path):
    split = load_idx(_archive(tmp_path), val_fraction=0.0, seed=0)
    assert split.val_x.shape == (0, 20) and split.train_x.shape == (40, 20)


def test_load_idx_label_out_of_range(tmp_path):
    directory = _archive(tmp_path)
    write_idx_labels(directory / "train-labels-idx1-ubyte", np.array([200] * 40, dtype=np.uint8))
    with pytest.raises(IdxFormatError, match="out of range"):
        load_idx(directory, expected_classes=10)


def test_load_idx_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_idx(tmp_path)


def test_load_idx_deterministic_split(tmp_path):
    directory = _archive(tmp_path)
    a = load_idx(directory, val_fraction=0.2, seed=3)
    b = load_idx(directory, val_fraction=0.2, seed=3)
    assert a.train_x.tobytes() == b.train_x.tobytes()
    c = load_idx(directory, val_fraction=0.2, seed=4)
    assert a.train_x.tobytes() != c.train_x.tobytes()


def test_synthetic_same_seed_identical():
    a = gen_synthetic("blobs", 50, 0.2, seed=8)
    b = gen_synthetic("blobs", 50, 0.2, seed=8)
    assert a.train_x.tobytes() == b.train_x.tobytes()
    assert a.train_y.tobytes() == b.train_y.tobytes()


def test_synthetic_labels_balanced_within_one():
    for kind in ("blobs", "two_moons"):
        split = gen_synthetic(kind, 75, 0.1, seed=0)
        labels = np.concatenate([split.train_y, split.val_y, split.test_y])
        counts = np.bincount(labels, minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_synthetic_minimum_size():
    with pytest.raises(ValueError):
        gen_synthetic("blobs", 5, 0.1, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic("spirals", 50, 0.1, seed=0)


def test_synthetic_kind_has_one_spelling():
    with pytest.raises(ValueError, match="unknown synthetic kind 'two-moons'"):
        gen_synthetic("two-moons", 50, 0.1, seed=0)


def test_noiseless_blobs_trainable_to_perfect_accuracy():
    data = gen_synthetic("blobs", 60, noise=0.0, seed=2)
    spec = NetworkSpec((2, 8, 2))
    weights = init_weights(spec, "scaled_normal", seed=0)
    mask = [np.ones_like(w) for w in weights]
    trained, _ = finetune(weights, mask, data, TrainConfig(epochs=10, batch_size=8, lr=0.1, seed=0))
    _, acc = evaluate(trained, data.train_x, data.train_y)
    assert acc == 1.0


def test_digit_generator_shapes_and_balance():
    images, labels = gen_digit_images(200, seed=0)
    assert images.shape == (200, 28, 28) and images.dtype == np.uint8
    counts = np.bincount(labels, minlength=10)
    assert counts.min() == counts.max() == 20


def test_digit_archive_loadable(tmp_path):
    make_digit_archive(tmp_path, n_train=60, n_test=20, seed=0)
    split = load_idx(tmp_path, val_fraction=0.1, seed=0)
    assert split.n_features == 784
    assert split.n_classes == 10
    again, _ = gen_digit_images(60, seed=0)
    assert read_idx_images(tmp_path / "train-images-idx3-ubyte").tobytes() == again.tobytes()


@pytest.mark.parametrize(
    "seed, noise, digest",
    [
        (0, 1.0, "32e1516547eeb6d711410634e84844c52b7c30ba95b791c14f9a3ed2f57c08d7"),
        (7, 0.25, "5ac492fa6f72204e72b604adeb544c1faef34b83ab2d5889f1ef9a928c54ef32"),
    ],
)
def test_digit_generator_bytes_are_pinned(seed, noise, digest):
    images, labels = gen_digit_images(300, seed=seed, noise=noise)
    assert hashlib.sha256(images.tobytes() + labels.tobytes()).hexdigest() == digest


def test_digit_generator_builds_the_images_in_one_float64_buffer():
    n = 2000
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        gen_digit_images(n, seed=0, noise=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 1.5 * n * 28 * 28 * 8
