import struct

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


def _split(n_train=4, **overrides) -> DatasetSplit:
    x = np.arange(24, dtype=np.float64).reshape(12, 2)
    y = np.arange(12) % 2
    fields = dict(train_x=x[:n_train], train_y=y[:n_train], val_x=x[8:10], val_y=y[8:10], test_x=x[10:], test_y=y[10:], n_classes=2)
    return DatasetSplit(**{**fields, **overrides})


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n_train": 0}, "train: no rows"),
        ({"train_y": np.zeros(3, dtype=np.int64)}, "train: 4 feature rows but 3 labels"),
        ({"val_x": np.full((2, 2), np.nan)}, "val: non-finite feature values"),
        ({"test_y": np.array([0, 2])}, r"test: label outside \[0, 2\)"),
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
