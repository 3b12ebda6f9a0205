import ast
import hashlib
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gemmine.data import (
    DIGIT_BLOCK_ROWS,
    DatasetSplit,
    IdxFormatError,
    float_features,
    gen_digit_images,
    gen_synthetic,
    load_idx,
    make_digit_archive,
    read_idx,
    write_idx,
)
from gemmine.masking import NetworkSpec, init_weights
from gemmine.miners.common import LayerRatios, MinerConfig, SparsitySchedule
from gemmine.miners.gem import gem_mine
from gemmine.miners.smart_ratio import smart_ratio
from gemmine.trainer import TrainConfig, evaluate, finetune
from source_sites import modules, sites


def test_idx_image_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 4, 3)).astype(np.uint8)
    path = tmp_path / "imgs"
    write_idx(path, images)
    np.testing.assert_array_equal(read_idx(path, 3), images)


def test_idx_label_roundtrip(tmp_path):
    labels = np.array([0, 3, 9, 1], dtype=np.uint8)
    path = tmp_path / "labels"
    write_idx(path, labels)
    np.testing.assert_array_equal(read_idx(path, 1), labels)


def test_idx_golden_bytes(tmp_path):
    path = tmp_path / "two_pixels"
    write_idx(path, np.array([[[7, 9]]], dtype=np.uint8))
    assert path.read_bytes() == struct.pack(">IIII", 0x00000803, 1, 1, 2) + bytes([7, 9])


@pytest.mark.parametrize(
    "values", [[300, 7], [2.7, -1.0], [float("nan"), 1.0], [float("inf")], np.array([-1], dtype=np.int8)], ids=repr
)
def test_write_idx_rejects_values_it_cannot_store(tmp_path, values):
    path = tmp_path / "bad-values"
    with pytest.raises(ValueError, match=re.escape(str(path))):
        write_idx(path, np.array(values))
    assert not path.exists()


def test_write_idx_stores_any_integer_array_in_range(tmp_path):
    path = tmp_path / "wide"
    write_idx(path, np.array([0, 7, 255], dtype=np.int64))
    assert path.read_bytes() == struct.pack(">II", 0x00000801, 3) + bytes([0, 7, 255])


def test_idx_bad_magic_names_offset(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">IIII", 0x12345678, 1, 1, 1) + b"\x00")
    with pytest.raises(IdxFormatError, match="offset 0"):
        read_idx(path, 3)
    with pytest.raises(IdxFormatError, match="0x12345678"):
        read_idx(path, 3)


def test_idx_shorter_than_its_header_is_rejected(tmp_path):
    path = tmp_path / "stub"
    path.write_bytes(struct.pack(">II", 0x00000803, 2))
    with pytest.raises(IdxFormatError, match=f"^{re.escape(str(path))}: truncated header, need 16 bytes, have 8$"):
        read_idx(path, 3)


def test_idx_truncated_pixels(tmp_path):
    path = tmp_path / "short"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 3)
    with pytest.raises(IdxFormatError, match="truncated"):
        read_idx(path, 3)


def test_idx_trailing_bytes_are_rejected(tmp_path):
    # a file longer than its header's sizes was cut or written wrong; its last items would be lost silently
    path = tmp_path / "long"
    write_idx(path, np.array([[[7, 9]]], dtype=np.uint8))
    path.write_bytes(path.read_bytes() + b"\x00" * 7)
    with pytest.raises(IdxFormatError, match=f"^{re.escape(str(path))}: 7 trailing bytes after 2 items$"):
        read_idx(path, 3)


def _archive(tmp_path, n_train=40, n_test=10, rows=4, cols=5, classes=10):
    rng = np.random.default_rng(1)
    write_idx(tmp_path / "train-images-idx3-ubyte", rng.integers(0, 256, (n_train, rows, cols)).astype(np.uint8))
    write_idx(tmp_path / "train-labels-idx1-ubyte", (np.arange(n_train) % classes).astype(np.uint8))
    write_idx(tmp_path / "t10k-images-idx3-ubyte", rng.integers(0, 256, (n_test, rows, cols)).astype(np.uint8))
    write_idx(tmp_path / "t10k-labels-idx1-ubyte", (np.arange(n_test) % classes).astype(np.uint8))
    return tmp_path


def test_load_idx_flattens_and_scales(tmp_path):
    directory = _archive(tmp_path)
    split = load_idx(directory, val_fraction=0.25, seed=0)
    assert split.n_features == 20
    assert split.train_x.shape[0] == 30 and split.val_x.shape[0] == 10
    assert split.test_x.shape[0] == 10
    # stored as the file's uint8 pixels, one flattened image per row
    train_pixels = read_idx(directory / "train-images-idx3-ubyte", 3).reshape(40, 20)
    test_pixels = read_idx(directory / "t10k-images-idx3-ubyte", 3).reshape(10, 20)
    rows = {r.tobytes() for r in train_pixels}
    for x in (split.train_x, split.val_x, split.test_x):
        assert x.dtype == np.uint8 and x.flags.c_contiguous
        assert x.base is None  # a copy of its rows, not a view of the file buffer
    assert all(r.tobytes() in rows for r in np.concatenate([split.train_x, split.val_x]))
    assert split.test_x.tobytes() == test_pixels.tobytes()
    # and scaled to [0, 1] where they are read
    for x in (split.train_x, split.val_x, split.test_x):
        scaled = float_features(x)
        assert scaled.dtype == np.float64 and 0.0 <= scaled.min() and scaled.max() <= 1.0


def test_load_idx_stores_one_byte_per_pixel(digits_dir):
    split = load_idx(digits_dir, val_fraction=0.1, seed=0)
    for x in (split.train_x, split.val_x, split.test_x):
        assert x.dtype == np.uint8 and x.nbytes == x.shape[0] * 784
    assert split.train_x.shape[0] + split.val_x.shape[0] == 1250 and split.test_x.shape[0] == 400


def test_float_features_scales_pixels_and_passes_floats_through():
    pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    assert float_features(pixels).tobytes() == (pixels.astype(np.float64) / 255.0).tobytes()
    floats = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    assert float_features(floats) is floats


def _scaled_up_front(split: DatasetSplit) -> DatasetSplit:
    """``split`` with its uint8 features scaled to float64 once, as ``load_idx`` used to store them."""
    scaled = {f"{name}_x": getattr(split, f"{name}_x").astype(np.float64) / 255.0 for name in ("train", "val", "test")}
    labels = {f"{name}_y": getattr(split, f"{name}_y") for name in ("train", "val", "test")}
    return DatasetSplit(**scaled, **labels, n_classes=split.n_classes)


def test_uint8_features_train_like_features_scaled_up_front(tmp_path):
    pixels = load_idx(make_digit_archive(tmp_path, n_train=200, n_test=60, seed=2, noise=1.0), val_fraction=0.1, seed=0)
    floats = _scaled_up_front(pixels)
    spec = NetworkSpec((784, 12, 10))
    schedule = SparsitySchedule(target_sparsity=0.3, total_epochs=4, freeze_period=2)
    config = MinerConfig(lr=0.1, reg_weight=1e-4, batch_size=16, seed=1)
    runs = []
    for data in (pixels, floats):
        mined = gem_mine(data, spec, schedule, config)
        trained, report = finetune(mined.weights, mined.mask, data, TrainConfig(epochs=2, batch_size=16, lr=0.1, seed=1))
        tuned = smart_ratio(
            spec, 0.3, "v5", seed=1, data=data, reference_profile=LayerRatios((0.4, 0.6)), tune_steps=3, tune_lr=0.01
        )
        runs.append((mined, trained, report, tuned))
    (mined_a, trained_a, report_a, tuned_a), (mined_b, trained_b, report_b, tuned_b) = runs
    for a, b in zip(mined_a.layers, mined_b.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()
        assert a.scores.tobytes() == b.scores.tobytes()
    assert mined_a.report.as_dict() == mined_b.report.as_dict()
    assert [w.tobytes() for w in trained_a] == [w.tobytes() for w in trained_b]
    assert report_a.as_dict() == report_b.as_dict()
    assert tuned_a.layer_ratios == tuned_b.layer_ratios
    assert [m.tobytes() for m in tuned_a.mask] == [m.tobytes() for m in tuned_b.mask]


def test_load_idx_train_limit_exact(tmp_path):
    directory = _archive(tmp_path)
    split = load_idx(directory, train_limit=17, val_fraction=0.25, seed=0)
    assert split.train_x.shape[0] == 17
    with pytest.raises(ValueError, match="train_limit"):
        load_idx(directory, train_limit=1000, val_fraction=0.25)
    # the split is checked when it is built, not by each miner on first use
    with pytest.raises(ValueError, match="train: no rows"):
        load_idx(directory, val_fraction=0.99)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"train_limit": -5}, "train_limit must be >= 1, got -5"),
        ({"val_fraction": -0.5}, "val_fraction must be in [0, 1), got -0.5"),
        ({"val_fraction": 1.0}, "val_fraction must be in [0, 1), got 1.0"),
        ({"val_fraction": float("nan")}, "val_fraction must be in [0, 1), got nan"),
        ({"train_limit": 0}, "train_limit must be >= 1, got 0"),
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
    write_idx(directory / "t10k-labels-idx1-ubyte", np.array([200] * 10, dtype=np.uint8))
    with pytest.raises(IdxFormatError, match=r"test label 200 out of range \[0, 10\)"):
        load_idx(directory)


def test_load_idx_rejects_an_archive_without_training_images(tmp_path):
    with pytest.raises(IdxFormatError, match="no training images"):
        load_idx(_archive(tmp_path, n_train=0))


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
    acc = evaluate(trained, data.train_x, data.train_y)
    assert acc == 1.0


def test_digit_generator_shapes_and_balance():
    images, labels = gen_digit_images(200, seed=0, noise=0.25)
    assert images.shape == (200, 28, 28) and images.dtype == np.uint8
    counts = np.bincount(labels, minlength=10)
    assert counts.min() == counts.max() == 20


def test_digit_archive_loadable(tmp_path):
    make_digit_archive(tmp_path, n_train=60, n_test=20, seed=0, noise=0.25)
    split = load_idx(tmp_path, val_fraction=0.1, seed=0)
    assert split.n_features == 784
    assert split.n_classes == 10
    again, _ = gen_digit_images(60, seed=0, noise=0.25)
    assert read_idx(tmp_path / "train-images-idx3-ubyte", 3).tobytes() == again.tobytes()


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


def test_digit_generator_bytes_are_pinned_across_blocks():
    n = 1000
    assert n % DIGIT_BLOCK_ROWS and n > 2 * DIGIT_BLOCK_ROWS  # full blocks, then a partial one
    images, labels = gen_digit_images(n, seed=3, noise=0.5)
    digest = hashlib.sha256(images.tobytes() + labels.tobytes()).hexdigest()
    assert digest == "c9740f1b5066363dca0589f010aabb71ded192c0cdb8253bc29495af8d4ff2aa"


@pytest.mark.parametrize("n", [2000, 6000])
def test_digit_generator_builds_the_images_in_fixed_blocks(n):
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        gen_digit_images(n, seed=0, noise=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # beyond the uint8 images and the labels, one float64 block, a class's rows of it and the
    # templates: about 1.2 blocks for any n, where one buffer of all n images was 1.1 * n / 256 blocks
    float_block = DIGIT_BLOCK_ROWS * 28 * 28 * 8
    assert peak - before - n * (28 * 28 + 3 * 8) < 1.5 * float_block


def _is_pixel_scaling(node) -> bool:
    """A division by 255."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        divisor = node.right if isinstance(node, ast.BinOp) else node.value
        return isinstance(divisor, ast.Constant) and divisor.value == 255
    return False


def _is_float_features_call(node) -> bool:
    """A call of ``float_features`` by its bare name or as a module's attribute."""
    return isinstance(node, ast.Call) and "float_features" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_pixels_are_scaled_only_by_float_features():
    scalings = [(path, line, function) for path, text in modules() for line, function in sites(text, _is_pixel_scaling)]
    assert [(path, function) for path, _, function in scalings] == [(Path("data.py"), "float_features")], scalings


def test_the_kernel_is_the_one_caller_of_float_features():
    # the guard sees both spellings of a call, and not a mere mention
    source = "def f(x):\n    return float_features(x)\ndef g(x):\n    return data.float_features(x)\nh = float_features\n"
    assert sites(source, _is_float_features_call) == [(2, "f"), (4, "g")]
    calls = [(path, line, function) for path, text in modules() for line, function in sites(text, _is_float_features_call)]
    assert [(path, function) for path, _, function in calls] == [(Path("masking.py"), "mlp_activations")], calls
