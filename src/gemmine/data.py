"""Datasets: IDX file loading, synthetic 2-class tasks, and a synthetic
10-class digit-style image task used for desk-scale image experiments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


class IdxFormatError(ValueError):
    pass


@dataclass
class DatasetSplit:
    """Disjoint train/val/test features with integer labels in [0, n_classes)."""

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.train_x.shape[0] == 0:
            raise ValueError("train: no rows")
        for name in ("train", "val", "test"):
            x = getattr(self, f"{name}_x")
            y = getattr(self, f"{name}_y")
            if x.shape[0] != y.shape[0]:
                raise ValueError(f"{name}: {x.shape[0]} feature rows but {y.shape[0]} labels")
            if x.size and not np.all(np.isfinite(x)):
                raise ValueError(f"{name}: non-finite feature values")
            if y.size and (y.min() < 0 or y.max() >= self.n_classes):
                raise ValueError(f"{name}: label outside [0, {self.n_classes})")

    @property
    def n_features(self) -> int:
        return self.train_x.shape[1]


def _read_u32be(buf: bytes, offset: int, path: Path, what: str) -> int:
    if offset + 4 > len(buf):
        raise IdxFormatError(f"{path}: truncated reading {what} at offset {offset}")
    return struct.unpack(">I", buf[offset : offset + 4])[0]


def read_idx_images(path: str | Path) -> np.ndarray:
    """Read an IDX image file into a uint8 array of shape (count, rows, cols)."""
    path = Path(path)
    buf = path.read_bytes()
    magic = _read_u32be(buf, 0, path, "magic")
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x} at offset 0 (expected 0x{IDX_IMAGE_MAGIC:08x})")
    count = _read_u32be(buf, 4, path, "item count")
    rows = _read_u32be(buf, 8, path, "row count")
    cols = _read_u32be(buf, 12, path, "column count")
    need = 16 + count * rows * cols
    if len(buf) < need:
        raise IdxFormatError(f"{path}: truncated pixel data, need {need} bytes, have {len(buf)}")
    return np.frombuffer(buf, dtype=np.uint8, count=count * rows * cols, offset=16).reshape(count, rows, cols)


def read_idx_labels(path: str | Path) -> np.ndarray:
    path = Path(path)
    buf = path.read_bytes()
    magic = _read_u32be(buf, 0, path, "magic")
    if magic != IDX_LABEL_MAGIC:
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x} at offset 0 (expected 0x{IDX_LABEL_MAGIC:08x})")
    count = _read_u32be(buf, 4, path, "item count")
    need = 8 + count
    if len(buf) < need:
        raise IdxFormatError(f"{path}: truncated label data, need {need} bytes, have {len(buf)}")
    return np.frombuffer(buf, dtype=np.uint8, count=count, offset=8)


def write_idx_images(path: str | Path, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path: str | Path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def check_split_settings(train_limit: int | None, val_fraction: float) -> None:
    """Raise ``ValueError`` unless ``load_idx`` can carve a split with these settings."""
    if train_limit is not None and train_limit < 0:
        raise ValueError(f"train_limit must be >= 0, got {train_limit}")
    if not (0.0 <= val_fraction < 1.0):
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")


def load_idx(
    directory: str | Path,
    train_limit: int | None = None,
    val_fraction: float = 0.1,
    seed: int = 0,
    expected_classes: int | None = None,
) -> DatasetSplit:
    """Load an IDX archive directory (conventional train/t10k file names).

    Pixels are scaled to [0, 1] and flattened; a validation split is carved
    off the shuffled training set before ``train_limit`` applies.
    """
    check_split_settings(train_limit, val_fraction)
    directory = Path(directory)
    for name in (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS):
        if not (directory / name).exists():
            raise FileNotFoundError(f"missing IDX file {directory / name}")
    train_images = read_idx_images(directory / TRAIN_IMAGES)
    train_labels = read_idx_labels(directory / TRAIN_LABELS)
    test_images = read_idx_images(directory / TEST_IMAGES)
    test_labels = read_idx_labels(directory / TEST_LABELS)
    if train_images.shape[0] != train_labels.shape[0]:
        raise IdxFormatError(
            f"{directory}: {train_images.shape[0]} train images but {train_labels.shape[0]} labels"
        )

    n_classes = expected_classes if expected_classes is not None else int(train_labels.max()) + 1
    for which, labels in (("train", train_labels), ("test", test_labels)):
        if labels.size and int(labels.max()) >= n_classes:
            raise IdxFormatError(
                f"{directory}: {which} label {int(labels.max())} out of range [0, {n_classes})"
            )

    def flatten(images: np.ndarray) -> np.ndarray:
        # rows * cols, not -1: an empty split has no size to infer it from
        return images.reshape(images.shape[0], images.shape[1] * images.shape[2]).astype(np.float64) / 255.0

    rng = np.random.default_rng(seed)
    order = rng.permutation(train_images.shape[0])
    n_val = int(round(val_fraction * order.size))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_limit is not None:
        if train_limit > train_idx.size:
            raise ValueError(f"train_limit={train_limit} exceeds {train_idx.size} available rows")
        train_idx = train_idx[:train_limit]

    return DatasetSplit(
        train_x=flatten(train_images[train_idx]),
        train_y=train_labels[train_idx].astype(np.int64),
        val_x=flatten(train_images[val_idx]),
        val_y=train_labels[val_idx].astype(np.int64),
        test_x=flatten(test_images),
        test_y=test_labels.astype(np.int64),
        n_classes=n_classes,
    )


def _stratified_split(x: np.ndarray, y: np.ndarray, seed: int) -> DatasetSplit:
    # 60/20/20 per class, so each split stays balanced to within 1
    rng = np.random.default_rng(seed)
    parts = {"train": [], "val": [], "test": []}
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        n_train = int(round(0.6 * idx.size))
        n_val = int(round(0.2 * idx.size))
        parts["train"].append(idx[:n_train])
        parts["val"].append(idx[n_train : n_train + n_val])
        parts["test"].append(idx[n_train + n_val :])
    sel = {k: np.concatenate(v) for k, v in parts.items()}
    return DatasetSplit(
        train_x=x[sel["train"]],
        train_y=y[sel["train"]],
        val_x=x[sel["val"]],
        val_y=y[sel["val"]],
        test_x=x[sel["test"]],
        test_y=y[sel["test"]],
        n_classes=int(y.max()) + 1,
    )


def gen_synthetic(kind: str, n: int, noise: float, seed: int) -> DatasetSplit:
    """Reproducible 2-class planar datasets: ``blobs`` or ``two_moons``."""
    if n < 10:
        raise ValueError(f"gen_synthetic needs n >= 10, got {n}")
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    if kind == "blobs":
        center = np.array([1.5, 1.5])
        x0 = -center + noise * rng.standard_normal((n0, 2))
        x1 = center + noise * rng.standard_normal((n1, 2))
    elif kind in ("two_moons", "two-moons"):
        t0 = rng.random(n0) * np.pi
        t1 = rng.random(n1) * np.pi
        x0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
        x1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
        x0 += noise * rng.standard_normal(x0.shape)
        x1 += noise * rng.standard_normal(x1.shape)
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    x = np.concatenate([x0, x1]).astype(np.float64)
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return _stratified_split(x, y, seed)


# ---------------------------------------------------------------------------
# Synthetic digit-style images: 10 classes on a 28x28 canvas. Class structure
# lives in the central region; border pixels carry noise only, mimicking the
# dead-border layout of handwritten-digit data.
# ---------------------------------------------------------------------------

_TEMPLATE_SEED = 988561
_IMG = 28
_N_DIGIT_CLASSES = 10


def _digit_templates() -> np.ndarray:
    rng = np.random.default_rng(_TEMPLATE_SEED)
    yy, xx = np.mgrid[0:_IMG, 0:_IMG]
    templates = np.zeros((_N_DIGIT_CLASSES, _IMG, _IMG))
    for cls in range(_N_DIGIT_CLASSES):
        canvas = np.zeros((_IMG, _IMG))
        for _ in range(4):
            cy = rng.uniform(7, 21)
            cx = rng.uniform(7, 21)
            width = rng.uniform(1.2, 2.6)
            amp = rng.uniform(0.6, 1.0)
            canvas += amp * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width**2)))
        templates[cls] = np.clip(canvas, 0.0, 1.0)
    return templates


def gen_digit_images(n: int, seed: int, noise: float = 0.25) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``n`` labelled uint8 images, balanced across the 10 classes."""
    templates = _digit_templates()
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % _N_DIGIT_CLASSES
    labels = labels[rng.permutation(n)]
    images = templates[labels] + noise * rng.standard_normal((n, _IMG, _IMG))
    images = np.clip(images, 0.0, 1.0)
    return (images * 255.0).round().astype(np.uint8), labels.astype(np.uint8)


def make_digit_archive(directory: str | Path, n_train: int, n_test: int, seed: int = 0, noise: float = 0.25) -> Path:
    """Write a 4-file IDX archive of synthetic digit images."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    train_images, train_labels = gen_digit_images(n_train, seed=seed, noise=noise)
    test_images, test_labels = gen_digit_images(n_test, seed=seed + 1, noise=noise)
    write_idx_images(directory / TRAIN_IMAGES, train_images)
    write_idx_labels(directory / TRAIN_LABELS, train_labels)
    write_idx_images(directory / TEST_IMAGES, test_images)
    write_idx_labels(directory / TEST_LABELS, test_labels)
    return directory
