"""Datasets: IDX file loading, synthetic 2-class tasks, and a synthetic
10-class digit-style image task used for desk-scale image experiments.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


class IdxFormatError(ValueError):
    pass


@dataclass
class DatasetSplit:
    """Disjoint train/val/test features with integer labels in [0, n_classes).

    Features are of one of two kinds: float rows, used as they are, or
    uint8 pixel rows (``load_idx``), which the kernel scales to [0, 1] as
    it reads a batch or a split (``masking.mlp_activations``).
    """

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
            if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
                raise ValueError(f"{name}: non-finite feature values")
            if y.size and (y.min() < 0 or y.max() >= self.n_classes):
                raise ValueError(f"{name}: label outside [0, {self.n_classes})")

    @property
    def n_features(self) -> int:
        return self.train_x.shape[1]


def float_features(x: np.ndarray) -> np.ndarray:
    """Feature rows as floats: uint8 pixels scaled to [0, 1] as ``x / 255.0``, float rows as they are, uncopied.

    Other rows, such as int64 or bool, raise ``ValueError``. The kernel is the
    one caller; ``x / 255.0`` has the bits of ``x.astype(np.float64) / 255.0``.
    """
    if x.dtype.kind != "f" and x.dtype != np.uint8:
        raise ValueError(f"features must be uint8 pixels or floating point, got {x.dtype}")
    return x / 255.0 if x.dtype == np.uint8 else x


def read_idx(path: str | Path, ndim: int) -> np.ndarray:
    """Read an IDX file of uint8 items into an array of its ``ndim`` sizes (3 for images, 1 for labels).

    The header is the magic ``0x00000800 + ndim`` then ``ndim`` big-endian u32 sizes,
    and the items fill the rest of the file exactly.
    """
    path = Path(path)
    buf = path.read_bytes()
    header = 4 * (1 + ndim)
    if len(buf) < header:
        raise IdxFormatError(f"{path}: truncated header, need {header} bytes, have {len(buf)}")
    magic, *shape = struct.unpack(f">{1 + ndim}I", buf[:header])
    if magic != 0x800 + ndim:
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x} at offset 0 (expected 0x{0x800 + ndim:08x})")
    count = math.prod(shape)
    if len(buf) < header + count:
        raise IdxFormatError(f"{path}: truncated data, need {header + count} bytes, have {len(buf)}")
    if len(buf) > header + count:
        raise IdxFormatError(f"{path}: {len(buf) - header - count} trailing bytes after {count} items")
    return np.frombuffer(buf, dtype=np.uint8, count=count, offset=header).reshape(shape)


def write_idx(path: str | Path, array: np.ndarray) -> None:
    """Write ``array`` as uint8 items under the header ``read_idx`` reads: its magic and sizes come from the array.

    Raises ``ValueError`` naming ``path``, and writes nothing, if an item is
    not an integer in [0, 255].
    """
    array = np.asarray(array)
    if array.dtype != np.uint8 and not np.all((array >= 0) & (array <= 255) & (array == np.trunc(array))):
        raise ValueError(f"{path}: IDX items must be integers in [0, 255]")
    array = np.ascontiguousarray(array, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + array.ndim}I", 0x800 + array.ndim, *array.shape))
        f.write(array)


def check_split_settings(train_limit: int | None = None, val_fraction: float = 0.0) -> None:
    """Raise ``ValueError`` unless ``load_idx`` can carve a split with these settings."""
    if train_limit is not None and train_limit < 1:
        raise ValueError(f"train_limit must be >= 1, got {train_limit}")
    if not (0.0 <= val_fraction < 1.0):
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")


def _read_idx_pair(directory: Path, split: str, images_name: str, labels_name: str) -> tuple[np.ndarray, np.ndarray]:
    """One split's images and labels, checked to be as many."""
    images, labels = read_idx(directory / images_name, 3), read_idx(directory / labels_name, 1)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(f"{directory}: {images.shape[0]} {split} images but {labels.shape[0]} labels")
    return images, labels


def load_idx(
    directory: str | Path,
    train_limit: int | None = None,
    val_fraction: float = 0.1,
    seed: int = 0,
) -> DatasetSplit:
    """Load an IDX archive directory (conventional train/t10k file names).

    Each split's features are its flattened images as one C-contiguous
    uint8 array of shape (n, rows * cols), 1 byte per pixel; the kernel
    scales the rows it reads to [0, 1].
    Only the selected rows are copied out of the files, whose buffers are
    then freed. A validation split is carved off the shuffled training set
    before ``train_limit`` applies.
    """
    check_split_settings(train_limit, val_fraction)
    directory = Path(directory)
    for name in (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS):
        if not (directory / name).exists():
            raise FileNotFoundError(f"missing IDX file {directory / name}")
    train_images, train_labels = _read_idx_pair(directory, "train", TRAIN_IMAGES, TRAIN_LABELS)
    test_images, test_labels = _read_idx_pair(directory, "test", TEST_IMAGES, TEST_LABELS)
    if test_images.shape[1:] != train_images.shape[1:]:
        raise IdxFormatError(f"{directory}: test images of shape {test_images.shape[1:]}, train images {train_images.shape[1:]}")

    # the training labels give the class count; a test label must be below it
    if train_labels.size == 0:
        raise IdxFormatError(f"{directory}: no training images")
    n_classes = int(train_labels.max()) + 1
    if test_labels.size and int(test_labels.max()) >= n_classes:
        raise IdxFormatError(f"{directory}: test label {int(test_labels.max())} out of range [0, {n_classes})")

    def pixel_rows(images: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # rows * cols, not -1: an empty split has no size to infer it from;
        # indexing by an array copies the rows, so the split holds no view of the file buffer
        return images.reshape(images.shape[0], images.shape[1] * images.shape[2])[idx]

    rng = np.random.default_rng(seed)
    order = rng.permutation(train_images.shape[0])
    n_val = int(round(val_fraction * order.size))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_limit is not None:
        if train_limit > train_idx.size:
            raise ValueError(f"train_limit={train_limit} exceeds {train_idx.size} available rows")
        train_idx = train_idx[:train_limit]

    return DatasetSplit(
        train_x=pixel_rows(train_images, train_idx),
        train_y=train_labels[train_idx].astype(np.int64),
        val_x=pixel_rows(train_images, val_idx),
        val_y=train_labels[val_idx].astype(np.int64),
        test_x=pixel_rows(test_images, np.arange(test_images.shape[0])),
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


def check_synthetic_settings(n: int) -> None:
    """Raise ``ValueError`` unless ``gen_synthetic`` can build a split of ``n`` rows."""
    if n < 10:
        raise ValueError(f"gen_synthetic needs n >= 10, got {n}")


def gen_synthetic(kind: str, n: int, noise: float, seed: int) -> DatasetSplit:
    """Reproducible 2-class planar datasets: ``blobs`` or ``two_moons``."""
    check_synthetic_settings(n)
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    if kind == "blobs":
        center = np.array([1.5, 1.5])
        x0 = -center + noise * rng.standard_normal((n0, 2))
        x1 = center + noise * rng.standard_normal((n1, 2))
    elif kind == "two_moons":
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
DIGIT_BLOCK_ROWS = 256


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


def gen_digit_images(n: int, seed: int, noise: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``n`` labelled uint8 images, balanced across the 10 classes.

    Each pixel is ``round(255 * clip(template + noise * z, 0, 1))`` with
    ``z`` standard normal. The images are built in place in one float64
    buffer of ``DIGIT_BLOCK_ROWS`` images, a block at a time, which draws the
    same normals in the same order as one draw of all ``n``. So beyond the
    uint8 result, the peak is that buffer (``DIGIT_BLOCK_ROWS * 784 * 8``
    bytes) and one class's rows of it, whatever ``n`` is.
    """
    templates = _digit_templates()
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % _N_DIGIT_CLASSES
    labels = labels[rng.permutation(n)]
    out = np.empty((n, _IMG, _IMG), dtype=np.uint8)
    buffer = np.empty((min(n, DIGIT_BLOCK_ROWS), _IMG, _IMG))
    for start in range(0, n, DIGIT_BLOCK_ROWS):
        stop = min(start + DIGIT_BLOCK_ROWS, n)
        block = rng.standard_normal(out=buffer[: stop - start])
        block *= noise
        for cls in range(_N_DIGIT_CLASSES):
            block[labels[start:stop] == cls] += templates[cls]
        np.clip(block, 0.0, 1.0, out=block)
        block *= 255.0
        np.round(block, out=block)
        out[start:stop] = block
    return out, labels.astype(np.uint8)


def make_digit_archive(
    directory: str | Path, n_train: int = 1250, n_test: int = 400, seed: int = 5, noise: float = 1.0
) -> Path:
    """Write a 4-file IDX archive of synthetic digit images: ``n_train`` from ``seed``, ``n_test`` from ``seed + 1``.

    The defaults are the recipe of the archive that ``configs/*.cfg`` read at ``../data/digits``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    train_images, train_labels = gen_digit_images(n_train, seed=seed, noise=noise)
    test_images, test_labels = gen_digit_images(n_test, seed=seed + 1, noise=noise)
    write_idx(directory / TRAIN_IMAGES, train_images)
    write_idx(directory / TRAIN_LABELS, train_labels)
    write_idx(directory / TEST_IMAGES, test_images)
    write_idx(directory / TEST_LABELS, test_labels)
    return directory
