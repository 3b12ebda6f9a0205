"""Binary mask-checkpoint files: the interchange format between miners,
sanity checks, and finetuning.

Layout (all integers little-endian):

    magic "TFMC" | format version u32 (2) | layer count u32
    per layer:
        fan_out u32 | fan_in u32 | has_scores u32 (0 or 1)
        scores   as float32, row-major, only when has_scores is 1
        mask     as packed bitset, row-major, LSB-first
        weights  as float32, row-major

The bitset is the mask, and the scores are what ``invert`` ranks. A file
of any other version is refused.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .masking import MaskedLayer

MAGIC = b"TFMC"
FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str | Path, layers: Sequence[MaskedLayer]) -> None:
    """Write ``layers`` to ``path`` as a version 2 checkpoint."""
    blobs = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(layers))]
    for layer in layers:
        fan_out, fan_in = layer.weights.shape
        blobs.append(struct.pack("<III", fan_out, fan_in, layer.scores is not None))
        if layer.scores is not None:
            blobs.append(np.ascontiguousarray(layer.scores, dtype="<f4").tobytes())
        blobs.append(np.packbits(layer.mask.reshape(-1), bitorder="little").tobytes())
        blobs.append(np.ascontiguousarray(layer.weights, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(blobs))


def _take(buf: bytes, offset: int, count: int, what: str) -> tuple[bytes, int]:
    if offset + count > len(buf):
        raise CheckpointError(
            f"truncated checkpoint: need {count} bytes for {what} at offset {offset}, "
            f"file has {len(buf)}"
        )
    return buf[offset : offset + count], offset + count


def load_checkpoint(path: str | Path) -> list[MaskedLayer]:
    """Read a version 2 checkpoint; raise ``CheckpointError`` for any other file."""
    buf = Path(path).read_bytes()
    raw, off = _take(buf, 0, 4, "magic")
    if raw != MAGIC:
        raise CheckpointError(f"bad magic {raw!r} at offset 0 (expected {MAGIC!r})")
    raw, off = _take(buf, off, 8, "header")
    version, n_layers = struct.unpack("<II", raw)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {FORMAT_VERSION}")
    layers: list[MaskedLayer] = []
    for idx in range(n_layers):
        raw, off = _take(buf, off, 8, f"layer {idx} shape")
        fan_out, fan_in = struct.unpack("<II", raw)
        n = fan_out * fan_in
        raw, off = _take(buf, off, 4, f"layer {idx} has_scores")
        (has_scores,) = struct.unpack("<I", raw)
        if has_scores > 1:
            raise CheckpointError(f"layer {idx} has_scores is {has_scores}, not 0 or 1")
        scores = None
        if has_scores:
            raw, off = _take(buf, off, 4 * n, f"layer {idx} scores")
            scores = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(fan_out, fan_in)
        raw, off = _take(buf, off, (n + 7) // 8, f"layer {idx} mask bitset")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n, bitorder="little")
        mask = bits.astype(bool).reshape(fan_out, fan_in)
        raw, off = _take(buf, off, 4 * n, f"layer {idx} weights")
        weights = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(fan_out, fan_in)
        layers.append(MaskedLayer(weights=weights, mask=mask, scores=scores))
    if off != len(buf):
        raise CheckpointError(f"{len(buf) - off} trailing bytes after layer {n_layers - 1}")
    return layers
