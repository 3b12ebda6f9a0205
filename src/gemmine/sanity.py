"""Mask sanity variants and layerwise mask analytics, computed in memory.

Each variant keeps one part of a mined network and destroys another, so a
mined network is meaningful when its finetuned accuracy beats each
variant's:
- ``shuffle`` keeps the weights and each layer's kept count, and moves the
  kept positions to random ones within the layer;
- ``reinit`` keeps the whole mask, and redraws the weights from the
  initial distribution;
- ``invert`` keeps the weights and each layer's kept count, and keeps the
  lowest-scoring weights instead of the highest.

``variant_network`` builds every variant: ``run`` and ``gemmine sanity``
both call it, so its seed offsets (``_SHUFFLE_SEED_OFFSET``,
``_REINIT_SEED_OFFSET``) are named only here. Nothing here computes the
verdict: only acceptance criterion 5 checks it, on the ``post_acc`` of the
rows ``run`` writes to ``summary.csv``, with a margin of 0.02 on the mean
over seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .masking import MaskedLayer, NetworkSpec, as_mask, extract_mask, init_weights, select_smallest

SHUFFLE = "shuffle"
REINIT = "reinit"
INVERT = "invert"
VARIANT_KINDS = (SHUFFLE, REINIT, INVERT)
_REINIT_SEED_OFFSET = 7919
_SHUFFLE_SEED_OFFSET = 104729


@dataclass(frozen=True)
class SanityVariant:
    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"sanity variant must be one of {VARIANT_KINDS}, got {self.kind!r}")


def shuffle_mask(mask: Sequence[np.ndarray], seed: int) -> list[np.ndarray]:
    """Permute each layer's mask entries uniformly (``as_mask`` first); kept counts are untouched."""
    rng = np.random.default_rng(seed)
    out = []
    for m in mask:
        flat = as_mask(m).reshape(-1)
        out.append(flat[rng.permutation(flat.size)].reshape(np.shape(m)))
    return out


def reinit_weights(layers: Sequence[MaskedLayer], scheme: str, seed: int) -> list[np.ndarray]:
    """Fresh weights for ``layers``, of their shapes, from the distribution ``init_weights`` draws with ``scheme``."""
    widths = (layers[0].weights.shape[1], *(layer.weights.shape[0] for layer in layers))
    return init_weights(NetworkSpec(widths), scheme, seed)


def invert_scores(scores: Sequence[np.ndarray], reference_mask: Sequence[np.ndarray], warnings: list[str]) -> list[np.ndarray]:
    """Keep the lowest-scoring weights instead of the highest.

    Per layer, exactly as many weights survive as in the reference mask;
    equal scores are kept lowest flat index first. A warning for each
    degenerate, all-equal layer is appended to ``warnings``.
    """
    if len(scores) != len(reference_mask):
        raise ValueError(f"{len(scores)} score tensors for {len(reference_mask)} mask layers")
    out = []
    for i, (p, m) in enumerate(zip(scores, reference_mask)):
        kept = int(np.sum(m))
        flat = p.reshape(-1)
        if flat.size and np.ptp(flat) == 0.0:
            warnings.append(f"inversion degenerate: all scores equal in layer {i}")
        out.append(select_smallest(flat, kept).reshape(p.shape))
    return out


def variant_network(layers: Sequence[MaskedLayer], kind: str, seed: int, scheme: str, warnings: list[str]) -> list[MaskedLayer]:
    """The sanity variant ``kind`` of the network ``layers``, without scores.

    ``reinit`` draws the weights with ``scheme``; ``invert`` ranks the layers'
    ``scores`` and fails on a layer without any. ``seed`` combines the run seed
    with the variant's own seed so that a pinned variant seed shifts the
    transformation deterministically. The variant's warnings (a degenerate
    inversion, kept weights that are 0) are appended to ``warnings``.
    """
    weights, mask = [layer.weights for layer in layers], extract_mask(layers)
    if kind == SHUFFLE:
        mask = shuffle_mask(mask, seed + _SHUFFLE_SEED_OFFSET)
    elif kind == REINIT:
        weights = reinit_weights(layers, scheme, seed + _REINIT_SEED_OFFSET)
    elif kind == INVERT:
        unscored = [i for i, layer in enumerate(layers) if layer.scores is None]
        if unscored:
            raise ValueError(f"layer {unscored[0]} has no scores; score inversion undefined")
        mask = invert_scores([layer.scores for layer in layers], mask, warnings)
    else:
        raise ValueError(f"unknown sanity variant {kind!r}")
    zeros = sum(int((w[m] == 0.0).sum()) for w, m in zip(weights, mask))  # a pre-masked network's pruned weights
    if zeros:
        warnings.append(f"variant {kind}: {zeros} of {sum(int(m.sum()) for m in mask)} kept weights are exactly 0")
    return [MaskedLayer(weights=w, mask=m) for w, m in zip(weights, mask)]


def _layerwise_row(layer_index: int | str, params: int, kept: int) -> dict:
    return {
        "layer_index": layer_index,
        "params": params,
        "kept": kept,
        "keep_fraction": kept / params,
    }


def layerwise_report(mask: Sequence[np.ndarray]) -> list[dict]:
    """Each layer's exact kept count, then a ``global`` row of their sums.

    A row is ``layer_index``, ``params``, ``kept`` and ``keep_fraction``, in
    that order; an empty layer's row has ``kept == 0``.
    """
    rows = [_layerwise_row(i, int(m.size), int(np.count_nonzero(m))) for i, m in enumerate(mask)]
    return rows + [_layerwise_row("global", sum(row["params"] for row in rows), sum(row["kept"] for row in rows))]
