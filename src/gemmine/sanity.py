"""Mask sanity transformations and layerwise mask analytics, computed in memory.

The transformations destroy everything about a mask except its layerwise
sparsity profile, so a mined mask is meaningful when its finetuned accuracy
beats each variant's. Nothing here computes that verdict: only acceptance
criterion 5 checks it, with a margin of 0.02 on the mean over seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .masking import MaskedLayer, NetworkSpec, as_mask, init_weights, select_smallest

SHUFFLE = "shuffle"
REINIT = "reinit"
INVERT = "invert"
VARIANT_KINDS = (SHUFFLE, REINIT, INVERT)


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


def reinit_weights(
    layers: Sequence[MaskedLayer], spec: NetworkSpec, scheme: str, seed: int
) -> list[MaskedLayer]:
    """Fresh weights from the original distribution; mask and scores untouched."""
    fresh = init_weights(spec, scheme, seed)
    return [replace(layer, weights=w) for layer, w in zip(layers, fresh)]


def invert_scores(
    scores: Sequence[np.ndarray], reference_mask: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], list[str]]:
    """Keep the lowest-scoring weights instead of the highest.

    Per layer, exactly as many weights survive as in the reference mask;
    equal scores are kept lowest flat index first.
    Returns the inverted mask plus warnings for degenerate all-equal layers.
    """
    if len(scores) != len(reference_mask):
        raise ValueError(f"{len(scores)} score tensors for {len(reference_mask)} mask layers")
    warnings: list[str] = []
    out = []
    for i, (p, m) in enumerate(zip(scores, reference_mask)):
        kept = int(np.sum(m))
        flat = p.reshape(-1)
        if flat.size and np.ptp(flat) == 0.0:
            warnings.append(f"inversion degenerate: all scores equal in layer {i}")
        out.append(select_smallest(flat, kept).reshape(p.shape))
    return out, warnings


def _layerwise_row(layer_index: int | str, params: int, kept: int) -> dict:
    return {
        "layer_index": layer_index,
        "params": params,
        "kept": kept,
        "keep_fraction": kept / params,
        "collapsed": kept == 0,
    }


def layerwise_report(mask: Sequence[np.ndarray]) -> list[dict]:
    """Each layer's exact kept count, then a ``global`` row of their sums.

    A row is ``layer_index``, ``params``, ``kept``, ``keep_fraction`` and
    ``collapsed`` (nothing kept), in that order.
    """
    rows = [_layerwise_row(i, int(m.size), int(np.count_nonzero(m))) for i, m in enumerate(mask)]
    return rows + [_layerwise_row("global", sum(row["params"] for row in rows), sum(row["kept"] for row in rows))]
