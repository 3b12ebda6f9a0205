"""Random subnetwork sampling with engineered per-layer keep ratios.

Variant rules (L = layer count, layers indexed 1..L):

    v1  smooth polynomial decay across layers 1..L-1; the last layer keeps
        ``last_layer_keep`` (default ``LAST_LAYER_KEEP``)
    v2  v1 ratios for interior layers, a reference mining profile for 1 and L
    v3  v1 ratios for interior layers, layers 1 and L fully dense
    v4  a reference magnitude-pruning profile rescaled to the target
    v5  v2 ratios refined by stochastic descent on the sampled-mask loss
    v6  v4 ratios refined the same way

Given ratios, each layer keeps exactly floor(ratio * params) uniformly
random weights.
"""

from __future__ import annotations

import math

import numpy as np

from ..data import DatasetSplit
from ..masking import (
    SCALED_NORMAL,
    STREAM_SAMPLING,
    NetworkSpec,
    init_weights,
    loss_and_grads,
    stream_rng,
)
from ..trainer import RunReport
from .common import LayerRatios, MiningResult, keep_at_least_one, mining_result

VARIANTS = ("v1", "v2", "v3", "v4", "v5", "v6")
REFERENCE_VARIANTS = ("v2", "v5")  # built on a reference mining profile
IMP_PROFILE_VARIANTS = ("v4", "v6")  # built on a magnitude-pruning profile
TUNED_VARIANTS = ("v5", "v6")  # whose ratios tune_ratios refines
MIN_RATIO = 1e-3
TUNE_BATCH_SIZE = 64
# the defaults of the sr.last_layer_keep, sr.tune_steps and sr.tune_lr config keys
LAST_LAYER_KEEP = 0.3
TUNE_STEPS = 50
TUNE_LR = 0.01


def check_smart_ratio_settings(
    spec: NetworkSpec, variant: str, reference_profile: LayerRatios | None, imp_profile: LayerRatios | None, last_layer_keep: float,
    tune_steps: int, tune_lr: float,
) -> None:
    """Raise ``ValueError`` unless ``smart_ratio`` can run with these settings.

    A missing magnitude-pruning profile is not checked here: it may come from
    an IMP run made after the settings are read, and ``smart_ratio`` checks
    that it is given. A given one used by v4/v6 needs one ratio per layer.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if not (0.0 < last_layer_keep <= 1.0):
        raise ValueError(f"last layer keep must be in (0, 1], got {last_layer_keep}")
    if variant in REFERENCE_VARIANTS and reference_profile is None:
        raise ValueError(f"{variant} needs a reference mining profile")
    if variant in IMP_PROFILE_VARIANTS and imp_profile is not None and len(imp_profile) != spec.n_layers:
        raise ValueError(f"{variant} needs a magnitude-pruning profile of {spec.n_layers} ratios, got {len(imp_profile)}")
    if variant in TUNED_VARIANTS and tune_steps < 1:
        raise ValueError(f"{variant} tunes its ratios: tune steps must be >= 1, got {tune_steps}")
    if variant in TUNED_VARIANTS and not tune_lr > 0:
        raise ValueError(f"{variant} tunes its ratios: tune learning rate must be > 0, got {tune_lr}")


def _fill_to_budget(weights_per_layer: list[int], raw: list[float], budget: float) -> list[float]:
    """Scale raw ratios so sum(ratio * params) == budget, clamping at 1."""
    ratios = [0.0] * len(raw)
    active = list(range(len(raw)))
    remaining = budget
    while active:
        alpha = remaining / sum(raw[i] * weights_per_layer[i] for i in active)
        overflow = [i for i in active if alpha * raw[i] > 1.0]
        if not overflow:
            for i in active:
                ratios[i] = alpha * raw[i]
            break
        for i in overflow:
            ratios[i] = 1.0
            remaining -= weights_per_layer[i]
            active.remove(i)
    return [min(1.0, max(MIN_RATIO, r)) for r in ratios]


def smooth_ratios(spec: NetworkSpec, target_sparsity: float, last_layer_keep: float = LAST_LAYER_KEEP) -> LayerRatios:
    """Polynomially decaying keep ratios hitting the global target.

    Layer l of L gets a ratio proportional to (L - l + 1)^2 for l < L; the
    last layer is pinned at ``last_layer_keep``.
    """
    n_layers = spec.n_layers
    sizes = [o * i for o, i in spec.layer_shapes]
    total = spec.total_params
    budget = target_sparsity * total - last_layer_keep * sizes[-1]
    budget = max(budget, 0.0)
    raw = [float((n_layers - l + 1) ** 2) for l in range(1, n_layers)]
    interior = _fill_to_budget(sizes[:-1], raw, budget) if n_layers > 1 else []
    return LayerRatios(tuple(interior) + (last_layer_keep,))


def sample_ratio_mask(spec: NetworkSpec, ratios: LayerRatios, seed: int, warnings: list[str]) -> list[np.ndarray]:
    """Uniformly random per-layer masks keeping exactly floor(ratio * params)."""
    if len(ratios) != spec.n_layers:
        raise ValueError(f"{len(ratios)} ratios for {spec.n_layers} layers")
    rng = stream_rng(seed, STREAM_SAMPLING)
    mask = []
    for i, ((fan_out, fan_in), ratio) in enumerate(zip(spec.layer_shapes, ratios.ratios)):
        size = fan_out * fan_in
        kept = keep_at_least_one(math.floor(ratio * size), warnings, f"ratio {ratio:.3g} keeps no weights in layer {i}, clamped to 1")
        flat = np.zeros(size, dtype=bool)
        flat[rng.choice(size, size=kept, replace=False)] = True
        mask.append(flat.reshape(fan_out, fan_in))
    return mask


def tune_ratios(
    p0: LayerRatios,
    weights: list[np.ndarray],
    data: DatasetSplit,
    steps: int,
    lr: float,
    seed: int = 0,
) -> LayerRatios:
    """Stochastic descent on the expected loss of Bernoulli-sampled masks.

    Each step draws a batch of ``TUNE_BATCH_SIZE`` training rows (all of
    them when there are fewer), samples per-layer masks with the current
    keep probabilities, takes the gradient of the batch loss with respect
    to the sampled mask entries, sums it per layer, and moves the keep
    probabilities downhill by ``lr`` times it, so ``lr`` must be finite and
    > 0. Results are clamped to (1e-3, 1].
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not math.isfinite(lr):
        raise ValueError(f"tune learning rate must be finite, got {lr}")
    if lr <= 0:
        raise ValueError(f"tune learning rate must be > 0, got {lr}")
    ratios = np.array(p0.ratios, dtype=np.float64)
    rng = stream_rng(seed, STREAM_SAMPLING)
    n = data.train_x.shape[0]
    for _ in range(steps):
        idx = rng.choice(n, size=min(TUNE_BATCH_SIZE, n), replace=False)
        masks = [rng.random(w.shape) < r for w, r in zip(weights, ratios)]
        _, d_eff = loss_and_grads(data.train_x[idx], data.train_y[idx], [w * m for w, m in zip(weights, masks)])
        grad = np.array([float(np.add.reduce(d * w, axis=None)) for d, w in zip(d_eff, weights)])
        ratios = np.clip(ratios - lr * grad, MIN_RATIO, 1.0)
    return LayerRatios(tuple(ratios))


def smart_ratio(
    spec: NetworkSpec,
    target_sparsity: float,
    variant: str,
    seed: int,
    data: DatasetSplit | None = None,
    weights: list[np.ndarray] | None = None,
    reference_profile: LayerRatios | None = None,
    imp_profile: LayerRatios | None = None,
    last_layer_keep: float = LAST_LAYER_KEEP,
    tune_steps: int = TUNE_STEPS,
    tune_lr: float = TUNE_LR,
    init_scheme: str = SCALED_NORMAL,
) -> MiningResult:
    """Build a random subnetwork from the selected ratio rule.

    v2/v5 need ``reference_profile`` (a mined layerwise profile), v4/v6 need
    ``imp_profile``, and v5/v6 need ``data`` for ratio tuning. The achieved
    global sparsity follows the ratios, which only v1 (and v4's rescaling)
    tie to the requested target.
    """
    check_smart_ratio_settings(spec, variant, reference_profile, imp_profile, last_layer_keep, tune_steps, tune_lr)
    if not (0.0 < target_sparsity <= 1.0):
        raise ValueError(f"target sparsity must be in (0, 1], got {target_sparsity}")
    if variant in IMP_PROFILE_VARIANTS and imp_profile is None:
        raise ValueError(f"{variant} needs a magnitude-pruning profile")
    if variant in TUNED_VARIANTS and data is None:
        raise ValueError(f"{variant} needs data to tune ratios")

    if weights is None:
        weights = init_weights(spec, init_scheme, seed)
    sizes = [o * i for o, i in spec.layer_shapes]

    base = smooth_ratios(spec, target_sparsity, last_layer_keep)
    if variant == "v1":
        ratios = base
    elif variant in REFERENCE_VARIANTS or variant == "v3":
        # v1's ratios with new end ones: the reference profile's, or dense first and last layers for v3
        ends = (1.0,) if variant == "v3" else reference_profile.ratios
        ratios = LayerRatios((ends[0], *base.ratios[1:-1], ends[-1]))
    else:  # IMP_PROFILE_VARIANTS
        assert imp_profile is not None
        ratios = LayerRatios(tuple(_fill_to_budget(sizes, list(imp_profile.ratios), target_sparsity * sum(sizes))))

    if variant in TUNED_VARIANTS:
        assert data is not None
        ratios = tune_ratios(ratios, weights, data, steps=tune_steps, lr=tune_lr, seed=seed)

    report = RunReport()
    mask = sample_ratio_mask(spec, ratios, seed, report.warnings)
    return mining_result(weights, mask, report, data, layer_ratios=ratios)
