"""Shape-irrelevant perturbation pool and entropy uncertainty maps.

Each training image is perturbed Q times with intensity-only transforms
(contrast, brightness, Gaussian blur, Gaussian noise); the per-pixel
entropy of the mean teacher softmax over the Q copies is the uncertainty
map used to weight the old-task distillation loss.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import losses, segnet


class PerturbationError(Exception):
    pass


# The largest blur σ. `_smooth_rows` holds 2·⌈3σ⌉·H·W floats per copy, 60·H·W
# at this bound (0.5 MB at the default size, whose 32 pixels a radius of 30
# already spans); the default σ is at most 1.5.
MAX_BLUR_SIGMA = 10.0


@dataclass(frozen=True)
class PoolConfig:
    p_include: float = 0.5
    contrast_range: tuple[float, float] = (0.75, 1.25)
    brightness_range: tuple[float, float] = (-0.1, 0.1)
    blur_sigma_range: tuple[float, float] = (0.5, 1.5)
    noise_sigma_range: tuple[float, float] = (0.0, 0.05)

    def __post_init__(self):
        if not 0.0 < self.p_include <= 1.0:
            raise PerturbationError("p_include must be in (0, 1]")
        for name in ("contrast_range", "brightness_range",
                     "blur_sigma_range", "noise_sigma_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise PerturbationError(f"{name}: lo > hi")
        if self.contrast_range[0] <= 0:
            raise PerturbationError("contrast factors must be > 0")
        if not 0 < self.blur_sigma_range[0] <= self.blur_sigma_range[1] <= MAX_BLUR_SIGMA:
            raise PerturbationError(f"blur sigmas must be in (0, {MAX_BLUR_SIGMA}]")
        if self.noise_sigma_range[0] < 0:
            raise PerturbationError("noise sigmas must be >= 0")


@functools.lru_cache(maxsize=64)
def _nearest_pairs(n: int, radius: int) -> np.ndarray:
    """[2r, n] source indices of the tap pairs of a length-n axis: i − d in
    the first r rows and i + d in the last r, for d = r … 1, clamped to
    the edge ("nearest"). Cached: the images share one size, and the radii
    take a handful of values."""
    i = np.arange(n)
    d = np.arange(radius, 0, -1)[:, None]
    return np.clip(np.concatenate([i - d, i + d]), 0, n - 1)


def _smooth_rows(x: np.ndarray, kern: np.ndarray, radius: int) -> np.ndarray:
    """Correlate axis -2 of x with a symmetric kernel of 2r+1 taps, edges
    clamped, folded as ndimage's correlate1d folds it, so the bytes match
    it (the tests compare them): the centre tap times kern[r], then
    (x[i−d] + x[i+d])·kern[r−d] added one by one for d = r … 1. The
    running sum is explicit: on a 1×1 image numpy would sum a stacked tap
    axis pairwise, in another order."""
    taps = np.take(x, _nearest_pairs(x.shape[-2], radius), axis=-2)
    pairs = taps[..., :radius, :, :]
    pairs += taps[..., radius:, :, :]
    pairs *= kern[:radius, None, None]
    # C order like `pairs`, so the adds stream; x may be a transposed view
    out = np.multiply(x, kern[radius], order="C")
    for k in range(radius):  # d = r - k
        out += pairs[..., k, :, :]
    return out


def _blur(img: np.ndarray, sigma: float) -> np.ndarray:
    radius = int(np.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kern = np.exp(-0.5 * (offsets / sigma) ** 2)
    kern /= kern.sum()
    # rows, then columns as rows of the transpose; the result is C-ordered,
    # so later reductions over it sum in the same order as before
    out = _smooth_rows(img, kern, radius).swapaxes(-1, -2)
    return np.ascontiguousarray(_smooth_rows(out, kern, radius).swapaxes(-1, -2))


def apply_perturbation(image: np.ndarray, rng: np.random.Generator,
                       pool: PoolConfig) -> np.ndarray:
    """One perturbed copy of a [1,H,W] image: contrast, brightness, blur and
    noise, in this order, each included with probability `pool.p_include` at
    a strength drawn from its range; redrawn until at least one is included."""
    x = np.asarray(image, dtype=np.float64)
    shape = x.shape
    included = False
    while not included:
        if rng.random() < pool.p_include:
            m = x.mean()
            x = m + rng.uniform(*pool.contrast_range) * (x - m)
            included = True
        if rng.random() < pool.p_include:
            x = x + rng.uniform(*pool.brightness_range)
            included = True
        if rng.random() < pool.p_include:
            x = _blur(x, rng.uniform(*pool.blur_sigma_range))
            included = True
        if rng.random() < pool.p_include:
            if (sigma := rng.uniform(*pool.noise_sigma_range)) > 0:
                x = x + rng.normal(0.0, sigma, size=x.shape)
            included = True
    x = np.clip(x, 0.0, 1.0)
    if x.shape != shape:
        raise PerturbationError(f"perturbation changed the image shape {shape} to {x.shape}")
    if not np.all(np.isfinite(x)):
        raise PerturbationError("perturbation produced non-finite values")
    return x


def entropy_map(mean_probs: np.ndarray) -> np.ndarray:
    """Per-pixel entropy of [..., C, H, W] probability maps."""
    return np.maximum(-losses._xlogx(np.asarray(mean_probs)).sum(axis=-3), 0.0)


def uncertainty_map(teacher, images: np.ndarray, q: int,
                    rng: np.random.Generator,
                    pool: PoolConfig = PoolConfig()) -> np.ndarray:
    """[B,H,W] entropy of the mean teacher softmax over q perturbed copies
    of each of the [B,Cin,H,W] images. The copies are drawn from `rng`
    image by image, in order; one `infer` runs all B·q of them."""
    if q < 1:
        raise PerturbationError("Q must be >= 1")
    copies = np.stack([apply_perturbation(img, rng, pool)
                       for img in np.asarray(images, dtype=np.float64) for _ in range(q)])
    probs = losses.softmax(segnet.infer(teacher, copies))
    return entropy_map(probs.reshape((-1, q) + probs.shape[1:]).mean(axis=1))


# the old-task weight: the raw entropy, confidence 1 − H/log C, or 1 ("off",
# which training applies without computing a map)
MODES = ("as-paper", "confidence", "off")


def weight_from_uncertainty(entropy: np.ndarray, num_classes: int,
                            mode: str = "as-paper") -> np.ndarray:
    """Turn raw entropies into per-pixel old-task loss weights; the
    largest entropy of `num_classes` classes is log C."""
    if mode == "as-paper":
        return entropy.copy()
    if mode == "confidence":
        return 1.0 - entropy / np.log(num_classes)
    raise PerturbationError(f"unknown uncertainty weight mode {mode!r}")
