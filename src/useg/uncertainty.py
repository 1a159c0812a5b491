"""Shape-irrelevant perturbation pool and entropy uncertainty maps.

Each training image is perturbed Q times with intensity-only transforms
(contrast, brightness, Gaussian blur, Gaussian noise); the per-pixel
entropy of the mean teacher softmax over the Q copies is the uncertainty
map used to weight the old-task distillation loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import losses
from .autodiff import Tensor
from .segnet import forward_batch_nograd

KINDS = ("contrast", "brightness", "gaussian_blur", "gaussian_noise")


class PerturbationError(Exception):
    pass


@dataclass(frozen=True)
class PerturbationSpec:
    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PerturbationError(f"unknown perturbation kind {self.kind!r}")
        if self.kind == "contrast" and self.value <= 0:
            raise PerturbationError("contrast factor must be > 0")
        if self.kind == "gaussian_blur" and self.value <= 0:
            raise PerturbationError("blur sigma must be > 0")
        if self.kind == "gaussian_noise" and self.value < 0:
            raise PerturbationError("noise sigma must be >= 0")


@dataclass(frozen=True)
class PoolConfig:
    p_include: float = 0.5
    contrast_range: tuple = (0.75, 1.25)
    brightness_range: tuple = (-0.1, 0.1)
    blur_sigma_range: tuple = (0.5, 1.5)
    noise_sigma_range: tuple = (0.0, 0.05)

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
        if self.blur_sigma_range[0] <= 0:
            raise PerturbationError("blur sigmas must be > 0")
        if self.noise_sigma_range[0] < 0:
            raise PerturbationError("noise sigmas must be >= 0")


def sample_perturbation(rng: np.random.Generator, cfg: PoolConfig = PoolConfig()):
    """Draw a non-empty perturbation list in the fixed pool order."""
    ranges = (cfg.contrast_range, cfg.brightness_range,
              cfg.blur_sigma_range, cfg.noise_sigma_range)
    while True:
        specs = []
        for kind, (lo, hi) in zip(KINDS, ranges):
            if rng.random() < cfg.p_include:
                specs.append(PerturbationSpec(kind, float(rng.uniform(lo, hi))))
        if specs:
            return specs


def _blur(img: np.ndarray, sigma: float) -> np.ndarray:
    radius = int(np.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kern = np.exp(-0.5 * (offsets / sigma) ** 2)
    kern /= kern.sum()
    out = ndimage.correlate1d(img, kern, axis=-2, mode="nearest")
    return ndimage.correlate1d(out, kern, axis=-1, mode="nearest")


def apply_perturbation(image: np.ndarray, specs,
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """Apply specs in order to a [1,H,W] image; shape is preserved."""
    x = np.asarray(image, dtype=np.float64)
    shape = x.shape
    for spec in specs:
        if spec.kind == "contrast":
            m = x.mean()
            x = m + spec.value * (x - m)
        elif spec.kind == "brightness":
            x = x + spec.value
        elif spec.kind == "gaussian_blur":
            x = _blur(x, spec.value)
        elif spec.kind == "gaussian_noise":
            if spec.value > 0:
                if rng is None:
                    raise PerturbationError("gaussian_noise needs an rng")
                x = x + rng.normal(0.0, spec.value, size=x.shape)
    x = np.clip(x, 0.0, 1.0)
    if x.shape != shape:
        raise PerturbationError(f"perturbation changed the image shape {shape} to {x.shape}")
    if not np.all(np.isfinite(x)):
        raise PerturbationError("perturbation produced non-finite values")
    return x


@dataclass
class UncertaintyMap:
    values: np.ndarray  # [H,W] per-pixel entropy
    num_classes: int

    @property
    def max_entropy(self) -> float:
        return float(np.log(self.num_classes))


def entropy_map(mean_probs: np.ndarray) -> np.ndarray:
    """Per-pixel entropy of a [C,H,W] probability map."""
    p = np.asarray(mean_probs)
    plogp = np.where(p > 0.0, p * np.log(np.maximum(p, 1e-300)), 0.0)
    return np.maximum(-plogp.sum(axis=0), 0.0)


def uncertainty_map(teacher, image: np.ndarray, q: int,
                    rng: np.random.Generator,
                    pool: PoolConfig = PoolConfig()) -> UncertaintyMap:
    """Entropy of the mean teacher softmax over q perturbed copies."""
    if q < 1:
        raise PerturbationError("Q must be >= 1")
    img = image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float64)
    copies = np.stack([apply_perturbation(img, sample_perturbation(rng, pool), rng)
                       for _ in range(q)])
    mean = losses.softmax(forward_batch_nograd(teacher, copies)).mean(axis=0)
    return UncertaintyMap(entropy_map(mean), num_classes=teacher.config.num_classes)


WEIGHT_MODES = ("as-paper", "normalized", "confidence")


def weight_from_uncertainty(u: UncertaintyMap, mode: str = "as-paper") -> np.ndarray:
    """Turn raw entropies into per-pixel old-task loss weights."""
    if mode == "as-paper":
        return u.values.copy()
    if mode == "normalized":
        return u.values / u.max_entropy
    if mode == "confidence":
        return 1.0 - u.values / u.max_entropy
    raise PerturbationError(f"unknown uncertainty weight mode {mode!r}")
