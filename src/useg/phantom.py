"""Synthetic multi-organ phantoms and their on-disk dataset layout.

Each phantom is a grid with M non-overlapping elliptical "organs" on a
dark background, each organ with a characteristic intensity. Full label
maps can be reduced to the partial views used for training: first-K
organs (teacher data) or a single organ with everything else as
background (incremental data).
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_atomic


class PhantomError(Exception):
    pass


# 16x the default size; a sample's image and labels hold 16·size² bytes
MAX_SIZE = 512


@dataclass(frozen=True)
class PhantomConfig:
    size: int = 32
    num_organs: int = 3
    organ_means: tuple[float, ...] = (0.35, 0.6, 0.85)
    noise_sigma: float = 0.03
    radius_range: tuple[float, float] = (2.5, 5.0)
    seed: int = 0

    def __post_init__(self):
        if self.num_organs < 1:
            raise PhantomError("need at least one organ")
        if len(self.organ_means) != self.num_organs:
            raise PhantomError("organ_means length must equal num_organs")
        if self.noise_sigma < 0:
            raise PhantomError("noise_sigma must be >= 0")
        if self.radius_range[0] < 1.7:
            raise PhantomError("minimum radius too small for the 9-pixel organ floor")
        if self.radius_range[0] > self.radius_range[1]:
            raise PhantomError("radius_range: lo > hi")
        if self.size > MAX_SIZE:
            raise PhantomError(f"size {self.size} exceeds the largest size, {MAX_SIZE}")
        if self.size < 2 * self.radius_range[1] + 1:
            raise PhantomError(f"size {self.size} cannot place an organ of radius up to "
                               f"{self.radius_range[1]}: need at least 2·radius + 1")
        object.__setattr__(self, "organ_means", tuple(self.organ_means))
        object.__setattr__(self, "radius_range", tuple(self.radius_range))


@dataclass
class PhantomSample:
    image: np.ndarray   # [1,H,W] float64 in [0,1]
    labels: np.ndarray  # [H,W] int, 0 = background


MAX_PLACEMENT_ATTEMPTS = 1000
BACKGROUND_MEAN = 0.1  # the intensity of every pixel outside the organs, before noise


def _ellipse_mask(grid, cy: float, cx: float, ry: float, rx: float) -> np.ndarray:
    """Pixels of the ellipse on `grid`, the (row, column) coordinate pair
    of `np.ogrid` for the phantom size."""
    yy, xx = grid
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def _generate_sample(cfg: PhantomConfig, rng: np.random.Generator, grid) -> PhantomSample:
    labels = np.zeros((cfg.size, cfg.size), dtype=np.int64)
    occupied = np.zeros((cfg.size, cfg.size), dtype=bool)
    lo, hi = cfg.radius_range
    for organ in range(1, cfg.num_organs + 1):
        for attempt in range(MAX_PLACEMENT_ATTEMPTS):
            ry, rx = rng.uniform(lo, hi, size=2)
            cy = rng.uniform(ry, cfg.size - 1 - ry)
            cx = rng.uniform(rx, cfg.size - 1 - rx)
            mask = _ellipse_mask(grid, cy, cx, ry, rx)
            if mask.sum() >= 9 and not (mask & occupied).any():
                labels[mask] = organ
                occupied |= mask
                break
        else:
            raise PhantomError(
                f"could not place organ {organ} after {MAX_PLACEMENT_ATTEMPTS} attempts")
    image = np.full((cfg.size, cfg.size), BACKGROUND_MEAN)
    for organ, mean in enumerate(cfg.organ_means, start=1):
        image[labels == organ] = mean
    if cfg.noise_sigma > 0:
        image = image + rng.normal(0.0, cfg.noise_sigma, size=image.shape)
    image = np.clip(image, 0.0, 1.0)
    return PhantomSample(image=image[None], labels=labels)


def generate_dataset(cfg: PhantomConfig, n: int) -> list:
    """n i.i.d. phantoms, deterministic per cfg.seed (per-sample substreams)."""
    if n < 1:
        raise PhantomError("n must be >= 1")
    root = np.random.SeedSequence(cfg.seed)
    grid = np.ogrid[0:cfg.size, 0:cfg.size]
    return [_generate_sample(cfg, np.random.Generator(np.random.PCG64(ss)), grid)
            for ss in root.spawn(n)]


def to_single_organ(sample: PhantomSample, organ: int, num_organs: int) -> PhantomSample:
    """Keep one organ as class 1; every other pixel becomes background."""
    if not 1 <= organ <= num_organs:
        raise PhantomError(f"organ id {organ} out of range 1..{num_organs}")
    return PhantomSample(image=sample.image,
                         labels=(sample.labels == organ).astype(np.int64))


def to_first_k_organs(sample: PhantomSample, k: int, num_organs: int) -> PhantomSample:
    """Keep organ ids 1..k; organs above k become background."""
    if k > num_organs or k < 0:
        raise PhantomError(f"k={k} out of range 0..{num_organs}")
    labels = np.where(sample.labels <= k, sample.labels, 0)
    return PhantomSample(image=sample.image, labels=labels)


# -- PGM I/O ------------------------------------------------------------------

def write_pgm(values: np.ndarray, path, maxval: int) -> None:
    """Binary PGM (P5). maxval <= 255 writes u8, else big-endian u16."""
    arr = np.asarray(values)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 2:
        raise PhantomError(f"cannot write array of shape {values.shape} as PGM")
    if not 0 < maxval < 65536:
        raise PhantomError("maxval must be in 1..65535")
    if np.issubdtype(arr.dtype, np.floating):
        quant = np.rint(arr * maxval).astype(np.int64)
    else:
        quant = arr.astype(np.int64)
    if quant.min() < 0 or quant.max() > maxval:
        raise PhantomError("values out of PGM range")
    h, w = arr.shape
    dtype = ">u2" if maxval > 255 else "u1"
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        f.write(quant.astype(dtype).tobytes())


# P5, then width, height and maxval as 1-9 ASCII digits, each after
# whitespace or `#` comment lines; one whitespace byte ends the header
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+([0-9]{1,9})" * 3 + rb"\s")


def read_pgm(path) -> tuple:
    """Read binary PGM; returns (array of ints [H,W], maxval)."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise PhantomError(f"{path}: not a binary PGM")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise PhantomError(f"{path}: malformed or truncated header")
    w, h, maxval = map(int, header.groups())
    if w <= 0 or h <= 0 or not 0 < maxval < 65536:
        raise PhantomError(f"{path}: bad dimensions or maxval")
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    expected = w * h * dtype.itemsize
    raster = data[header.end():header.end() + expected]
    if len(raster) != expected:
        raise PhantomError(f"{path}: raster truncated ({len(raster)} of {expected} bytes)")
    arr = np.frombuffer(raster, dtype=dtype).reshape(h, w).astype(np.int64)
    if arr.max() > maxval:
        raise PhantomError(f"{path}: raster value {arr.max()} above maxval {maxval}")
    return arr, maxval


IMAGE_MAXVAL = 65535


def image_to_pgm(image: np.ndarray, path) -> None:
    write_pgm(image, path, IMAGE_MAXVAL)


def image_from_pgm(path) -> np.ndarray:
    arr, maxval = read_pgm(path)
    return (arr / maxval)[None]


# -- dataset directory layout -------------------------------------------------

def split_indices(n: int) -> tuple:
    """Deterministic 4:1 train/test split by index."""
    n_train = (n * 4) // 5
    return list(range(n_train)), list(range(n_train, n))


def _phantom_section(cfg: PhantomConfig) -> dict:
    """`cfg` as the manifest's phantom section holds it, tuples as lists."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def write_dataset(root, cfg: PhantomConfig, samples) -> None:
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "labels_full").mkdir(exist_ok=True)
    for k in range(1, cfg.num_organs + 1):
        (root / f"labels_organ{k}").mkdir(exist_ok=True)
    for i, s in enumerate(samples):
        image_to_pgm(s.image, root / "images" / f"{i}.pgm")
        write_pgm(s.labels, root / "labels_full" / f"{i}.pgm", cfg.num_organs)
        for k in range(1, cfg.num_organs + 1):
            view = to_single_organ(s, k, cfg.num_organs)
            write_pgm(view.labels, root / f"labels_organ{k}" / f"{i}.pgm", 1)
    train, test = split_indices(len(samples))
    manifest = {
        "phantom": _phantom_section(cfg),
        "num_samples": len(samples),
        "train_indices": train,
        "test_indices": test,
    }
    write_atomic(root / "manifest.json", (json.dumps(manifest, indent=2) + "\n").encode())


def read_manifest(root) -> dict:
    path = Path(root) / "manifest.json"
    if not path.exists():
        raise PhantomError(f"no manifest.json under {root}")
    try:
        manifest = json.loads(path.read_text())
    except (ValueError, RecursionError) as e:  # not UTF-8 or JSON, or nested too deep
        raise PhantomError(f"corrupt manifest at {path}: {e}") from e
    if not isinstance(manifest, dict):
        raise PhantomError(f"manifest at {path} is not an object")
    for key in ("phantom", "num_samples", "train_indices", "test_indices"):
        if key not in manifest:
            raise PhantomError(f"manifest missing key {key!r}")
    n = manifest["num_samples"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise PhantomError(f"manifest num_samples must be a positive integer, got {n!r}")
    split = [manifest["train_indices"], manifest["test_indices"]]
    if not all(isinstance(part, list) and all(
            isinstance(i, int) and not isinstance(i, bool) for i in part) for part in split):
        raise PhantomError("manifest train/test indices must be lists of integers")
    if not all(split):
        raise PhantomError("manifest train and test splits must each hold at least one sample")
    # the lengths first: `range(n)` of a huge n is not a list to build
    if len(split[0]) + len(split[1]) != n or sorted(split[0] + split[1]) != list(range(n)):
        raise PhantomError(f"manifest train and test indices must be disjoint and "
                           f"cover samples 0..{n - 1} exactly")
    return manifest


def load_dataset(root, cfg: PhantomConfig, split: str,
                 organ: int | None = None) -> list[PhantomSample]:
    """The `split` ("train" or "test") samples of the dataset written for
    `cfg`, with full labels or, given `organ`, that organ's single-organ
    labels. No other raster is opened. The manifest's phantom section is
    compared with `cfg`, not parsed."""
    root = Path(root)
    manifest = read_manifest(root)
    if manifest["phantom"] != _phantom_section(cfg):
        raise PhantomError("dataset manifest does not match the phantom config; "
                           "regenerate the dataset")
    labels_dir = "labels_full" if organ is None else f"labels_organ{organ}"
    maxval = cfg.num_organs if organ is None else 1
    samples = []
    for i in manifest[f"{split}_indices"]:
        image_path = root / "images" / f"{i}.pgm"
        label_path = root / labels_dir / f"{i}.pgm"
        image = image_from_pgm(image_path)
        labels, label_maxval = read_pgm(label_path)
        for path, raster in ((image_path, image[0]), (label_path, labels)):
            if raster.shape != (cfg.size, cfg.size):
                raise PhantomError(f"{path}: raster is {raster.shape[0]}x{raster.shape[1]}, "
                                   f"but the manifest's size is {cfg.size}")
        if label_maxval != maxval:
            raise PhantomError(f"{label_path}: maxval {label_maxval}, expected {maxval}")
        samples.append(PhantomSample(image=image, labels=labels))
    return samples
