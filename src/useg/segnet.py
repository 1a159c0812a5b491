"""Small fully-convolutional per-pixel classifier with weight persistence.

The same architecture serves as teacher (K+1 output channels) and student
(K+2 channels); `extend_for_increment` warm-starts a student from a frozen
teacher by copying all weights and appending freshly initialized output
rows for the new classes.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .atomic import write_atomic
from .autodiff import Tensor, conv_backward, conv_forward

MAGIC = b"USEG"
VERSION = 1


class ModelError(Exception):
    pass


# The most parameters a model may have. Training holds four float64 vectors
# of that length (weights, gradient and Adam's two moments), 32 MB at this
# bound; the default model has 1 683.
MAX_PARAMS = 1 << 20


def _param_count(widths, k: int) -> int:
    """Weights and biases of k×k convs between consecutive channel `widths`,
    in exact integers: np.prod would wrap in int64 on a huge width."""
    return sum(cout * (cin * k * k + 1) for cin, cout in zip(widths, widths[1:]))


@dataclass(frozen=True)
class SegModelConfig:
    """A model's architecture; `num_params` is its parameter count."""

    num_classes: int
    in_channels: int = 1
    hidden: tuple[int, ...] = (8, 16)
    kernel_size: int = 3

    def __post_init__(self):
        if self.num_classes < 2:
            raise ModelError("num_classes must be >= 2")
        if self.in_channels < 1 or any(w < 1 for w in self.hidden):
            raise ModelError("channel widths must be positive")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise ModelError("kernel size must be odd")
        object.__setattr__(self, "hidden", tuple(self.hidden))
        widths = (self.in_channels,) + self.hidden + (self.num_classes,)
        object.__setattr__(self, "num_params", _param_count(widths, self.kernel_size))
        if self.num_params > MAX_PARAMS:
            raise ModelError(f"the widths and kernel size give {self.num_params} parameters, "
                             f"above the limit of {MAX_PARAMS}")

    def layer_shapes(self):
        widths = (self.in_channels,) + self.hidden + (self.num_classes,)
        k = self.kernel_size
        return [((cout, cin, k, k), (cout,)) for cin, cout in zip(widths, widths[1:])]


class SegModel:
    """The weights of one model: a flat float64 parameter vector `flat`, a
    flat gradient vector `grad` of the same size (None while frozen), and
    per layer a (kernel, bias) pair of `Tensor`s whose `data` and `grad`
    are views into them, in the order k0, b0, k1, b1, ..."""

    def __init__(self, config: SegModelConfig, flat: np.ndarray):
        shapes = [s for pair in config.layer_shapes() for s in pair]
        if flat.shape != (config.num_params,):
            raise ModelError(f"{flat.shape} parameters do not match the config's "
                             f"{config.num_params}")
        if not np.isfinite(flat).all():
            raise ModelError("non-finite values in a parameter")
        self.config = config
        self.flat = flat
        self.grad = np.zeros_like(flat)
        bounds = np.cumsum([0] + [math.prod(s) for s in shapes])
        params = [Tensor(flat[lo:hi].reshape(s), self.grad[lo:hi].reshape(s))
                  for lo, hi, s in zip(bounds, bounds[1:], shapes)]
        self.layers = list(zip(params[::2], params[1::2]))
        self.frozen = False

    def freeze(self):
        self.frozen = True
        self.grad = None
        for p in self.parameters():
            p.grad = None
            p.requires_grad = False

    def parameters(self):
        for kern, bias in self.layers:
            yield kern
            yield bias

    def weights_digest(self) -> bytes:
        return hashlib.sha256(self.flat.tobytes()).digest()


def forward(model: SegModel, x: np.ndarray, cache: bool = True):
    """[N,Cin,H,W] images -> ([N,C,H,W] logits, cache for `backward`).

    Each hidden layer is conv then ReLU, the last a conv. The cache holds
    each layer's input and the unfolded input `conv_forward` returned; a
    hidden layer's ReLU mask is its output > 0, which is the next layer's
    cached input > 0, so it is not stored. With `cache=False` (no gradient
    needed) the cache is None and each layer's unfolded input is freed as
    soon as the layer is done; `infer` calls it so, one chunk at a time.
    """
    x = _images(model, x)
    kept = [] if cache else None
    last = len(model.layers) - 1
    for li, (kern, bias) in enumerate(model.layers):
        out, cols = conv_forward(x, kern.data, bias.data)
        if cache:
            kept.append((x, cols))
        del cols
        x = np.maximum(out, 0.0, out=out) if li < last else out
    return x, kept


# Images per `forward` in `infer`: the no-grad working set is one chunk's
# unfolded inputs (72·H·W floats per image at the 8→16 layer). In a sweep
# of 1-16 (BENCH_infer.json) the time per image did not move, and 4 came
# within 2 MB of the lowest `distill` peak RSS (chunks of 1 and 2, which
# took more page faults); 6 to 16 held 2 to 11 MB more.
INFER_CHUNK = 4


def infer(model: SegModel, x: np.ndarray) -> np.ndarray:
    """[N,Cin,H,W] images -> [N,C,H,W] logits, with no gradient: the one
    entry point for every forward that needs none. It runs `forward` with
    `cache=False` over INFER_CHUNK images at a time into one preallocated
    output. One image's logits do not depend on the other images in its
    batch, so the bytes equal those of one forward over all N."""
    x = _images(model, x)
    n, _, h, w = x.shape
    out = np.empty((n, model.config.num_classes, h, w))
    for lo in range(0, n, INFER_CHUNK):
        out[lo:lo + INFER_CHUNK] = forward(model, x[lo:lo + INFER_CHUNK], cache=False)[0]
    return out


def _images(model: SegModel, x) -> np.ndarray:
    """`x` as float64 [N,Cin,H,W] images for `model`; ModelError otherwise."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[1] != model.config.in_channels:
        raise ModelError(f"expected [N,{model.config.in_channels},H,W], got {x.shape}")
    return x


def backward(model: SegModel, dlogits: np.ndarray, cache) -> None:
    """Fill `model.grad` with the gradient of a loss whose gradient with
    respect to the logits `forward` returned with `cache` is `dlogits`;
    kernel and bias gradients are summed over the batch."""
    if model.frozen:
        raise ModelError("a frozen model has no gradients")
    g = dlogits
    for li in reversed(range(len(model.layers))):
        kern, bias = model.layers[li]
        x, cols = cache[li]
        bias.grad[...] = g.sum(axis=(0, 2, 3))
        gx, gk = conv_backward(g, x, kern.data, cols, li > 0)
        kern.grad[...] = gk
        if li > 0:
            g = gx * (x > 0.0)  # ReLU: x is the previous layer's output


def _glorot_bound(cin: int, cout: int, k: int) -> float:
    fan_in = cin * k * k
    fan_out = cout * k * k
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_random(cfg: SegModelConfig, seed: int) -> SegModel:
    """Glorot-uniform kernels, zero biases, deterministic per seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    parts = []
    for (cout, cin, k, _), bshape in cfg.layer_shapes():
        a = _glorot_bound(cin, cout, k)
        parts += [rng.uniform(-a, a, size=(cout, cin, k, k)).ravel(), np.zeros(bshape)]
    return SegModel(cfg, np.concatenate(parts))


NEW_ROW_SCALE = 0.1  # keeps initial new-class logits small


def extend_for_increment(teacher: SegModel, new_classes: int, seed: int) -> SegModel:
    """Build a trainable student with `new_classes` extra output channels.

    Hidden layers and old output rows are copied from the teacher; new
    rows are drawn as in init_random, scaled down so the student initially
    reproduces the teacher's argmax.
    """
    if new_classes < 0:
        raise ModelError("new_classes must be >= 0")
    cfg = replace(teacher.config, num_classes=teacher.config.num_classes + new_classes)
    student = init_random(cfg, seed)
    pairs = list(zip(teacher.parameters(), student.parameters()))
    for t, s in pairs[:-2]:
        s.data[...] = t.data
    for t, s in pairs[-2:]:  # output kernel and bias
        s.data *= NEW_ROW_SCALE
        s.data[:teacher.config.num_classes] = t.data
    return student


def save(model: SegModel, path) -> None:
    cfg = model.config
    header = [VERSION, cfg.in_channels, len(cfg.hidden), *cfg.hidden,
              cfg.kernel_size, cfg.num_classes]
    write_atomic(path, MAGIC + b"".join(struct.pack("<I", v) for v in header)
                 + model.flat.astype("<f8").tobytes())


def load(path) -> SegModel:
    """Read a `.useg` file, checking each length its header promises first."""
    with open(path, "rb") as f:
        data = f.read()

    def words(pos: int, n: int) -> tuple:
        end = pos + 4 * n
        if end > len(data):
            raise ModelError(f"{path}: expected {end} bytes, got {len(data)}")
        return struct.unpack_from(f"<{n}I", data, pos)

    if data[:4] != MAGIC:
        raise ModelError(f"{path}: bad magic")
    version, in_ch, n_hidden = words(4, 3)
    if version != VERSION:
        raise ModelError(f"{path}: version {version} != {VERSION}")
    hidden = words(16, n_hidden)
    k, classes = words(16 + 4 * n_hidden, 2)
    start = 24 + 4 * n_hidden
    # before the config, which refuses a model above MAX_PARAMS: a corrupted
    # header is told by the length it promises
    size = start + 8 * _param_count((in_ch, *hidden, classes), k)
    if len(data) != size:
        raise ModelError(f"{path}: expected {size} bytes, got {len(data)}")
    try:
        cfg = SegModelConfig(num_classes=classes, in_channels=in_ch,
                             hidden=hidden, kernel_size=k)
    except ModelError as e:
        raise ModelError(f"{path}: inconsistent config: {e}") from e
    return SegModel(cfg, np.frombuffer(data, dtype="<f8", offset=start).astype(np.float64))
