"""Small fully-convolutional per-pixel classifier with weight persistence.

The same architecture serves as teacher (K+1 output channels) and student
(K+2 channels); `extend_for_increment` warm-starts a student from a frozen
teacher by copying all weights and appending freshly initialized output
rows for the new classes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, conv2d, conv_forward, relu

MAGIC = b"USEG"
VERSION = 1


class ModelError(Exception):
    pass


class BadMagicError(ModelError):
    pass


class VersionMismatchError(ModelError):
    pass


class TruncatedFileError(ModelError):
    pass


@dataclass(frozen=True)
class SegModelConfig:
    num_classes: int
    in_channels: int = 1
    hidden: tuple = (8, 16)
    kernel_size: int = 3

    def __post_init__(self):
        if self.num_classes < 2:
            raise ModelError("num_classes must be >= 2")
        if self.in_channels < 1 or any(w < 1 for w in self.hidden):
            raise ModelError("channel widths must be positive")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise ModelError("kernel size must be odd")
        object.__setattr__(self, "hidden", tuple(self.hidden))

    def layer_shapes(self):
        widths = (self.in_channels,) + self.hidden + (self.num_classes,)
        k = self.kernel_size
        return [((cout, cin, k, k), (cout,)) for cin, cout in zip(widths, widths[1:])]


class SegModel:
    def __init__(self, config: SegModelConfig, layers, frozen: bool = False):
        expected = config.layer_shapes()
        if len(layers) != len(expected):
            raise ModelError("layer count does not match config")
        for (kern, bias), (ks, bs) in zip(layers, expected):
            if kern.shape != ks or bias.shape != bs:
                raise ModelError(f"layer shape {kern.shape}/{bias.shape} != config {ks}/{bs}")
        self.config = config
        self.layers = list(layers)
        self.frozen = frozen
        self._set_requires_grad(not frozen)

    def _set_requires_grad(self, flag: bool):
        for kern, bias in self.layers:
            for t in (kern, bias):
                t.requires_grad = flag
                t.grad = np.zeros_like(t.data) if flag else None

    def freeze(self):
        self.frozen = True
        self._set_requires_grad(False)

    def parameters(self):
        for kern, bias in self.layers:
            yield kern
            yield bias

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def weights_digest(self) -> bytes:
        import hashlib
        h = hashlib.sha256()
        for p in self.parameters():
            h.update(np.ascontiguousarray(p.data).tobytes())
        return h.digest()

    def forward(self, image: Tensor) -> Tensor:
        """[Cin,H,W] image -> [C,H,W] logits; resolution preserved."""
        if not isinstance(image, Tensor):
            image = Tensor(image)
        if image.data.ndim != 3 or image.shape[0] != self.config.in_channels:
            raise ModelError(f"expected [{self.config.in_channels},H,W] input, got {image.shape}")
        x = image
        for kern, bias in self.layers[:-1]:
            x = relu(conv2d(x, kern, bias))
        kern, bias = self.layers[-1]
        return conv2d(x, kern, bias)


def forward_batch_nograd(model: SegModel, images: np.ndarray) -> np.ndarray:
    """Plain-numpy batched forward: [N,Cin,H,W] -> [N,C,H,W] logits.

    No graph is recorded; used for the perturbation-ensemble teacher
    passes and for predictions, where gradients are never needed. Runs
    the same conv core as `forward`, so it matches it per image.
    """
    x = np.asarray(images, dtype=np.float64)
    if x.ndim != 4 or x.shape[1] != model.config.in_channels:
        raise ModelError(f"expected [N,{model.config.in_channels},H,W], got {x.shape}")
    last = len(model.layers) - 1
    for li, (kern, bias) in enumerate(model.layers):
        x, _ = conv_forward(x, kern.data, bias.data)
        if li < last:
            x = np.maximum(x, 0.0)
    return x


def _glorot_bound(cin: int, cout: int, k: int) -> float:
    fan_in = cin * k * k
    fan_out = cout * k * k
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_random(cfg: SegModelConfig, seed: int) -> SegModel:
    """Glorot-uniform kernels, zero biases, deterministic per seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    layers = []
    for (cout, cin, k, _), (bshape) in cfg.layer_shapes():
        a = _glorot_bound(cin, cout, k)
        kern = Tensor(rng.uniform(-a, a, size=(cout, cin, k, k)))
        bias = Tensor(np.zeros(bshape))
        layers.append((kern, bias))
    return SegModel(cfg, layers)


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
    for i, (kern, bias) in enumerate(teacher.layers[:-1]):
        student.layers[i] = (Tensor(kern.data.copy()), Tensor(bias.data.copy()))
    t_kern, t_bias = teacher.layers[-1]
    s_kern, s_bias = student.layers[-1]
    old_c = teacher.config.num_classes
    new_kern = s_kern.data.copy() * NEW_ROW_SCALE
    new_bias = s_bias.data.copy() * NEW_ROW_SCALE
    new_kern[:old_c] = t_kern.data
    new_bias[:old_c] = t_bias.data
    student.layers[-1] = (Tensor(new_kern), Tensor(new_bias))
    student._set_requires_grad(True)
    return student


def save(model: SegModel, path) -> None:
    cfg = model.config
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", cfg.in_channels))
        f.write(struct.pack("<I", len(cfg.hidden)))
        for w in cfg.hidden:
            f.write(struct.pack("<I", w))
        f.write(struct.pack("<I", cfg.kernel_size))
        f.write(struct.pack("<I", cfg.num_classes))
        for p in model.parameters():
            f.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _read_exact(f, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise TruncatedFileError(f"expected {n} bytes, got {len(buf)}")
    return buf


def load(path) -> SegModel:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != MAGIC:
            raise BadMagicError(f"{path}: bad magic")
        (version,) = struct.unpack("<I", _read_exact(f, 4))
        if version != VERSION:
            raise VersionMismatchError(f"{path}: version {version} != {VERSION}")
        (in_ch,) = struct.unpack("<I", _read_exact(f, 4))
        (n_hidden,) = struct.unpack("<I", _read_exact(f, 4))
        hidden = tuple(struct.unpack("<I", _read_exact(f, 4))[0] for _ in range(n_hidden))
        (k,) = struct.unpack("<I", _read_exact(f, 4))
        (classes,) = struct.unpack("<I", _read_exact(f, 4))
        try:
            cfg = SegModelConfig(num_classes=classes, in_channels=in_ch,
                                 hidden=hidden, kernel_size=k)
        except ModelError as e:
            raise ModelError(f"{path}: inconsistent config: {e}") from e
        layers = []
        for kshape, bshape in cfg.layer_shapes():
            n = int(np.prod(kshape))
            kern = np.frombuffer(_read_exact(f, n * 8), dtype="<f8").reshape(kshape)
            bias = np.frombuffer(_read_exact(f, bshape[0] * 8), dtype="<f8")
            layers.append((Tensor(kern.copy()), Tensor(bias.copy())))
        if f.read(1):
            raise ModelError(f"{path}: trailing bytes after weights")
    return SegModel(cfg, layers)
