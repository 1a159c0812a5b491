"""Computations kept apart from `useg`, used to check the program's outputs.

Nothing here imports `useg`: the forward pass, the convolution, Dice and
the readers for the `.useg` weight format and binary PGM files are written
from their specifications, so a fault in the program cannot hide itself by
also being in the check.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def conv_same(x: np.ndarray, kern: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero-padded same-size cross-correlation, [Cin,H,W] -> [Cout,H,W].

    Sums k*k shifted channel contractions; the program uses im2col + GEMM,
    so agreement is up to float rounding only.
    """
    cout, cin, k, _ = kern.shape
    pad = k // 2
    _, h, w = x.shape
    xp = np.zeros((cin, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    out = np.zeros((cout, h, w))
    for dy in range(k):
        for dx in range(k):
            out += np.tensordot(kern[:, :, dy, dx], xp[:, dy:dy + h, dx:dx + w], axes=1)
    return out + bias[:, None, None]


def predict(params: list, image: np.ndarray) -> np.ndarray:
    """Argmax labels of conv->ReLU->...->conv for params [k0, b0, k1, b1, ...]."""
    x = np.asarray(image, dtype=np.float64)
    pairs = list(zip(params[0::2], params[1::2]))
    for i, (kern, bias) in enumerate(pairs):
        x = conv_same(x, kern, bias)
        if i < len(pairs) - 1:
            x = np.maximum(x, 0.0)
    return x.argmax(axis=0)


def dice(pred: np.ndarray, truth: np.ndarray) -> float:
    """2|P and G| / (|P| + |G|) over boolean masks; two empty masks score 1."""
    p = np.asarray(pred, dtype=bool)
    g = np.asarray(truth, dtype=bool)
    size = int(p.sum()) + int(g.sum())
    return 1.0 if size == 0 else 2.0 * int((p & g).sum()) / size


def per_organ_dice(params: list, images, labels, organs) -> dict:
    """Mean over samples of each organ's Dice, predicted from `params`."""
    preds = [predict(params, img) for img in images]
    return {k: float(np.mean([dice(p == k, lab == k) for p, lab in zip(preds, labels)]))
            for k in organs}


def params_sha256(params) -> str:
    """sha256 over the little-endian float64 bytes of the parameters, in order."""
    h = hashlib.sha256()
    for p in params:
        h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    return h.hexdigest()


def read_useg(path) -> list:
    """Parameters [k0, b0, k1, b1, ...] of a `.useg` file.

    Layout: b"USEG", then little-endian u32 version, in_channels, number of
    hidden layers, each hidden width, kernel size and class count, then
    every kernel [Cout,Cin,k,k] and bias [Cout] as little-endian float64.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != b"USEG":
        raise CheckFailed(f"{path}: bad magic {blob[:4]!r}")
    pos = 4

    def u32():
        nonlocal pos
        (v,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        return v

    if u32() != 1:
        raise CheckFailed(f"{path}: unexpected format version")
    in_ch = u32()
    widths = [in_ch] + [u32() for _ in range(u32())]
    k = u32()
    widths.append(u32())
    params = []
    for cin, cout in zip(widths, widths[1:]):
        for shape in ((cout, cin, k, k), (cout,)):
            n = int(np.prod(shape))
            if pos + 8 * n > len(blob):
                raise CheckFailed(f"{path}: truncated parameters")
            params.append(np.frombuffer(blob, "<f8", n, pos).reshape(shape).astype(np.float64))
            pos += 8 * n
    if pos != len(blob):
        raise CheckFailed(f"{path}: {len(blob) - pos} bytes after the parameters")
    return params


def read_pgm(path) -> tuple:
    """(integer raster, maxval) of a binary PGM: header 'P5 W H MAXVAL', one
    whitespace byte, then W*H samples, big-endian u16 when MAXVAL > 255."""
    blob = Path(path).read_bytes()
    fields, pos = [], 0
    while len(fields) < 4 and pos < len(blob):
        while blob[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    if len(fields) < 4 or fields[0] != b"P5":
        raise CheckFailed(f"{path}: not a binary PGM")
    w, h, maxval = (int(f) for f in fields[1:])
    wide = maxval > 255
    raster = blob[pos + 1:]
    if len(raster) != w * h * (2 if wide else 1):
        raise CheckFailed(f"{path}: raster holds {len(raster)} bytes for {w}x{h}")
    return np.frombuffer(raster, ">u2" if wide else "u1").reshape(h, w).astype(np.int64), maxval
