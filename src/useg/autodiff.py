"""The convolution core and the parameter type of the model.

`conv_forward` and `conv_backward` are a same-size 2D convolution and its
gradients on plain float64 arrays over [N,C,H,W]; `segnet` composes them
into the model's forward and backward pass. `Tensor` is a model parameter:
its `data` and `grad` are views into the model's flat parameter and
gradient vectors. The reverse-mode graph engine in `tests/graph.py` is
the test oracle for the closed-form step built on them.
"""

from __future__ import annotations

import functools

import numpy as np


class Tensor:
    """A model parameter. `data` is a view into the model's flat parameter
    vector and `grad` one into its flat gradient vector, or None while the
    model is frozen."""

    def __init__(self, data: np.ndarray, grad: np.ndarray | None = None):
        self.data = data
        self.grad = grad
        self.requires_grad = grad is not None


@functools.lru_cache(maxsize=64)
def _taps(k: int, h: int, w: int) -> tuple:
    """Per tap (dy, dx) of a same-size k×k window over an H×W image: the
    output pixels whose source pixel lies inside the image, and those
    source pixels, as index tuples over the trailing two axes. Cached:
    a model sees a handful of (k, H, W), and every conv call needs them."""
    pad = (k - 1) // 2

    def span(o, n):
        lo = max(0, -o)
        hi = max(lo, min(n, n - o))
        return slice(lo, hi), slice(lo + o, hi + o)

    taps = []
    for dy in range(k):
        ys_out, ys_src = span(dy - pad, h)
        for dx in range(k):
            xs_out, xs_src = span(dx - pad, w)
            taps.append((dy, dx, (..., ys_out, xs_out), (..., ys_src, xs_src)))
    return tuple(taps)


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """[N,C,H,W] -> [N, C·k², H·W]: the k×k window around each pixel,
    zero where it leaves the image."""
    n, c, h, w = x.shape
    cols = np.zeros((n, c, k, k, h, w))
    for dy, dx, out, src in _taps(k, h, w):
        cols[:, :, dy, dx][out] = x[src]
    return cols.reshape(n, c * k * k, h * w)


def _col2im(cols: np.ndarray, shape: tuple, k: int) -> np.ndarray:
    """Adjoint of `_im2col`: [N, C·k², H·W] -> `shape` [N,C,H,W], each tap
    plane added back onto the pixels it was read from."""
    n, c, h, w = shape
    cols = cols.reshape(n, c, k, k, h, w)
    out = np.zeros(shape)
    for dy, dx, dst, src in _taps(k, h, w):
        out[src] += cols[:, :, dy, dx][dst]
    return out


def _batch_gemm_nt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Σ_n a[n] @ b[n]ᵀ for a [N,R,P] and b [N,S,P]: one GEMM per image,
    summed over the batch, with no transposed copy of either operand."""
    return np.matmul(a, b.transpose(0, 2, 1)).sum(axis=0)


def _gemm_weights(kernel: np.ndarray) -> np.ndarray:
    """The kernel as the GEMM operand of `conv_forward`'s branch for it:
    [Cout, Cin·k²] when Cin <= Cout; otherwise [Cout·k², Cin] with the
    taps flipped, so that col2im of its product places each tap."""
    cout, cin, k, _ = kernel.shape
    if cin <= cout:
        return kernel.reshape(cout, cin * k * k)
    return kernel[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(cout * k * k, cin)


def conv_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray):
    """Same-size 2D cross-correlation with zero padding on plain arrays.

    x: [N,Cin,H,W], kernel: [Cout,Cin,k,k] with k odd, bias: [Cout].
    One GEMM unfolds the narrower channel side (kn2row for the output
    side; Anderson et al., arXiv 1709.03395): when Cin <= Cout the input
    is unfolded (im2col) and multiplied by the kernel; otherwise the
    kernel taps multiply the input first and col2im adds the k² tap
    planes into the output. Returns the [N,Cout,H,W] output and the
    unfolded input (None on the output side) for `conv_backward`.
    """
    cout, cin, k, _ = kernel.shape
    n, _, h, w = x.shape
    wmat = _gemm_weights(kernel)
    if cin <= cout:
        cols = _im2col(x, k)
        out = (wmat @ cols).reshape(n, cout, h, w)
    else:
        cols = None
        out = _col2im(wmat @ x.reshape(n, cin, h * w), (n, cout, h, w), k)
    return out + bias[:, None, None], cols


def conv_backward(g: np.ndarray, x: np.ndarray, kernel: np.ndarray, cols,
                  need_x: bool):
    """Input and kernel gradients of `conv_forward` given the output
    gradient g [N,Cout,H,W] and the `cols` it returned; the input gradient
    is None when not needed. The kernel gradient is summed over N.

    Input side: dW = g @ colsᵀ, dx = col2im(Wᵀ @ g). Output side: the
    output gradient is unfolded instead (Cout·k² rows), dW = im2col(g) @ xᵀ
    and dx = Wᵀ @ im2col(g), with W the flipped-tap operand.
    """
    cout, cin, k, _ = kernel.shape
    n, _, h, w = x.shape
    wmat = _gemm_weights(kernel)
    gx = None
    if cols is not None:
        g = g.reshape(n, cout, h * w)
        gk = _batch_gemm_nt(g, cols).reshape(kernel.shape)
        if need_x:
            gx = _col2im(wmat.T @ g, x.shape, k)
    else:
        gcols = _im2col(g, k)
        gw = _batch_gemm_nt(gcols, x.reshape(n, cin, h * w))
        gk = gw.reshape(cout, k, k, cin)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        if need_x:
            gx = (wmat.T @ gcols).reshape(x.shape)
    return gx, gk
