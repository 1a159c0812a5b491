"""Minimal dense-tensor reverse-mode autodiff.

Tensors hold float64 numpy arrays. Every differentiable op records a
backward closure and a monotonically increasing sequence number; calling
``backward`` on a scalar loss replays the closures in reverse execution
order, accumulating gradients additively across fan-out.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

_SEQ = itertools.count()


class AutodiffError(Exception):
    pass


class NonFiniteError(AutodiffError):
    """An op produced (or was given) NaN/Inf values."""


class GraphConsumedError(AutodiffError):
    """backward() was called twice through the same graph."""


def _check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("non-finite values in tensor")
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Dense float64 array with an optional gradient slot."""

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = _check_finite(np.asarray(data, dtype=np.float64))
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self._seq = next(_SEQ)
        self._consumed = False

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._wrap(other)
        out_req = self.requires_grad or other.requires_grad

        def bwd(out):
            if self.requires_grad:
                self.grad += _unbroadcast(out.grad, self.shape)
            if other.requires_grad:
                other.grad += _unbroadcast(out.grad, other.shape)

        return Tensor(self.data + other.data, out_req, (self, other), bwd)

    __radd__ = __add__

    def __neg__(self):
        def bwd(out):
            if self.requires_grad:
                self.grad += -out.grad

        return Tensor(-self.data, self.requires_grad, (self,), bwd)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __mul__(self, other):
        other = self._wrap(other)
        out_req = self.requires_grad or other.requires_grad

        def bwd(out):
            if self.requires_grad:
                self.grad += _unbroadcast(out.grad * other.data, self.shape)
            if other.requires_grad:
                other.grad += _unbroadcast(out.grad * self.data, other.shape)

        return Tensor(self.data * other.data, out_req, (self, other), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        out_req = self.requires_grad or other.requires_grad
        out_data = self.data / other.data

        def bwd(out):
            if self.requires_grad:
                self.grad += _unbroadcast(out.grad / other.data, self.shape)
            if other.requires_grad:
                other.grad += _unbroadcast(-out.grad * out_data / other.data, other.shape)

        return Tensor(out_data, out_req, (self, other), bwd)

    # -- elementwise nonlinearities ------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def bwd(out):
            if self.requires_grad:
                self.grad += out.grad * out_data

        return Tensor(out_data, self.requires_grad, (self,), bwd)

    def log(self):
        def bwd(out):
            if self.requires_grad:
                self.grad += out.grad / self.data

        return Tensor(np.log(self.data), self.requires_grad, (self,), bwd)

    def clamp_min(self, lo: float):
        mask = self.data > lo

        def bwd(out):
            if self.requires_grad:
                self.grad += out.grad * mask

        return Tensor(np.maximum(self.data, lo), self.requires_grad, (self,), bwd)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def bwd(out):
            if self.requires_grad:
                g = out.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self.grad += np.broadcast_to(g, self.shape)

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                      self.requires_grad, (self,), bwd)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(n)

    # -- shape surgery -------------------------------------------------------

    def narrow(self, start: int, length: int):
        """Slice `length` entries from `start` along axis 0."""
        sl = slice(start, start + length)

        def bwd(out):
            if self.requires_grad:
                self.grad[sl] += out.grad

        return Tensor(self.data[sl], self.requires_grad, (self,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_req = any(t.requires_grad for t in tensors)
    extents = [t.shape[axis] for t in tensors]

    def bwd(out):
        offset = 0
        for t, ext in zip(tensors, extents):
            if t.requires_grad:
                idx = [slice(None)] * out.grad.ndim
                idx[axis] = slice(offset, offset + ext)
                t.grad += out.grad[tuple(idx)]
            offset += ext

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  out_req, tensors, bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0  # subgradient at 0 is 0

    def bwd(out):
        if x.requires_grad:
            x.grad += out.grad * mask

    return Tensor(np.maximum(x.data, 0.0), x.requires_grad, (x,), bwd)


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


def _batch_cols(a: np.ndarray) -> np.ndarray:
    """[N, R, P] -> [R, N·P], so that one GEMM sums over the batch."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


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
                  need_x: bool, need_kernel: bool):
    """Input and kernel gradients of `conv_forward` given the output
    gradient g [N,Cout,H,W] and the `cols` it returned; each is None when
    not needed. The kernel gradient is summed over N.

    Input side: dW = g @ colsᵀ, dx = col2im(Wᵀ @ g). Output side: the
    output gradient is unfolded instead (Cout·k² rows), dW = im2col(g) @ xᵀ
    and dx = Wᵀ @ im2col(g), with W the flipped-tap operand.
    """
    cout, cin, k, _ = kernel.shape
    n, _, h, w = x.shape
    wmat = _gemm_weights(kernel)
    gx = gk = None
    if cols is not None:
        g = g.reshape(n, cout, h * w)
        if need_kernel:
            gk = (_batch_cols(g) @ _batch_cols(cols).T).reshape(kernel.shape)
        if need_x:
            gx = _col2im(wmat.T @ g, x.shape, k)
    else:
        gcols = _im2col(g, k)
        if need_kernel:
            gw = _batch_cols(gcols) @ _batch_cols(x.reshape(n, cin, h * w)).T
            gk = gw.reshape(cout, k, k, cin)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        if need_x:
            gx = (wmat.T @ gcols).reshape(x.shape)
    return gx, gk


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Same-size 2D cross-correlation with zero padding.

    x: [Cin,H,W], kernel: [Cout,Cin,k,k] with k odd, bias: [Cout].
    """
    if x.data.ndim != 3 or kernel.data.ndim != 4 or bias.data.ndim != 1:
        raise AutodiffError("conv2d: bad ranks")
    cout, cin, kh, kw = kernel.shape
    if kh != kw or kh % 2 == 0:
        raise AutodiffError(f"conv2d: kernel must be square with odd size, got {kh}x{kw}")
    if x.shape[0] != cin or bias.shape[0] != cout:
        raise AutodiffError(
            f"conv2d: channel mismatch (input {x.shape[0]} vs {cin}, bias {bias.shape[0]} vs {cout})")
    out_data, cols = conv_forward(x.data[None], kernel.data, bias.data)

    out_req = x.requires_grad or kernel.requires_grad or bias.requires_grad

    def bwd(out):
        if bias.requires_grad:
            bias.grad += out.grad.sum(axis=(1, 2))
        gx, gk = conv_backward(out.grad[None], x.data[None], kernel.data, cols,
                               x.requires_grad, kernel.requires_grad)
        if gk is not None:
            kernel.grad += gk
        if gx is not None:
            x.grad += gx[0]

    return Tensor(out_data[0], out_req, (x, kernel, bias), bwd)


def backward(loss: Tensor) -> None:
    """Fill grads of every requires_grad tensor reachable from `loss`."""
    if loss.data.shape != ():
        raise AutodiffError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if loss._consumed:
        raise GraphConsumedError("backward: graph already consumed")
    if not loss.requires_grad:
        loss._consumed = True
        return

    nodes = []
    seen = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)

    # reverse execution order == reverse topological order
    nodes.sort(key=lambda t: t._seq, reverse=True)
    loss.grad = np.ones_like(loss.data)
    for t in nodes:
        if t._backward is not None:
            t._backward(t)
        t._consumed = True
