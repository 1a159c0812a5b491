"""Minimal dense-tensor reverse-mode autodiff: the test oracle for the
model's plain-array step.

Tensors hold float64 numpy arrays. Every differentiable op records a
backward closure and a monotonically increasing sequence number; calling
``backward`` on a scalar loss replays the closures in reverse execution
order, accumulating gradients additively across fan-out. The gradient of a
composed loss therefore comes from the chain rule op by op, not from the
closed forms of `useg.segnet.backward` and `useg.losses`. `conv2d` runs one
image through `useg.autodiff`'s conv core, whose own oracle is the naive
loop in `test_autodiff.conv2d_naive`.
"""

from __future__ import annotations

import itertools

import numpy as np

from useg.autodiff import conv_backward, conv_forward

_SEQ = itertools.count()


class AutodiffError(Exception):
    pass


class NonFiniteError(AutodiffError):
    """A tensor was given, or an op produced, NaN/Inf values."""


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
                               x.requires_grad)
        if kernel.requires_grad:
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


def parameters(model) -> list:
    """Graph copies [k0, b0, k1, b1, ...] of a `useg` model's parameters; a
    graph built on them collects its gradients in their `grad`."""
    return [Tensor(p.data.copy(), requires_grad=True) for p in model.parameters()]


def model_forward(params, image) -> Tensor:
    """[Cin,H,W] image -> [C,H,W] logits of the model with parameters
    `params`, as graph ops: conv2d and relu per hidden layer, then conv2d."""
    x = Tensor(image)
    layers = list(zip(params[::2], params[1::2]))
    for kern, bias in layers[:-1]:
        x = relu(conv2d(x, kern, bias))
    kern, bias = layers[-1]
    return conv2d(x, kern, bias)
