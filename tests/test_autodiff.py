"""The conv core against the naive loop and finite differences, and the
graph engine (`graph.py`, the oracle for the model step) against finite
differences."""

import numpy as np
import pytest

from graph import (
    AutodiffError,
    GraphConsumedError,
    NonFiniteError,
    Tensor,
    backward,
    concat,
    conv2d,
    relu,
)
from useg.autodiff import conv_backward, conv_forward


def conv2d_naive(x, kernel, bias):
    """Independent 6-nested-loop oracle for same-padded cross-correlation."""
    cout, cin, k, _ = kernel.shape
    _, h, w = x.shape
    pad = (k - 1) // 2
    out = np.zeros((cout, h, w))
    for o in range(cout):
        for y in range(h):
            for xx in range(w):
                acc = bias[o]
                for c in range(cin):
                    for dy in range(k):
                        for dx in range(k):
                            sy, sx = y + dy - pad, xx + dx - pad
                            if 0 <= sy < h and 0 <= sx < w:
                                acc += kernel[o, c, dy, dx] * x[c, sy, sx]
                out[o, y, xx] = acc
    return out


# (Cin, Cout, k, H, W). conv2d unfolds the input when Cin <= Cout and the
# output otherwise; the shapes cover both sides, a 5x5 kernel and H != W.
CONV_SHAPES = [
    (16, 3, 3, 6, 6),
    (4, 1, 3, 5, 5),
    (8, 2, 5, 6, 6),
    (5, 4, 3, 4, 7),
    (1, 8, 3, 6, 6),
    (3, 3, 3, 5, 4),
    (2, 5, 5, 7, 3),
]


class TestConv2d:
    def test_pointwise_affine(self):
        x = Tensor(np.full((1, 3, 3), 2.0))
        kern = Tensor(np.full((1, 1, 1, 1), 3.0))
        bias = Tensor([1.0])
        out = conv2d(x, kern, bias)
        assert np.allclose(out.data, 7.0)

    def test_zero_padding_contributes_zero(self):
        x = Tensor(np.full((1, 1, 1), 5.0))
        kern = Tensor(np.ones((1, 1, 3, 3)))
        bias = Tensor([0.0])
        out = conv2d(x, kern, bias)
        assert np.allclose(out.data, 5.0)

    def test_matches_naive_oracle(self):
        rng = np.random.Generator(np.random.PCG64(7))
        x = rng.uniform(-1, 1, (2, 5, 5))
        kern = rng.uniform(-1, 1, (3, 2, 3, 3))
        bias = rng.uniform(-1, 1, 3)
        got = conv2d(Tensor(x), Tensor(kern), Tensor(bias)).data
        assert np.abs(got - conv2d_naive(x, kern, bias)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_oracle_equivalence_random(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        cin, cout = rng.integers(1, 4), rng.integers(1, 4)
        k = rng.choice([1, 3, 5])
        h, w = rng.integers(1, 7), rng.integers(1, 7)
        x = rng.uniform(-1, 1, (cin, h, w))
        kern = rng.uniform(-1, 1, (cout, cin, k, k))
        bias = rng.uniform(-1, 1, cout)
        got = conv2d(Tensor(x), Tensor(kern), Tensor(bias)).data
        assert np.abs(got - conv2d_naive(x, kern, bias)).max() < 1e-12

    @pytest.mark.parametrize("cin,cout,k,h,w", CONV_SHAPES)
    def test_both_gemm_sides_match_naive_oracle(self, cin, cout, k, h, w):
        rng = np.random.Generator(np.random.PCG64(cin * 100 + cout * 10 + k))
        x = rng.uniform(-1, 1, (cin, h, w))
        kern = rng.uniform(-1, 1, (cout, cin, k, k))
        bias = rng.uniform(-1, 1, cout)
        got = conv2d(Tensor(x), Tensor(kern), Tensor(bias)).data
        assert np.abs(got - conv2d_naive(x, kern, bias)).max() < 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(AutodiffError):
            conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))),
                   Tensor(np.zeros(1)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(AutodiffError):
            conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))),
                   Tensor(np.zeros(1)))


class TestRelu:
    def test_basic(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_all_negative_backward_zero(self):
        x = Tensor([-3.0, -1.0, -0.5], requires_grad=True)
        loss = relu(x).sum()
        backward(loss)
        assert np.array_equal(loss.data, 0.0)
        assert np.array_equal(x.grad, np.zeros(3))

    def test_subgradient_at_zero_is_zero(self):
        x = Tensor([0.0], requires_grad=True)
        backward(relu(x).sum())
        assert x.grad[0] == 0.0


def finite_diff(fn, x, h=1e-5):
    """Central-difference gradient of a scalar fn at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))


def conv_grad_fd_error(rng, cin, cout, k, h, w):
    """Largest relative error between conv2d's input, kernel and bias
    gradients of a squared-error loss and central finite differences."""
    x = Tensor(rng.uniform(-1, 1, (cin, h, w)), requires_grad=True)
    kern = Tensor(rng.uniform(-1, 1, (cout, cin, k, k)), requires_grad=True)
    bias = Tensor(rng.uniform(-1, 1, cout), requires_grad=True)
    target = rng.uniform(-1, 1, (cout, h, w))

    def forward():
        d = conv2d(x, kern, bias) - Tensor(target)
        return (d * d).mean()

    backward(forward())
    return max(rel_err(t.grad, finite_diff(lambda: float(forward().data), t.data)).max()
               for t in (x, kern, bias))


class TestBackward:
    def test_sum_gradient(self):
        w = Tensor([1.0, 2.0, 5.0], requires_grad=True)
        backward(w.sum())
        assert np.array_equal(w.grad, np.ones(3))

    def test_square_sum_gradient(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward((w * w).sum())
        assert np.array_equal(w.grad, [2.0, 4.0, 6.0])

    def test_fanout_accumulates(self):
        w = Tensor([2.0], requires_grad=True)
        a = w * 3.0
        b = w * 5.0
        backward((a + b).sum())
        assert np.array_equal(w.grad, [8.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(AutodiffError):
            backward(w * w)

    def test_graph_consumed(self):
        w = Tensor([1.0], requires_grad=True)
        loss = (w * w).sum()
        backward(loss)
        with pytest.raises(GraphConsumedError):
            backward(loss)

    @pytest.mark.parametrize("seed", range(10))
    def test_relu_gradient_matches_fd(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        # keep values away from the kink
        data = rng.uniform(0.2, 1.0, 12) * rng.choice([-1, 1], 12)
        x = Tensor(data.copy(), requires_grad=True)
        backward((relu(x) * relu(x)).sum())
        fd = finite_diff(lambda: float((np.maximum(x.data, 0) ** 2).sum()), x.data)
        assert rel_err(x.grad, fd).max() < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_composite_ops_match_fd(self, seed):
        rng = np.random.Generator(np.random.PCG64(100 + seed))
        x = Tensor(rng.uniform(0.5, 2.0, (2, 4)), requires_grad=True)
        y = Tensor(rng.uniform(0.5, 2.0, (2, 4)), requires_grad=True)

        def forward():
            a = (x * y + x / y).exp()
            b = (a.clamp_min(1e-12).log() - y).sum(axis=0, keepdims=True)
            return ((b * b).mean() + x.narrow(0, 1).sum()).sum()

        loss = forward()
        backward(loss)
        for t in (x, y):
            fd = finite_diff(lambda: float(forward().data), t.data)
            assert rel_err(t.grad, fd).max() < 1e-4

    def test_concat_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        backward((concat([a, b]) * Tensor([1.0, 2.0, 3.0])).sum())
        assert np.array_equal(a.grad, [1.0, 2.0])
        assert np.array_equal(b.grad, [3.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_conv_gradients_match_fd(self, seed):
        rng = np.random.Generator(np.random.PCG64(200 + seed))
        assert conv_grad_fd_error(rng, 2, 3, 3, 4, 4) < 1e-4

    @pytest.mark.parametrize("cin,cout,k,h,w", CONV_SHAPES)
    def test_conv_gradients_match_fd_both_gemm_sides(self, cin, cout, k, h, w):
        rng = np.random.Generator(np.random.PCG64(300 + cin * 10 + cout))
        assert conv_grad_fd_error(rng, cin, cout, k, h, w) < 1e-4

    @pytest.mark.parametrize("cin,cout,k,h,w", CONV_SHAPES)
    def test_conv_core_batch_equals_per_image(self, cin, cout, k, h, w):
        rng = np.random.Generator(np.random.PCG64(400 + cin * 10 + cout))
        x = rng.uniform(-1, 1, (3, cin, h, w))
        kern = rng.uniform(-1, 1, (cout, cin, k, k))
        bias = rng.uniform(-1, 1, cout)
        g = rng.uniform(-1, 1, (3, cout, h, w))
        out, cols = conv_forward(x, kern, bias)
        gx, gk = conv_backward(g, x, kern, cols, True)
        gk_sum = np.zeros_like(kern)
        for i in range(3):
            out_i, cols_i = conv_forward(x[i:i + 1], kern, bias)
            gx_i, gk_i = conv_backward(g[i:i + 1], x[i:i + 1], kern, cols_i, True)
            assert np.abs(out_i - out[i:i + 1]).max() < 1e-12
            assert np.abs(gx_i - gx[i:i + 1]).max() < 1e-12
            gk_sum += gk_i
        assert np.abs(gk_sum - gk).max() < 1e-12


class TestInvariants:
    def test_nonfinite_input_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])

    def test_nonfinite_op_result_rejected(self):
        x = Tensor([1000.0])
        with pytest.raises(NonFiniteError):
            (x * x).exp()

    def test_grad_present_iff_requires_grad(self):
        a = Tensor([1.0])
        b = Tensor([1.0], requires_grad=True)
        assert a.grad is None
        assert b.grad is not None and b.grad.shape == b.data.shape

    def test_shape_data_consistency(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert int(np.prod(t.shape)) == t.data.size
