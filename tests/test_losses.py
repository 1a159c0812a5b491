import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from useg import losses
from useg.autodiff import Tensor, backward


def random_probmap(rng, c, h=4, w=4):
    raw = rng.dirichlet(np.ones(c), size=(h, w))
    return np.ascontiguousarray(raw.transpose(2, 0, 1))


class TestSoftmax:
    def test_uniform_logits(self):
        p = losses.softmax_channels(Tensor(np.zeros((3, 2, 2))))
        assert np.allclose(p.data, 1.0 / 3.0)

    def test_analytic_two_channel(self):
        logits = np.zeros((2, 1, 1))
        logits[0] = np.log(2.0)
        p = losses.softmax_channels(Tensor(logits))
        assert np.allclose(p.data[:, 0, 0], [2 / 3, 1 / 3])

    def test_no_overflow_on_huge_logits(self):
        logits = np.zeros((2, 1, 1))
        logits[0] = 1000.0
        p = losses.softmax_channels(Tensor(logits))
        assert np.allclose(p.data[:, 0, 0], [1.0, 0.0], atol=1e-12)

    def test_single_channel_rejected(self):
        with pytest.raises(losses.LossError):
            losses.softmax_channels(Tensor(np.zeros((1, 2, 2))))


class TestKL:
    def test_self_divergence_zero(self):
        rng = np.random.Generator(np.random.PCG64(0))
        p = random_probmap(rng, 3)
        assert abs(float(losses.kl_divergence(p, Tensor(p)).data)) < 1e-9

    def test_onehot_vs_uniform(self):
        t = np.array([1.0, 0.0]).reshape(2, 1, 1)
        p = np.array([0.5, 0.5]).reshape(2, 1, 1)
        got = float(losses.kl_divergence(t, Tensor(p)).data)
        assert got == pytest.approx(np.log(2), abs=1e-9)

    def test_analytic_half_quarter(self):
        t = np.array([0.5, 0.5]).reshape(2, 1, 1)
        p = np.array([0.25, 0.75]).reshape(2, 1, 1)
        expected = 0.5 * np.log(2) + 0.5 * np.log(2 / 3)
        got = float(losses.kl_divergence(t, Tensor(p)).data)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(0.143841, abs=1e-6)

    def test_nonnegative_random(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(100):
            t = random_probmap(rng, 4)
            p = random_probmap(rng, 4)
            assert float(losses.kl_divergence(t, p if isinstance(p, Tensor) else Tensor(p)).data) >= -1e-12

    def test_gradient_into_pred_only(self):
        rng = np.random.Generator(np.random.PCG64(2))
        t = Tensor(random_probmap(rng, 3), requires_grad=True)
        p = Tensor(random_probmap(rng, 3), requires_grad=True)
        backward(losses.kl_divergence(t, p))
        assert np.array_equal(t.grad, np.zeros_like(t.data))
        assert np.abs(p.grad).max() > 0

    def test_shape_mismatch(self):
        with pytest.raises(losses.LossError):
            losses.kl_divergence(np.ones((2, 1, 1)) / 2, Tensor(np.ones((3, 1, 1)) / 3))


class TestCrossEntropy:
    def test_analytic(self):
        labels = np.array([[1]])
        pred = Tensor(np.array([0.2, 0.8]).reshape(2, 1, 1))
        got = float(losses.cross_entropy_hard(labels, pred).data)
        assert got == pytest.approx(-np.log(0.8), abs=1e-9)
        assert got == pytest.approx(0.223144, abs=1e-6)

    def test_onehot_pred_is_zero_loss(self):
        labels = np.array([[0, 1], [1, 0]])
        pred = Tensor(losses.one_hot(labels, 2).clip(1e-12, 1.0))
        assert float(losses.cross_entropy_hard(labels, pred).data) < 1e-9

    def test_equals_kl_against_onehot(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(20):
            labels = rng.integers(0, 3, (4, 4))
            pred = random_probmap(rng, 3)
            ce = float(losses.cross_entropy_hard(labels, Tensor(pred)).data)
            kl = float(losses.kl_divergence(losses.one_hot(labels, 3), Tensor(pred)).data)
            assert ce == pytest.approx(kl, abs=1e-9)

    def test_out_of_range_label(self):
        with pytest.raises(losses.LossError):
            losses.cross_entropy_hard(np.array([[5]]), Tensor(np.ones((2, 1, 1)) / 2))


class TestRemaps:
    def test_remap_old_pixel_arithmetic(self):
        p = Tensor(np.array([0.1, 0.4, 0.3, 0.2]).reshape(4, 1, 1))
        out = losses.remap_old(p, 2).data[:, 0, 0]
        assert np.allclose(out, [0.3, 0.4, 0.3], atol=1e-12)

    def test_remap_old_onehot_new_class(self):
        p = Tensor(np.array([0.0, 0.0, 0.0, 1.0]).reshape(4, 1, 1))
        assert np.allclose(losses.remap_old(p, 2).data[:, 0, 0], [1, 0, 0])

    def test_remap_old_uniform(self):
        p = Tensor(np.full((4, 1, 1), 0.25))
        assert np.allclose(losses.remap_old(p, 2).data[:, 0, 0], [0.5, 0.25, 0.25])

    def test_remap_new_pixel_arithmetic(self):
        p = Tensor(np.array([0.1, 0.4, 0.3, 0.2]).reshape(4, 1, 1))
        assert np.allclose(losses.remap_new(p, 2).data[:, 0, 0], [0.8, 0.2], atol=1e-12)

    def test_remap_new_onehot(self):
        p = Tensor(np.array([0.0, 0.0, 0.0, 1.0]).reshape(4, 1, 1))
        assert np.allclose(losses.remap_new(p, 2).data[:, 0, 0], [0.0, 1.0])

    def test_remap_new_uniform(self):
        p = Tensor(np.full((4, 1, 1), 0.25))
        assert np.allclose(losses.remap_new(p, 2).data[:, 0, 0], [0.75, 0.25])

    def test_channel_count_checked(self):
        p = Tensor(np.full((3, 1, 1), 1 / 3))
        with pytest.raises(losses.LossError):
            losses.remap_old(p, 2)
        with pytest.raises(losses.LossError):
            losses.remap_new(p, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(1, 4))
    def test_remaps_preserve_simplex(self, seed, k):
        rng = np.random.Generator(np.random.PCG64(seed))
        p = Tensor(random_probmap(rng, k + 2))
        old = losses.remap_old(p, k).data
        new = losses.remap_new(p, k).data
        for out in (old, new):
            assert (out >= -1e-12).all()
            assert np.abs(out.sum(axis=0) - 1.0).max() < 1e-9
        # channels 1..K copied exactly; backgrounds recombine exactly
        assert np.array_equal(old[1:], p.data[1:k + 1])
        assert np.abs(old[0] - (p.data[0] + p.data[k + 1])).max() < 1e-12
        assert np.array_equal(new[1], p.data[k + 1])
        assert np.abs(new.sum(axis=0) - 1.0).max() < 1e-12


class TestSmoothLabels:
    def test_foreground_pixel(self):
        out = losses.smooth_labels(np.array([[1]]))
        assert np.allclose(out[:, 0, 0], [0.3, 0.7])

    def test_background_pixel(self):
        out = losses.smooth_labels(np.array([[0]]))
        assert np.allclose(out[:, 0, 0], [0.7, 0.3])

    def test_argmax_roundtrip(self):
        rng = np.random.Generator(np.random.PCG64(6))
        hard = rng.integers(0, 2, (8, 8))
        out = losses.smooth_labels(hard)
        assert np.array_equal(out.argmax(axis=0), hard)
        assert np.allclose(out.sum(axis=0), 1.0)

    def test_nonbinary_rejected(self):
        with pytest.raises(losses.LossError):
            losses.smooth_labels(np.array([[2]]))


class TestLossOld:
    def _inputs(self, seed=7, k=1, h=3, w=3):
        rng = np.random.Generator(np.random.PCG64(seed))
        p_t = random_probmap(rng, k + 1, h, w)
        p_hat = Tensor(random_probmap(rng, k + 1, h, w), requires_grad=True)
        return p_t, p_hat

    def test_zero_weight_zero_loss_and_grad(self):
        p_t, p_hat = self._inputs()
        u = np.zeros((3, 3))
        loss = losses.loss_old(p_t, p_hat, u, 1.0, 20.0)
        backward(loss)
        assert float(loss.data) == 0.0
        assert np.array_equal(p_hat.grad, np.zeros_like(p_hat.data))

    def test_matching_probs_kl_term_zero(self):
        p_t, _ = self._inputs()
        p_hat = Tensor(p_t.copy(), requires_grad=True)
        loss = losses.loss_old(p_t, p_hat, np.ones((3, 3)), 0.0, 1.0)
        assert abs(float(loss.data)) < 1e-9

    def test_analytic_ce_term(self):
        p_t = np.zeros((2, 1, 1))
        p_t[1] = 1.0  # one-hot class 1
        p_hat = Tensor(np.array([0.2, 0.8]).reshape(2, 1, 1))
        loss = losses.loss_old(p_t, p_hat, np.ones((1, 1)), 1.0, 0.0)
        assert float(loss.data) == pytest.approx(-np.log(0.8), abs=1e-9)

    def test_linear_in_constant_weight(self):
        p_t, p_hat = self._inputs(seed=8)
        l1 = float(losses.loss_old(p_t, p_hat, np.ones((3, 3)), 1.0, 20.0).data)
        l3 = float(losses.loss_old(p_t, p_hat, np.full((3, 3), 3.0), 1.0, 20.0).data)
        assert l3 == pytest.approx(3.0 * l1, abs=1e-12)

    def test_negative_weights_rejected(self):
        p_t, p_hat = self._inputs()
        with pytest.raises(losses.LossError):
            losses.loss_old(p_t, p_hat, -np.ones((3, 3)), 1.0, 1.0)
        with pytest.raises(losses.LossError):
            losses.loss_old(p_t, p_hat, np.ones((3, 3)), -1.0, 1.0)


class TestLossNew:
    def test_matching_is_zero(self):
        g = losses.smooth_labels(np.array([[1, 0]]))
        p = Tensor(g.copy())
        assert abs(float(losses.loss_new(p, g).data)) < 1e-12

    def test_analytic_swapped(self):
        g = np.array([0.7, 0.3]).reshape(2, 1, 1)
        p = Tensor(np.array([0.3, 0.7]).reshape(2, 1, 1))
        expected = 0.3 * np.log(3 / 7) + 0.7 * np.log(7 / 3)
        got = float(losses.loss_new(p, g).data)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(0.338919, abs=1e-6)

    def test_gradient_matches_fd(self):
        from test_autodiff import finite_diff, rel_err
        rng = np.random.Generator(np.random.PCG64(9))
        g = losses.smooth_labels(rng.integers(0, 2, (3, 3)))
        p = Tensor(random_probmap(rng, 2, 3, 3), requires_grad=True)

        def fval():
            return float(losses.loss_new(Tensor(p.data), g).data)

        backward(losses.loss_new(p, g))
        fd = finite_diff(fval, p.data)
        assert rel_err(p.grad, fd).max() < 1e-4
