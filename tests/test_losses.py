import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed_losses as composed
from graph import Tensor, backward
from useg import losses


def random_probmap(rng, c, h=4, w=4):
    raw = rng.dirichlet(np.ones(c), size=(h, w))
    return np.ascontiguousarray(raw.transpose(2, 0, 1))


class TestSoftmax:
    def test_uniform_logits(self):
        p = composed.softmax_channels(Tensor(np.zeros((3, 2, 2))))
        assert np.allclose(p.data, 1.0 / 3.0)

    def test_analytic_two_channel(self):
        logits = np.zeros((2, 1, 1))
        logits[0] = np.log(2.0)
        p = composed.softmax_channels(Tensor(logits))
        assert np.allclose(p.data[:, 0, 0], [2 / 3, 1 / 3])

    def test_no_overflow_on_huge_logits(self):
        logits = np.zeros((2, 1, 1))
        logits[0] = 1000.0
        p = composed.softmax_channels(Tensor(logits))
        assert np.allclose(p.data[:, 0, 0], [1.0, 0.0], atol=1e-12)

    def test_single_channel_rejected(self):
        with pytest.raises(losses.LossError):
            composed.softmax_channels(Tensor(np.zeros((1, 2, 2))))


class TestKL:
    def test_self_divergence_zero(self):
        rng = np.random.Generator(np.random.PCG64(0))
        p = random_probmap(rng, 3)
        assert abs(float(composed.kl_divergence(p, Tensor(p)).data)) < 1e-9

    def test_onehot_vs_uniform(self):
        t = np.array([1.0, 0.0]).reshape(2, 1, 1)
        p = np.array([0.5, 0.5]).reshape(2, 1, 1)
        got = float(composed.kl_divergence(t, Tensor(p)).data)
        assert got == pytest.approx(np.log(2), abs=1e-9)

    def test_analytic_half_quarter(self):
        t = np.array([0.5, 0.5]).reshape(2, 1, 1)
        p = np.array([0.25, 0.75]).reshape(2, 1, 1)
        expected = 0.5 * np.log(2) + 0.5 * np.log(2 / 3)
        got = float(composed.kl_divergence(t, Tensor(p)).data)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(0.143841, abs=1e-6)

    def test_nonnegative_random(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(100):
            t = random_probmap(rng, 4)
            p = random_probmap(rng, 4)
            assert float(composed.kl_divergence(t, p if isinstance(p, Tensor) else Tensor(p)).data) >= -1e-12

    def test_gradient_into_pred_only(self):
        rng = np.random.Generator(np.random.PCG64(2))
        t = Tensor(random_probmap(rng, 3), requires_grad=True)
        p = Tensor(random_probmap(rng, 3), requires_grad=True)
        backward(composed.kl_divergence(t, p))
        assert np.array_equal(t.grad, np.zeros_like(t.data))
        assert np.abs(p.grad).max() > 0

    def test_shape_mismatch(self):
        with pytest.raises(losses.LossError):
            composed.kl_divergence(np.ones((2, 1, 1)) / 2, Tensor(np.ones((3, 1, 1)) / 3))


class TestCrossEntropy:
    def test_analytic(self):
        labels = np.array([[1]])
        pred = Tensor(np.array([0.2, 0.8]).reshape(2, 1, 1))
        got = float(composed.cross_entropy_hard(labels, pred).data)
        assert got == pytest.approx(-np.log(0.8), abs=1e-9)
        assert got == pytest.approx(0.223144, abs=1e-6)

    def test_onehot_pred_is_zero_loss(self):
        labels = np.array([[0, 1], [1, 0]])
        pred = Tensor(losses.one_hot(labels, 2).clip(1e-12, 1.0))
        assert float(composed.cross_entropy_hard(labels, pred).data) < 1e-9

    def test_equals_kl_against_onehot(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(20):
            labels = rng.integers(0, 3, (4, 4))
            pred = random_probmap(rng, 3)
            ce = float(composed.cross_entropy_hard(labels, Tensor(pred)).data)
            kl = float(composed.kl_divergence(losses.one_hot(labels, 3), Tensor(pred)).data)
            assert ce == pytest.approx(kl, abs=1e-9)

    def test_out_of_range_label(self):
        with pytest.raises(losses.LossError):
            composed.cross_entropy_hard(np.array([[5]]), Tensor(np.ones((2, 1, 1)) / 2))


def pixel(values):
    """One image of one pixel, [1,C,1,1], with the channel values given."""
    return np.asarray(values, dtype=float).reshape(1, -1, 1, 1)


class TestRemaps:
    # the remaps fold the channel axis -3 of a [N,C,H,W] minibatch
    def test_remap_old_pixel_arithmetic(self):
        out = losses.remap_old(pixel([0.1, 0.4, 0.3, 0.2]), 2)[0, :, 0, 0]
        assert np.allclose(out, [0.3, 0.4, 0.3], atol=1e-12)

    def test_remap_old_onehot_new_class(self):
        assert np.allclose(losses.remap_old(pixel([0, 0, 0, 1]), 2)[0, :, 0, 0], [1, 0, 0])

    def test_remap_old_uniform(self):
        p = pixel([0.25] * 4)
        assert np.allclose(losses.remap_old(p, 2)[0, :, 0, 0], [0.5, 0.25, 0.25])

    def test_remap_new_pixel_arithmetic(self):
        p = pixel([0.1, 0.4, 0.3, 0.2])
        assert np.allclose(losses.remap_new(p, 2)[0, :, 0, 0], [0.8, 0.2], atol=1e-12)

    def test_remap_new_onehot(self):
        assert np.allclose(losses.remap_new(pixel([0, 0, 0, 1]), 2)[0, :, 0, 0], [0.0, 1.0])

    def test_remap_new_uniform(self):
        p = pixel([0.25] * 4)
        assert np.allclose(losses.remap_new(p, 2)[0, :, 0, 0], [0.75, 0.25])

    def test_channel_count_checked(self):
        p = pixel([1 / 3] * 3)
        with pytest.raises(losses.LossError):
            losses.remap_old(p, 2)
        with pytest.raises(losses.LossError):
            losses.remap_new(p, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(1, 4))
    def test_remaps_preserve_simplex(self, seed, k):
        rng = np.random.Generator(np.random.PCG64(seed))
        p = np.stack([random_probmap(rng, k + 2) for _ in range(3)])
        old = losses.remap_old(p, k)
        new = losses.remap_new(p, k)
        for out in (old, new):
            assert (out >= -1e-12).all()
            assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9
        # channels 1..K copied exactly; backgrounds recombine exactly
        assert np.array_equal(old[:, 1:], p[:, 1:k + 1])
        assert np.abs(old[:, 0] - (p[:, 0] + p[:, k + 1])).max() < 1e-12
        assert np.array_equal(new[:, 1], p[:, k + 1])
        assert np.abs(new.sum(axis=1) - 1.0).max() < 1e-12


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

    def test_minibatch_stacks_images(self):
        hard = np.random.Generator(np.random.PCG64(7)).integers(0, 2, (3, 4, 5))
        want = np.stack([losses.smooth_labels(h, 0.8) for h in hard])
        assert losses.smooth_labels(hard, 0.8).tobytes() == want.tobytes()


class TestLossOld:
    def _inputs(self, seed=7, k=1, h=3, w=3):
        rng = np.random.Generator(np.random.PCG64(seed))
        p_t = random_probmap(rng, k + 1, h, w)
        p_hat = Tensor(random_probmap(rng, k + 1, h, w), requires_grad=True)
        return p_t, p_hat

    def test_zero_weight_zero_loss_and_grad(self):
        p_t, p_hat = self._inputs()
        u = np.zeros((3, 3))
        loss = composed.loss_old(p_t, p_hat, u, 1.0, 20.0)
        backward(loss)
        assert float(loss.data) == 0.0
        assert np.array_equal(p_hat.grad, np.zeros_like(p_hat.data))

    def test_matching_probs_kl_term_zero(self):
        p_t, _ = self._inputs()
        p_hat = Tensor(p_t.copy(), requires_grad=True)
        loss = composed.loss_old(p_t, p_hat, np.ones((3, 3)), 0.0, 1.0)
        assert abs(float(loss.data)) < 1e-9

    def test_analytic_ce_term(self):
        p_t = np.zeros((2, 1, 1))
        p_t[1] = 1.0  # one-hot class 1
        p_hat = Tensor(np.array([0.2, 0.8]).reshape(2, 1, 1))
        loss = composed.loss_old(p_t, p_hat, np.ones((1, 1)), 1.0, 0.0)
        assert float(loss.data) == pytest.approx(-np.log(0.8), abs=1e-9)

    def test_linear_in_constant_weight(self):
        p_t, p_hat = self._inputs(seed=8)
        l1 = float(composed.loss_old(p_t, p_hat, np.ones((3, 3)), 1.0, 20.0).data)
        l3 = float(composed.loss_old(p_t, p_hat, np.full((3, 3), 3.0), 1.0, 20.0).data)
        assert l3 == pytest.approx(3.0 * l1, abs=1e-12)

    def test_negative_weights_rejected(self):
        p_t, p_hat = self._inputs()
        with pytest.raises(losses.LossError):
            composed.loss_old(p_t, p_hat, -np.ones((3, 3)), 1.0, 1.0)
        with pytest.raises(losses.LossError):
            composed.loss_old(p_t, p_hat, np.ones((3, 3)), -1.0, 1.0)


class TestLossNew:
    def test_matching_is_zero(self):
        g = losses.smooth_labels(np.array([[1, 0]]))
        p = Tensor(g.copy())
        assert abs(float(composed.loss_new(p, g).data)) < 1e-12

    def test_analytic_swapped(self):
        g = np.array([0.7, 0.3]).reshape(2, 1, 1)
        p = Tensor(np.array([0.3, 0.7]).reshape(2, 1, 1))
        expected = 0.3 * np.log(3 / 7) + 0.7 * np.log(7 / 3)
        got = float(composed.loss_new(p, g).data)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(0.338919, abs=1e-6)

    def test_gradient_matches_fd(self):
        from test_autodiff import finite_diff, rel_err
        rng = np.random.Generator(np.random.PCG64(9))
        g = losses.smooth_labels(rng.integers(0, 2, (3, 3)))
        p = Tensor(random_probmap(rng, 2, 3, 3), requires_grad=True)

        def fval():
            return float(composed.loss_new(Tensor(p.data), g).data)

        backward(composed.loss_new(p, g))
        fd = finite_diff(fval, p.data)
        assert rel_err(p.grad, fd).max() < 1e-4


class _ZeroNotFalse(float):
    """0.0 in every sum and product, but true as a condition: a zero loss
    weight that makes `distill_loss` compute its old-task term anyway."""

    def __bool__(self):
        return True


def distill_case(seed, std=1.0):
    """Random inputs of `distill_loss` for a minibatch of one image: logits
    of the given spread, and weights drawn with zeros so that each term is
    sometimes off."""
    rng = np.random.Generator(np.random.PCG64(seed))
    k = int(rng.integers(0, 4))
    h, w = (int(v) for v in rng.integers(1, 7, 2))
    logits = rng.normal(0.0, std, (k + 2, h, w))
    p_t = random_probmap(rng, k + 1, h, w)
    u = rng.uniform(0.0, 2.0, (h, w))
    g = losses.smooth_labels(rng.integers(0, 2, (h, w)))
    lams = (float(rng.choice([0.0, 0.3, 1.0])), float(rng.choice([0.0, 20.0])),
            float(rng.choice([0.0, 1.0, 20.0])))
    return logits[None], p_t[None], u[None], g[None], k, lams


def node_and_oracle(logits, p_t, u, g, k, lams):
    """(total, l_old, l_new, logits gradient) of the closed-form head and of
    the composed oracle on the same one-image inputs."""
    total, grad, l_old, l_new = losses.distill_loss(logits.copy(), p_t, u, g, k, *lams)
    b = Tensor(logits[0].copy(), requires_grad=True)
    total_c, l_old_c, l_new_c = composed.distill_loss(
        composed.softmax_channels(b), p_t[0], u[0], g[0], k, *lams)
    backward(total_c)
    return ((total, l_old, l_new, grad[0]),
            (float(total_c.data), float(l_old_c.data), float(l_new_c.data), b.grad))


def clamped_case():
    """Two old organs; logits 40 below the rest leave channels under
    PROB_EPS, so both remaps have clamped pixels: the new organ (and so the
    new-task foreground) on row 0, organ 1 on row 1, and on row 2
    everything but the organs, which leaves the old background
    1 - (organ sum) at or under PROB_EPS."""
    rng = np.random.Generator(np.random.PCG64(11))
    logits = rng.normal(0.0, 1.0, (4, 3, 4))
    logits[3, 0] -= 40.0
    logits[1, 1] -= 40.0
    logits[[0, 3], 2] -= 40.0
    p_t = random_probmap(rng, 3, 3, 4)
    u = rng.uniform(0.0, 2.0, (3, 4))
    g = losses.smooth_labels(rng.integers(0, 2, (3, 4)))
    return logits[None], p_t[None], u[None], g[None], 2, (1.0, 20.0, 20.0)


class TestDistillLoss:
    # 100x the largest |node - oracle| / max|grad| over seeds 0..299 of
    # `distill_case`, rounded up: 2.6e-15 at logit std 1, 7.2e-13 at std 3
    GRAD_TOL = {1.0: 3e-13, 3.0: 1e-10}

    @pytest.mark.parametrize("std", [1.0, 3.0])
    def test_value_equals_oracle(self, std):
        for seed in range(100):
            node, oracle = node_and_oracle(*distill_case(seed, std))
            assert node[:3] == oracle[:3]

    @pytest.mark.parametrize("std", [1.0, 3.0])
    def test_gradient_matches_oracle(self, std):
        worst = 0.0
        for seed in range(100):
            node, oracle = node_and_oracle(*distill_case(seed, std))
            scale = np.abs(oracle[3]).max()
            if scale > 0:
                worst = max(worst, np.abs(node[3] - oracle[3]).max() / scale)
        assert worst < self.GRAD_TOL[std]

    @pytest.mark.parametrize("std", [1.0, 3.0])
    def test_old_term_linear_in_weight_times_lambda(self, std):
        # for c = log C, weights u/c with (l1, l2) give the loss of weights u
        # with (l1/c, l2/c): a mode that divides the entropy by log C only
        # rescales l1 and l2, so it adds no objective
        for seed in range(100):
            logits, p_t, u, g, k, (l1, l2, l3) = distill_case(seed, std)
            if k == 0:  # one teacher class: log C = 0
                continue
            c = np.log(k + 1)
            scaled_u = losses.distill_loss(logits, p_t, u / c, g, k, l1, l2, l3)
            scaled_lams = losses.distill_loss(logits, p_t, u, g, k, l1 / c, l2 / c, l3)
            assert abs(scaled_u[0] - scaled_lams[0]) <= 1e-12 * abs(scaled_lams[0])
            assert (np.abs(scaled_u[1] - scaled_lams[1]).max()
                    <= 1e-12 * np.abs(scaled_lams[1]).max())

    def test_clamped_pixels_match_oracle(self):
        logits, p_t, u, g, k, lams = clamped_case()
        p = losses.softmax(logits)
        assert (losses.remap_old(p, k)[0, 1, 1] <= losses.PROB_EPS).all()
        assert (losses.remap_old(p, k)[0, 0, 2] <= losses.PROB_EPS).all()
        assert (losses.remap_new(p, k)[0, 1, 0] <= losses.PROB_EPS).all()
        node, oracle = node_and_oracle(logits, p_t, u, g, k, lams)
        assert node[:3] == oracle[:3]
        scale = np.abs(oracle[3]).max()
        assert np.abs(node[3] - oracle[3]).max() / scale < self.GRAD_TOL[3.0]

    @pytest.mark.parametrize("case", ["random", "clamped"])
    def test_gradient_matches_fd(self, case):
        from test_autodiff import finite_diff, rel_err
        logits, p_t, u, g, k, _ = distill_case(4, 3.0) if case == "random" else clamped_case()
        lams = (1.0, 20.0, 20.0)

        def fval():
            return losses.distill_loss(logits, p_t, u, g, k, *lams)[0]

        grad = losses.distill_loss(logits, p_t, u, g, k, *lams)[1]
        assert rel_err(grad, finite_diff(fval, logits)).max() < 1e-4

    def test_zero_old_weights_skip_is_byte_identical(self):
        # l1 = l2 = 0 skips the old-task term; a zero that reads as true
        # computes it with zero weights, and nothing may differ in a bit
        for seed in range(20):
            logits, p_t, u, g, k, (_, _, lam3) = distill_case(seed, 3.0)
            out = []
            for zero in (0.0, _ZeroNotFalse(0.0)):
                total, grad, l_old, l_new = losses.distill_loss(logits, p_t, u, g, k,
                                                                zero, zero, lam3)
                out.append((np.float64(total).tobytes(), l_old, l_new, grad.tobytes()))
            assert out[0] == out[1]
            assert out[0][1] == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_minibatch_is_mean_of_images(self, seed):
        # the loss and its terms are the one-image values summed in order
        # and divided by N, to the bit; dlogits is the one-image gradients
        # stacked and scaled by 1/N
        rng = np.random.Generator(np.random.PCG64(seed))
        n, k = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        h, w = (int(v) for v in rng.integers(1, 7, 2))
        batch = (rng.normal(0.0, 3.0, (n, k + 2, h, w)),
                 np.stack([random_probmap(rng, k + 1, h, w) for _ in range(n)]),
                 rng.uniform(0.0, 2.0, (n, h, w)),
                 losses.smooth_labels(rng.integers(0, 2, (n, h, w))))
        lams = (float(rng.choice([0.0, 1.0])), float(rng.choice([0.0, 20.0])), 20.0)
        whole = losses.distill_loss(*batch, k, *lams)
        ones = [losses.distill_loss(*(a[i:i + 1] for a in batch), k, *lams)
                for i in range(n)]
        for j in (0, 2, 3):
            assert whole[j] == sum(one[j] for one in ones) / n
        stacked = np.concatenate([one[1] for one in ones]) * (1.0 / n)
        assert whole[1].tobytes() == stacked.tobytes()

    def test_bad_inputs_rejected(self):
        logits, p_t, u, g, k, lams = clamped_case()
        for args in ((p_t, u, g, k, 1.0, -1.0, 1.0),      # negative weight
                     (p_t, -u, g, k) + lams,              # negative u
                     (p_t, u[..., :2], g, k) + lams,      # u shape
                     (p_t, u[0], g, k) + lams,            # u not batched
                     (p_t[:, :2], u, g, k) + lams,        # teacher channels
                     (p_t.repeat(2, 0), u, g, k) + lams,  # teacher images
                     (p_t, u, 1.0 - g - g, k) + lams,     # g <= 0 somewhere
                     (p_t, u, g[..., :2], k) + lams,      # g shape
                     (p_t, u, g, k + 1) + lams):          # student channels
            with pytest.raises(losses.LossError):
                losses.distill_loss(logits, *args)
