import numpy as np
import pytest

from useg import segnet, uncertainty
from useg.uncertainty import (
    PerturbationError,
    PerturbationSpec,
    PoolConfig,
    apply_perturbation,
    sample_perturbation,
    uncertainty_map,
    weight_from_uncertainty,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestSamplePerturbation:
    def test_p_one_gives_all_kinds_in_order(self):
        specs = sample_perturbation(rng_for(0), PoolConfig(p_include=1.0))
        assert [s.kind for s in specs] == list(uncertainty.KINDS)

    def test_p_zero_rejected(self):
        with pytest.raises(PerturbationError):
            PoolConfig(p_include=0.0)

    def test_deterministic_per_seed(self):
        a = sample_perturbation(rng_for(42))
        b = sample_perturbation(rng_for(42))
        assert a == b

    def test_never_empty(self):
        rng = rng_for(1)
        cfg = PoolConfig(p_include=0.05)
        for _ in range(200):
            assert len(sample_perturbation(rng, cfg)) >= 1

    def test_parameters_within_ranges(self):
        rng = rng_for(2)
        cfg = PoolConfig(p_include=1.0)
        ranges = {"contrast": cfg.contrast_range, "brightness": cfg.brightness_range,
                  "gaussian_blur": cfg.blur_sigma_range,
                  "gaussian_noise": cfg.noise_sigma_range}
        for _ in range(100):
            for s in sample_perturbation(rng, cfg):
                lo, hi = ranges[s.kind]
                assert lo <= s.value <= hi

    def test_invalid_ranges_rejected(self):
        with pytest.raises(PerturbationError):
            PoolConfig(blur_sigma_range=(2.0, 1.0))
        with pytest.raises(PerturbationError):
            PoolConfig(contrast_range=(-0.5, 1.0))


class TestApplyPerturbation:
    def test_identity_specs(self):
        img = rng_for(3).uniform(0.2, 0.8, (1, 8, 8))
        specs = [PerturbationSpec("contrast", 1.0), PerturbationSpec("brightness", 0.0)]
        out = apply_perturbation(img, specs)
        assert np.allclose(out, img)

    def test_blur_preserves_constant_image(self):
        img = np.full((1, 10, 10), 0.4)
        for sigma in (0.5, 1.0, 2.5):
            out = apply_perturbation(img, [PerturbationSpec("gaussian_blur", sigma)])
            assert np.allclose(out, 0.4, atol=1e-12)

    def test_blur_preserves_delta_mass_interior(self):
        # oracle: a normalized kernel redistributes but conserves mass
        img = np.zeros((1, 21, 21))
        img[0, 10, 10] = 1.0
        out = apply_perturbation(img, [PerturbationSpec("gaussian_blur", 1.0)])
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_shape_preserved_random_specs(self):
        rng = rng_for(4)
        img = rng.uniform(0, 1, (1, 7, 5))
        for _ in range(200):
            specs = sample_perturbation(rng)
            out = apply_perturbation(img, specs, rng)
            assert out.shape == img.shape

    def test_output_clamped(self):
        img = np.full((1, 4, 4), 0.95)
        out = apply_perturbation(img, [PerturbationSpec("brightness", 0.5)])
        assert out.max() <= 1.0

    def test_noise_needs_rng(self):
        with pytest.raises(PerturbationError):
            apply_perturbation(np.zeros((1, 2, 2)),
                               [PerturbationSpec("gaussian_noise", 0.1)])

    def test_shape_change_raises(self, monkeypatch):
        # a check that raises, not an assert, so it holds under python -O
        monkeypatch.setattr(uncertainty, "_blur", lambda img, sigma: img[..., 1:, :])
        with pytest.raises(PerturbationError, match="shape"):
            apply_perturbation(np.zeros((1, 4, 4)),
                               [PerturbationSpec("gaussian_blur", 1.0)])


def nearest_correlate(x, kern, axis):
    """Literal reference: per output pixel, a loop over the taps, each
    reading the source pixel at its offset clamped to the edge."""
    x = np.moveaxis(x, axis, -1)
    n, r = x.shape[-1], len(kern) // 2
    out = np.zeros_like(x)
    for i in range(n):
        for t, w in enumerate(kern):
            out[..., i] += w * x[..., min(max(i + t - r, 0), n - 1)]
    return np.moveaxis(out, -1, axis)


def gaussian_kernel(sigma):
    radius = int(np.ceil(3.0 * sigma))
    kern = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
    return kern / kern.sum()


def blur_cases(seed, n):
    """(image, sigma): sigma in (0.05, 4], shapes down to 1x1, and radii
    (up to 12) larger than the image."""
    rng = rng_for(seed)
    fixed = [(1, 1), (1, 7), (7, 1), (2, 3), (5, 4), (32, 32)]
    for i in range(n):
        h, w = fixed[i] if i < len(fixed) else rng.integers(1, 40, 2)
        lead = (int(rng.integers(1, 4)),) if i % 4 == 3 else (1,)
        yield rng.uniform(0, 1, lead + (int(h), int(w))), float(rng.uniform(0.05, 4.0))


class TestBlurOracles:
    def test_matches_literal_nearest_reference(self):
        for img, sigma in blur_cases(20, 120):
            kern = gaussian_kernel(sigma)
            want = nearest_correlate(nearest_correlate(img, kern, -2), kern, -1)
            got = uncertainty._blur(img, sigma)
            assert got.shape == img.shape and got.flags.c_contiguous
            assert np.abs(got - want).max() <= 1e-15, (img.shape, sigma)

    def test_bytes_equal_scipy_correlate1d(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        for img, sigma in blur_cases(21, 400):
            kern = gaussian_kernel(sigma)
            want = ndimage.correlate1d(img, kern, axis=-2, mode="nearest")
            want = ndimage.correlate1d(want, kern, axis=-1, mode="nearest")
            assert uncertainty._blur(img, sigma).tobytes() == want.tobytes(), (img.shape, sigma)


@pytest.fixture(scope="module")
def tiny_teacher():
    cfg = segnet.SegModelConfig(num_classes=3, hidden=(4,))
    return segnet.init_random(cfg, 11)


class TestUncertaintyMap:
    def test_q_zero_rejected(self, tiny_teacher):
        with pytest.raises(PerturbationError):
            uncertainty_map(tiny_teacher, np.zeros((1, 1, 4, 4)), 0, rng_for(0))

    def test_bounds(self, tiny_teacher):
        rng = rng_for(5)
        for _ in range(50):
            img = rng.uniform(0, 1, (2, 1, 6, 6))
            u = uncertainty_map(tiny_teacher, img, 4, rng)
            assert u.shape == (2, 6, 6)
            assert (u >= 0).all()
            assert (u <= np.log(3) + 1e-12).all()

    def test_deterministic_per_seed(self, tiny_teacher):
        img = rng_for(6).uniform(0, 1, (1, 1, 8, 8))
        a = uncertainty_map(tiny_teacher, img, 6, rng_for(7))
        b = uncertainty_map(tiny_teacher, img, 6, rng_for(7))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("b, q", [(1, 1), (2, 6), (3, 2), (5, 3)])
    def test_minibatch_equals_per_image_calls(self, tiny_teacher, b, q):
        # the copies are drawn image by image in minibatch order, so one
        # call over B images gives the bytes of B one-image calls that
        # share the rng, and leaves the rng in the same state
        imgs = rng_for(20 + b).uniform(0, 1, (b, 1, 7, 5))
        rng_a, rng_b = rng_for(21), rng_for(21)
        whole = uncertainty_map(tiny_teacher, imgs, q, rng_a)
        ones = np.concatenate([uncertainty_map(tiny_teacher, img[None], q, rng_b)
                               for img in imgs])
        assert whole.tobytes() == ones.tobytes()
        assert rng_a.random() == rng_b.random()

    def test_two_member_analytic(self):
        # mean of one-hot [1,0] and [0,1] is uniform: entropy ln 2
        probs = np.stack([np.array([[[1.0]], [[0.0]]]), np.array([[[0.0]], [[1.0]]])])
        mean = probs.mean(axis=0)
        u = uncertainty.entropy_map(mean)
        assert u[0, 0] == pytest.approx(np.log(2), abs=1e-12)

    def test_identical_onehot_members_zero(self):
        mean = np.zeros((3, 2, 2))
        mean[1] = 1.0
        assert np.array_equal(uncertainty.entropy_map(mean), np.zeros((2, 2)))

    def test_matches_recomputation_oracle(self, tiny_teacher):
        import graph
        from composed_losses import softmax_channels
        img = rng_for(8).uniform(0, 1, (1, 6, 6))
        pool = PoolConfig()
        # replicate the draws with an identical rng stream, per-image graph path
        rng = rng_for(9)
        params = graph.parameters(tiny_teacher)
        stored = []
        for _ in range(6):
            specs = sample_perturbation(rng, pool)
            xq = apply_perturbation(img, specs, rng)
            stored.append(softmax_channels(graph.model_forward(params, xq)).data)
        expected = uncertainty.entropy_map(np.mean(stored, axis=0))
        got = uncertainty_map(tiny_teacher, img[None], 6, rng_for(9), pool)
        assert np.abs(got[0] - expected).max() < 1e-12

    def test_ensemble_entropy_concavity(self):
        rng = rng_for(10)
        for _ in range(50):
            members = rng.dirichlet(np.ones(4), size=(6, 3, 3)).transpose(0, 3, 1, 2)
            mean_entropy = np.mean([uncertainty.entropy_map(m) for m in members], axis=0)
            ensemble_entropy = uncertainty.entropy_map(members.mean(axis=0))
            assert (ensemble_entropy >= mean_entropy - 1e-9).all()

    def test_teacher_untouched(self, tiny_teacher):
        before = tiny_teacher.weights_digest()
        uncertainty_map(tiny_teacher, rng_for(12).uniform(0, 1, (2, 1, 5, 5)), 3, rng_for(13))
        assert tiny_teacher.weights_digest() == before


class TestWeightFromUncertainty:
    # entropies of 3 classes, whose largest is log 3
    def test_zero_entropy(self):
        u = np.zeros((2, 4, 4))
        assert np.array_equal(weight_from_uncertainty(u, 3, "as-paper"), np.zeros((2, 4, 4)))
        assert np.array_equal(weight_from_uncertainty(u, 3, "normalized"), np.zeros((2, 4, 4)))
        assert np.array_equal(weight_from_uncertainty(u, 3, "confidence"), np.ones((2, 4, 4)))

    def test_max_entropy_normalized(self):
        u = np.full((1, 2, 2), np.log(3))
        assert np.allclose(weight_from_uncertainty(u, 3, "normalized"), 1.0)

    def test_as_paper_is_identity(self):
        rng = rng_for(14)
        for _ in range(100):
            vals = rng.uniform(0, np.log(3), (2, 5, 5))
            assert np.array_equal(weight_from_uncertainty(vals, 3, "as-paper"), vals)

    def test_unknown_mode(self):
        with pytest.raises(PerturbationError):
            weight_from_uncertainty(np.zeros((1, 1, 1)), 3, "bogus")
