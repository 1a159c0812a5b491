import numpy as np
import pytest

from useg import segnet, uncertainty
from useg.uncertainty import (
    PerturbationError,
    PoolConfig,
    apply_perturbation,
    uncertainty_map,
    weight_from_uncertainty,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def point_pool(contrast=1.0, brightness=0.0, blur=1.0, noise=0.0):
    """A pool that includes every transform, each at one fixed strength."""
    return PoolConfig(p_include=1.0, contrast_range=(contrast, contrast),
                      brightness_range=(brightness, brightness),
                      blur_sigma_range=(blur, blur), noise_sigma_range=(noise, noise))


def copy_by_hand(img, twin, pool):
    """One copy drawn as two phases: first every inclusion draw and
    strength, in pool order, redrawn while none is included; then the
    transforms, noise last with its pixels drawn after every strength."""
    ranges = (pool.contrast_range, pool.brightness_range,
              pool.blur_sigma_range, pool.noise_sigma_range)
    strengths = [None] * 4
    while all(v is None for v in strengths):
        strengths = [twin.uniform(lo, hi) if twin.random() < pool.p_include else None
                     for lo, hi in ranges]
    contrast, brightness, blur, noise = strengths
    x = img
    if contrast is not None:
        m = x.mean()
        x = m + contrast * (x - m)
    if brightness is not None:
        x = x + brightness
    if blur is not None:
        x = uncertainty._blur(x, blur)
    if noise:
        x = x + twin.normal(0.0, noise, size=x.shape)
    return np.clip(x, 0.0, 1.0)


class RecordingRng(np.random.Generator):
    """A generator that records the (lo, hi, value) of every `uniform`."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.uniforms = []

    def uniform(self, lo, hi):
        value = super().uniform(lo, hi)
        self.uniforms.append((lo, hi, value))
        return value


class TestSamplePerturbation:
    """What `apply_perturbation` draws: which transforms, in which order,
    at which strengths."""

    def test_p_one_gives_all_kinds_in_order(self):
        img = rng_for(0).uniform(0.2, 0.6, (1, 9, 8))
        out = apply_perturbation(img, rng_for(1), point_pool(1.5, 0.05, 0.8))
        m = img.mean()
        want = np.clip(uncertainty._blur(m + 1.5 * (img - m) + 0.05, 0.8), 0.0, 1.0)
        assert out.tobytes() == want.tobytes()

    def test_p_zero_rejected(self):
        with pytest.raises(PerturbationError):
            PoolConfig(p_include=0.0)

    def test_deterministic_per_seed(self):
        img = rng_for(41).uniform(0, 1, (1, 6, 6))
        rng_a, rng_b = rng_for(42), rng_for(42)
        for _ in range(20):
            a = apply_perturbation(img, rng_a, PoolConfig())
            b = apply_perturbation(img, rng_b, PoolConfig())
            assert a.tobytes() == b.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_never_empty(self):
        # every transform of this pool changes the image, so a copy equal
        # to it would be one that included none
        rng = rng_for(1)
        img = rng.uniform(0.3, 0.5, (1, 6, 6))
        pool = PoolConfig(p_include=0.05, contrast_range=(2.0, 2.0),
                          brightness_range=(0.3, 0.3), noise_sigma_range=(0.1, 0.1))
        for _ in range(200):
            assert not np.array_equal(apply_perturbation(img, rng, pool), img)

    def test_parameters_within_ranges(self):
        rng = RecordingRng(2)
        pool = PoolConfig(p_include=1.0)
        ranges = [pool.contrast_range, pool.brightness_range,
                  pool.blur_sigma_range, pool.noise_sigma_range]
        img = rng_for(3).uniform(0, 1, (1, 5, 5))
        for _ in range(100):
            apply_perturbation(img, rng, pool)
        assert [(lo, hi) for lo, hi, _ in rng.uniforms] == ranges * 100
        assert all(lo <= v <= hi for lo, hi, v in rng.uniforms)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(PerturbationError):
            PoolConfig(blur_sigma_range=(2.0, 1.0))
        with pytest.raises(PerturbationError):
            PoolConfig(contrast_range=(-0.5, 1.0))


class TestApplyPerturbation:
    def test_identity_specs(self):
        img = rng_for(3).uniform(0.2, 0.8, (1, 8, 8))
        for sigma in (0.5, 1.0, 1.7):
            out = apply_perturbation(img, rng_for(4), point_pool(blur=sigma))
            want = np.clip(uncertainty._blur(img, sigma), 0.0, 1.0)
            assert np.abs(out - want).max() <= 1e-15

    def test_blur_preserves_constant_image(self):
        img = np.full((1, 10, 10), 0.4)
        for sigma in (0.5, 1.0, 2.5):
            out = apply_perturbation(img, rng_for(5), point_pool(blur=sigma))
            assert np.allclose(out, 0.4, atol=1e-12)

    def test_blur_preserves_delta_mass_interior(self):
        # oracle: a normalized kernel redistributes but conserves mass
        img = np.zeros((1, 21, 21))
        img[0, 10, 10] = 1.0
        out = apply_perturbation(img, rng_for(6), point_pool(blur=1.0))
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_shape_preserved_random_specs(self):
        rng = rng_for(4)
        img = rng.uniform(0, 1, (1, 7, 5))
        for _ in range(200):
            assert apply_perturbation(img, rng, PoolConfig()).shape == img.shape

    def test_output_clamped(self):
        img = np.full((1, 4, 4), 0.95)
        out = apply_perturbation(img, rng_for(7), point_pool(brightness=0.5))
        assert out.max() <= 1.0

    @pytest.mark.parametrize("p_include", [1.0, 0.1])
    def test_draws_match_copy_by_hand(self, p_include):
        # the draws and float operations of a copy drawn in two phases;
        # at 0.1 most copies redraw at least once, and noise of σ = 0
        # draws no pixels
        img = rng_for(8).uniform(0, 1, (1, 7, 6))
        for noise in ((0.0, 0.05), (0.0, 0.0)):
            pool = PoolConfig(p_include=p_include, noise_sigma_range=noise)
            for seed in range(30):
                rng, twin = rng_for(seed), rng_for(seed)
                out = apply_perturbation(img, rng, pool)
                assert out.tobytes() == copy_by_hand(img, twin, pool).tobytes()
                assert rng.bit_generator.state == twin.bit_generator.state

    def test_shape_change_raises(self, monkeypatch):
        # a check that raises, not an assert, so it holds under python -O
        monkeypatch.setattr(uncertainty, "_blur", lambda img, sigma: img[..., 1:, :])
        with pytest.raises(PerturbationError, match="shape"):
            apply_perturbation(np.zeros((1, 4, 4)), rng_for(0), point_pool())


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
            xq = apply_perturbation(img, rng, pool)
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
        assert np.array_equal(weight_from_uncertainty(u, 3, "confidence"), np.ones((2, 4, 4)))

    def test_as_paper_is_identity(self):
        rng = rng_for(14)
        for _ in range(100):
            vals = rng.uniform(0, np.log(3), (2, 5, 5))
            assert np.array_equal(weight_from_uncertainty(vals, 3, "as-paper"), vals)

    def test_unknown_mode(self):
        with pytest.raises(PerturbationError):
            weight_from_uncertainty(np.zeros((1, 1, 1)), 3, "bogus")
