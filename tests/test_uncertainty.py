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


@pytest.fixture(scope="module")
def tiny_teacher():
    cfg = segnet.SegModelConfig(num_classes=3, hidden=(4,))
    return segnet.init_random(cfg, 11)


class TestUncertaintyMap:
    def test_q_zero_rejected(self, tiny_teacher):
        with pytest.raises(PerturbationError):
            uncertainty_map(tiny_teacher, np.zeros((1, 4, 4)), 0, rng_for(0))

    def test_bounds(self, tiny_teacher):
        rng = rng_for(5)
        for _ in range(50):
            img = rng.uniform(0, 1, (1, 6, 6))
            u = uncertainty_map(tiny_teacher, img, 4, rng)
            assert (u.values >= 0).all()
            assert (u.values <= np.log(3) + 1e-12).all()

    def test_deterministic_per_seed(self, tiny_teacher):
        img = rng_for(6).uniform(0, 1, (1, 8, 8))
        a = uncertainty_map(tiny_teacher, img, 6, rng_for(7))
        b = uncertainty_map(tiny_teacher, img, 6, rng_for(7))
        assert np.array_equal(a.values, b.values)

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
        from useg.autodiff import Tensor
        from useg.losses import softmax_channels
        img = rng_for(8).uniform(0, 1, (1, 6, 6))
        pool = PoolConfig()
        # replicate the draws with an identical rng stream, per-image graph path
        rng = rng_for(9)
        stored = []
        for _ in range(6):
            specs = sample_perturbation(rng, pool)
            xq = apply_perturbation(img, specs, rng)
            stored.append(softmax_channels(tiny_teacher.forward(Tensor(xq))).data)
        expected = uncertainty.entropy_map(np.mean(stored, axis=0))
        got = uncertainty_map(tiny_teacher, img, 6, rng_for(9), pool)
        assert np.abs(got.values - expected).max() < 1e-12

    def test_ensemble_entropy_concavity(self):
        rng = rng_for(10)
        for _ in range(50):
            members = rng.dirichlet(np.ones(4), size=(6, 3, 3)).transpose(0, 3, 1, 2)
            mean_entropy = np.mean([uncertainty.entropy_map(m) for m in members], axis=0)
            ensemble_entropy = uncertainty.entropy_map(members.mean(axis=0))
            assert (ensemble_entropy >= mean_entropy - 1e-9).all()

    def test_teacher_untouched(self, tiny_teacher):
        before = tiny_teacher.weights_digest()
        uncertainty_map(tiny_teacher, rng_for(12).uniform(0, 1, (1, 5, 5)), 3, rng_for(13))
        assert tiny_teacher.weights_digest() == before


class TestWeightFromUncertainty:
    def _umap(self, values, c=3):
        return uncertainty.UncertaintyMap(np.asarray(values, dtype=float), c)

    def test_zero_entropy(self):
        u = self._umap(np.zeros((4, 4)))
        assert np.array_equal(weight_from_uncertainty(u, "as-paper"), np.zeros((4, 4)))
        assert np.array_equal(weight_from_uncertainty(u, "normalized"), np.zeros((4, 4)))
        assert np.array_equal(weight_from_uncertainty(u, "confidence"), np.ones((4, 4)))

    def test_max_entropy_normalized(self):
        u = self._umap(np.full((2, 2), np.log(3)))
        assert np.allclose(weight_from_uncertainty(u, "normalized"), 1.0)

    def test_as_paper_is_identity(self):
        rng = rng_for(14)
        for _ in range(100):
            vals = rng.uniform(0, np.log(3), (5, 5))
            u = self._umap(vals)
            assert np.array_equal(weight_from_uncertainty(u, "as-paper"), vals)

    def test_unknown_mode(self):
        with pytest.raises(PerturbationError):
            weight_from_uncertainty(self._umap(np.zeros((1, 1))), "bogus")
