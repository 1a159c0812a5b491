import dataclasses

import numpy as np
import pytest

import composed_losses as composed
from graph import Tensor
from useg import losses, phantom, segnet, trainer, uncertainty
from useg.trainer import Adam, TrainConfig, TrainError, dice, evaluate, predict_labels


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


class Param:
    """A flat parameter vector and its gradient, as a model holds them."""

    def __init__(self, values):
        self.data = np.asarray(values, dtype=float)
        self.grad = np.zeros_like(self.data)


class TestAdam:
    def _param(self, values):
        return Param(values)

    def test_zero_grad_zero_wd_no_change(self):
        p = self._param([1.0, -2.0])
        opt = Adam(p.data, p.grad, lr=0.1, weight_decay=0.0)
        opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        p = self._param([0.0, 0.0])
        p.grad[:] = [3.0, 0.5]
        opt = Adam(p.data, p.grad, lr=0.01)
        opt.step()
        # bias-corrected first step moves by lr regardless of grad scale
        assert np.allclose(p.data, [-0.01, -0.01], rtol=1e-6)

    def test_pure_weight_decay_shrinks(self):
        p = self._param([2.0])
        opt = Adam(p.data, p.grad, lr=0.1, weight_decay=0.5)
        opt.step()
        # decoupled: p <- p(1 - lr*wd), Adam update is 0 for zero grad
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_nonfinite_gradient_aborts(self):
        p = self._param([1.0])
        p.grad[:] = [np.inf]
        opt = Adam(p.data, p.grad, lr=0.1)
        with pytest.raises(TrainError):
            opt.step()

    def test_deterministic(self):
        results = []
        for _ in range(2):
            p = self._param([1.0, 2.0])
            opt = Adam(p.data, p.grad, lr=0.05, weight_decay=0.01)
            for step in range(10):
                p.grad[:] = [0.1 * step, -0.2]
                opt.step()
            results.append(p.data.copy())
        assert np.array_equal(results[0], results[1])


class TestDice:
    def test_perfect_overlap(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[3:13, 4:14] = True
        assert dice(mask, mask) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = True
        b[3, 3] = True
        assert dice(a, b) == 0.0

    def test_half_overlap(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, :4] = True          # |P| = 4
        b[0, 2:4] = True
        b[1, 0:2] = True         # |G| = 4, overlap 2
        assert dice(a, b) == 0.5

    def test_empty_vs_empty_is_one(self):
        z = np.zeros((3, 3), dtype=bool)
        assert dice(z, z) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(TrainError):
            dice(np.zeros((2, 2)), np.zeros((3, 3)))


@pytest.fixture(scope="module")
def tiny_phantoms():
    cfg = phantom.PhantomConfig(size=16, num_organs=2, organ_means=(0.4, 0.8),
                                radius_range=(2.0, 3.5), seed=21)
    return cfg, phantom.generate_dataset(cfg, 6)


class TestEvaluate:
    def test_perfect_model_scores_one(self, tiny_phantoms):
        _, samples = tiny_phantoms

        class Oracle:
            config = segnet.SegModelConfig(num_classes=3)

        oracle = segnet.init_random(Oracle.config, 0)
        # cheat: patch predict to ground truth by evaluating dice directly
        for s in samples:
            assert dice(s.labels == 1, s.labels == 1) == 1.0
        report = evaluate(oracle, samples, [1, 2])
        assert set(report.per_organ) == {1, 2}

    def test_constant_background_model_scores_zero(self, tiny_phantoms):
        _, samples = tiny_phantoms
        model = segnet.init_random(segnet.SegModelConfig(num_classes=3, hidden=()), 0)
        kern, bias = model.layers[0]
        kern.data[:] = 0.0
        bias.data[:] = [5.0, 0.0, 0.0]  # always predicts background
        report = evaluate(model, samples, [1, 2])
        assert report.per_organ == {1: 0.0, 2: 0.0}

    def test_sample_order_invariant(self, tiny_phantoms):
        _, samples = tiny_phantoms
        model = segnet.init_random(segnet.SegModelConfig(num_classes=3), 1)
        a = evaluate(model, samples, [1, 2])
        b = evaluate(model, list(reversed(samples)), [1, 2])
        assert a.per_organ == pytest.approx(b.per_organ)

    def test_organ_out_of_range(self, tiny_phantoms):
        _, samples = tiny_phantoms
        model = segnet.init_random(segnet.SegModelConfig(num_classes=3), 1)
        with pytest.raises(TrainError):
            evaluate(model, samples, [5])

    def test_no_samples(self):
        model = segnet.init_random(segnet.SegModelConfig(num_classes=3), 1)
        with pytest.raises(TrainError, match="no samples"):
            evaluate(model, [], [1, 2])

    def test_batched_equals_image_by_image(self, tiny_phantoms):
        # the batched prediction scores each sample as a one-image forward does
        _, samples = tiny_phantoms
        model = segnet.init_random(segnet.SegModelConfig(num_classes=3), 2)
        preds = [segnet.forward(model, s.image[None], cache=False)[0][0].argmax(axis=0)
                 for s in samples]
        assert np.array_equal(predict_labels(model, np.stack([s.image for s in samples])),
                              np.stack(preds))
        want = {k: float(np.mean([dice(p == k, s.labels == k)
                                  for p, s in zip(preds, samples)])) for k in (1, 2)}
        assert evaluate(model, samples, [1, 2]).per_organ == want


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(TrainError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(TrainError):
            TrainConfig(batch_size=0)
        with pytest.raises(TrainError):
            TrainConfig(lambda2=-1.0)
        with pytest.raises(TrainError):
            TrainConfig(uncertainty_mode="bogus")
        with pytest.raises(TrainError):
            TrainConfig(ensemble_size=0)
        for bad in (dict(teacher_epochs=0), dict(teacher_epochs=-3),
                    dict(distill_epochs=0), dict(weight_decay=-0.5)):
            with pytest.raises(TrainError):
                TrainConfig(**bad)
        TrainConfig(teacher_epochs=1, distill_epochs=1, weight_decay=0.0)


def quick_cfg(**kw):
    base = dict(teacher_epochs=30, distill_epochs=10, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainTeacher:
    def test_overfit_single_sample(self, tiny_phantoms):
        _, samples = tiny_phantoms
        sample = phantom.to_first_k_organs(samples[0], 2, 2)
        cfg = quick_cfg(teacher_epochs=250, learning_rate=3e-3)
        teacher = trainer.train_teacher([sample], 2, cfg)
        report = evaluate(teacher, [samples[0]], [1, 2])
        assert report.mean_dice >= 0.95

    def test_deterministic_per_seed(self, tiny_phantoms):
        _, samples = tiny_phantoms
        teach = [phantom.to_first_k_organs(s, 2, 2) for s in samples[:4]]
        a = trainer.train_teacher(teach, 2, quick_cfg())
        b = trainer.train_teacher(teach, 2, quick_cfg())
        assert a.weights_digest() == b.weights_digest()

    def test_returns_frozen(self, tiny_phantoms):
        _, samples = tiny_phantoms
        teach = [phantom.to_first_k_organs(s, 2, 2) for s in samples[:2]]
        teacher = trainer.train_teacher(teach, 2, quick_cfg(teacher_epochs=2))
        assert teacher.frozen
        assert not any(p.requires_grad for p in teacher.parameters())

    def test_labels_above_k_rejected(self, tiny_phantoms):
        _, samples = tiny_phantoms
        with pytest.raises(TrainError):
            trainer.train_teacher(samples[:2], 1, quick_cfg(teacher_epochs=1))

    def test_loss_decreases(self, tiny_phantoms):
        _, samples = tiny_phantoms
        teach = [phantom.to_first_k_organs(s, 2, 2) for s in samples]
        rows = []
        trainer.train_teacher(teach, 2, quick_cfg(teacher_epochs=40,
                                                  learning_rate=1e-3), log_rows=rows)
        assert rows[-1]["loss"] < rows[0]["loss"]


@pytest.fixture(scope="module")
def distill_setup(tiny_phantoms):
    cfg, samples = tiny_phantoms
    teach = [phantom.to_first_k_organs(s, 1, 2) for s in samples[:4]]
    teacher = trainer.train_teacher(teach, 1, quick_cfg(teacher_epochs=60,
                                                        learning_rate=1e-3))
    new = [phantom.to_single_organ(s, 2, 2) for s in samples[:4]]
    return teacher, new, samples


class TestDistill:
    def test_teacher_weights_unchanged(self, distill_setup):
        teacher, new, _ = distill_setup
        before = teacher.weights_digest()
        trainer.distill_incremental(teacher, new, quick_cfg(distill_epochs=3))
        assert teacher.weights_digest() == before

    def test_requires_frozen_teacher(self, distill_setup):
        _, new, _ = distill_setup
        unfrozen = segnet.init_random(segnet.SegModelConfig(num_classes=2), 0)
        with pytest.raises(TrainError):
            trainer.distill_incremental(unfrozen, new, quick_cfg())

    def test_nonbinary_labels_rejected(self, distill_setup):
        teacher, _, samples = distill_setup
        with pytest.raises(TrainError):
            trainer.distill_incremental(teacher, samples[:2], quick_cfg())

    def test_deterministic(self, distill_setup):
        teacher, new, _ = distill_setup
        a = trainer.distill_incremental(teacher, new, quick_cfg(distill_epochs=4))
        b = trainer.distill_incremental(teacher, new, quick_cfg(distill_epochs=4))
        assert a.weights_digest() == b.weights_digest()

    def test_all_lambdas_zero_only_weight_decay(self, distill_setup):
        teacher, new, _ = distill_setup
        cfg = quick_cfg(distill_epochs=1, lambda1=0.0, lambda2=0.0, lambda3=0.0,
                        uncertainty_mode="off", batch_size=len(new))
        student_before = segnet.extend_for_increment(teacher, 1, cfg.seed)
        student = trainer.distill_incremental(teacher, new, cfg)
        decay = 1.0 - cfg.learning_rate * cfg.weight_decay
        steps = 1  # one batch covers the dataset
        for (k0, b0), (k1, b1) in zip(student_before.layers, student.layers):
            assert np.allclose(k1.data, k0.data * decay ** steps, rtol=1e-12)

    def test_objective_composition_identity(self, distill_setup):
        # u == 1, l1=0, l2=1, l3=1 makes the step loss KL + loss_new exactly
        teacher, new, _ = distill_setup
        s = new[0]
        student = segnet.extend_for_increment(teacher, 1, 3)
        u = np.ones((1,) + s.labels.shape)
        p_t = losses.softmax(segnet.forward(teacher, s.image[None])[0])
        s_logits = segnet.forward(student, s.image[None])[0]
        total = losses.distill_loss(s_logits, p_t, u, losses.smooth_labels(s.labels[None]),
                                    1, 0.0, 1.0, 1.0)[0]
        p_s2 = composed.softmax_channels(Tensor(s_logits[0]))
        kl = composed.kl_divergence(p_t[0], composed.remap_old(p_s2, 1))
        ln = composed.loss_new(composed.remap_new(p_s2, 1), losses.smooth_labels(s.labels))
        assert total == pytest.approx(float(kl.data) + float(ln.data), abs=1e-12)

    def test_uncertainty_off_means_unit_weights(self, distill_setup, monkeypatch):
        # mode off computes no uncertainty map and weights every pixel by 1
        teacher, new, _ = distill_setup

        def no_map(*args, **kwargs):
            raise AssertionError("mode off computed an uncertainty map")

        weights = []
        real_distill_loss = losses.distill_loss

        def recording_distill_loss(logits, p_t, u, *rest):
            weights.append(u)
            return real_distill_loss(logits, p_t, u, *rest)

        monkeypatch.setattr(uncertainty, "uncertainty_map", no_map)
        monkeypatch.setattr(losses, "distill_loss", recording_distill_loss)
        rows = []
        trainer.distill_incremental(teacher, new, quick_cfg(
            distill_epochs=2, uncertainty_mode="off"), log_rows=rows)
        # one call per minibatch: 4 samples in batches of 2, for 2 epochs
        assert len(weights) == 2 * 2
        assert all(np.array_equal(u, np.ones((2,) + new[0].labels.shape)) for u in weights)
        assert [r["mean_u"] for r in rows] == [1.0, 1.0]

    def test_control_skip_gives_same_weights(self, distill_setup):
        # the control (l1 = l2 = 0) skips the old-task term; a zero weight
        # that reads as true makes every step compute it, to the same bits
        from test_losses import _ZeroNotFalse
        teacher, new, _ = distill_setup
        cfg = quick_cfg(distill_epochs=3, lambda1=0.0, lambda2=0.0,
                        uncertainty_mode="off")
        forced = dataclasses.replace(cfg, lambda1=_ZeroNotFalse(0.0),
                                     lambda2=_ZeroNotFalse(0.0))
        rows_skip, rows_forced = [], []
        skip = trainer.distill_incremental(teacher, new, cfg, log_rows=rows_skip)
        full = trainer.distill_incremental(teacher, new, forced, log_rows=rows_forced)
        assert skip.weights_digest() == full.weights_digest()
        assert rows_skip == rows_forced
        assert [r["loss_old"] for r in rows_skip] == [0.0, 0.0, 0.0]


class TestConfigHash:
    def test_stable_and_sensitive(self):
        a = trainer.config_hash(quick_cfg())
        b = trainer.config_hash(quick_cfg())
        c = trainer.config_hash(quick_cfg(lambda3=5.0))
        assert a == b
        assert a != c

    def test_out_dir_not_hashed(self):
        from useg.config import parse_experiment
        doc = {"seed": 0, "scenario": {"teacher_organs": 2, "new_organ": 3}}
        a = parse_experiment({**doc, "out_dir": "a"})
        b = parse_experiment({**doc, "out_dir": "b"})
        assert trainer.config_hash(a) == trainer.config_hash(b)
