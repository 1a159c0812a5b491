"""Training: one minibatch loop for teacher pretraining and incremental
distillation, and the metrics.

The distillation objective per pixel is
    u * [l1 * H(argmax p_t, p_old) + l2 * KL(p_t || p_old)] + l3 * KL_new
with a frozen teacher, Adam with decoupled weight decay, and the
uncertainty weight u recomputed every step from Q perturbed teacher
passes (unless the mode is "off", which fixes u to 1).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import losses, segnet, uncertainty
from .autodiff import Tensor, backward


class TrainError(Exception):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-5
    weight_decay: float = 3e-5
    batch_size: int = 2
    # 200 epochs leaves the teacher far from converged at lr 3e-5
    teacher_epochs: int = 400
    distill_epochs: int = 200
    lambda1: float = 1.0
    lambda2: float = 20.0
    lambda3: float = 20.0
    ensemble_size: int = 6  # Q perturbed teacher passes per image
    uncertainty_mode: str = "as-paper"  # or normalized / confidence / off
    smooth_fg: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TrainError("learning rate must be > 0")
        if self.batch_size < 1:
            raise TrainError("batch size must be >= 1")
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise TrainError("loss weights must be >= 0")
        if self.ensemble_size < 1:
            raise TrainError("ensemble size Q must be >= 1")
        if self.uncertainty_mode not in uncertainty.WEIGHT_MODES + ("off",):
            raise TrainError(f"unknown uncertainty mode {self.uncertainty_mode!r}")
        if not 0.5 <= self.smooth_fg < 1.0:
            raise TrainError("smoothing foreground value must be in [0.5, 1)")


class Adam:
    """Adam with decoupled weight decay; deterministic, float64."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr: float, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise TrainError(f"non-finite gradient at step {self.t}")
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1 - self.beta2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def dice(pred: np.ndarray, gt: np.ndarray) -> float:
    """2|P∩G| / (|P|+|G|); empty vs empty defined as 1."""
    pred = np.asarray(pred).astype(bool)
    gt = np.asarray(gt).astype(bool)
    if pred.shape != gt.shape:
        raise TrainError(f"dice shape mismatch: {pred.shape} vs {gt.shape}")
    denom = pred.sum() + gt.sum()
    if denom == 0:
        return 1.0
    return 2.0 * (pred & gt).sum() / denom


@dataclass
class EvalReport:
    per_organ: dict          # organ id -> mean Dice over samples
    mean_dice: float
    num_samples: int
    config_hash: str

    def to_dict(self):
        return {
            "per_organ": {str(k): v for k, v in self.per_organ.items()},
            "mean_dice": self.mean_dice,
            "num_samples": self.num_samples,
            "config_hash": self.config_hash,
        }


def config_hash(cfg) -> str:
    """Identity of an experiment's settings. `out_dir` only says where a
    run is written, so it is left out: one experiment gets one hash in
    every output directory."""
    import dataclasses
    doc = dataclasses.asdict(cfg)
    doc.pop("out_dir", None)
    blob = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def predict_labels(model: segnet.SegModel, image: np.ndarray) -> np.ndarray:
    image = image.data if isinstance(image, Tensor) else np.asarray(image)
    return segnet.forward_batch_nograd(model, image[None])[0].argmax(axis=0)


def evaluate(model: segnet.SegModel, samples, organs, cfg=None) -> EvalReport:
    """Per-organ Dice of argmax predictions against full label maps."""
    organs = list(organs)
    if max(organs) >= model.config.num_classes:
        raise TrainError(f"organ id {max(organs)} out of range for "
                         f"{model.config.num_classes}-class model")
    scores = {k: [] for k in organs}
    for s in samples:
        pred = predict_labels(model, s.image)
        for k in organs:
            scores[k].append(dice(pred == k, s.labels == k))
    per_organ = {k: float(np.mean(v)) for k, v in scores.items()}
    return EvalReport(
        per_organ=per_organ,
        mean_dice=float(np.mean(list(per_organ.values()))),
        num_samples=len(samples),
        config_hash=config_hash(cfg) if cfg is not None else "",
    )


def _fit(model: segnet.SegModel, n: int, epochs: int, rng: np.random.Generator,
         cfg: TrainConfig, sample_loss, loss_name: str, log_rows: list | None,
         log_dice, phase: str) -> None:
    """Minibatch Adam on `model` over samples 0..n-1.

    Each epoch shuffles the sample order with `rng`. A minibatch's loss is
    the mean of `sample_loss(idx)` terms; `sample_loss` returns (loss,
    dict of floats to log). With `log_rows`, each epoch appends one row:
    the mean batch loss under `loss_name`, the mean of each logged float,
    then the columns `log_dice()` returns.
    """
    opt = Adam(model.parameters(), cfg.learning_rate, cfg.weight_decay)
    order = np.arange(n)
    for epoch in range(epochs):
        rng.shuffle(order)
        sums = {loss_name: 0.0}
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            opt.zero_grad()
            total = None
            logged = {}
            for idx in batch:
                term, values = sample_loss(idx)
                total = term if total is None else total + term
                for key, v in values.items():
                    logged[key] = logged.get(key, 0.0) + v
            total = total / float(len(batch))
            if not np.isfinite(total.data):
                raise TrainError(f"{phase} loss diverged at epoch {epoch}")
            backward(total)
            opt.step()
            sums[loss_name] += float(total.data)
            for key, v in logged.items():
                sums[key] = sums.get(key, 0.0) + v / len(batch)
            n_batches += 1
        if log_rows is not None:
            row = {"epoch": epoch}
            row.update({key: v / n_batches for key, v in sums.items()})
            row.update(log_dice())
            log_rows.append(row)


def train_teacher(samples, num_organs: int, cfg: TrainConfig,
                  model_cfg: segnet.SegModelConfig | None = None,
                  log_rows: list | None = None) -> segnet.SegModel:
    """Supervised pretraining on first-K labels; returns a frozen model."""
    if model_cfg is None:
        model_cfg = segnet.SegModelConfig(num_classes=num_organs + 1)
    for s in samples:
        if s.labels.max() > num_organs:
            raise TrainError("teacher dataset contains labels above K")
    model = segnet.init_random(model_cfg, cfg.seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, 1))))
    organs = list(range(1, num_organs + 1))

    def sample_loss(idx):
        s = samples[idx]
        probs = losses.softmax_channels(model.forward(Tensor(s.image)))
        return losses.cross_entropy_hard(s.labels, probs), {}

    def log_dice():
        return {f"dice_organ{k}": v
                for k, v in evaluate(model, samples, organs).per_organ.items()}

    _fit(model, len(samples), cfg.teacher_epochs, rng, cfg, sample_loss, "loss",
         log_rows, log_dice, "teacher")
    model.freeze()
    return model


def distill_incremental(teacher: segnet.SegModel, new_samples, cfg: TrainConfig,
                        pool: uncertainty.PoolConfig = uncertainty.PoolConfig(),
                        log_rows: list | None = None) -> segnet.SegModel:
    """Train a (K+2)-channel student from a frozen teacher plus one new organ.

    `new_samples` carry binary labels (1 = new organ). The teacher is
    never updated; its weights are digest-checked on exit.
    """
    if not teacher.frozen:
        raise TrainError("teacher must be frozen before distillation")
    for s in new_samples:
        if s.labels.max() > 1 or s.labels.min() < 0:
            raise TrainError("incremental dataset labels must be binary")
    k_old = teacher.config.num_classes - 1
    digest_before = teacher.weights_digest()

    student = segnet.extend_for_increment(teacher, 1, cfg.seed)
    # one stream feeds both the shuffle and the perturbation draws
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, 2))))
    smoothed = [losses.smooth_labels(s.labels, cfg.smooth_fg) for s in new_samples]
    # teacher is frozen, so its clean-image softmax per sample is a constant
    teacher_probs = losses.softmax(segnet.forward_batch_nograd(
        teacher, np.stack([s.image for s in new_samples])))

    def sample_loss(idx):
        s = new_samples[idx]
        if cfg.uncertainty_mode == "off":
            u, mean_u = np.ones_like(s.labels, dtype=np.float64), 1.0
        else:
            umap = uncertainty.uncertainty_map(teacher, s.image, cfg.ensemble_size,
                                               rng, pool)
            u = uncertainty.weight_from_uncertainty(umap, cfg.uncertainty_mode)
            mean_u = float(umap.values.mean())
        total, l_old, l_new = losses.distill_loss(
            student.forward(Tensor(s.image)), teacher_probs[idx], u, smoothed[idx],
            k_old, cfg.lambda1, cfg.lambda2, cfg.lambda3)
        return total, {"loss_old": l_old, "loss_new": l_new, "mean_u": mean_u}

    def log_dice():
        new_dice = [dice(predict_labels(student, s.image) == k_old + 1, s.labels == 1)
                    for s in new_samples]
        return {f"dice_organ{k_old + 1}": float(np.mean(new_dice))}

    _fit(student, len(new_samples), cfg.distill_epochs, rng, cfg, sample_loss,
         "loss_total", log_rows, log_dice, "distillation")
    if teacher.weights_digest() != digest_before:
        raise TrainError("teacher weights changed during distillation")
    return student
