"""Probability transforms and distillation loss terms.

All losses reduce by mean over pixels so that the loss weights are
resolution-independent. Probabilities are clamped at ``PROB_EPS`` before
any log. Teacher/target probabilities are always detached; gradient flows
only into the student prediction.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

PROB_EPS = 1e-12


class LossError(Exception):
    pass


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _xlogx(p: np.ndarray) -> np.ndarray:
    # convention 0*log(0) = 0
    out = np.zeros_like(p)
    pos = p > 0.0
    out[pos] = p[pos] * np.log(p[pos])
    return out


def _npix(shape) -> int:
    h, w = shape[-2], shape[-1]
    return h * w


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the channel axis (-3) of a [..., C, H, W] array, no graph."""
    e = np.exp(logits - logits.max(axis=-3, keepdims=True))
    return e / e.sum(axis=-3, keepdims=True)


def softmax_channels(logits: Tensor) -> Tensor:
    """Per-pixel softmax over the channel axis of a [C,H,W] tensor."""
    if logits.shape[0] < 2:
        raise LossError(f"softmax needs at least 2 channels, got {logits.shape[0]}")
    # constant shift: the gradient of logsumexp is shift-invariant
    shift = logits.data.max(axis=0, keepdims=True)
    e = (logits - Tensor(shift)).exp()
    return e / e.sum(axis=0, keepdims=True)


def kl_divergence(target, pred: Tensor) -> Tensor:
    """Mean-per-pixel KL(target || pred); gradient flows into pred only."""
    t = _as_array(target)
    if t.shape != pred.shape:
        raise LossError(f"KL shape mismatch: {t.shape} vs {pred.shape}")
    npix = _npix(t.shape)
    const = float(_xlogx(t).sum()) / npix
    cross = (Tensor(t) * pred.clamp_min(PROB_EPS).log()).sum() / npix
    return const - cross


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise LossError(f"label out of range for {num_classes} classes")
    out = np.zeros((num_classes,) + labels.shape)
    for c in range(num_classes):
        out[c] = labels == c
    return out


def cross_entropy_hard(labels: np.ndarray, pred: Tensor) -> Tensor:
    """Mean over pixels of -log pred[label]."""
    onehot = one_hot(labels, pred.shape[0])
    npix = _npix(pred.shape)
    return -(Tensor(onehot) * pred.clamp_min(PROB_EPS).log()).sum() / npix


def remap_old(p: np.ndarray, num_old_organs: int) -> np.ndarray:
    """Fold the new-organ channel into background: [K+2,H,W] -> [K+1,H,W].

    Channels 1..K are copied; channel 0 becomes 1 - sum(channels 1..K),
    i.e. p(0) + p(K+1).
    """
    k = num_old_organs
    if p.shape[0] != k + 2:
        raise LossError(f"remap_old expects {k + 2} channels, got {p.shape[0]}")
    organs = p[1:k + 1]
    return np.concatenate([1.0 - organs.sum(axis=0, keepdims=True), organs])


def remap_new(p: np.ndarray, num_old_organs: int) -> np.ndarray:
    """Fold background and all old organs together: [K+2,H,W] -> [2,H,W]."""
    k = num_old_organs
    if p.shape[0] != k + 2:
        raise LossError(f"remap_new expects {k + 2} channels, got {p.shape[0]}")
    return np.concatenate([p[:k + 1].sum(axis=0, keepdims=True), p[k + 1:k + 2]])


def smooth_labels(hard: np.ndarray, fg: float = 0.7) -> np.ndarray:
    """Binary label map -> [2,H,W] smoothed targets (fg/1-fg)."""
    hard = np.asarray(hard)
    if not np.isin(hard, (0, 1)).all():
        raise LossError("smooth_labels expects a binary label map")
    bg = 1.0 - fg
    out = np.empty((2,) + hard.shape)
    out[0] = np.where(hard == 1, bg, fg)
    out[1] = np.where(hard == 1, fg, bg)
    return out


def distill_loss(logits: Tensor, p_t, u: np.ndarray, smoothed, num_old_organs: int,
                 lambda1: float, lambda2: float, lambda3: float):
    """The distillation objective for one image, as one graph node.

    With p = softmax(logits), q_old = remap_old(p) and q_new = remap_new(p),
    each clamped at PROB_EPS before its log, the loss is the mean over
    pixels of
        u * [l1 * -log q_old[argmax p_t] + l2 * KL(p_t || q_old)]
        + l3 * KL(q_new, g)
    (the new-task KL in the paper's literal prediction-first order, g the
    smoothed labels). The backward is closed form: with g_p = dL/dp,
    dL/dlogits = p * (g_p - <g_p, p>). When l1 = l2 = 0 the old-task term
    is skipped and l_old is 0.0, which is what computing it would give.

    Returns (total, l_old, l_new): a scalar Tensor and two floats.
    """
    if min(lambda1, lambda2, lambda3) < 0:
        raise LossError("loss weights must be nonnegative")
    k = num_old_organs
    p = softmax(logits.data)
    q_new = remap_new(p, k)
    t = _as_array(p_t)
    g = _as_array(smoothed)
    u = np.asarray(u, dtype=np.float64)
    if t.shape != (k + 1,) + p.shape[1:]:
        raise LossError(f"teacher probabilities {t.shape} do not match the old-task "
                        f"remap {(k + 1,) + p.shape[1:]}")
    if u.shape != t.shape[1:]:
        raise LossError(f"weight map shape {u.shape} does not match pixels {t.shape[1:]}")
    if (u < 0).any():
        raise LossError("negative uncertainty weights")
    if g.shape != q_new.shape:
        raise LossError(f"smoothed labels {g.shape} do not match the new-task "
                        f"remap {q_new.shape}")
    if (g <= 0).any():
        raise LossError("smoothed labels must be strictly positive")

    log_ratio = np.log(np.maximum(q_new, PROB_EPS)) - np.log(g)
    npix = _npix(g.shape)
    l_new = float((q_new * log_ratio).sum() / npix)
    # dL/dp; the new-task background sums channels 0..K
    d_new = lambda3 * (log_ratio + (q_new > PROB_EPS)) / npix
    grad_p = np.empty_like(p)
    grad_p[:k + 1] = d_new[0]
    grad_p[k + 1] = d_new[1]

    l_old = 0.0
    if lambda1 or lambda2:
        q_old = remap_old(p, k)
        clamped = np.maximum(q_old, PROB_EPS)
        logq = np.log(clamped)
        hard = one_hot(t.argmax(axis=0), k + 1)
        ce_map = -(hard * logq).sum(axis=0)
        kl_map = _xlogx(t).sum(axis=0) - (t * logq).sum(axis=0)
        l_old = float((u * (lambda1 * ce_map + lambda2 * kl_map)).sum() / u.size)
        d_old = -(u / u.size) * (lambda1 * hard + lambda2 * t) * (q_old > PROB_EPS) / clamped
        # the old background is 1 - sum(organs): each organ also moves it
        grad_p[1:k + 1] += d_old[1:] - d_old[0]

    dlogits = p * (grad_p - (grad_p * p).sum(axis=0, keepdims=True))

    def bwd(out):
        if logits.requires_grad:
            logits.grad += out.grad * dlogits

    total = Tensor(l_old + lambda3 * l_new, logits.requires_grad, (logits,), bwd)
    return total, l_old, l_new
