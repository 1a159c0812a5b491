"""The two training heads on plain arrays, and the probability transforms.

Each head takes a minibatch of [N,C,H,W] logits and returns the mean loss
over its images with the closed-form gradient with respect to the logits.
Each image's loss is a mean over its pixels, so that the loss weights are
resolution-independent. Probabilities are clamped at
``PROB_EPS`` before any log, and where a clamp is active no gradient flows
through it. Teacher/target probabilities are constants; gradient flows
only into the student prediction. The same losses composed from graph ops
are the test oracle (`tests/composed_losses.py`).
"""

from __future__ import annotations

import numpy as np

PROB_EPS = 1e-12


class LossError(Exception):
    pass


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


def one_hot(labels: np.ndarray, num_classes: int, axis: int = 0) -> np.ndarray:
    """Float one-hot planes of integer labels, stacked along `axis`."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise LossError(f"label out of range for {num_classes} classes")
    return np.stack([labels == c for c in range(num_classes)], axis=axis).astype(np.float64)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """The teacher head: mean over images and pixels of -log p[label], with
    p the channel softmax of [N,C,H,W] logits and labels [N,H,W].

    Returns (loss, dlogits). The gradient is (p - onehot) / (N·H·W), zero
    on every channel of a pixel where p[label] <= PROB_EPS, since the clamp
    there passes none.
    """
    n = len(logits)
    p = softmax(logits)
    onehot = one_hot(labels, logits.shape[1], axis=1)
    logp = np.log(np.maximum(p, PROB_EPS))
    npix = _npix(p.shape)
    # per image, as a sum over channels and pixels, then the batch mean
    loss = sum(-(onehot * logp).sum(axis=(1, 2, 3)) / npix) / n
    live = (p * onehot).sum(axis=1, keepdims=True) > PROB_EPS
    return float(loss), (p - onehot) * live / (n * npix)


def remap_old(p: np.ndarray, num_old_organs: int) -> np.ndarray:
    """Fold the new-organ channel into background along the channel axis
    (-3): [..., K+2, H, W] -> [..., K+1, H, W].

    Channels 1..K are copied; channel 0 becomes 1 - sum(channels 1..K),
    i.e. p(0) + p(K+1).
    """
    k = num_old_organs
    if p.shape[-3] != k + 2:
        raise LossError(f"remap_old expects {k + 2} channels, got {p.shape[-3]}")
    organs = p[..., 1:k + 1, :, :]
    return np.concatenate([1.0 - organs.sum(axis=-3, keepdims=True), organs], axis=-3)


def remap_new(p: np.ndarray, num_old_organs: int) -> np.ndarray:
    """Fold background and all old organs together along the channel axis
    (-3): [..., K+2, H, W] -> [..., 2, H, W]."""
    k = num_old_organs
    if p.shape[-3] != k + 2:
        raise LossError(f"remap_new expects {k + 2} channels, got {p.shape[-3]}")
    return np.concatenate([p[..., :k + 1, :, :].sum(axis=-3, keepdims=True),
                           p[..., k + 1:, :, :]], axis=-3)


def smooth_labels(hard: np.ndarray, fg: float = 0.7) -> np.ndarray:
    """Binary label maps [..., H, W] -> [..., 2, H, W] targets (fg/1-fg)."""
    hard = np.asarray(hard)
    if not np.isin(hard, (0, 1)).all():
        raise LossError("smooth_labels expects a binary label map")
    bg = 1.0 - fg
    return np.stack([np.where(hard == 1, bg, fg), np.where(hard == 1, fg, bg)], axis=-3)


def distill_loss(logits: np.ndarray, p_t, u: np.ndarray, smoothed, num_old_organs: int,
                 lambda1: float, lambda2: float, lambda3: float):
    """The distillation head for a minibatch of [N,K+2,H,W] logits, with
    [N,K+1,H,W] teacher probabilities p_t, [N,H,W] weights u and [N,2,H,W]
    smoothed labels g.

    With p = softmax(logits), q_old = remap_old(p) and q_new = remap_new(p),
    each clamped at PROB_EPS before its log, an image's loss is the mean
    over its pixels of
        u * [l1 * -log q_old[argmax p_t] + l2 * KL(p_t || q_old)]
        + l3 * KL(q_new, g)
    (the new-task KL in the paper's literal prediction-first order). The
    backward is closed form: with g_p = dL/dp, dL/dlogits = p * (g_p -
    <g_p, p>). When l1 = l2 = 0 the old-task term is skipped and l_old is
    0.0, which is what computing it would give.

    Returns (total, dlogits, l_old, l_new): the minibatch means of the loss
    and of its two terms, each a float summed image by image in order, and
    the gradient of the mean loss with respect to the logits.
    """
    if min(lambda1, lambda2, lambda3) < 0:
        raise LossError("loss weights must be nonnegative")
    k = num_old_organs
    n = len(logits)
    p = softmax(logits)
    q_new = remap_new(p, k)
    t = np.asarray(p_t, dtype=np.float64)
    g = np.asarray(smoothed, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    pixels = (n,) + p.shape[2:]
    if t.shape != (n, k + 1) + p.shape[2:]:
        raise LossError(f"teacher probabilities {t.shape} do not match the old-task "
                        f"remap {(n, k + 1) + p.shape[2:]}")
    if u.shape != pixels:
        raise LossError(f"weight map shape {u.shape} does not match pixels {pixels}")
    if (u < 0).any():
        raise LossError("negative uncertainty weights")
    if g.shape != q_new.shape:
        raise LossError(f"smoothed labels {g.shape} do not match the new-task "
                        f"remap {q_new.shape}")
    if (g <= 0).any():
        raise LossError("smoothed labels must be strictly positive")

    log_ratio = np.log(np.maximum(q_new, PROB_EPS)) - np.log(g)
    npix = _npix(g.shape)
    l_new = (q_new * log_ratio).sum(axis=(1, 2, 3)) / npix
    # dL/dp; the new-task background sums channels 0..K. Added onto zeros,
    # which turns -0.0 into 0.0 as adding a zero old-task term would.
    d_new = lambda3 * (log_ratio + (q_new > PROB_EPS)) / npix
    grad_p = np.zeros_like(p)
    grad_p[:, :k + 1] += d_new[:, :1]
    grad_p[:, k + 1] += d_new[:, 1]

    l_old = np.zeros(n)
    if lambda1 or lambda2:
        q_old = remap_old(p, k)
        clamped = np.maximum(q_old, PROB_EPS)
        logq = np.log(clamped)
        hard = one_hot(t.argmax(axis=1), k + 1, axis=1)
        ce_map = -(hard * logq).sum(axis=1)
        kl_map = _xlogx(t).sum(axis=1) - (t * logq).sum(axis=1)
        l_old = (u * (lambda1 * ce_map + lambda2 * kl_map)).sum(axis=(1, 2)) / npix
        d_old = (-(u / npix)[:, None] * (lambda1 * hard + lambda2 * t)
                 * (q_old > PROB_EPS) / clamped)
        # the old background is 1 - sum(organs): each organ also moves it
        grad_p[:, 1:k + 1] += d_old[:, 1:] - d_old[:, :1]

    dlogits = p * (grad_p - (grad_p * p).sum(axis=1, keepdims=True))
    total = l_old + lambda3 * l_new
    return (float(sum(total) / n), dlogits * (1.0 / n),
            float(sum(l_old) / n), float(sum(l_new) / n))
