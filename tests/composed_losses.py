"""The distillation objective composed from autodiff ops: the test oracle
for the one-node `useg.losses.distill_loss`, as `conv2d_naive` is for the
conv.

Every op here records its own backward closure, so the gradient comes
from the chain rule op by op rather than from the node's closed form.
The forward uses the node's ops in the node's order, so loss values are
equal bit for bit.
"""

import numpy as np

from useg.autodiff import Tensor, concat
from useg.losses import PROB_EPS, LossError, _as_array, _npix, _xlogx, one_hot


def remap_old(p_s: Tensor, num_old_organs: int) -> Tensor:
    """[K+2,H,W] -> [K+1,H,W]: channels 1..K copied, channel 0 becomes
    1 - sum(channels 1..K)."""
    k = num_old_organs
    if p_s.shape[0] != k + 2:
        raise LossError(f"remap_old expects {k + 2} channels, got {p_s.shape[0]}")
    organs = p_s.narrow(1, k)
    bg = 1.0 - organs.sum(axis=0, keepdims=True)
    return concat([bg, organs], axis=0)


def remap_new(p_s: Tensor, num_old_organs: int) -> Tensor:
    """[K+2,H,W] -> [2,H,W]: background and all old organs summed."""
    k = num_old_organs
    if p_s.shape[0] != k + 2:
        raise LossError(f"remap_new expects {k + 2} channels, got {p_s.shape[0]}")
    bg = p_s.narrow(0, k + 1).sum(axis=0, keepdims=True)
    new = p_s.narrow(k + 1, 1)
    return concat([bg, new], axis=0)


def loss_old(p_t, p_hat_old: Tensor, u: np.ndarray,
             lambda1: float, lambda2: float) -> Tensor:
    """Mean over pixels of u * [l1 * (-log p_hat_old[argmax p_t])
                                + l2 * KL(p_t || p_hat_old)]."""
    if lambda1 < 0 or lambda2 < 0:
        raise LossError("loss weights must be nonnegative")
    t = _as_array(p_t)
    if t.shape != p_hat_old.shape:
        raise LossError(f"loss_old shape mismatch: {t.shape} vs {p_hat_old.shape}")
    u = np.asarray(u, dtype=np.float64)
    if u.shape != t.shape[1:]:
        raise LossError(f"weight map shape {u.shape} does not match pixels {t.shape[1:]}")
    if (u < 0).any():
        raise LossError("negative uncertainty weights")

    logp = p_hat_old.clamp_min(PROB_EPS).log()
    hard = one_hot(t.argmax(axis=0), t.shape[0])
    ce_map = -(Tensor(hard) * logp).sum(axis=0)                       # [H,W]
    kl_map = Tensor(_xlogx(t).sum(axis=0)) - (Tensor(t) * logp).sum(axis=0)
    return (Tensor(u) * (lambda1 * ce_map + lambda2 * kl_map)).sum() / u.size


def loss_new(p_hat_new: Tensor, smoothed) -> Tensor:
    """KL(p_hat_new, g) against smoothed labels g, prediction first."""
    g = _as_array(smoothed)
    if g.shape != p_hat_new.shape:
        raise LossError(f"loss_new shape mismatch: {g.shape} vs {p_hat_new.shape}")
    if (g <= 0).any():
        raise LossError("smoothed labels must be strictly positive")
    p = p_hat_new.clamp_min(PROB_EPS)
    inner = p_hat_new * (p.log() - Tensor(np.log(g)))
    return inner.sum() / _npix(g.shape)


def distill_loss(p_s: Tensor, p_t, u: np.ndarray, smoothed, num_old_organs: int,
                 lambda1: float, lambda2: float, lambda3: float):
    """(total, l_old, l_new) as Tensors, from the student probabilities
    `p_s` (the output of `losses.softmax_channels`)."""
    l_old = loss_old(p_t, remap_old(p_s, num_old_organs), u, lambda1, lambda2)
    l_new = loss_new(remap_new(p_s, num_old_organs), smoothed)
    return l_old + lambda3 * l_new, l_old, l_new
