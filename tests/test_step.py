"""The plain-array training step against the graph oracle.

One step is `segnet.forward` over a minibatch, a head from `losses` and
`segnet.backward`. The oracle builds the same minibatch loss per image from
graph ops (`graph.model_forward` and `composed_losses`), sums it, divides by
the batch size and replays the chain rule op by op, as training did before
the plain step. Both sides run the same conv core, whose own oracle is the
naive loop in `test_autodiff.py`.
"""

import numpy as np
import pytest

import composed_losses as composed
import graph
from useg import losses, segnet, uncertainty

MODES = uncertainty.MODES
LAMBDAS = (1.0, 20.0, 20.0)


def step_case(seed):
    """A random small model, minibatch and distillation inputs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    k = int(rng.integers(1, 4))                      # old organs
    hidden = tuple(int(c) for c in rng.integers(1, 6, int(rng.integers(0, 3))))
    n = int(rng.integers(1, 4))
    h, w = (int(v) for v in rng.integers(2, 8, 2))
    teacher = segnet.init_random(segnet.SegModelConfig(num_classes=k + 1, hidden=hidden),
                                 seed)
    student = segnet.extend_for_increment(teacher, 1, seed + 1)
    images = rng.uniform(0.0, 1.0, (n, 1, h, w))
    labels = rng.integers(0, k + 1, (n, h, w))
    p_t = np.stack([rng.dirichlet(np.ones(k + 1), (h, w)).transpose(2, 0, 1)
                    for _ in range(n)])
    entropy = rng.uniform(0.0, np.log(k + 1), (n, h, w))
    smoothed = np.stack([losses.smooth_labels(rng.integers(0, 2, (h, w)))
                         for _ in range(n)])
    return teacher, student, images, labels, p_t, entropy, smoothed, k


def weights(entropy, k, mode):
    if mode == "off":
        return np.ones_like(entropy)
    return uncertainty.weight_from_uncertainty(entropy, k + 1, mode)


def teacher_head(labels):
    def plain(logits):
        return losses.cross_entropy(logits, labels)

    def oracle(i, logits):
        return composed.cross_entropy_hard(labels[i], composed.softmax_channels(logits))
    return plain, oracle


def distill_head(p_t, u, smoothed, k):
    def plain(logits):
        return losses.distill_loss(logits, p_t, u, smoothed, k, *LAMBDAS)[:2]

    def oracle(i, logits):
        return composed.distill_loss(composed.softmax_channels(logits), p_t[i], u[i],
                                     smoothed[i], k, *LAMBDAS)[0]
    return plain, oracle


def plain_step(model, images, head):
    """(loss, logits, per-parameter gradients) of the plain step."""
    logits, cache = segnet.forward(model, images)
    loss, dlogits = head(logits)
    segnet.backward(model, dlogits, cache)
    return loss, logits, [p.grad.copy() for p in model.parameters()]


def oracle_step(model, images, head):
    """(loss, per-parameter gradients) of the minibatch mean built from
    graph ops image by image."""
    params = graph.parameters(model)
    total = None
    for i, image in enumerate(images):
        term = head(i, graph.model_forward(params, image))
        total = term if total is None else total + term
    total = total / float(len(images))
    graph.backward(total)
    return float(total.data), [p.grad for p in params]


def worst_layer_error(got, want):
    """Largest per-parameter |got - want| / max |want|."""
    worst = 0.0
    for g, o in zip(got, want):
        scale = np.abs(o).max()
        if scale > 0:
            worst = max(worst, np.abs(g - o).max() / scale)
    return worst


def heads(case):
    teacher, student, images, labels, p_t, entropy, smoothed, k = case
    yield "teacher", teacher, teacher_head(labels)
    for mode in MODES:
        yield mode, student, distill_head(p_t, weights(entropy, k, mode), smoothed, k)


class TestAgainstGraph:
    # 100x the largest per-parameter |plain - graph| / max |graph| over
    # seeds 0..299 of `step_case`, rounded up: 1.5e-14 for the teacher head,
    # 1.8e-13 for the distillation head (the largest of the four weighting
    # modes it had then, one since removed).
    # The losses were equal bit for bit on every seed.
    GRAD_TOL = {"teacher": 2e-12, "distill": 2e-11}

    @pytest.mark.parametrize("head", ("teacher",) + MODES)
    def test_layer_gradients_match_oracle(self, head):
        worst = 0.0
        for seed in range(100):
            case = step_case(seed)
            for name, model, (plain, oracle) in heads(case):
                if name != head:
                    continue
                loss, _, grads = plain_step(model, case[2], plain)
                loss_o, grads_o = oracle_step(model, case[2], oracle)
                assert loss == loss_o
                worst = max(worst, worst_layer_error(grads, grads_o))
        assert worst < self.GRAD_TOL["teacher" if head == "teacher" else "distill"]


class TestBatchedEqualsPerSample:
    # the minibatch gradient is the mean of the per-sample ones; 100x the
    # largest per-parameter error over seeds 0..299 (1.3e-13), rounded up.
    # The logits were equal bit for bit.
    GRAD_TOL = 2e-11

    @pytest.mark.parametrize("seed", range(20))
    def test_logits_and_gradients(self, seed):
        case = step_case(seed)
        images = case[2]
        for name, model, (plain, _) in heads(case):
            _, logits, grads = plain_step(model, images, plain)
            mean = [np.zeros_like(g) for g in grads]
            for i in range(len(images)):
                _, _, (plain_i, _) = next(h for h in heads(select(case, i)) if h[0] == name)
                _, logits_i, grads_i = plain_step(model, images[i:i + 1], plain_i)
                assert np.abs(logits_i[0] - logits[i]).max() < 1e-12
                for m, g in zip(mean, grads_i):
                    m += g / len(images)
            assert worst_layer_error(grads, mean) < self.GRAD_TOL, name


def select(case, i):
    """`case` restricted to minibatch entry i."""
    teacher, student, images, labels, p_t, entropy, smoothed, k = case
    one = slice(i, i + 1)
    return (teacher, student, images[one], labels[one], p_t[one], entropy[one],
            smoothed[one], k)


def test_frozen_model_has_no_gradients():
    teacher = step_case(0)[0]
    teacher.freeze()
    logits, cache = segnet.forward(teacher, np.zeros((1, 1, 4, 4)))
    with pytest.raises(segnet.ModelError):
        segnet.backward(teacher, np.ones_like(logits), cache)
