"""Acceptance suite. Run with `pytest tests/test_acceptance.py -v -s`.

Each criterion prints one PASS/FAIL line. The desk-scale incremental
experiment (criteria 5-6) trains a teacher, a distilled student, a
no-distillation control, and an uncertainty-off student for three seeds
and is the slow part (several minutes on one CPU core).
"""

import dataclasses
import sys
import time

import numpy as np
import pytest

from composed_losses import kl_divergence
from graph import Tensor
from useg import losses, phantom, segnet, trainer, uncertainty
from useg.autodiff import conv_forward
from useg.cli import full_objective_gradcheck
from test_autodiff import conv2d_naive

SEEDS = (0, 1, 2)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {criterion}: {status} {detail}", file=sys.stderr)
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_probability_simplex_suite():
    t0 = time.time()
    rng = np.random.Generator(np.random.PCG64(0))
    npix = 0
    worst_sum = 0.0
    worst_bg = 0.0
    min_val = np.inf
    while npix < 10_000:
        k = int(rng.integers(1, 5))
        h = w = 10
        raw = rng.dirichlet(np.ones(k + 2), size=(h, w)).transpose(2, 0, 1)
        p = np.ascontiguousarray(raw)
        old = losses.remap_old(p, k)
        new = losses.remap_new(p, k)
        for out in (old, new):
            min_val = min(min_val, out.min())
            worst_sum = max(worst_sum, np.abs(out.sum(axis=0) - 1.0).max())
        worst_bg = max(worst_bg, np.abs(old[0] - (raw[0] + raw[k + 1])).max())
        npix += h * w
    elapsed = time.time() - t0
    ok = min_val >= -1e-12 and worst_sum < 1e-9 and worst_bg < 1e-12 and elapsed < 5.0
    report("1 probability-simplex suite", ok,
           f"(min {min_val:.1e}, sum-err {worst_sum:.1e}, bg-err {worst_bg:.1e}, "
           f"{elapsed:.1f}s)")


def test_criterion_2_entropy_bounds():
    t0 = time.time()
    worst_lo, worst_hi = 0.0, 0.0
    for i in range(1_000):
        rng = np.random.Generator(np.random.PCG64(1_000 + i))
        k = int(rng.integers(1, 4))
        teacher = segnet.init_random(
            segnet.SegModelConfig(num_classes=k + 1, hidden=(3,)), 1_000 + i)
        img = rng.uniform(0, 1, (1, 1, 12, 12))
        u = uncertainty.uncertainty_map(teacher, img, 3, rng)
        worst_lo = min(worst_lo, u.min())
        worst_hi = max(worst_hi, (u - np.log(k + 1)).max())
    # determinism per seed
    teacher = segnet.init_random(segnet.SegModelConfig(num_classes=3), 5)
    img = np.random.Generator(np.random.PCG64(6)).uniform(0, 1, (1, 1, 16, 16))
    a = uncertainty.uncertainty_map(teacher, img, 6,
                                    np.random.Generator(np.random.PCG64(7)))
    b = uncertainty.uncertainty_map(teacher, img, 6,
                                    np.random.Generator(np.random.PCG64(7)))
    deterministic = np.array_equal(a, b)
    elapsed = time.time() - t0
    ok = worst_lo >= 0.0 and worst_hi <= 1e-12 and deterministic and elapsed < 30.0
    report("2 entropy bounds", ok,
           f"(min {worst_lo:.1e}, max-over {worst_hi:.1e}, "
           f"deterministic {deterministic}, {elapsed:.1f}s)")


def test_criterion_3_gradient_fidelity():
    t0 = time.time()
    worst = 0.0
    for seed in range(10):
        rel, _, _ = full_objective_gradcheck(seed, h=1e-5)
        worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 120.0
    report("3 gradient fidelity", ok, f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_4_oracle_equivalence():
    worst_conv = 0.0
    for seed in range(100):
        rng = np.random.Generator(np.random.PCG64(seed))
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.choice([1, 3]))
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        x = rng.uniform(-1, 1, (cin, h, w))
        kern = rng.uniform(-1, 1, (cout, cin, k, k))
        bias = rng.uniform(-1, 1, cout)
        got = conv_forward(x[None], kern, bias)[0][0]
        worst_conv = max(worst_conv, np.abs(got - conv2d_naive(x, kern, bias)).max())
    worst_ce = 0.0
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(500 + seed))
        labels = rng.integers(0, 3, (5, 5))
        pred = np.ascontiguousarray(rng.dirichlet(np.ones(3), (5, 5)).transpose(2, 0, 1))
        # the teacher head on logits whose softmax is `pred`
        ce = losses.cross_entropy(np.log(pred)[None], labels[None])[0]
        kl = float(kl_divergence(losses.one_hot(labels, 3), Tensor(pred)).data)
        worst_ce = max(worst_ce, abs(ce - kl))
    ok = worst_conv < 1e-12 and worst_ce < 1e-9
    report("4 oracle equivalence", ok,
           f"(conv err {worst_conv:.1e}, ce-vs-kl err {worst_ce:.1e})")


@pytest.fixture(scope="module")
def desk_runs():
    """K=2 -> +1 incremental experiment on 32x32 phantoms, three seeds."""
    runs = {}
    elapsed = 0.0
    for seed in SEEDS:
        t0 = time.time()
        pcfg = phantom.PhantomConfig(seed=seed)
        samples = phantom.generate_dataset(pcfg, 100)
        train_idx, test_idx = phantom.split_indices(100)
        test = [samples[i] for i in test_idx]
        tcfg = trainer.TrainConfig(seed=seed)

        teach = [phantom.to_first_k_organs(samples[i], 2, 3) for i in train_idx]
        t = time.time()
        teacher = trainer.train_teacher(teach, 2, tcfg)
        phase_s = {"teacher": time.time() - t}
        teacher_rep = trainer.evaluate(teacher, test, [1, 2])

        new = [phantom.to_single_organ(samples[i], 3, 3) for i in train_idx]
        t = time.time()
        student = trainer.distill_incremental(teacher, new, tcfg)
        phase_s["distill"] = time.time() - t
        student_rep = trainer.evaluate(student, test, [1, 2, 3])

        ctrl_cfg = dataclasses.replace(tcfg, lambda1=0.0, lambda2=0.0,
                                       uncertainty_mode="off")
        t = time.time()
        control = trainer.distill_incremental(teacher, new, ctrl_cfg)
        phase_s["control"] = time.time() - t
        control_rep = trainer.evaluate(control, test, [1, 2, 3])

        elapsed += time.time() - t0
        runs[seed] = {
            "teacher_old": teacher_rep.mean_dice,
            "student_old": (student_rep.per_organ[1] + student_rep.per_organ[2]) / 2,
            "student_new": student_rep.per_organ[3],
            "control_old": (control_rep.per_organ[1] + control_rep.per_organ[2]) / 2,
            "control_new": control_rep.per_organ[3],
            "phase_s": phase_s,
        }
        if seed == SEEDS[0]:
            # extra run for the uncertainty ablation; not part of the
            # timed main experiment
            off_cfg = dataclasses.replace(tcfg, uncertainty_mode="off")
            off = trainer.distill_incremental(teacher, new, off_cfg)
            off_rep = trainer.evaluate(off, test, [1, 2, 3])
            runs[seed]["off_old"] = (off_rep.per_organ[1]
                                     + off_rep.per_organ[2]) / 2
            runs[seed]["off_new"] = off_rep.per_organ[3]
    runs["elapsed"] = elapsed
    return runs


def _fmt(runs, key):
    return "/".join(f"{runs[s][key]:.3f}" for s in SEEDS)


def test_criterion_5a_teacher_dice(desk_runs):
    ok = all(desk_runs[s]["teacher_old"] >= 0.90 for s in SEEDS)
    report("5a teacher held-out Dice >= 0.90", ok,
           f"({_fmt(desk_runs, 'teacher_old')})")


def test_criterion_5b_new_organ_dice(desk_runs):
    ok = all(desk_runs[s]["student_new"] >= 0.80 for s in SEEDS)
    report("5b student new-organ Dice >= 0.80", ok,
           f"({_fmt(desk_runs, 'student_new')})")


def test_criterion_5c_forgetting_bound(desk_runs):
    ok = all(desk_runs[s]["student_old"] >= desk_runs[s]["teacher_old"] - 0.05
             for s in SEEDS)
    report("5c student old-organ Dice >= teacher - 0.05", ok,
           f"(student {_fmt(desk_runs, 'student_old')} "
           f"vs teacher {_fmt(desk_runs, 'teacher_old')})")


def test_criterion_5d_catastrophic_forgetting_control(desk_runs):
    ok = all(desk_runs[s]["control_old"] <= desk_runs[s]["student_old"] - 0.15
             for s in SEEDS)
    report("5d no-distillation control loses >= 0.15 old-organ Dice", ok,
           f"(control {_fmt(desk_runs, 'control_old')} "
           f"vs student {_fmt(desk_runs, 'student_old')})")


def test_criterion_5_runtime(desk_runs):
    elapsed = desk_runs["elapsed"]
    phases = "; ".join(
        f"seed {s} " + " ".join(f"{k} {v:.0f}s" for k, v in desk_runs[s]["phase_s"].items())
        for s in SEEDS)
    report("5 runtime <= 10 min", elapsed <= 600.0, f"({elapsed:.0f}s: {phases})")


def test_criterion_6_ablation_direction(desk_runs):
    seed = SEEDS[0]
    ours = desk_runs[seed]["student_old"]
    off = desk_runs[seed]["off_old"]
    # emit both rows unconditionally so the direction is auditable
    print(f"[ACCEPTANCE] 6 rows: ours old={ours:.4f} "
          f"new={desk_runs[seed]['student_new']:.4f} | "
          f"w/o-uncertainty old={off:.4f} new={desk_runs[seed]['off_new']:.4f}",
          file=sys.stderr)
    report("6 ablation direction (ours >= w/o uncertainty - 0.02)", ours >= off - 0.02,
           f"(ours {ours:.4f} vs off {off:.4f})")


def test_criterion_7_dice_exactness():
    full = np.zeros((10, 10), dtype=bool)
    full[:10] = True
    a = np.zeros((4, 4), dtype=bool); a[0, 0] = True
    b = np.zeros((4, 4), dtype=bool); b[3, 3] = True
    p = np.zeros((4, 4), dtype=bool); p[0, :4] = True
    g = np.zeros((4, 4), dtype=bool); g[0, 2:4] = True; g[1, 0:2] = True
    exact = (trainer.dice(full, full) == 1.0
             and trainer.dice(a, b) == 0.0
             and trainer.dice(p, g) == 0.5)
    report("7 Dice metric exactness", exact, "(1.0 / 0.0 / 0.5)")
