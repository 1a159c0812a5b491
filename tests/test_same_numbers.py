"""Same-numbers gate: short teacher and distillation runs against stored weights.

A change that keeps every op and its order must reproduce the weights in
`same_numbers_reference.npz` bit for bit; the test asserts max |dw| <= TOL
and prints how many of the 12 models are byte-identical. TOL allows for a
BLAS that sums in another order (see below), not for changed arithmetic.

Rewrite the reference only with a change that alters op order or random
draws (ROADMAP item 6), and state the old-vs-new max |dw| when doing so:

    PYTHONPATH=src python tests/test_same_numbers.py
"""

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from useg import phantom, trainer

REFERENCE = Path(__file__).with_name("same_numbers_reference.npz")
SEEDS = (0, 1, 2)
NUM_PHANTOMS = 16
# 100x the largest |dw| measured over this workload in separate processes
# (2-core AVX-512 Xeon, OpenBLAS 0.3.31): 0 between OPENBLAS_NUM_THREADS=1
# and 2, and 3.25e-15 between the default kernels and those of another CPU
# (OPENBLAS_CORETYPE=Haswell; Sandybridge, Nehalem, Prescott <= 6.2e-16).
TOL = 100 * 3.25e-15


def run_workload() -> dict:
    """Flat float64 weights of 12 models: per seed a teacher (4 epochs, lr
    1e-3) and three 2-epoch students (as-paper, no-distillation control,
    uncertainty off)."""
    out = {}
    for seed in SEEDS:
        samples = phantom.generate_dataset(phantom.PhantomConfig(seed=seed), NUM_PHANTOMS)
        cfg = trainer.TrainConfig(seed=seed, learning_rate=1e-3, teacher_epochs=4,
                                  distill_epochs=2)
        teacher = trainer.train_teacher(
            [phantom.to_first_k_organs(s, 2, 3) for s in samples], 2, cfg)
        new = [phantom.to_single_organ(s, 3, 3) for s in samples]
        models = {"teacher": teacher}
        for name, variant in (
                ("as-paper", cfg),
                ("control", dataclasses.replace(cfg, lambda1=0.0, lambda2=0.0,
                                                uncertainty_mode="off")),
                ("off", dataclasses.replace(cfg, uncertainty_mode="off"))):
            models[name] = trainer.distill_incremental(teacher, new, variant)
        for name, model in models.items():
            out[f"seed{seed}-{name}"] = np.concatenate(
                [p.data.ravel() for p in model.parameters()])
    return out


def test_same_numbers():
    t0 = time.time()
    got = run_workload()
    ref = np.load(REFERENCE)
    assert sorted(got) == sorted(ref.files)
    worst = max(float(np.abs(got[k] - ref[k]).max()) for k in got)
    same = sum(got[k].tobytes() == ref[k].tobytes() for k in got)
    print(f"[SAME-NUMBERS] {same}/{len(got)} models byte-identical, "
          f"max |dw| {worst:.1e} (tol {TOL:.1e}), {time.time() - t0:.1f}s",
          file=sys.stderr)
    assert worst <= TOL, f"max |dw| {worst:.3e} > {TOL:.1e}"


if __name__ == "__main__":
    np.savez(REFERENCE, **run_workload())
    print(f"wrote {REFERENCE}")
