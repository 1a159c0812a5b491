"""The three workloads: `teacher`, `distill` and `cli`.

Each workload builds its inputs from the seed alone, sets up (timed, and
repeated by the runner), then runs whole rounds of the same operations.
`check` compares a round's outputs with the computations in `reference`
and with the method's properties; it raises `CheckFailed` on a mismatch.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from reference import CheckFailed

from useg import phantom, trainer  # noqa: E402  (src/ is put on sys.path by run.py)

NUM_SAMPLES = 50          # 40 training and 10 held-out phantoms (the 4:1 split)
K = 2                     # teacher organs
NEW_ORGAN = 3
TRAIN = dict(batch_size=2, teacher_epochs=25, distill_epochs=8, ensemble_size=6,
             uncertainty_mode="as-paper")
# The default 3e-5 leaves the teacher's Dice at 0 for hundreds of epochs. At
# 3e-3 it reaches ~0.98 in 25 epochs; hotter teachers are so confident that
# their entropy weights vanish and distillation forgets on some seeds, while
# distillation at 1e-2 learns the new organ in 8 epochs (README).
TEACHER_LR = 3e-3
DISTILL_LR = 1e-2
TEACHER_FLOOR = 0.5       # held-out mean Dice of organs 1..K; the lowest of seeds 0..69 is 0.65
# Student old-organ Dice >= teacher's minus this. 0.05 is the bound of the
# full desk run (acceptance criterion 5c); after these 8 distillation epochs
# seeds 16 and 64 already lose 0.041 and 0.046, so a per-run gate at 0.05
# would fail on some seeds, while a student without distillation loses ~0.8.
RETENTION_SLACK = 0.10
DICE_TOL = 1e-12
TABLE_TOL = 5e-5 + 1e-9   # the CLI prints Dice with 4 decimals

ROOT = Path(__file__).resolve().parent.parent
TRACING = Path(__file__).resolve().parent / "tracing.py"


@dataclass
class Round:
    train_s: float            # time of the training call(s)
    wall_s: float             # time of every timed operation of the round
    images: int               # training images x epochs
    old_dice: float           # held-out mean Dice, organs 1..K
    learned_dice: float       # held-out Dice of the organs the last training had labels for
    digest: str               # sha256 of the final weights
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)


def _now():
    return time.perf_counter()


def _train_config(seed, lr):
    return trainer.TrainConfig(seed=seed, learning_rate=lr, **TRAIN)


def _check_dice(own: dict, program: dict, what: str, tol=DICE_TOL):
    for organ, value in own.items():
        got = program[organ]
        if abs(got - value) > tol:
            raise CheckFailed(f"{what}: organ {organ} Dice {got!r}, recomputed {value!r}")


def _params(model):
    return [np.array(p.data, dtype=np.float64) for p in model.parameters()]


def _old_mean(per_organ: dict) -> float:
    return float(np.mean([per_organ[k] for k in range(1, K + 1)]))


class Workload:
    setup_repeats = 3
    epochs_per_round = 0

    def __init__(self, seed: int, workdir: Path, traced: bool):
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.digests: list = []
        self.cli_ms: dict = {}      # command -> process wall times in ms (cli only)
        self.span_files: list = []  # (spans file, phase) of traced CLI processes

    def after_setup(self):
        """Untimed work between the last set-up and the first round."""

    def check_determinism(self, r: Round):
        self.digests.append(r.digest)
        if r.digest != self.digests[0]:
            raise CheckFailed(f"round {len(self.digests)} weights digest {r.digest[:12]} "
                              f"differs from round 1's {self.digests[0][:12]}")


def _phantoms(seed):
    cfg = phantom.PhantomConfig(seed=seed)
    samples = phantom.generate_dataset(cfg, NUM_SAMPLES)
    train_idx, test_idx = phantom.split_indices(NUM_SAMPLES)
    return cfg, samples, train_idx, [samples[i] for i in test_idx]


def _heldout(params, test, organs):
    return reference.per_organ_dice(params, [s.image for s in test],
                                    [s.labels for s in test], organs)


class Teacher(Workload):
    """Supervised pretraining of the K-organ teacher, then held-out evaluation."""

    setup_repeats = 5

    def setup(self):
        cfg, samples, train_idx, self.test = _phantoms(self.seed)
        self.train = [phantom.to_first_k_organs(samples[i], K, cfg.num_organs)
                      for i in train_idx]
        self.cfg = _train_config(self.seed, TEACHER_LR)
        self.epochs_per_round = self.cfg.teacher_epochs
        return reference.params_sha256([s.image for s in samples])

    def round(self) -> Round:
        t0 = _now()
        teacher = trainer.train_teacher(self.train, K, self.cfg)
        t1 = _now()
        report = trainer.evaluate(teacher, self.test, range(1, K + 1))
        t2 = _now()
        params = _params(teacher)
        dice = _old_mean(report.per_organ)
        return Round(t1 - t0, t2 - t0, len(self.train) * self.cfg.teacher_epochs, dice, dice,
                     reference.params_sha256(params), attempted=2, failed=0,
                     notes={"params": params, "per_organ": report.per_organ})

    def check(self, r: Round):
        _check_dice(_heldout(r.notes["params"], self.test, range(1, K + 1)),
                    r.notes["per_organ"], "trainer.evaluate")
        if r.old_dice < TEACHER_FLOOR:
            raise CheckFailed(f"teacher held-out Dice {r.old_dice:.4f} < floor {TEACHER_FLOOR}")
        self.check_determinism(r)


class Distill(Workload):
    """The paper's method: Q=6 uncertainty-weighted distillation from a
    frozen teacher (trained in set-up) with binary new-organ labels only."""

    def setup(self):
        cfg, samples, train_idx, self.test = _phantoms(self.seed)
        self.cfg = _train_config(self.seed, DISTILL_LR)
        self.epochs_per_round = self.cfg.distill_epochs
        teacher_data = [phantom.to_first_k_organs(samples[i], K, cfg.num_organs)
                        for i in train_idx]
        self.teacher = trainer.train_teacher(teacher_data, K,
                                             _train_config(self.seed, TEACHER_LR))
        self.teacher_dice = _old_mean(
            trainer.evaluate(self.teacher, self.test, range(1, K + 1)).per_organ)
        self.new = [phantom.to_single_organ(samples[i], NEW_ORGAN, cfg.num_organs)
                    for i in train_idx]
        return reference.params_sha256(_params(self.teacher))

    def round(self) -> Round:
        before = reference.params_sha256(_params(self.teacher))
        t0 = _now()
        student = trainer.distill_incremental(self.teacher, self.new, self.cfg)
        t1 = _now()
        report = trainer.evaluate(student, self.test, range(1, NEW_ORGAN + 1))
        t2 = _now()
        params = _params(student)
        return Round(t1 - t0, t2 - t0, len(self.new) * self.cfg.distill_epochs,
                     _old_mean(report.per_organ), report.per_organ[NEW_ORGAN],
                     reference.params_sha256(params), attempted=2, failed=0,
                     notes={"params": params, "per_organ": report.per_organ,
                            "teacher_before": before,
                            "teacher_after": reference.params_sha256(_params(self.teacher))})

    def check(self, r: Round):
        for s in self.new:
            if not np.isin(s.labels, (0, 1)).all():
                raise CheckFailed("distillation was given labels other than the new organ's")
        if r.notes["teacher_before"] != r.notes["teacher_after"]:
            raise CheckFailed("distillation changed the teacher's parameters")
        _check_dice(_heldout(r.notes["params"], self.test, range(1, NEW_ORGAN + 1)),
                    r.notes["per_organ"], "trainer.evaluate")
        _check_quality(self.teacher_dice, r.old_dice)
        self.check_determinism(r)


def _check_quality(teacher_dice, student_old_dice):
    if teacher_dice < TEACHER_FLOOR:
        raise CheckFailed(f"teacher held-out Dice {teacher_dice:.4f} < floor {TEACHER_FLOOR}")
    if student_old_dice < teacher_dice - RETENTION_SLACK:
        raise CheckFailed(f"student old-organ Dice {student_old_dice:.4f} < teacher's "
                          f"{teacher_dice:.4f} - {RETENTION_SLACK} (forgetting)")


# -- cli ------------------------------------------------------------------------

OUTPUTS = ("teacher.useg", "teacher_log.csv", "student.useg", "distill_log.csv",
           "eval_report.json", "eval_report.csv")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _experiment(seed, out_dir, train, num_samples=NUM_SAMPLES, **extra):
    doc = {"seed": seed, "out_dir": str(out_dir), "num_samples": num_samples,
           "scenario": {"teacher_organs": K, "new_organ": NEW_ORGAN}, "train": train}
    doc.update(extra)
    return doc


def _write_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _dice_table(stdout: str) -> dict:
    table = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "organ" and parts[2] == "dice":
            table[int(parts[1].rstrip(":"))] = float(parts[3])
    return table


# Malformed inputs that must end with exit 1 or 2, an `error:` line, no
# traceback and no partial output. Their inputs do not depend on the seed.
PROBES = ("num_samples_str", "batch_size_frac", "manifest_index")


class Cli(Workload):
    """`generate` -> `train-teacher` -> `distill` -> `evaluate` as separate
    `python -m useg.cli` processes against files on disk, plus three
    malformed-input probes."""

    def __init__(self, seed, workdir, traced):
        super().__init__(seed, workdir, traced)
        self.setups = 0
        self.calls = 0
        self.epochs_per_round = TRAIN["teacher_epochs"] + TRAIN["distill_epochs"]

    def _useg(self, *args, phase=None):
        """Run one CLI command; returns (exit code, stdout, stderr, seconds)."""
        if self.traced and phase:
            self.calls += 1
            spans = self.workdir / f"spans-{self.calls}.json"
            cmd = [sys.executable, str(TRACING), str(spans), *args]
            self.span_files.append((spans, phase))
        else:
            cmd = [sys.executable, "-m", "useg.cli", *args]
        t0 = _now()
        p = subprocess.run(cmd, cwd=self.workdir, env=_env(), capture_output=True,
                           text=True, timeout=170)
        return p.returncode, p.stdout, p.stderr, _now() - t0

    def _must(self, *args, phase):
        code, out, err, secs = self._useg(*args, phase=phase)
        if code != 0:
            raise CheckFailed(f"useg {args[0]} exited {code}: {err.strip()[-400:]}")
        key = args[0].replace("-", "_")
        self.cli_ms.setdefault(key, []).append(1e3 * secs)
        return out, secs

    def setup(self):
        self.setups += 1
        out_dir = self.workdir / f"setup{self.setups}"
        # one experiment, two learning rates: train-teacher reads the first
        # config, distill and evaluate the second
        self.configs = [_write_json(self.workdir / f"{name}{self.setups}.json",
                                    _experiment(self.seed, out_dir, dict(TRAIN, learning_rate=lr)))
                        for name, lr in (("teacher", TEACHER_LR), ("distill", DISTILL_LR))]
        self._must("generate", "--config", str(self.configs[0]), phase="setup")
        self.out = out_dir
        self.dataset = out_dir / "dataset"
        h = hashlib.sha256()
        for p in sorted(self.dataset.rglob("*")):
            if p.is_file():
                h.update(p.read_bytes())
        return h.hexdigest()

    def after_setup(self):
        """Check the dataset on disk, read it back, and prepare the probes."""
        cfg, samples, _, _ = _phantoms(self.seed)
        manifest = json.loads((self.dataset / "manifest.json").read_text())
        train_idx = list(range(NUM_SAMPLES * 4 // 5))
        test_idx = list(range(len(train_idx), NUM_SAMPLES))
        if (manifest["num_samples"], manifest["train_indices"], manifest["test_indices"]) \
                != (NUM_SAMPLES, train_idx, test_idx):
            raise CheckFailed("manifest does not hold the 4:1 split of the samples")
        for i, s in enumerate(samples):
            raster, maxval = reference.read_pgm(self.dataset / "images" / f"{i}.pgm")
            if maxval != 65535 or np.abs(raster / 65535.0 - s.image[0]).max() > 1 / 65535:
                raise CheckFailed(f"images/{i}.pgm does not decode to phantom {i}")
            labels, _ = reference.read_pgm(self.dataset / "labels_full" / f"{i}.pgm")
            if not np.array_equal(labels, s.labels):
                raise CheckFailed(f"labels_full/{i}.pgm differs from phantom {i}'s labels")
            for k in range(1, cfg.num_organs + 1):
                view, _ = reference.read_pgm(self.dataset / f"labels_organ{k}" / f"{i}.pgm")
                if not np.array_equal(view, s.labels == k):
                    raise CheckFailed(f"labels_organ{k}/{i}.pgm differs from organ {k} of {i}")
        self.test_images = [reference.read_pgm(self.dataset / "images" / f"{i}.pgm")[0][None]
                            / 65535.0 for i in test_idx]
        self.test_labels = [reference.read_pgm(self.dataset / "labels_full" / f"{i}.pgm")[0]
                            for i in test_idx]
        self.n_train = len(train_idx)
        self._prepare_probes()

    def _prepare_probes(self):
        small = {"teacher_epochs": 1, "distill_epochs": 1, "learning_rate": 1e-2}
        probes = self.workdir / "probes"
        self.probes = {}
        cfg = _write_json(probes / "num_samples_str.json",
                          _experiment(0, probes / "num_samples_str", {}, num_samples="7"))
        self.probes["num_samples_str"] = ("generate", cfg, probes / "num_samples_str")
        for name, train in (("batch_size_frac", dict(small, batch_size=1.5)),
                            ("manifest_index", small)):
            cfg = _write_json(probes / f"{name}.json",
                              _experiment(0, probes / name, train, num_samples=5))
            code, _, err, _ = self._useg("generate", "--config", str(cfg))
            if code != 0:
                raise CheckFailed(f"probe {name}: generate exited {code}: {err[-300:]}")
            self.probes[name] = ("train-teacher", cfg, probes / name)
        manifest = probes / "manifest_index" / "dataset" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["test_indices"].append(doc["num_samples"])
        manifest.write_text(json.dumps(doc, indent=2) + "\n")

    def _probe(self, name) -> bool:
        """True when the command ends as the CLI contract says it must."""
        command, cfg, out_dir = self.probes[name]
        for f in OUTPUTS:
            (out_dir / f).unlink(missing_ok=True)
        before = sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else []
        code, out, err, _ = self._useg(command, "--config", str(cfg))
        after = sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else []
        return (code in (1, 2) and "Traceback" not in out + err and before == after
                and any(line.startswith("error:") for line in err.splitlines()))

    def round(self) -> Round:
        for f in OUTPUTS:
            (self.out / f).unlink(missing_ok=True)
        teacher_cfg, cfg = (str(c) for c in self.configs)
        teacher_out, t_teacher = self._must("train-teacher", "--config", teacher_cfg,
                                            phase="round")
        teacher_bytes = (self.out / "teacher.useg").read_bytes()
        _, t_distill = self._must("distill", "--config", cfg, phase="round")
        eval_out, t_eval = self._must("evaluate", "--config", cfg, "--weights",
                                      str(self.out / "student.useg"), phase="round")
        report = json.loads((self.out / "eval_report.json").read_text())
        per_organ = {int(k): v for k, v in report["per_organ"].items()}
        failed = sum(not self._probe(name) for name in PROBES)
        student = reference.read_useg(self.out / "student.useg")
        images = self.n_train * (TRAIN["teacher_epochs"] + TRAIN["distill_epochs"])
        return Round(t_teacher + t_distill, t_teacher + t_distill + t_eval, images,
                     _old_mean(per_organ), per_organ[NEW_ORGAN],
                     reference.params_sha256(student), attempted=3 + len(PROBES),
                     failed=failed,
                     notes={"teacher_table": _dice_table(teacher_out),
                            "eval_table": _dice_table(eval_out), "report": report,
                            "per_organ": per_organ, "student": student,
                            "teacher_before": teacher_bytes})

    def check(self, r: Round):
        n = r.notes
        if (self.out / "teacher.useg").read_bytes() != n["teacher_before"]:
            raise CheckFailed("distill rewrote teacher.useg")
        teacher = reference.read_useg(self.out / "teacher.useg")
        teacher_dice = reference.per_organ_dice(teacher, self.test_images, self.test_labels,
                                                range(1, K + 1))
        _check_dice(teacher_dice, n["teacher_table"], "train-teacher output", TABLE_TOL)
        own = reference.per_organ_dice(n["student"], self.test_images, self.test_labels,
                                       range(1, NEW_ORGAN + 1))
        _check_dice(own, n["per_organ"], "eval_report.json")
        _check_dice(own, n["eval_table"], "evaluate output", TABLE_TOL)
        if abs(n["report"]["mean_dice"] - float(np.mean(list(own.values())))) > DICE_TOL:
            raise CheckFailed("eval_report.json mean_dice is not the mean of its organs")
        for log, epochs in (("teacher_log.csv", TRAIN["teacher_epochs"]),
                            ("distill_log.csv", TRAIN["distill_epochs"])):
            with open(self.out / log, newline="") as f:
                if len(list(csv.DictReader(f))) != epochs:
                    raise CheckFailed(f"{log} does not hold one row per epoch")
        _check_quality(_old_mean(teacher_dice), r.old_dice)
        self.check_determinism(r)


WORKLOADS = {"teacher": Teacher, "distill": Distill, "cli": Cli}
