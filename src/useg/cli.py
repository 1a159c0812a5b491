"""Command-line harness for reproducible phantom experiments.

Subcommands: generate, train-teacher, distill, ablate, gradcheck,
evaluate. Exit codes: 0 success, 1 validation error, 2 runtime or
numerical error.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import losses, phantom, segnet, trainer, uncertainty
from .atomic import write_atomic
from .config import ConfigError, ExperimentConfig, load_experiment

EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

_VALIDATION_ERRORS = (ConfigError, phantom.PhantomError, segnet.ModelError,
                      uncertainty.PerturbationError, losses.LossError)
_RUNTIME_ERRORS = (trainer.TrainError, OSError)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _VALIDATION_ERRORS as e:
            _fail(EXIT_VALIDATION, str(e))
        except _RUNTIME_ERRORS as e:
            _fail(EXIT_RUNTIME, str(e))
    return wrapper


class OutputLock:
    """Guards an output directory against concurrent invocations. A lock
    left by a process that no longer exists is replaced."""

    def __init__(self, out_dir: Path):
        self.path = Path(out_dir) / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if not self._holder_is_dead():
                    raise ConfigError(
                        f"output directory is locked by {self.path}; remove the "
                        "stale lockfile if no other run is active") from None
                self.path.unlink(missing_ok=True)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return self

    def _holder_is_dead(self) -> bool:
        """True only if the lock names a pid that no longer exists. An empty
        or unparsable lock may be a run that has not written its pid yet,
        and a pid we may not signal exists, so both count as held."""
        try:
            pid = int(self.path.read_text())
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid > 0
        except (OSError, ValueError, OverflowError):
            return False
        return False

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)


def _load_cfg(config_path, seed, out, **overrides) -> ExperimentConfig:
    # load_experiment drops the overrides that are None
    return load_experiment(config_path, {"seed": seed, "out_dir": out, **overrides})


def _write_csv(path, rows: list):
    """Write `rows` as CSV; the file appears whole or not at all."""
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]) if rows else [])
    writer.writeheader()
    writer.writerows(rows)
    write_atomic(path, buf.getvalue().encode())


def _dataset_dir(cfg: ExperimentConfig) -> Path:
    return Path(cfg.out_dir) / "dataset"


def _print_dice_table(report: trainer.EvalReport, title: str):
    click.echo(title)
    for organ, score in sorted(report.per_organ.items()):
        click.echo(f"  organ {organ}: dice {score:.4f}")
    click.echo(f"  mean: {report.mean_dice:.4f}  (n={report.num_samples})")


_global_options = [
    click.option("--config", "config_path", required=True,
                 type=click.Path(), help="experiment config JSON"),
    click.option("--seed", type=int, default=None, help="override config seed"),
    click.option("--out", type=click.Path(), default=None,
                 help="override output directory"),
]


def global_options(fn):
    for opt in reversed(_global_options):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Data-free incremental organ segmentation on synthetic phantoms."""


@main.command()
@global_options
@handle_errors
def generate(config_path, seed, out):
    """Generate the phantom dataset tree plus manifest."""
    # the dataset needs no train settings; the commands that train check them
    cfg = _load_cfg(config_path, seed, out, train={})
    samples = phantom.generate_dataset(cfg.phantom, cfg.num_samples)
    with OutputLock(Path(cfg.out_dir)):
        phantom.write_dataset(_dataset_dir(cfg), cfg.phantom, samples)
    click.echo(f"wrote {cfg.num_samples} samples to {_dataset_dir(cfg)}")


@main.command("train-teacher")
@global_options
@handle_errors
def train_teacher_cmd(config_path, seed, out):
    """Pretrain and freeze the K-organ teacher."""
    cfg = _load_cfg(config_path, seed, out)
    k = cfg.scenario.teacher_organs
    train_samples = [phantom.to_first_k_organs(s, k, cfg.phantom.num_organs)
                     for s in phantom.load_dataset(_dataset_dir(cfg), cfg.phantom, "train")]
    test_samples = phantom.load_dataset(_dataset_dir(cfg), cfg.phantom, "test")
    log_rows: list = []
    with OutputLock(Path(cfg.out_dir)):
        teacher = trainer.train_teacher(train_samples, k, cfg.train,
                                        model_cfg=cfg.model,
                                        log_rows=log_rows)
        out_dir = Path(cfg.out_dir)
        segnet.save(teacher, out_dir / "teacher.useg")
        _write_csv(out_dir / "teacher_log.csv", log_rows)
    report = trainer.evaluate(teacher, test_samples, range(1, k + 1), cfg)
    _print_dice_table(report, "teacher held-out Dice:")


def _check_teacher(cfg: ExperimentConfig, teacher_path) -> segnet.SegModel:
    teacher_path = teacher_path or Path(cfg.out_dir) / "teacher.useg"
    teacher = segnet.load(teacher_path)
    expected = cfg.scenario.teacher_organs + 1
    if teacher.config.num_classes != expected:
        raise ConfigError(
            f"teacher at {teacher_path} has {teacher.config.num_classes} classes "
            f"but the scenario needs {expected} (K={cfg.scenario.teacher_organs})")
    teacher.freeze()
    return teacher


def _distill(cfg: ExperimentConfig, teacher, train_cfg, new_samples, test_samples,
             log_rows: list | None = None):
    """Distill `teacher` on the new organ's training labels, then score the
    student on the held-out full labels; returns (student, report)."""
    student = trainer.distill_incremental(teacher, new_samples, train_cfg,
                                          pool=cfg.pool, log_rows=log_rows)
    return student, trainer.evaluate(student, test_samples,
                                     range(1, cfg.scenario.new_organ + 1), cfg)


@main.command()
@global_options
@click.option("--teacher", "teacher_path", type=click.Path(), default=None,
              help="teacher weights (default: <out>/teacher.useg)")
@click.option("--uncertainty", "uncertainty_mode",
              type=click.Choice(uncertainty.MODES), default=None,
              help="uncertainty weighting mode; 'off' fixes u to 1")
@handle_errors
def distill(config_path, seed, out, teacher_path, uncertainty_mode):
    """Distill the frozen teacher into a K+1-organ student."""
    cfg = _load_cfg(config_path, seed, out)
    out_dir = Path(cfg.out_dir)
    teacher = _check_teacher(cfg, teacher_path)
    train_cfg = cfg.train
    if uncertainty_mode is not None:
        train_cfg = dataclasses.replace(train_cfg, uncertainty_mode=uncertainty_mode)
    ds = _dataset_dir(cfg)
    new_samples = phantom.load_dataset(ds, cfg.phantom, "train", cfg.scenario.new_organ)
    test_samples = phantom.load_dataset(ds, cfg.phantom, "test")
    log_rows: list = []
    with OutputLock(out_dir):
        student, report = _distill(cfg, teacher, train_cfg, new_samples, test_samples,
                                   log_rows)
        segnet.save(student, out_dir / "student.useg")
        _write_csv(out_dir / "distill_log.csv", log_rows)
        write_atomic(out_dir / "eval_report.json",
                     (json.dumps(dataclasses.asdict(report), indent=2) + "\n").encode())
        _write_csv(out_dir / "eval_report.csv",
                   [{"organ": k, "dice": v} for k, v in sorted(report.per_organ.items())]
                   + [{"organ": "mean", "dice": report.mean_dice}])
    _print_dice_table(report, "student held-out Dice:")


ABLATION_VARIANTS = uncertainty.MODES + ("new-task-only",)


@main.command()
@global_options
@click.option("--teacher", "teacher_path", type=click.Path(), default=None)
@handle_errors
def ablate(config_path, seed, out, teacher_path):
    """Distill under every uncertainty mode plus the no-distillation baseline."""
    cfg = _load_cfg(config_path, seed, out)
    out_dir = Path(cfg.out_dir)
    teacher = _check_teacher(cfg, teacher_path)
    k = cfg.scenario.teacher_organs
    new_organ = cfg.scenario.new_organ
    ds = _dataset_dir(cfg)
    new_samples = phantom.load_dataset(ds, cfg.phantom, "train", new_organ)
    test_samples = phantom.load_dataset(ds, cfg.phantom, "test")
    rows = []
    with OutputLock(out_dir):
        for variant in ABLATION_VARIANTS:
            if variant == "new-task-only":
                train_cfg = dataclasses.replace(cfg.train, lambda1=0.0, lambda2=0.0,
                                                uncertainty_mode="off")
            else:
                train_cfg = dataclasses.replace(cfg.train, uncertainty_mode=variant)
            try:
                _, report = _distill(cfg, teacher, train_cfg, new_samples, test_samples)
            except trainer.TrainError as e:
                raise trainer.TrainError(f"ablation variant {variant!r} failed: {e}") from e
            row = {"variant": variant}
            row.update({f"dice_organ{o}": report.per_organ[o]
                        for o in sorted(report.per_organ)})
            row["old_mean"] = float(np.mean([report.per_organ[o]
                                             for o in range(1, k + 1)]))
            row["new_dice"] = report.per_organ[new_organ]
            rows.append(row)
            click.echo(f"{variant}: old mean {row['old_mean']:.4f}, "
                       f"new {row['new_dice']:.4f}")
        _write_csv(out_dir / "ablation.csv", rows)
    click.echo(f"wrote {out_dir / 'ablation.csv'}")


@main.command()
@global_options
@click.option("--weights", "weights_path", type=click.Path(), required=True)
@handle_errors
def evaluate(config_path, seed, out, weights_path):
    """Evaluate saved weights on the held-out full-label split."""
    cfg = _load_cfg(config_path, seed, out)
    model = segnet.load(weights_path)
    test_samples = phantom.load_dataset(_dataset_dir(cfg), cfg.phantom, "test")
    organs = range(1, min(model.config.num_classes - 1, cfg.phantom.num_organs) + 1)
    report = trainer.evaluate(model, test_samples, organs, cfg)
    _print_dice_table(report, f"held-out Dice for {weights_path}:")


# -- gradient check -----------------------------------------------------------

def full_objective_gradcheck(seed: int, h: float = 1e-5):
    """Max relative error of the training step's gradient (`segnet.forward`,
    `losses.distill_loss`, `segnet.backward`) vs central differences on the
    full distillation objective of a tiny student model.

    Returns (max_rel_err, layer_index, param_index).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    k_old = 2
    cfg = segnet.SegModelConfig(num_classes=k_old + 2, hidden=(2, 3))
    student = segnet.init_random(cfg, seed)
    images = rng.uniform(0.0, 1.0, size=(1, 1, 6, 6))
    teacher_probs = rng.dirichlet(np.ones(k_old + 1), size=(1, 6, 6)).transpose(0, 3, 1, 2)
    u = rng.uniform(0.0, np.log(k_old + 1), size=(1, 6, 6))
    smoothed = losses.smooth_labels((rng.random((1, 6, 6)) < 0.3).astype(np.int64))

    def objective():
        logits, cache = segnet.forward(student, images)
        total, dlogits, _, _ = losses.distill_loss(logits, teacher_probs, u, smoothed,
                                                   k_old, 1.0, 20.0, 20.0)
        return total, dlogits, cache

    _, dlogits, cache = objective()
    segnet.backward(student, dlogits, cache)
    grads = [p.grad.copy() for p in student.parameters()]

    worst = (0.0, -1, -1)
    for li, p in enumerate(student.parameters()):
        flat = p.data.reshape(-1)
        g_ad = grads[li].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            f_plus = objective()[0]
            flat[j] = orig - h
            f_minus = objective()[0]
            flat[j] = orig
            g_fd = (f_plus - f_minus) / (2 * h)
            rel = abs(g_ad[j] - g_fd) / max(1e-8, abs(g_ad[j]) + abs(g_fd))
            if rel > worst[0]:
                worst = (rel, li, j)
    return worst


@main.command()
@click.option("--seed", type=int, default=0)
@click.option("--step", "h", type=float, default=1e-5, help="finite-difference step")
@click.option("--tol", type=float, default=1e-4)
@handle_errors
def gradcheck(seed, h, tol):
    """Check full-objective gradients against central finite differences."""
    if seed < 0 or not 0 < h < float("inf"):
        raise ConfigError(f"gradcheck needs --seed >= 0 and a finite --step > 0, "
                          f"got {seed} and {h}")
    rel, layer, index = full_objective_gradcheck(seed, h)
    # parameters alternate kernel/bias, so layer index is param_idx // 2
    click.echo(f"max relative error {rel:.3e} at layer {layer // 2} "
               f"(param tensor {layer}, element {index}); tolerance {tol:g}")
    if rel >= tol:
        _fail(EXIT_RUNTIME, f"gradient check failed: {rel:.3e} >= {tol:g}")
    click.echo("gradient check passed")


if __name__ == "__main__":
    main()
