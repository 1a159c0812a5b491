#!/usr/bin/env python3
"""Shows that each correctness check of the benchmark bites.

Runs one clean round of every workload, confirms that its checks pass,
then corrupts one output at a time and confirms that the check meant to
catch it fails. Exits 1 if any corruption goes unnoticed.

    python3 perfbench/selftest.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from reference import CheckFailed  # noqa: E402

missed = []


def bites(what, action):
    """`action` must raise CheckFailed."""
    try:
        action()
    except CheckFailed as e:
        print(f"bites   {what}: {e}")
        return
    print(f"MISSED  {what}")
    missed.append(what)


def corrupted_round(wl, r, mutate):
    """Check a copy of round `r` after `mutate(copy)`, as a fresh round 1."""
    bad = copy.deepcopy(r)
    mutate(bad)
    wl.digests = []
    wl.check(bad)


def in_process(name, workdir):
    wl = workloads.WORKLOADS[name](seed=0, workdir=workdir, traced=False)
    wl.setup()
    r = wl.round()
    wl.check(r)
    print(f"clean   {name} round passes its checks")

    def wrong_dice(bad):
        bad.notes["per_organ"][1] += 0.01

    bites(f"{name}: Dice differs from the independent forward", lambda: corrupted_round(
        wl, r, wrong_dice))

    def weights_changed(bad):
        bad.notes["params"][-1][1] += 100.0   # output bias: organ 1 everywhere

    bites(f"{name}: returned weights do not give the reported Dice",
          lambda: corrupted_round(wl, r, weights_changed))

    def nondeterministic():
        wl.digests = []
        wl.check(r)
        other = copy.deepcopy(r)
        other.digest = "0" * 64
        wl.check(other)

    bites(f"{name}: a second round yields other weights", nondeterministic)
    return wl, r


def teacher_checks(workdir):
    wl, r = in_process("teacher", workdir)

    def below_floor(bad):
        bad.old_dice = workloads.TEACHER_FLOOR - 0.01

    bites("teacher: held-out Dice under the floor", lambda: corrupted_round(wl, r, below_floor))


def distill_checks(workdir):
    wl, r = in_process("distill", workdir)

    def teacher_mutated(bad):
        bad.notes["teacher_after"] = "f" * 64

    bites("distill: teacher parameters changed", lambda: corrupted_round(wl, r, teacher_mutated))

    def forgot(bad):
        bad.old_dice = wl.teacher_dice - workloads.RETENTION_SLACK - 0.01

    bites("distill: old organs forgotten", lambda: corrupted_round(wl, r, forgot))

    def old_labels():
        wl.new[0].labels = wl.new[0].labels * 2
        try:
            wl.digests = []
            wl.check(r)
        finally:
            wl.new[0].labels = wl.new[0].labels // 2

    bites("distill: old-organ labels reach distillation", old_labels)

    def no_distillation():
        # a real student trained on the new organ alone forgets the old ones
        cfg = wl.cfg
        wl.cfg = dataclasses.replace(cfg, lambda1=0.0, lambda2=0.0, uncertainty_mode="off")
        try:
            control = wl.round()
        finally:
            wl.cfg = cfg
        wl.digests = []
        wl.check(control)

    bites("distill: a no-distillation student (catastrophic forgetting)", no_distillation)


def cli_checks(workdir):
    wl = workloads.Cli(seed=0, workdir=workdir, traced=False)
    wl.setup()
    wl.after_setup()
    r = wl.round()
    wl.check(r)
    print(f"clean   cli round passes its checks ({r.failed} of {len(workloads.PROBES)} "
          "probes fail, as the program does today)")
    out, ds = wl.out, wl.dataset

    def on_disk(path, change, check):
        saved = path.read_bytes()
        try:
            path.write_bytes(change(saved))
            wl.digests = []
            check()
        finally:
            path.write_bytes(saved)

    def flip_last(b):
        return b[:-1] + bytes([b[-1] ^ 0x02])

    bites("cli: image PGM off by 2/65535",
          lambda: on_disk(ds / "images" / "3.pgm", flip_last, wl.after_setup))
    bites("cli: label PGM wrong",
          lambda: on_disk(ds / "labels_full" / "3.pgm", flip_last, wl.after_setup))
    bites("cli: single-organ label PGM wrong",
          lambda: on_disk(ds / "labels_organ2" / "3.pgm", flip_last, wl.after_setup))

    def report_off(b):
        doc = json.loads(b)
        doc["per_organ"]["3"] += 1e-6
        return json.dumps(doc).encode()

    def recheck_from_disk():
        fresh = copy.deepcopy(r)
        doc = json.loads((out / "eval_report.json").read_text())
        fresh.notes["report"] = doc
        fresh.notes["per_organ"] = {int(k): v for k, v in doc["per_organ"].items()}
        fresh.notes["student"] = reference.read_useg(out / "student.useg")
        wl.check(fresh)

    bites("cli: eval_report.json Dice off by 1e-6",
          lambda: on_disk(out / "eval_report.json", report_off, recheck_from_disk))

    def new_organ_everywhere(b):
        # the last 8 bytes are the new organ's output bias
        return b[:-8] + struct.pack("<d", 100.0)

    bites("cli: student.useg does not give eval_report.json's Dice",
          lambda: on_disk(out / "student.useg", new_organ_everywhere, recheck_from_disk))
    bites("cli: student.useg truncated",
          lambda: on_disk(out / "student.useg", lambda b: b[:-8], recheck_from_disk))
    bites("cli: teacher.useg rewritten by distill",
          lambda: on_disk(out / "teacher.useg", flip_last, lambda: wl.check(r)))

    def drop_row(b):
        return b"\n".join(b.rstrip(b"\n").split(b"\n")[:-1]) + b"\n"

    bites("cli: teacher_log.csv missing an epoch",
          lambda: on_disk(out / "teacher_log.csv", drop_row, lambda: wl.check(r)))

    def printed(bad):
        bad.notes["eval_table"][1] += 0.001

    bites("cli: evaluate prints another Dice", lambda: corrupted_round(wl, r, printed))

    # the probe check itself: a malformed input the CLI does handle passes it
    probes = workdir / "probes"
    cfg = workloads._write_json(probes / "unknown_field.json",
                                workloads._experiment(0, probes / "unknown_field", {}, bogus=1))
    wl.probes["unknown_field"] = ("generate", cfg, probes / "unknown_field")
    ok = wl._probe("unknown_field")
    print(f"{'clean' if ok else 'MISSED'}   cli: a handled malformed input passes the probe")
    if not ok:
        missed.append("cli: probe of a handled malformed input")


def main():
    root = HERE / "runs" / f"selftest-{os.getpid()}"
    try:
        for name, fn in (("teacher", teacher_checks), ("distill", distill_checks),
                         ("cli", cli_checks)):
            workdir = root / name
            workdir.mkdir(parents=True)
            fn(workdir)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"{len(missed)} corruption(s) missed" if missed else "every check bites")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
