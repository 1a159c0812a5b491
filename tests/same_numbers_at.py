"""Compare the same-numbers workload and a tiny CLI pipeline at a git
revision with the working tree.

    python tests/same_numbers_at.py REV

Checks REV out in a temporary `git worktree`, runs
`test_same_numbers.run_workload()` there and in this working tree, each in
its own process with its own `src/` on the path, and prints for each of the
12 models the max |dw| between the two and whether the weights are equal
byte for byte.

Then it runs `useg generate`, `train-teacher`, `distill`, `ablate` and
`evaluate` on a 10-sample, 16×16 experiment with each side's source, each
in its own directory, and prints whether the two output trees and the
commands' stdout are equal byte for byte. The pipeline adds about 1.5 s
per side on a 2-core x86 machine, where the whole comparison takes about
5 s. The worktree is removed on exit. REV must contain
`tests/test_same_numbers.py` and the `useg` CLI.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DUMP = ("import sys, numpy as np, test_same_numbers as t; "
        "np.savez(sys.argv[1], **t.run_workload())")


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


# relative paths, so that the file names the commands print are the same
# on both sides
PIPELINE_CONFIG = {
    "seed": 13, "out_dir": "run", "num_samples": 10,
    "phantom": {"size": 16, "radius_range": [1.8, 2.6]},
    "scenario": {"teacher_organs": 2, "new_organ": 3},
    "train": {"teacher_epochs": 40, "distill_epochs": 5, "learning_rate": 1e-2,
              "ensemble_size": 2},
}
PIPELINE = (["generate"], ["train-teacher"], ["distill"], ["ablate"],
            ["evaluate", "--weights", "run/student.useg"])


def run_pipeline(tree: Path, work: Path) -> tuple:
    """(output tree as {relative path: bytes}, the commands' stdout) of
    `PIPELINE` run in `work` with the source in `tree`."""
    work.mkdir()
    (work / "config.json").write_text(json.dumps(PIPELINE_CONFIG))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    stdout = ""
    for command, *args in PIPELINE:
        p = subprocess.run([sys.executable, "-m", "useg.cli", command,
                            "--config", "config.json", *args],
                           cwd=work, env=env, capture_output=True, text=True)
        if p.returncode:
            sys.exit(f"error: useg {command} with {tree / 'src'} exited "
                     f"{p.returncode}: {p.stderr.strip()}")
        stdout += p.stdout
    run = work / "run"
    return {str(f.relative_to(run)): f.read_bytes()
            for f in sorted(run.rglob("*")) if f.is_file()}, stdout


def dump_weights(tree: Path, out: Path) -> dict:
    """The workload's weights from the source in `tree`."""
    path = os.pathsep.join([str(tree / "src"), str(tree / "tests")])
    subprocess.run([sys.executable, "-c", DUMP, str(out)], cwd=tree, check=True,
                   env=dict(os.environ, PYTHONPATH=path))
    with np.load(out) as f:
        return {k: f[k] for k in f.files}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare against")
    rev = ap.parse_args().rev
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        git("worktree", "add", "--detach", str(tree), sha)
        try:
            then = dump_weights(tree, Path(tmp) / "rev.npz")
            then_cli = run_pipeline(tree, Path(tmp) / "rev-cli")
        finally:
            git("worktree", "remove", "--force", str(tree))
        now = dump_weights(ROOT, Path(tmp) / "here.npz")
        now_cli = run_pipeline(ROOT, Path(tmp) / "here-cli")
    if sorted(then) != sorted(now):
        sys.exit(f"error: models differ: {sorted(then)} vs {sorted(now)}")
    print(f"{rev} ({sha[:12]}) against the working tree")
    print(f"{'model':<20} {'max |dw|':>9}  bytes")
    worst, same = 0.0, 0
    for k in sorted(now):
        dw = float(np.abs(now[k] - then[k]).max())
        equal = now[k].tobytes() == then[k].tobytes()
        worst, same = max(worst, dw), same + equal
        print(f"{k:<20} {dw:>9.1e}  {'equal' if equal else 'differ'}")
    print(f"{same}/{len(now)} models byte-identical, max |dw| {worst:.1e}")
    (then_files, then_out), (now_files, now_out) = then_cli, now_cli
    differ = sorted(k for k in then_files.keys() | now_files.keys()
                    if then_files.get(k) != now_files.get(k))
    print(f"CLI pipeline ({' → '.join(c[0] for c in PIPELINE)}): output trees "
          + (f"equal ({len(now_files)} files)" if not differ
             else f"differ in {len(differ)} of {len(now_files)} files: {', '.join(differ)}")
          + ", stdout " + ("equal" if then_out == now_out else "differs"))


if __name__ == "__main__":
    main()
