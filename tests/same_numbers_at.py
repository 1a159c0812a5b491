"""Compare the same-numbers workload at a git revision with the working tree.

    python tests/same_numbers_at.py REV

Checks REV out in a temporary `git worktree`, runs
`test_same_numbers.run_workload()` there and in this working tree, each in
its own process with its own `src/` on the path, and prints for each of the
12 models the max |dw| between the two and whether the weights are equal
byte for byte. The worktree is removed on exit. REV must contain
`tests/test_same_numbers.py`.
"""

import argparse
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
        finally:
            git("worktree", "remove", "--force", str(tree))
        now = dump_weights(ROOT, Path(tmp) / "here.npz")
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


if __name__ == "__main__":
    main()
