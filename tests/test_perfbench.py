"""One traced round of each benchmark workload completes against this tree.

`perfbench/tracing.py` wraps `useg`'s functions and types by name. A name
it finds is patched as it expects; a name that is missing is recorded as
absent. A traced run therefore fails when code it finds no longer has the
shape it expects, which a change to `src/` can cause without touching the
benchmark. This runs the benchmark as it is and edits nothing under it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["teacher", "distill", "cli"])
def test_traced_round_is_correct(workload):
    p = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "0",
                        "--seconds", "0", "--trace", "1"],
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    if workload == "distill":
        # a renamed ensemble or perturbation function would read 0 here
        metrics = result["metrics"]
        assert metrics["uncertainty.maps"]["value"] > 0
        assert metrics["uncertainty.perturb_ms_per_image"]["value"] > 0
