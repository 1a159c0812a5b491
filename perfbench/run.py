#!/usr/bin/env python3
"""Benchmark of `useg`: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload teacher|distill|cli --seed N \
        --seconds S --trace 0|1

Sets up several times (the median is `setup_s`), then runs whole rounds of
the workload's operations until S seconds have passed, checks every
round's outputs against independent computations, and prints one JSON
object as its last line. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it wraps `useg`'s public functions, reports the per-layer
metrics and writes the spans to perfbench/runs/.
"""

import os

# One BLAS thread: the program's matmuls are small, and on a shared 2-core
# machine extra BLAS threads make them slower and their timings noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"

def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def run(args):
    from tracing import Tracer, attributed_share, layer_metrics, merge
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workdir = RUNS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed, workdir, traced=bool(args.trace))
    rounds, setup_s, problem = [], [], None
    try:
        digests = set()
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            digests.add(wl.setup())
            setup_s.append(time.perf_counter() - t0)
        if tracer:
            tracer.phase = "check"
        if len(digests) != 1:
            raise CheckFailed("repeated set-ups produced different inputs")
        wl.after_setup()
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            if tracer:
                tracer.phase = "round"
            r = wl.round()
            if tracer:
                tracer.phase = "check"
            wl.check(r)
            rounds.append(r)
    except CheckFailed as e:
        problem = str(e)
        print(f"check failed: {problem}", file=sys.stderr)
    finally:
        if tracer:
            tracer.uninstall()
            for path, phase in wl.span_files:
                if path.exists():
                    merge(tracer, path, phase)
        shutil.rmtree(workdir, ignore_errors=True)
    if not rounds:
        raise SystemExit(f"error: no round completed ({problem})")

    last = rounds[-1]
    e2e = {
        "setup_s": statistics.median(setup_s),
        "img_per_s": statistics.median(r.images / r.train_s for r in rounds),
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "old_dice": last.old_dice,
        "learned_dice": last.learned_dice,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload == "cli"
            else resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{args.workload} seed {args.seed}: set-ups {[round(s, 3) for s in setup_s]} s, "
          f"{len(rounds)} rounds {[round(r.wall_s, 3) for r in rounds]} s", file=sys.stderr)
    if tracer:
        cli_ms = {k: statistics.median(v) for k, v in wl.cli_ms.items()}
        metrics = layer_metrics(tracer, len(rounds), wl.epochs_per_round, cli_ms)
        trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                       "end_to_end_traced": e2e,
                       "attributed_share": attributed_share(
                           tracer, sum(r.wall_s for r in rounds)),
                       "absent": tracer.absent, "per_layer": metrics,
                       "span_fields": ["name", "start_s", "end_s", "parent", "phase",
                                       "payload"],
                       "spans": tracer.spans}, f)
        if tracer.absent:
            print(f"absent (reported as 0): {', '.join(tracer.absent)}", file=sys.stderr)
        print(f"spans written to {trace_path.relative_to(HERE.parent)}", file=sys.stderr)
    else:
        metrics = e2e
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if tracer else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"error: BENCHMARK.json and the measured metrics differ: "
                         f"{sorted(set(units) ^ set(metrics))}")
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": problem is None,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main():
    args = parse_args()
    if not (SRC / "useg" / "__init__.py").is_file():
        print(f"error: the useg sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUNS.mkdir(exist_ok=True)
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
