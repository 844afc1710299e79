"""One workload run inside a fresh process; started by ``run.py``.

Prints ``READY`` once ``bargmann_lab`` is imported and the inputs are
generated (the end of set-up), then, unless ``--setup-only``, one JSON line
with the run's figures.  With ``--trace 1`` the same operations run twice:
untraced, then traced, and the two artifacts of every CLI operation must be
byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path


def tail(samples: list[float]) -> tuple[float, int, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer
    there is no such percentile and the maximum is reported as p100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, n
    i = n - 11
    return xs[i], math.floor(100 * (i + 1) / n), n


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_pass(workloads, workload: str, ops: list, tmp: Path, tracer=None) -> list:
    """Run every operation once and return the outcomes."""
    outcomes = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        gc.collect()  # every operation starts from the same heap state
        outcomes.append(workloads.run_op(workload, op, tmp))
    return outcomes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import bargmann_lab

    src = Path(args.src).resolve()
    if src not in Path(bargmann_lab.__file__).resolve().parents:
        print(f"perfbench: imported {bargmann_lab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    rounds = workloads.rounds_for(args.workload, args.seconds)
    ops = workloads.make_inputs(args.workload, args.seed, rounds)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out_dir = Path(args.out)
    tmp = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        outcomes = run_pass(workloads, args.workload, ops, tmp)
        # The operations' own seconds, without the benchmark's bookkeeping.
        result = {"rounds": rounds, "wall_s": sum(o.seconds for o in outcomes)}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            traced = run_pass(workloads, args.workload, ops, tmp, tracer)
            layers = tracer.table()
            layers["cli.bytes_written"] = sum(o.bytes_written for o in traced)
            layers["trace.wall_s"] = sum(o.seconds for o in traced)
            result["layers"] = layers
            result["identical_artifacts"] = all(
                a.artifact == b.artifact and a.failed == b.failed
                for a, b in zip(outcomes, traced)
            )
            tracer.write_spans(out_dir / f"spans_{args.workload}_seed{args.seed}.csv.gz")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    latencies = [o.seconds for o in outcomes]
    value, pct, n = tail(latencies)
    result.update(
        {
            "attempted": len(outcomes),
            "failed": sum(o.failed for o in outcomes),
            "correct": all(o.consistent for o in outcomes)
            and result.get("identical_artifacts", True),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": value,
            "op_tail_percentile": pct,
            "op_samples": n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "machine": machine(),
            "ops": [o.record() for o in outcomes],
        }
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
