"""Benchmark entry point for bargmann-lab.

    python3 perfbench/run.py --workload {certify_all,exact_sweep,cli_artifacts}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/`` of that checkout.  Each run starts one fresh worker process (plus,
untraced, four set-up probes) with BLAS/OpenMP threads capped at the
number of usable CPUs and ``BARGMANN_LAB_THREADS`` unset, and beside them
the speed probe (``speed.py``) whose samples correct every time figure.
Outputs go to ``.perfbench_out/`` in the checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of BENCHMARK.json untraced, the ``per_layer``
ones traced).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify_all", "exact_sweep", "cli_artifacts")

#: Set-up is also sampled in this many extra fresh processes before the
#: worker and as many after it, so its median spans the whole run.
SETUP_PROBES = 2
#: Every run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("BARGMANN_LAB_THREADS", None)
    threads = str(len(os.sched_getaffinity(0)))
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Run one worker; return (seconds from spawn to READY, rest of stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True
    )
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {' '.join(cmd)}")
    return ready, rest


def stop_speed_probe(proc: subprocess.Popen) -> list:
    """Close the probe's input, wait for it, and return its samples."""
    try:
        out, _ = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("speed probe did not stop")
    if proc.returncode != 0:
        raise BenchError(f"speed probe failed (exit {proc.returncode})")
    return json.loads(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    # A terminated run still stops its worker (spawn's finally kills it).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "bargmann_lab" / "__init__.py").is_file():
        print(f"perfbench: no src/bargmann_lab under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    # Byte-compile first so no run pays for compiling inside its set-up.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out_dir), "--src", str(ROOT / "src"),
    ]
    probes = 0 if args.trace else SETUP_PROBES
    # The speed probe runs beside the set-up probes and the worker for the
    # whole run; its one factor scales every time figure of the run.
    speed_probe = subprocess.Popen(
        [sys.executable, str(HERE / "speed.py")], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True,
    )
    try:
        try:
            setup = [spawn([*cmd, "--setup-only"], deadline)[0] for _ in range(probes)]
            ready, rest = spawn(cmd, deadline)
            setup.append(ready)
            setup += [spawn([*cmd, "--setup-only"], deadline)[0] for _ in range(probes)]
        finally:
            samples = stop_speed_probe(speed_probe)  # closes its input first
        result = json.loads(rest.strip().splitlines()[-1])
        f = result["speed_factor"] = speed.factor(samples)
        result["speed_samples"] = len(samples)
        result["raw_setup_samples"] = setup
        result["raw_wall_s"] = result["wall_s"]
        result["setup_s"] = statistics.median(setup) * f
        for key in ("wall_s", "op_p50_s", "op_tail_s"):
            result[key] *= f
        if args.trace:
            result["layers"] = {
                k: v * f if k.endswith("_s") else v for k, v in result["layers"].items()
            }
    except (BenchError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    figures = result.get("layers", {}) if args.trace else result
    unknown = [w["name"] for w in wanted if w["name"] not in figures]
    if unknown:
        print(f"perfbench: no figure named {', '.join(unknown)}", file=sys.stderr)
        return 1

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (out_dir / f"result_{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    m = result["machine"]
    print(
        f"perfbench: {args.workload} seed={args.seed} rounds={result['rounds']} "
        f"ops={result['attempted']} on {m['cpu']} x{m['nproc']}, Python {m['python']}, "
        f"numpy {m['numpy']}, scipy {m['scipy']}"
    )
    print(
        f"perfbench: raw wall {result['raw_wall_s']:.3f} s, speed factor "
        f"{result['speed_factor']:.4f}; op_tail_s is p{result['op_tail_percentile']} of "
        f"{result['op_samples']} samples; fail_frac = {result['failed']}/"
        f"{result['attempted']}; details in .perfbench_out/result_{tag}.json"
    )
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    w["name"]: {"value": figures[w["name"]], "unit": w["unit"]}
                    for w in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
