"""sqmlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sqmlab is imported from its
`src/`.  Workloads: battery, shift-traces, spacetime-states,
perturbative (see perfbench/README.md).  The seed makes the inputs.

With `--trace 0` the last line of standard output is one JSON object
whose metrics are the end-to-end ones (setup_s, checks_per_s,
check_ms_p50, peak_rss_mb), the times rescaled to a reference machine
speed (see worker.py); with `--trace 1` they are the per-layer ones
from a traced run.  A human-readable table comes before it.
Exit status 0 means the workload ran (its `correct` field says whether
every check passed); 2 means bad arguments or no sqmlab source tree;
3 means a workload process failed or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("battery", "shift-traces", "spacetime-states", "perturbative")
SETUP_SAMPLES = 3  # workload processes started per untraced run; setup_s is their median
TIME_LIMIT_S = 170  # whole run, every process included

END_TO_END = {"setup_s": "s", "checks_per_s": "1/s", "check_ms_p50": "ms", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one sqmlab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def start_worker(args, deadline: float, setup_only: bool) -> dict:
    """Run one workload process to completion; its last stdout line is JSON."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale, "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"workload process exceeded the {TIME_LIMIT_S} s limit") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"workload process exited with status {done.returncode}")
    return json.loads(lines[-1])


def report(result: dict, setup: list[dict], trace: bool) -> dict:
    """Print the human-readable table; return the metrics for the JSON line."""
    attempted, failed = result["attempted"], result["failed"]
    passes = f"{result['passes']} passes"
    if trace:
        passes = f"{result['passes']} untraced and {result['traced_passes']} traced passes"
    print(f"workload {result['workload']} seed {result['seed']} ({result['scale']}): "
          f"closed loop, 1 client, {passes}, {attempted} checks")
    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    if trace:
        metrics = {"bench.margin_max": (result["margin_max"], "ratio"),
                   "bench.dim_max": (result["dim_max"], "count"),
                   "env.calib_ms": (result["calib_ms"], "ms"),
                   "trace.overhead_frac": (result["overhead_frac"], "ratio")}
        for name, layer in result["layers"].items():
            metrics[f"{name}.calls"] = (layer["calls"], "count")
            metrics[f"{name}.self_ms"] = (layer["self_ms"], "ms")
        print("per-layer figures are per traced pass")
        for name, (value, unit) in metrics.items():
            if value:
                print(f"  {name:<58} {value:12.4f} {unit}")
    else:
        samples = {
            "setup_s": f"median of {len(setup)} process starts",
            "checks_per_s": f"{result['checks']} checks, each its median of "
                            f"{result['passes']} passes",
            "check_ms_p50": f"median of {result['checks']} checks, each its median of "
                            f"{result['passes']} passes",
            "peak_rss_mb": "1 workload process",
        }
        metrics = {name: (result[name], unit) for name, unit in END_TO_END.items()}
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setup), "s")
        print("times are at reference speed (perfbench/README.md)")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:12.4f} {unit:<5} ({samples[name]})")
        print(f"  {'fail_frac':<14} {failed / attempted:12.4f} {'ratio':<5} "
              f"({failed} of {attempted} checks)")
        print(f"  wall clock: setup {statistics.median(s['setup_wall_s'] for s in setup):.4f} s, "
              f"{result['wall_checks_per_s']:.4f} checks/s; "
              f"env.calib_ms {result['calib_ms']:.4f} ms, "
              f"bench.margin_max {result['margin_max']:.4g}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "sqmlab" / "__init__.py").is_file():
        print(f"run.py: no sqmlab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(start_worker(args, deadline, setup_only=True))
        result = start_worker(args, deadline, setup_only=False)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    setup.append(result)
    if result["attempted"] < 1:
        print("run.py: the workload attempted no checks", file=sys.stderr)
        return 3
    metrics = report(result, setup, bool(args.trace))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
