"""One workload process: set up, run the closed loop, report one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 --t0 MONOTONIC [--setup-only]
                                [--scale full|tiny]

`run.py` starts this script; it is not meant to be called by hand.
The BLAS thread count is pinned before numpy is imported.  Setup runs
from process start (`--t0`, a `time.monotonic()` reading taken by the
parent just before it started this process) to the first timed check:
the imports plus one untimed warm-up of each kind of check.

The loop is closed, with one client: each check is issued only after
the previous one has returned its verdict.  Whole passes over the
workload's checks run until `--seconds` have elapsed, at least two
of them.  With `--trace 1` the first half of the time runs untraced and
the second half traced, each at least one pass; only the traced half
produces spans, and the ratio of the halves' pass times is the tracing
overhead.

Every time reported is rescaled to a reference machine speed by fixed
reference kernels (`calibrate`) that run around each check and during
the set-up, outside the timed windows: see `per_check_ms`.
The plain wall-clock figures are reported beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_THREADS = 1
MIN_PASSES = 2  # each check's time is a median over at least two passes
# Timings are reported at the speed of a reference machine on which each
# `calibrate` kernel takes CALIB_REF_MS: see `at_reference_speed`.
CALIB_REF_MS = 1.0


@dataclass
class Tally:
    """What the timed checks of one phase (traced or not) produced."""

    pass_s: list[float] = field(default_factory=list)
    check_ms: list[list[float]] = field(default_factory=list)  # per pass, per check
    scaled_ms: list[list[float]] = field(default_factory=list)  # the same, at reference speed
    failed: int = 0
    margin_max: float = 0.0
    calib_ms: list[float] = field(default_factory=list)


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_sqmlab() -> None:
    sys.path.insert(0, str(SRC))
    import sqmlab

    if not Path(sqmlab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sqmlab imported from {sqmlab.__file__}, not from {SRC}")


# The reference kernels that `calibrate` times.  When the machine this
# was tuned on slows down, dense linear algebra on matrices past the
# cache slows like a complex matmul, while interpreted Python and
# small-array numpy calls slow by up to half as much again.  So a check
# whose dense dimension is at least DENSE_DIM is rescaled by the "dense"
# kernel, and every other check and the set-up by the "python" kernel.
DENSE_DIM = 512
_KERNEL: dict = {}


def _dense_kernel(k: dict) -> None:
    k["mat"] @ k["mat"]


def _python_kernel(k: dict) -> None:
    import numpy as np

    json.loads(json.dumps(k["report"], indent=1, sort_keys=True))
    for i in range(10):
        a = np.kron(k["small"][i % 4][:2, :2], k["small"][(i + 1) % 4][:4, :4])
        a = a + np.exp(1j * a.real)


KERNELS = {"dense": _dense_kernel, "python": _python_kernel}


def kernel_for(check) -> str:
    return "dense" if check.dim >= DENSE_DIM else "python"


def calibrate(kernel: str) -> float:
    """ms of one run of a fixed reference kernel, "dense" or "python"."""
    if not _KERNEL:
        import numpy as np

        rng = np.random.default_rng(0)
        _KERNEL["mat"] = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
        _KERNEL["report"] = {"cases": [
            {"name": f"case{i}", "value": [i / 2, -i / 4], "tol": 1e-9, "pass": True,
             "params": {"N": i, "eps": 0.1}} for i in range(40)]}
        _KERNEL["small"] = [rng.standard_normal((8, 8)) + 0j for _ in range(4)]
        for body in KERNELS.values():  # first calls, outside any timed sample
            body(_KERNEL)
    body = KERNELS[kernel]
    t = time.perf_counter()
    body(_KERNEL)
    return (time.perf_counter() - t) * 1e3


def at_reference_speed(ms: float, calib_ms: float) -> float:
    """A time measured while a kernel took `calib_ms`, rescaled to a
    machine on which it takes CALIB_REF_MS."""
    return ms * CALIB_REF_MS / calib_ms


def run_check(check, cache: dict, reported: set) -> tuple[bool, float]:
    """(ok, margin) of one check; an exception is a failed check, not a crash."""
    try:
        verdict = check.run(cache)
    except Exception:
        if check.kind not in reported:  # one traceback per kind of check
            reported.add(check.kind)
            traceback.print_exc(file=sys.stderr)
        return False, math.inf
    return verdict.ok, verdict.margin


def run_phase(checks, seconds: float, min_passes: int, tracer=None) -> Tally:
    """Whole passes over `checks` until `seconds` have gone, at least `min_passes`.

    The check's reference kernel runs just before and just after each
    check, outside its timed window; the check's speed reading is the
    mean of the two samples.
    """
    tally, reported = Tally(), set()
    start = time.perf_counter()
    while len(tally.pass_s) < min_passes or time.perf_counter() - start < seconds:
        cache: dict = {}
        times: list[float] = []
        scaled: list[float] = []
        for check in checks:
            kernel = kernel_for(check)
            before = calibrate(kernel)
            if tracer is not None:
                tracer.check += 1
                root = tracer.begin("bench.check")
            t = time.perf_counter()
            ok, margin = run_check(check, cache, reported)
            ms = (time.perf_counter() - t) * 1e3
            if tracer is not None:
                tracer.end(root)
            after = calibrate(kernel)
            times.append(ms)
            scaled.append(at_reference_speed(ms, (before + after) / 2))
            tally.calib_ms += [before, after]
            tally.failed += not ok
            tally.margin_max = max(tally.margin_max, margin)
        tally.pass_s.append(sum(times) / 1e3)
        tally.check_ms.append(times)
        tally.scaled_ms.append(scaled)
    return tally


def per_check_ms(tally: Tally) -> list[float]:
    """Each check's median time over the passes of the run, at reference speed.

    Every pass repeats the same inputs.  The machine this was tuned on
    switches between speeds that differ by 1.5-2x, for seconds to
    minutes at a time, so each time is rescaled by the kernel samples
    taken next to it.
    """
    return [statistics.median(times) for times in zip(*tally.scaled_ms)]


def environment_stamp() -> dict:
    import numpy as np
    import scipy

    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():  # never the commit of a repository around the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{build.get('name')} {build.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scale", default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    import_sqmlab()
    import workloads
    from spans import LAYERS, Tracer

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"reports-{os.getpid()}"
    setup_calib = [calibrate("python")]  # kernel samples spread over the set-up
    try:
        checks = workloads.build(args.workload, args.seed, args.scale, scratch)
        if not checks:
            raise ValueError(f"workload {args.workload!r} has no checks")
        setup_calib.append(calibrate("python"))
        warm_cache, reported, kinds = {}, set(), set()
        for check in checks:
            if check.kind not in kinds:
                kinds.add(check.kind)
                run_check(check, warm_cache, reported)
                setup_calib.append(calibrate("python"))
        del warm_cache
        # the kernel samples are not part of the set-up
        setup_wall_s = time.monotonic() - args.t0 - sum(setup_calib) / 1e3
        setup_s = at_reference_speed(setup_wall_s, statistics.median(setup_calib))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0

        if args.trace:
            plain = run_phase(checks, args.seconds / 2, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(checks, args.seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
            phases = (plain, traced)
        else:
            phases = (run_phase(checks, args.seconds, MIN_PASSES),)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(p.pass_s) * len(checks) for p in phases)
    margin = max(p.margin_max for p in phases)
    check_ms = per_check_ms(phases[0])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "attempted": attempted,
        "failed": sum(p.failed for p in phases),
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "passes": len(phases[0].pass_s),
        "checks_per_s": len(checks) / sum(check_ms) * 1e3,
        "check_ms_p50": statistics.median(check_ms),
        "wall_checks_per_s": len(phases[0].pass_s) * len(checks) / sum(phases[0].pass_s),
        "checks": len(checks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "margin_max": margin if math.isfinite(margin) else sys.float_info.max,
        "dim_max": max(c.dim for c in checks),
        "calib_ms": statistics.median(x for p in phases for x in p.calib_ms),
        "env": environment_stamp(),
    }
    record = dict(result)
    if args.trace:
        n = len(traced.pass_s)
        totals = tracer.layer_totals()
        result["layers"] = {
            name: {"calls": totals.get(name, (0, 0.0))[0] / n,
                   "self_ms": totals.get(name, (0, 0.0))[1] * 1e3 / n}
            for name in LAYERS
        }
        result["traced_passes"] = n
        result["overhead_frac"] = (statistics.median(traced.pass_s)
                                   / statistics.median(plain.pass_s) - 1.0)
        record = dict(result, spans=[
            {"name": name, "start": start, "end": end, "parent": parent, "check": check}
            for name, start, end, parent, check in tracer.spans
        ])
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
