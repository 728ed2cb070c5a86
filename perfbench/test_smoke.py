"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs `run.py` on each workload at `--scale tiny`, untraced and traced,
and checks that every metric named in BENCHMARK.json is printed with
its unit and that no check fails.  Then it breaks an oracle, raises
inside a check and empties a workload, to show that the correctness
gate cannot pass vacuously.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from sqmlab import cli, timeslab  # noqa: E402
from sqmlab.experiments import DEFAULTS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_spec_lists_the_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for layer in spans.LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_ms"} <= layer_names


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    text, result = run_bench(workload, 0)
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name, unit in [*units(result["metrics"]).items(), ("fail_frac", "ratio")]:
        assert re.search(rf"^  {name} +\S+ {re.escape(unit)} +\(.+\)$", text, re.M), name
    assert re.search(r"^  fail_frac +0\.0000 ratio +\(0 of \d+ checks\)$", text, re.M)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    _, result = run_bench(workload, 1)
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["correct"]
    assert result["metrics"]["bench.dim_max"]["value"] >= 1


def test_uniform_slowdown_leaves_reference_times_unchanged(monkeypatch):
    """Checks and kernel both run twice as slow on odd passes: same figures."""
    checks = [workloads.Check("fake", 1, lambda cache: workloads.Verdict(True, 0.0))] * 3
    clock, kernel_runs = [0.0], []

    def speed():  # 1 on even passes, 2 on odd ones; a kernel runs twice per check
        return 1 + (len(kernel_runs) - 1) // (2 * len(checks)) % 2

    def calibrate(kernel):
        kernel_runs.append(kernel)
        return 1.5 * speed()

    def run_check(check, cache, reported):
        clock[0] += 0.010 * speed()
        return True, 0.0

    monkeypatch.setattr(worker.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(worker, "calibrate", calibrate)
    monkeypatch.setattr(worker, "run_check", run_check)
    tally = worker.run_phase(checks, 0.0, 4)
    assert sorted({round(t, 9) for times in tally.check_ms for t in times}) == [10.0, 20.0]
    expected = worker.at_reference_speed(10.0, 1.5)
    assert worker.per_check_ms(tally) == pytest.approx([expected] * len(checks))
    assert set(kernel_runs) == {"python"}  # a check of dimension 1 is not dense


def test_perturbed_oracle_counts_as_failure(tmp_path, monkeypatch):
    checks = workloads.build("shift-traces", 5, "tiny", tmp_path)
    assert worker.run_phase(checks, 0.0, 1).failed == 0
    rhs, tol = timeslab.trace_theorem_rhs, DEFAULTS["trace-theorem"]["tol"]

    def perturbed(qa, inserts):
        value = rhs(qa, inserts)
        return value + 2 * tol * max(1.0, abs(value))  # twice past the tolerance

    monkeypatch.setattr(timeslab, "trace_theorem_rhs", perturbed)
    tally = worker.run_phase(checks, 0.0, 1)
    assert tally.failed == sum(c.kind == "timeslab.trace" for c in checks) > 0
    assert tally.margin_max > 1


def test_exception_counts_as_failure(tmp_path, monkeypatch):
    checks = workloads.build("shift-traces", 5, "tiny", tmp_path)

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(timeslab, "constraint_expectation", broken)
    tally = worker.run_phase(checks, 0.0, 2)
    assert tally.failed == 2 * sum(c.kind == "timeslab.constraint" for c in checks) > 0


def test_changed_report_bytes_count_as_failure(tmp_path, monkeypatch):
    checks = workloads.build("battery", 5, "tiny", tmp_path)
    assert worker.run_phase(checks, 0.0, 1).failed == 0
    render = cli.render_json
    monkeypatch.setattr(cli, "render_json", lambda report: render(report) + " ")
    assert worker.run_phase(checks, 0.0, 1).failed == len(checks)


def test_workload_without_checks_is_an_error(monkeypatch):
    monkeypatch.setattr(workloads, "build", lambda *args: [])
    with pytest.raises(ValueError, match="no checks"):
        worker.main(["--workload", "battery", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--t0", "0"])
