"""Acceptance gate: the eleven binding verification criteria.

Each test gathers its evidence — reusing a registered experiment where
that experiment is the check, driving the libraries directly where a
bitwise or structural pin is required — and prints one verdict line

    [acceptance] criterion NN (<label>): PASS|FAIL

to the unbuffered stdout so the gate is visible in any pytest run.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

import dense_refs
from sqmlab import constraints, fermions
from sqmlab.cli import main as cli_main
from sqmlab.experiments import run_experiment
from sqmlab.gaussian import _mode_corr
from sqmlab.grids import ModeGrid
from sqmlab.linalg import Operator

_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    """Let the verdict helper print past pytest's fd-level capture."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _check(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _verdict(num: int, label: str, problems: list) -> None:
    status = "PASS" if not problems else "FAIL"
    line = f"[acceptance] criterion {num:02d} ({label}): {status}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert not problems, f"criterion {num:02d} ({label}): " + "; ".join(problems)


def _cases(report: dict, prefix: str) -> list:
    picked = [c for c in report["cases"] if c["case"].startswith(prefix)]
    assert picked, f"no cases with prefix {prefix!r}"
    return picked


# ---------------------------------------------------------------------------


def test_criterion_01_slice_trace_identity():
    problems: list = []
    t0 = time.perf_counter()
    report = run_experiment("trace-theorem")
    elapsed = time.perf_counter() - t0
    _check(problems, report["summary"]["cases"] == 50,
           f"expected 50 cases, got {report['summary']['cases']}")
    for case in report["cases"]:
        bound = 1e-10 * max(1.0, abs(case["oracle"]))
        _check(problems, case["abs_err"] <= bound,
               f"{case['case']}: |lhs-rhs| = {case['abs_err']:.3e} > {bound:.3e}")
        ins = case["inputs"]
        _check(problems,
               ins["d"] in (2, 3) and 1 <= ins["N"] <= 5 and ins["inserts"] <= 3,
               f"{case['case']}: sampled outside d in {{2,3}}, N in 1..5, <=3 inserts")
    _check(problems, elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
    _verdict(1, "slice-trace identity", problems)


def test_criterion_02_constraint_expectation_vanishes():
    problems: list = []
    t0 = time.perf_counter()
    report = run_experiment("constraint-theorem")
    elapsed = time.perf_counter() - t0
    _check(problems, report["summary"]["cases"] == 50,
           f"expected 50 cases, got {report['summary']['cases']}")
    flavors = set()
    for case in report["cases"]:
        flavors.add(case["inputs"]["boundary"])
        _check(problems, case["abs_err"] <= 1e-10,
               f"{case['case']}: |expectation| = {case['abs_err']:.3e} > 1e-10")
    _check(problems, flavors == {True, False},
           "need cases both with and without boundary insertions")
    _check(problems, elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
    _verdict(2, "constraint expectation vanishes", problems)


def test_criterion_03_conditioned_equals_schrodinger():
    problems: list = []
    report = run_experiment("paw-conditioning")
    _check(problems, report["summary"]["cases"] == 50,
           f"expected 50 cases, got {report['summary']['cases']}")
    for case in report["cases"]:
        _check(problems, case["abs_err"] <= 1e-12,
               f"{case['case']}: deviation {case['abs_err']:.3e} > 1e-12")
    _verdict(3, "conditioning matches unitary evolution", problems)


def test_criterion_04_spacetime_state_structure():
    problems: list = []
    marg = run_experiment("st-state-marginals")
    for case in _cases(marg, "marginal["):
        _check(problems, case["abs_err"] <= 1e-12,
               f"{case['case']}: marginal deviation {case['abs_err']:.3e} > 1e-12")
    ks = set()
    for case in _cases(marg, "trace_power["):
        ks.add(case["inputs"]["k"])
        _check(problems, case["abs_err"] <= 1e-10,
               f"{case['case']}: |Tr - 1| = {case['abs_err']:.3e} > 1e-10")
    _check(problems, ks == set(range(1, 7)), f"trace powers covered {sorted(ks)}, want 1..6")
    for case in _cases(marg, "region_state_like["):
        _check(problems, case["abs_err"] == 0.0,
               f"{case['case']}: equal-time reduction not state-like at 1e-10")
    witness = run_experiment("causality-witness")
    for case in _cases(witness, "witness["):
        _check(problems, case["abs_err"] <= 1e-10,
               f"{case['case']}: witness vs commutator {case['abs_err']:.3e} > 1e-10")
    _verdict(4, "spacetime-state marginals and witness", problems)


def test_criterion_05_mode_classification_and_brackets():
    problems: list = []
    T = 7.0
    grid = ModeGrid(
        T=T, modes=((1, 0), (2, 1), (3, 0), (5, 1)), m=1.0, M_sites=2,
        energy_override=(2 * math.pi / T, 4 * math.pi / T, None, None),
    )
    cs = constraints.build_constraints(grid)
    kinds = constraints.classify(cs)
    _check(problems,
           kinds == ["identically-zero", "identically-zero",
                     "second-class", "second-class"],
           f"classification came out {kinds}")
    for k, kind in enumerate(kinds):
        a, astar = constraints.mode_a(k, len(grid)), constraints.mode_astar(k, len(grid))
        pb = constraints.poisson_bracket(a, astar)
        db = constraints.dirac_bracket(a, astar, cs)
        _check(problems, pb == -1j, f"mode {k}: PB {pb!r} is not exactly -1j")
        if kind == "identically-zero":
            _check(problems, db == -1j,
                   f"on-shell mode {k}: DB {db!r} is not exactly -1j")
        else:
            _check(problems, abs(db) <= 1e-12,
                   f"off-shell mode {k}: |DB| = {abs(db):.3e} > 1e-12")
    onshell = ModeGrid(
        T=T, modes=((1, 0), (2, 1)), m=1.0, M_sites=2,
        energy_override=(2 * math.pi / T, 4 * math.pi / T),
    )
    for t in (0.0, 0.7):
        for x in range(2):
            for y in range(2):
                val = constraints.equal_time_bracket_reconstruction(
                    onshell, x, y, t, t)
                if x == y:
                    _check(problems, val == 1.0,
                           f"equal-time bracket at x=y={x}, t={t}: {val!r} != 1")
                else:
                    # the two momentum-class terms cancel exactly; what is
                    # left is the rounding of the irrational phase factors
                    _check(problems, abs(val) <= 1e-15,
                           f"equal-time bracket at x={x},y={y},t={t}: "
                           f"|{val!r}| > 1e-15")
    _verdict(5, "second-class collapse, on-shell brackets", problems)


def test_criterion_06_gaussian_pair_correlator():
    problems: list = []
    lams = [0.6 + 0.35 * k for k in range(10)]
    lams += [0.6 + 0.3j * k for k in range(1, 6)]
    lams += [1.5 - 0.45j, 2.0 + 2.0j, 0.75 - 1.2j, 3.0 + 0.05j, 0.9 + 0.9j]
    _check(problems, len(lams) == 20, "need 20 coupling values")
    _check(problems, any(isinstance(l, complex) and l.imag != 0 for l in lams),
           "need complex couplings in the sample")
    _check(problems, all(complex(l).real >= 0.5 for l in lams),
           "all couplings must have real part >= 0.5")
    for lam in lams:
        # 1/(e^lam - 1): the mode value at tau = 1, gap -Im lam, eps_i Re lam
        analytic = _mode_corr(1.0, -complex(lam).imag, complex(lam).real)
        brute = dense_refs.thermal_pair_bruteforce(lam, n_max=40)
        err = abs(analytic - brute)
        _check(problems, err <= 1e-8,
               f"lam={lam}: analytic vs n_max=40 brute force {err:.3e} > 1e-8")
    _verdict(6, "closed-form pair correlator", problems)


def test_criterion_07_propagator_limits():
    problems: list = []
    report = run_experiment("propagator")
    for case in _cases(report, "order_ratio["):
        _check(problems, case["abs_err"] <= 0.05,
               f"{case['case']}: halving ratio off 1/2 by {case['abs_err']:.3e} > 0.05")
    for case in _cases(report, "feynman_vs_ed["):
        _check(problems, case["abs_err"] <= 0.02 * abs(case["oracle"]),
               f"{case['case']}: grid vs dense evolution {case['rel_err']:.3e} > 2%")
    _check(problems, len(report["params"]["grid_energies"]) <= 2,
           "dense-oracle comparison must stay on <= 2-mode grids")
    _verdict(7, "propagator limits and dense-oracle match", problems)


def test_criterion_08_conditioning_anomaly():
    problems: list = []
    report = run_experiment("anomaly-scan")
    for case in _cases(report, "normal_ordered["):
        _check(problems, case["abs_err"] <= 1e-9,
               f"{case['case']}: normal-ordered mismatch {case['abs_err']:.3e} > 1e-9")
    for case in _cases(report, "contraction_density["):
        _check(problems, case["abs_err"] == 0.0,
               f"{case['case']}: contraction density != N/T exactly")
    ratio_cases = _cases(report, "mismatch_ratio[")
    for case in ratio_cases:
        N = case["inputs"]["N"]
        _check(problems, N >= 8, f"{case['case']}: ratio scan must use N >= 8")
        predicted = abs(case["oracle"])
        _check(problems, case["abs_err"] <= 0.05 * predicted,
               f"{case['case']}: doubling ratio off by {case['rel_err']:.3%} > 5%")
    _verdict(8, "slice-refinement anomaly scaling", problems)


def test_criterion_09_first_order_quartic_amplitude():
    problems: list = []
    report = run_experiment("smatrix")
    lam = report["params"]["lam"]
    extrap = _cases(report, "conserving[extrapolated]")[0]
    _check(problems, extrap["abs_err"] <= 0.01 * lam,
           f"extrapolated amplitude off -i*lam*V by {extrap['rel_err']:.3%} > 1%")
    tdpt = _cases(report, "tdpt[coupling]")[0]
    _check(problems, tdpt["abs_err"] <= 0.02 * lam,
           f"recovered coupling off the Dyson-series oracle by {tdpt['rel_err']:.3%} > 2%")
    for case in _cases(report, "violating["):
        _check(problems, case["value"] == 0.0 and case["abs_err"] == 0.0,
               f"{case['case']}: violating amplitude {case['value']} != 0 exactly")
    for n in range(1, 6):
        got = len(dense_refs.enumerate_pairings(2 * n))
        want = dense_refs.double_factorial(2 * n - 1)
        _check(problems, got == want,
               f"pairing count for 2n={2 * n}: {got} != {want}")
    _verdict(9, "first-order quartic amplitude", problems)


def test_criterion_10_fermionic_sector():
    problems: list = []
    g = fermions.GAMMA
    eye4 = np.eye(4)
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            anti = g[mu] @ g[nu] + g[nu] @ g[mu]
            worst = max(worst, float(np.max(np.abs(
                anti - 2.0 * fermions.METRIC[mu, nu] * eye4))))
    _check(problems, worst <= 1e-14, f"Clifford deviation {worst:.3e} > 1e-14")

    printed = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    _check(problems, np.array_equal(fermions.fswap().mat, printed),
           "exchange unitary does not match the printed matrix entrywise")

    layout = fermions.FermionLayout(3, 2)
    U, signs = fermions.fermionic_cycle(layout)
    for t in range(3):
        for m in range(2):
            leg = layout.leg(t, m)
            c = fermions.jw_annihilator(layout, t, m).mat
            tgt = fermions.jw_annihilator(layout, (t + 1) % 3, m).mat
            moved = U.mat @ c @ U.mat.conj().T
            dev = float(np.max(np.abs(moved - signs[leg] * tgt)))
            _check(problems, dev <= 1e-12,
                   f"cycle conjugation leg {leg}: residual {dev:.3e} > 1e-12")

    for p in ((0.35, 0.0, 0.0, 0.0), (0.9, 0.3, -0.2, 0.1)):
        lim = fermions.dirac_propagator_limit(p, 1.0, 1e-3)
        errs = [np.linalg.norm(tau * fermions.dirac_mode_propagator(p, 1.0, tau, 1e-3) - lim)
                for tau in (0.01, 0.005)]
        ratio = errs[1] / errs[0]
        _check(problems, abs(ratio - 0.5) <= 0.05,
               f"mode propagator at p={p}: halving ratio {ratio:.4f} not 1/2 +- 10%")

    rng = np.random.default_rng(20260816)
    L = layout.legs
    A = 0.3 * (rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)))
    S = dense_refs.quadratic_action(layout, A)
    law = dense_refs.parity_pair_correlator(A)
    ladders = [fermions.jw_annihilator(layout, t, m)
               for t in range(3) for m in range(2)]
    worst_pair = 0.0
    for a in range(L):
        for b in range(L):
            dense = dense_refs.parity_weighted_trace(
                layout, S, [ladders[a], Operator(ladders[b].mat.conj().T)])
            worst_pair = max(worst_pair, abs(dense - law[a, b]))
    _check(problems, worst_pair <= 1e-10,
           f"pair law vs 2^6 dense parity trace: worst {worst_pair:.3e} > 1e-10")
    _verdict(10, "fermionic sector", problems)


def test_criterion_11_deterministic_reports(tmp_path):
    problems: list = []
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("cases = 12\n")
    argv = ["causality-witness", "--config", str(cfg), "--seed", "20260816"]
    _check(problems, cli_main(argv + ["--out", str(tmp_path / "a")]) == 0,
           "first run did not exit 0")
    _check(problems, cli_main(argv + ["--out", str(tmp_path / "b")]) == 0,
           "second run did not exit 0")
    first = (tmp_path / "a" / "causality-witness.json").read_bytes()
    second = (tmp_path / "b" / "causality-witness.json").read_bytes()
    _check(problems, first == second, "same-seed reports differ at the byte level")

    for out in ("c", "d"):
        code = cli_main(["fswap-cycle", "--out", str(tmp_path / out)])
        _check(problems, code == 0, f"fswap-cycle run into {out!r} did not exit 0")
    third = (tmp_path / "c" / "fswap-cycle.json").read_bytes()
    fourth = (tmp_path / "d" / "fswap-cycle.json").read_bytes()
    _check(problems, third == fourth, "seedless experiment reports differ bytewise")
    _check(problems, json.loads(first)["summary"]["all_pass"] is True,
           "witness report has failing cases")
    _verdict(11, "byte-identical reports", problems)
