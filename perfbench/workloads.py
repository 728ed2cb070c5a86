"""The benchmark's workloads: seeded inputs and the checks run on them.

A check is one call that ends in a pass/fail verdict.  On `battery` it
is one experiment run through `sqmlab.cli.main`; on the other workloads
it is one slab-route value compared against its independent
oracle-route value.  Tolerances are read from `experiments.DEFAULTS`,
never typed again here.

The seed fixes the contents of the inputs (random Hamiltonians,
insertions, kets, slices, legs, couplings); the sizes of each workload
are fixed, so every seed asks for the same amount of work.  A pass is
the workload's whole list of checks, issued one after another.  Checks
of one pass that act on the same built object (an action, a state, a
cycle) share it through the pass's cache: the first check that needs
it pays for building it, and the cache is emptied between passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sqmlab import cli, fermions, fock, gaussian, oracles, spacetime, timeslab, wick
from sqmlab.experiments import DEFAULTS
from sqmlab.grids import ModeGrid, frequency_tower
from sqmlab.linalg import rand_hermitian, rand_ket

WORKLOADS = ("battery", "shift-traces", "spacetime-states", "perturbative")
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    margin: float  # abs_err / tol; 0 for an exact check that matched


def compare(value, oracle, tol: float, scale: float = 1.0) -> Verdict:
    """Pass iff |value - oracle| <= tol * scale, the experiments' rule."""
    err = abs(complex(value) - complex(oracle))
    bound = tol * scale
    if bound > 0:
        margin = err / bound
    else:
        margin = 0.0 if err == 0 else math.inf
    return Verdict(err <= bound, margin)


def all_of(verdicts: list[Verdict]) -> Verdict:
    """A check made of several comparisons passes iff every one does."""
    return Verdict(all(v.ok for v in verdicts), max(v.margin for v in verdicts))


@dataclass(frozen=True)
class Check:
    kind: str  # checks of one kind exercise the same code path
    dim: int  # largest dense dimension the check touches
    run: Callable[[dict], Verdict]  # argument: the pass's cache of built objects


def cached(cache: dict, key, build: Callable):
    if key not in cache:
        cache[key] = build()
    return cache[key]


def build(name: str, seed: int, scale: str, scratch: Path) -> list[Check]:
    """The check list of one pass of workload `name`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    rng = np.random.default_rng(seed)
    if name == "battery":
        return _battery(rng, scale, scratch)
    if name == "shift-traces":
        return _shift_traces(rng, scale)
    if name == "spacetime-states":
        return _spacetime_states(rng, scale)
    return _perturbative(rng, scale)


# ---------------------------------------------------------------------------
# battery: every registered experiment through the CLI

BATTERY = {"full": sorted(DEFAULTS), "tiny": ("dirac-nogo", "fswap-cycle", "paw-conditioning")}
# The experiments draw their case sizes from the seed, so one CLI seed
# can make a pass 20% slower than another.  A pass runs the battery at
# several CLI seeds drawn from the workload seed, so that every workload
# seed asks for about the same amount of work.
BATTERY_SEEDS = {"full": 12, "tiny": 1}


def _battery(rng: np.random.Generator, scale: str, scratch: Path) -> list[Check]:
    runs = [(exp, []) for exp in BATTERY[scale]] + [("smatrix", ["--order", "2"])]
    reference: dict[str, bytes] = {}  # first report bytes of each run, per process
    return [
        Check(f"battery.{exp}{'-o2' if flags else ''}", _battery_dim(exp),
              _experiment_check(exp, [*flags, "--seed", str(cli_seed)], scratch, reference))
        for cli_seed in rng.integers(0, 2**32, size=BATTERY_SEEDS[scale])
        for exp, flags in runs
    ]


def _battery_dim(exp: str) -> int:
    """Largest dense dimension the experiment builds at its DEFAULTS."""
    p = DEFAULTS[exp]
    if "dims" in p:  # slab experiments: d**N
        return max(p["dims"]) ** p["n_max_slices"]
    if exp == "paw-conditioning":  # clock x system
        return p["d_max"] * p["n_max_slices"]
    if exp == "fswap-cycle":
        return 2 ** (p["N"] * p["M"])
    if exp == "smatrix":  # oracle lattice, n_max = 2
        return 3 ** p["M_sites"]
    if exp == "propagator":
        return (p["ed_n_max"] + 1) ** len(p["grid_energies"])
    return 4 if exp == "dirac-propagator" else 1


def _experiment_check(exp: str, flags: list[str], scratch: Path,
                      reference: dict[str, bytes]) -> Callable[[dict], Verdict]:
    key = exp + "".join(flags)

    def run(cache: dict) -> Verdict:
        out = scratch / key
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([exp, "--out", str(out), *flags])
        data = (out / f"{exp}.json").read_bytes()
        # acceptance criterion 11: one seed and config give one report
        same_bytes = reference.setdefault(key, data) == data
        return _judge_report(exp, json.loads(data), code, same_bytes)

    return run


def _judge_report(exp: str, report: dict, code: int, same_bytes: bool) -> Verdict:
    """Re-judge every case from the report file, at the DEFAULTS tolerances."""
    params = report["params"]
    tols_ok = all(params[k] == v for k, v in DEFAULTS[exp].items() if k.startswith("tol"))
    margin, ok = 0.0, bool(report["cases"])
    for case in report["cases"]:
        verdict = compare(complex(*case["value"]), complex(*case["oracle"]), case["tol"])
        margin = max(margin, verdict.margin)
        ok = ok and verdict.ok and case["pass"]
    return Verdict(ok and code == 0 and tols_ok and same_bytes, margin)


# ---------------------------------------------------------------------------
# shift-traces: slab traces and the fermionic cycle at large dimension

# (d, N, checks): "t<k>" is a trace check with k insertions, "c" a
# constraint check without a boundary, "cb" one with a boundary
SLAB_BLOCKS = {
    "full": ((2, 9, ("t2", "cb")), (3, 6, ("t2", "c")),
             (2, 10, ("t1", "c", "cb")), (2, 11, ("t1",))),
    "tiny": ((2, 3, ("t2", "cb")), (3, 2, ("t1", "c"))),
}
# (N, M, conjugated legs checked)
CYCLE_BLOCKS = {
    "full": ((9, 1, 9), (3, 3, 9), (5, 2, 1)),
    "tiny": ((3, 1, 3), (2, 2, 1)),
}


def _shift_traces(rng: np.random.Generator, scale: str) -> list[Check]:
    eps = DEFAULTS["trace-theorem"]["eps"]
    checks = []
    for b, (d, N, kinds) in enumerate(SLAB_BLOCKS[scale]):
        layout = timeslab.SliceLayout(d=d, N=N, eps=eps)
        H = rand_hermitian(rng, d)
        for kind in kinds:
            if kind.startswith("t"):
                slots = rng.choice(N, size=int(kind[1:]), replace=False)
                inserts = [(rand_hermitian(rng, d), int(t)) for t in slots]
                run, kind = _trace_check(b, layout, H, inserts), "trace"
            else:
                boundary = (rand_ket(rng, d), rand_ket(rng, d)) if kind == "cb" else None
                t = int(rng.integers(0, N - 1 if boundary else N))
                run = _constraint_check(b, layout, H, rand_hermitian(rng, d), t, boundary)
                kind = "constraint"
            checks.append(Check(f"timeslab.{kind}", layout.total_dim, run))
    tol = DEFAULTS["fswap-cycle"]["tol"]
    for b, (N, M, n_legs) in enumerate(CYCLE_BLOCKS[scale]):
        layout = fermions.FermionLayout(N, M)
        for leg in sorted(rng.choice(layout.legs, size=n_legs, replace=False)):
            checks.append(Check("fermions.conjugation", layout.dim,
                                _conjugation_check(b, layout, int(leg), tol)))
        checks.append(Check("fermions.parity", layout.dim, _parity_check(b, layout, tol)))
    return checks


def _action(cache, b, layout, H):
    return cached(cache, ("action", b), lambda: timeslab.build_action(layout, H))


def _trace_check(b, layout, H, inserts):
    tol = DEFAULTS["trace-theorem"]["tol"]

    def run(cache):
        qa = _action(cache, b, layout, H)
        lhs = timeslab.trace_theorem_lhs(qa, inserts)
        rhs = timeslab.trace_theorem_rhs(qa, inserts)
        return compare(lhs, rhs, tol, max(1.0, abs(rhs)))

    return run


def _constraint_check(b, layout, H, O, t, boundary):
    tol = DEFAULTS["constraint-theorem"]["tol"]

    def run(cache):
        qa = _action(cache, b, layout, H)
        return compare(timeslab.constraint_expectation(qa, O, t, boundary), 0.0, tol)

    return run


def _cycle(cache, b, layout):
    return cached(cache, ("cycle", b), lambda: fermions.fermionic_cycle(layout))


def _conjugation_check(b, layout, leg, tol):
    M, L = layout.M, layout.legs
    target = (leg + M) % L if layout.N > 1 else leg

    def run(cache):
        U, signs = _cycle(cache, b, layout)
        c_leg = fermions.jw_annihilator(layout, leg // M, leg % M).mat
        c_tgt = fermions.jw_annihilator(layout, target // M, target % M).mat
        moved = U.mat @ c_leg @ U.mat.conj().T
        return compare(np.max(np.abs(moved - signs[leg] * c_tgt)), 0.0, tol)

    return run


def _parity_check(b, layout, tol):
    def run(cache):
        U, _ = _cycle(cache, b, layout)
        P = fermions.parity_operator(layout).mat
        return compare(np.max(np.abs(U.mat @ P - P @ U.mat)), 0.0, tol)

    return run


# ---------------------------------------------------------------------------
# spacetime-states: build R, then dense algebra on it

# (d, N, site_dims)
STATE_BLOCKS = {
    "full": ((2, 9, None), (2, 10, None), (4, 5, (2, 2))),
    "tiny": ((2, 3, None), (4, 2, (2, 2))),
}
POWERS = (2, 3, 4)


def _spacetime_states(rng: np.random.Generator, scale: str) -> list[Check]:
    d_st = DEFAULTS["st-state-marginals"]
    eps = d_st["eps"]
    checks = []
    for b, (d, N, site_dims) in enumerate(STATE_BLOCKS[scale]):
        psi0, H = rand_ket(rng, d), rand_hermitian(rng, d)
        dim = d**N

        def state(cache, b=b, psi0=psi0, H=H, N=N, site_dims=site_dims):
            return cached(cache, ("state", b),
                          lambda: spacetime.build_R(psi0, H, eps, N, site_dims=site_dims))

        checks.append(Check("spacetime.marginals", dim, _marginals_check(state, N, d_st["tol"])))
        A, B = rand_hermitian(rng, d), rand_hermitian(rng, d)
        t = int(rng.integers(1, N))
        checks.append(Check("spacetime.witness", dim, _witness_check(state, A, B, t)))
        for k in POWERS:
            checks.append(Check("spacetime.power", dim, _power_check(state, k, d_st["tol_trace"])))
        t = int(rng.integers(0, N))
        cells = [(t, x) for x in range(len(site_dims or (d,)))]  # one slice, every site
        checks.append(Check("spacetime.region", dim, _region_check(state, cells)))
    return checks


def _marginals_check(state, N, tol):
    """Every slice marginal against the evolved projector."""
    def run(cache):
        st = state(cache)
        return all_of([
            compare(np.max(np.abs(spacetime.marginal(st, t).mat - st.evolved(t).outer().mat)),
                    0.0, tol)
            for t in range(N)
        ])

    return run


def _witness_check(state, A, B, t):
    tol = DEFAULTS["causality-witness"]["tol"]

    def run(cache):
        st = state(cache)
        value = spacetime.causality_witness(st, A, B, t)
        oracle = spacetime.causality_witness_oracle(st, A, B, t)
        return compare(value, oracle, tol, max(1.0, abs(oracle)))

    return run


def _power_check(state, k, tol):
    def run(cache):
        _, tr = spacetime.power_and_pseudoentropy(state(cache), k)
        return compare(tr, 1.0, tol)

    return run


def _region_check(state, cells):
    def run(cache):
        report = spacetime.reduce_to_region(state(cache), cells)
        return compare(1.0 if report.is_state_like else 0.0, 1.0, 0.0)

    return run


# ---------------------------------------------------------------------------
# perturbative: wick orders 1 and 2, Gaussian propagators, the anomaly scan


def _smatrix_grid(T: float, M: int, n_a: int, n_b: int) -> ModeGrid:
    """The experiments' parity-symmetric 2->2 instance: sites (0,2) at E_a, (1,3) at E_b."""
    e_a = 2 * math.pi * n_a / T
    e_b = 2 * math.pi * n_b / T
    return ModeGrid(T=T, modes=((n_b, 1), (n_a, 2), (n_a, 0), (n_b, 3)), m=1.0,
                    M_sites=M, energy_override=(e_b, e_a, e_a, e_b))


def _perturbative(rng: np.random.Generator, scale: str) -> list[Check]:
    p = DEFAULTS["smatrix"]
    lam = float(rng.uniform(0.2, 0.4))  # every smatrix check is relative to lam
    checks = _order2_checks(p, lam) + _order1_checks(p, lam)
    checks += _propagator_checks(rng)
    checks += _anomaly_checks(rng, scale)
    return checks


def _order2_checks(p: dict, lam: float) -> list[Check]:
    T, M, eps_i, tau = p["T2"], p["M_sites"], p["eps_i2"], p["tau2"]
    grid = _smatrix_grid(T, M, p["n_a2"], p["n_b2"])
    site_E = [grid.energy(k) for k in (2, 0, 1, 3)]

    def ratio(cache, tau):
        def amps():
            a1 = wick.smatrix_element(grid, (0, 1), (2, 3), lam, 1, tau, eps_i)
            a2 = wick.smatrix_element(grid, (0, 1), (2, 3), lam, 2, tau, eps_i, channel="s")
            return a2 / a1
        return cached(cache, ("pair", tau), amps)

    def pair(cache):
        a1_d, a2_d = oracles.dyson_pair_channel_amplitudes(
            M, site_E, lam, (1, 2), (0, 3), T, eta=eps_i)
        return compare(ratio(cache, tau), a2_d / a1_d, p["tol_pair"], abs(a2_d / a1_d))

    def stability(cache):
        r = ratio(cache, tau)
        return compare(ratio(cache, tau / 2), r, p["tol_stability"], abs(r))

    # the oracle's dense lattice has n_max = 2 on each of the M sites
    return [Check("wick.pair_channel", 3**M, pair), Check("wick.tau_stability", 1, stability)]


def _order1_checks(p: dict, lam: float) -> list[Check]:
    T, M, eps_i = p["T"], p["M_sites"], p["eps_i"]
    n_a, n_b = p["n_a"], p["n_b"]
    grid = _smatrix_grid(T, M, n_a, n_b)
    taus = [p["tau"] / 2**k for k in range(p["sweep_points"])]

    def sweep(cache):
        """The tau sweep lands on -i lam and on the Dyson-series coupling."""
        scaled = [wick.smatrix_element(grid, (0, 1), (2, 3), lam, 1, tau, eps_i)
                  / wick.lattice_volume_norm(round(T / tau), M) for tau in taus]
        extrap = wick.tau_extrapolate(scaled[0], scaled[1], 2)
        site_E = [grid.energy(k) for k in (2, 0, 1, 3)]
        a1_d = oracles.dyson_smatrix_oracle(M, site_E, lam, (1, 2), (0, 3), T, order=1, n_max=2)
        lam_dyson = a1_d * M * math.prod(math.sqrt(2 * e) for e in site_E) / (-1j * T)
        return all_of([compare(a, -1j * lam, p["tol_volume"], lam) for a in (*scaled, extrap)]
                      + [compare(extrap / -1j, lam_dyson, p["tol_tdpt"], lam)])

    def e(n):
        return 2 * math.pi * n / T

    e_viol = ModeGrid(T=T, modes=((n_b, 1), (n_a, 2), (n_a, 0), (n_b + 1, 3)), m=1.0,
                      M_sites=M, energy_override=(e(n_b), e(n_a), e(n_a), e(n_b + 1)))
    p_viol = ModeGrid(T=T, modes=((n_a, 1), (n_b, 2), (n_a, 0), (n_b, 4)), m=1.0,
                      M_sites=5, energy_override=(e(n_a), e(n_b), e(n_a), e(n_b)))

    def zero_probes(cache):
        """Energy- and momentum-violating externals give exactly zero."""
        return all_of([compare(wick.smatrix_element(g, (0, 1), (2, 3), lam, 1, taus[0], eps_i),
                               0.0, 0.0) for g in (e_viol, p_viol)])

    # the oracle's dense lattice has n_max = 2 on each of the M sites
    return [Check("wick.order1_sweep", 3**M, sweep), Check("wick.zero_probes", 1, zero_probes)]


def _propagator_checks(rng: np.random.Generator) -> list[Check]:
    p = DEFAULTS["propagator"]
    # regulated single-mode limit: tau * correlator -> i/(gap + i eps_i)
    gap = float(rng.uniform(0.6, 1.0))
    mode_grid = ModeGrid(T=2 * math.pi, modes=((p["n_mode"],),),
                         energy_override=(p["n_mode"] - gap,))
    target = 1j / (mode_grid.gap(0) + 1j * p["eps_i"])
    taus = [p["tau"] / 2**k for k in range(p["sweep_points"])]

    def mode_limit(cache):
        return all_of([compare(tau * gaussian.tau_mode_correlator(mode_grid, tau, p["eps_i"], 0, 0),
                               target, p["tol_limit"], abs(target)) for tau in taus])

    checks = [Check("gaussian.mode_limit", 1, mode_limit)]
    # two-site grid propagator against dense Heisenberg evolution, both
    # site pairs at every slice offset, in a seeded order
    tau_g, energies = p["tau_grid"], list(p["grid_energies"])
    grid = frequency_tower(p["T"], tau_g, spatial=((0,), (1,)), M_sites=2, energies=energies)
    points = [(dt, site) for dt in p["ed_slices"] for site in (0, 1)]
    for i in rng.permutation(len(points)):
        dt, site = points[i]

        def run(cache, dt=dt, site=site):
            value = gaussian.feynman_propagator_grid(grid, tau_g, p["eps_i_grid"],
                                                     (dt, site), (0, 0))
            oracle = oracles.timeordered_two_point_ed(
                2, energies, site, 0, tau_g * dt, n_max=p["ed_n_max"])
            return compare(value, oracle, p["tol_ed"], abs(oracle))

        checks.append(Check("gaussian.feynman_vs_ed", (p["ed_n_max"] + 1) ** 2, run))
    return checks


# dense engine lattice: N slices of one mode with n_max = 2, 3**N dims
DENSE_SLICES = {"full": 6, "tiny": 3}
SCAN_SLICES = {"full": DEFAULTS["anomaly-scan"]["slice_counts"], "tiny": (8, 12)}


def _anomaly_checks(rng: np.random.Generator, scale: str) -> list[Check]:
    p = DEFAULTS["anomaly-scan"]
    T = p["T"]
    energy = float(rng.uniform(1.0, 2.0))

    def sector(N):
        lf = fock.LatticeFock(N=N, M=1, energies=(energy,), eps=T / N)
        return fock.anomaly_mismatch(lf, engine="sector")

    n = DENSE_SLICES[scale]
    lf = fock.LatticeFock(N=n, M=1, energies=(energy,), n_max=2, eps=T / n)

    def dense(cache):
        """The dense truncated-Fock engine against the standard oracle and
        against the particle-sector engine, an independent coding of one lattice."""
        rep = fock.anomaly_mismatch(lf, engine="dense")
        return all_of([
            compare(rep["normal_slab"], rep["normal_standard"], p["tol_normal"]),
            compare(rep["mismatch"], sector(n)["mismatch"], p["tol_normal"], n),
            compare(rep["contraction_density"], n / T, 0.0),
        ])

    def scan(cache, N):
        """The experiments' anomaly scan at N slices, refined to 2N."""
        rep, rep2 = sector(N), sector(2 * N)
        predicted = fock.predicted_mismatch_ratio(N)
        return all_of([
            compare(rep["normal_slab"], rep["normal_standard"], p["tol_normal"]),
            compare(rep["contraction_density"], N / T, 0.0),
            compare(rep2["mismatch"] / rep["mismatch"], predicted, p["tol_ratio"], predicted),
        ])

    return [Check("fock.dense", lf.dense_dim, dense)] + [
        # the sector engine holds state vectors only, no dense operator
        Check("fock.sector_scan", 1, lambda c, N=N: scan(c, N)) for N in SCAN_SLICES[scale]]
