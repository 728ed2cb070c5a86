"""Registered verification experiments behind the `sqmlab` CLI.

Each runner is a generator params -> case records, and
`run_experiment` finishes the report

    {"cases": [case, ...], "summary": {...}, "params": {...}}

with the cases sorted by key.  Every case carries its inputs, the
computed value, the oracle value, absolute/relative errors, and a pass
flag judged against the tolerances in params.  All tolerances live in
the experiment's DEFAULTS (overridable via config file or flags), never
inline in the case logic.  Randomness comes only from numpy's
default_rng seeded with params["seed"], so a fixed config reproduces a
report exactly.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Iterator

import numpy as np

from . import clock, constraints, fermions, fock, gaussian, oracles, spacetime, timeslab, wick
from .grids import ModeGrid, frequency_tower, slice_count
from .linalg import rand_hermitian, rand_ket


def _case(key: str, inputs: dict, value, oracle, tol: float, scale: float = 1.0) -> dict:
    """Uniform case record; pass iff |value - oracle| <= tol * scale.

    rel_err is abs_err / |oracle|, and None when the oracle is 0.  A
    non-finite value or oracle gives a non-finite abs_err, which raises
    FloatingPointError: JSON has no NaN or infinity to report it with.
    """
    value = complex(value)
    oracle = complex(oracle)
    abs_err = abs(value - oracle)
    if not math.isfinite(abs_err):
        raise FloatingPointError(f"case {key} is not finite: {value} against {oracle}")
    rel_err = abs_err / abs(oracle) if oracle else None
    return {
        "case": key,
        "inputs": inputs,
        "value": value,
        "oracle": oracle,
        "abs_err": abs_err,
        "rel_err": rel_err,
        "tol": tol * scale,
        "pass": bool(abs_err <= tol * scale),
    }


def _require_positive(params: dict, *keys: str) -> None:
    """Reject windows, steps, regulators and sizes at or below zero."""
    for key in keys:
        if params[key] <= 0:
            raise ValueError(f"need {key} > 0, got {params[key]!r}")


def _require_at_least(params: dict, key: str, least: int, purpose: str) -> None:
    """Reject a count below the smallest one that still makes `purpose` run."""
    if params[key] < least:
        raise ValueError(f"need {key} >= {least} for {purpose}, got {params[key]!r}")


def _slab_draws(params: dict, n_min: int) -> Iterator[tuple]:
    """(i, rng, d, N) per case: d from params["dims"], then N in [n_min, n_max_slices].

    One generator seeded with params["seed"] serves every draw of the
    run, so the caller's own draws on rng fall between this one's.
    """
    _require_at_least(params, "n_max_slices", n_min, f"N drawn from [{n_min}, n_max_slices]")
    rng = np.random.default_rng(params["seed"])
    for i in range(params["cases"]):
        d = int(rng.choice(params["dims"]))
        N = int(rng.integers(n_min, params["n_max_slices"] + 1))
        yield i, rng, d, N


# ---------------------------------------------------------------------------
# clock / slice-lattice / spacetime-state experiments


def run_paw_conditioning(params: dict) -> Iterator[dict]:
    _require_at_least(params, "d_min", 1, "a clock with states")
    _require_at_least(params, "d_max", params["d_min"], "d drawn from [d_min, d_max]")
    _require_at_least(params, "n_max_slices", 2, "N drawn from [2, n_max_slices]")
    rng = np.random.default_rng(params["seed"])
    for i in range(params["cases"]):
        d = int(rng.integers(params["d_min"], params["d_max"] + 1))
        N = int(rng.integers(2, params["n_max_slices"] + 1))
        cs = clock.ClockSystem(N, params["eps"], rand_hermitian(rng, d), rand_ket(rng, d))
        O = rand_hermitian(rng, d)
        t = int(rng.integers(0, N))
        value = clock.conditioned_expectation(cs, O, t)
        oracle = cs.evolved(t).expectation(O)
        yield _case(
            f"conditioning[{i:02d}]", {"d": d, "N": N, "t": t},
            value, oracle, params["tol"],
        )


def run_trace_theorem(params: dict) -> Iterator[dict]:
    _require_at_least(params, "max_inserts", 0, "the insertion count draw")
    for i, rng, d, N in _slab_draws(params, 1):
        qa = timeslab.build_action(
            timeslab.SliceLayout(d=d, N=N, eps=params["eps"]), rand_hermitian(rng, d)
        )
        k = int(rng.integers(0, min(params["max_inserts"], N) + 1))
        slots = rng.choice(N, size=k, replace=False)
        inserts = [(rand_hermitian(rng, d), int(t)) for t in slots]
        lhs = timeslab.trace_theorem_lhs(qa, inserts)
        rhs = timeslab.trace_theorem_rhs(qa, inserts)
        yield _case(
            f"trace[{i:02d}]", {"d": d, "N": N, "inserts": k},
            lhs, rhs, params["tol"], scale=max(1.0, abs(rhs)),
        )


def run_constraint_theorem(params: dict) -> Iterator[dict]:
    for i, rng, d, N in _slab_draws(params, 2):
        qa = timeslab.build_action(
            timeslab.SliceLayout(d=d, N=N, eps=params["eps"]), rand_hermitian(rng, d)
        )
        O = rand_hermitian(rng, d)
        with_boundary = bool(i % 2)
        if with_boundary:
            t = int(rng.integers(0, N - 1))
            boundary = (rand_ket(rng, d), rand_ket(rng, d))
        else:
            t = int(rng.integers(0, N))
            boundary = None
        value = timeslab.constraint_expectation(qa, O, t, boundary)
        yield _case(
            f"constraint[{i:02d}]", {"d": d, "N": N, "t": t, "boundary": with_boundary},
            value, 0.0, params["tol"],
        )


def run_st_state_marginals(params: dict) -> Iterator[dict]:
    _require_at_least(params, "k_max", 1, "the trace-power cases")
    for i, rng, d, N in _slab_draws(params, 2):
        st = spacetime.build_R(rand_ket(rng, d), rand_hermitian(rng, d), params["eps"], N)
        t = int(rng.integers(0, N))
        marg = spacetime.marginal(st, t).mat
        proj = st.evolved(t).outer().mat
        yield _case(
            f"marginal[{i:02d}]", {"d": d, "N": N, "t": t},
            np.max(np.abs(marg - proj)), 0.0, params["tol"],
        )
        for k in range(1, params["k_max"] + 1):
            _, tr = spacetime.power_and_pseudoentropy(st, k)
            yield _case(
                f"trace_power[{i:02d},k={k}]", {"d": d, "N": N, "k": k},
                tr, 1.0, params["tol_trace"],
            )
        report = spacetime.reduce_to_region(st, [(t, 0)])
        yield _case(
            f"region_state_like[{i:02d}]", {"d": d, "N": N, "t": t},
            1.0 if report.is_state_like else 0.0, 1.0, 0.0,
        )


def run_causality_witness(params: dict) -> Iterator[dict]:
    for i, rng, d, N in _slab_draws(params, 2):
        st = spacetime.build_R(rand_ket(rng, d), rand_hermitian(rng, d), params["eps"], N)
        A, B = rand_hermitian(rng, d), rand_hermitian(rng, d)
        t = int(rng.integers(1, N))
        value = spacetime.causality_witness(st, A, B, t)
        oracle = spacetime.causality_witness_oracle(st, A, B, t)
        yield _case(
            f"witness[{i:02d}]", {"d": d, "N": N, "t": t},
            value, oracle, params["tol"], scale=max(1.0, abs(oracle)),
        )


def run_pseudo_entropy(params: dict) -> Iterator[dict]:
    for i, rng, d, N in _slab_draws(params, 2):
        st = spacetime.build_R(rand_ket(rng, d), rand_hermitian(rng, d), params["eps"], N)
        for k in range(2, params["k_max"] + 1):
            value = spacetime.renyi_pseudoentropy(st, k)
            yield _case(
                f"renyi[{i:02d},k={k}]", {"d": d, "N": N, "k": k},
                value, 0.0, params["tol"],
            )


# ---------------------------------------------------------------------------
# extended-Fock anomaly scan


def run_anomaly_scan(params: dict) -> Iterator[dict]:
    _require_positive(params, "T")
    if any(N < 2 for N in params["slice_counts"]):
        raise ValueError("every slice count needs N >= 2")
    T = params["T"]
    for N in params["slice_counts"]:
        lf = fock.LatticeFock(N=N, M=1, energies=(params["energy"],), eps=T / N)
        rep = fock.anomaly_mismatch(lf, engine="sector")
        yield _case(
            f"normal_ordered[N={N:03d}]", {"N": N, "T": T},
            rep["normal_slab"], rep["normal_standard"], params["tol_normal"],
        )
        yield _case(
            f"contraction_density[N={N:03d}]", {"N": N, "T": T},
            rep["contraction_density"], N / T, 0.0,
        )
        lf2 = fock.LatticeFock(N=2 * N, M=1, energies=(params["energy"],), eps=T / (2 * N))
        rep2 = fock.anomaly_mismatch(lf2, engine="sector")
        ratio = rep2["mismatch"] / rep["mismatch"]
        predicted = fock.predicted_mismatch_ratio(N)
        yield _case(
            f"mismatch_ratio[N={N:03d}]", {"N": N, "2N": 2 * N, "T": T},
            ratio, predicted, params["tol_ratio"], scale=abs(predicted),
        )
    # the dense truncated-Fock engine, an independent coding of the lattice,
    # against the sector engine at N = 6, n_max = 2 (D = 729, inside the cap)
    lf = fock.LatticeFock(N=6, M=1, energies=(params["energy"],), n_max=2, eps=T / 6)
    dense = fock.anomaly_mismatch(lf, engine="dense")
    sector = fock.anomaly_mismatch(lf, engine="sector")
    yield _case(
        "dense_vs_sector[N=006]", {"N": 6, "n_max": 2, "D": lf.dense_dim, "T": T},
        dense["nonnormal_slab"], sector["nonnormal_slab"], params["tol_normal"],
    )


# ---------------------------------------------------------------------------
# constraint classification / Dirac brackets


def _on_shell_grid(T: float, M: int, modes: tuple) -> ModeGrid:
    """Modes (n0, site) on M sites, each external's energy set to 2 pi n0 / T."""
    return ModeGrid(
        T=T, modes=modes, m=1.0, M_sites=M,
        energy_override=tuple(2 * math.pi * n0 / T for n0, _ in modes),
    )


def run_dirac_nogo(params: dict) -> Iterator[dict]:
    _require_positive(params, "T")
    T = params["T"]
    # modes 0 and 1 pinned to their grid frequency, 2 and 3 left to the
    # dispersion where no mass puts them on shell: (0, 1) has omega = 0 < E
    # (E >= pi on two sites) and (-1, 0) has omega < 0 <= E
    pinned = (2 * math.pi * 1 / T, 2 * math.pi * 2 / T, None, None)
    grid = ModeGrid(
        T=T,
        modes=((1, 0), (2, 1), (0, 1), (-1, 0)),
        m=params["mass"],
        M_sites=2,
        energy_override=pinned,
    )
    cs = constraints.build_constraints(grid)
    for k, kind in enumerate(constraints.classify(cs)):
        db = constraints.dirac_bracket(
            constraints.mode_a(k, len(grid)), constraints.mode_astar(k, len(grid)), cs
        )
        # the oracle knows which modes it pinned on shell, not what classify says
        oracle = -1j if pinned[k] is not None else 0.0
        yield _case(
            f"bracket[mode={k}]",
            {"mode": list(grid.modes[k]), "gap": cs.gaps[k], "kind": kind},
            db, oracle, params["tol"],
        )
    # every mode on shell, so the mass never enters
    onshell_grid = _on_shell_grid(T, 2, ((1, 0), (2, 1)))
    for x in range(2):
        for y in range(2):
            val = constraints.equal_time_bracket_reconstruction(onshell_grid, x, y, 0.7, 0.7)
            yield _case(
                f"equal_time[x={x},y={y}]", {"x": x, "y": y},
                val, 1.0 if x == y else 0.0, params["tol"],
            )


# ---------------------------------------------------------------------------
# free-propagator limits (scalar)


def run_propagator(params: dict) -> Iterator[dict]:
    _require_positive(params, "tau", "T", "tau_grid")
    _require_at_least(params, "sweep_points", 2, "the order ratio")
    _require_at_least(params, "ed_n_max", 1, "the ED oracle to hold a particle")
    ed_dim = (params["ed_n_max"] + 1) ** len(params["grid_energies"])
    if ed_dim > oracles.DENSE_DIM_CAP:
        raise ValueError(f"ed_n_max = {params['ed_n_max']} gives an ED lattice of {ed_dim} "
                         f"states, which exceeds cap {oracles.DENSE_DIM_CAP}")
    eps_i = params["eps_i"]

    # off-shell single mode: tau * correlator -> i/(gap + i eps_i), order tau
    mode_grid = ModeGrid(
        T=2 * math.pi, modes=((params["n_mode"],),),
        energy_override=(params["n_mode"] - params["gap"],),
    )
    gap = mode_grid.gap(0)
    target = 1j / (gap + 1j * eps_i)
    taus = [params["tau"] / 2**k for k in range(params["sweep_points"])]
    errs = []
    for tau in taus:
        value = tau * gaussian.tau_mode_correlator(mode_grid, tau, eps_i, 0, 0)
        errs.append(abs(value - target))
        yield _case(
            f"mode_limit[tau={tau:.6f}]", {"tau": tau, "gap": gap, "eps_i": eps_i},
            value, target, params["tol_limit"], scale=abs(target),
        )
    for k in range(len(taus) - 1):
        yield _case(
            f"order_ratio[step={k}]", {"tau": taus[k], "eps_i": eps_i},
            errs[k + 1] / errs[k], 0.5, params["tol_order"],
        )

    # two-site grid propagator against dense Hamiltonian evolution
    T, tau_g, eps_g = params["T"], params["tau_grid"], params["eps_i_grid"]
    energies = list(params["grid_energies"])
    grid = frequency_tower(T, tau_g, spatial=((0,), (1,)), M_sites=2, energies=energies)
    for dt in params["ed_slices"]:
        value = gaussian.feynman_propagator_grid(grid, tau_g, eps_g, (dt, 0), (0, 0))
        oracle = oracles.timeordered_two_point_ed(
            2, energies, 0, 0, tau_g * dt, n_max=params["ed_n_max"]
        )
        yield _case(
            f"feynman_vs_ed[dt={dt:03d}]", {"dt": dt, "tau": tau_g, "N": grid.N},
            value, oracle, params["tol_ed"], scale=abs(oracle),
        )


# ---------------------------------------------------------------------------
# quartic S-matrix


def _smatrix_grid(T: float, M: int, n_a: int, n_b: int) -> ModeGrid:
    """Parity-symmetric 2->2 instance: site classes (0,2) at E_a, (1,3) at E_b."""
    return _on_shell_grid(T, M, ((n_b, 1), (n_a, 2), (n_a, 0), (n_b, 3)))


def _run_smatrix_order1(params: dict) -> Iterator[dict]:
    T, M = params["T"], params["M_sites"]
    lam, eps_i = params["lam"], params["eps_i"]
    n_a, n_b = params["n_a"], params["n_b"]
    grid = _smatrix_grid(T, M, n_a, n_b)

    taus = [params["tau"] / 2**k for k in range(params["sweep_points"])]
    scaled = []
    for tau in taus:
        amp = wick.smatrix_element(grid, (0, 1), (2, 3), lam, 1, tau, eps_i)
        N = slice_count(T, tau)
        scaled.append(amp / wick.lattice_volume_norm(N, M))
        yield _case(
            f"conserving[tau={tau:.6f}]", {"tau": tau, "N": N, "lam": lam},
            scaled[-1], -1j * lam, params["tol_volume"], scale=lam,
        )
    extrap = wick.tau_extrapolate(scaled[0], scaled[1], 2)
    yield _case(
        "conserving[extrapolated]", {"taus": taus[:2], "lam": lam},
        extrap, -1j * lam, params["tol_volume"], scale=lam,
    )

    # independent oracle: -iT<f|V|i> on the dense lattice, mapped to the
    # slab's per-volume units (box-normalized legs carry 1/sqrt(2E) each)
    site_E = [grid.energy(k) for k in (2, 0, 1, 3)]
    a1_d = oracles.dyson_smatrix_oracle(M, site_E, lam, (1, 2), (0, 3), T, order=1, n_max=2)
    lam_dyson = a1_d * M * math.prod(math.sqrt(2 * e) for e in site_E) / (-1j * T)
    yield _case(
        "tdpt[coupling]", {"T": T, "lam": lam},
        extrap / -1j, lam_dyson, params["tol_tdpt"], scale=lam,
    )

    # energy-violating externals (individually on shell): identically zero
    e_viol = _on_shell_grid(T, M, ((n_b, 1), (n_a, 2), (n_a, 0), (n_b + 1, 3)))
    v1 = wick.smatrix_element(e_viol, (0, 1), (2, 3), lam, 1, taus[0], eps_i)
    yield _case("violating[energy]", {"tau": taus[0]}, v1, 0.0, 0.0)

    # momentum-violating externals on a five-site lattice: identically zero
    p_viol = _on_shell_grid(T, 5, ((n_a, 1), (n_b, 2), (n_a, 0), (n_b, 4)))
    v2 = wick.smatrix_element(p_viol, (0, 1), (2, 3), lam, 1, taus[0], eps_i)
    yield _case("violating[momentum]", {"tau": taus[0]}, v2, 0.0, 0.0)


def _run_smatrix_order2(params: dict) -> Iterator[dict]:
    T, M = params["T2"], params["M_sites"]
    lam, eps_i = params["lam"], params["eps_i2"]
    tau = params["tau2"]
    grid = _smatrix_grid(T, M, params["n_a2"], params["n_b2"])
    site_E = [grid.energy(k) for k in (2, 0, 1, 3)]

    a1 = wick.smatrix_element(grid, (0, 1), (2, 3), lam, 1, tau, eps_i)
    a2 = wick.smatrix_element(grid, (0, 1), (2, 3), lam, 2, tau, eps_i, channel="s")
    a1_d, a2_d = oracles.dyson_pair_channel_amplitudes(
        M, site_E, lam, (1, 2), (0, 3), T, eta=eps_i
    )
    yield _case(
        "pair_channel[ratio]", {"tau": tau, "T": T, "eps_i": eps_i},
        a2 / a1, a2_d / a1_d, params["tol_pair"], scale=abs(a2_d / a1_d),
    )
    a1h = wick.smatrix_element(grid, (0, 1), (2, 3), lam, 1, tau / 2, eps_i)
    a2h = wick.smatrix_element(grid, (0, 1), (2, 3), lam, 2, tau / 2, eps_i, channel="s")
    yield _case(
        "pair_channel[tau_stability]", {"taus": [tau, tau / 2]},
        a2h / a1h, a2 / a1, params["tol_stability"], scale=abs(a2 / a1),
    )


# the keys only one order reads; overriding them at the other order does nothing
_ORDER_KEYS = {
    1: ("T", "n_a", "n_b", "eps_i", "tau", "sweep_points", "tol_volume", "tol_tdpt"),
    2: ("T2", "n_a2", "n_b2", "eps_i2", "tau2", "tol_pair", "tol_stability"),
}


def run_smatrix(params: dict) -> Iterator[dict]:
    order = params["order"]
    if order not in _ORDER_KEYS:
        raise ValueError("order must be 1 or 2")
    idle = [key for key in _ORDER_KEYS[3 - order]
            if params[key] != DEFAULTS["smatrix"][key]]
    if idle:
        raise ValueError(f"order {order} does not use {', '.join(idle)}")
    if params["M_sites"] != 4:
        raise ValueError(f"need M_sites = 4, got {params['M_sites']}: "
                         "the four externals fill the four site classes")
    # every smatrix tolerance scales with lam: lam = 0 would pass 0 against 0
    _require_positive(params, "lam", "T", "tau", "eps_i", "T2", "tau2", "eps_i2")
    _require_at_least(params, "sweep_points", 2, "the slice-width extrapolation")
    yield from (_run_smatrix_order1 if order == 1 else _run_smatrix_order2)(params)


# ---------------------------------------------------------------------------
# fermion experiments


def run_dirac_propagator(params: dict) -> Iterator[dict]:
    _require_at_least(params, "sweep_points", 2, "the order ratio")
    m, eps_i = params["mass"], params["eps_i"]
    p_rest = (params["p0_rest"], 0.0, 0.0, 0.0)
    tau0 = params["tau"]
    prop = fermions.dirac_mode_propagator(p_rest, m, tau0, eps_i)
    m_c = cmath.sqrt(m * m - 1j * eps_i)  # the oracle's own, not fermions.regulated_mass
    g0 = fermions.GAMMA[0]
    diag = [-1.0 / np.expm1(1j * tau0 * (p_rest[0] - m_c))] * 2
    diag += [-1.0 / np.expm1(1j * tau0 * (p_rest[0] + m_c))] * 2
    rest_closed = np.diag(diag) @ g0
    yield _case(
        "rest_frame[entrywise]", {"p0": p_rest[0], "tau": tau0},
        np.max(np.abs(prop - rest_closed)), 0.0, params["tol_rest"],
    )

    p = tuple(params["p_moving"])
    taus = [tau0 / 2**k for k in range(params["sweep_points"])]
    # the slab first: it refuses an out-of-range momentum before the oracle's arithmetic
    vals = [tau * fermions.dirac_mode_propagator(p, m, tau, eps_i) for tau in taus]
    limit = fermions.dirac_propagator_limit(p, m, eps_i)
    scale = float(np.max(np.abs(limit)))
    errs = [float(np.max(np.abs(val - limit))) for val in vals]
    for tau, err in zip(taus, errs):
        yield _case(
            f"limit[tau={tau:.6f}]", {"tau": tau, "p": list(p)},
            err / scale, 0.0, params["tol_limit"],
        )
    for k in range(len(taus) - 1):
        yield _case(
            f"order_ratio[step={k}]", {"tau": taus[k]},
            errs[k + 1] / errs[k], 0.5, params["tol_order"],
        )


def run_fswap_cycle(params: dict) -> Iterator[dict]:
    """Each leg's conjugation by the cycle, and its commutation with parity.

    Runs on the numpy signed maps of `fermions`.  U = (perm, u) is a
    signed permutation, so U c U^T only relabels c's entries, (r, k, s)
    -> (perm[r], perm[k], u[r] s u[k]), and a leg costs O(D).  The target
    ladder is built by its own index arithmetic and the sign comes from
    the closed law of cycle_signs, neither read off U, so a wrong U fails
    a case.  The error is the largest entrywise deviation from sign *
    target: both sides hold at most one entry per column, and where their
    rows differ each side's entry counts in full.
    """
    layout = fermions.FermionLayout(params["N"], params["M"])
    perm, u = fermions.cycle_matrix(layout)
    signs = fermions.cycle_signs(layout)
    L, dim = layout.legs, layout.dim
    ladders = [fermions.jw_ladder(layout, leg) for leg in range(L)]
    for leg in range(L):
        target = (leg + layout.M) % L if layout.N > 1 else leg
        (rows, cols, vals), (t_rows, t_cols, t_vals) = ladders[leg], ladders[target]
        row_of, val_of = np.full((2, dim), -1), np.zeros((2, dim))  # (moved, target) by column
        row_of[0, perm[cols]], val_of[0, perm[cols]] = perm[rows], u[rows] * vals * u[cols]
        row_of[1, t_cols], val_of[1, t_cols] = t_rows, signs[leg] * t_vals
        dev = np.where(row_of[0] == row_of[1], np.abs(val_of[0] - val_of[1]),
                       np.abs(val_of).max(axis=0))
        yield _case(
            f"conjugation[leg={leg}]", {"leg": leg, "target": target, "sign": signs[leg]},
            dev.max(), 0.0, params["tol"],
        )
    # U P - P U has column c equal to u[c] (P[c] - P[perm[c]]) e_{perm[c]}
    P = fermions.parity_matrix(layout)
    yield _case(
        "parity_commutes", {"N": layout.N, "M": layout.M},
        np.max(np.abs(u * (P - P[perm]))), 0.0, params["tol"],
    )
    if layout.N == 2 and layout.M == 1:
        U = fermions.fermionic_cycle(layout)[0]
        yield _case("equals_fswap", {}, np.max(np.abs(U.mat - fermions.fswap().mat)), 0.0, 0.0)


# ---------------------------------------------------------------------------
# registry

DEFAULTS: dict[str, dict] = {
    "paw-conditioning": {
        "cases": 50, "d_min": 2, "d_max": 4, "n_max_slices": 6, "eps": 0.3,
        "seed": 20260816, "tol": 1e-12,
    },
    "trace-theorem": {
        "cases": 50, "dims": (2, 3), "n_max_slices": 5, "max_inserts": 3,
        "eps": 0.41, "seed": 20260816, "tol": 1e-10,
    },
    "constraint-theorem": {
        "cases": 50, "dims": (2, 3), "n_max_slices": 5, "eps": 0.37,
        "seed": 20260816, "tol": 1e-10,
    },
    "st-state-marginals": {
        "cases": 10, "dims": (2, 3), "n_max_slices": 4, "k_max": 6, "eps": 0.29,
        "seed": 20260816, "tol": 1e-12, "tol_trace": 1e-10,
    },
    "causality-witness": {
        "cases": 25, "dims": (2, 3), "n_max_slices": 4, "eps": 0.33,
        "seed": 20260816, "tol": 1e-10,
    },
    "pseudo-entropy": {
        "cases": 10, "dims": (2, 3), "n_max_slices": 4, "k_max": 6, "eps": 0.31,
        "seed": 20260816, "tol": 1e-10,
    },
    "anomaly-scan": {
        "T": 4.0, "energy": 1.5, "slice_counts": (8, 12, 16, 24, 32),
        "seed": 20260816, "tol_normal": 1e-9, "tol_ratio": 1e-12,
    },
    "dirac-nogo": {
        "T": 7.0, "mass": 1.0, "seed": 20260816, "tol": 1e-12,
    },
    "propagator": {
        "n_mode": 2, "gap": 0.8, "eps_i": 0.05, "tau": 0.02, "sweep_points": 4,
        "T": 100.0, "tau_grid": 0.05, "eps_i_grid": 0.07,
        "grid_energies": (1.0, 1.7), "ed_slices": (0, 1, 2, 3), "ed_n_max": 4,
        "seed": 20260816, "tol_limit": 0.05, "tol_order": 0.05, "tol_ed": 0.02,
    },
    "smatrix": {
        "order": 1, "M_sites": 4, "lam": 0.3,
        "seed": 20260816,
        # first order: short window, tau sweep, exact-zero probes
        "T": 60.0, "n_a": 2, "n_b": 5, "eps_i": 0.05, "tau": 0.05,
        "sweep_points": 3, "tol_volume": 0.01, "tol_tdpt": 0.02,
        # second order: long window so the periodic-window boundary term
        # 1/(2 eps_i T) stays well inside the pair-channel tolerance
        "T2": 1500.0, "n_a2": 50, "n_b2": 125, "eps_i2": 0.02, "tau2": 0.1,
        "tol_pair": 0.05, "tol_stability": 0.005,
    },
    "dirac-propagator": {
        "mass": 1.0, "eps_i": 1e-3, "p0_rest": 0.35,
        "p_moving": (0.9, 0.3, -0.2, 0.1), "tau": 0.01, "sweep_points": 4,
        "seed": 20260816, "tol_rest": 1e-12, "tol_limit": 0.05, "tol_order": 0.05,
    },
    "fswap-cycle": {
        "N": 3, "M": 2, "seed": 20260816, "tol": 1e-12,
    },
}

RUNNERS: dict[str, Callable[[dict], Iterator[dict]]] = {
    "paw-conditioning": run_paw_conditioning,
    "trace-theorem": run_trace_theorem,
    "constraint-theorem": run_constraint_theorem,
    "st-state-marginals": run_st_state_marginals,
    "causality-witness": run_causality_witness,
    "pseudo-entropy": run_pseudo_entropy,
    "anomaly-scan": run_anomaly_scan,
    "dirac-nogo": run_dirac_nogo,
    "propagator": run_propagator,
    "smatrix": run_smatrix,
    "dirac-propagator": run_dirac_propagator,
    "fswap-cycle": run_fswap_cycle,
}


def _conforms(value, default) -> bool:
    """Whether value has the type of the DEFAULTS entry it overrides."""
    if isinstance(default, bool):
        return type(value) is bool
    if isinstance(default, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, tuple) and all(_conforms(v, default[0]) for v in value)


def _as_float(key: str, value) -> float:
    """value as a finite float; an int beyond the float range is not finite."""
    try:
        real = float(value)
    except OverflowError:
        real = math.inf
    if not math.isfinite(real):
        raise ValueError(f"parameter {key!r} must be finite, got {value!r}")
    return real


def _check_params(name: str, params: dict) -> dict:
    """Reject overrides that would be ignored or would make a vacuous verdict.

    Every key must be one of the experiment's DEFAULTS keys, with the
    same type (a tuple takes the type of its first default element, and
    needs at least one entry); real numbers must be finite, tolerances
    (keys starting with "tol") nonnegative, "cases" at least 1 and
    "seed" in [0, 2^64).  Returns
    the overrides with an int given for a real key made a float, so
    `tol = 1` and `tol = 1.0` give the same report.
    """
    defaults = DEFAULTS[name]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        msg = f"unknown parameter {', '.join(map(repr, unknown))} for experiment {name!r}"
        if any(key.startswith("tol") for key in unknown):
            tols = ", ".join(key for key in defaults if key.startswith("tol"))
            msg += f"; its tolerance keys are {tols}"
        raise ValueError(msg)
    checked = {}
    for key, value in params.items():
        default = defaults[key]
        if not _conforms(value, default):
            raise ValueError(
                f"parameter {key!r} of {name!r} must look like {default!r}, got {value!r}"
            )
        if isinstance(default, tuple) and not value:
            raise ValueError(f"parameter {key!r} of {name!r} needs at least one entry")
        if isinstance(default, float):
            value = _as_float(key, value)
        elif isinstance(default, tuple) and isinstance(default[0], float):
            value = tuple(_as_float(key, v) for v in value)
        checked[key] = value
        if key.startswith("tol") and value < 0:
            raise ValueError(f"tolerance {key!r} must be nonnegative, got {value!r}")
    if params.get("cases", 1) < 1:
        raise ValueError(f"need cases >= 1, got {params['cases']}")
    if not 0 <= params.get("seed", 0) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return checked


def run_experiment(name: str, params: dict | None = None) -> dict:
    """Execute a registered experiment with defaults overlaid by params.

    Collects the runner's cases sorted by key and sums them up.  Raises
    ValueError for a parameter the experiment does not have, of the
    wrong type or out of range, for a run that yields no cases, and for
    one that names a case twice (a repeated override entry).
    """
    if name not in RUNNERS:
        raise KeyError(f"unknown experiment {name!r}")
    merged = {**DEFAULTS[name], **_check_params(name, params or {})}
    cases = sorted(RUNNERS[name](merged), key=lambda c: c["case"])
    if not cases:
        raise ValueError(f"{name} with these parameters yields no cases")
    for a, b in zip(cases, cases[1:]):
        if a["case"] == b["case"]:
            raise ValueError(f"{name} with these parameters names case {a['case']!r} twice")
    failures = sum(not c["pass"] for c in cases)
    return {
        "cases": cases,
        "summary": {
            "cases": len(cases),
            "failures": failures,
            "max_abs_err": max(c["abs_err"] for c in cases),
            "all_pass": failures == 0,
        },
        "params": merged,
    }
