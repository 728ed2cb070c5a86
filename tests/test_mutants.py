"""Faults that a default CLI verdict must catch.

Each mutant wraps one function of a package module or one method of
its classes (a monkeypatch, no source rewriting) and names the run whose
verdict must then turn from exit code 0 into exit code 1.  A mutant that
no default run can tell from the original is listed in EQUIVALENT with
the reason.
"""

import numpy as np
import pytest

from sqmlab import fermions, fock, gaussian, grids, spacetime, timeslab
from sqmlab.cli import main
from sqmlab.linalg import Operator

# name -> (module, function, wrapper making the faulty version, CLI run)
MUTANTS = {
    # the Dirac oracles form m^2 - i eps_i themselves, so a wrong slab mass shows
    "regulated_mass conjugated": (
        fermions, "regulated_mass",
        lambda f: lambda m, eps_i: f(m, eps_i).conjugate(),
        ["dirac-propagator"],
    ),
    # the two sides of the doubling ratio agree to ~1e-15, and tol_ratio is 1e-12
    "predicted_mismatch_ratio x 1.01": (
        fock, "predicted_mismatch_ratio",
        lambda f: lambda N: 1.01 * f(N),
        ["anomaly-scan"],
    ),
    # feynman_propagator_grid reads the line that order 2 sums, and ED is its oracle
    "line table conjugated": (
        gaussian, "line_table",
        lambda f: lambda *args: f(*args).conj(),
        ["propagator"],
    ),
    # propagator reads one kernel row per time difference; a row one slice
    # late is the next dt's value (smatrix --order 2 reads no kernel row: its
    # slice sums are closed forms)
    "kernel read one slice late": (
        gaussian, "feynman_kernel_closed",
        lambda f: lambda N, tau, eps_i, E, dt: f(N, tau, eps_i, E, np.asarray(dt) + 1),
        ["propagator"],
    ),
    # every power of e^z one step late: each kernel row propagator reads
    # against ED is w times its value
    "power one step late": (
        gaussian, "_exp_powers",
        lambda f: lambda z, k, N: f(z, k, N) * np.exp(np.asarray(z)[..., None]),
        ["propagator"],
    ),
    # the order-2 slice sums without their external slice phase: the
    # resonance of each pair-channel class, where the phase cancels the
    # kernels' own, is lost
    "slice phase dropped": (
        gaussian, "kernel_product_sums",
        lambda f: lambda N, tau, eps_i, energies, n: f(N, tau, eps_i, energies, 0 * n),
        ["smatrix", "--order", "2"],
    ),
    # each geometric series of the order-2 slice sums read at -Y: the
    # resonant one grows like e^{2 e_i T} where it decays
    "geometric series at -Y": (
        gaussian, "_geometric_sums",
        lambda f: lambda Y, N: f(-Y, N),
        ["smatrix", "--order", "2"],
    ),
    # the block of a fused slice group holding an insertion comes out slice-reversed
    "group kron with its factors swapped": (
        timeslab, "_block_kron",
        lambda f: lambda A, B: f(B, A),
        ["trace-theorem"],
    ),
    # trace-theorem reads E only through diagonal, whose rows are the
    # columns cycled by C: uncycled, it sums the diagonal of the kron alone
    "diagonal read at uncycled rows": (
        timeslab, "_cycle_rows",
        lambda f: lambda layout, M: M,
        ["trace-theorem"],
    ),
    # the constraint's shifted half takes E's kron entries against its
    # matmul apply: conjugated column blocks break that vdot and the trace
    "E's column blocks conjugated": (
        timeslab.QuantumAction, "_column_blocks",
        lambda f: lambda self, factors, width: (
            (cols, block.conj()) for cols, block in f(self, factors, width)),
        ["constraint-theorem"],
    ),
    # the constraint's unshifted half is the diagonal sum of E·X·embed(B, 0);
    # the shifted half reads E's column blocks, so the two no longer cancel
    "diagonal x (1 + 1e-6)": (
        timeslab.QuantumAction, "diagonal",
        lambda f: lambda self, factors: (1 + 1e-6) * f(self, factors),
        ["constraint-theorem"],
    ),
    # the constraint's shifted half meets E's kron entries with the factors
    # applied to E·X's rows: conjugated, they apply E's complex conjugate
    "Kronecker apply with conjugated factors": (
        timeslab, "_kron_apply",
        lambda f: lambda factors, M: f([F.conj() for F in factors], M),
        ["constraint-theorem"],
    ),
    # each step of the trace-power chain is S·T through S's Kronecker
    # factors: conjugated, S becomes its conjugate beyond the first power
    "Kronecker apply with conjugated factors in the trace powers": (
        spacetime, "_kron_apply",
        lambda f: lambda factors, M: f([F.conj() for F in factors], M),
        ["pseudo-entropy"],
    ),
    # Tr R^k sums (S^a)_ij (S^b)_ji; the untransposed sum of (S^a)_ij (S^b)_ij misses 1
    "trace of product without its transpose": (
        spacetime, "_trace_of_product",
        lambda f: lambda A, B: f(A, B.T),
        ["st-state-marginals"],
    ),
    # S's first Kronecker factor is the first head group's block times
    # |psi0> ⊗ I: psi0 contracted with its first column slice, the slice
    # that R's row slice 0 carries to; folded onto the block's last column
    # slice instead, every step moves, and with it Tr R^k for k >= 3 on the
    # states whose first head group holds two slices or more
    "psi0 folded onto the last axis": (
        spacetime, "_step_factors",
        lambda f: lambda blocks, psi0, omega: f(
            [_last_column_slice_first(blocks[0], len(psi0)), *blocks[1:]], psi0, omega),
        ["st-state-marginals"],
    ),
    # S's last Kronecker factor is the last head group's block with <omega|,
    # the stored bra, not its conjugate, contracted into its last row slice
    "omega conjugated": (
        spacetime, "_step_factors",
        lambda f: lambda blocks, psi0, omega: f(blocks, psi0, omega.conj()),
        ["pseudo-entropy"],
    ),
    # R's rows lie on psi0 in slice 0, so S = F·R·G, the start of every
    # trace power, contracts psi0 with R's column slice 0; the last column
    # slice is another slice
    "psi0 paired with the partner's last column slice": (
        spacetime, "_compress",
        lambda f: lambda st, M: f(st, _last_column_slice_first(M, st.action.layout.d)),
        ["st-state-marginals"],
    ),
    # the bra of S = F·R·G on row slice 0 is <psi0|: psi0 in place of psi0*
    # on the row contraction, as psi0 = (psi0 / psi0*) psi0* entrywise
    "bra of S left unconjugated": (
        spacetime, "_compress",
        lambda f: lambda st, M: f(st, _row_slice_0_scaled(M, st.psi0.vec / st.psi0.vec.conj())),
        ["pseudo-entropy"],
    ),
    # R's columns lie on <omega| in slice N-1, so F contracts R's row slice
    # N-1 with <omega|, the stored bra; conjugated there, as omega* =
    # (omega* / omega) omega entrywise, S moves at every N >= 2
    "omega conjugated on the compression's row side": (
        spacetime, "_compress",
        lambda f: lambda st, M: f(st, _last_row_slice_scaled(M, st.omega.conj() / st.omega)),
        ["st-state-marginals"],
    ),
    # every read of R onto cells goes through one reduction; its transpose
    # flips the sign of the witness's antihermitian part against the oracle
    "reduction of R transposed": (
        spacetime, "_reduce",
        lambda f: lambda st, cells: Operator(f(st, cells).mat.T),
        ["causality-witness"],
    ),
    # the Bose law 1/(e^lam - 1) feeds tau_mode_correlator, whose tau -> 0 limit
    # and halving ratio propagator checks against i/(gap + i eps_i)
    "Bose pair law x 1.01": (
        gaussian, "_mode_corr",
        lambda f: lambda *args: 1.01 * f(*args),
        ["propagator"],
    ),
    # the same law gives the external-leg constants C+- of smatrix, whose
    # order-1 amplitude is checked against -i lambda V_lattice
    "Bose pair law x 1.01 on the legs": (
        gaussian, "_mode_corr",
        lambda f: lambda *args: 1.01 * f(*args),
        ["smatrix"],
    ),
    # the closed-form pair law [I - e^{i tau K}]^{-1} gives the mode propagator
    # pair @ g0, checked against its tau -> 0 limit; g0 squares to I, so
    # (f @ g0).T @ g0 is the propagator of the transposed pair law
    "Fermi pair law transposed": (
        fermions, "dirac_mode_propagator",
        lambda f: lambda *args: (f(*args) @ fermions.GAMMA[0]).T @ fermions.GAMMA[0],
        ["dirac-propagator"],
    ),
    # dirac-nogo's oracle reads which modes the runner pinned on shell, not the
    # classifier, so brackets kept canonical on the off-shell modes 2 and 3 show
    "on-shell test always true": (
        grids.ModeGrid, "on_shell",
        lambda f: lambda self, k: True,
        ["dirac-nogo"],
    ),
    # anomaly-scan compares the dense engine's a a† probe with the sector engine's
    "dense creation without its sqrt(n+1) factors": (
        fock.DenseFock, "create",
        lambda f: _bare_create,
        ["anomaly-scan"],
    ),
}

_ON_LEG_0 = "every anomaly probe acts on the mode (t, p) = (0, 0), which is leg 0"

# name -> (as in MUTANTS, then why no default verdict can catch it)
EQUIVALENT = {
    f"dense {attr} forced onto leg 0": (
        fock.DenseFock, attr,
        lambda f: lambda self, leg, v: f(self, 0, v),
        ["anomaly-scan"], _ON_LEG_0,
    )
    for attr in ("create", "annihilate")
}


def _last_column_slice_first(M, d):
    """M with its last column slice axis moved to the first place."""
    m = len(M)
    return M.reshape(m, -1, d).transpose(0, 2, 1).reshape(m, -1)


def _row_slice_0_scaled(M, v):
    """(diag(v) ⊗ I)·M: row slice 0 of M scaled entry by entry by v."""
    return (v[:, None, None] * M.reshape(len(v), -1, M.shape[1])).reshape(M.shape)


def _last_row_slice_scaled(M, v):
    """(I ⊗ diag(v))·M: the last row slice of M scaled entry by entry by v."""
    return (v[:, None] * M.reshape(-1, len(v), M.shape[1])).reshape(M.shape)


def _bare_create(self, leg, v):
    """a†(leg) as a plain occupation shift, without its sqrt(n+1) factors."""
    psi = v.reshape(self.levels**leg, self.levels, -1)
    out = np.zeros_like(psi)
    out[:, 1:] = psi[:, :-1]
    return out.reshape(-1)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_a_default_verdict(name, monkeypatch, tmp_path, capsys):
    module, attr, mutate, argv = MUTANTS[name]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(EQUIVALENT))
def test_equivalent_mutant_leaves_the_report(name, monkeypatch, tmp_path, capsys):
    module, attr, mutate, argv, _why = EQUIVALENT[name]
    assert main([*argv, "--out", str(tmp_path / "original")]) == 0
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    assert main([*argv, "--out", str(tmp_path / "mutant")]) == 0
    report = f"{argv[0]}.json"
    assert (tmp_path / "mutant" / report).read_bytes() == (tmp_path / "original" / report).read_bytes()
