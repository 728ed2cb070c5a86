"""Tests for the gamma algebra, Jordan-Wigner lattice, fermionic cycle,
the Gaussian pair law against the dense parity-weighted traces of
tests/dense_refs.py, and the matrix-valued mode propagator."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from dense_refs import parity_pair_correlator, parity_weighted_trace, quadratic_action
from sqmlab.fermions import (
    FERMION_DIM_CAP,
    GAMMA,
    METRIC,
    FermionLayout,
    cycle_matrix,
    cycle_signs,
    dirac_mode_propagator,
    dirac_propagator_limit,
    fermionic_cycle,
    fswap,
    jw_annihilator,
    jw_ladder,
    parity_operator,
    regulated_mass,
    slash,
)
from sqmlab import experiments, fermions
from sqmlab.linalg import Operator, SingularMatrixError

EYE4 = np.eye(4)


# ---------------------------------------------------------------------------
# gamma algebra


def test_clifford_relations_exact():
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            assert np.max(np.abs(anti - 2.0 * METRIC[mu, nu] * EYE4)) <= 1e-14
    with pytest.raises(ValueError, match="read-only"):
        GAMMA[0][0, 0] = 2.0


def test_gamma_traces():
    for mu in range(4):
        assert np.trace(GAMMA[mu]) == 0.0
        for nu in range(4):
            tr = np.trace(GAMMA[mu] @ GAMMA[nu])
            assert tr == pytest.approx(4.0 * METRIC[mu, nu], abs=1e-14)


def test_slash_conventions():
    assert np.array_equal(slash((1.0, 0.0, 0.0, 0.0)), GAMMA[0])
    # lowering a spatial index flips its sign in the (+,-,-,-) signature
    assert np.array_equal(slash((0.0, 1.0, 0.0, 0.0)), -GAMMA[1])
    p = (0.9, 0.3, -0.2, 0.1)
    sq = slash(p) @ slash(p)
    p_sq = p[0] ** 2 - p[1] ** 2 - p[2] ** 2 - p[3] ** 2
    assert np.allclose(sq, p_sq * EYE4, atol=1e-14)
    with pytest.raises(ValueError):
        slash((1.0, 0.0))


# ---------------------------------------------------------------------------
# fswap and the Jordan-Wigner layout


def test_fswap_matrix_entries():
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    F = fswap()
    assert isinstance(F, Operator)
    assert np.array_equal(F.mat, expected)
    # squares to the fermionic double exchange, not the identity
    assert np.array_equal(F.mat @ F.mat, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_fswap_conjugation_is_gaussian():
    layout = FermionLayout(2, 1)
    F = fswap().mat
    c0 = jw_annihilator(layout, 0, 0).mat
    c1 = jw_annihilator(layout, 1, 0).mat
    assert np.array_equal(F @ c0 @ F.conj().T, c1)
    assert np.array_equal(F @ c1 @ F.conj().T, -c0)


def test_layout_legs_and_bounds():
    layout = FermionLayout(3, 2)
    assert layout.legs == 6
    assert layout.dim == 64
    assert layout.leg(0, 0) == 0
    assert layout.leg(2, 1) == 5
    with pytest.raises(ValueError):
        layout.leg(3, 0)
    with pytest.raises(ValueError):
        layout.leg(0, 2)


def test_layout_cap_and_validation():
    assert FermionLayout(12, 1).dim == FERMION_DIM_CAP
    with pytest.raises(ValueError, match="cap"):
        FermionLayout(13, 1)
    with pytest.raises(ValueError):
        FermionLayout(0, 1)


@pytest.mark.parametrize("leg", [-1, 2, 3])
def test_jw_ladder_refuses_a_leg_off_the_lattice(leg):
    with pytest.raises(ValueError, match=f"leg {leg} outside the 2 legs"):
        jw_ladder(FermionLayout(2, 1), leg)


def test_canonical_anticommutators():
    layout = FermionLayout(2, 2)
    eye = np.eye(layout.dim)
    cs = [jw_annihilator(layout, t, m).mat for t in range(2) for m in range(2)]
    for a, ca in enumerate(cs):
        for b, cb in enumerate(cs):
            acc = ca @ cb.conj().T + cb.conj().T @ ca
            assert np.array_equal(acc, (eye if a == b else 0.0 * eye))
            assert np.array_equal(ca @ cb + cb @ ca, 0.0 * eye)


def test_anticommutators_on_eight_legs():
    layout = FermionLayout(4, 2)
    eye = np.eye(layout.dim)
    c_first = jw_annihilator(layout, 0, 0).mat
    c_last = jw_annihilator(layout, 3, 1).mat
    assert np.array_equal(c_first @ c_last + c_last @ c_first, 0.0 * eye)
    assert np.array_equal(
        c_first @ c_first.conj().T + c_first.conj().T @ c_first, eye
    )
    assert np.array_equal(
        c_first @ c_last.conj().T + c_last.conj().T @ c_first, 0.0 * eye
    )


def test_parity_operator_grades_the_algebra():
    layout = FermionLayout(2, 2)
    P = parity_operator(layout).mat
    assert np.array_equal(P @ P, np.eye(layout.dim))
    assert np.array_equal(np.diag(P), [(-1) ** bin(i).count("1") for i in range(layout.dim)])
    for t in range(2):
        for m in range(2):
            c = jw_annihilator(layout, t, m).mat
            assert np.array_equal(P @ c @ P, -c)


# ---------------------------------------------------------------------------
# fermionic cyclic shift


def test_cycle_two_slices_is_fswap():
    layout = FermionLayout(2, 1)
    U, signs = fermionic_cycle(layout)
    assert signs == (1, -1)
    assert np.allclose(U.mat, fswap().mat, atol=1e-14)


def test_cycle_single_slice_is_identity():
    layout = FermionLayout(1, 3)
    U, signs = fermionic_cycle(layout)
    assert signs == (1, 1, 1)
    assert np.array_equal(U.mat, np.eye(layout.dim))


def test_cycle_three_slices():
    layout = FermionLayout(3, 1)
    U, signs = fermionic_cycle(layout)
    assert signs == (1, 1, 1)
    P = parity_operator(layout).mat
    assert np.allclose(U.mat @ P - P @ U.mat, 0.0, atol=1e-14)
    # third power closes with sign +1 on both parity sectors
    U3 = U.mat @ U.mat @ U.mat
    assert np.allclose(U3, np.eye(layout.dim), atol=1e-12)


def test_cycle_two_slices_two_modes():
    layout = FermionLayout(2, 2)
    U, signs = fermionic_cycle(layout)
    assert signs == (1, 1, -1, -1)
    # unitary, commutes with parity
    assert np.allclose(U.mat @ U.mat.conj().T, np.eye(layout.dim), atol=1e-13)
    P = parity_operator(layout).mat
    assert np.allclose(U.mat @ P, P @ U.mat, atol=1e-13)


def test_cycle_conjugation_moves_every_leg():
    layout = FermionLayout(3, 2)
    U, signs = fermionic_cycle(layout)
    L = layout.legs
    for t in range(3):
        for m in range(2):
            leg = layout.leg(t, m)
            c = jw_annihilator(layout, t, m).mat
            target = jw_annihilator(layout, (t + 1) % 3, m).mat
            moved = U.mat @ c @ U.mat.conj().T
            err = np.max(np.abs(moved - signs[leg] * target))
            assert err <= 1e-12


# ---------------------------------------------------------------------------
# parity-weighted Gaussian traces


def test_normalized_trace_without_insertions_is_one():
    layout = FermionLayout(2, 1)
    S = quadratic_action(layout, np.diag([0.7, -0.4]))
    assert parity_weighted_trace(layout, S, []) == pytest.approx(1.0, abs=1e-15)


def test_odd_insertion_traces_vanish():
    layout = FermionLayout(2, 1)
    S = quadratic_action(layout, np.array([[0.7, 0.2], [0.1, -0.4]]))
    for leg in ((0, 0), (1, 0)):
        c = jw_annihilator(layout, *leg)
        assert abs(parity_weighted_trace(layout, S, [c])) <= 1e-14


def test_pair_correlator_matches_dense_trace():
    layout = FermionLayout(2, 2)
    rng = np.random.default_rng(7)
    L = layout.legs
    A = 0.3 * (rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)))
    S = quadratic_action(layout, A)
    law = parity_pair_correlator(A)
    ladders = [
        jw_annihilator(layout, t, m) for t in range(2) for m in range(2)
    ]
    worst = 0.0
    for a in range(L):
        for b in range(L):
            dense = parity_weighted_trace(
                layout, S, [ladders[a], Operator(ladders[b].mat.conj().T)]
            )
            worst = max(worst, abs(dense - law[a, b]))
    assert worst <= 1e-10


def test_quadratic_action_shape_validation():
    layout = FermionLayout(2, 1)
    with pytest.raises(ValueError, match="2x2"):
        quadratic_action(layout, np.eye(3))


def test_trace_space_validation():
    layout = FermionLayout(2, 1)
    other = FermionLayout(3, 1)
    S_other = quadratic_action(other, np.diag([0.3, 0.2, 0.1]))
    with pytest.raises(ValueError, match="wrong space"):
        parity_weighted_trace(layout, S_other, [])
    S = quadratic_action(layout, np.diag([0.3, 0.2]))
    with pytest.raises(ValueError, match="wrong space"):
        parity_weighted_trace(layout, S, [jw_annihilator(other, 0, 0)])


def test_vanishing_normalization_raises():
    layout = FermionLayout(1, 1)
    S = quadratic_action(layout, np.array([[0.0]]))
    with pytest.raises(ZeroDivisionError):
        parity_weighted_trace(layout, S, [])


def test_singular_gaussian_law_raises():
    with pytest.raises(SingularMatrixError):
        parity_pair_correlator(np.array([[0.0]]))


# ---------------------------------------------------------------------------
# Dirac mode propagator


def test_regulated_mass():
    assert regulated_mass(1.0, 0.0) == 1.0
    m_c = regulated_mass(1.0, 1e-3)
    assert m_c.imag < 0
    assert m_c**2 == pytest.approx(1.0 - 1e-3j, rel=1e-15)


def test_rest_frame_propagator_closed_form():
    p0, m, eps_i, tau = 0.35, 1.0, 1e-3, 0.01
    m_c = regulated_mass(m, eps_i)
    got = dirac_mode_propagator((p0, 0.0, 0.0, 0.0), m, tau, eps_i)
    upper = -1.0 / np.expm1(1j * tau * (p0 - m_c))
    lower = -1.0 / np.expm1(1j * tau * (p0 + m_c))
    expected = np.diag([upper, upper, lower, lower]) @ GAMMA[0]
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_limit_satisfies_dirac_equation():
    p = (0.9, 0.3, -0.2, 0.1)
    eps_i = 1e-3
    m_c = regulated_mass(1.0, eps_i)
    lim = dirac_propagator_limit(p, 1.0, eps_i)
    assert np.allclose((slash(p) - m_c * EYE4) @ lim, 1j * EYE4, atol=1e-13)


@pytest.mark.parametrize("p", [(0.35, 0.0, 0.0, 0.0), (0.9, 0.3, -0.2, 0.1)])
def test_propagator_linear_in_tau_toward_limit(p):
    m, eps_i = 1.0, 1e-3
    lim = dirac_propagator_limit(p, m, eps_i)
    errs = []
    for tau in (0.01, 0.005, 0.0025):
        val = tau * dirac_mode_propagator(p, m, tau, eps_i)
        errs.append(np.linalg.norm(val - lim))
    # first-order error: each halving of tau halves the deviation
    for e_big, e_small in zip(errs, errs[1:]):
        assert abs(e_small / e_big - 0.5) <= 0.05


def _mp_mode_propagator(p, m, tau, eps_i):
    """[I - e^{i tau g0 (p-slash - m_c)}]^{-1} g0 at 50 digits, through mpmath's expm."""
    with mp.workdps(50):
        g = [mp.matrix(G.tolist()) for G in GAMMA]
        m_c = mp.sqrt(mp.mpf(m) ** 2 - 1j * mp.mpf(eps_i))
        p_slash = g[0] * mp.mpf(p[0]) - sum((g[i] * mp.mpf(p[i]) for i in (1, 2, 3)), mp.zeros(4))
        K = g[0] * (p_slash - m_c * mp.eye(4))
        pair = (mp.eye(4) - mp.expm(1j * mp.mpf(tau) * K)) ** -1 * g[0]
        return np.array(pair.tolist(), dtype=complex)


def _propagator_draws():
    rng = np.random.default_rng(20260816)
    for _ in range(40):
        p = tuple(float(x) for x in rng.uniform(-2.0, 2.0, 4))
        m, tau, eps_i = rng.uniform(0.0, 2.0), 10 ** rng.uniform(-3.0, -0.5), 10 ** rng.uniform(-4.0, -1.0)
        yield p, m, tau, eps_i


PROPAGATOR_POINTS = [
    ((0.35, 0.0, 0.0, 0.0), 1.0, 0.01, 1e-3),
    *(((0.9, 0.3, -0.2, 0.1), 1.0, 0.01 / 2**k, 1e-3) for k in range(4)),
    *_propagator_draws(),
]


@pytest.mark.parametrize("p, m, tau, eps_i", PROPAGATOR_POINTS)
def test_mode_propagator_against_fifty_digits(p, m, tau, eps_i):
    # the rest frame, the moving frame at every default sweep tau, and seeded
    # draws: the closed-form exponential and inverse are within 2e-15 of the
    # largest entry
    ref = _mp_mode_propagator(p, m, tau, eps_i)
    got = dirac_mode_propagator(p, m, tau, eps_i)
    assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("p, m, tau, eps_i", PROPAGATOR_POINTS[:10])
def test_dirac_hamiltonian_squares_to_the_energy(p, m, tau, eps_i):
    # H_D = p0 I - g0 (p-slash - m_c) = alpha.p + beta m_c squares to
    # (|p|^2 + m_c^2) I, the identity the closed-form exponential rests on
    m_c = regulated_mass(m, eps_i)
    H_D = p[0] * EYE4 - GAMMA[0] @ (slash(p) - m_c * EYE4)
    E_sq = p[1] ** 2 + p[2] ** 2 + p[3] ** 2 + m_c**2
    assert np.max(np.abs(H_D @ H_D - E_sq * EYE4)) <= 1e-14 * abs(E_sq) + 1e-15


def test_propagator_argument_guards():
    with pytest.raises(ValueError):
        dirac_mode_propagator((0.35, 0.0, 0.0, 0.0), 1.0, 0.0, 1e-3)
    # exactly on shell with no regulator the pair matrix is singular
    with pytest.raises(SingularMatrixError,
                       match="on-shell momentum with vanishing regulator"):
        dirac_mode_propagator((1.0, 0.0, 0.0, 0.0), 1.0, 0.01, 0.0)


# ---------------------------------------------------------------------------
# index-map engines against dense kron-chain references


def _kron_chain_annihilator(layout, leg):
    """c_leg = Z^{⊗leg} ⊗ s- ⊗ I^{⊗rest} by an explicit kron chain."""
    minus = np.array([[0.0, 1.0], [0.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    out = np.array([[1.0]])
    for j in range(layout.legs):
        out = np.kron(out, z if j < leg else minus if j == leg else np.eye(2))
    return out


def _embedded_fswap(layout, j):
    """fSWAP on adjacent Jordan-Wigner legs (j, j+1), identity elsewhere."""
    out = np.array([[1.0]])
    pos = 0
    while pos < layout.legs:
        if pos == j:
            out = np.kron(out, fswap().mat.real)
            pos += 2
        else:
            out = np.kron(out, np.eye(2))
            pos += 1
    return out


def _dense_fswap_network_cycle(layout):
    """M repetitions of the dense product F(0,1) F(1,2) ... F(L-2, L-1)."""
    U = np.eye(layout.dim)
    if layout.N > 1:
        shift1 = np.eye(layout.dim)
        for j in range(layout.legs - 1):
            shift1 = shift1 @ _embedded_fswap(layout, j)
        for _ in range(layout.M):
            U = U @ shift1
    return U


CYCLE_LAYOUTS = [(N, M) for N in range(1, 7) for M in range(1, 7) if N * M <= 6]


@pytest.mark.parametrize("N, M", CYCLE_LAYOUTS)
def test_cycle_matches_dense_fswap_network(N, M):
    layout = FermionLayout(N, M)
    U, signs = fermionic_cycle(layout)
    dense = _dense_fswap_network_cycle(layout)
    assert np.array_equal(U.mat, dense)
    for leg in range(layout.legs):
        target = (leg + M) % layout.legs if N > 1 else leg
        moved = dense @ _kron_chain_annihilator(layout, leg) @ dense.T
        assert np.array_equal(moved, signs[leg] * _kron_chain_annihilator(layout, target))


def _by_column(rows, cols, vals):
    """A signed map's entries sorted by column, as one comparable array."""
    order = np.argsort(cols)
    return np.stack([cols[order], rows[order], vals[order]])


@pytest.mark.parametrize("N, M", [(N, M) for N in range(1, 13) for M in range(1, 13) if N * M <= 12])
def test_cycle_signs_follow_the_wraparound_law(N, M):
    # every layout the cap allows: the predicted signs carry each ladder,
    # conjugated by the fSWAP composition, onto its separately built target
    layout = FermionLayout(N, M)
    (perm, u), signs = cycle_matrix(layout), cycle_signs(layout)
    L = layout.legs
    for leg in range(L):
        target = (leg + M) % L if N > 1 else leg
        rows, cols, vals = jw_ladder(layout, leg)
        moved = _by_column(perm[rows], perm[cols], u[rows] * vals * u[cols])  # U c U^T
        t_rows, t_cols, t_vals = jw_ladder(layout, target)
        assert np.array_equal(moved, _by_column(t_rows, t_cols, signs[leg] * t_vals))


@pytest.mark.parametrize("view", ["cycle", "annihilator", "parity"])
def test_dense_views_keep_their_one_buffer(view):
    # each view's Operator keeps the one buffer its map was scattered into,
    # real and uncopied: a traced build at 10 legs (D = 1024, 8 MB) peaks near
    # one matrix
    layout = FermionLayout(5, 2)
    states = np.arange(layout.dim)
    build, signed_map = {
        "cycle": (lambda: fermionic_cycle(layout)[0],
                  lambda: (cycle_matrix(layout)[0], states, cycle_matrix(layout)[1])),
        "annihilator": (lambda: jw_annihilator(layout, 2, 1),
                        lambda: jw_ladder(layout, layout.leg(2, 1))),
        "parity": (lambda: parity_operator(layout),
                   lambda: (states, states, fermions.parity_matrix(layout))),
    }[view]
    tracemalloc.start()
    try:
        op = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.mat.dtype == np.float64 and op.mat.shape == (1024, 1024)
    expected = np.zeros((layout.dim, layout.dim))
    rows, cols, vals = signed_map()
    expected[rows, cols] = vals
    assert op.mat.tobytes() == expected.tobytes()
    assert peak <= 1.2 * op.mat.nbytes


@pytest.mark.parametrize("N, M", [(1, 2), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_fswap_experiment_matches_dense_products(N, M):
    params = dict(experiments.DEFAULTS["fswap-cycle"], N=N, M=M)
    report = experiments.run_experiment("fswap-cycle", params)
    layout = FermionLayout(N, M)
    U, signs = fermionic_cycle(layout)
    expected = {}
    for leg in range(layout.legs):
        target = (leg + M) % layout.legs if N > 1 else leg
        moved = U.mat @ _kron_chain_annihilator(layout, leg) @ U.mat.conj().T
        expected[f"conjugation[leg={leg}]"] = np.max(
            np.abs(moved - signs[leg] * _kron_chain_annihilator(layout, target)))
    P = parity_operator(layout).mat
    expected["parity_commutes"] = np.max(np.abs(U.mat @ P - P @ U.mat))
    got = {c["case"]: c["abs_err"] for c in report["cases"]}
    assert {k: got[k] for k in expected} == expected
    assert report["summary"]["all_pass"]


def test_fswap_experiment_fails_a_wrong_cycle(monkeypatch):
    build = fermions.cycle_matrix

    def bad_cycle(layout):
        perm, sign = build(layout)
        sign[1] *= -1.0  # one basis state picks up a wrong sign
        return perm, sign

    monkeypatch.setattr(fermions, "cycle_matrix", bad_cycle)
    params = dict(experiments.DEFAULTS["fswap-cycle"], N=3, M=2)
    report = experiments.run_experiment("fswap-cycle", params)
    failed = {c["case"] for c in report["cases"] if not c["pass"]}
    assert "conjugation[leg=0]" in failed


def test_fswap_experiment_fails_the_adjoint_fswap(monkeypatch):
    # fSWAP† carries the minus sign on |10> -> |01> instead of |01> -> |10>;
    # at three legs it flips the sign of legs 0 and 1, which a sign read off
    # the cycle would absorb and the predicted one does not
    fswap_map = fermions._fswap_map

    def adjoint(layout, j):
        perm, sign = fswap_map(layout, j)
        return perm, sign[perm]  # perm is an involution: the transpose

    monkeypatch.setattr(fermions, "_fswap_map", adjoint)
    params = dict(experiments.DEFAULTS["fswap-cycle"], N=3, M=1)
    report = experiments.run_experiment("fswap-cycle", params)
    failed = {c["case"] for c in report["cases"] if not c["pass"]}
    assert failed == {"conjugation[leg=0]", "conjugation[leg=1]"}


@pytest.mark.parametrize("N, M", CYCLE_LAYOUTS)
def test_annihilator_matches_kron_chain(N, M):
    layout = FermionLayout(N, M)
    for t in range(N):
        for m in range(M):
            expected = _kron_chain_annihilator(layout, layout.leg(t, m))
            assert np.array_equal(jw_annihilator(layout, t, m).mat, expected)
