"""Fermionic sector: gamma algebra, Jordan-Wigner time-slice lattice,
the fermionic cyclic shift, parity-weighted Gaussian traces, and the
matrix-valued mode propagator.

Fermions admit no tensor-product factorization across time slices — the
antisymmetric algebra is global — so the cyclic time shift is not a
permutation of kron factors but a network of fSWAP gates, and the
normalized trace needs the parity operator inserted:

    <...> = Tr[P e^{i S_f} ...] / Tr[P e^{i S_f}],   P = (-1)^{N_f}.

For a quadratic action S_f = sum_ab A_ab c†_a c_b the pair correlator
has the closed Gaussian form <c_a c†_b> = [(I - e^{iA})^{-1}]_ab, the
fermionic counterpart of the bosonic 1/(e^lambda - 1) pair value; per
momentum the Dirac action block A_p = tau g0 (p-slash - m) turns that
law into the matrix-valued mode propagator [I - e^{i tau g0(p-slash -
m)}]^{-1} g0, whose tau -> 0 limit is i(p-slash + m)/(p^2 - m^2 + i e)
per unit tau.

Conventions fixed here: Dirac representation with signature (+,-,-,-);
Jordan-Wigner ordering slice-major (leg = t*M + m), string over lower
legs; mode annihilator maps |1> to |0>.  Dense spaces are capped at
2**12 states.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .linalg import Operator, SingularMatrixError, inv

FERMION_DIM_CAP = 4096  # 2**12

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class GammaSet:
    """The four Dirac-representation gamma matrices, signature (+,-,-,-)."""

    matrices: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def gamma(self, mu: int) -> np.ndarray:
        return self.matrices[mu]

    def slash(self, p: Sequence[complex]) -> np.ndarray:
        """gamma^mu p_mu for a contravariant 4-vector (p0, p1, p2, p3)."""
        p = np.asarray(p, dtype=complex)
        if p.shape != (4,):
            raise ValueError("slash needs a 4-vector (p0, p1, p2, p3)")
        out = p[0] * self.matrices[0]
        for i in (1, 2, 3):
            out = out - p[i] * self.matrices[i]
        return out


def gamma_set() -> GammaSet:
    """Dirac representation: g0 = diag(I, -I), g^i = [[0, s_i], [-s_i, 0]]."""
    eye2 = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    g0 = np.block([[eye2, zero], [zero, -eye2]])
    gs = tuple(
        np.block([[zero, s], [-s, zero]]) for s in _PAULI
    )
    return GammaSet((g0, *gs))


def fswap() -> Operator:
    """The fermionic exchange unitary on two adjacent modes.

    Basis |n0 n1> with index 2*n0 + n1.  Equals SWAP except for the
    minus sign on one exchange amplitude (|01> -> -|10>, |10> -> |01>);
    it is Gaussian: conjugation maps c0 -> c1 and c1 -> -c0, staying
    inside the linear span of mode operators.
    """
    mat = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return Operator(mat, (2, 2))


@dataclass(frozen=True)
class FermionLayout:
    """N time slices x M fermionic modes under a global Jordan-Wigner chain.

    Leg order is slice-major: leg(t, m) = t*M + m; the Jordan-Wigner
    string of a leg covers all lower legs.  The dense space has 2^(N*M)
    states, capped at 2**12.
    """

    N: int
    M: int

    def __post_init__(self):
        if self.N < 1 or self.M < 1:
            raise ValueError("need N >= 1 and M >= 1")
        if self.dim > FERMION_DIM_CAP:
            raise ValueError(
                f"dense fermionic space of dim 2**{self.legs} exceeds cap {FERMION_DIM_CAP}"
            )

    @property
    def legs(self) -> int:
        return self.N * self.M

    @property
    def dim(self) -> int:
        return 2**self.legs

    @property
    def leg_dims(self) -> tuple[int, ...]:
        return (2,) * self.legs

    def leg(self, t: int, m: int) -> int:
        if not (0 <= t < self.N and 0 <= m < self.M):
            raise ValueError(f"mode (t={t}, m={m}) outside the {self.N}x{self.M} lattice")
        return t * self.M + m


def _jw_map(layout: FermionLayout, leg: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c_leg = Z^{⊗leg} ⊗ s- ⊗ I^{⊗rest} as a signed partial permutation.

    Returns (rows, cols, signs): basis column cols[i] (leg occupied) goes
    to row rows[i] (leg emptied) with the string sign (-1)^{occupation
    of the lower legs}; every other column is annihilated.  Leg 0 is the
    slowest-varying bit of the basis index.
    """
    L = layout.legs
    states = np.arange(layout.dim)
    bit = 1 << (L - 1 - leg)
    cols = states[(states & bit) != 0]
    parity = np.zeros(cols.shape, dtype=np.int64)
    for lower in range(leg):
        parity ^= (cols >> (L - 1 - lower)) & 1
    return cols ^ bit, cols, 1.0 - 2.0 * parity


def _jw_matrix(layout: FermionLayout, leg: int) -> np.ndarray:
    """Annihilator c_leg as a dense matrix, scattered from its index map."""
    rows, cols, signs = _jw_map(layout, leg)
    out = np.zeros((layout.dim, layout.dim))
    out[rows, cols] = signs
    return out


def jw_annihilator(layout: FermionLayout, t: int, m: int) -> Operator:
    """Dense c(t, m) with the Jordan-Wigner string over lower legs."""
    return Operator(_jw_matrix(layout, layout.leg(t, m)), layout.leg_dims)


def parity_operator(layout: FermionLayout) -> Operator:
    """(-1)^{N_f}: diagonal, -1 on odd-occupation basis states."""
    idx = np.arange(layout.dim)
    pops = sum((idx >> b) & 1 for b in range(layout.legs))
    return Operator(np.diag((-1.0) ** pops), layout.leg_dims)


# A signed permutation U is kept as (perm, sign): column c of U is
# sign[c] times basis vector perm[c].


def _compose(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]):
    """The signed permutation a · b."""
    (perm_a, sign_a), (perm_b, sign_b) = a, b
    return perm_a[perm_b], sign_a[perm_b] * sign_b


def _fswap_map(layout: FermionLayout, j: int) -> tuple[np.ndarray, np.ndarray]:
    """fSWAP on adjacent legs (j, j+1) as a signed permutation.

    Adjacency makes the Jordan-Wigner strings cancel, so the two-qubit
    gate IS the mode-space exchange: |01> -> -|10>, |10> -> |01>.
    """
    L = layout.legs
    states = np.arange(layout.dim)
    hi, lo = 1 << (L - 1 - j), 1 << (L - 2 - j)
    n0, n1 = (states & hi) != 0, (states & lo) != 0
    perm = np.where(n0 != n1, states ^ (hi | lo), states)
    return perm, np.where(n1 & ~n0, -1.0, 1.0)


def fermionic_cycle(layout: FermionLayout) -> tuple[Operator, tuple[int, ...]]:
    """Unitary advancing every slice by one step, with its measured signs.

    Built as M repetitions of a single-position shift, itself the
    adjacent-fSWAP network F(0,1) F(1,2) ... F(L-2, L-1), composed as
    signed permutations in O(M·L·2^L).  Conjugation maps c(t, m) to
    sign * c(t+1 mod N, m); the per-leg signs are measured by
    conjugating each ladder's index map with the cycle, sorting it by
    column and comparing it with the target ladder's own index map,
    up to an overall sign (the wraparound legs pick up the
    Jordan-Wigner boundary sign, interior legs stay +1), and returned
    alongside.  For N = 1 the cycle is the identity; for N = 2, M = 1
    it is exactly the fSWAP matrix.
    """
    L, dim = layout.legs, layout.dim
    states = np.arange(dim)
    U = (states, np.ones(dim))
    if layout.N > 1:
        shift1 = U
        for j in range(L - 1):
            shift1 = _compose(shift1, _fswap_map(layout, j))
        for _ in range(layout.M):
            U = _compose(U, shift1)
    perm, sign = U
    signs = []
    for leg in range(L):
        target = (leg + layout.M) % L if layout.N > 1 else leg
        # U c U† has sign[r] * c[r, c] * sign[c] at (perm[r], perm[c]); sort by column
        rows, cols, vals = _jw_map(layout, leg)
        order = np.argsort(perm[cols])
        moved = perm[rows][order], perm[cols][order], (sign[rows] * vals * sign[cols])[order]
        ref = _jw_map(layout, target)
        on_target = np.array_equal(moved[0], ref[0]) and np.array_equal(moved[1], ref[1])
        if on_target and np.array_equal(moved[2], ref[2]):
            signs.append(1)
        elif on_target and np.array_equal(moved[2], -ref[2]):
            signs.append(-1)
        else:
            raise AssertionError(
                f"cycle conjugation did not map leg {leg} onto +/- leg {target}"
            )
    mat = np.zeros((dim, dim))
    mat[perm, states] = sign
    return Operator(mat, layout.leg_dims), tuple(signs)


def quadratic_action(layout: FermionLayout, coeffs: np.ndarray) -> Operator:
    """S_f = sum_ab coeffs[a, b] c†_a c_b on the dense layout space."""
    coeffs = np.asarray(coeffs, dtype=complex)
    L = layout.legs
    if coeffs.shape != (L, L):
        raise ValueError(f"coefficient matrix must be {L}x{L}")
    ladders = [_jw_matrix(layout, leg) for leg in range(L)]
    out = np.zeros((layout.dim, layout.dim), dtype=complex)
    for a in range(L):
        left = ladders[a].conj().T
        for b in range(L):
            if coeffs[a, b] != 0.0:
                out += coeffs[a, b] * (left @ ladders[b])
    return Operator(out, layout.leg_dims)


def parity_weighted_trace(
    layout: FermionLayout, S_f: Operator, inserts: Sequence[Operator]
) -> complex:
    """Tr[P e^{i S_f} (prod inserts)] / Tr[P e^{i S_f}].

    The parity insertion is what makes the quadratic weight Gaussian in
    the fermionic sense; without it odd-operator traces would not
    vanish mode by mode.  Raises on a numerically vanishing
    normalization (e.g. a mode with e^{iA} having eigenvalue 1).
    """
    if S_f.dim != layout.dim:
        raise ValueError("action operator lives on the wrong space")
    weight = parity_operator(layout).mat @ scipy.linalg.expm(1j * S_f.mat)
    den = complex(np.trace(weight))
    if abs(den) < 1e-13:
        raise ZeroDivisionError("parity-weighted normalization trace vanishes")
    prod = np.eye(layout.dim, dtype=complex)
    for ins in inserts:
        if ins.dim != layout.dim:
            raise ValueError("insertion lives on the wrong space")
        prod = prod @ ins.mat
    return complex(np.trace(weight @ prod)) / den


def parity_pair_correlator(coeffs: np.ndarray) -> np.ndarray:
    """Closed Gaussian law: <c_a c†_b> = [(I - e^{iA})^{-1}]_ab.

    A is the quadratic coefficient matrix of S_f.  (The unweighted
    thermal trace would give the Fermi-Dirac form (I + e^{iA})^{-1};
    the parity insertion flips the sign of the exponential, which is
    exactly what lets the on-shell pole of the propagator build up.)
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    eA = scipy.linalg.expm(1j * coeffs)
    return inv(Operator(np.eye(coeffs.shape[0]) - eA)).mat


def regulated_mass(m: float, eps_i: float) -> complex:
    """sqrt(m^2 - i eps_i): the mass with the propagator's -i shift."""
    return cmath.sqrt(m * m - 1j * eps_i)


def dirac_mode_propagator(
    p: Sequence[float], m: float, tau: float, eps_i: float
) -> np.ndarray:
    """Matrix-valued mode pair value [I - e^{i tau g0 (p-slash - m)}]^{-1} g0.

    The mass carries the regulator through m^2 -> m^2 - i eps_i.  For
    small tau, tau * result approaches i(p-slash + m)/(p^2 - m^2 + i
    eps_i) with O(tau) error (see dirac_propagator_limit); exactly on
    shell with eps_i = 0 the matrix I - e^{iK} is singular and a
    SingularMatrixError is raised.
    """
    if tau <= 0:
        raise ValueError("need tau > 0")
    g = gamma_set()
    m_c = regulated_mass(m, eps_i)
    K = g.gamma(0) @ (g.slash(p) - m_c * np.eye(4))
    try:
        pair = inv(Operator(np.eye(4) - scipy.linalg.expm(1j * tau * K)))
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "mode propagator singular: on-shell momentum with vanishing regulator"
        ) from exc
    return pair.mat @ g.gamma(0)


def dirac_propagator_limit(p: Sequence[float], m: float, eps_i: float) -> np.ndarray:
    """tau -> 0 limit of tau * dirac_mode_propagator: i(p-slash + m)/(p^2 - m^2 + i eps_i).

    The regulated mass is used consistently in numerator and
    denominator (m^2 - i eps_i everywhere), which is what the finite-tau
    family converges to at first order in tau; the numerator differs
    from the bare-mass form by O(eps_i).
    """
    g = gamma_set()
    m_c = regulated_mass(m, eps_i)
    slash = g.slash(p)  # rejects anything but a 4-vector
    p = np.asarray(p, dtype=complex)
    p_sq = p[0] ** 2 - np.sum(p[1:] ** 2)
    return 1j * (slash + m_c * np.eye(4)) / (p_sq - m_c**2)
