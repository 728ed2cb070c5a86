"""Fermionic sector: gamma algebra, Jordan-Wigner time-slice lattice,
the fermionic cyclic shift, and the matrix-valued mode propagator.

Fermions admit no tensor-product factorization across time slices — the
antisymmetric algebra is global — so the cyclic time shift is not a
permutation of kron factors but a network of fSWAP gates, and the
normalized trace needs the parity operator inserted:

    <...> = Tr[P e^{i S_f} ...] / Tr[P e^{i S_f}],   P = (-1)^{N_f}.

Ladders, cycle and P are signed index maps held as numpy arrays
(jw_ladder, cycle_matrix, parity_matrix), with real dense views for
callers that read entries; the cycle's signs are predicted, not read
off it.

For a quadratic action S_f = sum_ab A_ab c†_a c_b the pair correlator
has the closed Gaussian form <c_a c†_b> = [(I - e^{iA})^{-1}]_ab, the
fermionic counterpart of the bosonic 1/(e^lambda - 1) pair value (the
tests check it against the parity-weighted trace of e^{i S_f} between
Jordan-Wigner ladders, the dense reference in tests/dense_refs.py); per
momentum the Dirac action block A_p = tau g0 (p-slash - m) turns that
law into the matrix-valued mode propagator [I - e^{i tau g0(p-slash -
m)}]^{-1} g0, whose tau -> 0 limit is i(p-slash + m)/(p^2 - m^2 + i e)
per unit tau.  The block's Dirac Hamiltonian squares to a scalar, so
its exponential has a closed form and needs no Padé `expm` (Peskin &
Schroeder 1995, sec. 3.2; Moler & Van Loan, SIAM Rev. 45, 3 (2003)).

Conventions fixed here: Dirac representation (GAMMA) with signature (+,-,-,-);
Jordan-Wigner ordering slice-major (leg = t*M + m), string over lower
legs; mode annihilator maps |1> to |0>.  Layouts are capped at 2**12
states, the size the dense views can still afford.  Plain numpy: no
scipy.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import _PHASE_MAX, Operator, SingularMatrixError

FERMION_DIM_CAP = 4096  # 2**12

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


_EYE2 = np.eye(2, dtype=complex)
_ZERO2 = np.zeros((2, 2), dtype=complex)

# the Dirac matrices g^0..g^3, read-only: g0 = diag(I, -I), g^i = [[0, s_i], [-s_i, 0]]
GAMMA = (
    np.block([[_EYE2, _ZERO2], [_ZERO2, -_EYE2]]),
    *(np.block([[_ZERO2, s], [-s, _ZERO2]]) for s in _PAULI),
)
for _gamma in GAMMA:
    _gamma.flags.writeable = False


def slash(p: Sequence[complex]) -> np.ndarray:
    """gamma^mu p_mu for a contravariant 4-vector (p0, p1, p2, p3)."""
    p = np.asarray(p, dtype=complex)
    if p.shape != (4,):
        raise ValueError("slash needs a 4-vector (p0, p1, p2, p3)")
    out = p[0] * GAMMA[0]
    for i in (1, 2, 3):
        out = out - p[i] * GAMMA[i]
    return out


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
    return Operator(mat)


@dataclass(frozen=True)
class FermionLayout:
    """N time slices x M fermionic modes under a global Jordan-Wigner chain.

    Leg order is slice-major: leg(t, m) = t*M + m; the Jordan-Wigner
    string of a leg covers all lower legs.  The space has 2^(N*M)
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

    def leg(self, t: int, m: int) -> int:
        if not (0 <= t < self.N and 0 <= m < self.M):
            raise ValueError(f"mode (t={t}, m={m}) outside the {self.N}x{self.M} lattice")
        return t * self.M + m


def jw_ladder(layout: FermionLayout, leg: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c_leg = Z^{⊗leg} ⊗ s- ⊗ I^{⊗rest} as a signed map (rows, cols, signs).

    Basis column cols[k] (leg occupied) goes to row rows[k] = cols[k]
    with the leg emptied, with the string sign signs[k] = (-1)^{occupation
    of the lower legs}; every other column is annihilated.  Leg 0 is the
    slowest-varying bit of the basis index.  Raises ValueError unless
    0 <= leg < layout.legs.
    """
    L = layout.legs
    if not 0 <= leg < L:
        raise ValueError(f"leg {leg} outside the {L} legs of the {layout.N}x{layout.M} lattice")
    states = np.arange(layout.dim)
    bit = 1 << (L - 1 - leg)
    cols = states[(states & bit) != 0]
    below = sum(((cols >> (L - 1 - j)) & 1 for j in range(leg)), np.zeros_like(cols))
    return cols ^ bit, cols, (-1.0) ** below


def _dense_view(dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> Operator:
    """A signed map scattered into one fresh float64 buffer, which Operator keeps uncopied."""
    mat = np.zeros((dim, dim))
    mat[rows, cols] = vals
    mat.flags.writeable = False
    return Operator(mat)


def jw_annihilator(layout: FermionLayout, t: int, m: int) -> Operator:
    """Real float64 dense view of jw_ladder: c(t, m) with the string over lower legs."""
    return _dense_view(layout.dim, *jw_ladder(layout, layout.leg(t, m)))


def parity_matrix(layout: FermionLayout) -> np.ndarray:
    """(-1)^{N_f} as its diagonal: -1 on odd-occupation basis states."""
    idx = np.arange(layout.dim)
    return (-1.0) ** sum((idx >> b) & 1 for b in range(layout.legs))


def parity_operator(layout: FermionLayout) -> Operator:
    """Real float64 dense view of parity_matrix."""
    idx = np.arange(layout.dim)
    return _dense_view(layout.dim, idx, idx, parity_matrix(layout))


def _compose(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]):
    """a · b for signed permutations (perm, sign): column c is sign[c] e_{perm[c]}."""
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


def cycle_matrix(layout: FermionLayout) -> tuple[np.ndarray, np.ndarray]:
    """Unitary advancing every slice by one step, as a signed permutation (perm, sign).

    Column c of U is sign[c] e_{perm[c]}.  M repetitions of a
    single-position shift, itself the adjacent-fSWAP network F(0,1)
    F(1,2) ... F(L-2, L-1), composed as signed permutations in
    O(M·L·2^L).  For N = 1 it is the identity; for N = 2, M = 1 it is
    exactly the fSWAP matrix.
    """
    states = np.arange(layout.dim)
    U = (states, np.ones(layout.dim))
    if layout.N > 1:
        shift1 = U
        for j in range(layout.legs - 1):
            shift1 = _compose(shift1, _fswap_map(layout, j))
        for _ in range(layout.M):
            U = _compose(U, shift1)
    return U


def cycle_signs(layout: FermionLayout) -> tuple[int, ...]:
    """Signs of the cycle's conjugation c(t, m) -> sign * c(t+1 mod N, m).

    fSWAP is Gaussian (c0 -> c1, c1 -> -c0), so one single-position
    shift moves every leg up by one with sign +1, except the last leg,
    which crosses the L - 1 others to reach leg 0 and picks up one minus
    sign per fSWAP.  Over M shifts exactly the M wraparound legs
    (leg >= L - M) cross once: sign (-1)^(L-1) there, +1 elsewhere, and
    all +1 when N = 1, where nothing moves.
    """
    L = layout.legs
    wrap = (-1) ** (L - 1) if layout.N > 1 else 1
    return tuple(wrap if leg >= L - layout.M else 1 for leg in range(L))


def fermionic_cycle(layout: FermionLayout) -> tuple[Operator, tuple[int, ...]]:
    """Real float64 dense view of cycle_matrix, with the signs of cycle_signs."""
    perm, sign = cycle_matrix(layout)
    return _dense_view(layout.dim, perm, np.arange(layout.dim), sign), cycle_signs(layout)


def regulated_mass(m: float, eps_i: float) -> complex:
    """sqrt(m^2 - i eps_i): the mass with the propagator's -i shift."""
    return cmath.sqrt(m * m - 1j * eps_i)


def dirac_mode_propagator(
    p: Sequence[float], m: float, tau: float, eps_i: float
) -> np.ndarray:
    """Matrix-valued mode pair value [I - e^{i tau K}]^{-1} g0, K = g0 (p-slash - m).

    The Gaussian law <c_a c†_b> = [(I - e^{iA})^{-1}]_ab on the block
    A = tau K, times g0.  The mass carries the regulator through m^2 ->
    m^2 - i eps_i.  The exponential is closed: K = p0 I - H_D with the
    Dirac Hamiltonian H_D = alpha.p + beta m, and H_D^2 = E^2 I with
    E^2 = |p|^2 + m^2, so e^{i tau K} = e^{i tau p0}[cos(tau E) I - i tau
    sinc(tau E) H_D], sinc(x) = sin(x)/x.  The scalar part of I - e^{i
    tau K} is summed as -expm1(i tau p0) + e^{i tau p0} 2 sin^2(tau E/2),
    so no 1 - e^{...} cancels.  The inverse is closed too: with I -
    e^{i tau K} = s I + c H_D, (s I + c H_D)(s I - c H_D) = (s^2 - c^2
    E^2) I, and s^2 - c^2 E^2 = f- f+ with f-+ = expm1(i tau (p0 -+ E)),
    the eigenvalues of I - e^{i tau K}, divided by one at a time so
    their product cannot underflow.  For small tau, tau * result
    approaches i(p-slash + m)/(p^2 - m^2 + i eps_i) with O(tau) error
    (see dirac_propagator_limit); where min |f-+| is not above 1e-13
    max |f-+| (exactly on shell with eps_i = 0, one is 0) the matrix I -
    e^{i tau K} is singular and a SingularMatrixError is raised.  A
    FloatingPointError is raised where the regulated mass is not finite,
    before any array arithmetic, and where tau times K's largest entry
    in size is 2**52 or more: the phase rule of `linalg.unitary`, past
    which a unit in the last place of a phase is a whole radian.  Past
    that guard every tau p_i and tau m is below 2**52, so tau E is
    formed from their squares without overflow.
    """
    if tau <= 0:
        raise ValueError("need tau > 0")
    m_c = regulated_mass(m, eps_i)
    if not cmath.isfinite(m_c):
        raise FloatingPointError(f"regulated mass not finite: m = {m}, eps_i = {eps_i}")
    eye = np.eye(4)
    p_slash = slash(p)  # rejects anything but a 4-vector
    H_D = GAMMA[0] @ ((p[0] * GAMMA[0] - p_slash) + m_c * eye)
    if not tau * np.max(np.abs(p[0] * eye - H_D)) < _PHASE_MAX:  # NaN compares False
        raise FloatingPointError(f"phase tau*K out of range: tau = {tau}, p = {tuple(p)}, m = {m}")
    tE = cmath.sqrt(sum((tau * x) ** 2 for x in p[1:]) + (tau * m_c) ** 2)  # either root
    phase = cmath.exp(1j * tau * p[0])
    sinc = cmath.sin(tE) / tE if tE else 1.0
    scalar = -np.expm1(1j * tau * p[0]) + phase * 2.0 * cmath.sin(tE / 2) ** 2
    f_minus, f_plus = np.expm1(1j * (tau * p[0] - tE)), np.expm1(1j * (tau * p[0] + tE))
    if not min(abs(f_minus), abs(f_plus)) > 1e-13 * max(abs(f_minus), abs(f_plus)):
        raise SingularMatrixError("mode propagator singular: on-shell momentum with vanishing regulator")
    return (scalar * eye - 1j * tau * phase * sinc * H_D) / f_minus / f_plus @ GAMMA[0]


def dirac_propagator_limit(p: Sequence[float], m: float, eps_i: float) -> np.ndarray:
    """tau -> 0 limit of tau * dirac_mode_propagator: i(p-slash + m)/(p^2 - m^2 + i eps_i).

    The regulated mass is used consistently in numerator and
    denominator (m^2 - i eps_i everywhere), which is what the finite-tau
    family converges to at first order in tau; the numerator differs
    from the bare-mass form by O(eps_i).  As the oracle of the
    propagator checks it forms m^2 - i eps_i itself and does not share
    regulated_mass with the slab route.
    """
    m_sq = m * m - 1j * eps_i
    p_slash = slash(p)  # rejects anything but a 4-vector
    p = np.asarray(p, dtype=complex)
    with np.errstate(over="raise"):  # a p^2 past the float range is out of range, not a warning
        p_sq = p[0] ** 2 - np.sum(p[1:] ** 2)
    return 1j * (p_slash + cmath.sqrt(m_sq) * np.eye(4)) / (p_sq - m_sq)
