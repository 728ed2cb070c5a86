"""Independent oracles built on textbook single/multi-mode machinery.

Everything here is deliberately *separate* from the tower/slab
machinery: free-lattice Heisenberg evolution and time-dependent
perturbation theory on a truncated Fock lattice that stores no
operator: DenseFockLattice.ladder applies a_p or a†_p to a state vector
by shifting its n_p axis one level, and fields and vertices are sums of
such applies.  Nothing is imported from the slab side, not even the
ladder that `fock` also builds.  First-order perturbation theory is
`dyson_smatrix_oracle`; second order is the pair channel only, a
windowed sum over two-particle states in `dyson_pair_channel_amplitudes`.
The dense-matrix lattice and the truncated-Fock brute force of the
thermal pair value are the tests' references (tests/dense_refs.py).
Lattices are capped at DENSE_DIM_CAP basis states, checked first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DENSE_DIM_CAP = 4096


@dataclass(frozen=True)
class DenseFockLattice:
    """Truncated Fock space for M momentum modes with energies E_p.

    Basis state i lists the occupations (n_0, ..., n_{M-1}) as the digits
    of i in base n_max + 1, mode 0 slowest.
    Site fields follow phi_x = (1/sqrt(M)) sum_p (2E_p)^{-1/2}
    (a_p e^{ipx} + a†_p e^{-ipx}) with p = 2 pi j / M.
    """

    M: int
    energies: tuple[float, ...]
    n_max: int = 3

    def __post_init__(self):
        if len(self.energies) != self.M:
            raise ValueError("need one energy per momentum mode")
        if any(E <= 0 for E in self.energies):
            raise ValueError("energies must be positive")
        if self.n_max < 1:
            raise ValueError(f"need n_max >= 1 to hold a particle, got {self.n_max!r}")
        if self.dim > DENSE_DIM_CAP:
            raise ValueError(
                f"dense oracle lattice of dim {self.dim} ((n_max+1)^M with n_max = "
                f"{self.n_max}, M = {self.M}) exceeds cap {DENSE_DIM_CAP}"
            )

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** self.M

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def levels(self) -> np.ndarray:
        """sum_p E_p n_p of each occupation basis state: the free Hamiltonian's diagonal."""
        occupations = np.indices((self.n_max + 1,) * self.M).reshape(self.M, -1)
        return np.asarray(self.energies) @ occupations

    @cached_property
    def _root(self) -> np.ndarray:
        """The column sqrt(1..n_max) of ladder weights, kept once per lattice."""
        return np.sqrt(np.arange(1, self.n_max + 1))[:, None]

    def ladder(self, p: int, v: np.ndarray, create: bool = False) -> np.ndarray:
        """a_p v, or a†_p v with create=True.

        Viewed as ((n_max+1)^p, n_max+1, rest), v's middle axis is n_p:
        a_p moves level n to n - 1 with weight sqrt(n), a†_p moves level n
        to n + 1 with weight sqrt(n + 1) and drops the states already at
        n_max (the truncation).
        """
        L = self.n_max + 1
        psi = v.reshape(L**p, L, -1)
        out = np.zeros(psi.shape, dtype=complex)
        if create:
            out[:, 1:] = self._root * psi[:, :-1]
        else:
            out[:, :-1] = self._root * psi[:, 1:]
        return out.reshape(-1)

    def field(self, x: int, v: np.ndarray) -> np.ndarray:
        """phi_x v: 2M ladder applies."""
        out = np.zeros(self.dim, dtype=complex)
        for j, E in enumerate(self.energies):
            p = 2.0 * math.pi * j / self.M
            out += (self.ladder(j, v) * cmath.exp(1j * p * x)
                    + self.ladder(j, v, create=True) * cmath.exp(-1j * p * x)) / math.sqrt(2.0 * E)
        return out / math.sqrt(self.M)

    def quartic_interaction(self, coupling: float, v: np.ndarray) -> np.ndarray:
        """(coupling/24) sum_x phi_x^4 v: four field applies per site."""
        phi4 = sum(self.field(x, self.field(x, self.field(x, self.field(x, v))))
                   for x in range(self.M))
        return (coupling / 24.0) * phi4


def timeordered_two_point_ed(
    M: int, energies, x: int, y: int, dt: float, n_max: int = 3
) -> complex:
    """<0|T phi_x(dt) phi_y(0)|0> by dense Heisenberg evolution.

    The free Hamiltonian is diagonal in the occupation basis, so the
    evolution is exact elementwise phases; this is an honest independent
    route: apply the fields to vectors, evolve, sandwich.
    """
    lat = DenseFockLattice(M, tuple(float(E) for E in energies), n_max)
    vac = lat.vacuum()
    if dt >= 0:
        left, right, span = x, y, dt
    else:
        left, right, span = y, x, -dt
    phases = np.exp(-1j * span * lat.levels())
    return complex(vac.conj() @ lat.field(left, phases * lat.field(right, vac)))


def _two_particle_state(lat: DenseFockLattice, modes: tuple[int, int]) -> np.ndarray:
    a, b = modes
    if a == b:
        raise ValueError("oracle states need distinct momentum modes")
    vec = lat.ladder(a, lat.ladder(b, lat.vacuum(), create=True), create=True)
    return vec / np.linalg.norm(vec)


def _windowed_integral(dE: complex, T: float) -> complex:
    """I(dE) = int_0^T dt2 int_0^{t2} dt1 e^{i dE (t1 - ...)} collapsed form.

    Equals [T - (e^{-i dE T} - 1)/(-i dE)] / (i dE) for the ordered
    double integral with inner phase e^{i dE t1} and outer e^{-i dE t2};
    the dE -> 0 limit is T^2/2 (series-expanded below the cutoff).
    """
    if abs(dE) * T < 1e-7:
        return T * T / 2.0 - 1j * dE * T**3 / 6.0
    inner = (np.exp(-1j * dE * T) - 1.0) / (-1j * dE)
    return (T - inner) / (1j * dE)


def _windowed_second_order(
    lat: DenseFockLattice, vec_i: np.ndarray, amps_i: np.ndarray, amps_f: np.ndarray, T: float,
    width,
) -> complex:
    """-sum_n <f|V|n> I(E_n - E_i - i width) <n|V|i> over the Fock basis of lat.

    The ordered double time integral of second-order perturbation theory,
    summed over intermediate occupation states n, one width on every
    denominator; amps_i = V|i> and amps_f = V|f> for a Hermitian V.
    """
    levels = lat.levels()
    dE = levels - levels @ np.abs(vec_i) ** 2 - 1j * width
    windows = np.array([_windowed_integral(complex(z), T) for z in dE])
    return complex(-np.sum(np.conj(amps_f) * windows * amps_i))


def pair_channel_vertex(lat: DenseFockLattice, coupling: float, v: np.ndarray) -> np.ndarray:
    """Particle-conserving 2->2 normal-ordered part of the quartic vertex, applied to v.

    (coupling/(4M)) sum over momentum-conserving (j1,j2,j3,j4) of
    adag_{j1} adag_{j2} a_{j3} a_{j4} normalized by
    1/sqrt(2E_{j1} 2E_{j2} 2E_{j3} 2E_{j4}).  This is the exact
    two-creator/two-annihilator normal-ordered content of the full
    quartic interaction; the dropped pieces are the self-contracted
    and pair-creating/annihilating parts.  It conserves particle
    number, so the two-particle sector is exactly closed under it.
    Summed per total momentum K = j1 + j2 = j3 + j4 (mod M), annihilator
    pairs first: 4 M^2 ladder applies.
    """
    M, E = lat.M, lat.energies
    out = 0
    for K in range(M):
        pairs = [(j, (K - j) % M, math.sqrt(4.0 * E[j] * E[(K - j) % M])) for j in range(M)]
        w = sum(lat.ladder(j, lat.ladder(k, v)) / s for j, k, s in pairs)
        out = out + sum(lat.ladder(j, lat.ladder(k, w, create=True), create=True) / s
                        for j, k, s in pairs)
    return coupling / (4.0 * M) * out


def dyson_smatrix_oracle(
    M: int,
    energies,
    coupling: float,
    in_modes: tuple[int, int],
    out_modes: tuple[int, int],
    T: float,
    order: int,
    n_max: int,
) -> complex:
    """First-order time-dependent perturbation theory on the dense lattice.

    A1 = -i T <f|V|i> for the full quartic vertex V (equal total energies
    make the time integral trivial); order 2 is dyson_pair_channel_amplitudes.
    """
    if order != 1:
        raise ValueError("order 1 only; second order is dyson_pair_channel_amplitudes")
    lat = DenseFockLattice(M, tuple(float(E) for E in energies), n_max)
    vec_i = _two_particle_state(lat, tuple(in_modes))
    vec_f = _two_particle_state(lat, tuple(out_modes))

    levels = lat.levels()
    E_i, E_f = levels @ np.abs(vec_i) ** 2, levels @ np.abs(vec_f) ** 2
    if abs(E_f - E_i) > 1e-9 * max(1.0, abs(E_i)):
        raise ValueError("oracle assumes equal total in/out energies")
    return -1j * T * complex(vec_f.conj() @ lat.quartic_interaction(coupling, vec_i))


def dyson_pair_channel_amplitudes(
    M: int,
    energies,
    coupling: float,
    in_modes: tuple[int, int],
    out_modes: tuple[int, int],
    T: float,
    eta: float,
) -> tuple[complex, complex]:
    """(first order, pair-channel second order) from one small lattice.

    The first-order amplitude -i T <f|V|i> is a single matrix element
    with no intermediate sum, so the particle-conserving vertex on an
    n_max = 2 lattice computes it exactly (for disjoint in/out pairs it
    coincides with the full quartic vertex element).

    The particle-conserving vertex keeps the second-order intermediate
    sum inside the two-particle sector, which is closed, so there is no
    truncation error.  Every intermediate denominator is damped by the
    same width 2*eta, one eta per propagating line of the pair, which
    mirrors a per-line regulator exactly in this channel.
    """
    lat = DenseFockLattice(M, tuple(float(E) for E in energies), n_max=2)
    vec_i = _two_particle_state(lat, tuple(in_modes))
    vec_f = _two_particle_state(lat, tuple(out_modes))
    amps_i = pair_channel_vertex(lat, coupling, vec_i)
    amps_f = pair_channel_vertex(lat, coupling, vec_f)
    a1 = -1j * T * complex(vec_f.conj() @ amps_i)
    return a1, _windowed_second_order(lat, vec_i, amps_i, amps_f, T, 2.0 * eta)
