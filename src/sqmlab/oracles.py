"""Independent oracles built on textbook single/multi-mode machinery.

Everything here is deliberately *separate* from the tower/slab
machinery: dense free-lattice Heisenberg evolution and time-dependent
perturbation theory.  Tests and experiment reports compare slab-side
values against these.  Nothing here is imported from the slab side,
not even the single-mode ladder that `fock` also builds.  First-order
perturbation theory is `dyson_smatrix_oracle`; second order is the
pair channel only, a windowed sum over two-particle states in
`dyson_pair_channel_amplitudes`.  The truncated-Fock brute force of the
thermal pair value, which no CLI case reads, lives in the tests
(tests/dense_refs.py).  Dense lattices are capped at DENSE_DIM_CAP
basis states, checked before any matrix exists.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

DENSE_DIM_CAP = 4096


def _single_ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


@dataclass(frozen=True)
class DenseFockLattice:
    """Dense truncated Fock space for M momentum modes with energies E_p.

    Site fields follow phi_x = (1/sqrt(M)) sum_p (2E_p)^{-1/2}
    (a_p e^{ipx} + a†_p e^{-ipx}) with p = 2 pi j / M.
    """

    M: int
    energies: tuple[float, ...]
    n_max: int = 3
    _ladders: tuple[np.ndarray, ...] = field(init=False, repr=False)

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
        d = self.n_max + 1
        a = _single_ladder(d)
        eye = np.eye(d)
        ladders = []
        for p in range(self.M):
            ops = [a if q == p else eye for q in range(self.M)]
            full = ops[0]
            for op in ops[1:]:
                full = np.kron(full, op)
            ladders.append(full)
        object.__setattr__(self, "_ladders", tuple(ladders))

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** self.M

    def annihilator(self, p: int) -> np.ndarray:
        return self._ladders[p]

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def levels(self) -> np.ndarray:
        """sum_p E_p n_p of each occupation basis state: the free Hamiltonian's diagonal."""
        occupations = np.indices((self.n_max + 1,) * self.M).reshape(self.M, -1)
        return np.asarray(self.energies) @ occupations

    def field_at_site(self, x: int) -> np.ndarray:
        phi = np.zeros((self.dim, self.dim), dtype=complex)
        for j, E in enumerate(self.energies):
            p = 2.0 * math.pi * j / self.M
            a = self._ladders[j]
            phi += (a * cmath.exp(1j * p * x) + a.conj().T * cmath.exp(-1j * p * x)) / math.sqrt(
                2.0 * E
            )
        return phi / math.sqrt(self.M)

    def quartic_interaction(self, coupling: float) -> np.ndarray:
        v = np.zeros((self.dim, self.dim), dtype=complex)
        for x in range(self.M):
            phi = self.field_at_site(x)
            phi2 = phi @ phi
            v += phi2 @ phi2
        return (coupling / 24.0) * v


def timeordered_two_point_ed(
    M: int, energies, x: int, y: int, dt: float, n_max: int = 3
) -> complex:
    """<0|T phi_x(dt) phi_y(0)|0> by dense Heisenberg evolution.

    The free Hamiltonian is diagonal in the occupation basis, so the
    evolution is exact elementwise phases; this is an honest independent
    route: build the field matrices, evolve, sandwich.
    """
    lat = DenseFockLattice(M, tuple(float(E) for E in energies), n_max)
    vac = lat.vacuum()
    if dt >= 0:
        left, right, span = lat.field_at_site(x), lat.field_at_site(y), dt
    else:
        left, right, span = lat.field_at_site(y), lat.field_at_site(x), -dt
    phases = np.exp(-1j * span * lat.levels())
    return complex(vac.conj() @ (left @ (phases * (right @ vac))))


def _two_particle_state(lat: DenseFockLattice, modes: tuple[int, int]) -> np.ndarray:
    a, b = modes
    if a == b:
        raise ValueError("oracle states need distinct momentum modes")
    vec = lat.annihilator(a).conj().T @ (lat.annihilator(b).conj().T @ lat.vacuum())
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
    lat: DenseFockLattice, V: np.ndarray, vec_i: np.ndarray, vec_f: np.ndarray, T: float, width
) -> complex:
    """-sum_n <f|V|n> I(E_n - E_i - i width) <n|V|i> over the Fock basis of lat.

    The ordered double time integral of second-order perturbation theory,
    summed over intermediate occupation states n, one width on every denominator.
    """
    levels = lat.levels()
    E_i = levels @ np.abs(vec_i) ** 2
    amps_i = V @ vec_i
    amps_f = V @ vec_f
    dE = levels - E_i - 1j * width
    windows = np.array([_windowed_integral(complex(z), T) for z in dE])
    return complex(-np.sum(np.conj(amps_f) * windows * amps_i))


def pair_channel_vertex(lat: DenseFockLattice, coupling: float) -> np.ndarray:
    """Particle-conserving 2->2 normal-ordered part of the quartic vertex.

    Dense matrix for (coupling/(4M)) sum over momentum-conserving
    (j1,j2,j3,j4) of adag_{j1} adag_{j2} a_{j3} a_{j4} normalized by
    1/sqrt(2E_{j1} 2E_{j2} 2E_{j3} 2E_{j4}).  This is the exact
    two-creator/two-annihilator normal-ordered content of the full
    quartic interaction; the dropped pieces are the self-contracted
    and pair-creating/annihilating parts.  It conserves particle
    number, so the two-particle sector is exactly closed under it.
    """
    M = lat.M
    E = lat.energies
    ladders = [lat.annihilator(p) for p in range(M)]
    creators = [a.conj().T for a in ladders]
    out = np.zeros((lat.dim, lat.dim), dtype=complex)
    for j1 in range(M):
        for j2 in range(M):
            left = creators[j1] @ creators[j2]
            for j3 in range(M):
                j4 = (j1 + j2 - j3) % M
                norm = 16.0 * E[j1] * E[j2] * E[j3] * E[j4]
                out += (left @ ladders[j3] @ ladders[j4]) / math.sqrt(norm)
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
    V = lat.quartic_interaction(coupling)
    vec_i = _two_particle_state(lat, tuple(in_modes))
    vec_f = _two_particle_state(lat, tuple(out_modes))

    levels = lat.levels()
    E_i, E_f = levels @ np.abs(vec_i) ** 2, levels @ np.abs(vec_f) ** 2
    if abs(E_f - E_i) > 1e-9 * max(1.0, abs(E_i)):
        raise ValueError("oracle assumes equal total in/out energies")
    return -1j * T * complex(vec_f.conj() @ (V @ vec_i))


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
    vp = pair_channel_vertex(lat, coupling)
    vec_i = _two_particle_state(lat, tuple(in_modes))
    vec_f = _two_particle_state(lat, tuple(out_modes))
    a1 = -1j * T * complex(vec_f.conj() @ (vp @ vec_i))
    return a1, _windowed_second_order(lat, vp, vec_i, vec_f, T, 2.0 * eta)
