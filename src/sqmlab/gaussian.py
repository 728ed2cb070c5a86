"""Analytic Gaussian-trace correlators on frequency towers.

For a diagonal Gaussian weight e^{-sum_k lambda_k n_k} the only
nonvanishing pair value is <a†_k a_l> = delta_{kl}/(e^{lambda_k} - 1).
The slab action weight corresponds to lambda = -i tau (w - E + i e_i)
per frequency mode, with a small imaginary part e_i > 0 securing
convergence.  The law is written once, as _mode_corr, which
tau_mode_correlator reads and whose on-shell values are the external-leg
contraction constants of wick; the tests check it at lambda = -i tau
(gap + i e_i) against the truncated-Fock brute force in
tests/dense_refs.py.
The Feynman kernel is assembled from two such mode terms
via the partial fraction i/(p0-E) - i/(p0+E) = 2E i/(p0^2-E^2), and
summing it over a full frequency tower resums *exactly* into a
geometric closed form,

    K(dt) = (1/N) sum_w e^{-i w tau dt} [corr(w - E + i e_i) - corr(w + E - i e_i)]
          = (w_E^r + w_E^s) / (1 - w_E^N),    w_E = e^{-i tau (E - i e_i)},

with r the smallest positive representative of dt mod N and
s = (-dt) mod N.  It converges to the time-ordered e^{-iE|dt|} as the
grid is refined (image terms die like e^{-e_i T}).

feynman_kernel_closed takes an integer array of time differences and
reads w^r and w^s from one table of the N + 1 powers e^{k z},
z = -i tau (E - i e_i), so its rounding does not grow with k; it raises
PoleError where 1 - w^N vanishes to rounding (e_i = 0 with E on the
frequency grid).  line_table sums it over the M site classes of a
lattice into the one Feynman line P[dt, dx] that both
feynman_propagator_grid (from a grids.FrequencyTower) and the order-2
S-matrix in wick read, each at the site-class energies of
grids.site_class_energies; it refuses N > LINE_SLICE_CAP before either
builds an N-long array.  The O(N) mode sum over a tower is the tests'
reference, in tests/dense_refs.py.

Signs of tau and e_i are not restricted here: the second kernel term
is the mode value at -e_i, the anti-time-ordered branch.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import FrequencyTower, ModeGrid, site_class_energies, slice_count


# the most slices a line table holds: 35x the largest default (30000 at tau2 / 2)
LINE_SLICE_CAP = 2**20


class PoleError(ZeroDivisionError):
    """Gaussian pair value requested at the lambda = 0 pole."""


def _mode_corr(tau: float, gap, eps_i: float):
    """1 / (exp(-i tau (gap + i eps_i)) - 1) — the <a†a>-type mode value.

    `gap` may be a scalar or an array of per-mode gaps; the value has
    its shape.
    """
    den = np.exp(-1j * tau * (gap + 1j * eps_i)) - 1.0
    if np.any(den == 0):
        raise PoleError("mode correlator pole: tau*(gap + i eps_i) = 0 mod 2 pi")
    return 1.0 / den


def tau_mode_correlator(grid: ModeGrid, tau: float, eps_i: float, p: int, k: int) -> complex:
    """delta_{pk} / (exp(-i tau (w_p - E_p + i eps_i)) - 1).

    The Kronecker delta stands in for the continuum delta normalization.
    Off shell, tau * value -> i/(w - E + i eps_i) as tau -> 0 with O(tau)
    error; on shell the value is 1/(e^{tau eps_i} - 1) ~ 1/(tau eps_i).
    """
    if p != k:
        return 0.0 + 0.0j
    return complex(_mode_corr(tau, grid.gap(p), eps_i))


def feynman_kernel_closed(N: int, tau: float, eps_i: float, E: float, dt_slices):
    """Exact geometric resummation of the tower kernel.

    Equals the O(N) mode sum over a full N-tower to machine precision
    (the property tests pin this against the sum in tests/dense_refs.py);
    O(N + K) for K time differences instead of the sum's O(N K).  With
    z = -i tau (E - i e_i) and w = e^z the two mode series resum to
    (w^{r} + w^{s}) / (1 - w^N), where r is the smallest positive
    representative of dt mod N and s = (-dt) mod N.  Both index one
    table of the N + 1 powers e^{k z}, k = 0..N: raising the rounded w
    to an integer power would multiply its rounding error by k.

    Raises PoleError where |expm1(N z)| <= 8 eps_machine max(1, |N z|),
    i.e. at e_i = 0 with E on the frequency grid, a pole of the mode sum.

    `dt_slices` may be an int (the value is a complex) or an integer
    array (the value is a complex array of its shape).
    """
    z = complex(-tau * eps_i, -tau * E)
    den = -np.expm1(N * z)
    if abs(den) <= 8 * np.finfo(float).eps * max(1.0, abs(N * z)):
        raise PoleError(f"kernel pole: E = {E} on the frequency grid with eps_i = {eps_i}")
    dt = np.asarray(dt_slices)
    powers = np.exp(np.arange(N + 1) * z)
    value = (powers[(dt - 1) % N + 1] + powers[(-dt) % N]) / den
    return complex(value) if value.ndim == 0 else value


def line_table(N: int, tau: float, eps_i: float, energies) -> np.ndarray:
    """Feynman line P[dt, dx] on the N x M difference lattice, M = len(energies).

    P = (1/M) sum_j e^{2 pi i j dx / M} K_j(dt) / (2 E_j), E_j the energy
    of site class j: one feynman_kernel_closed call on dt = 0..N-1 per
    distinct energy, then one (N x M)(M x M) product with the plane
    waves.  Raises ValueError unless N <= LINE_SLICE_CAP and
    E[j] == E[-j mod M] > 0.
    """
    if N > LINE_SLICE_CAP:
        raise ValueError(f"line table of T/tau = {N:.6g} slices exceeds cap {LINE_SLICE_CAP}")
    M = len(energies)
    for j, E in enumerate(energies):
        mirror = energies[(-j) % M]
        if not math.isclose(E, mirror, rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError(
                "site-class energies must satisfy E[j] == E[-j mod M]: a real "
                "scalar line ties the opposite spatial phase to the conjugate "
                f"branch (class {j}: {E} vs class {(-j) % M}: {mirror})"
            )
    if min(energies) <= 0:
        raise ValueError("internal lines need strictly positive energies")
    lines = {E: feynman_kernel_closed(N, tau, eps_i, E, np.arange(N)) / (2.0 * E)
             for E in set(energies)}
    plane_waves = np.exp(2j * np.pi * np.outer(np.arange(M), np.arange(M)) / M)
    return np.column_stack([lines[E] for E in energies]) @ plane_waves / M


def feynman_propagator_grid(
    tower: FrequencyTower, tau: float, eps_i: float, x: tuple[int, int], y: tuple[int, int]
) -> complex:
    """Time-ordered two-point value between spacetime lattice points.

    x and y are (time-slice, site) pairs on the tower's site lattice.
    The value is the spatial mode sum

        (1/M) sum_p e^{i p (x-y)} (1/(2 E_p)) K_p(t_x - t_y)

    with E_p the energy of the tower in site class p, read as the
    line_table entry at ((t_x - t_y) mod N, (s_x - s_y) mod M).  It
    converges to the standard oracle <0|T phi(x) phi(y)|0> of the free
    lattice Hamiltonian.  Raises ValueError unless tau gives the
    tower's own T/tau slices and the towers cover each site class once.
    """
    if tower.M_sites is None:
        raise ValueError("propagator needs a grid with a site lattice (M_sites)")
    M = tower.M_sites
    N = slice_count(tower.T, tau)
    if N != tower.N:
        raise ValueError(f"the towers have {tower.N} slices, T/tau = {N}")
    if any(len(sp) != 1 for sp in tower.spatial):
        raise ValueError("site-lattice propagator expects 1-d spatial indices")
    energies = site_class_energies([sp[0] for sp in tower.spatial], tower.energies, M)
    (tx, sx), (ty, sy) = x, y
    table = line_table(N, tau, eps_i, energies)
    return complex(table[(tx - ty) % N, (sx - sy) % M])
