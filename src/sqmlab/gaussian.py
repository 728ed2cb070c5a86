"""Analytic Gaussian-trace correlators on frequency towers.

For a diagonal Gaussian weight e^{-sum_k lambda_k n_k} the only
nonvanishing pair value is <a†_k a_l> = delta_{kl}/(e^{lambda_k} - 1).
The slab action weight corresponds to lambda = -i tau (w - E + i e_i)
per frequency mode, with a small imaginary part e_i > 0 securing
convergence.  The Feynman kernel is assembled from two such mode terms
via the partial fraction i/(p0-E) - i/(p0+E) = 2E i/(p0^2-E^2), and
summing it over a full frequency tower resums *exactly* into a
geometric closed form,

    K(dt) = (1/N) sum_w e^{-i w tau dt} [corr(w - E + i e_i) - corr(w + E - i e_i)]
          = (w_E^r + w_E^s) / (1 - w_E^N),    w_E = e^{-i tau (E - i e_i)},

with r the smallest positive representative of dt mod N and
s = (-dt) mod N.  It converges to the time-ordered e^{-iE|dt|} as the
grid is refined (image terms die like e^{-e_i T}).

Both routes run on arrays: the tower sums (feynman_kernel,
feynman_propagator_grid) evaluate every mode of a tower as one numpy
sum over the grid's memoized towers, and feynman_kernel_closed takes an
integer array of time differences and reads w^r and w^s from one table
of the N + 1 powers e^{k z}, z = -i tau (E - i e_i), so its rounding
does not grow with k.

Signs of tau and e_i are not restricted here: the second kernel term
is the mode value at -e_i, the anti-time-ordered branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .grids import ModeGrid


class PoleError(ZeroDivisionError):
    """Gaussian pair value requested at the lambda = 0 pole."""


@dataclass(frozen=True)
class GaussianWeight:
    """Diagonal Gaussian weight exponents lambda_k (Re lambda > 0)."""

    lambdas: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(complex(z) for z in self.lambdas))
        if any(z.real <= 0 for z in self.lambdas):
            raise ValueError("every exponent needs Re(lambda) > 0 for trace convergence")


def gaussian_pair_correlator(w: GaussianWeight, k: int, l: int) -> complex:
    """<a†_k a_l> = delta_{kl} / (exp(lambda_k) - 1)."""
    if k != l:
        return 0.0 + 0.0j
    lam = w.lambdas[k]
    if abs(lam) < 1e-12:
        raise PoleError(f"pair correlator pole at lambda = {lam}")
    return 1.0 / (cmath.exp(lam) - 1.0)


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


def _tower(grid: ModeGrid) -> tuple[int, ...]:
    """The modes of the grid's one tower without a spatial index."""
    if () not in grid.towers:
        raise ValueError("grid has no frequency tower without a spatial index")
    return grid.towers[()]


def _omegas(grid: ModeGrid, idxs: tuple[int, ...]) -> np.ndarray:
    """Frequencies 2 pi n0 / T of the listed modes, as one array."""
    labels = np.array([grid.modes[k][0] for k in idxs])
    return 2.0 * math.pi * labels / grid.T


def _tower_kernel(grid: ModeGrid, idxs: tuple[int, ...], tau: float, eps_i: float,
                  dt_slices: int) -> complex:
    """The O(N) tower sum of feynman_kernel over the modes `idxs`."""
    w = _omegas(grid, idxs)
    E = grid.energy(idxs[0])
    c_minus = _mode_corr(tau, w - E, eps_i)
    c_plus = _mode_corr(tau, w + E, -eps_i)
    terms = np.exp(-1j * w * (tau * dt_slices)) * (c_minus - c_plus)
    return complex(np.sum(terms) / len(idxs))


def feynman_kernel(grid: ModeGrid, tau: float, eps_i: float, dt_slices: int) -> complex:
    """Single-tower time-ordered kernel: (1/N) sum_w e^{-i w dt} [corr- - corr+].

    corr- is the mode correlator at gap w - E + i eps_i and corr+ the
    one at gap w + E - i eps_i; their difference is the discrete partial
    fraction giving i/(p0^2 - E^2 + i eps_i) * 2E.  The tau -> 0 limit
    at fixed T is theta-ordered e^{-iE|dt|} plus O(e^{-eps_i T}) images;
    the equal-time value is 1 (so the propagator carries 1/(2E) there).
    The sum runs over the whole tower as one array; it is kept as the
    explicit mode sum (not the closed form) so that the two can be
    compared.
    """
    return _tower_kernel(grid, _tower(grid), tau, eps_i, dt_slices)


def feynman_kernel_closed(N: int, tau: float, eps_i: float, E: float, dt_slices):
    """Exact geometric resummation of the tower kernel.

    Equals feynman_kernel on a full N-tower to machine precision (the
    property tests pin this); O(N + K) for K time differences instead of
    the tower sum's O(N K), which the perturbative lattice sums rely on.  With
    z = -i tau (E - i e_i) and w = e^z the two mode series resum to
    (w^{r} + w^{s}) / (1 - w^N), where r is the smallest positive
    representative of dt mod N and s = (-dt) mod N.  Both index one
    table of the N + 1 powers e^{k z}, k = 0..N: raising the rounded w
    to an integer power would multiply its rounding error by k.

    `dt_slices` may be an int (the value is a complex) or an integer
    array (the value is a complex array of its shape).
    """
    z = complex(-tau * eps_i, -tau * E)
    dt = np.asarray(dt_slices)
    powers = np.exp(np.arange(N + 1) * z)
    value = (powers[(dt - 1) % N + 1] + powers[(-dt) % N]) / -np.expm1(N * z)
    return complex(value) if value.ndim == 0 else value


def feynman_propagator_grid(
    grid: ModeGrid, tau: float, eps_i: float, x: tuple[int, int], y: tuple[int, int]
) -> complex:
    """Time-ordered two-point value between spacetime lattice points.

    x and y are (time-slice, site) pairs on the grid's site lattice.
    The value is the spatial mode sum

        (1/M) sum_p e^{i p (x-y)} (1/(2 E_p)) K_p(t_x - t_y)

    with K_p the tower kernel above and E_p the grid's mode energy; it
    converges to the standard oracle <0|T phi(x) phi(y)|0> of the free
    lattice Hamiltonian.
    """
    if grid.M_sites is None:
        raise ValueError("propagator needs a grid with a site lattice (M_sites)")
    (tx, sx), (ty, sy) = x, y
    M = grid.M_sites
    total = 0.0 + 0.0j
    for sp, idxs in grid.towers.items():
        if len(sp) != 1:
            raise ValueError("site-lattice propagator expects 1-d spatial indices")
        p = 2.0 * math.pi * sp[0] / M
        E = grid.energy(idxs[0])
        if E <= 0:
            raise ValueError("propagator needs strictly positive mode energies")
        kern = _tower_kernel(grid, idxs, tau, eps_i, tx - ty)
        total += cmath.exp(1j * p * (sx - sy)) / (2.0 * E) * kern
    return total / M
