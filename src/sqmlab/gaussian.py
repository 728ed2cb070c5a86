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

with s = (-dt) mod N and r = N - s, the smallest positive
representative of dt mod N.  It converges to the time-ordered
e^{-iE|dt|} as the grid is refined (image terms die like e^{-e_i T}).

feynman_kernel_closed takes a 1-d array of energies and a 1-d integer
array of time differences and evaluates e^{k z}, z = -i tau (E - i e_i),
only at the k = r and s it reads.  _exp_powers forms each power as
e^{qBz} e^{jz}, k = qB + j, B = isqrt(N) + 1: two exps per asked power,
or, once the asked powers outnumber half of the N + 1, one outer
product of the two short exp tables e^{jz}, j < B, and e^{qBz},
q <= N // B (about 2 sqrt(N) exps for all N + 1 powers).  Both paths form the same two exps and one
product, so they agree bit for bit, and each exponent is rounded once
rather than the rounding of w being raised to the power k.  It raises
PoleError where 1 - w^N vanishes to rounding (e_i = 0 with E on the
frequency grid).  The one Feynman line P[dt, dx] on the M site
classes of a lattice, at the site-class energies of
grids.site_class_energies, is sum_E K_E(dt) w_E(dx) over the distinct
energies E, each kernel times its plane-wave weights.  line_table sums
the asked rows, as feynman_propagator_grid (from a
grids.FrequencyTower) reads one; line_factors returns the kernels at
every dt and the weights unsummed, as the order-2 S-matrix in wick
reads them, so the N x M line is never formed.  Both refuse
N > LINE_SLICE_CAP before any N-long array exists.  The O(N) mode sum
over a tower is the tests' reference, in tests/dense_refs.py.

Signs of tau and e_i are not restricted here: the second kernel term
is the mode value at -e_i, the anti-time-ordered branch.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grids import FrequencyTower, ModeGrid, site_class_energies, slice_count


# the most slices a line table holds: 35x the largest default (30000 at tau2 / 2)
LINE_SLICE_CAP = 2**20

_EPS = np.finfo(float).eps


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


def _exp_powers(z, k: np.ndarray, N: int) -> np.ndarray:
    """e^{k z} for a 1-d integer array k of powers 0 <= k <= N, of shape z.shape + k.shape.

    Each power is e^{qBz} e^{jz}, k = qB + j with B = isqrt(N) + 1, each
    exponent formed as one integer times z.  Once the asked powers
    outnumber half of the N + 1 (the N roots of unity, or the r and s of
    more than (N + 1) / 4 time differences), the values are read from
    the outer product of the two short tables e^{jz}, j < B, and
    e^{qBz}, q <= N // B; otherwise each asked power pays its own two
    exps.  Both paths form the same exps and product: they agree bit
    for bit.  z is a complex or an array of them, one row each.
    """
    B = math.isqrt(N) + 1
    z = np.asarray(z)[..., None]  # 1-d even for one complex: numpy's 0-d math rounds otherwise
    if 2 * k.size > N + 1:
        lo = np.exp(np.arange(B) * z)
        hi = np.exp(np.arange(0, N + 1, B) * z)
        table = (hi[..., :, None] * lo[..., None, :]).reshape(*z.shape[:-1], -1)
        return np.take(table, k, axis=-1)  # a 2-d fancy index gathers several times slower
    j = k % B
    e = np.exp(np.concatenate((k - j, j)) * z)
    return e[..., :k.size] * e[..., k.size:]


def _kernel_steps(N: int, tau: float, eps_i: float, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z = -i tau (E - i e_i) and the kernel denominator 1 - e^{N z}, per energy.

    Raises PoleError where |expm1(N z)| <= 8 eps_machine max(1, |N z|),
    i.e. at e_i = 0 with E on the frequency grid, a pole of the mode sum.
    """
    z = -tau * eps_i - 1j * tau * E
    den = -np.expm1(N * z)
    for E_j, z_j, den_j in zip(E, z, den):
        if abs(den_j) <= 8 * _EPS * max(1.0, abs(N * z_j)):
            raise PoleError(f"kernel pole: E = {E_j} on the frequency grid with eps_i = {eps_i}")
    return z, den


def feynman_kernel_closed(N: int, tau: float, eps_i: float, E: np.ndarray,
                          dt_slices: np.ndarray) -> np.ndarray:
    """Exact geometric resummation of the tower kernel, len(E) x len(dt_slices).

    Equals the O(N) mode sum over a full N-tower to machine precision
    (the property tests pin this against the sum in tests/dense_refs.py).
    With z = -i tau (E - i e_i) and w = e^z the two mode series resum to
    (w^r + w^s) / (1 - w^N), where s = (-dt) mod N and r = N - s is the
    smallest positive representative of dt mod N.  E is a 1-d array of
    energies and dt_slices a 1-d integer array of K time differences:
    only their 2K powers are evaluated, through one _exp_powers call for
    all energies, since raising the rounded w to an integer power would
    multiply its rounding error by k.  Raises PoleError at a pole
    (_kernel_steps).
    """
    z, den = _kernel_steps(N, tau, eps_i, E)
    s = -dt_slices % N
    powers = _exp_powers(z, np.concatenate((N - s, s)), N)
    value = powers[:, :s.size] + powers[:, s.size:]
    value /= den[:, None]
    return value


def _refuse_past_cap(N: int) -> None:
    """ValueError for a line of more than LINE_SLICE_CAP slices, before any N-long array exists."""
    if N > LINE_SLICE_CAP:
        raise ValueError(f"line table of T/tau = {N:.6g} slices exceeds cap {LINE_SLICE_CAP}")


def line_table(N: int, tau: float, eps_i: float, energies, dt: np.ndarray) -> np.ndarray:
    """Rows dt of the Feynman line P[dt, dx] on the N x M difference lattice, K x M.

    M = len(energies), and P = (1/M) sum_j e^{2 pi i j dx / M} K_j(dt) / (2 E_j),
    E_j the energy of site class j: one feynman_kernel_closed call on
    the asked time differences at the distinct energies, each energy's
    kernel scaled by its plane-wave weights (_line_weights, kept per
    energy list, since a propagator entry reads one row of the line
    again and again).  dt is a 1-d integer array of K differences
    (np.arange(N) for the whole line).  Every entry is formed the same
    way whatever else is asked, so one row equals that row of the whole
    table bit for bit.  Raises ValueError unless N <= LINE_SLICE_CAP,
    checked before any N-long array exists, and E[j] == E[-j mod M] > 0.
    """
    _refuse_past_cap(N)
    distinct, weights = _line_weights(tuple(energies))
    kernels = feynman_kernel_closed(N, tau, eps_i, distinct, dt)
    # M x K, runs along dt; elementwise, so a row is the same bits whatever else is asked
    table = np.multiply.outer(weights[0], kernels[0])
    for w, kernel in zip(weights[1:], kernels[1:]):
        table += np.multiply.outer(w, kernel)
    return table.T


def line_factors(N: int, tau: float, eps_i: float, energies) -> tuple[np.ndarray, np.ndarray]:
    """The factors of the whole line, P[dt, dx] = sum_E K_E(dt) w_E(dx): (K, w).

    K is E x N, the kernel of each distinct site-class energy at every
    dt = 0..N-1, and w is E x M, its plane-wave weights (_line_weights):
    the line itself, N x M, is never formed.  K is read from one table
    of the N + 1 powers of e^z (_exp_powers), K(dt) = (w^dt + w^{N-dt}) /
    (1 - w^N): the same products added in the same order as
    feynman_kernel_closed(N, tau, eps_i, E, np.arange(N)) (at dt = 0,
    w^0 + w^N), so the two agree bit for bit, with no modular index and
    no gather of the powers.  Raises ValueError as line_table does, the
    slice cap first, before any N-long array exists, and PoleError at a
    pole (_kernel_steps).
    """
    _refuse_past_cap(N)
    distinct, weights = _line_weights(tuple(energies))
    z, den = _kernel_steps(N, tau, eps_i, distinct)
    powers = _exp_powers(z, np.arange(N + 1), N)
    kernels = powers[:, :N] + powers[:, N:0:-1]
    kernels /= den[:, None]
    return kernels, weights


@functools.lru_cache(maxsize=16)
def _line_weights(energies: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The distinct site-class energies E and their plane-wave weights w_E (read-only).

    w_E[dx] = sum over the classes j of energy E of e^{2 pi i j dx / M} / (2 E M):
    line_table's per-call constants.  Raises ValueError unless
    E[j] == E[-j mod M] > 0.
    """
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
    plane_waves = np.exp(2j * np.pi * np.outer(np.arange(M), np.arange(M)) / M)
    phases = {}
    for j, E in enumerate(energies):
        phases[E] = phases.get(E, 0) + plane_waves[j]
    distinct = np.array(list(phases), dtype=float)
    weights = np.array([row / (2.0 * E * M) for E, row in phases.items()])
    distinct.flags.writeable = weights.flags.writeable = False
    return distinct, weights


def feynman_propagator_grid(
    tower: FrequencyTower, tau: float, eps_i: float, x: tuple[int, int], y: tuple[int, int]
) -> complex:
    """Time-ordered two-point value between spacetime lattice points.

    x and y are (time-slice, site) pairs on the tower's site lattice.
    The value is the spatial mode sum

        (1/M) sum_p e^{i p (x-y)} (1/(2 E_p)) K_p(t_x - t_y)

    with E_p the energy of the tower in site class p, read as the
    entry (s_x - s_y) mod M of the one line_table row t_x - t_y,
    so it evaluates two powers, four exps, per distinct energy whatever
    N is.  It converges to the standard oracle <0|T phi(x) phi(y)|0> of
    the free lattice Hamiltonian.  Raises ValueError unless tau gives the
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
    return complex(line_table(N, tau, eps_i, energies, np.array([tx - ty]))[0, (sx - sy) % M])
