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
e^{qBz} e^{jz}, k = qB + j, B = isqrt(N) + 1, two exps per asked
power, so each exponent is rounded once rather than the rounding of w
being raised to the power k.  The kernel raises PoleError where 1 - w^N
vanishes to rounding (e_i = 0 with E on the frequency grid).  The one
Feynman line P[dt, dx] on the M site classes of a lattice, at the
site-class energies of grids.site_class_energies, is
sum_E K_E(dt) w_E(dx) over the distinct energies E, each kernel times
its plane-wave weights.  line_table sums the asked rows, as
feynman_propagator_grid (from a grids.FrequencyTower) reads one.  The
order-2 S-matrix in wick reads the line only through its slice sums
sum_t e^{-2 pi i n t / N} K_a(t) K_b(t), which kernel_product_sums
resums exactly: each kernel product is four geometric series in t,
each expm1(N Y) / expm1(Y) (_geometric_sums), so its cost does not
grow with N and nothing N-long is formed.  Both line_table and
kernel_product_sums refuse N > LINE_SLICE_CAP.  The O(N) mode sum over
a tower is the tests' reference, in tests/dense_refs.py.

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
    its shape.  The denominator is expm1(z), z = -i tau (gap + i eps_i),
    which keeps the digits that exp(z) - 1 cancels next to the pole.
    Raises PoleError where |expm1(z)| <= 8 eps_machine max(1, |z|), the
    rule of _kernel_steps.
    """
    z = -1j * tau * (gap + 1j * eps_i)
    den = np.expm1(z)
    if np.any(np.abs(den) <= 8 * _EPS * np.maximum(1.0, np.abs(z))):
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
    exponent formed as one integer times z: two exps per asked power.
    The split is kept for accuracy: on the order-2 line at tau2 / 2
    (N = 30000) it stays within 1.0e-15 of a long-double closed form,
    relative to the line's largest entry, where one e^{kz} per power
    reads 1.3e-15 (tests/test_gaussian.py).
    z is a complex or an array of them, one row each.
    """
    B = math.isqrt(N) + 1
    z = np.asarray(z)[..., None]  # 1-d even for one complex: numpy's 0-d math rounds otherwise
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


def kernel_product_sums(N: int, tau: float, eps_i: float, energies,
                        n) -> tuple[np.ndarray, np.ndarray]:
    """S_ab = sum_{t<N} e^{-2 pi i n t / N} K_a(t) K_b(t) and the line's weights: (S, w).

    a and b run over the distinct site-class energies, and w is E x M,
    their plane-wave weights (_line_weights), so the line P = sum_E K_E w_E
    enters a slice sum of P^2 only through S.  n is an integer slice
    phase label or an array of them; S has shape n.shape + (E, E).  With
    K(t) = (w^t + w^{N-t}) / (1 - w^N) for every t < N, each product
    K_a K_b expands into four geometric series in t, each summed in
    closed form (_geometric_sums), so nothing N-long is formed.  The phase
    is read at the label nearest 0 of n mod N, theta = -2 pi i n_c / N,
    and the w_a^{N-t} w_b^{N-t} series is summed over u = N - t = 1..N,
    as e^{Y} G(Y) with Y = z_a + z_b - theta: no factor e^{+2 e_i T}
    is formed.  Raises ValueError as line_table does, the slice cap
    first, and PoleError at a pole (_kernel_steps).
    """
    _refuse_past_cap(N)
    distinct, weights = _line_weights(tuple(energies))
    z, den = _kernel_steps(N, tau, eps_i, distinct)
    n_c = (np.asarray(n) + N // 2) % N - N // 2
    theta = (-2j * np.pi / N) * n_c[..., None, None]
    za, zb = z[:, None], z[None, :]
    # (w_a^t + w_a^{N-t})(w_b^t + w_b^{N-t}) e^{t theta}, one exponent Y per series;
    # the last runs over u = N - t, e^{-u theta} (w_a w_b)^u
    late = (za + zb) - theta
    g = _geometric_sums(
        np.array([theta + (za + zb), theta + (za - zb), theta - (za - zb), late]), N)
    sums = g[0] + np.exp(N * zb) * g[1] + np.exp(N * za) * g[2] + np.exp(late) * g[3]
    sums /= den[:, None] * den[None, :]
    return sums, weights


def _geometric_sums(Y: np.ndarray, N: int) -> np.ndarray:
    """G(Y) = sum_{t<N} e^{tY} = expm1(N Y) / expm1(Y) entrywise, N where Y == 0.

    The imaginary part of Y is first reduced to the nearest 0 mod 2 pi,
    which leaves every e^{tY} as it is, and both expm1 read the one
    reduced Y, so a resonance Y -> 0 keeps its digits.
    """
    Y = Y - 2j * np.pi * np.round(Y.imag / (2 * np.pi))
    G = np.full(Y.shape, complex(N))
    live = Y != 0
    G[live] = np.expm1(N * Y[live]) / np.expm1(Y[live])
    return G


@functools.lru_cache(maxsize=16)
def _line_weights(energies: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The distinct site-class energies E and their plane-wave weights w_E (read-only).

    w_E[dx] = sum over the classes j of energy E of e^{2 pi i j dx / M} / (2 E M):
    the per-call constants of line_table and kernel_product_sums.
    Raises ValueError unless E[j] == E[-j mod M] > 0.
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
