"""Wick pairings and discrete quartic-interaction amplitudes.

The perturbative weight is Gaussian, so every insertion mean value is a
sum over perfect matchings of two-point values; the enumerator that
lists them lives in the tests (tests/dense_refs.py), since no run
enumerates a pairing.  At second order a 2->2 amplitude has twelve
insertions (four external legs, two four-leg vertices), and its 4032
connected pairings fall into 14 classes of 288.  Only the two
pair-channel classes have an independent oracle, so only they are
pinned, as the literal `_ORDER2_BUCKETS`; the tests rebuild all 14
classes from the enumerator and check that the literal is their
pair-channel part.  A class's value is one lattice difference sum
against the internal line, so no pairing is enumerated or evaluated at
run time.  The line is the Feynman line P that
gaussian.feynman_propagator_grid reads a row of and the `propagator`
experiment checks against exact diagonalization, at the site-class
energies of grids.site_class_energies.  Both classes have two crossing
lines, so a class's lattice sum is e_t^T P^2 e_x (P^2 elementwise): its
external phase splits into N slice phases e_t = e^{-2 pi i n t / N} and M
site phases e_x.  P itself is never formed: P[t, x] = sum_E K_E(t) w_E(x)
over the distinct site-class energies E, so

    e_t^T P^2 e_x = sum over pairs (a, b) of S_ab (w_a w_b . e_x),
    S_ab = sum_t e^{-2 pi i n t / N} K_a(t) K_b(t),

and gaussian.kernel_product_sums gives every S_ab of both classes in
closed form, four geometric series per pair, with the weights w (it
refuses a line past its slice cap).  A call's cost does not grow with N.

On top of the buckets sits the quartic S-matrix assembly on an
N-slice x M-site lattice.  Conventions (fixed here, validated end to
end against the time-dependent perturbation-theory oracle):

* each external leg carries the amputation prefactor
  -i sqrt(2 E tau) (p0 - E + i e_i), which on shell is
  -i sqrt(2 E tau) (i e_i); a leg that fails ModeGrid.on_shell, the
  test the constraint brackets also read, is refused;
* the ladder/field contractions contribute C+ = 1/(1 - e^{-a}) for
  incoming and C- = 1/(e^{a} - 1) for outgoing legs, a = tau * e_i,
  with unit-modulus plane-wave phases; both are on-shell values of the
  one Bose pair law, gaussian._mode_corr, at gap 0 and regulator -e_i
  (C+, negated) or e_i (C-);
* each vertex carries weight -i (lambda/4!) tau^2 per lattice cell;
  the tau powers cancel between legs, contractions, and vertices, so
  amplitudes stay finite as tau -> 0 (checked by the sweep tests);
* V_lattice = 1/(N M) is the discrete volume normalization the
  first-order amplitude lands on: A1 -> -i lambda / (N M).

Conservation deltas are evaluated in integer label arithmetic, so a
momentum- or energy-violating amplitude is exactly 0.0, not merely
small.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import gaussian
from .grids import ModeGrid, site_class_energies, slice_count


# ---------------------------------------------------------------------------
# Quartic-interaction amplitudes on the slice/site lattice
# ---------------------------------------------------------------------------


def lattice_volume_norm(N: int, M: int) -> float:
    """V_lattice — the discrete volume normalization 1/(N*M)."""
    return 1.0 / (N * M)


def _leg_label(grid: ModeGrid, k: int) -> tuple[int, int, float]:
    """(frequency label, spatial label, energy) of an on-shell external mode."""
    mode = grid.modes[k]
    if len(mode) != 2:
        raise ValueError("external legs need 1-d spatial modes (n0, j)")
    if not grid.on_shell(k):
        raise ValueError(
            f"external mode {mode} is off shell (gap {grid.gap(k):.3e}); "
            "pin its energy to the exact grid frequency"
        )
    return mode[0], mode[1], grid.energy(k)


def _leg_const(tau: float, eps_i: float, incoming: bool) -> float:
    """Per-leg magnitude: amputation prefactor x contraction constant.

    -i sqrt(2 E tau)(i e_i) x C/sqrt(2 E) = e_i sqrt(tau) C, with
    C = C+ for incoming, C- for outgoing legs, read from the Bose pair
    law: C- = Re corr(0, e_i), C+ = -Re corr(0, -e_i).  (The 1/sqrt(N M)
    plane-wave normalization is applied by the caller.)
    """
    sign = -1.0 if incoming else 1.0
    c = sign * gaussian._mode_corr(tau, 0.0, sign * eps_i).real
    return eps_i * math.sqrt(tau) * float(c)


def _conservation_deltas(
    legs: Sequence[tuple[int, int, float]], signs: Sequence[int], N: int, M: int
) -> bool:
    """Integer-arithmetic Kronecker deltas for energy and momentum labels."""
    n_tot = sum(s * leg[0] for s, leg in zip(signs, legs))
    j_tot = sum(s * leg[1] for s, leg in zip(signs, legs))
    return n_tot % N == 0 and j_tot % M == 0


# The pair-channel classes of the connected second-order pairings (m
# crossing lines, s self-loops, externals attached to vertex z,
# multiplicity): both incoming legs on one vertex, both outgoing on the
# other, joined by two internal lines.  Insertions: externals 0..3
# (singleton groups), vertex-z legs 4..7, vertex-w legs 8..11; the value
# of a pairing depends only on its signature.  tests/test_wick.py
# classifies all 4032 connected pairings of the twelve insertions and
# checks these rows against that classification.
_ORDER2_BUCKETS: tuple[tuple[int, int, tuple[int, ...], int], ...] = (
    (2, 0, (0, 1), 288),
    (2, 0, (2, 3), 288),
)


def smatrix_element(
    grid: ModeGrid,
    in_modes: Sequence[int],
    out_modes: Sequence[int],
    lam: float,
    order: int,
    tau: float = 1e-3,
    eps_i: float = 0.05,
    channel: str = "all",
) -> complex:
    """Connected 2->2 S-matrix element at the requested quartic order.

    Both orders assemble the per-leg amputation prefactors and leg
    contraction constants; momentum- or energy-violating externals
    return exactly 0.0.  Order 1 adds the 4! connected leg assignments
    and the lattice vertex sum (an exact integer Kronecker delta for
    the plane-wave phases):

        A1(tau) = -i lambda delta / (N M) x [a^2 / (4 sinh^2(a/2))]^2

    with a = tau e_i, so A1 -> -i lambda V_lattice as tau -> 0.  Order
    2 sums the pair-channel classes of the connected two-vertex
    pairings using translation invariance: one lattice difference sum
    per class, e_t^T P^2 e_x with the external phase split into slice
    and site factors, read from the closed-form slice sums of the line's
    kernel products and its weights (gaussian.kernel_product_sums; the
    line feynman_propagator_grid reads a row of), with nothing N-long.

    The order-2 assembly is normalized to the same external-leg and
    volume conventions as order 1.  In those conventions each vertex
    carries its slab measure factor tau and each internal line is the
    kernel table divided by tau; with exactly two internal contractions
    in every connected two-vertex class, the powers collapse to a
    single overall 1/tau against the naive line sum.  This keeps the
    ratio (order 2)/(order 1) finite as tau -> 0.

    Order 2 computes the pair channel only and needs channel="s": the
    two classes with both incoming legs on one vertex and both outgoing
    on the other, the piece whose intermediate content is exactly one
    propagating pair.  Its regulator width 2*eps_i maps one-to-one onto
    a pair-state width, which is what an independent windowed
    perturbation-theory oracle can reproduce without ambiguity.  Order 1
    is the whole first-order amplitude for either channel.

    Raises ValueError for order 2 with any channel but "s", for a grid
    without at least one site, for tau <= 0 or eps_i <= 0, and at order
    2 unless the grid's modes cover each site class once.
    """
    if order not in (1, 2):
        raise ValueError("perturbative order must be 1 or 2")
    if channel not in ("all", "s"):
        raise ValueError("channel must be 'all' or 's'")
    if order == 2 and channel != "s":
        raise ValueError("order 2 computes the pair channel only: pass channel='s'")
    if len(in_modes) != 2 or len(out_modes) != 2:
        raise ValueError("only 2->2 processes are supported")
    if grid.M_sites is None:
        raise ValueError("quartic amplitudes need a site lattice (M_sites)")
    if tau <= 0 or eps_i <= 0:
        raise ValueError(f"need tau > 0 and eps_i > 0, got tau={tau!r}, eps_i={eps_i!r}")
    M = grid.M_sites
    N = slice_count(grid.T, tau)
    legs = [_leg_label(grid, k) for k in (*in_modes, *out_modes)]
    signs = (1, 1, -1, -1)
    if len({leg[1] % M for leg in legs}) != 4:
        raise ValueError("coincident external momenta (externals must be distinct)")
    if not _conservation_deltas(legs, signs, N, M):
        return 0.0 + 0.0j

    consts = (
        _leg_const(tau, eps_i, True) ** 2
        * _leg_const(tau, eps_i, False) ** 2
        / (N * M) ** 2
    )
    vertex = -1j * (lam / 24.0) * tau**2
    if order == 1:
        n_connected = 24  # the 4! leg-to-vertex assignments kept by the filter
        return vertex * n_connected * consts * (N * M)

    energies = site_class_energies([mode[1] for mode in grid.modes],
                                   [grid.energy(k) for k in range(len(grid))], M)
    n_tot, j_tot = ([sum(signs[l] * legs[l][i] for l in sz) for _, _, sz, _ in _ORDER2_BUCKETS]
                    for i in (0, 1))
    sums, weights = gaussian.kernel_product_sums(N, tau, eps_i, energies, np.array(n_tot))
    total = 0.0 + 0.0j
    for (_, _, _, count), S, j in zip(_ORDER2_BUCKETS, sums, j_tot):
        e_x = np.exp(2j * np.pi * j * np.arange(M) / M)
        # e_t^T P^2 e_x = sum_ab S_ab (w_a w_b . e_x): no class has a self-loop
        total += count * np.sum(S * ((weights * e_x) @ weights.T))
    return 0.5 * vertex**2 * consts * (N * M) * total / tau


def tau_extrapolate(value_tau: complex, value_half: complex, exponent: int) -> complex:
    """Richardson step: eliminate the O(tau^exponent) error term."""
    f = 2.0**exponent
    return (f * value_half - value_tau) / (f - 1.0)
