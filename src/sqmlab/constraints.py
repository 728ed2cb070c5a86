"""Classical mode-space brackets, constraint classification, Dirac brackets.

The classical phase space is spanned by complex normal-mode pairs
(a_n, a*_n) with {a_n, a*_n'} = -i delta_{nn'}.  Demanding the Hamilton
equations hold as constraints on the covariant mode space produces one
pair of linear constraints per mode,

    phi_1 = (w_n - E_n) a_n,    phi_2 = (w_n - E_n) a*_n,

whose bracket matrix is block-antidiagonal with entries ±i*gap^2.  The
dichotomy is sharp: off-shell modes (gap != 0) give invertible blocks —
second-class constraints that Dirac-reduce the pair away entirely
({a, a*}_DB = 0) — while on-shell modes give identically vanishing
constraints and keep their canonical bracket; which modes are on shell
is ModeGrid.on_shell's call, and `classify` returns the kind per mode,
"second-class" or "identically-zero".  Equal-time field/momentum
brackets rebuilt from the surviving modes come out exactly Kronecker;
grids.site_class_energies checks that they cover each site class once.

An observable in the linear span of the symbols is a (2, K) complex
array over the grid's K modes: row 0 holds the a_k coefficients, row 1
the a*_k coefficients, so +, - and scalar multiples are numpy's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import ModeGrid, site_class_energies


def mode_a(k: int, K: int) -> np.ndarray:
    """The symbol a_k among K modes: a 1 at row 0, column k of a (2, K) array."""
    return np.outer([1, 0], np.eye(K, dtype=complex)[k])


def mode_astar(k: int, K: int) -> np.ndarray:
    """The symbol a*_k among K modes: a 1 at row 1, column k of a (2, K) array."""
    return np.outer([0, 1], np.eye(K, dtype=complex)[k])


def poisson_bracket(f: np.ndarray, g: np.ndarray) -> complex:
    """Bilinear extension of {a_k, a*_k'} = -i delta_{kk'}.

    An observable is a (2, K) complex array: row 0 holds its a_k
    coefficients, row 1 its a*_k coefficients.
    """
    return complex(-1j * (f[0] @ g[1]) + 1j * (f[1] @ g[0]))


@dataclass(frozen=True)
class ConstraintSet:
    """Per-mode linear constraints phi = gap * (a, a*): their gaps and second-class modes.

    `second_class` lists mode positions whose 2x2 C-matrix block
    ±i*gap^2 is invertible; on-shell modes carry identically vanishing
    constraints and are excluded from the Dirac correction.  The set
    holds data only: `dirac_bracket` forms each mode's constraint pair
    and block from its gap.
    """

    gaps: tuple[float, ...]
    second_class: tuple[int, ...]


def build_constraints(grid: ModeGrid) -> ConstraintSet:
    return ConstraintSet(tuple(grid.gap(k) for k in range(len(grid))),
                         tuple(k for k in range(len(grid)) if not grid.on_shell(k)))


def classify(cs: ConstraintSet) -> list[str]:
    """Each mode's constraint kind, read from cs.second_class.

    "second-class" for an invertible 2x2 block, "identically-zero" for
    an on-shell mode; no first-class constraint can occur here, since
    every C-matrix block is either invertible or exactly zero.
    """
    return ["second-class" if k in cs.second_class else "identically-zero"
            for k in range(len(cs.gaps))]


def dirac_bracket(f: np.ndarray, g: np.ndarray, cs: ConstraintSet) -> complex:
    """{f,g} - sum_AB {f,phi_A} (C^{-1})_AB {phi_B,g} over second-class blocks.

    Mode k's pair is (phi_1, phi_2) = (gap * a_k, gap * a*_k) over the
    set's K = len(gaps) modes, and its C-matrix block is
    [[0, -i*gap^2], [i*gap^2, 0]], inverted as it stands.
    """
    total, K = poisson_bracket(f, g), len(cs.gaps)
    for k in cs.second_class:
        gap = cs.gaps[k]
        p1, p2 = gap * mode_a(k, K), gap * mode_astar(k, K)
        row = np.array([poisson_bracket(f, p1), poisson_bracket(f, p2)])
        col = np.array([poisson_bracket(p1, g), poisson_bracket(p2, g)])
        if not (row.any() or col.any()):
            continue
        cinv = np.linalg.inv(np.array([[0.0, -1j * gap ** 2], [1j * gap ** 2, 0.0]]))
        total -= row @ cinv @ col
    return complex(total)


# ---------------------------------------------------------------------------
# equal-time field/momentum bracket reconstruction


def _onshell_field_pair(grid: ModeGrid, x: int, t: float, y: int, tp: float):
    """(phi(t,x), pi(t',y)) expanded over the grid's on-shell modes."""
    if grid.M_sites is None:
        raise ValueError("position-space fields need a grid with M_sites set")
    M = grid.M_sites
    onshell = [k for k in range(len(grid)) if grid.on_shell(k)]
    site_class_energies([grid.modes[k][1] for k in onshell],
                        [grid.energy(k) for k in onshell], M)
    phi = np.zeros((2, len(grid)), dtype=complex)
    pi = np.zeros((2, len(grid)), dtype=complex)
    for k in onshell:
        E = grid.energy(k)
        if E <= 0:
            raise ValueError("zero-energy on-shell mode: field coefficients diverge")
        p = grid.momentum(k)[0]
        th_x = p * x - E * t
        th_y = p * y - E * tp
        cphi = 1.0 / math.sqrt(2.0 * E * M)
        cpi = -1j * math.sqrt(E / (2.0 * M))
        phi[:, k] = cphi * np.exp(1j * th_x), cphi * np.exp(-1j * th_x)
        pi[:, k] = cpi * np.exp(1j * th_y), -cpi * np.exp(-1j * th_y)
    return phi, pi


def equal_time_bracket_reconstruction(
    grid: ModeGrid, x: int, y: int, t: float, tp: float
) -> complex:
    """{phi(t,x), pi(t',y)}_DB via the on-shell mode sum.

    At t = t' this is (1/M) sum_p cos(p(x-y)) = Kronecker delta_{xy} by
    discrete Fourier completeness; at unequal times it is the classical
    propagator mode sum (1/M) sum_p cos(p(x-y) - E_p(t-t')).
    """
    phi, pi = _onshell_field_pair(grid, x, t, y, tp)
    return dirac_bracket(phi, pi, build_constraints(grid))
