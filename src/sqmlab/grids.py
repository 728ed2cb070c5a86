"""Finite frequency/momentum mode grids shared by the classical-constraint,
Gaussian-correlator, and perturbative modules.

A mode is labeled by integers (n0, n1, ..., nd): n0 indexes the
frequency w = 2*pi*n0/T on a time window T, the spatial part indexes
lattice momenta.  Spatial momenta live on a periodic lattice of
`M_sites` unit-spaced sites per dimension (momentum 2*pi*n/M_sites), so
a grid with spatial labels must declare its site lattice.

The dispersion energy is E = sqrt(|p|^2 + m^2).  Because several
theorems distinguish gap == 0 *exactly*, a per-mode energy override is
provided so tests can pin energies to exact grid frequencies instead of
rounding (generic masses are never exactly representable).  ModeGrid.on_shell
is the one on-shell test, |gap| <= ONSHELL_TOL * max(1, |E|): the
constraint brackets and the S-matrix legs both read it.

A full frequency tower (N = T/tau labels over each of a few spatial
indices) is no ModeGrid but a FrequencyTower record of its parameters,
all that the Feynman line reads.  slice_count is the one rule for T/tau,
and site_class_energies the one rule that maps spatial labels (of a
tower or of a grid's modes) to the M site classes: of the line, and of
the on-shell modes the equal-time bracket reconstruction expands in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

ONSHELL_TOL = 1e-12


@dataclass(frozen=True)
class ModeGrid:
    """A finite set of (frequency, momentum) modes on a T-window.

    Attributes
    ----------
    T : float
        Time-window length; frequencies are 2*pi*n0/T.
    modes : tuple of int tuples
        Each mode is (n0, n1, ..., nd); purely temporal grids use (n0,).
    m : float
        Mass entering the dispersion E = sqrt(p^2 + m^2).
    M_sites : int, optional
        Spatial lattice sites per dimension (unit spacing); fixes momenta
        to 2*pi*n/M_sites.  Required when the modes carry spatial labels.
    energy_override : tuple, optional
        Per-mode energy replacing the dispersion value (None entries
        fall back to the dispersion).  Lets tests place modes exactly
        on or off shell.
    """

    T: float
    modes: tuple[tuple[int, ...], ...]
    m: float = 0.0
    M_sites: Optional[int] = None
    energy_override: Optional[tuple[Optional[float], ...]] = None

    def __post_init__(self):
        modes = tuple(tuple(int(c) for c in mode) for mode in self.modes)
        object.__setattr__(self, "modes", modes)
        if not modes:
            raise ValueError("mode grid is empty")
        ranks = {len(mode) for mode in modes}
        if len(ranks) != 1:
            raise ValueError("all modes must have the same index rank")
        if self.T <= 0:
            raise ValueError("need T > 0")
        if ranks != {1} and self.M_sites is None:
            raise ValueError("spatial labels need a site lattice: set M_sites")
        if self.M_sites is not None and self.M_sites < 1:
            raise ValueError(f"need M_sites >= 1 lattice sites, got {self.M_sites}")
        if self.energy_override is not None and len(self.energy_override) != len(modes):
            raise ValueError("energy_override must list one entry per mode")

    def __len__(self) -> int:
        return len(self.modes)

    def omega(self, k: int) -> float:
        return 2.0 * math.pi * self.modes[k][0] / self.T

    def momentum(self, k: int) -> tuple[float, ...]:
        """Spatial momentum on the site lattice; labels are centered mod M.

        On a ring of M sites, labels n and n - M name the same mode, so
        the dispersion uses the first-zone representative (keeping
        E_p = E_{-p} exact, which the propagator's x <-> y symmetry
        relies on).
        """
        M = self.M_sites
        return tuple(2.0 * math.pi * (((n + M // 2) % M) - M // 2) / M
                     for n in self.modes[k][1:])

    def energy(self, k: int) -> float:
        if self.energy_override is not None and self.energy_override[k] is not None:
            return float(self.energy_override[k])
        return math.hypot(*self.momentum(k), self.m)

    def gap(self, k: int) -> float:
        return self.omega(k) - self.energy(k)

    def on_shell(self, k: int) -> bool:
        """|gap| <= ONSHELL_TOL * max(1, |E|): absolute below unit energy, relative above."""
        return abs(self.gap(k)) <= ONSHELL_TOL * max(1.0, abs(self.energy(k)))


def slice_count(T: float, tau: float) -> int:
    """N = T / tau, which must be a positive integer (T > 0)."""
    N = round(T / tau)
    if T <= 0 or N < 1 or abs(T - N * tau) > 1e-9 * max(1.0, abs(T)):
        raise ValueError("tau must divide the grid window T into integer slices")
    return N


def site_class_energies(labels: Sequence[int], energies: Sequence[float], M: int) -> list[float]:
    """Energy of each site class j = 0..M-1, label n sitting in class n mod M.

    energies[i] belongs to labels[i].  Raises ValueError unless every
    class holds exactly one label.
    """
    by_class: dict[int, float] = {}
    for n, E in zip(labels, energies):
        if n % M in by_class:
            raise ValueError(f"two labels in site class {n % M} of M = {M}")
        by_class[n % M] = E
    missing = sorted(set(range(M)) - set(by_class))
    if missing:
        raise ValueError(f"no label in site classes {missing} of M = {M}")
    return [by_class[j] for j in range(M)]


@dataclass(frozen=True)
class FrequencyTower:
    """N = T/tau frequency labels over each spatial index, one energy per index.

    The labels are never listed; frequency_tower validates the fields."""

    T: float
    N: int
    spatial: tuple[tuple[int, ...], ...]
    M_sites: Optional[int]
    energies: tuple[float, ...]


def frequency_tower(
    T: float,
    tau: float,
    spatial: Sequence[tuple[int, ...]] = ((),),
    M_sites: Optional[int] = None,
    *,
    energies: Sequence[float],
) -> FrequencyTower:
    """A full frequency tower of N = T/tau labels over each listed spatial index.

    `energies` lists one energy per spatial index, shared by its whole
    tower.  gaussian.feynman_propagator_grid reads one tower per site
    class and passes its energy to gaussian.line_table for one row of
    the line; the order-2 S-matrix reads the same line's slice sums from
    gaussian.kernel_product_sums.
    """
    N = slice_count(T, tau)
    spatial = tuple(tuple(int(c) for c in s) for s in spatial)
    if len(energies) != len(spatial):
        raise ValueError("need one energy per spatial index")
    return FrequencyTower(T, N, spatial, M_sites, tuple(float(E) for E in energies))
