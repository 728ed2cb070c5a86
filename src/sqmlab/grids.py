"""Finite frequency/momentum mode grids shared by the classical-constraint,
Gaussian-correlator, and perturbative modules.

A mode is labeled by integers (n0, n1, ..., nd): n0 indexes the
frequency w = 2*pi*n0/T on a time window T, the spatial part indexes
lattice momenta.  Spatial momenta live on a periodic lattice of
`M_sites` unit-spaced sites per dimension (momentum 2*pi*n/M_sites);
when no site lattice is declared, the spatial box defaults to the same
length T as the time window.

The dispersion energy is E = sqrt(|p|^2 + m^2).  Because several
theorems distinguish gap == 0 *exactly*, a per-mode energy override is
provided so tests can pin energies to exact grid frequencies instead of
rounding (generic masses are never exactly representable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Optional, Sequence


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
        Spatial lattice sites per dimension (unit spacing).  Required by
        position-space operations; fixes momenta to 2*pi*n/M_sites.
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
        if self.energy_override is not None and len(self.energy_override) != len(modes):
            raise ValueError("energy_override must list one entry per mode")

    def __len__(self) -> int:
        return len(self.modes)

    @property
    def spatial_box(self) -> float:
        return float(self.M_sites) if self.M_sites is not None else self.T

    def omega(self, k: int) -> float:
        return 2.0 * math.pi * self.modes[k][0] / self.T

    def momentum(self, k: int) -> tuple[float, ...]:
        """Spatial momentum; on a site lattice, labels are centered mod M.

        On a ring of M sites, labels n and n - M name the same mode, so
        the dispersion uses the first-zone representative (keeping
        E_p = E_{-p} exact, which the propagator's x <-> y symmetry
        relies on).  Continuum-style grids (no M_sites) keep raw labels.
        """
        box = self.spatial_box
        if self.M_sites is not None:
            M = self.M_sites
            return tuple(
                2.0 * math.pi * (((n + M // 2) % M) - M // 2) / box
                for n in self.modes[k][1:]
            )
        return tuple(2.0 * math.pi * n / box for n in self.modes[k][1:])

    def energy(self, k: int) -> float:
        if self.energy_override is not None and self.energy_override[k] is not None:
            return float(self.energy_override[k])
        p2 = sum(p * p for p in self.momentum(k))
        return math.sqrt(p2 + self.m * self.m)

    def gap(self, k: int) -> float:
        return self.omega(k) - self.energy(k)

    @cached_property
    def towers(self) -> MappingProxyType:
        """tower_slices(self) as a read-only map, built on first use and kept."""
        return MappingProxyType(tower_slices(self))


def frequency_window(N: int) -> list[int]:
    """The canonical N-point integer frequency labels (fftfreq set, ascending).

    Built directly in integer arithmetic: float fftfreq values scaled
    back by N truncate unreliably for N in the tens of thousands.
    """
    return list(range(-(N // 2), N - N // 2))


def frequency_tower(
    T: float,
    tau: float,
    spatial: Sequence[tuple[int, ...]] = ((),),
    M_sites: Optional[int] = None,
    energies: Optional[Sequence[float]] = None,
) -> ModeGrid:
    """Full frequency grid (N = T/tau labels) over each listed spatial index.

    The grid is massless (a mode's energy is |p|) unless `energies` lists
    one energy per *spatial* index, broadcast across the tower (the
    frequency label does not change a mode's energy).  This is the grid
    shape that gaussian.feynman_propagator_grid reads: one tower per
    site class, whose energy it passes to gaussian.line_table.
    """
    ratio = T / tau
    N = round(ratio)
    if abs(ratio - N) > 1e-9 or N < 1:
        raise ValueError(f"T/tau = {ratio} must be a positive integer slice count")
    spatial = [tuple(int(c) for c in s) for s in spatial]
    if energies is not None and len(energies) != len(spatial):
        raise ValueError("need one energy per spatial index")
    modes = []
    override = [] if energies is not None else None
    for j, sp in enumerate(spatial):
        for n0 in frequency_window(N):
            modes.append((n0, *sp))
            if override is not None:
                override.append(float(energies[j]))
    return ModeGrid(T, tuple(modes), 0.0, M_sites, tuple(override) if override else None)


def tower_slices(grid: ModeGrid) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Group mode positions by spatial index, each sorted by n0.

    Raises if any spatial group is not a complete canonical frequency
    window (the tower structure the resummed correlators rely on).
    `grid.towers` memoizes this per grid instance (a raise is not kept).
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for k, mode in enumerate(grid.modes):
        groups.setdefault(mode[1:], []).append(k)
    for sp, idxs in groups.items():
        idxs.sort(key=lambda k: grid.modes[k][0])
        labels = [grid.modes[k][0] for k in idxs]
        if labels != frequency_window(len(labels)):
            raise ValueError(f"spatial index {sp} does not carry a full frequency window")
    return {sp: tuple(idxs) for sp, idxs in groups.items()}
