"""Truncated bosonic ladders on a time-sliced mode lattice.

One bosonic mode per (time slice t, spatial momentum p), with the
canonical algebra holding per mode up to the usual truncation edge
[a, a†] = I - (n_max+1)|n_max><n_max|.

The headline computation is the conditioning anomaly: a one-particle,
on-shell history state reproduces standard expectation values for
normal-ordered slice observables exactly, while a non-normal-ordered
probe picks up an internal contraction that grows linearly with the
number of slices at fixed window T.

Two engines code the lattice's states, behind one interface: `vacuum()`,
`one_particle(amps)`, `create(leg, v)` and `annihilate(leg, v)`, all on
flat numpy vectors whose `np.vdot` is the inner product.  `SectorFock`
(engine "sector", the default) is exact in the vacuum, one- and
two-particle sectors, with no truncation error, and holds 1 + L + L^2
amplitudes, capped at SECTOR_LEG_CAP legs;
`DenseFock` (engine "dense") is the truncated Fock space itself, an
(n_max+1)^L occupation tensor, capped at DENSE_DIM_CAP amplitudes.
Each probe takes an `engine` name and `_engine` alone turns it into an
engine; the standard single-mode oracle uses neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DENSE_DIM_CAP = 4096
SECTOR_LEG_CAP = 1024  # 1 + L + L^2 amplitudes: about 1e6 at the cap


@dataclass(frozen=True)
class LatticeFock:
    """N time slices x M spatial modes of truncated bosonic ladders.

    energies[p] is the energy E_p attached to spatial mode p; the
    one-particle history carries the phase e^{-i E_p eps t} on slice t.
    Leg order is slice-major: leg index = t*M + p.
    """

    N: int
    M: int
    energies: tuple[float, ...]
    n_max: int = 3
    eps: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        if len(self.energies) != self.M:
            raise ValueError("need one energy per spatial mode")
        if self.n_max < 1 or self.N < 1 or self.M < 1:
            raise ValueError("N, M, n_max must be positive")

    @property
    def legs(self) -> int:
        return self.N * self.M

    @property
    def dense_dim(self) -> int:
        return (self.n_max + 1) ** self.legs

    def leg(self, t: int, p: int) -> int:
        if not (0 <= t < self.N and 0 <= p < self.M):
            raise ValueError(f"mode (t={t}, p={p}) outside the {self.N}x{self.M} lattice")
        return t * self.M + p


class DenseFock:
    """The truncated Fock space of a lattice: (n_max+1)^L amplitudes.

    A state is the occupation tensor flattened with leg 0 slowest.  A
    ladder on one leg moves that axis by one level and weights it by
    sqrt(n) for the higher level n, O(D) per call; no D x D operator is
    formed.  Refuses lattices past DENSE_DIM_CAP before any vector exists.
    """

    def __init__(self, lf: LatticeFock):
        if lf.dense_dim > DENSE_DIM_CAP:
            raise ValueError(f"dense space of dim {lf.dense_dim} exceeds cap {DENSE_DIM_CAP}")
        self.L = lf.legs
        self.levels = lf.n_max + 1
        self.dim = lf.dense_dim
        self._root = np.sqrt(np.arange(1, self.levels))[:, np.newaxis]

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def one_particle(self, amps: np.ndarray) -> np.ndarray:
        """sum_leg amps[leg] a†(leg)|vac>; one quantum on leg sits at levels^(L-1-leg)."""
        v = np.zeros(self.dim, dtype=complex)
        v[self.levels ** np.arange(self.L - 1, -1, -1)] = amps
        return v

    def create(self, leg: int, v: np.ndarray) -> np.ndarray:
        psi = v.reshape(self.levels**leg, self.levels, -1)  # (before, leg, after)
        out = np.zeros_like(psi)
        out[:, 1:] = self._root * psi[:, :-1]
        return out.reshape(-1)

    def annihilate(self, leg: int, v: np.ndarray) -> np.ndarray:
        psi = v.reshape(self.levels**leg, self.levels, -1)
        out = np.zeros_like(psi)
        out[:, :-1] = self._root * psi[:, 1:]
        return out.reshape(-1)


class SectorFock:
    """Exact <= 2-particle bosonic representation over L legs.

    A state [c] + [u_i] + [S_ij] (S symmetric L x L, flattened) means
    c|vac> + sum_i u_i a†_i|vac> + (1/sqrt 2) sum_ij S_ij a†_i a†_j|vac>;
    the 1/sqrt 2 makes sum_ij |S_ij|^2 the norm of the pair part.
    Dimension 1 + L + L^2.  No truncation error for the states reachable
    from at most two creation operators, which is all the anomaly check
    needs.  Refuses more than SECTOR_LEG_CAP legs before any vector
    exists.
    """

    def __init__(self, legs: int):
        if legs > SECTOR_LEG_CAP:
            raise ValueError(f"sector space of {legs} legs exceeds cap {SECTOR_LEG_CAP}")
        self.L = legs
        self.dim = 1 + legs + legs * legs

    def _pairs(self, v: np.ndarray) -> np.ndarray:
        return v[1 + self.L :].reshape(self.L, self.L)

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def one_particle(self, amps: np.ndarray) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[1 : 1 + self.L] = amps
        return v

    def create(self, leg: int, v: np.ndarray) -> np.ndarray:
        """Apply a†(leg); raises if any amplitude would leave the 2-sector."""
        if np.any(self._pairs(v)):
            raise ValueError("creation would exceed the two-particle sector")
        out = np.zeros_like(v)
        out[1 + leg] = v[0]
        # a†_l sum_i u_i a†_i|vac> has S = (e_l u^T + u e_l^T) / sqrt 2
        one = v[1 : 1 + self.L] / math.sqrt(2.0)
        pairs = self._pairs(out)
        pairs[leg] += one
        pairs[:, leg] += one
        return out

    def annihilate(self, leg: int, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        out[0] = v[1 + leg]
        out[1 : 1 + self.L] = math.sqrt(2.0) * self._pairs(v)[leg]
        return out


def _engine(lf: LatticeFock, engine: str) -> DenseFock | SectorFock:
    """The engine a probe runs on, by name: "sector" or "dense"."""
    if engine == "sector":
        return SectorFock(lf.legs)
    if engine == "dense":
        return DenseFock(lf)
    raise ValueError("engine must be 'dense' or 'sector'")


def naive_conditioning_check(
    lf: LatticeFock,
    t: int,
    normal_ordered: bool,
    p: int = 0,
    engine: str = "sector",
) -> tuple[complex, complex]:
    """(slab value, standard oracle) for a slice-t number-type probe.

    The slab side prepares |Psi> = (1/sqrt(N)) sum_t e^{-i E_p eps t}
    a†(t,p)|vac> and evaluates N*<Psi|O(t)|Psi> (the factor N undoing
    the flat window weight), with O = a†(t,p)a(t,p) when normal_ordered
    else a(t,p)a†(t,p).  The oracle side evolves a single-mode
    one-particle state and measures a†a or a a†.

    Normal-ordered probes agree exactly.  The non-normal probe comes
    out N+1 against the standard 2: the internal contraction
    <vac|a(t,p)a†(t,p)|vac> = 1 on every slice survives conditioning
    and contributes an extra N-1.

    Either engine evaluates the slab value as a norm, N*||a v||^2 for
    the normal-ordered probe and N*||a† v||^2 for the other.
    """
    if not normal_ordered and lf.n_max < 2:
        raise ValueError("non-normal-ordered probe needs n_max >= 2 for the oracle")
    leg = lf.leg(t, p)
    fk = _engine(lf, engine)
    E = lf.energies[p]
    amps = np.zeros(lf.legs, dtype=complex)
    amps[p :: lf.M] = np.exp(-1j * E * lf.eps * np.arange(lf.N)) / math.sqrt(lf.N)
    w = (fk.annihilate if normal_ordered else fk.create)(leg, fk.one_particle(amps))
    # <v|a†a|v> = ||a v||^2 and <v|a a†|v> = ||a† v||^2
    slab = complex(lf.N * np.vdot(w, w))

    # standard single-mode oracle: |psi(t)> = e^{-iE eps t} |1>
    a1 = np.diag(np.sqrt(np.arange(1, lf.n_max + 1)), 1)
    one = np.zeros(lf.n_max + 1)
    one[1] = 1.0
    psi_t = np.exp(-1j * E * lf.eps * t) * one
    op1 = a1.T @ a1 if normal_ordered else a1 @ a1.T
    standard = complex(np.vdot(psi_t, op1 @ psi_t))
    return slab, standard


def internal_contraction(lf: LatticeFock, engine: str = "sector") -> float:
    """<vac|a(0,0) a†(0,0)|vac> / eps — the equal-point contraction density.

    The raw contraction is exactly 1; dividing by the slice width gives
    1/eps = N/T, the quantity that makes the conditioning anomaly grow
    with slice count at fixed window.
    """
    fk = _engine(lf, engine)
    w = fk.create(lf.leg(0, 0), fk.vacuum())
    return float(np.real(np.vdot(w, w))) / lf.eps


def anomaly_mismatch(lf: LatticeFock, *, engine: str = "sector") -> dict:
    """Slab-vs-standard summary for the slice-0, mode-0 probes of one lattice.

    Returns the normal-ordered pair (which must agree), the
    non-normal-ordered pair, and their mismatch N - 1.
    """
    ext_n, std_n = naive_conditioning_check(lf, 0, True, engine=engine)
    ext_w, std_w = naive_conditioning_check(lf, 0, False, engine=engine)
    return {
        "normal_slab": ext_n,
        "normal_standard": std_n,
        "nonnormal_slab": ext_w,
        "nonnormal_standard": std_w,
        "mismatch": ext_w - std_w,
        "contraction_density": internal_contraction(lf, engine),
    }


def predicted_mismatch_ratio(N: int) -> float:
    """Predicted mismatch(2N)/mismatch(N) at fixed window T.

    mismatch(N) = (N·<a a†>_slab - 2) = (N+1) - 2 = N - 1, driven by the
    internal contraction (one unit per slice, conditioned back up by N,
    spread over N slices).  Hence the ratio (2N-1)/(N-1), approaching 2
    from above as the slicing is refined.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    return (2 * N - 1) / (N - 1)
