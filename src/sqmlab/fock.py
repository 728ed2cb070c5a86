"""Truncated bosonic ladders on a time-sliced mode lattice.

One bosonic mode per (time slice t, spatial momentum p), with the
canonical algebra holding in Kronecker form up to the usual truncation
edge [a, a†] = I - (n_max+1)|n_max><n_max| per mode.

The headline computation is the conditioning anomaly: a one-particle,
on-shell history state reproduces standard expectation values for
normal-ordered slice observables exactly, while a non-normal-ordered
probe picks up an internal contraction that grows linearly with the
number of slices at fixed window T.  Each probe takes an `engine`: the
default "sector", which the anomaly scan runs, is an exact particle-
number-sector representation (vacuum/one/two-particle blocks) with no
truncation error, scaling to the N of the anomaly scans; "dense", a
truncated-Fock representation, is an independent coding of the same
lattice that the tests and the benchmark compare against it.
The dense engine applies each single-leg ladder to the state viewed as
an (n_max+1)^L occupation tensor, on that leg's axis, so a probe costs
O(D) and no D x D operator is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Ket

DENSE_DIM_CAP = 4096


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

    @property
    def leg_dims(self) -> tuple[int, ...]:
        return (self.n_max + 1,) * self.legs

    def leg(self, t: int, p: int) -> int:
        if not (0 <= t < self.N and 0 <= p < self.M):
            raise ValueError(f"mode (t={t}, p={p}) outside the {self.N}x{self.M} lattice")
        return t * self.M + p


def _single_ladder(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), 1)


def _check_dense_cap(lf: LatticeFock) -> None:
    if lf.dense_dim > DENSE_DIM_CAP:
        raise ValueError(f"dense space of dim {lf.dense_dim} exceeds cap {DENSE_DIM_CAP}")


def _apply_leg(lf: LatticeFock, op: np.ndarray, leg: int, v: np.ndarray) -> np.ndarray:
    """Apply the single-leg operator `op` to the dense state v on axis `leg`.

    Equals kron(I, op, I) @ v without forming the D x D operator: v is
    viewed as an (n_max+1)^L occupation tensor and `op` contracts its
    leg axis, O(D * (n_max+1)) per call.
    """
    psi = np.moveaxis(v.reshape(lf.leg_dims), leg, 0)
    return np.moveaxis(np.tensordot(op, psi, axes=1), 0, leg).reshape(-1)


def vacuum(lf: LatticeFock) -> Ket:
    v = np.zeros(lf.dense_dim)
    v[0] = 1.0
    return Ket(v, lf.leg_dims)


# ---------------------------------------------------------------------------
# exact particle-number-sector engine (vacuum / 1-particle / 2-particle)


class SectorFock:
    """Exact <= 2-particle bosonic representation over L legs.

    Basis: [vacuum] + [|leg i>] + [|leg i, leg j>, i <= j]; dimension
    1 + L + L(L+1)/2.  No truncation error for the states reachable from
    at most two creation operators, which is all the anomaly check needs
    at any N.
    """

    def __init__(self, legs: int):
        self.L = legs
        self.pair_index = {}
        k = 1 + legs
        for i in range(legs):
            for j in range(i, legs):
                self.pair_index[(i, j)] = k
                k += 1
        self.dim = k

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def create(self, leg: int, v: np.ndarray) -> np.ndarray:
        """Apply a†(leg); raises if any amplitude would leave the 2-sector."""
        out = np.zeros_like(v)
        out[1 + leg] += v[0]
        for i in range(self.L):
            amp = v[1 + i]
            if amp == 0.0:
                continue
            a, b = sorted((i, leg))
            out[self.pair_index[(a, b)]] += amp * (math.sqrt(2.0) if i == leg else 1.0)
        if np.any(v[1 + self.L :]):
            raise ValueError("creation would exceed the two-particle sector")
        return out

    def annihilate(self, leg: int, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        out[0] += v[1 + leg]
        for (i, j), k in self.pair_index.items():
            amp = v[k]
            if amp == 0.0:
                continue
            if i == j == leg:
                out[1 + leg] += amp * math.sqrt(2.0)
            elif i == leg:
                out[1 + j] += amp
            elif j == leg:
                out[1 + i] += amp
        return out


def _one_particle_history(lf: LatticeFock, p: int, engine: str):
    """(engine object or lf, state vector) for the on-shell one-particle history."""
    E = lf.energies[p]
    phases = np.exp(-1j * E * lf.eps * np.arange(lf.N)) / math.sqrt(lf.N)
    if engine == "dense":
        vac = vacuum(lf).vec
        adag = _single_ladder(lf.n_max).T
        v = np.zeros(lf.dense_dim, dtype=complex)
        for t in range(lf.N):
            v += phases[t] * _apply_leg(lf, adag, lf.leg(t, p), vac)
        return None, v
    sf = SectorFock(lf.legs)
    v = np.zeros(sf.dim, dtype=complex)
    for t in range(lf.N):
        v[1 + lf.leg(t, p)] = phases[t]
    return sf, v


def _check_engine(lf: LatticeFock, engine: str) -> None:
    if engine not in ("dense", "sector"):
        raise ValueError("engine must be 'dense' or 'sector'")
    if engine == "dense":
        _check_dense_cap(lf)  # before any D-vector is allocated


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

    Both engines evaluate the slab value as a norm, N*||a v||^2 for the
    normal-ordered probe and N*||a† v||^2 for the other, with the single
    ladder applied to the state (the dense engine on the leg's axis of
    the occupation tensor, the sector engine in its pair basis).
    """
    if not 0 <= t < lf.N:
        raise ValueError(f"slice {t} out of range")
    if not normal_ordered and lf.n_max < 2:
        raise ValueError("non-normal-ordered probe needs n_max >= 2 for the oracle")
    _check_engine(lf, engine)
    sf, v = _one_particle_history(lf, p, engine)
    leg = lf.leg(t, p)
    if engine == "dense":
        a = _single_ladder(lf.n_max)
        w = _apply_leg(lf, a if normal_ordered else a.T, leg, v)
    else:
        w = (sf.annihilate if normal_ordered else sf.create)(leg, v)
    # <v|a†a|v> = ||a v||^2 and <v|a a†|v> = ||a† v||^2
    slab = complex(lf.N * np.vdot(w, w))

    # standard single-mode oracle: |psi(t)> = e^{-iE eps t} |1>
    n_loc = lf.n_max + 1
    a1 = _single_ladder(lf.n_max)
    one = np.zeros(n_loc)
    one[1] = 1.0
    psi_t = np.exp(-1j * lf.energies[p] * lf.eps * t) * one
    op1 = a1.T @ a1 if normal_ordered else a1 @ a1.T
    standard = complex(np.vdot(psi_t, op1 @ psi_t))
    return slab, standard


def internal_contraction(lf: LatticeFock, engine: str = "sector") -> float:
    """<vac|a(0,0) a†(0,0)|vac> / eps — the equal-point contraction density.

    The raw contraction is exactly 1; dividing by the slice width gives
    1/eps = N/T, the quantity that makes the conditioning anomaly grow
    with slice count at fixed window.
    """
    _check_engine(lf, engine)
    if engine == "dense":
        w = _apply_leg(lf, _single_ladder(lf.n_max).T, lf.leg(0, 0), vacuum(lf).vec)
    else:
        sf = SectorFock(lf.legs)
        w = sf.create(lf.leg(0, 0), sf.vacuum())
    raw = float(np.real(np.vdot(w, w)))
    return raw / lf.eps


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
