"""Normalized spacetime density operators over time slices.

A single operator R on h^{⊗N} encodes a whole finite history: its
slice marginals are the Schrödinger-evolved states, ordinary two-point
functions appear as traces against slice-local insertions with time
ordering built in, and the antihermitian part witnesses causal order.

Construction: with V = exp(-i eps H) and the cyclic slice shift C,

    R ∝ embed(|psi0><psi0| · V^{-N}, 0) · C · (V ⊗ ... ⊗ V),

normalized to unit trace.  The boundary factor V^{-N} = exp(+i eps N H)
undoes the net winding of the cycle so that Tr[R · embed(A, s)] equals
<psi|A_H(eps s)|psi> exactly; with it, all slice marginals are genuine
pure-state projectors even though R itself is not hermitian.

R is stored dense, and each read of it costs what its answer needs.
Since C carries slice N-1 to slice 0, the boundary moves through E
onto the last slice,

    embed(b, 0) · E = E · embed(V†·b·V, N-1),      b = |psi0><psi0| · V^{-N},

so R is built as QuantumAction.dense({N-1: V†·b·V}): one kron of
timeslab's fused slice-group blocks (the all-V blocks kept on the
action, the last group's built with the boundary), written once into a
fresh buffer with its rows in C's order, then scaled by its trace in
place, write-protected and kept by the Operator as it is; one D x D
buffer in all, no D x D matrix product and no kron chain over slices.
The state alone knows how R's index space factors: one factor per
slice, or one per (slice, site) cell when `site_dims` splits each
slice into sites.  Every read of R onto cells (slice marginals, region
reductions and the causality witness) goes through one reduction,
`_reduce`, which checks the cells against the N x sites grid, maps them
to factors and takes one partial trace (an einsum that reads only the
traced factors' diagonal).  The witness is then one einsum of A ⊗ B
against the antihermitian part of R's reduction onto slices 0 and t.
Powers are never multiplied out densely.  The boundary is rank one,
V†·b·V / Tr = V†|psi0><omega| with <omega| = <psi0|·V^{-N}·V / Tr,
and V carries V†|psi0> back to |psi0> on slice N-1, which C moves to
slice 0; so left multiplication by R needs only the bra the state
keeps,

    R · M = |psi0> ⊗ [V^{⊗(N-1)} · (I ⊗ <omega|) · M] = |psi0> ⊗ _head(M):

one matmul contracts M's last row slice axis with <omega|, and the
fused V-groups of slices 0..N-2 act on the D/d-row result
(QuantumAction.apply_head, ⌈(N-1)/g⌉ matmuls of d^g <= 16 per column
instead of O(D³)).  Every row of R lies on |psi0> in slice 0, and
psi0 is normalized, so with P = |psi0> ⊗ I (D x D/d) R = P·W for
W = P†·R, and

    Tr R^k = Tr T_1^k,      T_1 = P†·R·P,

the D/d x D/d compression of R (`_compress`).  Its powers form one
chain, T_{j+1} = T_1·T_j = _head(|psi0> ⊗ T_j), and the trace sums
two of them,

    Tr R^k = sum_ij (T_a)_ij (T_b)_ji,      a = ceil(k/2), b = floor(k/2),

T_b met on the way to T_a: one chain for every k, and no D x D
matrix formed but the stored R.  T_1 is read from the stored R and
both halves are powers of it, so a fault in R shows at every k.  The
chain to T_a gives two powers, k = 2a - 1 (T_a against T_{a-1}) and
k = 2a (T_a against itself); the state keeps both traces, scalars
only, so asking for k = 1..6 builds three chains.
The sum reads its second factor transposed, so it runs over t x t
tiles (t the largest divisor of D/d up to 32): tile (I, J) of one
half meets tile (J, I) of the other, and the transposed read walks
rows of t entries instead of striding a whole row per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .linalg import Ket, Operator, expm, partial_trace
from .timeslab import QuantumAction, SliceLayout, build_action

_TILE = 32  # largest tile edge in the tiled Tr[A·B] of the trace powers


@dataclass(frozen=True)
class SpacetimeState:
    """Unit-trace (generally non-hermitian) operator over N time slices.

    `site_dims` optionally factorizes each slice into spatial sites,
    enabling reductions onto spacetime regions of (slice, site) cells;
    without it a slice is one site.
    `action` is the slab action E that R was built from, and `omega`
    holds the entries of the bra <omega| = <psi0|·V^{-N}·V / Tr, a
    read-only d-vector: R's last-slice factor is the rank-one
    V†|psi0><omega|, so R · M = |psi0> ⊗ [V^{⊗(N-1)} · (I ⊗ <omega|) · M].
    `_trace_powers` holds the values Tr R^k that `power_and_pseudoentropy`
    has read, scalars only; `dataclasses.replace` starts it empty.
    """

    R: Operator
    action: QuantumAction
    omega: np.ndarray
    psi0: Ket
    site_dims: Optional[tuple[int, ...]] = None
    _trace_powers: dict[int, complex] = field(default_factory=dict, init=False, repr=False,
                                              compare=False)

    @property
    def layout(self) -> SliceLayout:
        return self.action.layout

    @property
    def sites(self) -> tuple[int, ...]:
        """Dimension of each site of one slice: `site_dims`, or (d,) for a one-site slice."""
        return self.site_dims or (self.layout.d,)

    @property
    def H(self) -> Operator:
        return self.action.H

    @property
    def N(self) -> int:
        return self.layout.N

    @property
    def eps(self) -> float:
        return self.layout.eps

    def evolved(self, t: int) -> Ket:
        """Schrödinger oracle exp(-i H eps t)|psi0>."""
        U = expm(-1j * self.eps * t * self.H)
        return U @ self.psi0


def build_R(
    psi0: Ket,
    H: Operator,
    eps: float,
    N: int,
    site_dims: Optional[Sequence[int]] = None,
) -> SpacetimeState:
    """Assemble and normalize the spacetime state for (psi0, H, eps, N).

    R_raw = E · embed(V†·b·V, N-1) comes from one dense build of the
    action, and its trace scales it in place; the buffer is then
    write-protected and becomes R's Operator without a copy.  The state
    keeps the bra <omega| = <psi0|·V^{-N}·V divided by the same trace,
    all that its left multiplications read of the boundary.
    """
    if abs(psi0.norm() - 1.0) > 1e-12:
        raise ValueError("psi0 must be normalized")
    layout = SliceLayout(d=psi0.dim, N=N, eps=eps)
    if site_dims is not None:
        site_dims = tuple(int(s) for s in site_dims)
        if int(np.prod(site_dims)) != layout.d:
            raise ValueError("site_dims must factorize the slice dimension")
    qa = build_action(layout, H)
    V, unwind = qa.V.mat, expm(1j * eps * N * H)
    # embed(b, 0)·E = E·embed(V†·b·V, N-1), as C carries slice N-1 to 0
    last = V.conj().T @ (psi0.outer() @ unwind).mat @ V
    raw = qa.dense({N - 1: last})
    tr = complex(np.trace(raw))
    if abs(tr) < 1e-14:
        raise ValueError("spacetime state has numerically zero trace")
    raw *= 1.0 / tr
    raw.flags.writeable = False  # R's Operator keeps this buffer, uncopied
    omega = psi0.vec.conj() @ unwind.mat @ V / tr
    omega.flags.writeable = False  # read-only, as R's buffer is
    return SpacetimeState(R=Operator(raw), action=qa, omega=omega, psi0=psi0,
                          site_dims=site_dims)


def _reduce(st: SpacetimeState, cells: Iterable[tuple[int, int]]) -> Operator:
    """Partial trace of R onto the given (slice, site) cells, kept in (slice, site) order.

    The one place that checks cells against the N x sites grid and maps
    them to R's tensor factors: slice-major, so cell (t, x) is factor
    t * sites + x of the site dimensions repeated over the N slices.
    """
    sites = st.sites
    keep = []
    for t, x in cells:
        if not (0 <= t < st.N and 0 <= x < len(sites)):
            raise ValueError(f"cell ({t},{x}) outside the {st.N}x{len(sites)} slice/site grid")
        keep.append(t * len(sites) + x)
    return partial_trace(st.R, sites * st.N, keep)


def marginal(st: SpacetimeState, t: int) -> Operator:
    """Partial trace onto slice t; equals the evolved pure-state projector."""
    return _reduce(st, [(t, x) for x in range(len(st.sites))])


def causality_witness(st: SpacetimeState, A: Operator, B: Operator, t: int = 1) -> complex:
    """Tr[(R - R†) · embed(A,0)·embed(B,t)].

    For hermitian A, B this equals <psi|[B_H(eps t), A]|psi>: the
    difference between the time-ordered and anti-time-ordered pair
    correlators, i.e. a direct witness of causal (non)commutation.
    Evaluated as Tr[(A ⊗ B) · (R_ins - R_ins†)] in one einsum, with
    R_ins = `_reduce` of R onto slices 0 and t: the other slices'
    diagonal blocks are all that is read of them.
    """
    if t <= 0:
        raise ValueError(f"need a strictly later slice 0 < t < {st.N}")
    cells = [(s, x) for s in (0, t) for x in range(len(st.sites))]
    reduced = _reduce(st, cells).mat
    d = st.layout.d
    # sum over i, j, k, l of A_ij · B_kl · (R_ins - R_ins†)[(j,l), (i,k)]
    return complex(np.einsum("ij,kl,jlik->", A.mat, B.mat,
                             (reduced - reduced.conj().T).reshape(d, d, d, d)))


def causality_witness_oracle(st: SpacetimeState, A: Operator, B: Operator, t: int = 1) -> complex:
    """Heisenberg-picture oracle <psi|[B_H(eps t), A]|psi>."""
    Ut = expm(-1j * st.eps * t * st.H).mat
    BH = Ut.conj().T @ B.mat @ Ut
    comm = BH @ A.mat - A.mat @ BH
    return complex(np.vdot(st.psi0.vec, comm @ st.psi0.vec))


def power_and_pseudoentropy(
    st: SpacetimeState, k: int
) -> tuple[Callable[[], Operator], complex]:
    """(R^k on demand, Tr[R^k]).  For pure unitary provenance Tr[R^k] = 1 for all k.

    Tr[R^k] = Tr[T_1^k] for the D/d x D/d compression T_1 = P†·R·P,
    P = |psi0> ⊗ I (`_compress`), since every row of R lies on psi0 in
    slice 0.  One chain T_{j+1} = `_head`(|psi0> ⊗ T_j) gives its
    powers up to a = ceil(k/2), and the trace sums T_a against
    T_b, b = floor(k/2), tile by tile (`_trace_of_product`).  T_1 is
    read from the stored R and both halves are powers of it, so a
    fault in R still shows at every k.  The chain to T_a serves both
    k = 2a - 1 (T_a against T_{a-1}, or Tr T_1 at a = 1) and k = 2a
    (T_a against itself): both values go into the state's
    `_trace_powers`, and a k found there is not read again.  The state
    keeps only these scalars, never a T_j.  The first element is a
    zero-argument callable that builds R^k as |psi0> ⊗ `_head`(R^{k-1})
    from the stored R when called.
    """
    if k < 1:
        raise ValueError("need k >= 1")

    def power() -> Operator:
        M = st.R.mat
        for _ in range(k - 1):
            M = _psi0_rows(st, _head(st, M))
        return Operator(M)

    if k not in st._trace_powers:
        a = (k + 1) // 2
        T = [_compress(st, st.R.mat)]  # T_1, T_2, ..., T_a
        while len(T) < a:
            T.append(_head(st, _psi0_rows(st, T[-1])))
        odd = np.trace(T[0]) if a == 1 else _trace_of_product(T[a - 1], T[a - 2])
        st._trace_powers[2 * a - 1] = complex(odd)
        st._trace_powers[2 * a] = _trace_of_product(T[a - 1], T[a - 1])
    return power, st._trace_powers[k]


def _head(st: SpacetimeState, M: np.ndarray) -> np.ndarray:
    """W with R · M = |psi0> ⊗ W for a (D, m) matrix M: V^{⊗(N-1)} · (I ⊗ <omega|) · M.

    <omega| contracts M's last row slice axis (one matmul) and the fused
    V-groups of slices 0..N-2 act on the D/d-row result
    (`QuantumAction.apply_head`); psi0 belongs on row slice 0, where C
    has carried slice N-1, and is left to the caller.
    """
    d, m = st.layout.d, M.shape[1]
    return st.action.apply_head(np.matmul(st.omega, M.reshape(-1, d, m)))


def _psi0_rows(st: SpacetimeState, W: np.ndarray) -> np.ndarray:
    """|psi0> ⊗ W: the (D/d, m) matrix W with psi0 put on row slice 0."""
    return (st.psi0.vec[:, None, None] * W).reshape(-1, W.shape[1])


def _compress(st: SpacetimeState, M: np.ndarray) -> np.ndarray:
    """P†·M·P for a D x D matrix M, P = |psi0> ⊗ I: the D/d x D/d block on psi0.

    psi0 contracts M's column slice 0 (M·P, D x D/d), then psi0*
    its row slice 0.
    """
    psi, d = st.psi0.vec, st.layout.d
    n = len(M) // d
    MP = np.matmul(psi, M.reshape(len(M), d, n))
    return np.matmul(psi.conj(), MP.reshape(d, -1)).reshape(n, n)


def _trace_of_product(A: np.ndarray, B: np.ndarray) -> complex:
    """Tr[A·B] = sum_ij A_ij B_ji for two n x n matrices, read tile by tile.

    Both are viewed as grids of t x t tiles, t the largest divisor of
    n up to _TILE, and tile (I, J) of A meets tile (J, I) of B: the
    transposed read of B then walks rows of t entries instead of
    jumping a whole row of B per entry.  Each tile pair is summed on
    its own and the partial sums pairwise, which keeps the rounding
    near that of the untiled sum.
    """
    n = len(A)
    t = max(s for s in range(1, min(n, _TILE) + 1) if n % s == 0)
    m = n // t
    tiles = np.einsum("IiJj,JjIi->IJ", A.reshape(m, t, m, t), B.reshape(m, t, m, t))
    return complex(tiles.sum())


def renyi_pseudoentropy(st: SpacetimeState, k: int) -> complex:
    """-(1/(k-1))·log Tr[R^k] for integer k >= 2; vanishes for pure histories."""
    if k < 2:
        raise ValueError("Rényi order must be >= 2")
    _, tr = power_and_pseudoentropy(st, k)
    return complex(-np.log(tr) / (k - 1))


@dataclass(frozen=True)
class RegionReport:
    """Reduction of a spacetime state onto a set of (slice, site) cells."""

    operator: Operator
    region: tuple[tuple[int, int], ...]
    herm_deviation: float  # ||R_reg - R_reg†|| / ||R_reg||, Frobenius
    spectrum: tuple[complex, ...]  # eigenvalues, sorted by real part descending

    @property
    def is_state_like(self) -> bool:
        """Hermitian to 1e-10 with spectrum >= -1e-10 and unit trace."""
        eigs = np.array(self.spectrum)
        tr_ok = abs(np.sum(eigs) - 1.0) <= 1e-10
        return self.herm_deviation <= 1e-10 and float(np.min(eigs.real)) >= -1e-10 and tr_ok


def reduce_to_region(st: SpacetimeState, region: Iterable[tuple[int, int]]) -> RegionReport:
    """Partial trace onto the given spacetime region, with diagnostics.

    Equal-time regions always come out as valid density operators;
    regions extended across slices generically pick up a nonzero
    hermiticity deviation — that deviation is the point of the report.
    """
    cells = tuple(sorted(set((int(a), int(b)) for a, b in region)))
    if not cells:
        raise ValueError("region must contain at least one (slice, site) cell")
    reduced = _reduce(st, cells)
    num = np.linalg.norm(reduced.mat - reduced.mat.conj().T)
    den = np.linalg.norm(reduced.mat)
    eigs = np.linalg.eigvals(reduced.mat)
    eigs = tuple(sorted((complex(z) for z in eigs), key=lambda z: -z.real))
    return RegionReport(
        operator=reduced,
        region=cells,
        herm_deviation=float(num / den) if den else 0.0,
        spectrum=eigs,
    )
