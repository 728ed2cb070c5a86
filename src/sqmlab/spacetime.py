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

so R is built as QuantumAction.dense({N-1: V†·b·V}): one broadcast
kron of timeslab's fused slice-group blocks (the all-V blocks kept on
the action, the last group's built with the boundary) and one roll of
the row slice axes, then scaled by its trace in place and copied once
into the Operator; no D x D matrix product and no kron chain over
slices.  Marginals, region reductions and insertion traces touch only
the diagonal blocks of the traced slices: they are partial traces by
one einsum that reads the traced factors' diagonal, and an insertion
trace is then a trace of the inserted operators against the reduced
state on the inserted slices.  Powers are never multiplied out
densely.  The boundary is rank one, V†·b·V / Tr = V†|psi0><omega|
with <omega| = <psi0|·V^{-N}·V / Tr, and V carries V†|psi0> back to
|psi0> on slice N-1, which C moves to slice 0; so left multiplication
by R needs only the bra the state keeps,

    R · M = |psi0> ⊗ [V^{⊗(N-1)} · (I ⊗ <omega|) · M]:

one matmul contracts M's last row slice axis with <omega|, the fused
V-groups of slices 0..N-2 act on the D/d-row result
(QuantumAction.apply_head, ⌈(N-1)/g⌉ matmuls of d^g <= 16 per column
instead of O(D³)), and one broadcast product with psi0 writes the D
rows already cycled.  Then

    Tr R^k = sum_ij (R^a)_ij (R^b)_ji,      a = ceil(k/2), b = floor(k/2),

with R^a built from the stored R by a-1 such left multiplications and
R^b met on the way, so Tr R^k costs floor((k-1)/2) of them instead of
k-1, each with its group passes on D/d rows.  The
sum reads R^b transposed, so it runs over t x t tiles (t the largest
divisor of D up to 32): tile (I, J) of R^a meets tile (J, I) of R^b,
and the transposed read walks rows of t entries instead of striding a
whole row of R^b per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .linalg import Ket, Operator, expm, partial_trace
from .timeslab import QuantumAction, SliceLayout, build_action, slice_factors

_TILE = 32  # largest tile edge in the tiled Tr[A·B] of the trace powers


@dataclass(frozen=True)
class SpacetimeState:
    """Unit-trace (generally non-hermitian) operator over N time slices.

    `site_dims` optionally factorizes each slice into spatial sites,
    enabling reductions onto spacetime regions of (slice, site) cells.
    `action` is the slab action E that R was built from, and `omega`
    holds the entries of the bra <omega| = <psi0|·V^{-N}·V / Tr, a
    read-only d-vector: R's last-slice factor is the rank-one
    V†|psi0><omega|, so R · M = |psi0> ⊗ [V^{⊗(N-1)} · (I ⊗ <omega|) · M].
    """

    R: Operator
    action: QuantumAction
    omega: np.ndarray
    psi0: Ket
    site_dims: Optional[tuple[int, ...]] = None

    @property
    def layout(self) -> SliceLayout:
        return self.action.layout

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
    action; its trace scales it in place, and the Operator copy carries
    the final dims (site_dims per slice when given).  The state keeps
    the bra <omega| = <psi0|·V^{-N}·V divided by the same trace, all
    that its left multiplications read of the boundary.
    """
    if abs(psi0.norm() - 1.0) > 1e-12:
        raise ValueError("psi0 must be normalized")
    layout = SliceLayout(d=psi0.dim, N=N, eps=eps)
    dims = layout.dims
    if site_dims is not None:
        site_dims = tuple(int(s) for s in site_dims)
        if int(np.prod(site_dims)) != layout.d:
            raise ValueError("site_dims must factorize the slice dimension")
        dims = site_dims * N
    qa = build_action(layout, H)
    V, unwind = qa.V.mat, expm(1j * eps * N * H)
    # embed(b, 0)·E = E·embed(V†·b·V, N-1), as C carries slice N-1 to 0
    last = V.conj().T @ (psi0.outer() @ unwind).mat @ V
    raw = qa.dense({N - 1: last})
    tr = complex(np.trace(raw))
    if abs(tr) < 1e-14:
        raise ValueError("spacetime state has numerically zero trace")
    raw *= 1.0 / tr
    omega = psi0.vec.conj() @ unwind.mat @ V / tr
    omega.flags.writeable = False  # read-only, as R's Operator buffer is
    return SpacetimeState(R=Operator(raw, dims), action=qa, omega=omega, psi0=psi0,
                          site_dims=site_dims)


def _slice_factors(st: SpacetimeState) -> int:
    return len(st.site_dims) if st.site_dims is not None else 1


def marginal(st: SpacetimeState, t: int) -> Operator:
    """Partial trace onto slice t; equals the evolved pure-state projector."""
    if not 0 <= t < st.N:
        raise ValueError(f"slice index {t} out of range [0, {st.N})")
    k = _slice_factors(st)
    keep = range(t * k, (t + 1) * k)
    return partial_trace(st.R, keep)


def insertion_trace(st: SpacetimeState, inserts: Sequence[tuple[Operator, int]]) -> complex:
    """Tr[R · prod_t embed(O_t, t)] — the time-ordered correlator form.

    Evaluated as Tr[(⊗_t F_t) · R_ins], with F_t the product of the
    operators inserted at slice t (in the order given) and R_ins the
    partial trace of R onto the inserted slices, so only the diagonal
    blocks of the other slices are read.
    """
    factors = slice_factors(st.layout, inserts)
    slices = sorted(factors)
    k, m = _slice_factors(st), len(slices)
    reduced = partial_trace(st.R, [t * k + x for t in slices for x in range(k)]).mat
    # sum over a, b of prod_s F_s[a_s, b_s] · R_ins[b, a], without forming ⊗_s F_s
    operands = [reduced.reshape((st.layout.d,) * 2 * m), [*range(m, 2 * m), *range(m)]]
    for s, t in enumerate(slices):
        operands += [factors[t], [s, m + s]]
    return complex(np.einsum(*operands, []))


def causality_witness(st: SpacetimeState, A: Operator, B: Operator, t: int = 1) -> complex:
    """Tr[(R - R†) · embed(A,0)·embed(B,t)].

    For hermitian A, B this equals <psi|[B_H(eps t), A]|psi>: the
    difference between the time-ordered and anti-time-ordered pair
    correlators, i.e. a direct witness of causal (non)commutation.
    Evaluated as Tr[R·X] - conj(Tr[R·X†]) with X = embed(A,0)·embed(B,t),
    both by insertion_trace, so only R's partial trace onto slices 0
    and t is formed.
    """
    if not 0 < t < st.N:
        raise ValueError(f"need a strictly later slice 0 < t < {st.N}")
    forward = insertion_trace(st, [(A, 0), (B, t)])
    return forward - insertion_trace(st, [(A.dag(), 0), (B.dag(), t)]).conjugate()


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

    R^a, a = ceil(k/2), is R·(R·(...·R)) with the stored R as the
    rightmost factor and each left multiplication taken through R's
    rank-one boundary (`_left_multiply`); R^b, b = floor(k/2), is the
    last or the next-to-last matrix of that loop, and Tr[R^k] =
    sum_ij (R^a)_ij (R^b)_ji, summed over t x t tiles of both
    (`_trace_of_product`).  The stored R is a factor of both halves, so
    a fault in it still shows in the trace.  The first element is a
    zero-argument callable that builds R^k by k-1 of the same left
    multiplications when called.
    """
    if k < 1:
        raise ValueError("need k >= 1")

    def power() -> Operator:
        M = st.R.mat
        for _ in range(k - 1):
            M = _left_multiply(st, M)
        return Operator(M, st.R.dims)

    Rb, Ra = None, st.R.mat
    for _ in range((k - 1) // 2):
        Rb, Ra = Ra, _left_multiply(st, Ra)
    if k % 2 == 0:
        Rb = Ra
    tr = np.trace(Ra) if Rb is None else _trace_of_product(Ra, Rb)
    return power, complex(tr)


def _left_multiply(st: SpacetimeState, M: np.ndarray) -> np.ndarray:
    """R · M for a (D, k) matrix M, as |psi0> ⊗ [V^{⊗(N-1)} · (I ⊗ <omega|) · M].

    <omega| contracts M's last row slice axis (one matmul), the fused
    V-groups of slices 0..N-2 act on the D/d-row result
    (`QuantumAction.apply_head`), and one broadcast product puts psi0 on
    slice 0: C has carried slice N-1 there, so the rows come out cycled.
    """
    d, k = st.layout.d, M.shape[1]
    W = st.action.apply_head(np.matmul(st.omega, M.reshape(-1, d, k)))
    return (st.psi0.vec[:, None, None] * W).reshape(-1, k)


def _trace_of_product(A: np.ndarray, B: np.ndarray) -> complex:
    """Tr[A·B] = sum_ij A_ij B_ji, read tile by tile.

    Both D x D arrays are viewed as n x n grids of t x t tiles, t the
    largest divisor of D up to _TILE, and tile (I, J) of A meets tile
    (J, I) of B: the transposed read of B then walks rows of t entries
    instead of jumping a whole row of B per entry.  Each tile pair is
    summed on its own and the n x n partial sums pairwise, which keeps
    the rounding near that of the untiled sum.
    """
    D = len(A)
    t = max(s for s in range(1, min(D, _TILE) + 1) if D % s == 0)
    n = D // t
    tiles = np.einsum("IiJj,JjIi->IJ", A.reshape(n, t, n, t), B.reshape(n, t, n, t))
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
    k = _slice_factors(st)
    for t, x in cells:
        if not (0 <= t < st.N and 0 <= x < k):
            raise ValueError(f"cell ({t},{x}) outside the {st.N}x{k} slice/site grid")
    keep = [t * k + x for t, x in cells]
    reduced = partial_trace(st.R, keep)
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
