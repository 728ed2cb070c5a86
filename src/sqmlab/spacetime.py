"""Normalized spacetime density operators over time slices.

A single operator R on h^{⊗N} encodes a whole finite history: its
slice marginals are the Schrödinger-evolved states, ordinary two-point
functions appear as traces against slice-local insertions with time
ordering built in, and the antihermitian part witnesses causal order.

Construction: with V = exp(-i eps H) (`linalg.unitary`, as are the
boundary's exp(+i eps N H) and the oracles' exp(-i eps t H)) and the
cyclic slice shift C,

    R ∝ embed(|psi0><psi0| · V^{-N}, 0) · C · (V ⊗ ... ⊗ V),

normalized to unit trace.  The boundary factor V^{-N} = exp(+i eps N H)
undoes the net winding of the cycle so that Tr[R · embed(A, s)] equals
<psi|A_H(eps s)|psi> exactly; with it, all slice marginals are genuine
pure-state projectors even though R itself is not hermitian.

R is stored dense, and each read of it costs what its answer needs.
Since C carries slice N-1 to slice 0, the boundary moves through E
onto the last slice,

    embed(b, 0) · E = E · embed(V†·b·V, N-1),      b = |psi0><psi0| · V^{-N},

and V†·b·V is rank one, V†|psi0><psi0|·V^{-N}·V.  The normalizing
trace Tr[E · embed(V†·b·V, N-1)] is read first, as the sum of D
diagonal entries (QuantumAction.diagonal); with <omega| =
<psi0|·V^{-N}·V / Tr, R is then QuantumAction.dense({N-1:
V†|psi0><omega|}): one kron of timeslab's fused slice-group blocks
(the all-V powers kept on the action, the last group's built with the
boundary), written once into a fresh buffer with its rows in C's order,
write-protected and kept by the Operator as it is; one D x D buffer in
all, no second pass over it, no D x D matrix product and no kron chain
over slices.
The state alone knows how R's index space factors: one factor per
slice, or one per (slice, site) cell when `site_dims` splits each
slice into sites.  Every read of R onto cells (slice marginals, region
reductions and the causality witness) goes through one reduction,
`_reduce`, which checks the cells against the N x sites grid, maps them
to factors and takes one partial trace (an einsum that reads only the
traced factors' diagonal).  The witness is then one einsum of A ⊗ B
against the antihermitian part of R's reduction onto slices 0 and t.
Powers are never multiplied out densely.  V carries V†|psi0> back to
|psi0> on slice N-1, which C moves to slice 0, so every row of R lies
on |psi0> in slice 0; psi0 is normalized, so with P = |psi0> ⊗ I
(D x D/d) R = P·W for W = P†·R, and

    Tr R^k = Tr T_1^k,      T_1 = P†·R·P,

the D/d x D/d compression of R (`_compress`).  Its powers form one
chain T_{j+1} = T_1·T_j, and the step is a Kronecker product of small
factors (Van Loan, J. Comput. Appl. Math. 123, 85 (2000)): R·P =
|psi0> ⊗ [V^{⊗(N-1)} · (I ⊗ <omega|) · P], so

    T_1 = V^{⊗(N-1)} · (|psi0> ⊗ I ⊗ <omega|),

one factor per fused head group of slices 0..N-2 (`_step_factors`):
the first group's block times |psi0> ⊗ I (d^g x d^(g-1)), the middle
blocks as they are, the last one's block ⊗ <omega| (d^g' x d^(g'+1));
with one head group both folds land on one factor, and at N = 1 the
step is the scalar <omega|psi0>.  A step is timeslab's one
Kronecker-factor apply, `_kron_apply`: the shrinking <omega| factor
acts first and the widening psi0 one last, so no intermediate has more
than D/d rows.  The trace sums two powers,

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

from .linalg import Ket, Operator, partial_trace, unitary
from .timeslab import QuantumAction, SliceLayout, _kron_apply, build_action

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
    V†|psi0><omega|, so T_1 = P†·R·P = V^{⊗(N-1)} · (|psi0> ⊗ I ⊗ <omega|).
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
        return Ket(unitary(self.H, self.eps * t).mat @ self.psi0.vec)


def build_R(
    psi0: Ket,
    H: Operator,
    eps: float,
    N: int,
    site_dims: Optional[Sequence[int]] = None,
) -> SpacetimeState:
    """Assemble and normalize the spacetime state for (psi0, H, eps, N).

    The boundary V†·b·V is rank one, V†|psi0><psi0|·V^{-N}·V.  Its trace
    against E, Tr R_raw, is read first from D entries
    (`QuantumAction.diagonal`); the bra <omega| = <psi0|·V^{-N}·V / Tr
    then carries 1/Tr, and R = E · embed(V†|psi0><omega|, N-1) comes from
    one dense build of the action, written once and never rescaled.  The
    buffer is write-protected and becomes R's Operator without a copy;
    the state keeps <omega|, all that its powers read of the boundary.
    """
    if abs(np.linalg.norm(psi0.vec) - 1.0) > 1e-12:
        raise ValueError("psi0 must be normalized")
    layout = SliceLayout(d=len(psi0.vec), N=N, eps=eps)
    if site_dims is not None:
        site_dims = tuple(int(s) for s in site_dims)
        if int(np.prod(site_dims)) != layout.d:
            raise ValueError("site_dims must factorize the slice dimension")
    qa = build_action(layout, H)
    V = qa.V.mat
    # embed(b, 0)·E = E·embed(V†·b·V, N-1), as C carries slice N-1 to 0
    ket, bra = V.conj().T @ psi0.vec, psi0.vec.conj() @ unitary(H, -eps * N).mat @ V
    tr = complex(np.sum(qa.diagonal({N - 1: np.outer(ket, bra)})))  # Tr R_raw
    if abs(tr) < 1e-14:
        raise ValueError("spacetime state has numerically zero trace")
    omega = bra / tr
    omega.flags.writeable = False  # read-only, as R's buffer is
    raw = qa.dense({N - 1: np.outer(ket, omega)})
    raw.flags.writeable = False  # R's Operator keeps this buffer, uncopied
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


def causality_witness(st: SpacetimeState, A: Operator, B: Operator, t: int) -> complex:
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


def causality_witness_oracle(st: SpacetimeState, A: Operator, B: Operator, t: int) -> complex:
    """Heisenberg-picture oracle <psi|[B_H(eps t), A]|psi>."""
    Ut = unitary(st.H, st.eps * t).mat
    BH = Ut.conj().T @ B.mat @ Ut
    comm = BH @ A.mat - A.mat @ BH
    return complex(np.vdot(st.psi0.vec, comm @ st.psi0.vec))


def power_and_pseudoentropy(
    st: SpacetimeState, k: int
) -> tuple[Callable[[], Operator], complex]:
    """(R^k on demand, Tr[R^k]).  For pure unitary provenance Tr[R^k] = 1 for all k.

    Tr[R^k] = Tr[T_1^k] for the D/d x D/d compression T_1 = P†·R·P,
    P = |psi0> ⊗ I (`_compress`), since every row of R lies on psi0 in
    slice 0.  One chain T_{j+1} = T_1·T_j (`_kron_apply` of the Kronecker
    factors of `_step_factors`) gives its powers up to a = ceil(k/2), and the
    trace sums T_a against T_b, b = floor(k/2), tile by tile
    (`_trace_of_product`).  T_1 is read from the stored R and both
    halves are powers of it, so a fault in R still shows at every k.
    The chain to T_a serves both k = 2a - 1 (T_a against T_{a-1}, or
    Tr T_1 at a = 1) and k = 2a (T_a against itself): both values go
    into the state's `_trace_powers`, and a k found there is not read
    again.  The state keeps only these scalars, never a T_j.  The first
    element is a zero-argument callable that builds R^k when called:
    R = P·W with W = P†·R, so R^k = |psi0> ⊗ (T_1^{k-1}·W), k - 1 steps
    of the same chain on the D/d x D matrix W.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    psi, blocks = st.psi0.vec, st.action._head_blocks

    def power() -> Operator:
        D, factors = st.layout.total_dim, _step_factors(blocks, psi, st.omega)
        M = np.matmul(psi.conj(), st.R.mat.reshape(len(psi), -1)).reshape(-1, D)  # P†·R
        for _ in range(k - 1):
            M = _kron_apply(factors, M)
        return Operator((psi[:, None, None] * M).reshape(D, D))

    if k not in st._trace_powers:
        a = (k + 1) // 2
        T = [_compress(st, st.R.mat)]  # T_1, T_2, ..., T_a
        factors = _step_factors(blocks, psi, st.omega) if a > 1 else []
        while len(T) < a:
            T.append(_kron_apply(factors, T[-1]))
        odd = np.trace(T[0]) if a == 1 else _trace_of_product(T[a - 1], T[a - 2])
        st._trace_powers[2 * a - 1] = complex(odd)
        st._trace_powers[2 * a] = _trace_of_product(T[a - 1], T[a - 1])
    return power, st._trace_powers[k]


def _step_factors(blocks: list[np.ndarray], psi0: np.ndarray, omega: np.ndarray) -> list[np.ndarray]:
    """The Kronecker factors of T_1, one per head group (`blocks`), slice 0 first.

    T_1 = V^{⊗(N-1)}·(|psi0> ⊗ I ⊗ <omega|): psi0 fills row slice 0,
    <omega| takes column slice N-2, and I carries each column slice
    i < N-2 to row slice i+1.  By the mixed-product rule T_1 is then the
    Kronecker product of the head groups' all-V blocks with psi0 and
    <omega| folded into the end ones: the last becomes B ⊗ <omega|
    (d^g' x d^(g'+1)), and then the first B·(|psi0> ⊗ I), its first
    column slice contracted with psi0 (d^g x d^(g-1)).  With one head
    group both folds land on it; at N = 1 there is none, and the 1 x 1
    unit in its place becomes the scalar <omega|psi0>.
    """
    factors = list(blocks) or [np.ones((1, 1))]
    last = factors[-1]
    factors[-1] = np.multiply.outer(last, omega).reshape(len(last), -1)
    first = factors[0]
    factors[0] = np.matmul(psi0, first.reshape(len(first), len(psi0), -1))
    return factors


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
