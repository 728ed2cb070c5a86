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
(slice, site) cell, its `site_dims` always a tuple that splits each
slice into sites, (d,) when the slice is one site; H, d, N and eps it
reads from its action alone.  Every read of R onto cells (slice
marginals, region reductions and the causality witness) goes through
one reduction, `_reduce`, which checks the cells against the N x sites
grid, maps them to factors and takes one partial trace (an einsum that
reads only the traced factors' diagonal).  The witness is then one einsum of A ⊗ B
against the antihermitian part of R's reduction onto slices 0 and t.
The trace powers never multiply R out densely (only the `power` thunk
of `power_and_pseudoentropy`, which no run calls, does).  V carries
V†|psi0> back to |psi0> on slice N-1, which C moves to slice 0, so
every row of R lies on |psi0> in slice 0; and R = E·embed(V†|psi0><omega|,
N-1), so every column of R lies on <omega| in slice N-1.  psi0 is normalized, and
u = omega* / sum_c |omega_c|^2 has <omega|u> = 1, so R = P·P†·R with
P = |psi0> ⊗ I on slice 0, and R = R·(I ⊗ |u><omega|) on column slice
N-1.  For N >= 2 the two slices are distinct, and

    Tr R^k = Tr S^k,      S = F·R·G,   F = <psi0| ⊗ I ⊗ <omega|,   G = |psi0> ⊗ I ⊗ |u>,

the D/d^2 x D/d^2 compression of R onto slices 1..N-2 (`_compress`);
at N = 1 there is no second slice, and S = <psi0|R|psi0>.  Its powers
form one chain S_{j+1} = S·S_j, and the step is a Kronecker product of
small factors (Van Loan, J. Comput. Appl. Math. 123, 85 (2000)): R =
|psi0> ⊗ [V^{⊗(N-1)} · (I ⊗ <omega|)], the bracket taking all N column
slices to row slices 1..N-1, and <omega|u> = 1, so

    S = (I ⊗ <omega|) · V^{⊗(N-1)} · (|psi0> ⊗ I),

one factor per fused head group of slices 0..N-2 (`_step_factors`):
the first group's block with psi0 contracted into its column slice 0
(d^g x d^(g-1)), the middle blocks as they are, the last one's block
with <omega| contracted into its last row slice (d^(g'-1) x d^g'); with
one head group both folds land on one factor, at N = 2 the step is the
scalar <omega|V|psi0>, and at N = 1 it is <omega|psi0>.  A step is
timeslab's one Kronecker-factor apply, `_kron_apply`: the shrinking
<omega| factor acts first and the widening psi0 one last, so no
intermediate has more than D/d^2 rows.  The trace sums two powers,

    Tr R^k = sum_ij (S_a)_ij (S_b)_ji,      a = ceil(k/2), b = floor(k/2),

S_b met on the way to S_a: one chain for every k, and no D x D
matrix formed but the stored R.  S is read from the stored R, once
per state: `_compress` builds it in row bands, each band the rows of R
that feed it contracted with <omega| on row slice N-1 and <psi0| on
row slice 0, then with psi0 on column slice 0 and u on column slice
N-1.  A band has D/d^4 rows, so that its largest transient, d x rows
x D entries, is S's size over d; but it has at least one row and at
least 2^12 such entries (64 KiB), so that a small R is read in one
band or a few.  S, the one array kept, is write-protected on the
state.  Both halves are powers
of S, so a fault X in R shows at every k unless F·X·G vanishes.  F and
G drop what psi0 annihilates in slice 0 (rows orthogonal to psi0 in
row slice 0, columns that psi0 annihilates in column slice 0), as the
D/d compression P†·R·P would; they also drop what <omega| annihilates
in row slice N-1 and what |u> annihilates in column slice N-1, such as
a term on psi0 in row slice 0 whose column-slice-(N-1) bra b has
sum_c b_c omega_c* = 0.  The trace powers cannot see such a fault; the
slice marginals, which read all of R, do.
The chain to S_a gives two powers, k = 2a - 1 (S_a against S_{a-1})
and k = 2a (S_a against itself); the state keeps both traces beside S,
so asking for k = 1..6 compresses R once and builds three chains from
the kept S.  The sum itself is one einsum over both halves
(`_trace_of_product`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .linalg import Ket, Operator, partial_trace, unitary
from .timeslab import QuantumAction, SliceLayout, _kron_apply, build_action


@dataclass(frozen=True)
class SpacetimeState:
    """Unit-trace (generally non-hermitian) operator over N time slices.

    `site_dims` factorizes each slice into spatial sites, (d,) for a
    one-site slice, so regions are sets of (slice, site) cells.
    `action` is the slab action E that R was built from and the one
    place that holds H and the layout (d, N, eps, D); `omega`
    holds the entries of the bra <omega| = <psi0|·V^{-N}·V / Tr, a
    read-only d-vector: R's last-slice factor is the rank-one
    V†|psi0><omega|, so S = F·R·G = (I ⊗ <omega|) · V^{⊗(N-1)} · (|psi0> ⊗ I).
    `_trace_powers` holds the values Tr R^k that `power_and_pseudoentropy`
    has read, and `_S` (a cached property, not a field) the write-protected
    D/d^2 x D/d^2 compression S of the stored R that they all start from,
    formed at the first read; neither is compared, and `dataclasses.replace`
    starts both empty, so a replaced R is compressed on its own.
    """

    R: Operator
    action: QuantumAction
    omega: np.ndarray
    psi0: Ket
    site_dims: tuple[int, ...]
    _trace_powers: dict[int, complex] = field(default_factory=dict, init=False, repr=False,
                                              compare=False)

    def evolved(self, t: int) -> Ket:
        """Schrödinger oracle exp(-i H eps t)|psi0>."""
        return Ket(unitary(self.action.H, self.action.layout.eps * t).mat @ self.psi0.vec)

    @cached_property
    def _S(self) -> np.ndarray:
        """S = F·R·G of the stored R (`_compress`), formed once per state."""
        return _compress(self, self.R.mat)


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
    Without `site_dims` a slice is one site, stored as (d,); every split
    must have positive entries that multiply out to d.
    """
    if abs(np.linalg.norm(psi0.vec) - 1.0) > 1e-12:
        raise ValueError("psi0 must be normalized")
    layout = SliceLayout(d=len(psi0.vec), N=N, eps=eps)
    site_dims = (layout.d,) if site_dims is None else tuple(int(s) for s in site_dims)
    if any(s < 1 for s in site_dims) or int(np.prod(site_dims)) != layout.d:
        raise ValueError("site_dims must be positive and factorize the slice dimension")
    qa = build_action(layout, H)
    # embed(b, 0)·E = E·embed(V†·b·V, N-1), as C carries slice N-1 to 0
    ket, bra = qa.V.mat.conj().T @ psi0.vec, psi0.vec.conj() @ unitary(H, -eps * N).mat @ qa.V.mat
    tr = complex(np.sum(qa.diagonal({N - 1: np.outer(ket, bra)})))  # Tr R_raw
    if abs(tr) < 1e-14:
        raise ValueError("spacetime state has numerically zero trace")
    omega = bra / tr
    omega.flags.writeable = False  # read-only, as R's buffer is
    raw = qa.dense({N - 1: np.outer(ket, omega)})
    raw.flags.writeable = False  # R's Operator keeps this buffer, uncopied
    return SpacetimeState(R=Operator(raw), action=qa, omega=omega, psi0=psi0, site_dims=site_dims)


def _reduce(st: SpacetimeState, cells: Iterable[tuple[int, int]]) -> Operator:
    """Partial trace of R onto the given (slice, site) cells, kept in (slice, site) order.

    The one place that checks cells against the N x sites grid and maps
    them to R's tensor factors: slice-major, so cell (t, x) is factor
    t * sites + x of the site dimensions repeated over the N slices.
    """
    sites, N = st.site_dims, st.action.layout.N
    keep = []
    for t, x in cells:
        if not (0 <= t < N and 0 <= x < len(sites)):
            raise ValueError(f"cell ({t},{x}) outside the {N}x{len(sites)} slice/site grid")
        keep.append(t * len(sites) + x)
    return partial_trace(st.R, sites * N, keep)


def marginal(st: SpacetimeState, t: int) -> Operator:
    """Partial trace onto slice t; equals the evolved pure-state projector."""
    return _reduce(st, [(t, x) for x in range(len(st.site_dims))])


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
        raise ValueError(f"need a strictly later slice 0 < t < {st.action.layout.N}")
    cells = [(s, x) for s in (0, t) for x in range(len(st.site_dims))]
    reduced = _reduce(st, cells).mat
    d = st.action.layout.d
    # sum over i, j, k, l of A_ij · B_kl · (R_ins - R_ins†)[(j,l), (i,k)]
    return complex(np.einsum("ij,kl,jlik->", A.mat, B.mat,
                             (reduced - reduced.conj().T).reshape(d, d, d, d)))


def causality_witness_oracle(st: SpacetimeState, A: Operator, B: Operator, t: int) -> complex:
    """Heisenberg-picture oracle <psi|[B_H(eps t), A]|psi>."""
    Ut = unitary(st.action.H, st.action.layout.eps * t).mat
    BH = Ut.conj().T @ B.mat @ Ut
    comm = BH @ A.mat - A.mat @ BH
    return complex(np.vdot(st.psi0.vec, comm @ st.psi0.vec))


def power_and_pseudoentropy(
    st: SpacetimeState, k: int
) -> tuple[Callable[[], Operator], complex]:
    """(R^k on demand, Tr[R^k]).  For pure unitary provenance Tr[R^k] = 1 for all k.

    Tr[R^k] = Tr[S^k] for the D/d^2 x D/d^2 compression S = F·R·G,
    F = <psi0| ⊗ I ⊗ <omega| and G = |psi0> ⊗ I ⊗ |u> (`_compress`), since
    every row of R lies on psi0 in slice 0 and every column on <omega| in
    slice N-1.  One chain S_{j+1} = S·S_j (`_kron_apply` of the Kronecker
    factors of `_step_factors`) gives its powers up to a = ceil(k/2), and
    the trace sums S_a against S_b, b = floor(k/2), in one einsum
    (`_trace_of_product`).  S is the state's cached property `_S`, read
    from the stored R by `_compress` once per state, at the first k
    asked; both halves are powers of it, so a fault X in R with
    F·X·G != 0 shows at every k (the module docstring names the faults
    F and G drop).  The chain to S_a serves both k = 2a - 1 (S_a against
    S_{a-1}, or Tr S at a = 1) and k = 2a (S_a against itself): both
    values go into the state's `_trace_powers`, and a k found there is
    not read again.  Of the chain the state keeps S alone, never
    S_2..S_a.  The first element is a zero-argument callable that
    returns the dense R^k (numpy's `matrix_power` of the stored R) when
    called; no run calls it.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    psi, blocks = st.psi0.vec, st.action._head_blocks

    def power() -> Operator:
        return Operator(np.linalg.matrix_power(st.R.mat, k))

    if k not in st._trace_powers:
        a = (k + 1) // 2
        S = [st._S]  # S_1, S_2, ..., S_a
        factors = _step_factors(blocks, psi, st.omega) if a > 1 else []
        while len(S) < a:
            S.append(_kron_apply(factors, S[-1]))
        odd = np.trace(S[0]) if a == 1 else _trace_of_product(S[a - 1], S[a - 2])
        st._trace_powers.update({2 * a - 1: complex(odd), 2 * a: _trace_of_product(S[-1], S[-1])})
    return power, st._trace_powers[k]


def _step_factors(blocks: list[np.ndarray], psi0: np.ndarray, omega: np.ndarray) -> list[np.ndarray]:
    """The Kronecker factors of S, one per head group (`blocks`), slice 0 first.

    S = (I ⊗ <omega|)·V^{⊗(N-1)}·(|psi0> ⊗ I) over the N-1 head slices:
    psi0 contracts their column slice 0 and <omega| their last row slice
    (head slice N-2, which is R's slice N-1).  By the mixed-product rule S
    is then the Kronecker product of the head groups' all-V blocks with
    <omega| and psi0 contracted into the end ones: the last becomes
    (I ⊗ <omega|)·B (d^(g'-1) x d^g'), and then the first B·(|psi0> ⊗ I)
    (d^g x d^(g-1)).  With one head group both folds land on it, and at
    N = 2 it is the scalar <omega|V|psi0>; at N = 1 there is none, and
    the d x d identity in its place becomes the scalar <omega|psi0>.
    """
    *factors, last = blocks or [np.eye(len(psi0))]
    factors.append(np.matmul(omega, last.reshape(-1, len(omega), last.shape[1])))
    factors[0] = np.matmul(psi0, factors[0].reshape(len(factors[0]), len(psi0), -1))
    return factors


def _compress(st: SpacetimeState, M: np.ndarray) -> np.ndarray:
    """F·M·G for a D x D matrix M: its n x n block on <psi0|, <omega| and psi0, u, n = D/d^2.

    F = <psi0| ⊗ I ⊗ <omega| on row slices 0 and N-1, G = |psi0> ⊗ I ⊗ |u>
    on column slices 0 and N-1, u = omega* / sum_c |omega_c|^2; at N = 1
    slice N-1 is slice 0, so only psi0 is contracted there (n = 1).  Built
    in row bands of m = n/d^4 rows: <omega| contracts row slice N-1 of the
    d^2·m rows of M that feed a band, <psi0| then their row slice 0, psi0
    the result's column slice 0 and u its column slice N-1.  A band has at
    least one row and at least 2^12 entries in its first transient
    (d·m·D), so that a small M takes one band or a few, and the last band
    may be shorter.  The n x n result, allocated before any band, is
    write-protected.
    """
    psi, d, N = st.psi0.vec, st.action.layout.d, st.action.layout.N
    w = st.omega if N > 1 else np.ones(1)  # no second slice to compress at N = 1
    e, n = len(w), len(M) // (d * len(w))
    # n/d^4 rows keep a band's transients below S, and 2^12 transient entries (64 KiB)
    # at least let a small M take one band or a few
    m, u = max(n // (d * e) ** 2, 2**12 // (d * len(M)), 1), w.conj() / np.vdot(w, w).real
    # S, which the state keeps, before the band transients: the other way round the
    # freed transients stay a heap hole below S (perfbench spacetime-states peak RSS)
    rows, S = M.reshape(d, n, e, -1), np.empty((n, n), complex)
    for r in range(0, n, m):  # the last band may be shorter
        band = np.matmul(psi.conj(), np.matmul(w, rows[:, r:r + m]).reshape(d, -1))  # F's bras
        S[r:r + m] = np.matmul(psi, band.reshape(-1, d, n * e)).reshape(-1, n, e) @ u  # G's kets
    S.flags.writeable = False
    return S


def _trace_of_product(A: np.ndarray, B: np.ndarray) -> complex:
    """Tr[A·B] = sum_ij A_ij B_ji for two n x n matrices, in one einsum."""
    return complex(np.einsum("ij,ji->", A, B))


def renyi_pseudoentropy(st: SpacetimeState, k: int) -> complex:
    """-(1/(k-1))·log Tr[R^k] for integer k >= 2; vanishes for pure histories."""
    if k < 2:
        raise ValueError("Rényi order must be >= 2")
    return complex(-np.log(power_and_pseudoentropy(st, k)[1]) / (k - 1))


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
    eigs = tuple(sorted((complex(z) for z in np.linalg.eigvals(reduced.mat)), key=lambda z: -z.real))
    return RegionReport(
        operator=reduced,
        region=cells,
        herm_deviation=float(num / den) if den else 0.0,
        spectrum=eigs,
    )
