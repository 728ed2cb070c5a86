"""Tensor products across time slices and the cyclic-shift action.

The state space here is h^{⊗N}: one copy of a d-dimensional local space
per time slice, slice 0 leftmost.  The central object is the unitary

    E = C · (V ⊗ V ⊗ ... ⊗ V),      V = exp(-i eps H),

where C cyclically shifts the slices and V comes from the
eigendecomposition of H (`linalg.unitary`), as do the oracle's own
exponentials e^{±i eps t H}, each call decomposing H anew.  Two exact
identities are implemented and cross-checked:

* trace identity — a trace of E against one operator insertion per
  slice collapses to a single-slice time-ordered trace,
      Tr[E · prod_t embed(O_t, t)] = tr[V^N · O_H(eps(N-1)) ... O_H(0)],
  with O_H(t) = e^{iHt} O e^{-iHt};
* shift identity — conjugating by E moves an insertion one slice up
  while Heisenberg-rotating it, so the slice-local equation of motion
  holds as an exact operator statement inside traces.

E is never multiplied out on the slab route: it is kept as fused blocks
followed by a roll of the slice axes.  The slices fall into ⌈N/g⌉
groups of g adjacent slices, g the largest with d^g <= 16 (the last
group may be shorter), and each group acts as one d^g x d^g block, the
kron of its slices' local factors; applied to whole D = d^N
dimensional columns, that is ⌈N/g⌉ matmuls of d^g <= 16 per column
instead of N of d.  An action is complete when it is constructed: it
keeps its groups (`QuantumAction._slices`) and the all-V blocks V,
V ⊗ V, ..., V^{⊗g}, each one kron of the one before with V
(`QuantumAction._powers`), and no read adds to them.  A group holding
an insertion takes the power over its slices before the first
insertion and krons the rest onto it per call (`QuantumAction._blocks`).
One function, `_kron_apply`, applies a list of Kronecker factors to a
matrix's row slice axes, last factor first, by the mixed-product rule
(Van Loan, J. Comput. Appl. Math. 123, 85 (2000)); a factor may be
rectangular.  The constraint passes it the all-V group blocks to apply
E to columns, and the all-V blocks of the groups without slice N-1
(`QuantumAction._head_blocks`) serve a caller that handles slice N-1
itself: the constraint's boundary appends the 1 x d bra <q'|V for it,
and the spacetime state's trace-power step folds psi0 and <omega|
into the end blocks.

The group blocks hold every entry of E·(⊗_t F_t), so a read that needs
only some entries takes them from the blocks, with no matrix product.
`QuantumAction.diagonal` gathers the D diagonal entries at the cycled
row index, one block entry per group; the trace identity sums them, and
so does the constraint's unshifted half, its boundary folded into slice
0's factor.  `QuantumAction._column_blocks` yields whole columns of the
first group's block in a kron with the others' blocks, folded from the
right, each written once with its rows already in C's order (the roll
of the row slice axes is folded into the product, not copied after
it), every full-width block into the one buffer of its call; the
constraint's shifted half streams over these blocks of E and E·X, and
`QuantumAction.dense`, where a state needs E as a matrix, is the one
block of all D columns, a fresh buffer the state keeps as it was
written.  The dense permutation C and the dense embeddings of
slice operators live with the tests, as references.

A layout is d, N and eps, nothing more: how a state on h^{⊗N} factors
is read only by the spacetime state.  Insertions become local factors
through `slice_factors`, the one guard of their slices and dimensions;
it takes at most one operator per slice and refuses a repeated slice,
for the slab and the oracle side of the trace identity alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .linalg import Ket, Operator, unitary

DEFAULT_DIM_CAP = 4096
_COLUMN_BLOCK = 128  # columns of E and E·X per block in constraint_expectation
_GROUP_DIM_MAX = 16  # largest fused block d^g of a QuantumAction


@dataclass(frozen=True)
class SliceLayout:
    """N time slices of local dimension d with step eps, slice 0 first; d**N <= DEFAULT_DIM_CAP."""

    d: int
    N: int
    eps: float

    def __post_init__(self):
        if self.N < 1 or self.d < 1:
            raise ValueError("need d >= 1 and N >= 1")
        if self.d**self.N > DEFAULT_DIM_CAP:
            raise ValueError(f"total dimension {self.d}**{self.N} exceeds cap {DEFAULT_DIM_CAP}")

    @property
    def total_dim(self) -> int:
        return self.d**self.N


def _cycle_rows(layout: SliceLayout, M: np.ndarray) -> np.ndarray:
    """C · M: the last slice axis of the row index becomes the first."""
    k = M.shape[1]
    return M.reshape(-1, layout.d, k).transpose(1, 0, 2).reshape(-1, k)


def _block_kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A ⊗ B for 2-D A and B, as one broadcast product."""
    (a, k), (b, m) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(a * b, k * m)


def slice_factors(
    layout: SliceLayout, inserts: Sequence[tuple[Operator, int]]
) -> dict[int, np.ndarray]:
    """Slice -> matrix of the one operator inserted there, ascending in slice.

    prod_t embed(O_t, t) is ⊗_t F_t with these factors (I where none).  A
    slice takes at most one operator: a repeated slice is refused.
    """
    factors: dict[int, np.ndarray] = {}
    for O, t in sorted(inserts, key=lambda item: item[1]):
        if not 0 <= t < layout.N:
            raise ValueError(f"slice index {t} out of range [0, {layout.N})")
        if O.dim != layout.d:
            raise ValueError("insertion dimension mismatch")
        if t in factors:
            raise ValueError(f"duplicate insertion at slice {t}; one operator per slice")
        factors[t] = O.mat
    return factors


@dataclass(frozen=True)
class QuantumAction:
    """The action exponential E = C · ⊗_t exp(-i eps H), kept as its step V.

    Complete once constructed: the fused slice groups (`_slices`), the
    all-V blocks V, V ⊗ V, ..., V^{⊗g} (`_powers`) and the head groups'
    blocks (`_head_blocks`) are set in `__post_init__`, and no read of E
    adds to them.
    """

    layout: SliceLayout
    H: Operator
    V: Operator = field(init=False, repr=False)  # single-slice step
    # the slices of each fused group, slice 0 first: g per group, the
    # largest g <= N with d**g <= _GROUP_DIM_MAX (at least 1; bounded by N
    # because d = 1 fits every g), the last group possibly shorter
    _slices: tuple[range, ...] = field(init=False, repr=False, compare=False)
    # V ⊗ ... ⊗ V over n = 1..g slices, each one kron of the one before with V
    _powers: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    # the all-V block of each group without slice N-1: the last group, which
    # holds it, drops it, or goes if it held only that slice
    _head_blocks: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.H.dim != self.layout.d:
            raise ValueError("H must act on a single slice")
        d, N = self.layout.d, self.layout.N
        V = unitary(self.H, self.layout.eps)  # unitary refuses a non-Hermitian H
        powers = [V.mat]  # V, V ⊗ V, ... while the `_slices` rule allows: g is their count
        while len(powers) < N and d ** (len(powers) + 1) <= _GROUP_DIM_MAX:
            powers.append(_block_kron(powers[-1], V.mat))
        g = len(powers)
        slices = tuple(range(s, min(s + g, N)) for s in range(0, N, g))
        heads = [len(group) for group in slices[:-1]] + [len(slices[-1]) - 1]
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "_slices", slices)
        object.__setattr__(self, "_powers", tuple(powers))
        object.__setattr__(self, "_head_blocks", tuple(powers[n - 1] for n in heads if n))

    def dense(self, factors: Optional[Mapping[int, np.ndarray]] = None) -> np.ndarray:
        """E · (⊗_t factors[t]) as a new D x D array: slice t gets V·factors[t] (V where none).

        The one column block of width D (`_column_blocks`): the group
        blocks (`_blocks`) as one kron written in C's row order, no
        matrix product.  Built on each call into a fresh array that owns
        its buffer and is not kept, so an action holds no D x D matrix
        and the caller may scale it in place.
        """
        (_, block), = self._column_blocks(factors or {}, self.layout.total_dim)
        return block

    def diagonal(self, factors: Mapping[int, np.ndarray]) -> np.ndarray:
        """The D diagonal entries of E · (⊗_t factors[t]), read from the group blocks.

        Entry (i, i) of C·W is W's entry at column i and at the row that
        C moves to i (`_cycle_rows` of the column indices).  An entry of
        W = ⊗ blocks is the product of one entry per group's block, at
        the group's digits of row and column, the group's stride the
        product of the later blocks' sizes: O(D·⌈N/g⌉) work, and no
        entry off the diagonal is formed.
        """
        cols = np.arange(self.layout.total_dim)
        rows = _cycle_rows(self.layout, cols[:, None])[:, 0]
        # the last group first, so each product nests as in `dense`'s right fold
        *others, last = self._blocks(factors)
        s = len(last)
        diag = last[rows % s, cols % s]
        for block in reversed(others):
            n = len(block)
            diag = block[rows // s % n, cols // s % n] * diag
            s *= n
        return diag

    def _column_blocks(
        self, factors: Mapping[int, np.ndarray], width: int
    ) -> Iterator[tuple[slice, np.ndarray]]:
        """(cols, (E · ⊗_t factors[t])[:, cols]) for column blocks tiling 0..D-1 in order.

        A block is whole columns of the first group's block, as many as
        fit in `width` (at least one), in a kron with the other groups'
        blocks folded from the right (`rest`), written once, rows in C's
        order, into a C-ordered array: slice N-1, the last row slice axis
        of `rest`, is read first, so one product puts every entry where
        the roll would.  With one group `rest` is 1 x 1 and has no slice
        to give; the first block's rows (at most 16) are rolled instead.
        The fold and one full-width buffer are made once per call, and
        every full-width block is rewritten into that buffer: a yielded
        block is valid until the next one is asked for.  A narrower last
        block gets an array of its own; the one block of `dense` is the
        call's own fresh buffer.  No matmul.
        """
        first, *others = self._blocks(factors)
        # folded from the right, so each kron's inner axis is the larger
        # operand; the 1 x 1 start stands for no other group
        rest = reduce(lambda right, block: _block_kron(block, right), reversed(others), np.ones((1, 1)))
        d, r = self.layout.d, len(rest)
        if r == 1:
            first, d = _cycle_rows(self.layout, first), 1
        rest_rows = rest.reshape(r // d, d, r).transpose(1, 0, 2)  # (slice N-1, other rows, cols)
        step = min(max(1, width // r), len(first))
        full = np.empty((len(first) * r, step * r), complex)  # rewritten for each full-width block
        for a in range(0, len(first), step):
            b = min(a + step, len(first))
            block = full if b - a == step else np.empty((len(first) * r, (b - a) * r), complex)
            np.multiply(first[None, :, None, a:b, None], rest_rows[:, None, :, None, :],
                        out=block.reshape(d, len(first), r // d, b - a, r))
            yield slice(a * r, b * r), block

    def _blocks(self, factors: Mapping[int, np.ndarray]) -> list[np.ndarray]:
        """The block of each group of `_slices`: the kron of V·factors[t] (V where none).

        The group's slices before its first factor, all of them where it
        has none, are a kept power of V (`_powers`); the rest are kron'd
        onto it now.  A left fold either way, so the block is bit for bit
        the kron of the whole group's list.
        """
        V, blocks = self.V.mat, []
        for slices in self._slices:
            p = min(factors.keys() & slices, default=slices.stop) - slices.start
            mats = [self._powers[p - 1]] if p else []
            mats += [V @ factors[t] if t in factors else V for t in slices[p:]]
            blocks.append(reduce(_block_kron, mats))
        return blocks


def _kron_apply(factors: Sequence[np.ndarray], M: np.ndarray) -> np.ndarray:
    """(F_0 ⊗ F_1 ⊗ ...) · M, M's rows the product of the factors' column counts.

    Each factor acts on its own row slice axes of M: its column count is
    their size before it and its row count their size after, so a factor
    may be rectangular.  The last factor acts first (the mixed-product
    rule, Van Loan, J. Comput. Appl. Math. 123, 85 (2000)): where the
    last factors shrink their axes and the first widen them, no
    intermediate has more rows than M.
    """
    k = M.shape[1]
    pre, post = len(M), k  # rows before the factor's axes, entries after them
    for F in reversed(factors):
        pre //= F.shape[1]
        M = np.matmul(F, M.reshape(pre, F.shape[1], post))
        post *= len(F)
    return M.reshape(-1, k)


def build_action(layout: SliceLayout, H: Operator) -> QuantumAction:
    return QuantumAction(layout, H)


def trace_theorem_lhs(qa: QuantumAction, inserts: Sequence[tuple[Operator, int]]) -> complex:
    """Tr[E · prod embed(O_t, t)]: the sum of E·X's diagonal (`QuantumAction.diagonal`).

    Only the D summed entries are read from the group blocks; no column
    of E·X is formed.
    """
    return complex(np.sum(qa.diagonal(slice_factors(qa.layout, inserts))))


def trace_theorem_rhs(qa: QuantumAction, inserts: Sequence[tuple[Operator, int]]) -> complex:
    """Single-slice oracle tr[exp(-i eps N H) · O_H(eps t_k) ... O_H(eps t_1)].

    Later slices stand to the left (time ordering), O_H(t) = e^{iHt} O e^{-iHt}.
    Inserts are validated as on the slab side; that check's slice factors go unused.
    """
    slice_factors(qa.layout, inserts)
    eps, N = qa.layout.eps, qa.layout.N
    prod = np.eye(qa.layout.d, dtype=complex)
    for O, t in sorted(inserts, key=lambda item: item[1]):
        plus = unitary(qa.H, -eps * t).mat
        prod = (plus @ O.mat @ plus.conj().T) @ prod
    return complex(np.trace(unitary(qa.H, eps * N).mat @ prod))


def constraint_expectation(
    qa: QuantumAction,
    O: Operator,
    t: int,
    boundary: Optional[tuple[Ket, Ket]] = None,
) -> complex:
    """Tr[B · E · (E·embed(O,t)·E† - embed(O,t))]; identically zero.

    Without a boundary the statement is pure trace cyclicity and holds
    for every slice.  With a boundary B = |q><q'| at slice 0 the shifted
    insertion must stay clear of the boundary slice, so 0 <= t < N-1 is
    required; the bracket then reduces to the Heisenberg equation of
    motion V·O_H((t+1)eps)·V† - O_H(t eps) = 0 evaluated inside the
    boundary trace.

    The unshifted half is the trace identity's read: Tr[B·E·X] =
    Tr[E·X·embed(B, 0)], the diagonal sum (`QuantumAction.diagonal`) with
    B multiplied onto slice 0's factor from the right (O·B when t = 0).
    The shifted half streams over column blocks of E and of E·X
    (`QuantumAction._column_blocks`), D x block each: a block adds
    ⟨E e_j| B·E·E·X |e_j⟩ over its columns j.  Without a boundary E
    acts on E·X's block as one `_kron_apply` of the all-V group blocks
    (`QuantumAction._blocks`, taken once per call) followed by C's roll
    of the row slice axes (`_cycle_rows`).  With one, B is the bra ⟨q| on
    row slice 0 of E's block and ⟨q'| on that of E·E·X's; C carries
    slice N-1 to slice 0, so ⟨q'|·E = (V ⊗ ... ⊗ V) ⊗ ⟨q'|V over slices
    0..N-2 and N-1: one `_kron_apply` of the head blocks
    (`QuantumAction._head_blocks`) with ⟨q'|V as a last, 1 x d factor
    takes E·X's block to D/d rows, ⟨q'|V contracting first.  It sums
    to Tr[E†·B·E·E·X] = Tr[B·E·(E·X·E†)]: E† still acts, through E's
    columns, so the shift identity is exercised, not assumed, and E's
    kron entries meet its matmul apply.
    """
    layout = qa.layout
    if boundary is not None and not 0 <= t < layout.N - 1:
        raise ValueError(f"with a boundary need 0 <= t < N-1, got t={t}, N={layout.N}")
    factors = slice_factors(layout, [(O, t)])
    read = factors
    if boundary is not None:
        B = boundary[0].outer(boundary[1]).mat
        read = {**factors, 0: factors[0] @ B if 0 in factors else B}
    shifted = 0j
    blocks = zip(qa._column_blocks({}, _COLUMN_BLOCK), qa._column_blocks(factors, _COLUMN_BLOCK))
    if boundary is None:
        W = qa._blocks({})
        for (_, E), (_, EX) in blocks:
            shifted += np.vdot(E, _cycle_rows(layout, _kron_apply(W, EX)))
    else:
        q, q_prime = boundary
        head = [*qa._head_blocks, (q_prime.vec.conj() @ qa.V.mat)[None, :]]  # <q'|V on slice N-1
        for (_, E), (_, EX) in blocks:
            q_E = np.matmul(q.vec.conj(), E.reshape(layout.d, -1))  # <q| on E's row slice 0
            shifted += np.vdot(q_E, _kron_apply(head, EX))
    return complex(shifted - np.sum(qa.diagonal(read)))
