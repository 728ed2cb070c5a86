"""Slice-lattice action: cyclic shift, trace identity, constraint expectation."""

from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from sqmlab.linalg import Operator, rand_hermitian, rand_ket
from sqmlab.timeslab import (
    SliceLayout,
    _block_kron,
    _cycle_rows,
    _kron_apply,
    build_action,
    constraint_expectation,
    slice_factors,
    trace_theorem_lhs,
    trace_theorem_rhs,
)

from dense_refs import constraint_expectation_columns, cycle_shift, embed_at_slice, kron

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

# largest N per local dimension d in the dense comparisons: fused groups of
# 4 (d = 2), 2 (d = 3, 4), 1 (d = 5) and N (d = 1), with ragged last groups;
# d = 2 reaches two full groups and a ragged third (N = 9, D = 512)
DENSE_N_MAX = {1: 9, 2: 9, 3: 5, 4: 4, 5: 3}
LAYOUTS = st.sampled_from(sorted(DENSE_N_MAX)).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, DENSE_N_MAX[d])))


class TestLayout:
    def test_dims_and_total(self):
        lay = SliceLayout(d=3, N=4, eps=0.1)
        assert lay.total_dim == 81

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            SliceLayout(d=3, N=9, eps=0.1)  # 3^9 > 4096

    def test_cap_is_not_a_field(self):
        with pytest.raises(TypeError):
            SliceLayout(d=2, N=3, eps=0.1, cap=8)


class TestCycleShift:
    def test_two_qubit_shift_is_swap(self):
        S = cycle_shift(SliceLayout(d=2, N=2, eps=0.1))
        swap = np.array([
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ], dtype=complex)
        np.testing.assert_array_equal(S.mat, swap)

    def test_order_n(self):
        lay = SliceLayout(d=2, N=3, eps=0.1)
        S = cycle_shift(lay)
        acc = S
        for _ in range(2):
            acc = acc @ S
        np.testing.assert_allclose(acc.mat, np.eye(lay.total_dim), atol=1e-14)

    def test_moves_slice_operator(self):
        lay = SliceLayout(d=2, N=3, eps=0.1)
        S = cycle_shift(lay)
        O = rand_hermitian(np.random.default_rng(0), 2)
        lhs = S @ embed_at_slice(O, 0, lay) @ Operator(S.mat.conj().T)
        rhs = embed_at_slice(O, 1, lay)
        np.testing.assert_allclose(lhs.mat, rhs.mat, atol=1e-14)


class TestTraceTheorem:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(1, 5), st.integers(0, 3), SEEDS)
    def test_lhs_equals_rhs(self, d, N, n_inserts, seed):
        rng = np.random.default_rng(seed)
        qa = build_action(SliceLayout(d=d, N=N, eps=0.41), rand_hermitian(rng, d))
        k = min(n_inserts, N)
        slots = rng.choice(N, size=k, replace=False)
        inserts = [(rand_hermitian(rng, d), int(t)) for t in slots]
        lhs = trace_theorem_lhs(qa, inserts)
        rhs = trace_theorem_rhs(qa, inserts)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))

    def test_no_insertions_reduces_to_evolution_trace(self):
        rng = np.random.default_rng(1)
        d, N, eps = 3, 4, 0.2
        H = rand_hermitian(rng, d)
        qa = build_action(SliceLayout(d=d, N=N, eps=eps), H)
        lhs = trace_theorem_lhs(qa, [])
        direct = complex(np.trace(scipy.linalg.expm(-1j * eps * N * H.mat)))
        assert lhs == pytest.approx(direct, abs=1e-12)

    def test_duplicate_slices_rejected(self):
        rng = np.random.default_rng(2)
        qa = build_action(SliceLayout(d=2, N=3, eps=0.1), rand_hermitian(rng, 2))
        O = rand_hermitian(rng, 2)
        with pytest.raises(ValueError):
            trace_theorem_lhs(qa, [(O, 1), (O, 1)])

    def test_slice_factors_refuses_a_repeated_slice(self):
        rng = np.random.default_rng(2)
        layout = SliceLayout(d=2, N=3, eps=0.1)
        O1, O2 = rand_hermitian(rng, 2), rand_hermitian(rng, 2)
        assert slice_factors(layout, [(O2, 2), (O1, 0)]).keys() == {0, 2}
        with pytest.raises(ValueError, match="duplicate insertion at slice 1; one operator per slice"):
            slice_factors(layout, [(O1, 1), (O2, 0), (O2, 1)])

    @pytest.mark.parametrize("side", [trace_theorem_lhs, trace_theorem_rhs])
    @pytest.mark.parametrize("slot, dim, message", [
        (1, 2, "duplicate insertion at slice 1; one operator per slice"),
        (3, 2, r"slice index 3 out of range \[0, 3\)"),
        (-1, 2, r"slice index -1 out of range \[0, 3\)"),
        (2, 3, "insertion dimension mismatch"),
    ])
    def test_both_sides_reject_bad_inserts_alike(self, side, slot, dim, message):
        rng = np.random.default_rng(2)
        qa = build_action(SliceLayout(d=2, N=3, eps=0.1), rand_hermitian(rng, 2))
        inserts = [(rand_hermitian(rng, 2), 1), (rand_hermitian(rng, dim), slot)]
        with pytest.raises(ValueError, match=message):
            side(qa, inserts)

    def test_dense_factorizes(self):
        rng = np.random.default_rng(3)
        d, N, eps = 2, 3, 0.3
        H = rand_hermitian(rng, d)
        lay = SliceLayout(d=d, N=N, eps=eps)
        qa = build_action(lay, H)
        V = Operator(scipy.linalg.expm(-1j * eps * H.mat))
        expected = cycle_shift(lay) @ kron(V, V, V)
        np.testing.assert_allclose(qa.dense(), expected.mat, atol=1e-13)


class TestConstraintTheorem:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(2, 5), SEEDS, st.booleans())
    def test_expectation_vanishes(self, d, N, seed, with_boundary):
        rng = np.random.default_rng(seed)
        qa = build_action(SliceLayout(d=d, N=N, eps=0.37), rand_hermitian(rng, d))
        O = rand_hermitian(rng, d)
        if with_boundary:
            t = int(rng.integers(0, N - 1))
            boundary = (rand_ket(rng, d), rand_ket(rng, d))
        else:
            t = int(rng.integers(0, N))
            boundary = None
        value = constraint_expectation(qa, O, t, boundary)
        assert abs(value) <= 1e-10

    @pytest.mark.parametrize("d, N", [(2, 3), (3, 4), (3, 5), (3, 6)])  # D = 8, 81, 243, 729
    @pytest.mark.parametrize("with_boundary", [False, True])
    def test_streamed_matches_whole_columns(self, d, N, with_boundary):
        """Column blocks of whole first-group columns, as many as fit in 128 (one of
        81 at D = 81, 108 + 108 + 27 at D = 243, nine of 81 at D = 729), against
        whole D x D columns."""
        rng = np.random.default_rng(10 * d + N)
        qa = build_action(SliceLayout(d=d, N=N, eps=0.37), rand_hermitian(rng, d))
        O = rand_hermitian(rng, d)
        boundary = (rand_ket(rng, d), rand_ket(rng, d)) if with_boundary else None
        for t in range(N - 1 if with_boundary else N):
            value = constraint_expectation(qa, O, t, boundary)
            assert abs(value - constraint_expectation_columns(qa, O, t, boundary)) <= 1e-13

    def test_boundary_requires_interior_slice(self):
        rng = np.random.default_rng(4)
        d, N = 2, 3
        qa = build_action(SliceLayout(d=d, N=N, eps=0.1), rand_hermitian(rng, d))
        O = rand_hermitian(rng, d)
        boundary = (rand_ket(rng, d), rand_ket(rng, d))
        with pytest.raises(ValueError):
            constraint_expectation(qa, O, N - 1, boundary)
        with pytest.raises(ValueError, match=r"slice index 3 out of range \[0, 3\)"):
            constraint_expectation(qa, O, N)


class TestFusedGroups:
    @pytest.mark.parametrize("d, N, sizes", [
        (1, 12, [12]), (2, 3, [3]), (2, 9, [4, 4, 1]), (2, 12, [4, 4, 4]),
        (3, 5, [2, 2, 1]), (4, 3, [2, 1]), (4, 6, [2, 2, 2]), (5, 3, [1, 1, 1]),
        (17, 2, [1, 1]),
    ])
    def test_groups_are_the_largest_with_d_to_the_g_at_most_16(self, d, N, sizes):
        rng = np.random.default_rng(d * N)
        qa = build_action(SliceLayout(d=d, N=N, eps=0.3), rand_hermitian(rng, d))
        assert [len(slices) for slices in qa._slices] == sizes
        assert [slices.start for slices in qa._slices] == list(np.cumsum([0] + sizes[:-1]))
        V = Operator(scipy.linalg.expm(-0.3j * qa.H.mat))
        for slices, block in zip(qa._slices, qa._blocks({}), strict=True):
            np.testing.assert_allclose(block, kron(*([V] * len(slices))).mat, atol=1e-14)

    # a group's slices before its first factor are a kept power of V; the
    # rest are kron'd onto it, so the block is the left fold of the whole list
    @pytest.mark.parametrize("d, N, slots", [
        (2, 4, [3]), (2, 4, [1, 3]), (2, 4, [0]), (2, 9, [2, 8]), (3, 5, [1, 4]), (1, 3, [2]),
    ])
    def test_blocks_are_the_left_fold_bit_for_bit(self, d, N, slots):
        rng = np.random.default_rng(d * N)
        qa = build_action(SliceLayout(d=d, N=N, eps=0.3), rand_hermitian(rng, d))
        factors = {t: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for t in slots}
        V = qa.V.mat
        for slices, block in zip(qa._slices, qa._blocks(factors), strict=True):
            ref = reduce(_block_kron, [V @ factors[t] if t in factors else V for t in slices])
            assert block.tobytes() == ref.tobytes()

    # the group holding slice N-1 drops it: lone (2, 5), (3, 3), (4, 3), (2, 9)
    # and N = 1 lose their last group, shared (2, 6) and (2, 3) shorten it
    @pytest.mark.parametrize("d, N, sizes", [
        (2, 1, []), (2, 3, [2]), (2, 5, [4]), (2, 6, [4, 1]), (2, 9, [4, 4]),
        (3, 3, [2]), (4, 3, [2]),
    ])
    def test_head_blocks_leave_out_the_last_slice(self, d, N, sizes):
        rng = np.random.default_rng(d * N)
        qa = build_action(SliceLayout(d=d, N=N, eps=0.3), rand_hermitian(rng, d))
        assert [len(block) for block in qa._head_blocks] == [d**g for g in sizes]
        V = Operator(scipy.linalg.expm(-0.3j * qa.H.mat))
        for g, block in zip(sizes, qa._head_blocks):
            np.testing.assert_allclose(block, kron(*([V] * g)).mat, atol=1e-14)
        rows = d ** (N - 1)
        W = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
        head = kron(*([V] * (N - 1))).mat if N > 1 else np.eye(1)
        np.testing.assert_allclose(_kron_apply(qa._head_blocks, W), head @ W, atol=1e-13)

    # (F_0 ⊗ F_1 ⊗ ...)·M at the factor shapes the slab applies: the square
    # group blocks of E (d = 2, N = 9 and d = 3, N = 3), the step factors
    # of the trace powers (the first d^g x d^(g-1), widened by psi0, the last
    # d^g' x d^(g'+1), shrunk by <omega|; the N = 1 scalar), and the head
    # blocks with the 1 x d bra <q'|V of the constraint's boundary
    @pytest.mark.parametrize("shapes", [
        [(16, 16), (16, 16), (2, 2)], [(9, 9), (3, 3)],
        [(16, 8), (16, 16), (4, 8)], [(8, 4), (2, 4)], [(9, 3), (3, 9)], [(1, 1)],
        [(16, 16), (4, 4), (1, 2)], [(9, 9), (1, 3)], [(1, 2)],
    ], ids=str)
    def test_kron_apply_is_the_kron_times_m(self, shapes):
        rng = np.random.default_rng(len(shapes) + sum(a * b for a, b in shapes))
        factors = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
        ref = reduce(np.kron, factors)
        for m in (1, 3):
            M = rng.standard_normal((ref.shape[1], m)) + 1j * rng.standard_normal((ref.shape[1], m))
            got = _kron_apply(factors, M)
            assert got.shape == (len(ref), m)
            np.testing.assert_allclose(got, ref @ M, rtol=0, atol=1e-13 * np.abs(ref @ M).max())

    def test_one_dimensional_slices(self):
        """d = 1: every d**g fits, so one group of all N slices; E is the phase V^N."""
        rng = np.random.default_rng(5)
        N, eps, h = 7, 0.3, 0.8
        qa = build_action(SliceLayout(d=1, N=N, eps=eps), Operator(np.array([[h]])))
        inserts = [(Operator(np.array([[z]])), t) for z, t in [(1.5 - 0.5j, 0), (-0.7j, 3), (2.0, 6)]]
        expected = np.exp(-1j * eps * N * h) * (1.5 - 0.5j) * (-0.7j) * 2.0
        assert trace_theorem_lhs(qa, inserts) == pytest.approx(expected, abs=1e-14)
        assert trace_theorem_rhs(qa, inserts) == pytest.approx(expected, abs=1e-14)
        O = Operator(np.array([[1.9]]))
        boundary = (rand_ket(rng, 1), rand_ket(rng, 1))
        for t in range(N):
            assert abs(constraint_expectation(qa, O, t)) <= 1e-14
        for t in range(N - 1):
            assert abs(constraint_expectation(qa, O, t, boundary)) <= 1e-14


class TestReadsOfTheGroupBlocks:
    """diagonal and _column_blocks read E's entries from the fused group blocks."""

    @pytest.mark.parametrize("d, N", [(1, 3), (2, 1), (2, 9), (3, 5), (17, 2)])
    def test_reads_leave_the_action_as_constructed(self, d, N):
        """Every read of E takes the blocks built with the action and adds none."""
        rng = np.random.default_rng(d * 10 + N)
        qa = build_action(SliceLayout(d=d, N=N, eps=0.41), rand_hermitian(rng, d))

        def state():  # each attribute, and a container's length
            return {name: (value, len(value) if isinstance(value, (list, tuple)) else None)
                    for name, value in vars(qa).items()}

        before = state()
        factors = {N - 1: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))}
        qa.diagonal(factors)
        qa.dense()
        qa.dense(factors)
        list(qa._column_blocks(factors, 7))
        qa._head_blocks
        O = rand_hermitian(rng, d)
        trace_theorem_lhs(qa, [(O, 0)])
        constraint_expectation(qa, O, 0)
        if N > 1:
            constraint_expectation(qa, O, 0, (rand_ket(rng, d), rand_ket(rng, d)))
        after = state()
        assert after.keys() == before.keys()
        for name, (value, size) in before.items():
            assert after[name][0] is value and after[name][1] == size, name

    @pytest.mark.parametrize("d, N", [(1, 3), (2, 1), (2, 5), (2, 9), (3, 1), (3, 5), (4, 3), (17, 1)])
    @pytest.mark.parametrize("where", ["none", "first", "last", "both", "every"])
    def test_diagonal_is_the_diagonal_of_dense(self, d, N, where):
        rng = np.random.default_rng(d * 10 + N)
        qa = build_action(SliceLayout(d=d, N=N, eps=0.41), rand_hermitian(rng, d))
        slots = {"none": [], "first": [0], "last": [N - 1], "both": {0, N - 1},
                 "every": range(N)}[where]
        factors = {t: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                   for t in slots}
        np.testing.assert_allclose(qa.diagonal(factors), np.diag(qa.dense(factors)),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("d, N", [(1, 3), (2, 1), (2, 5), (2, 9), (3, 5), (4, 3), (17, 1)])
    @pytest.mark.parametrize("width", [1, 7, 128, "D"])
    def test_column_blocks_tile_dense(self, d, N, width):
        rng = np.random.default_rng(d * 10 + N)
        qa = build_action(SliceLayout(d=d, N=N, eps=0.41), rand_hermitian(rng, d))
        D = qa.layout.total_dim
        factors = {N - 1: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))}
        # a block is valid until the next is asked for: each is copied as it comes
        yielded = [(cols, block, block.copy())
                   for cols, block in qa._column_blocks(factors, D if width == "D" else width)]
        cols = np.concatenate([np.arange(D)[c] for c, _, _ in yielded])
        np.testing.assert_array_equal(cols, np.arange(D))
        np.testing.assert_array_equal(np.hstack([copy for _, _, copy in yielded]),
                                      qa.dense(factors))
        # consecutive full-width blocks share the one buffer of the call
        full = yielded[0][0].stop - yielded[0][0].start
        for (c, block, _), (next_c, next_block, _) in zip(yielded, yielded[1:]):
            if c.stop - c.start == full == next_c.stop - next_c.start:
                assert np.shares_memory(block, next_block)
        if width == "D":
            assert len(yielded) == 1
            assert yielded[0][1].flags.owndata
            assert not np.shares_memory(qa.dense(factors), qa.dense(factors))

    @pytest.mark.parametrize("d, N", [(1, 3), (2, 1), (2, 9), (3, 5), (4, 3)])
    @pytest.mark.parametrize("width", [1, 128, "D"])
    def test_column_blocks_are_the_cycled_kron_written_once(self, d, N, width):
        """Each block, written in C's row order by one product, is bit for bit
        the broadcast kron of the first group's columns with the folded rest,
        rows rolled afterwards; and it owns a fresh C-ordered buffer."""
        rng = np.random.default_rng(d * 10 + N)
        qa = build_action(SliceLayout(d=d, N=N, eps=0.41), rand_hermitian(rng, d))
        D = qa.layout.total_dim
        factors = {0: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))}
        first, *others = qa._blocks(factors)
        rest = reduce(lambda right, block: _block_kron(block, right), reversed(others),
                      np.ones((1, 1)))
        r = len(rest)
        for cols, block in qa._column_blocks(factors, D if width == "D" else width):
            ref = _cycle_rows(qa.layout, _block_kron(first[:, cols.start // r:cols.stop // r], rest))
            assert block.shape == ref.shape and block.tobytes() == ref.tobytes()
            assert block.flags.owndata and block.flags.c_contiguous


class TestStructuredAgainstDense:
    """The structured slab engine against dense products of the references."""

    @staticmethod
    def _dense_action(qa):
        V = Operator(scipy.linalg.expm(-1j * qa.layout.eps * qa.H.mat))
        return (cycle_shift(qa.layout) @ kron(*([V] * qa.layout.N))).mat

    @settings(max_examples=60, deadline=None)
    @given(LAYOUTS, st.lists(st.integers(0, 8), max_size=3, unique=True), SEEDS)
    # d = 2, N = 9: factors in the first full group and the ragged third
    @example((2, 9), [1, 2, 8], 0)
    def test_dense_matches_shift_times_kron(self, layout, slots, seed):
        d, N = layout
        rng = np.random.default_rng(seed)
        lay = SliceLayout(d=d, N=N, eps=0.41)
        qa = build_action(lay, rand_hermitian(rng, d))
        factors = {t: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                   for t in slots if t < N}
        expected = self._dense_action(qa)
        for t, F in factors.items():
            expected = expected @ embed_at_slice(Operator(F), t, lay).mat
        tol = 1e-12 * max(1.0, np.abs(expected).max())
        dense = qa.dense(factors)
        np.testing.assert_allclose(dense, expected, atol=tol)
        # a new array every call: writing to it leaves the kept group blocks alone
        dense[...] = 0
        np.testing.assert_allclose(qa.dense(factors), expected, atol=tol)

    @settings(max_examples=60, deadline=None)
    @given(LAYOUTS, st.lists(st.integers(0, 8), max_size=4, unique=True), SEEDS)
    # d = 2, N = 9: groups 0-3, 4-7 and 8, two insertions inside the first
    @example((2, 9), [2, 1, 8], 0)
    def test_apply_and_trace_match_dense(self, layout, slots, seed):
        d, N = layout
        rng = np.random.default_rng(seed)
        lay = SliceLayout(d=d, N=N, eps=0.41)
        qa = build_action(lay, rand_hermitian(rng, d))
        inserts = [(rand_hermitian(rng, d), t) for t in slots if t < N]
        X = np.eye(lay.total_dim)
        for O, t in inserts:
            X = X @ embed_at_slice(O, t, lay).mat
        dense = self._dense_action(qa) @ X
        M = rng.standard_normal((lay.total_dim, 3)) + 1j * rng.standard_normal((lay.total_dim, 3))
        # E applied as the constraint applies it: the all-V group blocks, then C's roll
        applied = _cycle_rows(lay, _kron_apply(qa._blocks({}), X @ M))
        np.testing.assert_allclose(applied, dense @ M, atol=1e-12 * max(1.0, np.abs(dense @ M).max()))
        expected = complex(np.trace(dense))
        assert trace_theorem_lhs(qa, inserts) == pytest.approx(
            expected, abs=1e-12 * max(1.0, abs(expected)))

    @settings(max_examples=60, deadline=None)
    @given(LAYOUTS.filter(lambda layout: layout[1] >= 2), st.integers(0, 8), SEEDS, st.booleans())
    # a boundary at t = 0: B folds into O's slice 0 factor as O·B
    @example((2, 5), 0, 0, True)
    # t = N - 2: groups 0-3, 4-7 and 8, the shifted insertion in the ragged last
    @example((2, 9), 7, 1, True)
    # D = 243 in three column blocks of E and E·X (108, 108 and 27 columns)
    @example((3, 5), 2, 2, True)
    def test_constraint_expectation_matches_dense(self, layout, slot, seed, with_boundary):
        d, N = layout
        t = slot % (N - 1 if with_boundary else N)
        rng = np.random.default_rng(seed)
        lay = SliceLayout(d=d, N=N, eps=0.37)
        qa = build_action(lay, rand_hermitian(rng, d))
        O = rand_hermitian(rng, d)
        E = self._dense_action(qa)
        X = embed_at_slice(O, t, lay).mat
        # the conjugation the engine builds from E's entries: E·X, then E·X·E†
        EX = qa.dense({t: O.mat})
        np.testing.assert_allclose(EX @ qa.dense().conj().T, E @ X @ E.conj().T, atol=1e-12)
        weighted = E @ (E @ X @ E.conj().T - X)
        boundary = None
        if with_boundary:
            boundary = (rand_ket(rng, d), rand_ket(rng, d))
            weighted = embed_at_slice(boundary[0].outer(boundary[1]), 0, lay).mat @ weighted
        value = constraint_expectation(qa, O, t, boundary)
        assert value == pytest.approx(complex(np.trace(weighted)), abs=1e-12)
