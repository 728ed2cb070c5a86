"""Spacetime density operator: marginals, witnesses, region reductions."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from sqmlab import spacetime
from sqmlab.constraints import build_constraints
from sqmlab.experiments import DEFAULTS
from sqmlab.grids import ModeGrid
from sqmlab.linalg import Operator, rand_ginibre, rand_hermitian, rand_ket
from sqmlab.spacetime import (
    _compress,
    _step_factors,
    _trace_of_product,
    build_R,
    causality_witness,
    causality_witness_oracle,
    marginal,
    power_and_pseudoentropy,
    reduce_to_region,
    renyi_pseudoentropy,
)
from sqmlab.timeslab import _kron_apply

from dense_refs import cycle_shift, embed_at_slice, kron, spacetime_state

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _state(seed: int, d: int = 2, N: int = 3, eps: float = 0.29, site_dims=None):
    rng = np.random.default_rng(seed)
    return build_R(rand_ket(rng, d), rand_hermitian(rng, d), eps, N, site_dims=site_dims)


def _public(obj) -> set[str]:
    return {name for name in dir(obj) if not name.startswith("_")}


def test_state_and_constraint_set_expose_their_fields_alone():
    # one path to each fact: N, eps and H through the state's action, the
    # site split through site_dims, which build_R always stores as a tuple
    st_state = _state(3, d=3, N=2)
    assert _public(st_state) == {"R", "action", "omega", "psi0", "site_dims", "evolved"}
    assert st_state.site_dims == (3,)
    assert _state(3, d=4, N=2, site_dims=[2, 2]).site_dims == (2, 2)
    cs = build_constraints(ModeGrid(T=7.0, modes=((1, 0), (2, 1)), m=1.0, M_sites=2))
    assert _public(cs) == {"gaps", "second_class"}


# (d, N, site_dims): two states at D <= 256 and two at D >= 512; then N = 1,
# slice N-1 alone in its fused group (d = 2, N = 5; d = 3, N = 3; and d = 4,
# N = 3 above) and sharing it (d = 2, N = 6), for R·M through <omega|; and
# N = 2.  N = 1 and 2 leave zero and one head slice: at N = 1 <omega|
# contracts the very slice that psi0 sits on
POWER_STATES = [(2, 3, None), (4, 3, (2, 2)), (2, 9, None), (8, 3, (2, 4)),
                (2, 1, None), (2, 5, None), (3, 3, None), (2, 6, None), (3, 2, None)]
# every k sums T_a against T_b on one chain from T_1 = P†·R·P: k = 1 its
# trace, 2 T_1 against itself, 3..8 the chain up to T_4, T_b met on the
# way to T_a (k = 7 and 8 reach b >= 3)
POWERS = range(1, 9)


class TestMarginals:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(2, 4), SEEDS)
    def test_marginal_is_evolved_projector(self, d, N, seed):
        rng = np.random.default_rng(seed)
        st_state = build_R(rand_ket(rng, d), rand_hermitian(rng, d), 0.29, N)
        for t in range(N):
            marg = marginal(st_state, t).mat
            proj = st_state.evolved(t).outer().mat
            np.testing.assert_allclose(marg, proj, atol=1e-12)

    def test_unit_trace_powers(self):
        st_state = _state(1, d=3, N=3)
        for k in range(1, 7):
            _, tr = power_and_pseudoentropy(st_state, k)
            assert tr == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("d, N, site_dims", POWER_STATES)
    def test_powers_match_dense_matrix_power(self, d, N, site_dims):
        st_state = _state(10 + N, d=d, N=N, site_dims=site_dims)
        for k in POWERS:
            power, tr = power_and_pseudoentropy(st_state, k)
            Rk = power()
            ref = np.linalg.matrix_power(st_state.R.mat, k)
            scale = np.max(np.abs(ref))
            np.testing.assert_allclose(Rk.mat, ref, rtol=0, atol=1e-12 * scale)
            # the trace sums the half powers' product, not R^k's diagonal
            assert abs(tr - np.trace(Rk.mat)) <= 1e-12 * np.max(np.abs(Rk.mat))

    @pytest.mark.parametrize("d, N, site_dims", POWER_STATES)
    def test_step_matches_the_dense_reference(self, d, N, site_dims):
        rng = np.random.default_rng(40 + N)
        psi, H = rand_ket(rng, d), rand_hermitian(rng, d)
        st_state = build_R(psi, H, 0.29, N, site_dims=site_dims)
        R = spacetime_state(psi, H, 0.29, N)
        D = d**N
        # the trace powers start from the compression T_1 = P†·X·P with
        # P = |psi0> ⊗ I, and each step is T ↦ T_1·T through the Kronecker
        # factors of T_1, psi0 and <omega| folded into the end ones
        P = np.kron(psi.vec[:, None], np.eye(D // d))
        X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        ref = P.conj().T @ X @ P
        np.testing.assert_allclose(_compress(st_state, X), ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())
        T1 = P.conj().T @ R @ P
        factors = _step_factors(st_state.action._head_blocks, psi.vec, st_state.omega)
        for m in (1, 3, D // d, 2 * D):
            T = rng.standard_normal((D // d, m)) + 1j * rng.standard_normal((D // d, m))
            step = _kron_apply(factors, T)
            assert step.shape == (D // d, m)
            np.testing.assert_allclose(step, T1 @ T, rtol=0, atol=1e-12 * np.abs(T1 @ T).max())
            np.testing.assert_allclose(step, _compress(st_state, st_state.R.mat) @ T, rtol=0,
                                       atol=1e-12 * np.abs(T1 @ T).max())

    @pytest.mark.parametrize("d, N, site_dims", POWER_STATES)
    def test_rescaled_state_has_geometric_trace_powers(self, d, N, site_dims):
        # c·R, both stored and in the rank-one boundary <omega|, has
        # Tr (cR)^k = c^k, so a half power of the wrong order shows as a
        # wrong power of c
        st_state = _state(30 + N, d=d, N=N, site_dims=site_dims)
        c = 1.25
        scaled = dataclasses.replace(st_state, R=Operator(c * st_state.R.mat),
                                     omega=c * st_state.omega)
        for k in POWERS:
            assert power_and_pseudoentropy(scaled, k)[1] == pytest.approx(c**k, rel=1e-12)

    def test_power_states_span_small_and_large_dims(self):
        dims = [d**N for d, N, _ in POWER_STATES]
        assert min(dims) <= 256 and max(dims) >= 512

    @pytest.mark.parametrize("d, N, site_dims", POWER_STATES)
    def test_perturbed_R_moves_the_trace_powers(self, d, N, site_dims):
        # the stored R is a factor of every power: a fault in it must show
        st_state = _state(20 + N, d=d, N=N, site_dims=site_dims)
        rng = np.random.default_rng(N)
        G = rand_ginibre(rng, d**N)
        R_bad = st_state.R.mat + 1e-4 * G / np.linalg.norm(G)
        bad = dataclasses.replace(st_state, R=Operator(R_bad))
        tol = DEFAULTS["st-state-marginals"]["tol_trace"]
        for k in POWERS:
            assert abs(power_and_pseudoentropy(bad, k)[1] - 1.0) > tol

    @pytest.mark.parametrize("d, N, site_dims", [(2, 9, None), (3, 2, None), (4, 3, (2, 2))])
    def test_trace_powers_are_kept_per_chain_and_agree_bitwise(self, d, N, site_dims):
        # every oracle of the CLI is 1, so a memo that mixed up its keys
        # would pass every run: on c·R, Tr (cR)^k = c^k tells the k apart,
        # and each value asked in any order must be bit for bit the one a
        # fresh state computes for that k alone
        base, c = _state(50 + N, d=d, N=N, site_dims=site_dims), 1.25

        def scaled():
            return dataclasses.replace(base, R=Operator(c * base.R.mat), omega=c * base.omega)

        st_state = scaled()
        for k in (4, 1, 6, 3, 2, 5):
            tr = power_and_pseudoentropy(st_state, k)[1]
            assert tr == power_and_pseudoentropy(scaled(), k)[1]
            assert tr == pytest.approx(c**k, rel=1e-12)
        # the chain to T_2 serves k = 3 and k = 4, and the state keeps their
        # traces and T_1, the compression of its stored R, never T_2
        st_state = scaled()
        power_and_pseudoentropy(st_state, 3)
        assert st_state._trace_powers.keys() == {3, 4}
        assert all(isinstance(v, complex) for v in st_state._trace_powers.values())
        assert np.array_equal(st_state._T1, _compress(st_state, st_state.R.mat))
        replaced = dataclasses.replace(st_state)
        assert replaced._trace_powers == {} and replaced._T1 is None

    @staticmethod
    def _count_compressions(monkeypatch) -> list:
        calls, compress = [], spacetime._compress

        def counted(st_state, M):
            calls.append(st_state)
            return compress(st_state, M)

        monkeypatch.setattr(spacetime, "_compress", counted)
        return calls

    @pytest.mark.parametrize("d, N, site_dims", POWER_STATES)
    def test_R_is_compressed_once_per_state_for_every_k(self, d, N, site_dims, monkeypatch):
        calls = self._count_compressions(monkeypatch)
        first, second = (_state(60 + N + j, d=d, N=N, site_dims=site_dims) for j in (0, 1))
        for k in (5, 2, 8, 1, 7, 3, 6, 4):
            for st_state in (first, second):
                assert power_and_pseudoentropy(st_state, k)[1] == pytest.approx(1.0, abs=1e-10)
        assert len(calls) == 2 and calls[0] is first and calls[1] is second

    def test_replaced_R_is_compressed_again_and_moves_the_value(self, monkeypatch):
        calls = self._count_compressions(monkeypatch)
        st_state, c = _state(70, d=2, N=5), 1.25
        assert power_and_pseudoentropy(st_state, 1)[1] == pytest.approx(1.0, rel=1e-12)
        # only R scales, <omega| stays: T_1 and so Tr R = Tr T_1 scale by c
        scaled = dataclasses.replace(st_state, R=Operator(c * st_state.R.mat))
        assert scaled._T1 is None
        assert power_and_pseudoentropy(scaled, 1)[1] == pytest.approx(c, rel=1e-12)
        assert len(calls) == 2 and calls[0] is st_state and calls[1] is scaled
        np.testing.assert_allclose(scaled._T1, c * st_state._T1, rtol=1e-14)

    def test_kept_T1_refuses_writes(self):
        st_state = _state(71, d=3, N=3)
        power_and_pseudoentropy(st_state, 2)
        with pytest.raises(ValueError):
            st_state._T1[0, 0] = 0.0

    @pytest.mark.parametrize("d, N", [(2, 10), (3, 6), (4, 5)])
    def test_compression_transient_stays_within_three_T(self, d, N):
        # row bands of D/d^2 rows: one band's d x D/d^2 x D/d contraction
        # beside the D/d x D/d result, never the D x D/d product R·P
        st_state = _state(72, d=d, N=N)
        n = st_state.action.layout.total_dim // d
        tracemalloc.start()
        try:
            _compress(st_state, st_state.R.mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * n * 16  # T_1 is (D/d)^2 complex128

    def test_stored_R_refuses_writes_and_is_the_one_buffer_built(self):
        _state(9, d=2, N=10)  # the action's kept blocks, outside the traced build
        tracemalloc.start()
        try:
            st_state = _state(9, d=2, N=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with pytest.raises(ValueError):
            st_state.R.mat[0, 0] = 0.0
        # no kron and roll copy next to R, and no copy of R into its Operator
        assert peak <= 1.5 * st_state.R.mat.nbytes

    @pytest.mark.parametrize("k", [3, 4])
    def test_trace_power_chain_stays_within_a_few_T(self, k):
        # T_1 = P†·R·P and one step T_1·T_2 through the Kronecker factors:
        # no D-row broadcast of psi0 ⊗ T, so the peak is T_1 and T_2 beside
        # the step's own transient, or _compress's one band beside T_1
        st_state = _state(9, d=2, N=10)
        n = st_state.action.layout.total_dim // 2
        tracemalloc.start()
        try:
            power_and_pseudoentropy(st_state, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * n * n * 16  # T is (D/d)^2 complex128

    def test_renyi_vanishes(self):
        st_state = _state(2, d=2, N=4)
        for k in range(2, 7):
            assert abs(renyi_pseudoentropy(st_state, k)) <= 1e-10


class TestCausalityWitness:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(2, 4), SEEDS)
    def test_matches_heisenberg_commutator(self, d, N, seed):
        rng = np.random.default_rng(seed)
        st_state = build_R(rand_ket(rng, d), rand_hermitian(rng, d), 0.33, N)
        A, B = rand_hermitian(rng, d), rand_hermitian(rng, d)
        for t in range(1, N):
            w = causality_witness(st_state, A, B, t)
            o = causality_witness_oracle(st_state, A, B, t)
            assert w == pytest.approx(o, abs=1e-10 * max(1.0, abs(o)))

    def test_commuting_pair_gives_zero(self):
        # B built to commute with its own evolution: H diagonal, A = B = diag
        rng = np.random.default_rng(3)
        d, N = 3, 3
        from sqmlab.linalg import Operator

        H = Operator(np.diag([0.3, 1.1, 2.4]))
        A = Operator(np.diag([1.0, -2.0, 0.5]))
        st_state = build_R(rand_ket(rng, d), H, 0.4, N)
        assert abs(causality_witness(st_state, A, A, 1)) <= 1e-12

    def test_rejects_non_later_slice(self):
        st_state = _state(4)
        A = rand_hermitian(np.random.default_rng(0), 2)
        with pytest.raises(ValueError):
            causality_witness(st_state, A, A, 0)
        with pytest.raises(ValueError, match="outside the 3x1 slice/site grid"):
            causality_witness(st_state, A, A, 3)


class TestRegions:
    def test_equal_time_region_is_state_like(self):
        report = reduce_to_region(_state(6, d=3, N=3), [(1, 0)])
        assert report.is_state_like
        assert np.trace(report.operator.mat) == pytest.approx(1.0, abs=1e-10)

    def test_cross_time_region_is_generically_not_hermitian(self):
        report = reduce_to_region(_state(7, d=2, N=4), [(0, 0), (2, 0)])
        assert report.herm_deviation > 1e-3
        assert not report.is_state_like

    def test_rejects_empty_and_out_of_range(self):
        st_state = _state(8)
        with pytest.raises(ValueError):
            reduce_to_region(st_state, [])
        with pytest.raises(ValueError):
            reduce_to_region(st_state, [(99, 0)])
        # every read onto cells shares the one grid check
        with pytest.raises(ValueError, match="outside the 3x1 slice/site grid"):
            marginal(st_state, 3)


class TestTraceOfProduct:
    # one tile (D <= 32), several tiles of 32 (512, 1024), and powers of 3,
    # which 32 does not divide, in tiles of 27 (one at 27, 3 x 3 at 81, ...)
    @pytest.mark.parametrize("D", [1, 2, 16, 27, 32, 81, 243, 512, 729, 1024])
    def test_tiled_sum_matches_the_plain_transposed_sum(self, D):
        rng = np.random.default_rng(D)
        A, B = rand_ginibre(rng, D), rand_ginibre(rng, D)
        expected = complex(np.einsum("ij,ji->", A, B))
        assert abs(_trace_of_product(A, B) - expected) <= 1e-13 * abs(expected)


class TestStructuredAgainstDense:
    """Slice-local applies against dense traces built from embed_at_slice."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(2, None), (3, None), (4, (2, 2))]), st.integers(2, 4), SEEDS)
    # the boundary, folded onto slice N-1, in a later fused group: groups
    # 4+1 and 4+2 (d = 2), 2+2+1 (d = 3), 2+1 (d = 4, two sites per slice)
    @example((2, None), 5, 0)
    @example((2, None), 6, 1)
    @example((3, None), 5, 2)
    @example((4, (2, 2)), 3, 3)
    def test_state_witness_and_insertion_trace(self, slice_dims, N, seed):
        d, site_dims = slice_dims
        rng = np.random.default_rng(seed)
        psi, H = rand_ket(rng, d), rand_hermitian(rng, d)
        st_state = build_R(psi, H, 0.33, N, site_dims=site_dims)
        lay, R = st_state.action.layout, st_state.R.mat
        V = Operator(scipy.linalg.expm(-0.33j * H.mat))
        back = scipy.linalg.expm(0.33j * N * H.mat)  # V^{-N}
        b = Operator(psi.outer().mat @ back)
        raw = embed_at_slice(b, 0, lay).mat @ cycle_shift(lay).mat @ kron(*([V] * N)).mat
        np.testing.assert_allclose(R, raw / np.trace(raw), atol=1e-12)
        # the kept boundary bra <psi0|V^{-N}·V / Tr that the powers apply, frozen like R
        omega = (psi.vec.conj() @ back @ V.mat) / np.trace(raw)
        np.testing.assert_allclose(st_state.omega, omega, atol=1e-12)
        assert not st_state.omega.flags.writeable
        A, B = rand_hermitian(rng, d), rand_hermitian(rng, d)
        for t in range(1, N):
            X = embed_at_slice(A, 0, lay).mat @ embed_at_slice(B, t, lay).mat
            dense = complex(np.trace((R - R.conj().T) @ X))
            assert causality_witness(st_state, A, B, t) == pytest.approx(dense, abs=1e-12)
