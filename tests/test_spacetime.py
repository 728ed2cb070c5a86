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


@pytest.mark.parametrize("site_dims", [(-2, -1), (2, -1, -1), (0, 2), (4,)])
def test_build_R_refuses_a_site_split_before_building_the_action(site_dims, monkeypatch):
    # (-2, -1) and (2, -1, -1) multiply out to d = 2 but name no sites that
    # a partial trace could keep; (0, 2) and (4,) do not multiply out to d
    def no_action(*args):
        raise AssertionError("build_action called")

    monkeypatch.setattr(spacetime, "build_action", no_action)
    with pytest.raises(ValueError, match="site_dims must be positive and factorize"):
        _state(5, d=2, N=3, site_dims=site_dims)


def test_every_array_kept_on_an_action_or_a_state_refuses_writes():
    # the trace-power step reads the action's head blocks and every power
    # reads the kept S, so none of them may change under a later read
    st_state = _state(73, d=2, N=5)
    power_and_pseudoentropy(st_state, 1)  # forms the kept S
    qa = st_state.action
    assert len(qa._powers) > 1 and qa._head_blocks  # V ⊗ V, ... and a head block beside V
    kept = [qa.V.mat, *qa._powers, *qa._head_blocks, st_state.R.mat, st_state.omega,
            st_state.psi0.vec, st_state._S]
    for array in kept:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0.0


# (d, N, site_dims): two states at D <= 256 and two at D >= 512; then N = 1,
# slice N-1 alone in its fused group (d = 2, N = 5; d = 3, N = 3; and d = 4,
# N = 3 above) and sharing it (d = 2, N = 6), for R·M through <omega|; and
# N = 2.  N = 1 and 2 leave zero and one head slice: at N = 1 <omega|
# contracts the very slice that psi0 sits on, and at N = 2 S is 1 x 1.
# d = 3, N = 5 compresses R in bands of 5 of S's 27 rows, the last one
# shorter; d = 2, N = 9 in 16 bands of 8
POWER_STATES = [(2, 3, None), (4, 3, (2, 2)), (2, 9, None), (8, 3, (2, 4)),
                (2, 1, None), (2, 5, None), (3, 3, None), (2, 6, None), (3, 2, None),
                (3, 5, None)]
# every k sums S_a against S_b on one chain from S = F·R·G: k = 1 its
# trace, 2 S against itself, 3..8 the chain up to S_4, S_b met on the
# way to S_a (k = 7 and 8 reach b >= 3)
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
            _, tr = power_and_pseudoentropy(st_state, k)
            ref = np.linalg.matrix_power(st_state.R.mat, k)
            # the trace sums the half powers' product, not R^k's diagonal
            assert abs(tr - np.trace(ref)) <= 1e-12 * np.max(np.abs(ref))

    @staticmethod
    def _ends(psi, omega, D):
        """F = <psi0| ⊗ I ⊗ <omega| and G = |psi0> ⊗ I ⊗ |u>, dense; <psi0| and |psi0> at N = 1."""
        d = len(psi)
        if D == d:
            return psi.conj()[None, :], psi[:, None]
        u = omega.conj() / np.sum(np.abs(omega) ** 2)
        eye = np.eye(D // d**2)
        return (np.kron(psi.conj()[None, :], np.kron(eye, omega[None, :])),
                np.kron(psi[:, None], np.kron(eye, u[:, None])))

    @pytest.mark.parametrize("d, N, site_dims", POWER_STATES)
    def test_step_matches_the_dense_reference(self, d, N, site_dims):
        rng = np.random.default_rng(40 + N)
        psi, H = rand_ket(rng, d), rand_hermitian(rng, d)
        st_state = build_R(psi, H, 0.29, N, site_dims=site_dims)
        R = spacetime_state(psi, H, 0.29, N)
        D = d**N
        # the trace powers start from the compression S = F·X·G with
        # F = <psi0| ⊗ I ⊗ <omega| and G = |psi0> ⊗ I ⊗ |u>, <omega|u> = 1,
        # and each step is T ↦ S·T through the Kronecker factors of S, psi0
        # and <omega| contracted into the end ones
        F, G = self._ends(psi.vec, st_state.omega, D)
        n = len(F)
        assert n == (1 if N < 3 else D // d**2)
        X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        ref = F @ X @ G
        np.testing.assert_allclose(_compress(st_state, X), ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())
        S = F @ R @ G
        factors = _step_factors(st_state.action._head_blocks, psi.vec, st_state.omega)
        for m in (1, 3, n, 2 * D):
            T = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            step = _kron_apply(factors, T)
            assert step.shape == (n, m)
            np.testing.assert_allclose(step, S @ T, rtol=0, atol=1e-12 * np.abs(S @ T).max())
            np.testing.assert_allclose(step, _compress(st_state, st_state.R.mat) @ T, rtol=0,
                                       atol=1e-12 * np.abs(S @ T).max())

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

    @pytest.mark.parametrize("d, N, site_dims", [state for state in POWER_STATES if state[1] > 1])
    def test_fault_that_G_annihilates_leaves_the_powers_and_moves_the_last_marginal(
            self, d, N, site_dims):
        # S = F·R·G sees a fault only through F·fault·G: a term on psi0 in
        # row slice 0 whose column slice N-1 is a bra annihilated by |u>
        # leaves every Tr R^k as read; the marginal of slice N-1, read from
        # all of R, sees it
        st_state = _state(80 + N, d=d, N=N, site_dims=site_dims)
        rng, D = np.random.default_rng(80 + N), d**N
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        omega = st_state.omega
        bra = x - (np.vdot(omega, x) / np.vdot(omega, omega)) * omega  # sum_c bra_c omega_c* = 0
        assert abs(bra @ (omega.conj() / np.vdot(omega, omega))) <= 1e-14 * np.linalg.norm(x)
        Y = rand_ginibre(rng, D // d)
        fault = np.kron(st_state.psi0.vec[:, None], Y @ np.kron(np.eye(D // d), bra[None, :]))
        R_bad = st_state.R.mat + 1e-6 * fault / np.linalg.norm(fault)
        bad = dataclasses.replace(st_state, R=Operator(R_bad))
        tols = DEFAULTS["st-state-marginals"]
        for k in POWERS:
            assert power_and_pseudoentropy(bad, k)[1] == pytest.approx(
                power_and_pseudoentropy(st_state, k)[1], abs=1e-13)
        moved = marginal(bad, N - 1).mat - bad.evolved(N - 1).outer().mat
        assert np.max(np.abs(moved)) > tols["tol"]

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
        # the chain to S_2 serves k = 3 and k = 4, and the state keeps their
        # traces and S, the compression of its stored R, never S_2
        st_state = scaled()
        power_and_pseudoentropy(st_state, 3)
        assert st_state._trace_powers.keys() == {3, 4}
        assert all(isinstance(v, complex) for v in st_state._trace_powers.values())
        assert np.array_equal(st_state._S, _compress(st_state, st_state.R.mat))
        replaced = dataclasses.replace(st_state)
        assert replaced._trace_powers == {} and "_S" not in vars(replaced)

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
        # only R scales, <omega| stays: S and so Tr R = Tr S scale by c
        scaled = dataclasses.replace(st_state, R=Operator(c * st_state.R.mat))
        assert "_S" not in vars(scaled)
        assert power_and_pseudoentropy(scaled, 1)[1] == pytest.approx(c, rel=1e-12)
        assert len(calls) == 2 and calls[0] is st_state and calls[1] is scaled
        np.testing.assert_allclose(scaled._S, c * st_state._S, rtol=1e-14)

    def test_kept_S_refuses_writes(self):
        st_state = _state(71, d=3, N=3)
        power_and_pseudoentropy(st_state, 2)
        with pytest.raises(ValueError):
            st_state._S[0, 0] = 0.0

    @pytest.mark.parametrize("d, N", [(2, 10), (3, 6), (4, 5)])
    def test_compression_transient_stays_within_three_T(self, d, N):
        # row bands of D/d^4 rows (one at d = 4, N = 5): a band's
        # contractions beside the D/d^2 x D/d^2 result S, never the D/d x D/d
        # compression P†·R·P, which alone is d^2 >= 4 times S
        st_state = _state(72, d=d, N=N)
        n = st_state.action.layout.total_dim // d**2
        tracemalloc.start()
        try:
            _compress(st_state, st_state.R.mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * n * 16  # S is (D/d^2)^2 complex128

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
        # S = F·R·G and one step S·S through the Kronecker factors: the peak
        # is S and S_2 beside the step's own transient, or _compress's band
        # transients beside S, all on the D/d^2 square; the D/d square
        # P†·R·P alone would be 4 S here
        st_state = _state(9, d=2, N=10)
        n = st_state.action.layout.total_dim // 4
        tracemalloc.start()
        try:
            power_and_pseudoentropy(st_state, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * n * 16  # S is (D/d^2)^2 complex128

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
    # powers of 2 and of 3 from 1 to 1024, the sides of S that the runs reach
    @pytest.mark.parametrize("D", [1, 2, 16, 27, 32, 81, 243, 512, 729, 1024])
    def test_matches_the_trace_of_the_matrix_product(self, D):
        rng = np.random.default_rng(D)
        A, B = rand_ginibre(rng, D), rand_ginibre(rng, D)
        expected = complex(np.trace(A @ B))
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
