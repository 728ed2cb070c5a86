"""Dense operator/state helpers: algebra, factor maps, decompositions."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from sqmlab.fermions import FermionLayout, fermionic_cycle, jw_annihilator, parity_operator
from sqmlab.linalg import (
    Ket,
    Operator,
    partial_trace,
    rand_ginibre,
    rand_hermitian,
    rand_ket,
    unitary,
)

from dense_refs import kron, partial_trace_loop

DIMS = st.integers(min_value=2, max_value=5)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _public(cls) -> set[str]:
    return {name for name in dir(cls) if not name.startswith("_")}


class TestOperator:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3)))

    def test_entries_are_write_protected(self):
        A = Operator(np.eye(2))
        with pytest.raises(ValueError):
            A.mat[0, 0] = 5.0

    def test_float64_stays_real_everything_else_becomes_complex(self):
        assert Operator(np.eye(3)).mat.dtype == np.float64
        for entries in (np.eye(3, dtype=int), np.eye(3, dtype=bool),
                        np.eye(3, dtype=np.complex64), np.eye(3, dtype=complex)):
            A = Operator(entries)
            assert A.mat.dtype == np.complex128
            np.testing.assert_array_equal(A.mat, np.eye(3))
            with pytest.raises(ValueError):
                A.mat[0, 0] = 5.0

    def test_fermion_dense_views_are_real(self):
        layout = FermionLayout(3, 2)
        assert jw_annihilator(layout, 1, 1).mat.dtype == np.float64
        assert parity_operator(layout).mat.dtype == np.float64
        assert fermionic_cycle(layout)[0].mat.dtype == np.float64

    def test_complex_entries_are_copied_once(self):
        X = rand_ginibre(np.random.default_rng(6), 512)
        tracemalloc.start()
        try:
            A = Operator(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.shares_memory(A.mat, X)
        assert peak <= 1.1 * X.nbytes

    def test_write_protected_buffer_is_kept_and_anything_else_copied(self):
        rng = np.random.default_rng(7)
        owned = rand_ginibre(rng, 4)
        owned.flags.writeable = False
        assert Operator(owned).mat is owned
        # a writable array, and a read-only view whose base stays writable:
        # a later write to the source must not reach the Operator
        base = rand_ginibre(rng, 4)
        view = base[:]
        view.flags.writeable = False
        for source in (base, view):
            A = Operator(source)
            before = A.mat.copy()
            base[0, 0] += 1.0
            assert not np.shares_memory(A.mat, base)
            np.testing.assert_array_equal(A.mat, before)

    def test_hermitian_detection(self):
        rng = np.random.default_rng(0)
        unitary(rand_hermitian(rng, 4), 0.5)
        nan = rand_hermitian(rng, 4).mat.copy()
        nan[1, 2] = nan[2, 1] = np.nan
        for H in (Operator(rand_ginibre(rng, 4)), Operator(nan)):
            with pytest.raises(ValueError, match=r"needs a Hermitian generator \(tol 1e-12\)"):
                unitary(H, 0.5)

    def test_exposes_only_its_matrix(self):
        assert _public(Operator) == {"mat"}

    def test_attributes_cannot_be_rebound_or_deleted(self):
        A = Operator(np.eye(2))
        for name in ("mat", "dim"):
            with pytest.raises(AttributeError):
                setattr(A, name, np.zeros((2, 2)))
        with pytest.raises(AttributeError):
            del A.mat
        np.testing.assert_array_equal(A.mat, np.eye(2))


class TestKet:
    def test_exposes_only_its_vector_and_projector(self):
        assert _public(Ket) == {"vec", "outer"}

    def test_vector_is_flat_complex_and_immutable(self):
        source = np.array([[3.0], [4.0]])
        psi = Ket(source)
        assert psi.vec.shape == (2,) and psi.vec.dtype == np.complex128
        assert not np.shares_memory(psi.vec, source)
        with pytest.raises(ValueError):
            psi.vec[0] = 0.0
        with pytest.raises(AttributeError):
            psi.vec = np.zeros(2)
        with pytest.raises(AttributeError):
            del psi.vec
        np.testing.assert_array_equal(psi.vec, [3.0, 4.0])

    def test_outer(self):
        psi = rand_ket(np.random.default_rng(1), 3)
        proj = psi.outer()
        assert np.trace(proj.mat) == pytest.approx(1.0)
        np.testing.assert_allclose(proj.mat, np.outer(psi.vec, psi.vec.conj()))


class TestKron:
    @settings(max_examples=25, deadline=None)
    @given(DIMS, DIMS, SEEDS)
    def test_trace_multiplicative(self, d1, d2, seed):
        rng = np.random.default_rng(seed)
        A = Operator(rand_ginibre(rng, d1))
        B = Operator(rand_ginibre(rng, d2))
        assert np.trace(kron(A, B).mat) == pytest.approx(np.trace(A.mat) * np.trace(B.mat))


class TestPartialTrace:
    @settings(max_examples=25, deadline=None)
    @given(DIMS, DIMS, SEEDS)
    def test_preserves_trace(self, d1, d2, seed):
        rng = np.random.default_rng(seed)
        A = Operator(rand_ginibre(rng, d1 * d2))
        for keep in ([0], [1], [0, 1]):
            assert np.trace(partial_trace(A, (d1, d2), keep).mat) == pytest.approx(np.trace(A.mat))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data(), SEEDS)
    def test_matches_sequential_trace_loop(self, dims, data, seed):
        n = len(dims)
        keep = data.draw(st.one_of(
            st.just([]),  # keep none
            st.just([*reversed(range(n)), 0]),  # keep all, unsorted, with a duplicate
            st.lists(st.integers(0, n - 1), max_size=2 * n),  # unsorted, duplicates
        ))
        A = Operator(rand_ginibre(np.random.default_rng(seed), int(np.prod(dims))))
        got, ref = partial_trace(A, dims, keep), partial_trace_loop(A, dims, keep)
        assert len(got.mat) == len(ref.mat) == int(np.prod([dims[i] for i in set(keep)]))
        # the two sum the same diagonal entries in a different order
        atol = 4 * np.finfo(float).eps * len(A.mat) * np.max(np.abs(A.mat))
        np.testing.assert_allclose(got.mat, ref.mat, rtol=0, atol=atol)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(7)
        rho = rand_ket(rng, 2).outer()
        sig = rand_ket(rng, 3).outer()
        joint = kron(rho, sig)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), [0]).mat, rho.mat, atol=1e-14)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), [1]).mat, sig.mat, atol=1e-14)

    def test_rejects_factor_sizes_that_do_not_fit(self):
        A = Operator(np.eye(6))
        with pytest.raises(ValueError, match="prod"):
            partial_trace(A, (2, 2), [0])
        with pytest.raises(ValueError, match="positive"):
            partial_trace(A, (-2, -3), [0])
        with pytest.raises(IndexError, match="out of range"):
            partial_trace(A, (2, 3), [2])


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rand_ginibre(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestUnitary:
    # the reference is scipy's scaling-and-squaring Padé expm, a different
    # algorithm from the eigendecomposition under test
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), SEEDS, st.floats(-8.0, 8.0))
    def test_matches_scipy_expm(self, d, seed, s):
        H = rand_hermitian(np.random.default_rng(seed), d)
        np.testing.assert_allclose(unitary(H, s).mat, scipy.linalg.expm(-1j * s * H.mat),
                                   rtol=0, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), SEEDS, st.floats(-1e3, 1e3))
    def test_is_unitary(self, d, seed, s):
        U = unitary(rand_hermitian(np.random.default_rng(seed), d), s).mat
        assert np.max(np.abs(U.conj().T @ U - np.eye(d))) <= 1e-14

    def test_eigenvectors_are_polished_to_working_precision(self):
        # eigh's own eigenvectors leave U†U - I at up to 3.1e-15 over these
        # 100 draws at d = 6; after the Newton-Schulz step it is 7.8e-16
        worst = max(np.max(np.abs(U.conj().T @ U - np.eye(6)))
                    for U in (unitary(rand_hermitian(np.random.default_rng(seed), 6), 0.3).mat
                              for seed in range(100)))
        assert worst <= 1.5e-15

    @pytest.mark.parametrize("lam", [[1.0, 1.0, -2.0, -2.0, 0.5], [0.0] * 4, [3.0, 3.0, 3.0]])
    def test_degenerate_spectra(self, lam):
        s = 0.7
        phases = np.exp(-1j * s * np.array(lam))
        np.testing.assert_allclose(unitary(Operator(np.diag(lam)), s).mat, np.diag(phases),
                                   rtol=0, atol=1e-15)
        Q = _haar_unitary(np.random.default_rng(len(lam)), len(lam))
        H = Operator(Q @ np.diag(lam) @ Q.conj().T)
        U = unitary(H, s).mat
        np.testing.assert_allclose(U, Q @ np.diag(phases) @ Q.conj().T, rtol=0, atol=1e-14)
        np.testing.assert_allclose(U, scipy.linalg.expm(-1j * s * H.mat), rtol=0, atol=1e-14)

    def test_float64_generator_gives_complex128(self):
        rng = np.random.default_rng(4)
        P = rng.standard_normal((5, 5))
        H = Operator(P + P.T)
        assert H.mat.dtype == np.float64
        U = unitary(H, 0.3)
        assert U.mat.dtype == np.complex128
        assert not U.mat.flags.writeable

    def test_refuses_a_non_hermitian_generator(self):
        G = Operator(rand_ginibre(np.random.default_rng(8), 3))
        with pytest.raises(ValueError, match="Hermitian"):
            unitary(G, 0.1)

    def test_refuses_phases_out_of_range(self):
        H = Operator(np.diag([1.0, -0.5]))
        unitary(H, 2.0**52 - 1.0)  # the largest phase still taken
        for s in (2.0**52, -(2.0**52), 1e308, np.inf, np.nan):
            with pytest.raises(FloatingPointError, match="out of range"):
                unitary(H, s)
        with pytest.raises(FloatingPointError):  # 0 * inf is NaN
            unitary(Operator(np.zeros((2, 2))), np.inf)


class TestRandom:
    def test_rand_hermitian_seeded_reproducible(self):
        A = rand_hermitian(np.random.default_rng(42), 4)
        B = rand_hermitian(np.random.default_rng(42), 4)
        np.testing.assert_array_equal(A.mat, B.mat)

    def test_rand_ket_normalized(self):
        assert np.linalg.norm(rand_ket(np.random.default_rng(9), 6).vec) == pytest.approx(1.0)
