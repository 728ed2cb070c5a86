"""Clock-conditioned evolution: history states and conditioning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqmlab.clock import ClockSystem, conditioned_expectation, history_state
from sqmlab.linalg import Ket, Operator, rand_hermitian, rand_ket

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _system(seed: int, d: int = 3, N: int = 5, eps: float = 0.3) -> ClockSystem:
    rng = np.random.default_rng(seed)
    return ClockSystem(N, eps, rand_hermitian(rng, d), rand_ket(rng, d))


class TestClockSystem:
    def test_rejects_nonhermitian_hamiltonian(self):
        rng = np.random.default_rng(0)
        H = Operator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        with pytest.raises(ValueError, match="Hermitian"):
            ClockSystem(3, 0.1, H, rand_ket(rng, 2))

    def test_rejects_unnormalized_state(self):
        rng = np.random.default_rng(0)
        unnormalized = Ket(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            ClockSystem(3, 0.1, rand_hermitian(rng, 2), unnormalized)


class TestHistoryState:
    def test_normalized(self):
        psi = history_state(_system(1))
        assert psi.norm() == pytest.approx(1.0)

    def test_slice_components_are_evolved_states(self):
        cs = _system(2, d=2, N=4)
        psi = history_state(cs)
        comps = psi.vec.reshape(4, 2)
        for t in range(4):
            np.testing.assert_allclose(
                comps[t], cs.evolved(t).vec / math.sqrt(4), atol=1e-14
            )


class TestConditioning:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 6), SEEDS)
    def test_matches_schrodinger_evolution(self, d, N, seed):
        rng = np.random.default_rng(seed)
        cs = ClockSystem(N, 0.27, rand_hermitian(rng, d), rand_ket(rng, d))
        O = rand_hermitian(rng, d)
        for t in range(N):
            lhs = conditioned_expectation(cs, O, t)
            rhs = cs.evolved(t).expectation(O)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_rejects_slice_out_of_range(self):
        cs = _system(3)
        O = rand_hermitian(np.random.default_rng(0), cs.system_dim)
        with pytest.raises(ValueError):
            conditioned_expectation(cs, O, cs.N)

