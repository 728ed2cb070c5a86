"""Gaussian-trace correlators: pair values, tower resummations, kernels."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dense_refs import (
    feynman_kernel,
    feynman_propagator_tower_sum,
    frequency_window,
    thermal_pair_bruteforce,
)
from sqmlab.experiments import DEFAULTS
from sqmlab.gaussian import (
    LINE_SLICE_CAP,
    PoleError,
    _mode_corr,
    feynman_kernel_closed,
    feynman_propagator_grid,
    kernel_product_sums,
    line_table,
    tau_mode_correlator,
)
from sqmlab.grids import ModeGrid, frequency_tower, site_class_energies
from sqmlab.oracles import DENSE_DIM_CAP, DenseFockLattice, timeordered_two_point_ed

def closed_form_pow_reference(N, tau, eps_i, E, dt):
    """The scalar resummed kernel with the rounded w raised to integer powers."""
    w = cmath.exp(-1j * tau * (E - 1j * eps_i))
    r = ((dt - 1) % N) + 1
    s = (-dt) % N
    return (w**r + w**s) / (1.0 - w**N)


def closed_form_longdouble(N, tau, eps_i, E, dt):
    """(exp(r z) + exp(s z)) / (-expm1(N z)), z = -i tau (E - i eps_i), in np.clongdouble.

    dt is an int (the value is a complex) or an integer array (a complex array).
    """
    L = np.longdouble
    z = np.clongdouble(-L(tau) * L(eps_i)) + np.clongdouble(1j) * (-L(tau) * L(E))
    r, s = (np.asarray(k, dtype=L) for k in ((dt - 1) % N + 1, (-dt) % N))
    value = (np.exp(r * z) + np.exp(s * z)) / -np.expm1(L(N) * z)
    return complex(value) if np.ndim(dt) == 0 else value.astype(complex)


def tower_loop_reference(tower, tau, eps_i, dt):
    """The tower kernel as an explicit per-mode scalar loop."""
    N = tower.N
    E = tower.energies[0]
    total = 0.0 + 0.0j
    for n in frequency_window(N):
        w = 2.0 * math.pi * n / tower.T
        c_minus = 1.0 / (cmath.exp(-1j * tau * (w - E + 1j * eps_i)) - 1.0)
        c_plus = 1.0 / (cmath.exp(-1j * tau * (w + E - 1j * eps_i)) - 1.0)
        total += cmath.exp(-1j * w * tau * dt) * (c_minus - c_plus)
    return total / N


def smatrix_line(tau_scale):
    """(N, tau, eps_i, site-class energies) of the order-2 smatrix line at tau2 * tau_scale.

    The externals' spatial labels and energies, as smatrix_element reads them.
    """
    p = DEFAULTS["smatrix"]
    tau = p["tau2"] * tau_scale
    e_a = 2 * math.pi * p["n_a2"] / p["T2"]
    e_b = 2 * math.pi * p["n_b2"] / p["T2"]
    energies = site_class_energies((1, 2, 0, 3), (e_b, e_a, e_a, e_b), p["M_sites"])
    return round(p["T2"] / tau), tau, p["eps_i2"], energies


LAMBDAS = st.builds(complex, st.floats(0.5, 4.0), st.floats(-3.0, 3.0))


def pair_value(lam: complex) -> complex:
    """1/(e^lam - 1), the Bose pair law, as _mode_corr at tau = 1: gap -Im lam, eps_i Re lam."""
    lam = complex(lam)
    return complex(_mode_corr(1.0, -lam.imag, lam.real))


class TestPairCorrelator:
    @settings(max_examples=40, deadline=None)
    @given(LAMBDAS)
    def test_matches_truncated_fock_bruteforce(self, lam):
        analytic = pair_value(lam)
        brute = thermal_pair_bruteforce(lam, n_max=80)
        assert analytic == pytest.approx(brute, abs=1e-12)

    def test_twenty_pinned_couplings_against_bruteforce(self):
        # real parts start at 0.6: at 0.5 the n_max=40 geometric tail is
        # ~5e-8, outside the 1e-8 budget this comparison pins
        lams = [0.6 + 0.35 * k for k in range(10)]
        lams += [0.6 + 0.3j * k for k in range(1, 6)]
        lams += [1.5 - 0.45j, 2.0 + 2.0j, 0.75 - 1.2j, 3.0 + 0.05j, 0.9 + 0.9j]
        assert len(lams) == 20
        for lam in lams:
            analytic = pair_value(lam)
            brute = thermal_pair_bruteforce(lam, n_max=40)
            assert analytic == pytest.approx(brute, abs=1e-8)

    # next to the pole lambda = 0 the law keeps its digits: exp(lam) - 1 would
    # cancel to a relative error of about eps / |lam| (1e-4 at |lam| = 1e-12)
    @pytest.mark.parametrize("tau_eps", [1e-3, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("tau_gap", [0.0, 1e-9, -3e-12])
    def test_bose_law_next_to_the_pole_against_50_digits(self, tau_eps, tau_gap):
        mpmath = pytest.importorskip("mpmath")
        tau = 0.5
        gap, eps_i = tau_gap / tau, tau_eps / tau
        got = complex(_mode_corr(tau, gap, eps_i))
        with mpmath.workdps(50):
            z = -1j * mpmath.mpf(tau) * (mpmath.mpf(gap) + 1j * mpmath.mpf(eps_i))
            ref = complex(1 / mpmath.expm1(z))
        assert abs(got - ref) <= 4 * np.finfo(float).eps * abs(ref)

    def test_bose_law_refuses_its_pole(self):
        for gap, eps_i in ((0.0, 0.0), (0.0, 1e-300), (0.0, 1e-17), (2 * math.pi, 0.0)):
            with pytest.raises(PoleError):
                _mode_corr(1.0, gap, eps_i)
        _mode_corr(1.0, 0.0, 1e-14)  # 1e-14 > 8 eps: still taken

    def test_four_point_factorization_against_dense_trace(self):
        # Gaussian moment <a†a†aa> = 2 <a†a>^2, checked against an
        # explicit truncated thermal trace at lam = 4 (truncation tail
        # e^{-lam*n_max} far below the tolerance)
        lam, n_max = 4.0, 8
        a = np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1)
        weight = np.diag(np.exp(-lam * np.arange(n_max + 1)))
        z = np.trace(weight)
        four = np.trace(weight @ a.T @ a.T @ a @ a) / z
        pair = pair_value(lam)
        assert four == pytest.approx(2.0 * pair**2, abs=5e-11)


class TestTowerResummation:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 40),
        st.floats(0.02, 0.5),
        st.floats(0.01, 0.4),
        st.floats(0.1, 2.5),
        st.integers(-45, 45),
    )
    def test_feynman_matches_closed_form(self, N, tau, eps_i, E, dt):
        grid = frequency_tower(N * tau, tau, energies=[E])
        lhs = feynman_kernel(grid, tau, eps_i, dt)
        rhs = feynman_kernel_closed(N, tau, eps_i, np.array([E]), np.array([dt]))[0, 0]
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 30000),
        st.floats(0.02, 0.5),
        st.floats(0.01, 0.4),
        st.floats(0.1, 2.5),
        st.lists(st.integers(-60000, 60000), max_size=5),
    )
    def test_array_closed_form_matches_scalar_powers(self, N, tau, eps_i, E, extra):
        dts = np.array([0, 1, -1, N // 2, -(N // 2), N - 1, *extra])
        got = feynman_kernel_closed(N, tau, eps_i, np.array([E]), dts)
        assert got.shape == (1, dts.size)
        ref = np.array([closed_form_pow_reference(N, tau, eps_i, E, int(dt)) for dt in dts])
        assert np.max(np.abs(got[0] - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("tau_scale", [1.0, 0.5])
    def test_propagator_table_at_smatrix_defaults(self, tau_scale):
        # the order-2 smatrix run builds the table at tau2 and tau2 / 2
        N, tau, eps_i, line_energies = smatrix_line(tau_scale)
        M = len(line_energies)
        table = line_table(N, tau, eps_i, line_energies, np.arange(N))
        assert table.shape == (N, M)
        p = DEFAULTS["smatrix"]
        e_a = 2 * math.pi * p["n_a2"] / p["T2"]
        e_b = 2 * math.pi * p["n_b2"] / p["T2"]
        energies = (e_a, e_b, e_a, e_b)  # site classes 0..3
        assert list(line_energies) == list(energies)
        kern = np.array([[closed_form_pow_reference(N, tau, eps_i, E, dt)
                          for E in energies] for dt in range(N)])
        phases = np.exp(2j * np.pi * np.outer(np.arange(M), np.arange(M)) / M)
        ref = (kern / (2.0 * np.array(energies))) @ phases / M
        assert np.max(np.abs(table - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 200),
        st.floats(0.02, 0.5),
        st.floats(0.01, 0.4),
        st.floats(0.1, 2.5),
        st.integers(-250, 250),
    )
    def test_feynman_kernel_matches_scalar_tower_loop(self, N, tau, eps_i, E, dt):
        grid = frequency_tower(N * tau, tau, energies=[E])
        got = feynman_kernel(grid, tau, eps_i, dt)
        ref = tower_loop_reference(grid, tau, eps_i, dt)
        assert type(got) is complex
        assert got == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))

    def test_feynman_kernel_pole_on_exact_zero_denominator(self):
        # a mode exactly on shell with no regulator: w - E == 0.0 exactly
        N, tau = 8, 0.25
        T = N * tau
        grid = frequency_tower(T, tau, energies=[2.0 * math.pi * 1 / T])
        with pytest.raises(PoleError):
            feynman_kernel(grid, tau, 0.0, 1)
        sited = frequency_tower(T, tau, spatial=((0,),), M_sites=1,
                                energies=[2.0 * math.pi * 1 / T])
        with pytest.raises(PoleError):
            feynman_propagator_grid(sited, tau, 0.0, (1, 0), (0, 0))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("n_key", ["n_a2", "n_b2"])
    def test_kernel_closed_form_at_large_N(self, n_key):
        # the order-2 smatrix window at tau2 / 2 has N = 30000 slices; a
        # rounded w raised to the power r = dt mod N is off by ~r * 1e-16 there
        p = DEFAULTS["smatrix"]
        tau = p["tau2"] / 2
        N = round(p["T2"] / tau)
        E = 2 * math.pi * p[n_key] / p["T2"]
        assert N == 30000
        for dt in (N // 2, N - 1):
            ref = closed_form_longdouble(N, tau, 1e-3, E, dt)
            got = feynman_kernel_closed(N, tau, 1e-3, np.array([E]), np.array([dt]))[0, 0]
            assert abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("tau_scale, n_key", [(None, None), (1.0, "n_a2"), (0.5, "n_b2")])
    def test_whole_line_against_longdouble_closed_form(self, tau_scale, n_key):
        # N = 7, then the order-2 smatrix window at tau2 (N = 15000) and tau2 / 2
        # (N = 30000), dt over three periods: the largest error over the line's
        # largest entry is 1.8e-16, 5.2e-16 and 1.0e-15 (one exp per power read
        # 1.4e-16, 6.1e-16 and 1.3e-15), the error of rounding k z in double
        if tau_scale is None:
            N, tau, eps_i, E = 7, 0.3, 0.2, 1.3
        else:
            p = DEFAULTS["smatrix"]
            tau, eps_i = p["tau2"] * tau_scale, p["eps_i2"]
            N = round(p["T2"] / tau)
            E = 2 * math.pi * p[n_key] / p["T2"]
        dts = np.arange(-N, 2 * N)
        ref = closed_form_longdouble(N, tau, eps_i, E, dts)
        got = feynman_kernel_closed(N, tau, eps_i, np.array([E]), dts)[0]
        assert np.max(np.abs(got - ref)) <= 1.1e-15 * np.max(np.abs(ref))

    def test_unregulated_kernel_between_grid_frequencies_is_the_tower_sum(self):
        # eps_i = 0 is a pole only with E on the grid 2 pi n / T; halfway
        # between two frequencies every mode denominator is far from zero
        N, tau = 8, 0.25
        T = N * tau
        between = 2.0 * math.pi * 1.5 / T
        grid = frequency_tower(T, tau, energies=[between])
        dts = np.arange(-N, 2 * N)
        closed = feynman_kernel_closed(N, tau, 0.0, np.array([between]), dts)[0]
        assert np.all(np.isfinite(closed))
        for dt, value in zip(dts, closed):
            assert value == pytest.approx(feynman_kernel(grid, tau, 0.0, int(dt)), abs=1e-13)
        with pytest.raises(PoleError):
            feynman_kernel_closed(N, tau, 0.0, np.array([2.0 * math.pi / T]), np.array([0]))

    def test_equal_time_kernel_is_unit(self):
        # K(0) = (1 + w^N) / (1 - w^N) with |w^N| = e^{-eps_i N tau}
        N, tau, eps_i, E = 400, 0.05, 0.4, 1.3
        val = feynman_kernel_closed(N, tau, eps_i, np.array([E]), np.array([0]))[0, 0]
        assert val == pytest.approx(1.0, abs=3 * math.exp(-eps_i * N * tau))

    def test_kernel_even_in_time(self):
        N, tau, eps_i, E = 30, 0.08, 0.15, 1.1
        dts = np.array([1, 4, 13])
        forward, backward = feynman_kernel_closed(N, tau, eps_i, np.array([E]),
                                                  np.concatenate((dts, -dts)))[0].reshape(2, -1)
        assert forward == pytest.approx(backward, abs=1e-15)


def dt_selections(N):
    """Time differences: one, a quarter of the line and one more, all of it, negatives.

    The larger selections repeat a difference mod N and reach outside 0..N-1.
    """
    rng = np.random.default_rng(N)
    quarter = (N + 1) // 4
    above = rng.permutation(N)[:quarter + 1] + N * rng.integers(-2, 3, size=quarter + 1)
    return {
        "one": np.array([N // 3]),
        "below": rng.permutation(N)[:quarter],
        "above": above,
        "all, reversed and negative": np.arange(N)[::-1] - N,
        "negative": -np.arange(1, 4),
    }


# (N, tau, eps_i, site-class energies), or the order-2 smatrix line at tau2 or
# tau2 / 2 (N = 15000 and 30000)
LINES = [(9, 0.3, 0.2, [1.3, 0.7, 0.7]), (8, 0.25, 0.1, [1.1, 1.9]), "tau2", "tau2/2"]


def line_params(line):
    """(N, tau, eps_i, energies) of an entry of LINES."""
    if isinstance(line, str):
        return smatrix_line(1.0 if line == "tau2" else 0.5)
    return line


def slice_sum_gaps(N, tau, eps_i, energies, n):
    """The largest gap of kernel_product_sums from the explicit sums, over sum_t |K_a K_b|.

    The explicit sum is sum_t e^{-2 pi i n t / N} K_a(t) K_b(t) over the rows of
    feynman_kernel_closed, for every pair of distinct energies and each n.  Off
    resonance it cancels, so its rounding scales with sum_t |K_a K_b|, not with
    its value.
    """
    distinct = np.array(list(dict.fromkeys(energies)))
    kernels = feynman_kernel_closed(N, tau, eps_i, distinct, np.arange(N))
    sums, _ = kernel_product_sums(N, tau, eps_i, energies, n)
    scale = np.abs(kernels) @ np.abs(kernels).T
    t = np.arange(N)
    gaps = []
    for n_i, got in zip(n, sums):
        ref = np.einsum("t,at,bt->ab", np.exp(-2j * np.pi * (n_i * t % N) / N), kernels, kernels)
        gaps.append(np.max(np.abs(got - ref) / scale))
    return max(gaps)


class TestRowsReadThroughDt:
    @pytest.mark.parametrize("line", LINES)
    def test_rows_equal_the_whole_line(self, line):
        N, tau, eps_i, energies = line_params(line)
        whole = line_table(N, tau, eps_i, energies, np.arange(N))
        kernels = {E: feynman_kernel_closed(N, tau, eps_i, np.array([E]), np.arange(N))[0]
                   for E in energies}
        for dt in dt_selections(N).values():
            rows = line_table(N, tau, eps_i, energies, dt)
            assert rows.shape == (len(dt), len(energies))
            assert np.array_equal(rows, whole[dt % N])
            for E, kernel in kernels.items():
                got = feynman_kernel_closed(N, tau, eps_i, np.array([E]), dt)
                assert np.array_equal(got, kernel[None, dt % N])

    @pytest.mark.parametrize("line", [*LINES, (1, 0.3, 0.2, [1.3]), (2, 0.4, 0.3, [0.9, 0.9])])
    def test_kernel_product_sums_are_the_explicit_slice_sums(self, line):
        # n = 0 and -N meet the series G(Y) at Y == 0 (the pairs a == b), n = N // 2
        # the phase farthest from 0
        N, tau, eps_i, energies = line_params(line)
        distinct = np.array(list(dict.fromkeys(energies)))
        n = np.array([0, -N, 1, N // 2, 175, -175, 3 * N + 7])
        sums, weights = kernel_product_sums(N, tau, eps_i, energies, n)
        assert sums.shape == (n.size, distinct.size, distinct.size)
        assert slice_sum_gaps(N, tau, eps_i, energies, n) <= 2e-15
        # the weights are the line's: sum_E K_E(dt) w_E(dx) is every row of line_table
        kernels = feynman_kernel_closed(N, tau, eps_i, distinct, np.arange(N))
        whole = line_table(N, tau, eps_i, energies, np.arange(N))
        assert weights.shape == (distinct.size, len(energies))
        assert np.max(np.abs(kernels.T @ weights - whole)) <= 1e-15 * np.max(np.abs(whole))

    def test_kernel_product_sums_at_a_resonance_past_pi(self):
        # tau (E_a - E_b) = 2 pi 124 / 200 > pi: at n = 76, -124 and 124 one series
        # has Y = 2 pi i k + (rounding), k != 0, which G reads at its reduced Y; the
        # explicit sums' own rounding grows with T E_a = 2 pi 125
        N, tau = 200, 0.1
        E_a, E_b = (2 * math.pi * label / (N * tau) for label in (125, 1))
        n = np.array([76, -124, 124, 3, 0])
        assert slice_sum_gaps(N, tau, 0.01, [E_a, E_b, E_a, E_b], n) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(2, 24),
        st.floats(0.02, 0.5),
        st.floats(0.01, 0.4),
        st.lists(st.floats(0.1, 2.5), min_size=3, max_size=3),
    )
    def test_propagator_grid_reads_the_whole_line(self, M, N, tau, eps_i, base):
        energies = [base[min(j, M - j)] for j in range(M)]
        grid = frequency_tower(N * tau, tau, spatial=[(j,) for j in range(M)], M_sites=M,
                               energies=energies)
        whole = line_table(N, tau, eps_i, energies, np.arange(N))
        for dt in range(-N, 2 * N):
            for dx in range(-M, M):
                got = feynman_propagator_grid(grid, tau, eps_i, (dt + 1, dx + 2), (1, 2))
                assert got == whole[dt % N, dx % M]

    def test_one_entry_of_an_800000_slice_window_stays_small(self):
        # propagator --T 40000 at its default tau_grid: N = 800000 slices,
        # under LINE_SLICE_CAP, and one entry builds no N-long array
        p = DEFAULTS["propagator"]
        tau, eps_i, energies = p["tau_grid"], p["eps_i_grid"], list(p["grid_energies"])
        grid = frequency_tower(40000.0, tau, spatial=((0,), (1,)), M_sites=2, energies=energies)
        assert grid.N == 800000
        tracemalloc.start()
        try:
            value = feynman_propagator_grid(grid, tau, eps_i, (3, 1), (0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cmath.isfinite(value)
        assert peak < 2**20


class TestModeCorrelatorLimit:
    def test_tau_scaled_value_approaches_resolvent(self):
        grid = ModeGrid(T=2 * math.pi, modes=((2,),), energy_override=(1.2,))
        gap, eps_i = grid.gap(0), 0.05
        target = 1j / (gap + 1j * eps_i)
        errs = []
        for tau in (0.02, 0.01, 0.005):
            val = tau * tau_mode_correlator(grid, tau, eps_i, 0, 0)
            errs.append(abs(val - target))
        assert errs[0] / abs(target) < 0.01
        for k in range(2):
            assert errs[k + 1] / errs[k] == pytest.approx(0.5, abs=0.05)

    def test_onshell_value_grows_like_inverse_tau(self):
        T = 2 * math.pi
        grid = ModeGrid(T=T, modes=((2,),), energy_override=(2.0,))  # gap = 0
        tau, eps_i = 0.01, 0.05
        val = tau_mode_correlator(grid, tau, eps_i, 0, 0)
        assert val == pytest.approx(1.0 / (math.exp(tau * eps_i) - 1.0), rel=1e-12)

    def test_pole_without_regulator(self):
        grid = ModeGrid(T=2 * math.pi, modes=((2,),), energy_override=(2.0,))
        with pytest.raises(PoleError):
            tau_mode_correlator(grid, 0.1, 0.0, 0, 0)

    def test_distinct_modes_uncorrelated(self):
        grid = ModeGrid(T=5.0, modes=((1,), (2,)), energy_override=(1.0, 1.1))
        assert tau_mode_correlator(grid, 0.1, 0.05, 0, 1) == 0.0


class TestPropagatorGrid:
    def test_against_dense_hamiltonian_evolution(self):
        T, tau, eps_i = 100.0, 0.05, 0.07
        energies = [1.0, 1.7]
        grid = frequency_tower(T, tau, spatial=((0,), (1,)), M_sites=2, energies=energies)
        for dt in (0, 1, 2, 3):
            val = feynman_propagator_grid(grid, tau, eps_i, (dt, 0), (0, 0))
            oracle = timeordered_two_point_ed(2, energies, 0, 0, tau * dt, n_max=4)
            assert abs(val - oracle) <= 0.02 * abs(oracle)

    def test_dense_oracle_lattice_cap(self):
        # 65^2 states, one level past the cap
        with pytest.raises(ValueError, match=f"exceeds cap {DENSE_DIM_CAP}"):
            DenseFockLattice(2, (1.0, 1.7), n_max=64)
        with pytest.raises(ValueError, match=f"exceeds cap {DENSE_DIM_CAP}"):
            timeordered_two_point_ed(2, (1.0, 1.7), 0, 0, 0.1, n_max=200)

    def test_spatial_exchange_symmetry(self):
        T, tau, eps_i = 40.0, 0.1, 0.1
        grid = frequency_tower(T, tau, spatial=((0,), (1,)), M_sites=2,
                               energies=[0.9, 1.4])
        a = feynman_propagator_grid(grid, tau, eps_i, (3, 1), (0, 0))
        b = feynman_propagator_grid(grid, tau, eps_i, (3, 0), (0, 1))
        assert a == pytest.approx(b, abs=1e-12)

    def test_requires_site_lattice(self):
        grid = frequency_tower(4.0, 0.5, energies=[1.0])
        with pytest.raises(ValueError):
            feynman_propagator_grid(grid, 0.5, 0.1, (1, 0), (0, 0))

    @pytest.mark.parametrize("spatial, energies, tau, match", [
        # a grid built at tau = 0.5 carries 20 slices per tower, not T / 0.25 = 40
        (((0,), (1,)), [1.0, 1.0], 0.25, "slices"),
        # labels 0 and 2 are both site class 0 of M = 2
        (((0,), (2,)), [1.0, 1.0], 0.5, "two labels in site class 0"),
        # site class 1 has no tower
        (((0,),), [1.0], 0.5, r"no label in site classes \[1\]"),
    ])
    def test_towers_must_cover_each_site_class_once(self, spatial, energies, tau, match):
        grid = frequency_tower(10.0, 0.5, spatial=spatial, M_sites=2, energies=energies)
        with pytest.raises(ValueError, match=match):
            feynman_propagator_grid(grid, tau, 0.1, (2, 0), (0, 0))

    def test_matches_tower_sum_at_propagator_defaults(self):
        p = DEFAULTS["propagator"]
        tau, eps_i = p["tau_grid"], p["eps_i_grid"]
        grid = frequency_tower(p["T"], tau, spatial=((0,), (1,)), M_sites=2,
                               energies=list(p["grid_energies"]))
        for dt in p["ed_slices"]:
            for site in (0, 1):
                got = feynman_propagator_grid(grid, tau, eps_i, (dt, site), (0, 0))
                ref = feynman_propagator_tower_sum(grid, tau, eps_i, (dt, site), (0, 0))
                assert abs(got - ref) <= 1e-13 * abs(ref)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(2, 64),
        st.floats(0.02, 0.5),
        st.floats(0.01, 0.4),
        st.lists(st.floats(0.1, 2.5), min_size=2, max_size=2),
        st.lists(st.booleans(), min_size=3, max_size=3),
        st.integers(-128, 128),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    # one class, tau·E near the pole: the reference's mode values must keep
    # their digits there
    @example(1, 57, 0.036789355449353495, 0.01, [1.5, 1.5], [False] * 3, 0, 0, 0)
    def test_matches_tower_sum_on_small_grids(self, M, N, tau, eps_i, base, shift, dt,
                                              sx, sy):
        # parity-paired energies E[j] = E[M - j]; each class labelled j or j - M
        energies = [base[min(j, M - j)] for j in range(M)]
        labels = [(j - M if shift[j] else j,) for j in range(M)]
        grid = frequency_tower(N * tau, tau, spatial=labels, M_sites=M, energies=energies)
        x, y = (dt, sx % M), (0, sy % M)
        got = feynman_propagator_grid(grid, tau, eps_i, x, y)
        ref = feynman_propagator_tower_sum(grid, tau, eps_i, x, y)
        # off the equal point the classes can cancel, so the scale of the
        # comparison is the equal-point value, not |ref|
        scale = abs(feynman_propagator_tower_sum(grid, tau, eps_i, (0, 0), (0, 0)))
        assert abs(got - ref) <= 1e-13 * scale
