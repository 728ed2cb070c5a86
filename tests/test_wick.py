"""Tests for the pairing engine and the quartic lattice amplitudes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_refs import (
    double_factorial,
    enumerate_pairings,
    grid_line_energies,
    order2_pair_channel_mpmath,
    order2_pair_channel_phase_grid,
    order2_pair_channel_table,
    propagator_table_outer,
)
from sqmlab import oracles, wick
from sqmlab.experiments import DEFAULTS
from sqmlab.gaussian import LINE_SLICE_CAP, feynman_propagator_grid, line_table
from sqmlab.grids import ModeGrid, frequency_tower, slice_count
from sqmlab.wick import (
    lattice_volume_norm,
    smatrix_element,
    tau_extrapolate,
)


def conserving_grid(T=60.0, M=4, n_a=2, n_b=5):
    """2->2 instance with distinct spatial classes and parity-paired energies."""
    e_a = 2 * math.pi * n_a / T
    e_b = 2 * math.pi * n_b / T
    return ModeGrid(
        T=T,
        modes=((n_b, 1), (n_a, 2), (n_a, 0), (n_b, 3)),
        m=1.0,
        M_sites=M,
        energy_override=(e_b, e_a, e_a, e_b),
    )


# ---------------------------------------------------------------------------
# perfect-matching enumeration


@given(st.integers(min_value=0, max_value=5))
def test_pairing_count_is_double_factorial(n):
    pairings = enumerate_pairings(2 * n)
    assert len(pairings) == double_factorial(2 * n - 1)
    # all matchings distinct
    assert len(set(pairings)) == len(pairings)


@given(st.integers(min_value=0, max_value=5))
def test_pairings_are_canonical_matchings(n):
    for pairing in enumerate_pairings(2 * n):
        flat = [idx for pair in pairing for idx in pair]
        assert sorted(flat) == list(range(2 * n))
        assert all(a < b for a, b in pairing)
        firsts = [a for a, _ in pairing]
        assert firsts == sorted(firsts)


def test_pairings_deterministic_order():
    assert enumerate_pairings(4) == [
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    ]
    assert enumerate_pairings(6) == enumerate_pairings(6)


def test_odd_insertion_count_rejected():
    with pytest.raises(ValueError):
        enumerate_pairings(3)


def test_double_factorial_values():
    assert [double_factorial(k) for k in (-1, 0, 1, 2, 3, 5, 7)] == [
        1, 1, 1, 2, 3, 15, 105,
    ]


# ---------------------------------------------------------------------------
# connectivity filter


def connected_filter(pairings, groups):
    """Keep pairings whose contraction graph over groups is connected.

    Nodes are the distinct group ids, edges the pairs.  When no group
    holds more than one insertion (no vertices anywhere), the filter is
    the identity by convention: a pure product of external two-point
    functions has no vertex to connect through.
    """
    group_ids = sorted(set(groups))
    sizes = {g: 0 for g in group_ids}
    for g in groups:
        sizes[g] += 1
    if all(s == 1 for s in sizes.values()):
        return list(pairings)

    index = {g: i for i, g in enumerate(group_ids)}
    n = len(group_ids)
    kept = []
    for pairing in pairings:
        adj = [[] for _ in range(n)]
        for i, j in pairing:
            a, b = index[groups[i]], index[groups[j]]
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            node = stack.pop()
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) == n:
            kept.append(pairing)
    return kept


def test_filter_is_identity_without_vertices():
    pairings = enumerate_pairings(4)
    assert connected_filter(pairings, [0, 1, 2, 3]) == pairings


def test_filter_two_externals_one_vertex():
    pairings = enumerate_pairings(4)
    kept = connected_filter(pairings, [0, 1, 2, 2])
    # the external-external matching leaves the vertex disconnected
    assert kept == [((0, 2), (1, 3)), ((0, 3), (1, 2))]


def test_single_vertex_connected_count_is_24():
    groups = [0, 1, 2, 3, 4, 4, 4, 4]
    pairings = enumerate_pairings(8)
    assert len(pairings) == 105
    kept = connected_filter(pairings, groups)
    assert len(kept) == 24
    # connected <=> every external leg lands on a vertex leg
    for pairing in kept:
        for i, j in pairing:
            if i < 4:
                assert j >= 4


def test_two_vertex_connected_count_is_4032():
    groups = [0, 1, 2, 3, 4, 4, 4, 4, 5, 5, 5, 5]
    pairings = enumerate_pairings(12)
    assert len(pairings) == 10395
    assert len(connected_filter(pairings, groups)) == 4032


def _classify_order2_pairings():
    """Reduce the connected two-vertex pairings to (m, s, at_z, count) classes.

    Insertions: externals 0..3 (singleton groups), vertex-z legs 4..7,
    vertex-w legs 8..11; m counts z-w lines, s self-loops, at_z lists
    the externals attached to z.
    """
    groups = [0, 1, 2, 3, 4, 4, 4, 4, 5, 5, 5, 5]
    z_legs = frozenset(range(4, 8))
    w_legs = frozenset(range(8, 12))
    counts = {}
    for pairing in connected_filter(enumerate_pairings(12), groups):
        m = s = 0
        at_z = []
        for i, j in pairing:
            iz, jz = i in z_legs, j in z_legs
            iw, jw = i in w_legs, j in w_legs
            if (iz and jw) or (iw and jz):
                m += 1
            elif (iz and jz) or (iw and jw):
                s += 1
            elif i < 4 and jz:
                at_z.append(i)
            elif j < 4 and iz:
                at_z.append(j)
        key = (m, s, tuple(sorted(at_z)))
        counts[key] = counts.get(key, 0) + 1
    return tuple((m, s, sz, c) for (m, s, sz), c in sorted(counts.items()))


# pair channel: both incoming (or both outgoing) legs on one vertex,
# joined to the other by two crossing internal lines
PAIR_SIGNATURES = ((2, 0, (0, 1)), (2, 0, (2, 3)))


def test_order2_bucket_literal_matches_enumeration():
    pair_rows = tuple(row for row in _classify_order2_pairings() if row[:3] in PAIR_SIGNATURES)
    assert wick._ORDER2_BUCKETS == pair_rows
    assert [row[:3] for row in wick._ORDER2_BUCKETS] == list(PAIR_SIGNATURES)


def test_second_order_classes_all_carry_288():
    buckets = _classify_order2_pairings()
    assert len(buckets) == 14
    assert all(count == 288 for _, _, _, count in buckets)
    assert sum(count for _, _, _, count in buckets) == 4032
    signatures = {(m, s, sz) for m, s, sz, _ in buckets}
    assert set(PAIR_SIGNATURES) <= signatures
    # every class keeps at least one vertex-to-vertex line
    assert all(m >= 1 for m, _, _, _ in buckets)
    assert all(m + s == 2 for m, s, _, _ in buckets)


# ---------------------------------------------------------------------------
# first-order quartic amplitude


def test_first_order_matches_closed_form():
    grid = conserving_grid()
    lam, tau, eps_i = 0.3, 0.05, 0.05
    N = round(grid.T / tau)
    amp = smatrix_element(grid, (0, 1), (2, 3), lam, 1, tau=tau, eps_i=eps_i)
    a = tau * eps_i
    leg_factor = (a * a / (4.0 * math.sinh(a / 2.0) ** 2)) ** 2
    expected = -1j * lam * leg_factor * lattice_volume_norm(N, 4)
    assert amp == pytest.approx(expected, rel=1e-12)


def test_first_order_volume_limit():
    grid = conserving_grid()
    lam = 0.3
    vals = []
    for tau in (0.05, 0.025):
        N = round(grid.T / tau)
        amp = smatrix_element(grid, (0, 1), (2, 3), lam, 1, tau=tau, eps_i=0.05)
        vals.append(amp / lattice_volume_norm(N, 4))
    extrap = tau_extrapolate(vals[0], vals[1], 2)
    assert extrap == pytest.approx(-1j * lam, rel=1e-10)
    # the per-tau error really is quadratic: halving tau quarters it
    errs = [abs(v + 1j * lam) for v in vals]
    assert errs[1] == pytest.approx(errs[0] / 4.0, rel=5e-3)


def test_energy_violating_amplitude_is_exactly_zero():
    T, M, n_a, n_b = 60.0, 4, 2, 5
    grid = ModeGrid(
        T=T, modes=((n_b, 1), (n_a, 2), (n_a, 0), (n_b + 1, 3)), m=1.0, M_sites=M,
        energy_override=(
            2 * math.pi * n_b / T, 2 * math.pi * n_a / T,
            2 * math.pi * n_a / T, 2 * math.pi * (n_b + 1) / T,
        ),
    )
    amp = smatrix_element(grid, (0, 1), (2, 3), 0.3, 1, tau=0.05, eps_i=0.05)
    assert amp == 0.0


def test_momentum_violating_amplitude_is_exactly_zero():
    T, n_a, n_b = 60.0, 2, 5
    grid = ModeGrid(
        T=T, modes=((n_a, 1), (n_b, 2), (n_a, 0), (n_b, 4)), m=1.0, M_sites=5,
        energy_override=(
            2 * math.pi * n_a / T, 2 * math.pi * n_b / T,
            2 * math.pi * n_a / T, 2 * math.pi * n_b / T,
        ),
    )
    for order in (1, 2):
        amp = smatrix_element(grid, (0, 1), (2, 3), 0.3, order, tau=0.05, eps_i=0.05,
                              channel="s")
        assert amp == 0.0


def test_coincident_external_momenta_rejected():
    T = 60.0
    e1 = 2 * math.pi * 5 / T
    e2 = 2 * math.pi * 2 / T
    grid = ModeGrid(
        T=T, modes=((5, 1), (2, 2), (2, 0), (5, 1)), m=1.0, M_sites=4,
        energy_override=(e1, e2, e2, e1),
    )
    with pytest.raises(ValueError, match="coincident"):
        smatrix_element(grid, (0, 1), (2, 3), 0.3, 1, tau=0.05, eps_i=0.05)


def test_off_shell_external_leg_rejected():
    # massive dispersion cannot sit on the 2 pi n / T frequency exactly
    grid = ModeGrid(T=60.0, modes=((5, 1), (2, 2), (2, 0), (5, 3)), m=1.0, M_sites=4)
    with pytest.raises(ValueError, match="off shell"):
        smatrix_element(grid, (0, 1), (2, 3), 0.3, 1, tau=0.05, eps_i=0.05)


def test_slice_count_requires_commensurate_tau():
    grid = conserving_grid()
    with pytest.raises(ValueError, match="integer slices"):
        smatrix_element(grid, (0, 1), (2, 3), 0.3, 1, tau=0.07, eps_i=0.05)


def test_argument_validation():
    grid = conserving_grid()
    with pytest.raises(ValueError, match="order"):
        smatrix_element(grid, (0, 1), (2, 3), 0.3, 3, tau=0.05, eps_i=0.05)
    for channel in ("t", "all"):
        with pytest.raises(ValueError, match="channel"):
            smatrix_element(grid, (0, 1), (2, 3), 0.3, 2, tau=0.05, eps_i=0.05,
                            channel=channel)
    # order 2 computes the pair channel only; the default channel is refused
    with pytest.raises(ValueError, match="pair channel only"):
        smatrix_element(grid, (0, 1), (2, 3), 0.3, 2, tau=0.05, eps_i=0.05)
    with pytest.raises(ValueError, match="2->2"):
        smatrix_element(grid, (0,), (2, 3), 0.3, 1, tau=0.05, eps_i=0.05)
    with pytest.raises(ValueError, match="site lattice"):
        ModeGrid(T=60.0, modes=((5, 1), (2, 2), (2, 0), (5, 3)), m=1.0)
    # a lattice of no sites is refused where the grid is built
    with pytest.raises(ValueError, match="M_sites >= 1"):
        conserving_grid(M=0)
    # degenerate windows, regulators and lattices, at both orders
    no_sites = ModeGrid(T=60.0, modes=((5,), (2,), (2,), (5,)), m=1.0)
    for order in (1, 2):
        with pytest.raises(ValueError, match="site lattice"):
            smatrix_element(no_sites, (0, 1), (2, 3), 0.3, order, tau=0.05, eps_i=0.05,
                            channel="s")
        for tau, eps_i in [(0.0, 0.05), (-0.05, 0.05), (0.05, 0.0), (0.05, -0.05)]:
            with pytest.raises(ValueError, match="tau > 0 and eps_i > 0"):
                smatrix_element(grid, (0, 1), (2, 3), 0.3, order, tau=tau, eps_i=eps_i,
                                channel="s")


# ---------------------------------------------------------------------------
# internal-line table


def grid_line_table(grid, tau, eps_i):
    """All N rows of gaussian.line_table at the site-class energies of the grid's modes."""
    N = slice_count(grid.T, tau)
    return line_table(N, tau, eps_i, grid_line_energies(grid), np.arange(N))


def test_propagator_table_requires_energy_parity():
    # every site class holds a mode, and class 1 and its mirror 3 differ
    T = 60.0
    grid = ModeGrid(
        T=T, modes=((1, 0), (1, 1), (1, 2), (2, 3)), m=1.0, M_sites=4,
        energy_override=(2 * math.pi / T, 2 * math.pi / T, 2 * math.pi / T, 4 * math.pi / T),
    )
    with pytest.raises(ValueError, match=r"E\[j\] == E\[-j mod M\]"):
        grid_line_table(grid, tau=0.5, eps_i=0.05)


def test_propagator_table_requires_positive_energy():
    grid = ModeGrid(T=8.0, modes=((0, 0), (0, 1)), m=0.0, M_sites=2,
                    energy_override=(0.0, 1.0))
    with pytest.raises(ValueError, match="positive"):
        grid_line_table(grid, tau=1.0, eps_i=0.05)


@pytest.mark.parametrize("M, extra, message", [
    # a fifth mode puts a second label in class 1
    (4, ((5, 5),), "two labels in site class 1 of M = 4"),
    # four externals on five sites leave class 4 empty
    (5, (), r"no label in site classes \[4\] of M = 5"),
])
def test_both_readers_of_the_line_refuse_an_uncovered_site_class(M, extra, message):
    T, tau, eps_i = 60.0, 0.5, 0.05
    base = conserving_grid(T=T, M=M)
    modes = base.modes + extra
    energies = base.energy_override + tuple(2 * math.pi * n / T for n, _ in extra)
    grid = ModeGrid(T=T, modes=modes, m=1.0, M_sites=M, energy_override=energies)
    with pytest.raises(ValueError, match=message) as order2:
        smatrix_element(grid, (0, 1), (2, 3), 0.3, 2, tau=tau, eps_i=eps_i, channel="s")
    tower = frequency_tower(T, tau, spatial=[(j,) for _, j in modes], M_sites=M, energies=energies)
    with pytest.raises(ValueError) as line:
        feynman_propagator_grid(tower, tau, eps_i, (1, 0), (0, 0))
    assert str(line.value) == str(order2.value)


def test_propagator_table_symmetries():
    grid = conserving_grid(T=12.0, M=4, n_a=2, n_b=5)
    table = grid_line_table(grid, tau=0.5, eps_i=0.2)
    N, M = table.shape
    assert (N, M) == (24, 4)
    scale = np.max(np.abs(table))
    for dt in range(N):
        for dx in range(M):
            # kernel evenness in the slice difference
            assert table[dt, dx] == pytest.approx(
                table[(N - dt) % N, dx], abs=1e-12 * scale)
            # spatial reflection symmetry from the energy parity pairing
            assert table[dt, dx] == pytest.approx(
                table[dt, (M - dx) % M], abs=1e-12 * scale)


def odd_lattice_grid(T=21.0, n_a=2, n_b=5):
    """2->2 instance on M = 5 sites; a fifth mode pins class 4 to E[1]."""
    e_a = 2 * math.pi * n_a / T
    e_b = 2 * math.pi * n_b / T
    return ModeGrid(
        T=T,
        modes=((n_b, 1), (n_a, 2), (n_b, 0), (n_a, 3), (n_b, 4)),
        m=1.0,
        M_sites=5,
        energy_override=(e_b, e_a, e_b, e_a, e_b),
    )


def smatrix_order2_cases():
    """(grid, tau, eps_i, lam): the smatrix --order 2 window at tau2 and tau2 / 2,
    then an odd N x M = 21 x 5 lattice."""
    p = DEFAULTS["smatrix"]
    grid = conserving_grid(T=p["T2"], M=p["M_sites"], n_a=p["n_a2"], n_b=p["n_b2"])
    return [
        pytest.param(grid, p["tau2"], p["eps_i2"], p["lam"], id="tau2"),
        pytest.param(grid, p["tau2"] / 2, p["eps_i2"], p["lam"], id="tau2/2"),
        pytest.param(odd_lattice_grid(), 1.0, 0.2, 0.3, id="odd-21x5"),
    ]


def relative_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("grid, tau, eps_i, lam", smatrix_order2_cases())
def test_propagator_table_matches_per_class_outer_products(grid, tau, eps_i, lam):
    table = grid_line_table(grid, tau, eps_i)
    assert relative_gap(table, propagator_table_outer(grid, tau, eps_i)) <= 1e-15


@pytest.mark.parametrize("grid, tau, eps_i, lam", smatrix_order2_cases())
def test_separable_order2_sum_matches_phase_grid_sum(grid, tau, eps_i, lam):
    got = smatrix_element(grid, (0, 1), (2, 3), lam, 2, tau=tau, eps_i=eps_i, channel="s")
    ref = order2_pair_channel_phase_grid(grid, (0, 1), (2, 3), lam, tau, eps_i)
    assert got != 0 and relative_gap(got, ref) <= 1e-13


@pytest.mark.parametrize("grid, tau, eps_i, lam", smatrix_order2_cases())
def test_kernel_product_sums_match_the_line_table(grid, tau, eps_i, lam):
    # the pair channel's tolerance is loose enough that a conjugated, scaled
    # or one-slice-rolled kernel still passes the CLI run; the table route,
    # with the same kernel entries and phases, pins the sum far tighter
    got = smatrix_element(grid, (0, 1), (2, 3), lam, 2, tau=tau, eps_i=eps_i, channel="s")
    ref = order2_pair_channel_table(grid, (0, 1), (2, 3), lam, tau, eps_i)
    assert got != 0 and relative_gap(got, ref) <= 1e-14


def smatrix_window(slices):
    """(grid, tau, eps_i, lam) of the smatrix --order 2 window cut into `slices` slices."""
    p = DEFAULTS["smatrix"]
    grid = conserving_grid(T=p["T2"], M=p["M_sites"], n_a=p["n_a2"], n_b=p["n_b2"])
    tau = p["T2"] / slices
    assert slice_count(grid.T, tau) == slices
    return grid, tau, p["eps_i2"], p["lam"]


def order2_traced_peak(slices):
    """The traced peak, in bytes, of one order-2 call on the window of smatrix_window."""
    grid, tau, eps_i, lam = smatrix_window(slices)
    tracemalloc.start()
    try:
        smatrix_element(grid, (0, 1), (2, 3), lam, 2, tau=tau, eps_i=eps_i, channel="s")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_order2_call_at_half_tau2_stays_small():
    # N = 30000 slices, M = 4: the slice sums are closed forms, nothing N-long
    assert order2_traced_peak(30000) <= 16 * 1024


def test_order2_call_at_the_slice_cap_stays_small():
    assert order2_traced_peak(LINE_SLICE_CAP) <= 16 * 1024


@pytest.mark.parametrize("slices", [15000, 30000, LINE_SLICE_CAP], ids=["tau2", "tau2/2", "cap"])
def test_order2_matches_a_50_digit_evaluation(slices):
    pytest.importorskip("mpmath")
    grid, tau, eps_i, lam = smatrix_window(slices)
    got = smatrix_element(grid, (0, 1), (2, 3), lam, 2, tau=tau, eps_i=eps_i, channel="s")
    ref = order2_pair_channel_mpmath(grid, (0, 1), (2, 3), lam, tau, eps_i)
    assert abs(got - ref) <= 4e-15 * abs(ref)


def test_line_past_the_cap_is_refused_before_allocating():
    # the order-2 smatrix reads the line's slice sums, a propagator entry one
    # row: one slice past LINE_SLICE_CAP is refused by both, with one message,
    # before any N-long array exists
    grid, tau, eps_i, lam = smatrix_window(LINE_SLICE_CAP + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"exceeds cap {LINE_SLICE_CAP}") as order2:
            smatrix_element(grid, (0, 1), (2, 3), lam, 2, tau=tau, eps_i=eps_i, channel="s")
        with pytest.raises(ValueError) as row:
            line_table(LINE_SLICE_CAP + 1, tau, eps_i, grid_line_energies(grid), np.array([3]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(row.value) == str(order2.value)
    assert peak < 2**20


# ---------------------------------------------------------------------------
# second order against the windowed perturbation-theory oracle


def test_pair_channel_ratio_matches_oracle():
    T, M, lam, eps_i, tau = 1500.0, 4, 0.3, 0.02, 0.1
    grid = conserving_grid(T=T, M=M, n_a=50, n_b=125)
    site_E = [grid.energy(k) for k in (2, 0, 1, 3)]
    a1 = smatrix_element(grid, (0, 1), (2, 3), lam, 1, tau=tau, eps_i=eps_i)
    a2 = smatrix_element(grid, (0, 1), (2, 3), lam, 2, tau=tau, eps_i=eps_i,
                         channel="s")
    a1_d, a2_d = oracles.dyson_pair_channel_amplitudes(
        M, site_E, lam, (1, 2), (0, 3), T, eta=eps_i)
    ratio = a2 / a1
    oracle = a2_d / a1_d
    assert abs(ratio - oracle) <= 0.05 * abs(oracle)
    # the ratio is stable under halving tau well inside that tolerance
    a1h = smatrix_element(grid, (0, 1), (2, 3), lam, 1, tau=tau / 2, eps_i=eps_i)
    a2h = smatrix_element(grid, (0, 1), (2, 3), lam, 2, tau=tau / 2, eps_i=eps_i,
                          channel="s")
    assert abs(a2h / a1h - ratio) <= 5e-3 * abs(ratio)


def test_dyson_oracle_is_first_order_only():
    E = [1.0, 1.0, 1.0, 1.0]
    assert oracles.dyson_smatrix_oracle(4, E, 0.3, (1, 2), (0, 3), 10.0, order=1, n_max=2)
    with pytest.raises(ValueError, match="dyson_pair_channel_amplitudes"):
        oracles.dyson_smatrix_oracle(4, E, 0.3, (1, 2), (0, 3), 10.0, order=2, n_max=2)


# ---------------------------------------------------------------------------
# Richardson step


def test_tau_extrapolate_cancels_quadratic_term():
    c = 0.7 + 0.2j
    b = 0.5
    assert tau_extrapolate(c + b, c + b / 4, 2) == pytest.approx(c, rel=1e-15)


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40)
def test_tau_extrapolate_exact_on_power_law(c, b, k):
    got = tau_extrapolate(c + b, c + b / 2**k, k)
    assert got == pytest.approx(c, abs=1e-12 * max(1.0, abs(c), abs(b)))
