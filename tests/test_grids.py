"""Mode bookkeeping: frequency windows, towers, dispersion overrides."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from sqmlab.grids import ModeGrid, frequency_tower, frequency_window, tower_slices


class TestFrequencyWindow:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 200))
    def test_length_and_contiguity(self, N):
        win = frequency_window(N)
        assert len(win) == N
        assert win == list(range(win[0], win[0] + N))

    def test_centered_convention(self):
        assert frequency_window(4) == [-2, -1, 0, 1]
        assert frequency_window(5) == [-2, -1, 0, 1, 2]

    def test_integer_exact(self):
        win = frequency_window(10**6)
        assert win[0] == -(10**6 // 2)
        assert all(isinstance(n, int) for n in (win[0], win[-1]))


class TestModeGrid:
    def test_omega_and_gap(self):
        grid = ModeGrid(T=10.0, modes=((3,),), energy_override=(1.0,))
        assert grid.omega(0) == pytest.approx(2 * math.pi * 3 / 10.0)
        assert grid.gap(0) == pytest.approx(grid.omega(0) - 1.0)

    def test_dispersion_energy_on_site_lattice(self):
        grid = ModeGrid(T=8.0, modes=((1, 1),), m=0.5, M_sites=4)
        p = 2 * math.pi * 1 / 4
        assert grid.energy(0) == pytest.approx(math.hypot(p, 0.5))

    def test_centered_spatial_momentum(self):
        grid = ModeGrid(T=8.0, modes=((0, 3),), m=1.0, M_sites=4)
        # site label 3 on a 4-site ring is momentum index -1
        assert grid.momentum(0)[0] == pytest.approx(-2 * math.pi / 4)

    def test_override_must_match_mode_count(self):
        with pytest.raises(ValueError):
            ModeGrid(T=5.0, modes=((1,), (2,)), energy_override=(1.0,))

    def test_rejects_mixed_rank_modes(self):
        with pytest.raises(ValueError):
            ModeGrid(T=5.0, modes=((1,), (2, 0)), M_sites=2)

    def test_rejects_empty_or_nonpositive_window(self):
        with pytest.raises(ValueError):
            ModeGrid(T=5.0, modes=())
        with pytest.raises(ValueError):
            ModeGrid(T=0.0, modes=((1,),))


class TestFrequencyTower:
    def test_full_window_per_spatial_index(self):
        T, tau = 6.0, 1.0
        grid = frequency_tower(T, tau, spatial=((0,), (1,)), M_sites=2, energies=[1.0, 1.3])
        N = round(T / tau)
        assert len(grid) == 2 * N
        groups = tower_slices(grid)
        assert set(groups) == {(0,), (1,)}
        assert all(len(idx) == N for idx in groups.values())

    def test_energies_broadcast_across_tower(self):
        grid = frequency_tower(6.0, 1.0, spatial=((0,), (1,)), M_sites=2, energies=[1.0, 1.3])
        groups = tower_slices(grid)
        for sp, energy in (((0,), 1.0), ((1,), 1.3)):
            for k in groups[sp]:
                assert grid.energy(k) == pytest.approx(energy)

    def test_tau_must_divide_window(self):
        with pytest.raises(ValueError):
            frequency_tower(6.0, 0.7)

    def test_towers_are_memoized_per_grid(self):
        grid = frequency_tower(6.0, 1.0, spatial=((0,), (1,)), M_sites=2, energies=[1.0, 1.3])
        assert grid.towers is grid.towers
        assert grid.towers == tower_slices(grid)
        assert all(isinstance(idxs, tuple) for idxs in grid.towers.values())
        with pytest.raises(TypeError):
            grid.towers[(2,)] = ()  # one map serves every caller, so it is read-only
        # the memo is no field: equality and hashing still see the fields only
        fresh = frequency_tower(6.0, 1.0, spatial=((0,), (1,)), M_sites=2, energies=[1.0, 1.3])
        assert fresh == grid and hash(fresh) == hash(grid)

    def test_towers_do_not_memoize_a_raise(self):
        grid = ModeGrid(T=4.0, modes=((0,), (1,)))
        for _ in range(2):
            with pytest.raises(ValueError, match="full frequency window"):
                grid.towers
        assert "towers" not in vars(grid)

    def test_tower_slices_rejects_incomplete_windows(self):
        grid = ModeGrid(T=4.0, modes=((0,), (1,)))  # not a full 4-slice window
        with pytest.raises(ValueError):
            tower_slices(grid)
