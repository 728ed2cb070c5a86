"""Mode bookkeeping: frequency windows, tower records, dispersion overrides."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from dense_refs import frequency_window
from sqmlab.grids import ONSHELL_TOL, FrequencyTower, ModeGrid, frequency_tower


class TestFrequencyWindow:
    """The labels the tests' O(N) tower sums run over (tests/dense_refs.py)."""

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

    def test_energy_stays_finite_at_a_huge_mass(self):
        for modes, sites in ((((1,),), None), (((1, 1),), 4)):
            assert ModeGrid(T=8.0, modes=modes, m=1e200, M_sites=sites).energy(0) == 1e200

    def test_centered_spatial_momentum(self):
        grid = ModeGrid(T=8.0, modes=((0, 3),), m=1.0, M_sites=4)
        # site label 3 on a 4-site ring is momentum index -1
        assert grid.momentum(0)[0] == pytest.approx(-2 * math.pi / 4)

    @pytest.mark.parametrize("T", [12.0, 2.0])  # E = 2 pi / T near 0.52 and near 3.14
    def test_on_shell_bound_is_absolute_below_unit_energy_and_relative_above(self, T):
        omega = 2 * math.pi * 1 / T
        bound = ONSHELL_TOL * max(1.0, omega)

        def grid(E):
            return ModeGrid(T=T, modes=((1,),), energy_override=(E,))

        assert grid(omega).gap(0) == 0.0 and grid(omega).on_shell(0)
        for sign in (1, -1):
            assert grid(omega - sign * 0.9 * bound).on_shell(0)
            assert not grid(omega - sign * 1.1 * bound).on_shell(0)

    def test_spatial_labels_need_a_site_lattice(self):
        with pytest.raises(ValueError, match="site lattice"):
            ModeGrid(T=8.0, modes=((0, 3),), m=1.0)
        assert ModeGrid(T=8.0, modes=((0,),), m=1.0).momentum(0) == ()

    @pytest.mark.parametrize("M", [0, -2])
    def test_site_lattice_needs_a_site(self, M):
        # refused where the grid is built, not as a ZeroDivisionError in energy()
        with pytest.raises(ValueError, match=rf"need M_sites >= 1 lattice sites, got {M}"):
            ModeGrid(T=60.0, modes=((5, 1),), m=1.0, M_sites=M)

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
        tower = frequency_tower(T, tau, spatial=((0,), (1,)), M_sites=2, energies=[1.0, 1.3])
        assert tower == FrequencyTower(T, 6, ((0,), (1,)), 2, (1.0, 1.3))

    def test_energies_broadcast_across_tower(self):
        # one energy per spatial index, shared by its whole tower, as floats
        tower = frequency_tower(6.0, 1.0, spatial=[[0], [1]], M_sites=2, energies=[1, 1.3])
        assert tower.spatial == ((0,), (1,))
        assert tower.energies == (1.0, 1.3) and type(tower.energies[0]) is float
        with pytest.raises(ValueError, match="one energy per spatial index"):
            frequency_tower(6.0, 1.0, spatial=((0,), (1,)), M_sites=2, energies=[1.0])
        with pytest.raises(TypeError):
            frequency_tower(6.0, 1.0)  # energies are required

    def test_tau_must_divide_window(self):
        with pytest.raises(ValueError, match="integer slices"):
            frequency_tower(6.0, 0.7, energies=[1.0])
        with pytest.raises(ValueError, match="integer slices"):
            frequency_tower(-6.0, -1.0, energies=[1.0])

    def test_a_huge_window_is_its_parameters(self):
        # 2e301 slices: nothing is listed, so the record is all there is
        tower = frequency_tower(1e300, 0.05, energies=[1.0])
        assert tower.N == round(1e300 / 0.05)
