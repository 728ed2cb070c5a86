"""Classical brackets: second-class pairs and Dirac reduction."""

import math

import numpy as np
import pytest

from sqmlab.constraints import (
    build_constraints,
    classify,
    dirac_bracket,
    equal_time_bracket_reconstruction,
    mode_a,
    mode_astar,
    poisson_bracket,
)
from sqmlab.grids import ModeGrid


def _mixed_grid(T: float = 7.0) -> ModeGrid:
    """Two exactly on-shell modes (pinned) and two off-shell ones."""
    return ModeGrid(
        T=T,
        modes=((1, 0), (2, 1), (3, 0), (5, 1)),
        m=1.0,
        M_sites=2,
        energy_override=(2 * math.pi * 1 / T, 2 * math.pi * 2 / T, None, None),
    )


class TestPoissonBracket:
    def test_canonical_pair(self):
        assert poisson_bracket(mode_a(0, 2), mode_astar(0, 2)) == pytest.approx(-1j)
        assert poisson_bracket(mode_astar(0, 2), mode_a(0, 2)) == pytest.approx(1j)

    def test_distinct_modes_commute(self):
        assert poisson_bracket(mode_a(0, 2), mode_astar(1, 2)) == 0.0
        assert poisson_bracket(mode_a(0, 2), mode_a(1, 2)) == 0.0

    def test_bilinearity(self):
        f = 2.0 * mode_a(0, 2) + 0.5j * mode_astar(1, 2)
        g = mode_astar(0, 2) - 3.0 * mode_a(1, 2)
        expected = 2.0 * (-1j) + 0.5j * (-3.0) * (1j)
        assert poisson_bracket(f, g) == pytest.approx(expected)

    def test_mode_symbols_are_coefficient_rows(self):
        np.testing.assert_array_equal(mode_a(1, 3), [[0, 1, 0], [0, 0, 0]])
        np.testing.assert_array_equal(mode_astar(1, 3), [[0, 0, 0], [0, 1, 0]])
        with pytest.raises(IndexError):
            mode_a(3, 3)


class TestDiracBracket:
    def test_offshell_modes_freeze(self):
        cs = build_constraints(_mixed_grid())
        for k in (2, 3):
            db = dirac_bracket(mode_a(k, 4), mode_astar(k, 4), cs)
            assert abs(db) <= 1e-12

    def test_onshell_modes_keep_canonical_bracket(self):
        cs = build_constraints(_mixed_grid())
        for k in (0, 1):
            db = dirac_bracket(mode_a(k, 4), mode_astar(k, 4), cs)
            assert db == -1j  # untouched by the correction: exact

    def test_classification(self):
        assert classify(build_constraints(_mixed_grid())) == [
            "identically-zero", "identically-zero", "second-class", "second-class",
        ]


class TestEqualTimeReconstruction:
    def test_kronecker_delta_at_equal_times(self):
        T = 7.0
        grid = ModeGrid(
            T=T, modes=((1, 0), (2, 1)), m=1.0, M_sites=2,
            energy_override=(2 * math.pi * 1 / T, 2 * math.pi * 2 / T),
        )
        for t in (0.0, 0.7, 3.1):
            for x in range(2):
                for y in range(2):
                    val = equal_time_bracket_reconstruction(grid, x, y, t, t)
                    assert val == pytest.approx(1.0 if x == y else 0.0, abs=1e-12)

    def test_unequal_times_give_classical_mode_sum(self):
        T = 7.0
        E = (2 * math.pi * 1 / T, 2 * math.pi * 2 / T)
        grid = ModeGrid(
            T=T, modes=((1, 0), (2, 1)), m=1.0, M_sites=2, energy_override=E,
        )
        t, tp = 1.2, 0.4
        x, y = 1, 0
        val = equal_time_bracket_reconstruction(grid, x, y, t, tp)
        ps = (0.0, -math.pi)  # centered momenta of site classes 0 and 1 (M = 2)
        expected = sum(
            math.cos(p * (x - y) - e * (t - tp)) for p, e in zip(ps, E)
        ) / 2.0
        assert val == pytest.approx(expected, abs=1e-12)

    def test_requires_full_onshell_cover(self):
        # mode 1 is left off shell, so site class 1 has no on-shell mode
        grid = ModeGrid(
            T=7.0, modes=((1, 0), (2, 1)), m=1.0, M_sites=2,
            energy_override=(2 * math.pi / 7.0, None),
        )
        with pytest.raises(ValueError, match=r"no label in site classes \[1\] of M = 2"):
            equal_time_bracket_reconstruction(grid, 0, 0, 0.0, 0.0)
        doubled = ModeGrid(
            T=7.0, modes=((1, 0), (2, 0)), m=1.0, M_sites=2,
            energy_override=(2 * math.pi / 7.0, 4 * math.pi / 7.0),
        )
        with pytest.raises(ValueError, match="two labels in site class 0 of M = 2"):
            equal_time_bracket_reconstruction(doubled, 0, 0, 0.0, 0.0)

