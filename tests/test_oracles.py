"""The oracle lattice on vectors against its dense-matrix reference."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from dense_refs import (
    lattice_annihilators,
    lattice_field,
    lattice_pair_channel_vertex,
    lattice_quartic,
)
from sqmlab import oracles
from sqmlab.experiments import DEFAULTS
from sqmlab.oracles import DenseFockLattice, pair_channel_vertex

LATTICES = [(M, n_max) for M in (1, 2, 3, 4) for n_max in (1, 2, 3)]


def _lattice(M, n_max):
    energies = tuple(1.0 + 0.37 * min(j, M - j) for j in range(M))
    return DenseFockLattice(M, energies, n_max)


def _random_vectors(lat, count=2):
    rng = np.random.default_rng(1000 * lat.M + lat.n_max)
    return rng.normal(size=(count, lat.dim)) + 1j * rng.normal(size=(count, lat.dim))


def _close(got, ref):
    return np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("M, n_max", LATTICES)
def test_ladders_match_kron_ladders(M, n_max):
    lat = _lattice(M, n_max)
    for a, p in zip(lattice_annihilators(lat), range(M)):
        for v in _random_vectors(lat):
            assert _close(lat.ladder(p, v), a @ v)
            assert _close(lat.ladder(p, v, create=True), a.T @ v)


@pytest.mark.parametrize("M, n_max", LATTICES)
def test_field_and_quartic_match_dense_matrices(M, n_max):
    lat = _lattice(M, n_max)
    quartic = lattice_quartic(lat, 0.3)
    for v in _random_vectors(lat):
        for x in range(M):
            assert _close(lat.field(x, v), lattice_field(lat, x) @ v)
        assert _close(lat.quartic_interaction(0.3, v), quartic @ v)


@pytest.mark.parametrize("M, n_max", LATTICES)
def test_pair_channel_vertex_matches_dense_triple_products(M, n_max):
    lat = _lattice(M, n_max)
    vertex = lattice_pair_channel_vertex(lat, 0.3)
    for v in _random_vectors(lat):
        assert _close(pair_channel_vertex(lat, 0.3, v), vertex @ v)


def _smatrix_energies():
    p = DEFAULTS["smatrix"]
    e_a, e_b = (2 * math.pi * p[key] / p["T"] for key in ("n_a", "n_b"))
    return p["M_sites"], (e_a, e_b, e_a, e_b), p["lam"], p["T"]


def _dense_pair_state(lat, a, b):
    up = [c.T for c in lattice_annihilators(lat)]
    vac = np.zeros(lat.dim)
    vac[0] = 1.0
    vec = up[a] @ (up[b] @ vac)
    return vec / np.linalg.norm(vec)


def test_public_oracles_match_their_dense_forms():
    p = DEFAULTS["propagator"]
    E2 = p["grid_energies"]
    lat = DenseFockLattice(2, E2, p["ed_n_max"])
    levels = lat.levels()
    for x, dt in ((0, 0.15), (1, 0.1), (1, -0.1)):
        # <0|T phi_x(dt) phi_0(0)|0>: the later field stands on the left
        left, right = lattice_field(lat, x), lattice_field(lat, 0)
        if dt < 0:
            left, right = right, left
        ref = (left @ (np.exp(-1j * abs(dt) * levels) * (right @ lat.vacuum())))[0]
        got = oracles.timeordered_two_point_ed(2, E2, x, 0, dt, n_max=p["ed_n_max"])
        assert abs(got - ref) <= 1e-13 * abs(ref)

    M, E, lam, T = _smatrix_energies()
    lat = DenseFockLattice(M, E, 2)
    vec_i, vec_f = _dense_pair_state(lat, 1, 2), _dense_pair_state(lat, 0, 3)
    ref = -1j * T * (vec_f @ lattice_quartic(lat, lam) @ vec_i)
    got = oracles.dyson_smatrix_oracle(M, E, lam, (1, 2), (0, 3), T, order=1, n_max=2)
    assert abs(got - ref) <= 1e-13 * abs(ref)

    vertex = lattice_pair_channel_vertex(lat, lam)
    a1 = -1j * T * (vec_f @ vertex @ vec_i)
    a2 = oracles._windowed_second_order(lat, vec_i, vertex @ vec_i, vertex @ vec_f, T, 0.04)
    got1, got2 = oracles.dyson_pair_channel_amplitudes(M, E, lam, (1, 2), (0, 3), T, eta=0.02)
    assert abs(got1 - a1) <= 1e-13 * abs(a1)
    assert abs(got2 - a2) <= 1e-13 * abs(a2)


def test_public_oracles_hold_no_array_larger_than_a_state(monkeypatch):
    limit = {"dim": 0}

    def refusing(f, size):
        def guarded(*args, **kwargs):
            if size(*args) > limit["dim"]:
                raise AssertionError(f"{f.__name__} of {size(*args)} entries")
            return f(*args, **kwargs)
        return guarded

    monkeypatch.setattr(np, "zeros", refusing(np.zeros, lambda shape, *_: np.prod(shape)))
    monkeypatch.setattr(np, "kron", refusing(np.kron, lambda a, b: np.size(a) * np.size(b)))
    p = DEFAULTS["propagator"]
    limit["dim"] = DenseFockLattice(2, p["grid_energies"], p["ed_n_max"]).dim
    oracles.timeordered_two_point_ed(2, p["grid_energies"], 1, 0, 0.1, n_max=p["ed_n_max"])
    M, E, lam, T = _smatrix_energies()
    limit["dim"] = DenseFockLattice(M, E, 2).dim
    oracles.dyson_smatrix_oracle(M, E, lam, (1, 2), (0, 3), T, order=1, n_max=2)
    oracles.dyson_pair_channel_amplitudes(M, E, lam, (1, 2), (0, 3), T, eta=0.02)
    # the guard does refuse a D x D matrix
    with pytest.raises(AssertionError, match="zeros"):
        np.zeros((limit["dim"], limit["dim"]))


def test_oracles_import_nothing_from_the_package():
    # an oracle shares no helper with the slab routes it checks
    tree = ast.parse(Path(oracles.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [node.module for node in imports
            if node.level or node.module.startswith("sqmlab")] == []
