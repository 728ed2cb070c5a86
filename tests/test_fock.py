"""Truncated ladders, the number-sector engine, and the anomaly law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqmlab.fock import (
    DENSE_DIM_CAP,
    SECTOR_LEG_CAP,
    DenseFock,
    LatticeFock,
    SectorFock,
    anomaly_mismatch,
    internal_contraction,
    naive_conditioning_check,
    predicted_mismatch_ratio,
)

from dense_refs import ladder


def _small(N=3, M=1, E=1.5, n_max=2, T=4.0) -> LatticeFock:
    return LatticeFock(N=N, M=M, energies=(E,) * M, n_max=n_max, eps=T / N)


class TestLattice:
    def test_leg_layout(self):
        lf = LatticeFock(N=2, M=3, energies=(1.0, 1.1, 1.2), n_max=1, eps=0.5)
        assert lf.legs == 6
        assert lf.leg(1, 2) == 5
        with pytest.raises(ValueError):
            lf.leg(2, 0)

    def test_energy_count_validation(self):
        with pytest.raises(ValueError):
            LatticeFock(N=2, M=2, energies=(1.0,), n_max=1, eps=0.5)

    def test_dense_cap_enforced(self):
        lf = LatticeFock(N=13, M=1, energies=(1.0,), n_max=3, eps=0.1)
        assert lf.dense_dim > DENSE_DIM_CAP
        with pytest.raises(ValueError):
            ladder(lf, 0, 0, "create")
        with pytest.raises(ValueError, match="exceeds cap"):
            DenseFock(lf)


class TestLadders:
    def test_commutator_on_safe_subspace(self):
        lf = _small(N=2, n_max=3)
        a = ladder(lf, 0, 0, "annihilate").mat
        comm = a @ a.conj().T - a.conj().T @ a
        # truncation corrupts only the top occupation level
        dims = (lf.n_max + 1,) * lf.legs
        mask = np.array([
            int(np.max(np.unravel_index(i, dims)) <= lf.n_max - 1)
            for i in range(lf.dense_dim)
        ])
        resid = (comm - np.eye(lf.dense_dim)) * mask[np.newaxis, :] * mask[:, np.newaxis]
        assert np.max(np.abs(resid)) == pytest.approx(0.0, abs=1e-14)

    def test_different_legs_commute(self):
        lf = _small(N=2, n_max=2)
        a0 = ladder(lf, 0, 0, "annihilate").mat
        a1_dag = ladder(lf, 1, 0, "create").mat
        np.testing.assert_allclose(a0 @ a1_dag, a1_dag @ a0, atol=1e-14)


class TestSectorEngine:
    def test_dimension_formula(self):
        sf = SectorFock(5)
        assert sf.dim == 1 + 5 + 5 * 5  # vacuum, one particle, symmetric pair block

    def test_create_annihilate_roundtrip(self):
        sf = SectorFock(3)
        v = sf.create(1, sf.vacuum())
        assert np.vdot(v, v) == pytest.approx(1.0)
        w = sf.create(1, v)  # double occupation: sqrt(2) amplitude
        assert np.vdot(w, w) == pytest.approx(2.0)
        back = sf.annihilate(1, w)
        np.testing.assert_allclose(back, 2.0 * v, atol=1e-14)

    def test_leg_cap_enforced(self):
        assert SectorFock(SECTOR_LEG_CAP).dim == 1 + SECTOR_LEG_CAP * (SECTOR_LEG_CAP + 1)
        with pytest.raises(ValueError, match=f"exceeds cap {SECTOR_LEG_CAP}"):
            SectorFock(SECTOR_LEG_CAP + 1)

    def test_two_sector_overflow_raises(self):
        sf = SectorFock(2)
        v = sf.create(0, sf.create(0, sf.vacuum()))
        with pytest.raises(ValueError):
            sf.create(1, v)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 5), st.booleans())
    def test_engines_agree(self, N, normal_ordered):
        lf = _small(N=N, n_max=2)
        dense = naive_conditioning_check(lf, 0, normal_ordered, engine="dense")
        sector = naive_conditioning_check(lf, 0, normal_ordered, engine="sector")
        assert dense[0] == pytest.approx(sector[0], abs=1e-12)
        assert dense[1] == pytest.approx(sector[1], abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2**32 - 1))
    def test_ladders_match_the_dense_engine(self, L, leg, particles, seed):
        """On random states of at most `particles` quanta, mapped into the dense basis."""
        lf = LatticeFock(N=L, M=1, energies=(1.0,), n_max=2, eps=0.5)
        leg %= L
        sf, df = SectorFock(L), DenseFock(lf)
        rng = np.random.default_rng(seed)
        z = np.array([1.0, 1j]) @ rng.normal(size=(2, sf.dim))
        v = sf.vacuum() * z[0]
        if particles >= 1:
            v += sf.one_particle(z[1 : 1 + L])
        if particles == 2:
            pairs = z[1 + L :].reshape(L, L)
            v[1 + L :] = ((pairs + pairs.T) / 2).reshape(-1)
        dense_v = _sector_in_dense(lf, v)
        assert np.vdot(v, v) == pytest.approx(np.vdot(dense_v, dense_v), rel=1e-12)
        np.testing.assert_allclose(_sector_in_dense(lf, sf.annihilate(leg, v)),
                                   df.annihilate(leg, dense_v), rtol=0, atol=1e-12)
        if particles == 2:
            with pytest.raises(ValueError, match="two-particle sector"):
                sf.create(leg, v)
        else:
            np.testing.assert_allclose(_sector_in_dense(lf, sf.create(leg, v)),
                                       df.create(leg, dense_v), rtol=0, atol=1e-12)
        np.testing.assert_allclose(_sector_in_dense(lf, sf.one_particle(z[1 : 1 + L])),
                                   df.one_particle(z[1 : 1 + L]), rtol=0, atol=0)
        np.testing.assert_array_equal(_sector_in_dense(lf, sf.vacuum()), df.vacuum())


def _sector_in_dense(lf, v):
    """A SectorFock vector over lf's legs, written in DenseFock's basis (n_max >= 2).

    (1/sqrt 2) sum_ij S_ij a†_i a†_j|vac> puts sqrt(2) S_ij on |1_i 1_j>
    for i < j and S_ii on |2_i>, as (a†_i)^2|vac> = sqrt(2)|2_i>.
    """
    L = lf.legs

    def index(*legs):
        occupation = np.zeros(L, dtype=int)
        for leg in legs:
            occupation[leg] += 1
        return np.ravel_multi_index(occupation, (lf.n_max + 1,) * L)

    out = np.zeros(lf.dense_dim, dtype=complex)
    out[index()] = v[0]
    pairs = v[1 + L :].reshape(L, L)
    for i in range(L):
        out[index(i)] = v[1 + i]
        for j in range(i, L):
            out[index(i, j)] = pairs[i, i] if i == j else math.sqrt(2.0) * pairs[i, j]
    return out


def _dense_reference_check(lf, t, normal_ordered, p):
    """The slab value of naive_conditioning_check from full D x D ladders."""
    vac = np.eye(lf.dense_dim)[0]
    phases = np.exp(-1j * lf.energies[p] * lf.eps * np.arange(lf.N)) / math.sqrt(lf.N)
    v = sum(phases[s] * (ladder(lf, s, p, "create").mat @ vac) for s in range(lf.N))
    adag = ladder(lf, t, p, "create").mat
    a = adag.conj().T
    op = adag @ a if normal_ordered else a @ adag
    return complex(lf.N * np.vdot(v, op @ v))


LATTICES = st.tuples(
    st.integers(1, 5), st.sampled_from([1, 2]), st.sampled_from([2, 3]),
).filter(lambda c: (c[2] + 1) ** (c[0] * c[1]) <= 1024)


class TestDenseStateApply:
    @settings(max_examples=25, deadline=None)
    @given(LATTICES, st.integers(0, 9), st.integers(0, 1), st.booleans(), st.integers(0, 2**32 - 1))
    def test_leg_apply_matches_dense_ladder(self, shape, t, p, create, seed):
        N, M, n_max = shape
        lf = LatticeFock(N=N, M=M, energies=(1.3,) * M, n_max=n_max, eps=0.7)
        t, p = t % N, p % M
        rng = np.random.default_rng(seed)
        v = rng.normal(size=lf.dense_dim) + 1j * rng.normal(size=lf.dense_dim)
        kind = "create" if create else "annihilate"
        got = getattr(DenseFock(lf), kind)(lf.leg(t, p), v)
        np.testing.assert_allclose(got, ladder(lf, t, p, kind).mat @ v, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(LATTICES, st.integers(0, 9), st.integers(0, 1), st.booleans())
    def test_conditioning_check_matches_dense_products(self, shape, t, p, normal_ordered):
        N, M, n_max = shape
        lf = LatticeFock(N=N, M=M, energies=(1.5, 0.8)[:M], n_max=n_max, eps=4.0 / N)
        t, p = t % N, p % M
        slab, standard = naive_conditioning_check(lf, t, normal_ordered, p, engine="dense")
        assert slab == pytest.approx(_dense_reference_check(lf, t, normal_ordered, p),
                                     abs=1e-12)
        assert standard == pytest.approx(1.0 if normal_ordered else 2.0, abs=1e-14)

    def test_dense_engine_respects_the_cap(self):
        lf = LatticeFock(N=13, M=1, energies=(1.0,), n_max=3, eps=0.1)
        with pytest.raises(ValueError, match="exceeds cap"):
            naive_conditioning_check(lf, 0, True, engine="dense")
        with pytest.raises(ValueError, match="exceeds cap"):
            internal_contraction(lf, engine="dense")

    @pytest.mark.parametrize("probe", [
        lambda lf, engine: anomaly_mismatch(lf, engine=engine),
        lambda lf, engine: naive_conditioning_check(lf, 0, True, engine=engine),
        lambda lf, engine: internal_contraction(lf, engine=engine),
    ], ids=["anomaly_mismatch", "naive_conditioning_check", "internal_contraction"])
    def test_engine_is_dense_or_sector(self, probe):
        with pytest.raises(ValueError, match="engine must be 'dense' or 'sector'"):
            probe(_small(), "auto")


class TestAnomaly:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 3))
    def test_normal_ordered_probe_agrees(self, N, t):
        lf = _small(N=N)
        slab, standard = naive_conditioning_check(lf, min(t, N - 1), True)
        assert slab == pytest.approx(standard, abs=1e-12)
        assert standard == pytest.approx(1.0, abs=1e-14)

    def test_nonnormal_probe_is_n_plus_one(self):
        for N in (2, 4, 7):
            lf = _small(N=N)
            slab, standard = naive_conditioning_check(lf, 0, False)
            assert standard == pytest.approx(2.0, abs=1e-14)
            assert slab == pytest.approx(N + 1.0, abs=1e-12)

    def test_contraction_density_is_slices_over_window(self):
        for N, T in ((4, 4.0), (8, 4.0), (10, 2.5)):
            lf = LatticeFock(N=N, M=1, energies=(1.5,), n_max=2, eps=T / N)
            assert internal_contraction(lf) == N / T

    def test_mismatch_doubling_matches_prediction(self):
        T = 4.0
        for N in (8, 16, 32):
            lf = LatticeFock(N=N, M=1, energies=(1.5,), n_max=2, eps=T / N)
            lf2 = LatticeFock(N=2 * N, M=1, energies=(1.5,), n_max=2, eps=T / (2 * N))
            r1 = anomaly_mismatch(lf, engine="sector")
            r2 = anomaly_mismatch(lf2, engine="sector")
            ratio = (r2["mismatch"] / r1["mismatch"]).real
            predicted = predicted_mismatch_ratio(N)
            assert ratio == pytest.approx(predicted, rel=1e-12)
            assert predicted == pytest.approx((2 * N - 1) / (N - 1))

    def test_predicted_ratio_needs_refinable_slicing(self):
        with pytest.raises(ValueError):
            predicted_mismatch_ratio(1)
