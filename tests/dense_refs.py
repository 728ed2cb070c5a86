"""Dense references the tests compare the structured engines against.

None of these is used by the library: the slab route applies the cyclic
shift as a roll of the slice axes, slice operators as local factors,
tensor products as broadcast krons of fused slice-group blocks,
partial traces as one einsum, the dense Fock engine each ladder on
one axis of the occupation tensor, and the oracle lattice each ladder
on a state vector.  Here each is written out the plain way, as a full
matrix, an np.kron chain or a loop.  The perturbative
references spell out what the separable routes factor: the O(N) mode
sum over the N labels of each frequency tower that the closed kernel
resums (per tower, and summed over the towers of a site lattice), one
exponential per power and branch of the closed kernel, one outer
product per site class in the internal-line table, one phase per
lattice point in the order-2 sum, the N x M line itself, whose
elementwise powers the order-2 class sums resum in closed form, and
those class sums again at 50 digits.

The brute-force references of the Gaussian laws and of Wick's theorem
live here too: the bosonic pair value <a†a> as a truncated geometric
sum over occupations, the fermionic one as a dense parity-weighted
trace of e^{i S_f} on the Jordan-Wigner lattice together with the
general-A law (I - e^{iA})^{-1} through a Padé `expm`, and every perfect
matching of the insertions, listed one by one.
"""

import cmath
import math
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy import sparse

from sqmlab import fock, gaussian, grids, wick
from sqmlab.fermions import FermionLayout, jw_ladder, parity_matrix
from sqmlab.linalg import Ket, Operator, SingularMatrixError
from sqmlab.timeslab import QuantumAction, SliceLayout, slice_factors


def kron(*ops: Operator) -> Operator:
    """Tensor product by np.kron, first factor slowest-varying."""
    if not ops:
        raise ValueError("kron of nothing")
    mat = ops[0].mat
    for op in ops[1:]:
        mat = np.kron(mat, op.mat)
    return Operator(mat)


def identity(dims: int | Sequence[int]) -> Operator:
    """Identity on the product of the factor sizes `dims`."""
    if isinstance(dims, int):
        dims = (dims,)
    return Operator(np.eye(math.prod(int(d) for d in dims)))


def ladder(lf: fock.LatticeFock, t: int, p: int, kind: str) -> Operator:
    """Dense a(t,p) or a†(t,p) on the full truncated lattice space, by kron."""
    if lf.dense_dim > fock.DENSE_DIM_CAP:
        raise ValueError(f"dense space of dim {lf.dense_dim} exceeds cap {fock.DENSE_DIM_CAP}")
    if kind not in ("create", "annihilate"):
        raise ValueError("kind must be 'create' or 'annihilate'")
    a = np.diag(np.sqrt(np.arange(1, lf.n_max + 1)), 1)
    local = Operator(a.T if kind == "create" else a)
    leg = lf.leg(t, p)
    factors = []
    if leg:
        factors.append(identity((lf.n_max + 1,) * leg))
    factors.append(local)
    if leg < lf.legs - 1:
        factors.append(identity((lf.n_max + 1,) * (lf.legs - 1 - leg)))
    return kron(*factors)


def cycle_shift(layout: SliceLayout) -> Operator:
    """Permutation unitary sending |i0 i1 ... i_{N-1}> to |i_{N-1} i0 ... i_{N-2}>.

    For N = 2, d = 2 this is the 4x4 SWAP.  Its N-th power is the
    identity, and conjugation by it advances slice labels by one.
    """
    size, dims = layout.total_dim, (layout.d,) * layout.N
    cols = np.arange(size)
    digits = np.array(np.unravel_index(cols, dims))  # shape (N, size)
    rows = np.ravel_multi_index(tuple(np.roll(digits, 1, axis=0)), dims)
    mat = np.zeros((size, size))
    mat[rows, cols] = 1.0
    return Operator(mat)


def embed_at_slice(O: Operator, t: int, layout: SliceLayout) -> Operator:
    """I^{⊗t} ⊗ O ⊗ I^{⊗(N-1-t)}."""
    if O.dim != layout.d:
        raise ValueError(f"insertion is {O.dim}-dimensional, slices are {layout.d}")
    if not 0 <= t < layout.N:
        raise ValueError(f"slice index {t} out of range [0, {layout.N})")
    left = identity((layout.d,) * t) if t else None
    right = identity((layout.d,) * (layout.N - 1 - t)) if t < layout.N - 1 else None
    factors = [f for f in (left, O, right) if f is not None]
    return kron(*factors)


def spacetime_state(psi: Ket, H: Operator, eps: float, N: int) -> np.ndarray:
    """Dense R = embed(|psi><psi|·V^{-N}, 0) · C · V^{⊗N} / Tr, V = exp(-i eps H)."""
    layout = SliceLayout(d=psi.dim, N=N, eps=eps)
    V = Operator(scipy.linalg.expm(-1j * eps * H.mat))
    b = psi.outer() @ Operator(scipy.linalg.expm(1j * eps * N * H.mat))
    raw = (embed_at_slice(b, 0, layout) @ cycle_shift(layout) @ kron(*([V] * N))).mat
    return raw / np.trace(raw)


def constraint_expectation_columns(
    qa: QuantumAction, O: Operator, t: int, boundary: tuple[Ket, Ket] | None = None
) -> complex:
    """Tr[B · E · (E·X·E† - X)], X = embed(O, t), from whole D x D columns.

    E and E·X are E's dense builds without and with X's slice factor,
    and the bracket is kept as one dense matrix.
    """
    layout = qa.layout
    E, EX = qa.dense(), qa.dense(slice_factors(layout, [(O, t)]))
    bracket = E @ EX @ E.conj().T - EX  # E·(E·X·E† - X)
    if boundary is not None:
        q, qp = boundary
        bracket = embed_at_slice(q.outer(qp), 0, layout).mat @ bracket
    return complex(np.trace(bracket))


def partial_trace_loop(A: Operator, dims: Sequence[int], keep) -> Operator:
    """Partial trace over factors of sizes `dims` by one np.trace per traced factor, ascending.

    Each np.trace contracts a row axis with its column axis and builds
    the whole remaining tensor.
    """
    dims = tuple(int(d) for d in dims)
    keep_set = set(int(k) for k in keep)
    n = len(dims)
    tensor = A.mat.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep_set]
    for offset, i in enumerate(traced):
        j = i - offset  # row-axis position after earlier contractions
        m = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=j, axis2=m + j)
    size = math.prod(dims[i] for i in keep_set)
    return Operator(tensor.reshape(size, size))


def frequency_window(N: int) -> list[int]:
    """The canonical N-point integer frequency labels (fftfreq set, ascending).

    Built directly in integer arithmetic: float fftfreq values scaled
    back by N truncate unreliably for N in the tens of thousands.
    """
    return list(range(-(N // 2), N - N // 2))


def _mode_value(tau: float, gap: np.ndarray, eps_i: float) -> np.ndarray:
    """1 / (exp(-i tau (gap + i eps_i)) - 1), the Bose law of gaussian._mode_corr, through expm1.

    expm1 keeps the digits that the - 1 cancels next to the pole, where
    the reference must be the more accurate side; PoleError on it.
    """
    den = np.expm1(-1j * tau * (gap + 1j * eps_i))
    if np.any(den == 0):
        raise gaussian.PoleError("mode correlator pole: tau*(gap + i eps_i) = 0 mod 2 pi")
    return 1.0 / den


def _tower_kernel(tower, E: float, tau: float, eps_i: float, dt_slices: int) -> complex:
    """The O(N) mode sum of feynman_kernel over one tower of `tower` at energy E."""
    w = 2.0 * math.pi * np.array(frequency_window(tower.N)) / tower.T
    c_minus = _mode_value(tau, w - E, eps_i)
    c_plus = _mode_value(tau, w + E, -eps_i)
    terms = np.exp(-1j * w * (tau * dt_slices)) * (c_minus - c_plus)
    return complex(np.sum(terms) / tower.N)


def feynman_kernel(tower, tau: float, eps_i: float, dt_slices: int) -> complex:
    """Single-tower time-ordered kernel: (1/N) sum_w e^{-i w dt} [corr- - corr+].

    corr- is the mode correlator at gap w - E + i eps_i and corr+ the
    one at gap w + E - i eps_i; their difference is the discrete partial
    fraction giving i/(p0^2 - E^2 + i eps_i) * 2E.  The tau -> 0 limit
    at fixed T is theta-ordered e^{-iE|dt|} plus O(e^{-eps_i T}) images;
    the equal-time value is 1 (so the propagator carries 1/(2E) there).
    The sum runs over the N labels of the tower without a spatial index
    as one array: the explicit mode sum that
    gaussian.feynman_kernel_closed resums.
    """
    if () not in tower.spatial:
        raise ValueError("grid has no frequency tower without a spatial index")
    E = tower.energies[tower.spatial.index(())]
    return _tower_kernel(tower, E, tau, eps_i, dt_slices)


def feynman_propagator_tower_sum(tower, tau: float, eps_i: float, x, y) -> complex:
    """feynman_propagator_grid as one tower sum per spatial index of the tower.

    (1/M) sum_p e^{i p (s_x - s_y)} K_p(t_x - t_y) / (2 E_p), each K_p
    the O(N) mode sum over its tower; no check that the towers cover
    the site classes once at T/tau slices each.
    """
    (tx, sx), (ty, sy) = x, y
    M = tower.M_sites
    total = 0.0 + 0.0j
    for sp, E in zip(tower.spatial, tower.energies):
        p = 2.0 * math.pi * sp[0] / M
        kern = _tower_kernel(tower, E, tau, eps_i, tx - ty)
        total += cmath.exp(1j * p * (sx - sy)) / (2.0 * E) * kern
    return total / M


def feynman_kernel_two_exp(N: int, tau: float, eps_i: float, E: float, dt_slices):
    """The closed tower kernel with one exp array per branch, e^{r z} and e^{s z}."""
    z = complex(-tau * eps_i, -tau * E)
    dt = np.asarray(dt_slices)
    r = (dt - 1) % N + 1
    s = (-dt) % N
    return (np.exp(r * z) + np.exp(s * z)) / -np.expm1(N * z)


def grid_line_energies(grid) -> list[float]:
    """grids.site_class_energies over a ModeGrid's (n0, j) modes, as smatrix_element reads them."""
    return grids.site_class_energies([mode[1] for mode in grid.modes],
                                     [grid.energy(k) for k in range(len(grid))], grid.M_sites)


def propagator_table_outer(grid, tau: float, eps_i: float) -> np.ndarray:
    """P[dt, dx] accumulated as one np.outer(kernel, phases) per site class."""
    N = grids.slice_count(grid.T, tau)
    M = grid.M_sites
    table = np.zeros((N, M), dtype=complex)
    for j, E in enumerate(grid_line_energies(grid)):
        kern = feynman_kernel_two_exp(N, tau, eps_i, E, np.arange(N))
        phases = np.exp(2j * np.pi * j * np.arange(M) / M)
        table += np.outer(kern, phases) / (2.0 * E)
    return table / M


def _order2_classes(grid, in_modes, out_modes, lam: float, tau: float, eps_i: float):
    """(N, M, [(m, count, n_tot, j_tot) per pair-channel class], the factor of their sum).

    The external slice and site labels summed over each class's legs,
    and the leg, vertex and volume factors of smatrix_element.
    """
    N = grids.slice_count(grid.T, tau)
    M = grid.M_sites
    legs = [wick._leg_label(grid, k) for k in (*in_modes, *out_modes)]
    signs = (1, 1, -1, -1)
    consts = (wick._leg_const(tau, eps_i, True) ** 2
              * wick._leg_const(tau, eps_i, False) ** 2 / (N * M) ** 2)
    vertex = -1j * (lam / 24.0) * tau**2
    classes = [(m, count, sum(signs[l] * legs[l][0] for l in sz),
                sum(signs[l] * legs[l][1] for l in sz))
               for m, _, sz, count in wick._ORDER2_BUCKETS]
    return N, M, classes, 0.5 * vertex**2 * consts * (N * M) / tau


def order2_pair_channel_phase_grid(grid, in_modes, out_modes, lam: float, tau: float,
                                   eps_i: float) -> complex:
    """smatrix_element(order=2, channel="s") with each class summed over the N x M grid.

    Every lattice point gets its own external phase
    exp(i sum_l sigma_l (p_l x - E_l tau t)), multiplied into P^m
    elementwise and summed, against the table of propagator_table_outer.
    """
    N, M, classes, factor = _order2_classes(grid, in_modes, out_modes, lam, tau, eps_i)
    table = propagator_table_outer(grid, tau, eps_i)
    t = np.arange(N)[:, None]
    x = np.arange(M)[None, :]
    total = 0.0 + 0.0j
    for m, count, n_tot, j_tot in classes:
        phase = np.exp(2j * np.pi * (j_tot * x / M - n_tot * t / N))
        total += count * np.sum(table**m * phase)
    return factor * total


def order2_pair_channel_table(grid, in_modes, out_modes, lam: float, tau: float,
                              eps_i: float) -> complex:
    """smatrix_element(order=2, channel="s") as e_t^T P^m e_x against the whole line.

    P is the N x M table of gaussian.line_table at every dt, raised
    elementwise to the class's power m; e_t is read from the N roots of
    unity of gaussian._exp_powers at (n_tot t) mod N and e_x is the site
    phase: a sum over every lattice point, where smatrix_element reads
    closed forms of the same slice sums and never forms P.
    """
    N, M, classes, factor = _order2_classes(grid, in_modes, out_modes, lam, tau, eps_i)
    table = gaussian.line_table(N, tau, eps_i, grid_line_energies(grid), np.arange(N))
    t = np.arange(N)
    roots = gaussian._exp_powers(-2j * np.pi / N, t, N)
    total = 0.0 + 0.0j
    for m, count, n_tot, j_tot in classes:
        e_x = np.exp(2j * np.pi * j_tot * np.arange(M) / M)
        total += count * (roots[(n_tot * t) % N] @ table**m @ e_x)
    return factor * total


def order2_pair_channel_mpmath(grid, in_modes, out_modes, lam: float, tau: float,
                               eps_i: float, dps: int = 50) -> complex:
    """smatrix_element(order=2, channel="s") evaluated with mpmath at dps digits.

    In the class sums the float inputs (tau, eps_i and the site-class
    energies) are read exactly, and each class's slice sum of K_a K_b e_t
    is the four geometric series of the kernels' powers, each
    (1 - q^N) / (1 - q) with q formed as it stands: the plain phase
    e^{-2 pi i n / N} and the last series' factor (w_a w_b)^N, which at
    these digits lose nothing; the plane-wave weights are summed from
    their definition.  The leg, vertex and volume factor of
    _order2_classes is formed at these digits too, its leg constants
    e_i sqrt(tau) C from the Bose law C- = 1/(e^{tau e_i} - 1) and
    C+ = 1/(1 - e^{-tau e_i}).
    """
    import mpmath

    N, M, classes, _ = _order2_classes(grid, in_modes, out_modes, lam, tau, eps_i)
    with mpmath.workdps(dps):
        tau, eps_i = mpmath.mpf(tau), mpmath.mpf(eps_i)
        legs_sq = [eps_i**2 * tau / mpmath.expm1(sign * tau * eps_i) ** 2 for sign in (1, -1)]
        vertex_sq = -(mpmath.mpf(lam) / 24) ** 2 * tau**4
        factor = vertex_sq * legs_sq[0] * legs_sq[1] / (2 * N * M * tau)
        energies = [mpmath.mpf(E) for E in grid_line_energies(grid)]
        distinct = list(dict.fromkeys(energies))
        w = {E: mpmath.exp(-tau * (eps_i + 1j * E)) for E in distinct}
        weights = {E: [mpmath.fsum(mpmath.expjpi(mpmath.mpf(2 * j * x) / M) / (2 * E * M)
                                   for j, E_j in enumerate(energies) if E_j == E)
                       for x in range(M)]
                   for E in distinct}

        def geometric(q):
            return mpmath.mpf(N) if q == 1 else (1 - q**N) / (1 - q)

        total = mpmath.mpc(0)
        for m, count, n_tot, j_tot in classes:
            assert m == 2
            phase = mpmath.expjpi(mpmath.mpf(-2 * n_tot) / N)
            for a in distinct:
                for b in distinct:
                    slices = (geometric(phase * w[a] * w[b])
                              + w[b]**N * geometric(phase * w[a] / w[b])
                              + w[a]**N * geometric(phase * w[b] / w[a])
                              + (w[a] * w[b])**N * geometric(phase / (w[a] * w[b])))
                    slices /= (1 - w[a]**N) * (1 - w[b]**N)
                    sites = mpmath.fsum(weights[a][x] * weights[b][x]
                                        * mpmath.expjpi(mpmath.mpf(2 * j_tot * x) / M)
                                        for x in range(M))
                    total += count * slices * sites
        return complex(factor * total)


def lattice_annihilators(lat) -> list[np.ndarray]:
    """The D x D annihilators a_p of an oracles.DenseFockLattice, each an np.kron chain."""
    d = lat.n_max + 1
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    ladders = []
    for p in range(lat.M):
        full = np.eye(1)
        for q in range(lat.M):
            full = np.kron(full, a if q == p else np.eye(d))
        ladders.append(full)
    return ladders


def lattice_field(lat, x: int) -> np.ndarray:
    """Dense phi_x = (1/sqrt(M)) sum_j (2E_j)^{-1/2} (a_j e^{ipx} + a†_j e^{-ipx})."""
    phi = np.zeros((lat.dim, lat.dim), dtype=complex)
    for j, (a, E) in enumerate(zip(lattice_annihilators(lat), lat.energies)):
        p = 2.0 * math.pi * j / lat.M
        phi += (a * cmath.exp(1j * p * x) + a.T * cmath.exp(-1j * p * x)) / math.sqrt(2.0 * E)
    return phi / math.sqrt(lat.M)


def lattice_quartic(lat, coupling: float) -> np.ndarray:
    """Dense (coupling/24) sum_x phi_x^4, each phi_x^4 as (phi_x phi_x)(phi_x phi_x)."""
    v = np.zeros((lat.dim, lat.dim), dtype=complex)
    for x in range(lat.M):
        phi = lattice_field(lat, x)
        phi2 = phi @ phi
        v += phi2 @ phi2
    return (coupling / 24.0) * v


def lattice_pair_channel_vertex(lat, coupling: float) -> np.ndarray:
    """Dense pair-channel vertex: M^3 triple products a†_{j1} a†_{j2} a_{j3} a_{j4}."""
    M, E = lat.M, lat.energies
    ladders = lattice_annihilators(lat)
    out = np.zeros((lat.dim, lat.dim), dtype=complex)
    for j1 in range(M):
        for j2 in range(M):
            left = ladders[j1].T @ ladders[j2].T
            for j3 in range(M):
                j4 = (j1 + j2 - j3) % M
                norm = 16.0 * E[j1] * E[j2] * E[j3] * E[j4]
                out += (left @ ladders[j3] @ ladders[j4]) / math.sqrt(norm)
    return coupling / (4.0 * M) * out


def thermal_pair_bruteforce(lam: complex, n_max: int = 40) -> complex:
    """<a†a> under weight e^{-lam n}, truncated geometric sums up to n_max."""
    ns = np.arange(n_max + 1)
    weights = np.exp(-lam * ns)
    return complex(np.sum(ns * weights) / np.sum(weights))


def quadratic_action(layout: FermionLayout, coeffs: np.ndarray) -> Operator:
    """S_f = sum_ab coeffs[a, b] c†_a c_b, summed as sparse products."""
    coeffs = np.asarray(coeffs, dtype=complex)
    L = layout.legs
    if coeffs.shape != (L, L):
        raise ValueError(f"coefficient matrix must be {L}x{L}")
    ladders = [  # real: c† is the transpose
        sparse.csr_array((vals, (rows, cols)), shape=(layout.dim,) * 2)
        for rows, cols, vals in (jw_ladder(layout, leg) for leg in range(L))
    ]
    out = sparse.csr_array((layout.dim, layout.dim), dtype=complex)
    for a, b in zip(*np.nonzero(coeffs)):
        out = out + coeffs[a, b] * (ladders[a].T @ ladders[b])
    return Operator(out.toarray())


def parity_pair_correlator(coeffs: np.ndarray) -> np.ndarray:
    """Closed Gaussian law: <c_a c†_b> = [(I - e^{iA})^{-1}]_ab, for any A.

    A is the quadratic coefficient matrix of S_f.  (The unweighted
    thermal trace would give the Fermi-Dirac form (I + e^{iA})^{-1};
    the parity insertion flips the sign of the exponential, which is
    exactly what lets the on-shell pole of the propagator build up.)  A
    general A need not be normal, so the exponential is scipy's Padé
    `expm` and the inverse a general one, refused with SingularMatrixError
    where the smallest singular value of I - e^{iA} is below 1e-13 times
    the largest; the library's Dirac block has the closed forms of
    `fermions.dirac_mode_propagator`.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    pair = np.eye(coeffs.shape[0]) - scipy.linalg.expm(1j * coeffs)
    svals = np.linalg.svd(pair, compute_uv=False)
    if svals[-1] < 1e-13 * max(svals[0], np.finfo(float).tiny):
        raise SingularMatrixError(
            f"I - e^(iA) numerically singular: smallest sv {svals[-1]:.3e} vs norm {svals[0]:.3e}")
    return np.linalg.inv(pair)


def parity_weighted_trace(
    layout: FermionLayout, S_f: Operator, inserts: Sequence[Operator]
) -> complex:
    """Tr[P e^{i S_f} (prod inserts)] / Tr[P e^{i S_f}].

    The parity insertion is what makes the quadratic weight Gaussian in
    the fermionic sense; without it odd-operator traces would not
    vanish mode by mode.  Raises on a numerically vanishing
    normalization (e.g. a mode with e^{iA} having eigenvalue 1).
    """
    if S_f.dim != layout.dim:
        raise ValueError("action operator lives on the wrong space")
    weight = parity_matrix(layout)[:, None] * scipy.linalg.expm(1j * S_f.mat)
    den = complex(np.trace(weight))
    if abs(den) < 1e-13:
        raise ZeroDivisionError("parity-weighted normalization trace vanishes")
    prod = np.eye(layout.dim, dtype=complex)
    for ins in inserts:
        if ins.dim != layout.dim:
            raise ValueError("insertion lives on the wrong space")
        prod = prod @ ins.mat
    return complex(np.trace(weight @ prod)) / den


PairingType = tuple[tuple[int, int], ...]


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def enumerate_pairings(n_insertions: int) -> list[PairingType]:
    """All (n-1)!! perfect matchings of {0..n-1}, deterministic order.

    The first free index is paired with each later free index in
    ascending order, then the rest recursively — so the output order is
    reproducible and the leading pair is always sorted.
    """
    if n_insertions % 2:
        raise ValueError("Wick pairings need an even number of insertions")

    def rec(free: tuple[int, ...]) -> list[PairingType]:
        if not free:
            return [()]
        head, rest = free[0], free[1:]
        out = []
        for i, partner in enumerate(rest):
            remaining = rest[:i] + rest[i + 1 :]
            for tail in rec(remaining):
                out.append(((head, partner),) + tail)
        return out

    return rec(tuple(range(n_insertions)))
