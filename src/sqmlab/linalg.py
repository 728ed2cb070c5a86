"""Dense operators on tensor-product spaces.

Everything downstream (history states, time slabs, spacetime density
operators, Wick engines) manipulates operators on a tensor product of
small local Hilbert spaces.  An operator here is its matrix and
nothing more: how its index space factors is the business of the one
caller that reads it, which hands the factor sizes to `partial_trace`
(the spacetime state does, from its slices and sites).  This module
fixes the single global index convention — factor 0 is the
slowest-varying (leftmost) kron index — and supplies the plumbing:
partial traces over arbitrary factor subsets, the unitary exp(-i·s·H)
of a Hermitian generator from numpy's `eigh`, and seeded random
operator ensembles.  Integer powers are numpy's `matrix_power`, traces
`np.trace` of `.mat`; the np.kron-built tensor product is a test
reference (`tests/dense_refs.py`).  No scipy.

Dense storage only; the intended regime is total dimension ≲ 4096.
Entries are complex128, except that float64 input stays float64: real
maps such as the fermionic signed permutations keep real products, and
arithmetic with complex values promotes as numpy does.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a matrix is numerically singular for the requested op."""


def _as_square_matrix(entries) -> np.ndarray:
    """float64 entries as they are, any other dtype as complex128, without a copy."""
    mat = np.asarray(entries)
    if mat.dtype != np.float64:
        mat = mat.astype(complex, copy=False)  # the one copy is Operator's own
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"operator entries must be a square matrix, got shape {mat.shape}")
    return mat


class Operator:
    """Immutable square matrix.

    Parameters
    ----------
    entries : array_like
        Square matrix; kept as float64 if it is float64, stored as
        complex128 otherwise.

    Notes
    -----
    An operator is its matrix: how its index space factors into
    tensor factors is known only to the caller that traces some of
    them out (`partial_trace`).  The entry buffer is write-protected,
    and all arithmetic returns new instances.  An ndarray that owns its
    buffer and is already write-protected is kept as it is, without a
    copy (its maker hands it over, as `spacetime.build_R` does with R,
    `unitary` with its product and the dense fermion views with their
    scattered buffers);
    anything else is copied.
    """

    __slots__ = ("mat",)

    def __init__(self, entries):
        mat = _as_square_matrix(entries)
        if mat.flags.writeable or not mat.flags.owndata:
            mat = mat.copy()
            mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def norm(self) -> float:
        """Frobenius norm of the entries."""
        return math.sqrt(np.vdot(self.mat, self.mat).real)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """||A - A†|| <= tol · max(1, ||A||), Frobenius norms."""
        gap = self.mat - self.mat.conj().T
        return math.sqrt(np.vdot(gap, gap).real) <= tol * max(1.0, self.norm())

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, Operator):
            if other.dim != self.dim:
                raise ValueError("operator size mismatch")
            return Operator(self.mat @ other.mat)
        if isinstance(other, Ket):
            return Ket(self.mat @ other.vec)
        return NotImplemented


class Ket:
    """Immutable complex vector, the column counterpart of Operator."""

    __slots__ = ("vec",)

    def __init__(self, entries):
        vec = np.array(entries, dtype=complex).reshape(-1)
        vec.flags.writeable = False
        object.__setattr__(self, "vec", vec)

    def __setattr__(self, name, value):
        raise AttributeError("Ket is immutable")

    @property
    def dim(self) -> int:
        return self.vec.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def expectation(self, A: Operator) -> complex:
        """⟨self|A|self⟩ (no normalization applied)."""
        return complex(np.vdot(self.vec, A.mat @ self.vec))

    def outer(self, other: "Ket | None" = None) -> Operator:
        """|self⟩⟨other| (defaults to the projector |self⟩⟨self|)."""
        bra = self if other is None else other
        return Operator(np.outer(self.vec, bra.vec.conj()))


# ---------------------------------------------------------------------------
# partial trace


def partial_trace(A: Operator, dims: Sequence[int], keep: Iterable[int]) -> Operator:
    """Trace out every factor not listed in `keep`.

    Parameters
    ----------
    A : Operator
    dims : sequence of int
        Size of each tensor factor of A's index space, factor 0 first
        (slowest varying index, i.e. the leftmost factor of a kron
        product); their product must be A's size.
    keep : iterable of int
        Factor indices to retain.  Ordering of the retained factors is
        preserved regardless of the order given here.

    Returns
    -------
    Operator
        On the product of the kept factors; trace is preserved up to
        rounding.

    One `np.einsum` over the (row factors, column factors) tensor: a
    traced factor's column axis carries its row label, so only the
    diagonal of the traced factors is read and no intermediate of the
    untraced size is built.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"local dimensions must be positive, got {dims}")
    if math.prod(dims) != A.dim:
        raise ValueError(f"prod(dims)={math.prod(dims)} != matrix size {A.dim}")
    keep_set = set(int(k) for k in keep)
    n = len(dims)
    for k in keep_set:
        if not 0 <= k < n:
            raise IndexError(f"keep index {k} out of range for {n} factors")
    keep_sorted = sorted(keep_set)
    if keep_sorted == list(range(n)):
        return A

    cols = [n + i if i in keep_set else i for i in range(n)]
    tensor = np.einsum(A.mat.reshape(dims + dims), [*range(n), *cols],
                       [*keep_sorted, *(n + i for i in keep_sorted)])
    size = math.prod(dims[i] for i in keep_sorted)
    return Operator(tensor.reshape(size, size))


# ---------------------------------------------------------------------------
# matrix functions


# from this size on, a phase's last-place unit is a whole radian or more
_PHASE_MAX = 2.0**52


def unitary(H: Operator, s: float) -> Operator:
    """exp(-i·s·H) for a Hermitian H, as U·diag(e^{-i s λ})·U† from `np.linalg.eigh`.

    The eigenvector route is the stable exponential of a Hermitian
    generator (Moler & Van Loan, SIAM Rev. 45, 3 (2003), method 14):
    unitary to rounding at every s, complex128 also for a float64 H.
    One Newton-Schulz step U(3I - U†U)/2 (Higham, Functions of
    Matrices, SIAM 2008, ch. 8) first makes eigh's eigenvectors
    orthonormal to working precision, where eigh leaves about d·1e-16.
    Each call decomposes its own H.

    Raises
    ------
    ValueError
        If H is not Hermitian (`Operator.is_hermitian`, tol 1e-12).
    FloatingPointError
        If a phase s·λ is not finite, or is 2**52 or more in size, where
        a unit in its last place is a whole radian.
    """
    if not H.is_hermitian():
        raise ValueError("unitary needs a Hermitian generator (tol 1e-12)")
    lam, U = np.linalg.eigh(H.mat)
    s = float(s)
    low, high = s * float(lam[0]), s * float(lam[-1])  # eigh sorts λ ascending
    if not (abs(low) < _PHASE_MAX and abs(high) < _PHASE_MAX):  # NaN compares False
        raise FloatingPointError(
            f"phase s*lambda out of range: s = {s}, eigenvalues in [{lam[0]}, {lam[-1]}]")
    U = 1.5 * U - 0.5 * (U @ (U.conj().T @ U))
    mat = (U * np.exp(-1j * (s * lam))) @ U.conj().T
    mat.flags.writeable = False  # a fresh buffer, which Operator keeps uncopied
    return Operator(mat)


# ---------------------------------------------------------------------------
# seeded random ensembles
#
# One scheme everywhere: complex Ginibre G = (A + iB)/sqrt(2) with A, B
# standard normal; hermitian = (G + G†)/2; kets are normalized Ginibre
# vectors.


def rand_ginibre(rng: np.random.Generator, d: int) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)


def rand_hermitian(rng: np.random.Generator, d: int) -> Operator:
    g = rand_ginibre(rng, d)
    return Operator((g + g.conj().T) / 2.0)


def rand_ket(rng: np.random.Generator, d: int) -> Ket:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return Ket(v / np.linalg.norm(v))
