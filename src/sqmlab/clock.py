"""Discrete-clock history states and conditioning.

A system evolving under H for N steps of size eps is encoded as one
normalized vector on clock ⊗ system,

    |Psi> = (1/sqrt(N)) sum_t |t> ⊗ U^t |psi0>,   U = exp(-i eps H),

and ordinary Schrödinger expectation values are recovered by
conditioning on the clock reading.  U comes from the eigendecomposition
of H (`linalg.unitary`), which also refuses a non-Hermitian H.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import Ket, Operator, unitary


@dataclass(frozen=True)
class ClockSystem:
    """N clock levels driving a finite-dimensional system.

    Attributes
    ----------
    N : int
        Number of clock readings (time slices), N >= 1.
    eps : float
        Time step per clock tick (hbar = 1).
    H : Operator
        System Hamiltonian; must be hermitian to 1e-12.
    psi0 : Ket
        Normalized initial system state.
    """

    N: int
    eps: float
    H: Operator
    psi0: Ket
    U: Operator = field(init=False, repr=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("need at least one clock level")
        if abs(np.linalg.norm(self.psi0.vec) - 1.0) > 1e-12:
            raise ValueError("initial state must be normalized to 1e-12")
        if len(self.H.mat) != len(self.psi0.vec):
            raise ValueError("H and psi0 live on different spaces")
        object.__setattr__(self, "U", unitary(self.H, self.eps))  # refuses a non-Hermitian H

    def evolved(self, t: int) -> Ket:
        """U^t |psi0> by numpy's repeated squaring (the conditioning checks' oracle)."""
        return Ket(np.linalg.matrix_power(self.U.mat, t) @ self.psi0.vec)


def history_state(cs: ClockSystem) -> Ket:
    """The flat-window history vector (1/sqrt(N)) sum_t |t> ⊗ U^t|psi0>."""
    d = len(cs.H.mat)
    vec = np.zeros(cs.N * d, dtype=complex)
    psi = cs.psi0.vec
    for t in range(cs.N):
        vec[t * d : (t + 1) * d] = psi
        psi = cs.U.mat @ psi
    return Ket(vec / np.sqrt(cs.N))


def conditioned_expectation(cs: ClockSystem, O: Operator, t: int) -> complex:
    """N * <Psi| (|t><t| ⊗ O) |Psi>, i.e. <psi(t)|O|psi(t)>.

    The factor N undoes the uniform 1/N clock weight, so the result is
    exactly the Schrödinger expectation at slice t.
    """
    if not 0 <= t < cs.N:
        raise ValueError(f"slice index {t} out of range [0, {cs.N})")
    d = len(cs.H.mat)
    psi_t = history_state(cs).vec[t * d : (t + 1) * d]
    return complex(cs.N * np.vdot(psi_t, O.mat @ psi_t))
