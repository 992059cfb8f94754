"""Quantum channels on small computational spaces.

Superoperators use row-major vectorisation: vec(rho) = rho.reshape(-1), so a
Kraus set {K} becomes sum_K K (x) conj(K).  The Choi matrix follows the same
index convention, C[(i,k),(j,l)] = <k|Lambda(|i><j|)|l>, making complete
positivity a plain eigenvalue check.

The executor works in the Pauli-transfer representation instead: an n-qubit
operator is the vector of its Pauli-string coefficients, one base-4 digit per
qubit (I, X, Y, Z) with the first qubit the most significant.  A density
matrix has the real vector (Tr(P rho))_P, and a channel the real matrix
R[P, Q] = Tr(P Lambda(Q)) / 2^n, whose entries lie in [-1, 1] for a CPTP map.

Channels may carry a leakage record: for each computational basis input, the
probability that population ends up outside the computational subspace of the
underlying physical model.  The map itself stays trace preserving (leaked
population reappears as ground-state weight after the environment is traced
out); the record lets circuit-level consumers re-route it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho).reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(math.sqrt(v.size)))
    return np.asarray(v).reshape(d, d)


def kraus_to_superop(kraus: list[np.ndarray]) -> np.ndarray:
    d = kraus[0].shape[0]
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus:
        s += np.kron(k, k.conj())
    return s


def superop_to_choi(superop: np.ndarray) -> np.ndarray:
    d = int(round(math.sqrt(superop.shape[0])))
    t = superop.reshape(d, d, d, d)  # [out_row, out_col, in_row, in_col]
    return t.transpose(2, 0, 3, 1).reshape(d * d, d * d)


def time_ordered_product(u: np.ndarray) -> np.ndarray:
    """u[-1] @ ... @ u[1] @ u[0] along the factor axis -3, multiplied
    pairwise: log2(n) batched products instead of one product per factor.

    Leading axes are a batch of equal-length sequences, shape (..., n, d, d)
    to (..., d, d); every sequence is paired as it would be alone, so each
    product is bit for bit the product of that sequence by itself.
    """
    while u.shape[-3] > 1:
        n = u.shape[-3]
        paired = u[..., 1::2, :, :] @ u[..., : n - n % 2 : 2, :, :]
        u = np.concatenate([paired, u[..., -1:, :, :]], axis=-3) if n % 2 else paired
    return u[..., 0, :, :]


@dataclass
class QuantumChannel:
    """A completely positive map given by its superoperator."""

    superoperator: np.ndarray
    dim: int
    leakage_in: np.ndarray | None = None

    @classmethod
    def from_kraus(cls, kraus: list[np.ndarray]) -> "QuantumChannel":
        return cls(kraus_to_superop(kraus), kraus[0].shape[0])

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "QuantumChannel":
        return cls.from_kraus([np.asarray(u, dtype=complex)])

    @classmethod
    def identity(cls, dim: int) -> "QuantumChannel":
        return cls.from_unitary(np.eye(dim))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.superoperator @ vec(rho))

    def compose(self, first: "QuantumChannel") -> "QuantumChannel":
        """Channel equal to self after ``first`` (self o first)."""
        if first.dim != self.dim:
            raise ValueError("channel dimensions differ")
        return QuantumChannel(self.superoperator @ first.superoperator, self.dim)

    def tensor(self, other: "QuantumChannel") -> "QuantumChannel":
        d1, d2 = self.dim, other.dim
        s1 = self.superoperator.reshape(d1, d1, d1, d1)
        s2 = other.superoperator.reshape(d2, d2, d2, d2)
        d = d1 * d2
        s = np.einsum("aceg,bdfh->abcdefgh", s1, s2).reshape(d * d, d * d)
        return QuantumChannel(s, d)

    def choi(self) -> np.ndarray:
        return superop_to_choi(self.superoperator)

    def choi_min_eigenvalue(self) -> float:
        c = self.choi()
        return float(np.min(np.linalg.eigvalsh(0.5 * (c + c.conj().T))))

    def trace_preservation_deficit(self) -> float:
        """Max |1 - Tr Lambda(|i><j|)_diag| style check via the Choi partial
        trace: zero for a trace-preserving map."""
        d = self.dim
        c = self.choi().reshape(d, d, d, d)  # [i,k,j,l]
        reduced = np.einsum("ikjk->ij", c)
        return float(np.max(np.abs(reduced - np.eye(d))))

    def validate(self, tp_tol: float = 1e-6) -> "QuantumChannel":
        """No Choi eigenvalue below -1e-8, no TP deficit above tp_tol."""
        lam = self.choi_min_eigenvalue()
        if lam < -1e-8:
            raise ValueError(f"channel is not CP: Choi eigenvalue {lam:.3e}")
        deficit = self.trace_preservation_deficit()
        if deficit > tp_tol:
            raise ValueError(f"channel is not TP: deficit {deficit:.3e}")
        return self

    # -- fidelity ---------------------------------------------------------

    def average_gate_fidelity(self, target_unitary: np.ndarray) -> float:
        """Entanglement-fidelity route: F_avg = (d F_pro + 1) / (d + 1), with
        the process fidelity F_pro = Tr(S_U^dagger S) / d^2."""
        d = self.dim
        s_u = np.kron(target_unitary, np.asarray(target_unitary).conj())
        f_pro = float(np.real(np.trace(s_u.conj().T @ self.superoperator)) / d**2)
        return (d * f_pro + 1.0) / (d + 1.0)


# -- analytic channels -----------------------------------------------------


def depolarizing_channel(lam: float, n_qubits: int = 1) -> QuantumChannel:
    """With probability lam the state is replaced by the maximally mixed one."""
    d = 2**n_qubits
    s = (1 - lam) * np.eye(d * d, dtype=complex)
    id_vec = vec(np.eye(d, dtype=complex)) / d
    # + lam * |vec(I/d)> <vec(I)| picks out the trace of the input
    trace_row = vec(np.eye(d, dtype=complex))
    s += lam * np.outer(id_vec, trace_row)
    return QuantumChannel(s, d)


def amplitude_damping_channel(p: float) -> QuantumChannel:
    k0 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)
    return QuantumChannel.from_kraus([k0, k1])


def dephasing_channel(p: float) -> QuantumChannel:
    """Coherences shrink by (1 - 2p): phase flip with probability p."""
    z = np.diag([1.0, -1.0]).astype(complex)
    k0 = math.sqrt(1 - p) * np.eye(2, dtype=complex)
    k1 = math.sqrt(p) * z
    return QuantumChannel.from_kraus([k0, k1])


def excitation_pump_channel(prob: float) -> QuantumChannel:
    """With probability prob the qubit is reset to |1> regardless of input."""
    k0 = math.sqrt(1 - prob) * np.eye(2, dtype=complex)
    k1 = math.sqrt(prob) * np.array([[0, 0], [1, 0]], dtype=complex)
    k2 = math.sqrt(prob) * np.array([[0, 0], [0, 1]], dtype=complex)
    return QuantumChannel.from_kraus([k0, k1, k2])


def ideal_transfer_unitary(half: bool = False) -> np.ndarray:
    """Two-qubit (emitter, receiver) unitary of a lossless dark-passage
    transfer.

    The full transfer swaps the qubits and flips the sign of each transferred
    single-excitation amplitude: |10> -> -|01>, |01> -> -|10>.  This is the
    protocol reference: in compiled circuits the receiver always starts in
    |0>, so only the emitter column is ever exercised per direction.  The
    half transfer is the one-direction rotation that stops the sweep at 45
    degrees, |10> -> (|10> - |01>)/sqrt(2); its square agrees with the full
    transfer on the emitter column but not on the time-reversed one.
    """
    u = np.eye(4, dtype=complex)
    if half:
        c = s = 1 / math.sqrt(2)
        u[1, 1], u[1, 2], u[2, 1], u[2, 2] = c, -s, s, c  # basis order 00,01,10,11
    else:
        u[1, 1] = u[2, 2] = 0.0
        u[1, 2] = u[2, 1] = -1.0
    return u


def ideal_transfer_channel(half: bool = False) -> QuantumChannel:
    return QuantumChannel.from_unitary(ideal_transfer_unitary(half))


# -- Pauli-transfer representation -------------------------------------------

_PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
# row P is vec(P^T), so _PAULI_CHANGE @ vec(rho) = (Tr(P rho))_P on one qubit;
# _PAULI_CHANGE^dagger / 2 undoes it
_PAULI_CHANGE = np.array([p.T.reshape(4) for p in _PAULIS], dtype=complex)
# a qubit's populations from its coefficients: (I + Z) / 2 and (I - Z) / 2
_POPULATIONS = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0]]) / 2


def _interleaved(n: int) -> list[int]:
    """Axes (r1, c1, r2, c2, ...) of an operator reshaped to (r1..rn, c1..cn)."""
    return [a for q in range(n) for a in (q, n + q)]


def _per_qubit(t: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """Contract the one-qubit matrix m into each of the first n axes of t."""
    for axis in range(n):
        t = np.moveaxis(np.tensordot(m, t, axes=(1, axis)), 0, axis)
    return t


def to_pauli(rho: np.ndarray) -> np.ndarray:
    """Real Pauli vector (Tr(P rho))_P of a Hermitian n-qubit operator."""
    rho = np.asarray(rho)
    n = round(math.log2(rho.shape[0]))
    t = rho.reshape((2,) * (2 * n)).transpose(_interleaved(n)).reshape((4,) * n)
    return _per_qubit(t, _PAULI_CHANGE, n).real.reshape(-1)


def from_pauli(v: np.ndarray) -> np.ndarray:
    """The operator sum_P v_P P / 2^n of a Pauli vector."""
    v = np.asarray(v)
    n = round(math.log(v.size, 4))
    t = _per_qubit(v.reshape((4,) * n), _PAULI_CHANGE.conj().T / 2, n)
    t = t.reshape((2,) * (2 * n)).transpose(np.argsort(_interleaved(n)))
    return t.reshape(2**n, 2**n)


def pauli_populations(vectors: np.ndarray) -> np.ndarray:
    """diag(rho) of Pauli vectors: columns (4^n, ...) to columns (2^n, ...)."""
    n = round(math.log(vectors.shape[0], 4))
    t = _per_qubit(vectors.reshape((4,) * n + vectors.shape[1:]), _POPULATIONS, n)
    return t.reshape((2**n,) + vectors.shape[1:])


def pauli_transfer_matrix(superop: np.ndarray) -> np.ndarray:
    """R[P, Q] = Tr(P Lambda(Q)) / 2^n of an n-qubit superoperator.

    Complex-typed; real up to rounding when the map preserves Hermiticity.
    """
    superop = np.asarray(superop)
    n = round(math.log(superop.shape[0], 4))
    axes = _interleaved(n)
    s = superop.reshape((2,) * (4 * n)).transpose(axes + [2 * n + a for a in axes])
    change = reduce(np.kron, [_PAULI_CHANGE] * n)
    return change @ s.reshape(4**n, 4**n) @ change.conj().T / 2**n
