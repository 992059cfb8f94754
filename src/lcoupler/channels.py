"""Quantum channels on small computational spaces.

Superoperators use row-major vectorisation: vec(rho) = rho.reshape(-1), so a
Kraus set {K} becomes sum_K K (x) conj(K).  The Choi matrix follows the same
index convention, C[(i,k),(j,l)] = <k|Lambda(|i><j|)|l>, making complete
positivity a plain eigenvalue check.

Channels may carry a leakage record: for each computational basis input, the
probability that population ends up outside the computational subspace of the
underlying physical model.  The map itself stays trace preserving (leaked
population reappears as ground-state weight after the environment is traced
out); the record lets circuit-level consumers re-route it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass
class QuantumChannel:
    """A completely positive map given by its superoperator."""

    superoperator: np.ndarray
    dim: int
    leakage_in: np.ndarray | None = None
    label: str = ""

    @classmethod
    def from_kraus(cls, kraus: list[np.ndarray], label: str = "") -> "QuantumChannel":
        return cls(kraus_to_superop(kraus), kraus[0].shape[0], label=label)

    @classmethod
    def from_unitary(cls, u: np.ndarray, label: str = "") -> "QuantumChannel":
        return cls.from_kraus([np.asarray(u, dtype=complex)], label=label)

    @classmethod
    def identity(cls, dim: int) -> "QuantumChannel":
        return cls.from_unitary(np.eye(dim), label="identity")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.superoperator @ vec(rho))

    def compose(self, first: "QuantumChannel") -> "QuantumChannel":
        """Channel equal to self after ``first`` (self o first)."""
        if first.dim != self.dim:
            raise ValueError("channel dimensions differ")
        return QuantumChannel(
            self.superoperator @ first.superoperator,
            self.dim,
            label=f"{self.label}o{first.label}",
        )

    def tensor(self, other: "QuantumChannel") -> "QuantumChannel":
        d1, d2 = self.dim, other.dim
        s1 = self.superoperator.reshape(d1, d1, d1, d1)
        s2 = other.superoperator.reshape(d2, d2, d2, d2)
        d = d1 * d2
        s = np.einsum("aceg,bdfh->abcdefgh", s1, s2).reshape(d * d, d * d)
        return QuantumChannel(s, d, label=f"{self.label}(x){other.label}")

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

    def validate(self, cp_floor: float = -1e-8, tp_tol: float = 1e-6) -> "QuantumChannel":
        lam = self.choi_min_eigenvalue()
        if lam < cp_floor:
            raise ValueError(f"channel is not CP: Choi eigenvalue {lam:.3e}")
        deficit = self.trace_preservation_deficit()
        if deficit > tp_tol:
            raise ValueError(f"channel is not TP: deficit {deficit:.3e}")
        return self

    # -- fidelity ---------------------------------------------------------

    def process_fidelity(self, target_unitary: np.ndarray) -> float:
        s_u = np.kron(target_unitary, np.asarray(target_unitary).conj())
        d = self.dim
        return float(np.real(np.trace(s_u.conj().T @ self.superoperator)) / d**2)

    def average_gate_fidelity(self, target_unitary: np.ndarray) -> float:
        """Entanglement-fidelity route: F_avg = (d F_pro + 1) / (d + 1)."""
        d = self.dim
        return (d * self.process_fidelity(target_unitary) + 1.0) / (d + 1.0)

    def average_gate_fidelity_mc(
        self, target_unitary: np.ndarray, rng: np.random.Generator, n_states: int = 200
    ) -> float:
        """Monte-Carlo route: mean output fidelity over Haar-random pure
        states; agrees with the trace formula up to sampling error."""
        d = self.dim
        u = np.asarray(target_unitary)
        total = 0.0
        for _ in range(n_states):
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi /= np.linalg.norm(psi)
            out = self.apply(np.outer(psi, psi.conj()))
            ref = u @ psi
            total += float(np.real(ref.conj() @ out @ ref))
        return total / n_states


# -- analytic channels -----------------------------------------------------


def depolarizing_channel(lam: float, n_qubits: int = 1) -> QuantumChannel:
    """With probability lam the state is replaced by the maximally mixed one."""
    d = 2**n_qubits
    s = (1 - lam) * np.eye(d * d, dtype=complex)
    id_vec = vec(np.eye(d, dtype=complex)) / d
    # + lam * |vec(I/d)> <vec(I)| picks out the trace of the input
    trace_row = vec(np.eye(d, dtype=complex))
    s += lam * np.outer(id_vec, trace_row)
    return QuantumChannel(s, d, label=f"depol({lam})")


def amplitude_damping_channel(p: float) -> QuantumChannel:
    k0 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)
    return QuantumChannel.from_kraus([k0, k1], label=f"amp_damp({p})")


def dephasing_channel(p: float) -> QuantumChannel:
    """Coherences shrink by (1 - 2p): phase flip with probability p."""
    z = np.diag([1.0, -1.0]).astype(complex)
    k0 = math.sqrt(1 - p) * np.eye(2, dtype=complex)
    k1 = math.sqrt(p) * z
    return QuantumChannel.from_kraus([k0, k1], label=f"dephase({p})")


def excitation_pump_channel(prob: float) -> QuantumChannel:
    """With probability prob the qubit is reset to |1> regardless of input."""
    k0 = math.sqrt(1 - prob) * np.eye(2, dtype=complex)
    k1 = math.sqrt(prob) * np.array([[0, 0], [1, 0]], dtype=complex)
    k2 = math.sqrt(prob) * np.array([[0, 0], [0, 1]], dtype=complex)
    return QuantumChannel.from_kraus([k0, k1, k2], label=f"pump({prob})")


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
    label = "half_transfer" if half else "full_transfer"
    return QuantumChannel.from_unitary(ideal_transfer_unitary(half), label=label)


# -- acting on a subset of qubits --------------------------------------------


def apply_to_qubits(
    channel: QuantumChannel, rho: np.ndarray, qubits: tuple[int, ...], n_qubits: int
) -> np.ndarray:
    """Apply a channel to selected qubits of an n-qubit density matrix.

    Qubit 0 is the most significant index of the 2**n dimensional space.
    """
    k = len(qubits)
    if channel.dim != 2**k:
        raise ValueError("channel dimension does not match the qubit count")
    t = np.asarray(rho).reshape((2,) * (2 * n_qubits))
    row_axes = list(qubits)
    col_axes = [n_qubits + q for q in qubits]
    rest = [a for a in range(2 * n_qubits) if a not in row_axes + col_axes]
    perm = row_axes + col_axes + rest
    t = np.transpose(t, perm).reshape(4**k, -1)
    t = channel.superoperator @ t
    t = t.reshape([2] * (2 * k) + [2] * len(rest))
    t = np.transpose(t, np.argsort(perm))
    return t.reshape(2**n_qubits, 2**n_qubits)
