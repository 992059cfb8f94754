"""Computational-basis oracles the tests check the program against.

The circuit executor works on Pauli vectors; these act on the density matrix
itself, one channel on one qubit subset at a time, and average a channel's
output fidelity over random pure states.
"""

import numpy as np

from lcoupler.channels import QuantumChannel


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


def average_gate_fidelity_mc(
    channel: QuantumChannel,
    target_unitary: np.ndarray,
    rng: np.random.Generator,
    n_states: int = 200,
) -> float:
    """Monte-Carlo route: mean output fidelity over Haar-random pure states;
    agrees with QuantumChannel.average_gate_fidelity up to sampling error."""
    d = channel.dim
    u = np.asarray(target_unitary)
    total = 0.0
    for _ in range(n_states):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        out = channel.apply(np.outer(psi, psi.conj()))
        ref = u @ psi
        total += float(np.real(ref.conj() @ out @ ref))
    return total / n_states
