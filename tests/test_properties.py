"""Property tests: each shared definition against an oracle built apart from it.

- ``apply_to_qubits`` against a dense embedding made of a basis permutation
  and a Kronecker product with the identity.
- Two-qubit Clifford inversion: a random sequence times its inverse is the
  identity up to phase, on the abstract matrices and on the compiled device
  circuits (local CNOTs, transfers and all).
- ``op_matrix`` of every transfer op against ``ideal_transfer_unitary``, with
  the emitter-first qubit order undone by reshaping, not by a matrix.
"""

from functools import reduce

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcoupler.channels import QuantumChannel, apply_to_qubits, ideal_transfer_unitary
from lcoupler.cliffords import (
    TWO_QUBIT_GROUP_ORDER,
    data_block_unitary,
    half_transfer_op,
    invert_sequence,
    op_matrix,
    transfer_op,
    two_qubit_clifford,
)
from lcoupler.config import load_config

PROPERTY_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _random_matrix(gen, d):
    return gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))


def _phase_distance(candidate, target):
    lam = np.vdot(target.flatten(), candidate.flatten())
    return float(np.max(np.abs(candidate - lam / abs(lam) * target)))


def _dense_embedding(op, qubits, n):
    """``op`` on the listed qubits (in that order) of an n-qubit register,
    qubit 0 the most significant bit."""
    order = list(qubits) + [q for q in range(n) if q not in qubits]
    perm = np.zeros((2**n, 2**n))
    for x in range(2**n):
        bits = [(x >> (n - 1 - q)) & 1 for q in order]
        perm[int("".join(map(str, bits)), 2), x] = 1.0
    return perm.T @ np.kron(op, np.eye(2 ** (n - len(qubits)))) @ perm


@st.composite
def qubit_subsets(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(n, 2)))
    qubits = draw(st.permutations(range(n)))[:k]
    return tuple(qubits), n


@PROPERTY_SETTINGS
@given(subset=qubit_subsets(), seed=st.integers(0, 2**32 - 1))
def test_apply_to_qubits_matches_dense_embedding(subset, seed):
    qubits, n = subset
    gen = np.random.default_rng(seed)
    kraus = [_random_matrix(gen, 2 ** len(qubits)) for _ in range(2)]
    rho = _random_matrix(gen, 2**n)
    got = apply_to_qubits(QuantumChannel.from_kraus(kraus), rho, qubits, n)
    expected = sum(
        e @ rho @ e.conj().T for e in (_dense_embedding(k, qubits, n) for k in kraus)
    )
    assert np.allclose(got, expected, atol=1e-10)


@PROPERTY_SETTINGS
@given(indices=st.lists(st.integers(0, TWO_QUBIT_GROUP_ORDER - 1), min_size=1, max_size=4))
def test_clifford_sequence_times_its_inverse_is_identity(indices):
    cfg = load_config()
    seq = [two_qubit_clifford(i, cfg) for i in indices]
    inverse = invert_sequence(seq, cfg)
    product = reduce(lambda acc, e: e.unitary @ acc, seq, np.eye(4, dtype=complex))
    assert _phase_distance(inverse.unitary @ product, np.eye(4)) < 1e-9
    ops = [op for e in [*seq, inverse] for op in e.decomposition]
    assert _phase_distance(data_block_unitary(ops), np.eye(4)) < 1e-9


@PROPERTY_SETTINGS
@given(
    half=st.booleans(),
    direction=st.sampled_from(["L1->L2", "L2->L1"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_transfer_op_matrix_is_the_ideal_transfer(half, direction, seed):
    op = (half_transfer_op if half else transfer_op)(direction, 206e-9)
    gen = np.random.default_rng(seed)
    psi = gen.normal(size=4) + 1j * gen.normal(size=4)  # amplitudes over (L1, L2)
    emitter_first = psi.reshape(2, 2)
    if direction == "L2->L1":
        emitter_first = emitter_first.T
    out = (ideal_transfer_unitary(half) @ emitter_first.reshape(4)).reshape(2, 2)
    if direction == "L2->L1":
        out = out.T
    assert np.allclose(op_matrix(op) @ psi, out.reshape(4), atol=1e-12)
