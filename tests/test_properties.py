"""Property tests: each shared definition against an oracle built apart from it.

- ``apply_to_qubits`` against a dense embedding made of a basis permutation
  and a Kronecker product with the identity.
- Two-qubit Clifford inversion: a random sequence times its inverse is the
  identity up to phase, on the abstract matrices and on the compiled device
  circuits (local CNOTs, transfers and all).
- ``op_matrix`` of every transfer op against ``ideal_transfer_unitary``, with
  the emitter-first qubit order undone by reshaping, not by a matrix.
- The circuit executor's compiled segment superoperators against an op by op
  reference: the embedded unitary, then ``apply_to_qubits`` for the op's
  depolarizing or transfer channel, then each bystander's idle channel.
- The protocols' readout ``_ground`` against a marginal taken by reshaping
  the outcome distribution to one axis per qubit and summing the rest.
"""
import math

from functools import reduce

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcoupler.benchmarking import NoiseModel, _CircuitRunner, _ground
from lcoupler.channels import (
    QuantumChannel,
    amplitude_damping_channel,
    apply_to_qubits,
    dephasing_channel,
    depolarizing_channel,
    ideal_transfer_unitary,
)
from lcoupler.cliffords import (
    L_QUBIT_PAIR,
    QUBIT_ORDER,
    TWO_QUBIT_GROUP_ORDER,
    GateKind,
    cz_op,
    data_block_unitary,
    embed_unitary,
    half_transfer_op,
    invert_sequence,
    op_matrix,
    single_qubit_cliffords,
    sq_rot,
    transfer_op,
    two_qubit_clifford,
    virtual_z,
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


# -- the circuit executor ----------------------------------------------------


def _random_channel(gen, d, n_kraus=3):
    """A random CPTP map: Kraus operators normalised by (sum K^dag K)^(-1/2)."""
    kraus = [_random_matrix(gen, d) for _ in range(n_kraus)]
    w, v = np.linalg.eigh(sum(k.conj().T @ k for k in kraus))
    inv_sqrt = v @ np.diag(w**-0.5) @ v.conj().T
    return QuantumChannel.from_kraus([k @ inv_sqrt for k in kraus])


def _random_state(gen, n):
    a = _random_matrix(gen, 2**n)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _idle_channel(noise, qubit, duration_s):
    channel = amplitude_damping_channel(1.0 - math.exp(-duration_s / noise.qubit_t1_s[qubit]))
    tphi = noise.qubit_tphi_s.get(qubit, math.inf)
    if math.isfinite(tphi):
        channel = dephasing_channel(0.5 * (1.0 - math.exp(-duration_s / tphi))).compose(channel)
    return channel


def _reference_run(noise, order, rho, ops):
    """Op by op on the density matrix, one qubit subset at a time."""
    n = len(order)
    for op in ops:
        positions = tuple(order.index(q) for q in op.targets)
        if op.kind is GateKind.TRANSFER:
            table = noise.half_transfer_channels if op.params.get("half") else noise.transfer_channels
            rho = apply_to_qubits(table[op.params["direction"]], rho, positions, n)
        else:
            u = embed_unitary(op_matrix(op), positions, n)
            rho = u @ rho @ u.conj().T
            lam = 0.0
            if op.kind is GateKind.SQ_ROT:
                lam = noise.sq_depolarizing.get(op.targets[0], 0.0)
            elif op.kind is GateKind.CZ:
                lam = noise.cz_depolarizing.get(frozenset(op.targets), 0.0)
            if lam > 0.0:
                rho = apply_to_qubits(depolarizing_channel(lam, len(op.targets)), rho, positions, n)
        if noise.idle_decoherence and op.duration_s > 0:
            for q in order:
                if q not in op.targets and q in noise.qubit_t1_s:
                    idle = _idle_channel(noise, q, op.duration_s)
                    rho = apply_to_qubits(idle, rho, (order.index(q),), n)
    return rho


def _device_noise(seed, idle):
    """The default config's gate and idle noise, with random CPTP transfer
    channels so that the pair's qubit order matters."""
    gen = np.random.default_rng(seed)
    directions = ("L1->L2", "L2->L1")
    noise = NoiseModel.from_config(
        load_config(),
        transfer_channels={d: _random_channel(gen, 4) for d in directions},
        half_transfer_channels={d: _random_channel(gen, 4) for d in directions},
    )
    noise.idle_decoherence = idle
    return noise


_ANGLES = st.sampled_from([np.pi / 2, -np.pi / 2, np.pi]) | st.floats(-4.0, 4.0)
_QUBITS = st.sampled_from(QUBIT_ORDER)
_DIRECTIONS = st.sampled_from(["L1->L2", "L2->L1"])
_OPS = st.one_of(
    st.builds(sq_rot, _QUBITS, st.sampled_from("xyz"), _ANGLES, st.just(35e-9)),
    st.builds(virtual_z, _QUBITS, _ANGLES),
    # local_cnot emits the (L1, D1) order as well as (D1, L1)
    st.sampled_from(
        [cz_op("D1", "L1", 135e-9), cz_op("L1", "D1", 135e-9), cz_op("L2", "D2", 100e-9)]
    ),
    st.builds(transfer_op, _DIRECTIONS, st.just(206e-9)),
    st.builds(half_transfer_op, _DIRECTIONS, st.just(206e-9)),
)


_SEGMENTS = st.lists(_OPS, min_size=1, max_size=4).map(tuple)


@PROPERTY_SETTINGS
@given(
    segments=st.lists(_SEGMENTS, min_size=1, max_size=6),
    idle=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_runner_matches_op_by_op_reference(segments, idle, seed):
    noise = _device_noise(seed, idle)
    rho = _random_state(np.random.default_rng(seed), len(QUBIT_ORDER))
    runner = _CircuitRunner(noise, QUBIT_ORDER)
    ops = [op for segment in segments for op in segment]
    # twice through one runner: the second pass runs the cached segments, and
    # the same ops as one-op segments reuse the cached ops
    got = runner.run(runner.run(rho, segments), segments)
    expected = _reference_run(noise, QUBIT_ORDER, _reference_run(noise, QUBIT_ORDER, rho, ops), ops)
    assert np.max(np.abs(got - expected)) < 1e-12
    one_op = runner.run(rho, [(op,) for op in ops])
    assert np.max(np.abs(one_op - _reference_run(noise, QUBIT_ORDER, rho, ops))) < 1e-12


def test_nb_element_op_by_op_equals_lumped_noise():
    """Depolarizing commutes with the element's pulses and idle channels
    compose over time, so running an element's decomposition equals one
    unitary, the compounded depolarizing and one idle for the whole element."""
    noise = _device_noise(0, idle=True)
    runner = _CircuitRunner(noise, L_QUBIT_PAIR)
    rho = _random_state(np.random.default_rng(1), 2)
    for carrier, bystander in (L_QUBIT_PAIR, L_QUBIT_PAIR[::-1]):
        pos = L_QUBIT_PAIR.index(carrier)
        for elem in single_qubit_cliffords(carrier):
            pulses = sum(op.kind is GateKind.SQ_ROT for op in elem.decomposition)
            u = embed_unitary(elem.unitary, (pos,), 2)
            lumped = u @ rho @ u.conj().T
            lam = 1.0 - (1.0 - noise.sq_depolarizing[carrier]) ** pulses
            lumped = apply_to_qubits(depolarizing_channel(lam), lumped, (pos,), 2)
            duration = sum(op.duration_s for op in elem.decomposition)
            if duration > 0:
                idle = _idle_channel(noise, bystander, duration)
                lumped = apply_to_qubits(idle, lumped, (1 - pos,), 2)
            got = runner.run(rho, elem.segments)
            assert np.max(np.abs(got - lumped)) < 1e-12, (carrier, elem.index)


@st.composite
def registers_and_subsets(draw):
    order = draw(st.sampled_from([L_QUBIT_PAIR, QUBIT_ORDER]))
    qubits = draw(st.lists(st.sampled_from(order), min_size=1, unique=True))
    return order, tuple(qubits)


@PROPERTY_SETTINGS
@given(register=registers_and_subsets(), seed=st.integers(0, 2**32 - 1))
def test_ground_matches_reshaped_marginal(register, seed):
    order, qubits = register
    n = len(order)
    measured = np.random.default_rng(seed).dirichlet(np.ones(2**n))
    # axis k of the reshaped distribution is the outcome of order[k]
    kept = [order.index(q) for q in qubits]
    marginal = measured.reshape((2,) * n).sum(axis=tuple(k for k in range(n) if k not in kept))
    assert abs(_ground(measured, order, qubits) - marginal.flat[0]) < 1e-12
