"""Property tests: each shared definition against an oracle built apart from it.

- ``apply_to_qubits`` against a dense embedding made of a basis permutation
  and a Kronecker product with the identity.
- Two-qubit Clifford inversion: a random sequence times its inverse is the
  identity up to phase, on the abstract matrices and on the compiled device
  circuits (local CNOTs, transfers and all).
- A stack of sequences inverted in one call against each sequence inverted
  alone, and its time-ordered products against each product taken alone.
- ``op_matrix`` of every transfer op against ``ideal_transfer_unitary``, with
  the emitter-first qubit order undone by reshaping, not by a matrix.
- ``circuit_unitary``'s tensor contractions against the product of each
  op's matrix embedded by Kronecker product (``oracles.embed_unitary``), on
  every order of the register.
- The circuit executor's compiled segment superoperators against an op by op
  reference: the embedded unitary, then ``apply_to_qubits`` for the op's
  depolarizing or transfer channel, then each bystander's idle channel.
- Each compiled op against P (R_1 (x) ... (x) R_k) P^T: its blocks'
  Pauli-transfer matrices by np.kron, P an explicit permutation matrix.
- Batches of circuits run in lockstep against each circuit run alone and
  against the op by op reference, batches with holes, ragged and empty
  circuits and more positions than one sort block against each circuit's
  segment products taken one at a time, and a protocol's records against
  the same records drawn in a different batch.
- The Pauli basis: the round trip of a density matrix, the Pauli-transfer
  matrix of a random channel against Tr(P Lambda(Q)) / d, populations against
  diag(rho), and Clifford pulses and CZs as signed permutations.
- The protocols' readout ``_ground`` against a marginal taken by reshaping
  the outcome distribution to one axis per qubit and summing the rest, and
  on a stack of distributions against each distribution read alone;
  ``spam_apply`` on a stack against each row sampled alone, on the same
  generator.
- Single-qubit phase keys of a stack of matrices against each matrix's key
  computed alone.
- Tomography: a prepared pair's state against the partial trace of the
  register's density matrix, for every ordered pair, and the exact-limit
  reconstruction against settings measured by rotating each axis onto Z,
  and the nine settings measured as one stack against each setting
  measured on its own, exact and sampled, bit for bit.
"""
import dataclasses
import itertools
import math

from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcoupler.benchmarking import (
    _EVOLVE_BLOCK,
    PAULI_RESIDUE,
    NoiseModel,
    SpamModel,
    _CircuitRunner,
    _ground,
    _pauli_transfer,
    run_two_qubit_rb,
    spam_apply,
)
from lcoupler.channels import (
    QuantumChannel,
    amplitude_damping_channel,
    dephasing_channel,
    depolarizing_channel,
    from_pauli,
    ideal_transfer_unitary,
    pauli_populations,
    pauli_transfer_matrix,
    time_ordered_product,
    to_pauli,
)
from lcoupler.cliffords import (
    CZ_PAIRS,
    L_QUBIT_PAIR,
    QUBIT_ORDER,
    TWO_QUBIT_GROUP_ORDER,
    GateKind,
    Segment,
    _phase_keys,
    _single_qubit_table,
    _two_qubit_matrices,
    circuit_unitary,
    compile_remote_cnot,
    cz_op,
    data_block_unitary,
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
from lcoupler.rng import RngHandle
from lcoupler.tomography import project_to_state, simulate_prep, tomography_of_state

from oracles import (
    apply_to_qubits,
    embed_unitary,
    linear_inversion,
    pair_marginal,
    tomography_per_setting,
)

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
    two_qubit=st.booleans(),
    interleaved=st.booleans(),
    k=st.integers(1, 6),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_inverses_match_each_sequence_alone(two_qubit, interleaved, k, n, seed):
    """k sequences of n random elements, each followed by a fixed element
    when interleaved: the remote CNOT's data-block matrix on two qubits, one
    fixed single-qubit Clifford on one."""
    cfg = load_config()
    gen = np.random.default_rng(seed)
    if two_qubit:
        stack = _two_qubit_matrices(gen.integers(TWO_QUBIT_GROUP_ORDER, size=(k, n)))
        fixed = data_block_unitary(compile_remote_cnot(cfg=cfg))
    else:
        mats = np.array([e.unitary for e in single_qubit_cliffords()])
        stack, fixed = mats[gen.integers(24, size=(k, n))], mats[13]
    if interleaved:
        stack = np.stack([stack, np.broadcast_to(fixed, stack.shape)], 2)
        stack = stack.reshape(k, -1, *fixed.shape)
    alone = [invert_sequence(sequence, cfg).index for sequence in stack]
    assert invert_sequence(stack, cfg).index.tolist() == alone
    assert np.array_equal(
        time_ordered_product(stack), np.array([time_ordered_product(s) for s in stack])
    )
    with pytest.raises(ValueError, match="empty"):
        invert_sequence(stack[:, :0], cfg)


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
    channel = QuantumChannel.identity(2)
    if qubit in noise.qubit_t1_s:
        t1 = noise.qubit_t1_s[qubit]
        channel = amplitude_damping_channel(1.0 - math.exp(-duration_s / t1))
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
                if q not in op.targets:
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
    )
    half = {d: _random_channel(gen, 4) for d in directions}
    noise = dataclasses.replace(noise, half_transfer_channels=half)
    return noise if idle else dataclasses.replace(noise, qubit_t1_s={}, qubit_tphi_s={})


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


_SEGMENTS = st.lists(_OPS, min_size=1, max_size=4).map(Segment)


@PROPERTY_SETTINGS
@given(ops=st.lists(_OPS, max_size=8), order=st.permutations(QUBIT_ORDER))
def test_circuit_unitary_is_the_product_of_embedded_ops(ops, order):
    order = tuple(order)
    want = np.eye(16, dtype=complex)
    for op in ops:
        want = embed_unitary(op_matrix(op), [order.index(q) for q in op.targets], 4) @ want
    assert np.max(np.abs(circuit_unitary(ops, order) - want)) < 1e-12


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
    one_op = runner.run(rho, [Segment((op,)) for op in ops])
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
def unequal_batches(draw):
    """Circuits of unequal lengths over a small pool of segments, so that
    columns often run the same segment at the same position."""
    pool = draw(st.lists(_SEGMENTS, min_size=1, max_size=3))
    picks = st.lists(st.integers(0, len(pool) - 1), max_size=5)
    circuits = draw(
        st.lists(picks, min_size=2, max_size=4).filter(lambda c: len({len(x) for x in c}) > 1)
    )
    return [[pool[i] for i in circuit] for circuit in circuits]


@PROPERTY_SETTINGS
@given(circuits=unequal_batches(), idle=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_batch_runs_each_circuit_as_alone(circuits, idle, seed):
    noise = _device_noise(seed, idle)
    rho = _random_state(np.random.default_rng(seed), len(QUBIT_ORDER))
    runner = _CircuitRunner(noise, QUBIT_ORDER)
    batch = runner.evolve(rho, [runner.encode(c) for c in circuits])
    for column, circuit in zip(batch.T, circuits):
        alone = runner.evolve(rho, [runner.encode(circuit)])[:, 0]
        assert np.array_equal(column, alone)
        ops = [op for segment in circuit for op in segment]
        expected = _reference_run(noise, QUBIT_ORDER, rho, ops)
        assert np.max(np.abs(from_pauli(column) - expected)) < 1e-12


@st.composite
def holed_batches(draw):
    """Distinct segments and a batch of code arrays over them that holds
    interior holes (-1), ragged and zero-length circuits, a circuit longer
    than one sort block, and one position where every circuit that reaches
    it runs the same code."""
    segments = draw(st.lists(_SEGMENTS, min_size=1, max_size=4, unique_by=lambda s: s.key))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    longest = draw(st.integers(_EVOLVE_BLOCK + 1, 2 * _EVOLVE_BLOCK + 8))
    lengths = [0, longest, *draw(st.lists(st.integers(0, longest), min_size=1, max_size=8))]
    holes = draw(st.floats(0.05, 0.5))
    circuits = [
        np.where(gen.random(n) < holes, -1, gen.integers(len(segments), size=n)).astype(np.int32)
        for n in lengths
    ]
    crowded, code = draw(st.integers(0, longest - 1)), draw(st.integers(0, len(segments) - 1))
    for circuit in circuits:
        circuit[crowded : crowded + 1] = code
    hole = draw(st.integers(0, longest - 2).filter(lambda h: h != crowded))
    circuits[1][hole], circuits[1][-1] = -1, code  # an interior hole
    return segments, [circuits[i] for i in gen.permutation(len(circuits))]


@PROPERTY_SETTINGS
@given(batch=holed_batches(), idle=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_batch_with_holes_runs_each_circuit_segment_by_segment(batch, idle, seed):
    segments, circuits = batch
    rho = _random_state(np.random.default_rng(seed), len(QUBIT_ORDER))
    runner = _CircuitRunner(_device_noise(seed, idle), QUBIT_ORDER)
    assert runner.encode(segments).tolist() == list(range(len(segments)))
    states = runner.evolve(rho, circuits)
    assert states.shape == (4 ** len(QUBIT_ORDER), len(circuits))
    for column, circuit in zip(states.T, circuits):
        alone = to_pauli(rho)
        for code in circuit[circuit >= 0]:
            alone = runner._segments[code] @ alone
        assert np.array_equal(column, alone)
    assert runner.evolve(rho, []).shape == (4 ** len(QUBIT_ORDER), 0)


def test_evolve_rejects_codes_outside_the_compiled_segments():
    runner = _CircuitRunner(NoiseModel.ideal(), L_QUBIT_PAIR)
    runner.encode([Segment((virtual_z(q, 0.5),)) for q in L_QUBIT_PAIR])
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert runner.evolve(rho, [[-1, 0, 1], []]).shape == (16, 2)
    for code in (-2, 2, 2**32):  # 2**32 would wrap to 0 as an int32
        with pytest.raises(ValueError, match="segment codes"):
            runner.evolve(rho, [np.array([0, 1]), np.array([1, code, 0], dtype=np.int64)])


def _analytic_transfer(gen, direction, half):
    """The ideal (half) transfer of ``direction``, then amplitude damping of
    random strength on the receiver."""
    damping, ident = amplitude_damping_channel(gen.uniform(0.0, 0.1)), QuantumChannel.identity(2)
    receiver = direction.split("->")[1]
    on_receiver = damping.tensor(ident) if receiver == "L1" else ident.tensor(damping)
    op = (half_transfer_op if half else transfer_op)(direction, 0.0)
    return on_receiver.compose(QuantumChannel.from_unitary(op_matrix(op)))


def _random_device_noise(gen, idle):
    """Random pulse and CZ depolarizing, T1 (with idle) and T_phi on every
    qubit, and analytic transfer channels."""
    directions = ("L1->L2", "L2->L1")
    noise = NoiseModel(
        transfer_channels={d: _analytic_transfer(gen, d, False) for d in directions},
        half_transfer_channels={d: _analytic_transfer(gen, d, True) for d in directions},
        sq_depolarizing={q: gen.uniform(0.0, 0.02) for q in QUBIT_ORDER},
        cz_depolarizing={pair: gen.uniform(0.0, 0.05) for pair in CZ_PAIRS},
        qubit_t1_s={q: gen.uniform(5e-6, 200e-6) for q in QUBIT_ORDER},
        qubit_tphi_s={
            q: math.inf if gen.random() < 0.25 else gen.uniform(5e-6, 400e-6) for q in QUBIT_ORDER
        },
    )
    if not idle:  # empty T1 and T_phi tables turn idle noise off
        noise = dataclasses.replace(noise, qubit_t1_s={}, qubit_tphi_s={})
    return noise


def _ops_of_every_kind(order, gen):
    """Pulses (one a Clifford), a virtual Z, every CZ on the register in
    both target orders, and full and half transfers both ways."""
    a, b, c = (str(q) for q in gen.choice(order, size=3))
    ops = [
        sq_rot(a, str(gen.choice(list("xyz"))), gen.uniform(-4.0, 4.0), 35e-9),
        sq_rot(b, str(gen.choice(list("xy"))), np.pi / 2, 35e-9),
        virtual_z(c, gen.uniform(-4.0, 4.0)),
    ]
    for pair in map(sorted, CZ_PAIRS):
        if set(pair) <= set(order):
            ops += [cz_op(*pair, 135e-9), cz_op(*pair[::-1], 135e-9)]
    for direction in ("L1->L2", "L2->L1"):
        ops += [transfer_op(direction, 206e-9), half_transfer_op(direction, 206e-9)]
    return ops


def _kronecker_oracle(runner, op):
    """P (R_1 (x) ... (x) R_k) P^T: the op's Pauli-transfer matrix on its
    targets, then each bystander's idle one in register order, by np.kron;
    P takes the Kronecker product's index (one base-4 digit per block qubit)
    to the register's."""
    bystanders = [q for q in runner.order if q not in op.targets]
    factors = [_pauli_transfer(runner._target_superop(op))]
    factors += [_pauli_transfer(runner._idle_superop(q, op.duration_s)) for q in bystanders]
    qubits, n = [*op.targets, *bystanders], len(runner.order)
    perm = np.zeros((4**n, 4**n))
    for index in range(4**n):
        digits = [(index >> 2 * (n - 1 - k)) & 3 for k in range(n)]
        register = sum(d << 2 * (n - 1 - runner.order.index(q)) for d, q in zip(digits, qubits))
        perm[register, index] = 1.0
    return perm @ reduce(np.kron, factors) @ perm.T


@PROPERTY_SETTINGS
@given(
    order=st.sampled_from([QUBIT_ORDER, L_QUBIT_PAIR]),
    idle=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_op_is_the_permuted_kronecker_product(order, idle, seed):
    gen = np.random.default_rng(seed)
    runner = _CircuitRunner(_random_device_noise(gen, idle), order)
    ops = _ops_of_every_kind(order, gen)
    assert {op.kind for op in ops} >= set(GateKind) - ({GateKind.CZ} if len(order) == 2 else set())
    for op in ops:
        matrix = runner._compiled_op(op)
        assert np.array_equal(matrix.toarray(), _kronecker_oracle(runner, op)), op
        assert np.all(np.abs(matrix.data) > PAULI_RESIDUE), op


def test_rb_records_do_not_depend_on_the_batch():
    noise, spam = _device_noise(3, idle=True), SpamModel.from_config(load_config())
    common = dict(noise=noise, spam=spam, shots=200, rng=RngHandle(seed=4))
    wide = run_two_qubit_rb(lengths=(1, 4), seeds_per_length=2, **common).records
    narrow = run_two_qubit_rb(lengths=(4,), seeds_per_length=3, **common).records
    assert [r for r in wide if r.length == 4] == narrow[:2]
    assert [(r.length, r.seed) for r in narrow[:2]] == [(4, 0), (4, 1)]


# -- the Pauli basis ---------------------------------------------------------


def _pauli_string(index, n):
    """The Pauli string with base-4 digits (I, X, Y, Z), first qubit first."""
    x, y, z = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])
    singles = (np.eye(2), x, y, z)
    digits = [(index >> 2 * (n - 1 - q)) & 3 for q in range(n)]
    return reduce(np.kron, [singles[d] for d in digits])


@PROPERTY_SETTINGS
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_density_matrix_survives_the_pauli_round_trip(n, seed):
    rho = _random_state(np.random.default_rng(seed), n)
    v = to_pauli(rho)
    assert v.dtype == float
    expected = [np.trace(_pauli_string(i, n) @ rho).real for i in range(4**n)]
    assert np.max(np.abs(v - expected)) < 1e-14
    assert np.max(np.abs(from_pauli(v) - rho)) < 1e-15
    assert np.max(np.abs(pauli_populations(v) - np.diag(rho).real)) < 1e-15


@PROPERTY_SETTINGS
@given(n=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_pauli_transfer_matrix_of_a_channel_is_real(n, seed):
    channel = _random_channel(np.random.default_rng(seed), 2**n)
    ptm = pauli_transfer_matrix(channel.superoperator)
    assert np.max(np.abs(ptm.imag)) < 1e-15
    paulis = [_pauli_string(i, n) for i in range(4**n)]
    expected = [[np.trace(p @ channel.apply(q)) / 2**n for q in paulis] for p in paulis]
    assert np.max(np.abs(ptm - np.array(expected))) < 1e-14


def test_clifford_pulses_and_czs_compile_to_signed_permutations():
    runner = _CircuitRunner(NoiseModel.ideal(), QUBIT_ORDER)
    ops = [op for q in QUBIT_ORDER for e in single_qubit_cliffords(q) for op in e.decomposition]
    for a, b in map(sorted, CZ_PAIRS):
        ops += [cz_op(a, b, 100e-9), cz_op(b, a, 100e-9)]
    assert {op.kind for op in ops} == {GateKind.SQ_ROT, GateKind.VIRTUAL_Z, GateKind.CZ}
    for op in ops:
        matrix = runner._compiled_op(op)
        assert np.all(np.diff(matrix.indptr) == 1), op  # one entry per row
        assert np.array_equal(np.sort(matrix.indices), np.arange(4 ** len(QUBIT_ORDER))), op
        assert np.max(np.abs(np.abs(matrix.data) - 1.0)) < 1e-15, op


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


@PROPERTY_SETTINGS
@given(
    n=st.integers(1, 4),
    k=st.integers(1, 40),
    shots=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_spam_draws_each_row_as_alone(n, k, shots, seed):
    """A stack laid out as the protocols pass it (the transpose of the
    populations' columns), with exact zeros and rounding residue below zero,
    against each row sampled alone on its own generator."""
    gen = np.random.default_rng(seed)
    names = tuple(f"q{i}" for i in range(n))
    spam = SpamModel(dict(zip(names, gen.uniform(0.5, 1.0, n))), {})
    populations = gen.dirichlet(np.full(2**n, 0.5), size=k).T.copy()
    zeros = gen.random(populations.shape) < 0.2
    zeros[populations.argmax(axis=0), np.arange(k)] = False
    populations[zeros] = 0.0
    populations /= populations.sum(axis=0)
    populations += gen.choice([0.0, -1e-17], size=populations.shape)
    stack = populations.T
    gens = [np.random.default_rng([seed, i]) for i in range(k)]
    got = spam_apply(stack, spam.confusion(names), gens, shots)
    assert got.shape == (k, 2**n)
    for i, row in enumerate(stack):
        alone = spam_apply([row], spam.confusion(names), [np.random.default_rng([seed, i])], shots)
        assert np.array_equal(got[i], alone[0])


def _phase_key(u, decimals=9):
    """One matrix's key, computed alone: the reference for _phase_keys."""
    flat = np.asarray(u, dtype=complex).flatten()
    first = int(np.argmax(np.abs(flat) > 1e-6))
    normed = np.asarray(u, dtype=complex) * np.exp(-1j * np.angle(flat[first]))
    return (np.round(normed, decimals) + 0.0).tobytes()


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_stacked_phase_keys_equal_each_matrix_alone(seed):
    """All 24 single-qubit Cliffords under random global phases, some with
    the leading entry zero; the keys still find each element's index."""
    gen = np.random.default_rng(seed)
    mats, _, index_of = _single_qubit_table()
    stack = np.array(mats) * np.exp(1j * gen.uniform(-np.pi, np.pi, size=24))[:, None, None]
    keys = _phase_keys(stack)
    assert keys == [_phase_key(u) for u in stack]
    assert [index_of[key] for key in keys] == list(range(24))


@PROPERTY_SETTINGS
@given(register=registers_and_subsets(), seed=st.integers(0, 2**32 - 1))
def test_ground_of_a_stack_reads_each_distribution_alone(register, seed):
    order, qubits = register
    stack = np.random.default_rng(seed).dirichlet(np.ones(2 ** len(order)), size=(3, 5))
    got = _ground(stack, order, qubits)
    assert got.shape == (3, 5)
    for index in np.ndindex(got.shape):
        assert got[index] == _ground(stack[index], order, qubits)


# -- tomography --------------------------------------------------------------


@PROPERTY_SETTINGS
@given(
    ops=st.lists(_OPS, min_size=1, max_size=8),
    idle=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_prepared_pair_is_the_partial_trace_of_the_register(ops, idle, seed):
    noise = _device_noise(seed, idle)
    gen = np.random.default_rng(seed)
    spam = SpamModel({}, {q: float(gen.uniform(0.0, 0.5)) for q in QUBIT_ORDER})
    runner = _CircuitRunner(noise, QUBIT_ORDER)
    rho = runner.run(runner.initial_state(spam), [Segment((op,)) for op in ops])
    for pair in itertools.permutations(QUBIT_ORDER, 2):
        expected = pair_marginal(rho, tuple(QUBIT_ORDER.index(q) for q in pair), len(QUBIT_ORDER))
        got = simulate_prep(ops, noise, spam, pair)
        assert np.max(np.abs(got - expected)) < 1e-14, pair


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_exact_tomography_matches_rotated_settings(seed):
    gen = np.random.default_rng(seed)
    rho2 = _random_state(gen, 2)
    pair = ("D1", "D2")
    spam = SpamModel({q: float(gen.uniform(0.7, 1.0)) for q in pair}, {})
    result = tomography_of_state(rho2, spam, pair, exact=True)
    expectations, estimate = linear_inversion(rho2, spam.confusion(pair))
    assert result.expectations.keys() == expectations.keys()
    assert max(abs(result.expectations[k] - v) for k, v in expectations.items()) < 1e-12
    assert np.max(np.abs(result.density_matrix - project_to_state(estimate))) < 1e-12


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), exact=st.booleans())
def test_tomography_matches_the_per_setting_oracle(seed, rank, exact):
    # rank 1 gives pure states, whose settings hold zero probabilities
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(4, rank)) + 1j * gen.normal(size=(4, rank))
    rho2 = a @ a.conj().T / np.linalg.norm(a) ** 2
    pair = ("D1", "D2")
    spam = SpamModel({q: float(gen.uniform(0.5, 1.0)) for q in pair}, {})
    shots, rng = int(gen.integers(100, 10_000)), RngHandle(seed=int(gen.integers(2**32)))
    got = tomography_of_state(rho2, spam, pair, shots, rng, exact)
    expected = tomography_per_setting(rho2, spam, pair, shots, rng, exact)
    assert list(got.expectations) == list(expected.expectations)
    values = [np.array(list(r.expectations.values())) for r in (got, expected)]
    assert values[0].tobytes() == values[1].tobytes()
    assert got.density_matrix.tobytes() == expected.density_matrix.tobytes()
