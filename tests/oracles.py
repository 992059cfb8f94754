"""Computational-basis oracles the tests check the program against.

The circuit executor and tomography work on Pauli vectors; these act on the
density matrix itself: one channel on one qubit subset at a time, a channel's
output fidelity averaged over random pure states, a partial trace taken axis
by axis, and tomography settings measured by rotating each axis onto Z.  The
chain's qubit-mode exchange is built label by label, apart from the products
of lowering operators the dynamics use.

The benchmarking protocols draw sequences as slot-template arrays, each
random single-qubit Clifford split into a frame slot (its leading virtual Z)
and a pulse slot; the references here draw them element by element, as lists
of unsplit segments: one scalar draw and one ``two_qubit_clifford`` (or
single-qubit element) per element, ``invert_sequence`` on the element list,
and each element run as one segment per single-qubit Clifford and remote
CNOT, assembled from the layered class recipe.  ``embed_unitary`` expands
an op's matrix to the whole register by Kronecker product and axis
permutation, apart from ``circuit_unitary``'s tensor contraction.

``tomography_per_setting`` measures the nine tomography settings one at a
time, one ``spam_apply`` call and one expectation per setting, where the
library stacks them.  ``detuning_frame`` is the virtual-Z frame that channel
extraction composes with the propagated pair map, for tests that compare an
extracted channel with a raw one.
"""

import math

import numpy as np

from lcoupler.basis import BasisLabel, basis_index
from lcoupler.benchmarking import (
    RbDataset,
    RbRecord,
    SpamModel,
    _CircuitRunner,
    _ground,
    spam_apply,
)
from lcoupler.channels import QuantumChannel, from_pauli, pauli_populations, to_pauli
from lcoupler.cliffords import (
    DATA_QUBITS,
    L_QUBIT_PAIR,
    QUBIT_ORDER,
    TWO_QUBIT_GROUP_ORDER,
    _CYCLER_DESC,
    _ISWAP_DRESSING,
    CliffordElement,
    Segment,
    _single_qubit_table,
    _sq_ops,
    compile_remote_cnot,
    data_block_unitary,
    decode_two_qubit_index,
    invert_sequence,
    single_qubit_cliffords,
    transfer_step,
    two_qubit_clifford,
)
from lcoupler.rng import RngHandle
from lcoupler.tomography import (
    _SETTING_READS,
    SETTINGS,
    TomographyResult,
    project_to_state,
)

# rotate the measured axis onto Z: u P u^dag = Z
BASIS_ROTATION = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / math.sqrt(2),
    "Z": np.eye(2, dtype=complex),
}
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
}


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


def embed_unitary(u: np.ndarray, positions: list[int], n_qubits: int) -> np.ndarray:
    """Expand a k-qubit unitary to the full register at the given positions."""
    k = len(positions)
    rest = [q for q in range(n_qubits) if q not in positions]
    big = np.kron(u, np.eye(2 ** len(rest), dtype=complex))
    big = big.reshape((2,) * (2 * n_qubits))
    perm = list(positions) + rest
    inv = np.argsort(perm)
    big = big.transpose([*inv, *(n_qubits + inv)])
    return big.reshape(2**n_qubits, 2**n_qubits)


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


def pair_marginal(rho: np.ndarray, positions: tuple[int, int], n: int) -> np.ndarray:
    """Reduced state of the qubits at ``positions`` (in that order) of an
    n-qubit density matrix, by tracing out the other qubits one at a time."""
    keep = list(positions)
    drop = [i for i in range(n) if i not in keep]
    t = rho.reshape((2,) * (2 * n))
    # trace out dropped qubits pairwise, highest axis first
    for q in sorted(drop, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + (t.ndim // 2))
        keep = [k - 1 if k > q else k for k in keep]
    if keep[0] > keep[1]:
        t = t.transpose(1, 0, 3, 2)
    return t.reshape(4, 4)


def setting_probabilities(rho2: np.ndarray, setting: str) -> np.ndarray:
    """Outcome probabilities (00, 01, 10, 11) of a two-qubit Pauli setting
    such as "XY": rotate each measured axis onto Z and read the diagonal."""
    u = np.kron(BASIS_ROTATION[setting[0]], BASIS_ROTATION[setting[1]])
    return np.real(np.diag(u @ rho2 @ u.conj().T))


def linear_inversion(rho2: np.ndarray, confusion: np.ndarray) -> tuple[dict, np.ndarray]:
    """Infinite-shot expectations of the nine settings through ``confusion``
    and the linear estimate (I + sum_P <P> P) / 4 built from Pauli matrices.

    A single-qubit expectation such as "XI" is the mean over the settings
    that measure X on the first qubit."""
    signs = np.array([1.0, -1.0])
    expectations, singles = {}, {}
    for setting in (p + q for p in "XYZ" for q in "XYZ"):
        freq = confusion @ np.clip(setting_probabilities(rho2, setting), 0.0, None)
        grid = (freq / freq.sum()).reshape(2, 2)
        expectations[setting] = signs @ grid @ signs
        singles.setdefault(setting[0] + "I", []).append(signs @ grid.sum(axis=1))
        singles.setdefault("I" + setting[1], []).append(signs @ grid.sum(axis=0))
    expectations.update({k: float(np.mean(v)) for k, v in singles.items()})
    estimate = np.eye(4, dtype=complex)
    for label, value in expectations.items():
        estimate += value * np.kron(_PAULI[label[0]], _PAULI[label[1]])
    return expectations, estimate / 4.0


def exchange_operator(
    basis: list[BasisLabel], qubit_site: int, mode_sites: list[int], signs: list[float]
) -> np.ndarray:
    """sum_m s_m (sigma+_q a_m + h.c.), unit coupling, entry by entry: each
    label with the qubit down and mode m occupied n times is raised on the
    qubit and lowered on the mode with amplitude s_m sqrt(n)."""
    index = basis_index(basis)
    d = len(basis)
    op = np.zeros((d, d), dtype=complex)
    for j, label in enumerate(basis):
        occ = label.occupations
        if occ[qubit_site] != 0:
            continue
        for m_site, s in zip(mode_sites, signs):
            n = occ[m_site]
            if n == 0:
                continue
            raised = list(occ)
            raised[qubit_site] = 1
            raised[m_site] = n - 1
            i = index[tuple(raised)]
            op[i, j] += s * math.sqrt(n)
    return op + op.conj().T


def two_qubit_segments(index: int, cfg) -> tuple[Segment, ...]:
    """An element's segments assembled class by class: the cyclers, then
    class 1's CNOT, class 2's dressed CNOT pair or class 3's three CNOTs,
    then the closing single-qubit layer; an identity runs no segment."""
    class_id, u1, u2, s1, s2 = decode_two_qubit_index(index)
    descs = _single_qubit_table()[1]
    d1, d2 = DATA_QUBITS

    def sq(desc, qubit):
        ops = _sq_ops(desc, qubit, cfg.single_qubit_gate_time_s)
        return (ops,) if ops else ()

    fwd, rev = compile_remote_cnot(d1, d2, cfg), compile_remote_cnot(d2, d1, cfg)
    segments = ()
    if class_id in (1, 2):
        segments += sq(_CYCLER_DESC, d1) * s1 + sq(_CYCLER_DESC, d2) * s2
    if class_id == 1:
        segments += (fwd,)
    elif class_id == 2:
        dress = _ISWAP_DRESSING
        segments += sq(dress["c"], d1) + sq(dress["d"], d2) + (fwd, rev)
        segments += sq(dress["a"], d1) + sq(dress["b"], d2)
    elif class_id == 3:
        segments += (fwd, rev, fwd)
    return segments + sq(descs[u1], d1) + sq(descs[u2], d2)


def nb_step(carrier: str, element: int, cfg) -> tuple[Segment, ...]:
    """One network-benchmarking step: the carrier's single-qubit Clifford,
    then the transfer step to the other l-qubit."""
    receiver = "L2" if carrier == "L1" else "L1"
    elem = single_qubit_cliffords(carrier, cfg.single_qubit_gate_time_s)[element]
    return (*elem.segments, transfer_step(carrier, receiver, cfg.transfer.total_duration_s))


def _run_drawn(noise, spam, order, lengths, seeds_per_length, shots, stream, draw):
    """Records of sequences drawn one (length, seed) at a time as segment
    lists, encoded segment by segment and run as one batch; each record's
    shots come from the generator that drew its sequence."""
    spam = spam if spam is not None else SpamModel.ideal(order)
    runner = _CircuitRunner(noise, order)
    drawn, circuits = [], []
    for n in lengths:
        for seed in range(seeds_per_length):
            gen = stream.stream(n, seed).generator()
            segments, survivors = draw(n, gen)
            circuits.append(runner.encode(segments))
            drawn.append((n, seed, gen, survivors))
    states = runner.evolve(runner.initial_state(spam), circuits)
    confusion = spam.confusion(order)
    records = []
    for (n, seed, gen, survivors), populations in zip(drawn, pauli_populations(states).T):
        measured = spam_apply(populations[None], confusion, [gen], shots)[0]
        ground = [_ground(measured, order, q) for q in (survivors, ("L1",), ("L2",))]
        records.append(RbRecord(n, seed, shots, *ground))
    return records


def network_benchmarking(noise, spam, lengths, seeds_per_length, shots, rng, cfg) -> RbDataset:
    """NB drawn step by step: one scalar draw per element on the current
    carrier, then ``invert_sequence`` on the element list."""

    def draw(length, gen):
        carrier, sequence, segments = "L1", [], []
        for _ in range(length):
            element = int(gen.integers(24))
            sequence.append(single_qubit_cliffords(carrier)[element])
            segments += nb_step(carrier, element, cfg)
            carrier = "L2" if carrier == "L1" else "L1"
        inverse = invert_sequence(sequence).index
        segments += single_qubit_cliffords(carrier, cfg.single_qubit_gate_time_s)[inverse].segments
        return segments, (carrier,)

    return RbDataset(
        "NB",
        _run_drawn(
            noise, spam, L_QUBIT_PAIR, lengths, seeds_per_length, shots, rng.stream("nb"), draw
        ),
    )


def two_qubit_rb(
    noise, spam, lengths, seeds_per_length, shots, rng, cfg, interleave=None
) -> RbDataset:
    """TQRB (or IRB) drawn element by element: one scalar draw and one
    ``two_qubit_clifford`` per element, the interleaved composite as an
    element of its own after each, then ``invert_sequence`` on the list.
    Each element runs its unsplit segments (``two_qubit_segments``)."""
    inter_elem = None
    if interleave is not None:
        ops = Segment(interleave)
        inter_elem = CliffordElement(-1, data_block_unitary(ops), (ops,) if ops else ())
    protocol = "INTERLEAVED" if inter_elem is not None else "TQRB"

    def draw(length, gen):
        sequence = []
        for _ in range(length):
            sequence.append(two_qubit_clifford(int(gen.integers(TWO_QUBIT_GROUP_ORDER)), cfg))
            if inter_elem is not None:
                sequence.append(inter_elem)
        sequence.append(invert_sequence(sequence, cfg))
        segments = [
            two_qubit_segments(elem.index, cfg) if elem is not inter_elem else elem.segments
            for elem in sequence
        ]
        return [segment for elem_segments in segments for segment in elem_segments], DATA_QUBITS

    stream = rng.stream("tqrb", protocol)
    return RbDataset(
        protocol,
        _run_drawn(noise, spam, QUBIT_ORDER, lengths, seeds_per_length, shots, stream, draw),
    )


def detuning_frame(schedule) -> np.ndarray:
    """Superoperator of the virtual Z on each qubit that removes the
    schedule's detuning phase (half the per-qubit ramp integral), row-major
    vec, L1 the more significant bit."""
    phi_e, phi_r = schedule.detuning_phase_rad()
    chi = 0.5 * (phi_e + phi_r)
    u = np.diag([np.exp(1j * chi * bin(i).count("1")) for i in range(4)])
    return np.kron(u, u.conj())


def tomography_per_setting(
    rho2, spam, qubits, shots_per_setting=10000, rng=None, exact=False
) -> TomographyResult:
    """``tomography_of_state`` one setting at a time: each setting's
    frequencies from its own ``spam_apply`` call on its own generator (or
    normalised on their own when exact), its expectations from its own 2 x 2
    grid, and each single-qubit expectation the mean of the list of its
    three marginals."""
    rng = rng if rng is not None else RngHandle(seed=0)
    confusion = spam.confusion(qubits)
    coefficients = np.zeros((16, len(SETTINGS)))
    coefficients[[0, 3, 12, 15]] = to_pauli(rho2)[_SETTING_READS].T
    signs = np.array([1.0, -1.0])
    two_q, singles = {}, {}
    for setting, probs in zip(SETTINGS, pauli_populations(coefficients).T):
        if exact:
            freq = confusion @ np.clip(probs, 0.0, None)
            freq /= freq.sum()
        else:
            gen = rng.stream("tomo", setting).generator()
            freq = spam_apply(probs[None], confusion, [gen], shots_per_setting)[0]
        grid = freq.reshape(2, 2)
        two_q[setting] = float(signs @ grid @ signs)
        singles.setdefault(setting[0] + "I", []).append(float(signs @ grid.sum(axis=1)))
        singles.setdefault("I" + setting[1], []).append(float(signs @ grid.sum(axis=0)))
    expectations = dict(two_q)
    expectations.update({k: float(np.mean(v)) for k, v in singles.items()})
    measured = {"II": 1.0, **expectations}
    estimate = from_pauli(np.array([measured[p + q] for p in "IXYZ" for q in "IXYZ"]))
    return TomographyResult(
        density_matrix=project_to_state(estimate),
        expectations=expectations,
        shots_per_setting=None if exact else shots_per_setting,
        qubits=tuple(qubits),
    )
