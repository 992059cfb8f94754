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

``allocating_lockstep`` is the Lindblad lockstep of the dynamics as it was
before its steps worked in a preallocated workspace: every stage a new
array, the jump a scipy.sparse product re-sliced when a schedule drops out,
each batch's block exponentials embedded into new d x d identities.

``embedded_lossless_propagate`` is the lossless branch of the propagator as
it was before it worked on the generator's excitation blocks: each batch's
block exponentials, of the exponent ``h a0`` plus the product of the rest
of its row with the block's table, embedded into d x d identities, the
batch multiplied into one d x d propagator as one tree, and the schedule's
total applied to the whole input.
"""

import itertools
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
from lcoupler.channels import (
    QuantumChannel,
    from_pauli,
    pauli_populations,
    time_ordered_product,
    to_pauli,
)
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
from lcoupler.dynamics import (
    _CHUNK,
    HamiltonianModel,
    _combination,
    _expm,
    _interval_ends,
    _piece_rows,
    _sector_blocks,
    _substep_counts,
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


def allocating_lawson_step(x, first, second, h, jump) -> np.ndarray:
    """``dynamics._lawson_step`` as it was before its workspace: the same
    operands in the same order, each conjugation and each jump a new
    array, ``jump(m)`` returning one."""
    schedules, d = x.shape[:2]

    def propagate(pair, m):
        u, u_dag = pair
        rows = (u @ m.reshape(schedules, d, -1)).reshape(schedules, -1, d)
        return (rows @ u_dag).reshape(m.shape)

    mid, k1 = propagate(first, x), propagate(first, jump(x))
    half, sixth = 0.5 * h, h / 6.0
    stage = np.multiply(half, k1)
    stage += mid
    k2 = jump(stage)
    np.multiply(half, k2, out=stage)
    stage += mid
    k3 = jump(stage)
    np.multiply(h, k3, out=stage)
    stage += mid
    end = jump(propagate(second, stage))
    np.multiply(2.0, k2, out=k2)
    k2 += k1
    np.multiply(2.0, k3, out=k3)
    k2 += k3
    np.multiply(sixth, k2, out=k2)
    k2 += mid
    out = propagate(second, k2)
    np.multiply(sixth, end, out=end)
    out += end
    return out


def allocating_lockstep(streams, x, stacked) -> np.ndarray:
    """``dynamics._lockstep`` as it was before its workspace: the jump is
    ``stacked @ m.ravel()`` through scipy.sparse, re-sliced to the live
    schedules' leading rows and columns when one drops out, and every step
    is ``allocating_lawson_step``.  x is left unchanged."""
    live = np.arange(len(x))
    out = np.empty_like(x)
    d, size = x.shape[1], x[0].size

    def jump(m):
        return (stacked @ m.ravel()).reshape(m.shape)

    for batches in itertools.zip_longest(*streams):
        batches = [batches[s] for s in live]
        steps = np.array([0 if b is None else len(b[0]) // 2 for b in batches])
        props = np.zeros((len(live), 2 * steps.max(), d, d), dtype=complex)
        h = np.zeros((len(live), steps.max()))
        for row, batch in enumerate(batches):
            if batch is not None:
                lengths, exponentials = batch
                embedded = np.repeat(np.eye(d, dtype=complex)[None], len(lengths), axis=0)
                for span, u in exponentials:
                    embedded[:, span, span] = u
                props[row, : len(lengths)] = embedded
                h[row, : steps[row]] = 2.0 * lengths[::2]
        adjoints = props.conj().transpose(0, 1, 3, 2)
        uniform = bool(np.all(h == h[0]))
        drop = steps.min()
        for k in range(steps.max()):
            if k == drop:
                done = steps <= k
                out[live[done]] = x[done]
                keep = ~done
                live, steps, x, props, h = (a[keep] for a in (live, steps, x, props, h))
                adjoints = props.conj().transpose(0, 1, 3, 2)
                stacked = stacked[: size * len(live), : size * len(live)]
                drop = steps.min()
            first = props[:, 2 * k], adjoints[:, 2 * k]
            second = props[:, 2 * k + 1], adjoints[:, 2 * k + 1]
            length = h[0, k] if uniform else h[:, k, None, None, None]
            x = allocating_lawson_step(x, first, second, length, jump)
    out[live] = x
    return out


def embedded_lossless_propagate(model, y0, tol) -> np.ndarray:
    """``dynamics._propagate`` with ``CollapseSet()``, as it was before the
    lossless branch worked on blocks: a state vector, a matrix or a stack of
    matrices, for one model or a list of them (one input each).  Every
    batch's propagators are d x d, the identity off the blocks, multiplied
    as one tree, and each schedule's total propagator multiplies the whole
    input.  The pieces are the propagator's: its intervals, substep counts
    and coefficient rows."""
    single = isinstance(model, HamiltonianModel)
    models = [model] if single else list(model)
    ys = np.array(y0, dtype=complex)
    ys = ys[None] if single else ys
    d = models[0].dim
    a0 = -2j * math.pi * models[0].static_hz
    parts = -2j * math.pi * models[0].parts
    blocks = _sector_blocks(a0, parts)
    eye = np.eye(d, dtype=complex)
    for s, m in enumerate(models):
        if not m.schedule.duration_s > 0.0:
            continue
        times, ctrl = m.schedule.times_s, m.control_samples()
        ends = _interval_ends(times, ctrl, a0, parts)
        ctrl, h = ctrl[ends], np.diff(times[ends])
        lo, slope = ctrl[:-1], np.diff(ctrl, axis=0)
        counts = _substep_counts(a0, parts, h, lo, slope, tol, 0.0, blocks)
        coef = _piece_rows(h, lo, slope, counts.astype(int))
        total = eye
        for first in range(0, len(coef), _CHUNK):
            rows = coef[first : first + _CHUNK]
            props = np.repeat(eye[None], len(rows), axis=0)
            for block in blocks:
                omega = _combination(rows[:, :-1], block.table)
                omega = omega + rows[:, -1, None, None] * block.a0
                props[:, block.span, block.span] = _expm(omega)
            total = time_ordered_product(props) @ total
        ys[s] = total @ ys[s] if ys[s].ndim == 1 else total @ ys[s] @ total.conj().T
    return ys[0] if single else ys
