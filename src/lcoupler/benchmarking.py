"""Randomized benchmarking of interconnect circuits at the density-matrix level.

Two protocols share one noisy circuit executor and one sequence loop; each
supplies only its slot template, how it draws the sequences of one length
as template rows, and which qubits its survival reads.
Circuit timing comes from the DeviceConfig, noise from the NoiseModel.

Network benchmarking bounces a carrier qubit between the two l-qubits: each
segment is a random single-qubit Clifford on the carrier followed by a
transfer, the whole sequence is undone by a single inverting Clifford, and
the decay of the return probability with segment count gives the error per
segment, EPS = (1 - p) / 2.  Two-qubit RB draws uniform elements of the two-qubit
Clifford group on the data qubits, executes their compiled decompositions
(local gates plus transfers), and converts the fitted decay to an error per
gate, EPG = 3 (1 - p) / 4.  Interleaved mode inserts a fixed composite
between the random elements; its error follows from the ratio of the
interleaved and reference decays.

Noise is attached to operations, not to wall-clock time slices: transfers
execute as CPTP pair channels, pulses append depolarizing with a per-pulse
probability, CZs append two-qubit depolarizing, and bystanders optionally
decohere for the duration of the op.  Measured populations pass through a
per-qubit readout confusion matrix and multinomial shot sampling, and
sequences start from per-qubit thermal states, so state preparation and
measurement errors move only the amplitude and offset of the decay, never
the fitted p.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from functools import reduce
from types import MappingProxyType

import numpy as np
from scipy import sparse

from . import dynamics, pulses
from .channels import (
    QuantumChannel,
    amplitude_damping_channel,
    dephasing_channel,
    depolarizing_channel,
    excitation_pump_channel,
    from_pauli,
    pauli_populations,
    pauli_transfer_matrix,
    to_pauli,
)
from .cliffords import (
    DATA_QUBITS,
    L_QUBIT_PAIR,
    QUBIT_ORDER,
    TRANSFER_DIRECTIONS,
    TWO_QUBIT_GROUP_ORDER,
    TWO_QUBIT_SEGMENT_IDS,
    GateKind,
    GateOp,
    Segment,
    SlotTemplate,
    _two_qubit_matrices,
    data_block_unitary,
    half_transfer_op,
    invert_sequence,
    op_matrix,
    single_qubit_cliffords,
    split_sq_slots,
    transfer_op,
    transfer_step,
    two_qubit_template,
)
from .config import DeviceConfig, load_config, pure_dephasing_rate
from .rng import RngHandle

DEFAULT_NB_LENGTHS = (2, 4, 8, 16, 32, 64, 128)
DEFAULT_TQRB_LENGTHS = (1, 2, 4, 8, 16, 24, 32, 48)
DEFAULT_SEEDS_PER_LENGTH = 30
DEFAULT_SHOTS = 1000

CSV_HEADER = "length,seed,shots,survival,spectator_l1,spectator_l2"


# ---------------------------------------------------------------------------
# state preparation and measurement


@dataclass(frozen=True)
class SpamModel:
    """Per-qubit readout confusion and thermal initialization."""

    readout_fidelity: dict[str, float]
    thermal_population: dict[str, float]

    def __post_init__(self) -> None:
        for name, f in self.readout_fidelity.items():
            if not 0.5 <= f <= 1.0:
                raise ValueError(f"readout fidelity for {name} out of range: {f}")
        for name, t in self.thermal_population.items():
            if not 0.0 <= t <= 0.5:
                raise ValueError(f"thermal population for {name} out of range: {t}")

    def confusion_matrix(self, qubit: str) -> np.ndarray:
        """Column-stochastic 2x2 map from true to reported outcome."""
        f = self.readout_fidelity.get(qubit, 1.0)
        return np.array([[f, 1.0 - f], [1.0 - f, f]])

    def confusion(self, qubits: tuple[str, ...]) -> np.ndarray:
        """Column-stochastic map from true to reported outcomes of the
        register (first qubit the most significant bit): the tensor product
        of the per-qubit matrices."""
        return reduce(np.kron, [self.confusion_matrix(q) for q in qubits])

    def initial_qubit_state(self, qubit: str) -> np.ndarray:
        t = self.thermal_population.get(qubit, 0.0)
        return np.diag([1.0 - t, t]).astype(complex)

    def with_readout_fidelity(self, fidelity: float) -> "SpamModel":
        """Copy with every qubit's readout fidelity replaced."""
        return SpamModel(
            {q: fidelity for q in self.readout_fidelity},
            dict(self.thermal_population),
        )

    @classmethod
    def ideal(cls, qubits: tuple[str, ...] = QUBIT_ORDER) -> "SpamModel":
        return cls({q: 1.0 for q in qubits}, {q: 0.0 for q in qubits})

    @classmethod
    def from_config(cls, cfg: DeviceConfig | None = None) -> "SpamModel":
        cfg = cfg if cfg is not None else load_config()
        qubits = [*cfg.l_qubits, *cfg.data_qubits]
        return cls(
            {q.name: q.readout_fidelity for q in qubits},
            {q.name: q.thermal_population for q in qubits},
        )


def spam_apply(
    distributions: np.ndarray,
    confusion: np.ndarray,
    gens: Sequence[np.random.Generator],
    shots: int,
) -> np.ndarray:
    """Empirical outcome distributions after confusion and shot sampling.

    ``distributions`` is a stack (k, 2^n) of ideal distributions over
    computational outcomes (first qubit the most significant bit), and
    ``gens`` holds k generators, one per row.  Each row is mixed by the
    register's confusion matrix (SpamModel.confusion), then ``shots``
    outcomes are drawn multinomially on that row's generator.  The draw
    sees the mixed probabilities snapped to a 1e-12 grid: NumPy's binomial
    draws on min(p, 1 - p), so a symmetric setting at 0.5 + 1 ulp and one at
    0.5 - 1 ulp would otherwise give different counts for one seed.
    Returns counts / shots, one row per distribution.

    The clip, normalisation check, confusion product and snap run once for
    the whole stack, each row bit for bit as it would alone (the rows are
    made contiguous, and the product is one matrix-vector product per row);
    only the multinomial draw is per row.
    """
    stack = np.ascontiguousarray(distributions, dtype=float)
    if stack.ndim != 2 or stack.shape[1] != confusion.shape[1]:
        raise ValueError("distribution size does not match the confusion matrix")
    if len(gens) != len(stack):
        raise ValueError(f"{len(stack)} distributions but {len(gens)} generators")
    if shots <= 0:
        raise ValueError("shots must be positive")
    stack = np.clip(stack, 0.0, None)
    total = stack.sum(axis=-1, keepdims=True)
    unnormalized = ~(np.abs(total - 1.0) <= 1e-6)
    if unnormalized.any():
        raise ValueError(f"distribution is not normalized: sum {total[unnormalized][0]}")
    noisy = np.clip((confusion @ (stack / total)[..., None])[..., 0], 0.0, None)
    noisy = np.rint(noisy * (1e12 / noisy.sum(axis=-1, keepdims=True)))  # whole multiples of 1e-12
    noisy /= noisy.sum(axis=-1, keepdims=True)
    counts = np.array([gen.multinomial(shots, p) for gen, p in zip(gens, noisy)])
    return (counts / shots).reshape(stack.shape)


# ---------------------------------------------------------------------------
# noise model


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Circuit-level noise attached to each kind of operation.

    transfer_channels (half_transfer_channels) maps a direction string to
    the CPTP map applied to the (L1, L2) pair in place of the ideal
    (half) transfer unitary.  sq_depolarizing and cz_depolarizing are
    depolarizing probabilities added after each physical pulse / CZ, keyed
    by qubit and by CZ pair (a frozenset).  Qubits listed in qubit_t1_s
    relax, and those listed in qubit_tphi_s dephase, for the duration of
    each op that does not address them (idle_decoherence); with both
    empty, nothing idles.  Every key names qubits of cliffords.QUBIT_ORDER.
    The circuits the model runs, and so every op's duration, come from the
    DeviceConfig the protocol is given.

    ``device``, which from_config sets, is the DeviceConfig the transfer
    channels belong to: such a model fills its own transfer tables
    (_extract) as the executor compiles the transfers that need them.

    The model is read-only and compares by identity, so the executor's
    compiled ops (``circuit_runner``) stay valid for as long as the model
    object does.  Each table is a read-only view (``MappingProxyType``) of
    the model's own copy of what it was given, so a ``dataclasses.replace``
    twin owns its tables and extracts into them alone.
    """

    transfer_channels: Mapping[str, QuantumChannel]
    half_transfer_channels: Mapping[str, QuantumChannel] = field(default_factory=dict)
    sq_depolarizing: Mapping[str, float] = field(default_factory=dict)
    cz_depolarizing: Mapping[frozenset, float] = field(default_factory=dict)
    qubit_t1_s: Mapping[str, float] = field(default_factory=dict)
    qubit_tphi_s: Mapping[str, float] = field(default_factory=dict)
    device: DeviceConfig | None = None

    def __post_init__(self) -> None:
        # the dicts behind the read-only views; only _extract writes to them
        tables = {f.name: dict(getattr(self, f.name)) for f in fields(self) if f.name != "device"}
        object.__setattr__(self, "_tables", tables)
        for name, table in tables.items():
            object.__setattr__(self, name, MappingProxyType(table))

    def _extract(self, transfers: Sequence[GateOp]) -> None:
        """Fill the transfer tables for the transfer ops ``transfers``.

        Without a device this does nothing.  With one, an op not timed as
        the device's transfer schedule is a ValueError, and every channel
        the tables lack is extracted in one dynamics.extract_channels call:
        full transfers from the lossy SATD schedule, half transfers from
        its square-root variant, L2->L1 from the reversed schedule, in the
        order full before half and L1->L2 before L2->L1.
        """
        cfg = self.device
        if cfg is None:
            return
        schedule_s = cfg.transfer.total_duration_s
        for op in transfers:
            if op.duration_s != schedule_s:
                raise ValueError(
                    f"transfer {op.params['direction']} lasts {op.duration_s:.6g} s, but its "
                    f"channel is extracted from a {schedule_s:.6g} s schedule"
                )
        wanted = {(bool(op.params.get("half")), op.params["direction"]) for op in transfers}
        kinds = (
            ("transfer_channels", "satd", False),
            ("half_transfer_channels", "sqrt_satd", True),
        )
        missing = [
            (name, method, direction)
            for name, method, half in kinds
            for direction in TRANSFER_DIRECTIONS
            if (half, direction) in wanted and direction not in self._tables[name]
        ]
        if not missing:
            return
        methods = {method for _, method, _ in missing}
        forward = {m: pulses.build_transfer_schedule(cfg, method=m) for m in methods}
        backward = {m: pulses.reverse_schedule(schedule) for m, schedule in forward.items()}
        schedules = [(forward if d == "L1->L2" else backward)[m] for _, m, d in missing]
        channels = dynamics.extract_channels(cfg, schedules, lossy=True)
        for (name, _, direction), channel in zip(missing, channels):
            self._tables[name][direction] = channel

    @property
    def idle_decoherence(self) -> bool:
        """Whether bystanders decohere: exactly when some qubit has a T1 or
        a Tphi."""
        return bool(self.qubit_t1_s or self.qubit_tphi_s)

    def validate(self) -> "NoiseModel":
        for table in (self.transfer_channels, self.half_transfer_channels):
            for direction, channel in table.items():
                if direction not in TRANSFER_DIRECTIONS:
                    raise ValueError(f"unknown transfer direction {direction!r}")
                if channel.dim != 4:
                    raise ValueError("transfer channels act on the l-qubit pair")
                channel.validate()
        for qubit in self.sq_depolarizing:
            if qubit not in QUBIT_ORDER:
                raise ValueError(f"sq_depolarizing[{qubit}] names no qubit of {QUBIT_ORDER}")
        for pair in self.cz_depolarizing:
            if not (isinstance(pair, frozenset) and len(pair) == 2 and pair <= {*QUBIT_ORDER}):
                raise ValueError(f"cz_depolarizing[{pair}] is not a pair of {QUBIT_ORDER}")
        for label in ("sq_depolarizing", "cz_depolarizing"):
            for key, p in getattr(self, label).items():
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"{label}[{key}] out of range: {p}")
        for label in ("qubit_t1_s", "qubit_tphi_s"):
            for qubit, t in getattr(self, label).items():
                if qubit not in QUBIT_ORDER:
                    raise ValueError(f"{label}[{qubit}] names no qubit of {QUBIT_ORDER}")
                if not t > 0.0:  # NaN fails too; inf (no decay) passes
                    raise ValueError(f"{label}[{qubit}] must be positive, got {t}")
        return self

    @classmethod
    def ideal(cls) -> "NoiseModel":
        """Lossless transfers (op_matrix of each transfer op), no gate noise,
        no decoherence."""
        full, half = (
            {d: QuantumChannel.from_unitary(op_matrix(op(d, 0.0))) for d in TRANSFER_DIRECTIONS}
            for op in (transfer_op, half_transfer_op)
        )
        return cls(transfer_channels=full, half_transfer_channels=half)

    @classmethod
    def with_transfer_depolarizing(cls, infidelity: float) -> "NoiseModel":
        """Ideal swap followed by depolarizing on the received qubit.

        A single-qubit depolarizing with probability lam has average
        infidelity lam / 2, so the channel is built with lam = 2 * infidelity
        and network benchmarking should report EPS equal to ``infidelity``.
        """
        if not 0.0 <= infidelity < 0.5:
            raise ValueError("transfer infidelity must lie in [0, 0.5)")
        return cls._after_swap(depolarizing_channel(2.0 * infidelity), on_receiver=True)

    @classmethod
    def with_transfer_leakage(cls, leak_prob: float) -> "NoiseModel":
        """Ideal swap followed by an excitation pump on the emitting side.

        After the swap the emitter slot holds whatever the receiver held
        before, so pumping it injects a spurious excitation into the idle
        qubit while leaving the moved carrier state untouched.  The spectator
        ground population then decays as (1 - leak_prob)^n.
        """
        if not 0.0 <= leak_prob < 1.0:
            raise ValueError("leak probability must lie in [0, 1)")
        return cls._after_swap(excitation_pump_channel(leak_prob), on_receiver=False)

    @classmethod
    def _after_swap(cls, one: QuantumChannel, on_receiver: bool) -> "NoiseModel":
        """Ideal swap in each direction, then the one-qubit channel ``one``
        on the receiver or on the emitter slot."""
        swap, ident = cls.ideal().transfer_channels, QuantumChannel.identity(2)
        channels = {}
        for direction in TRANSFER_DIRECTIONS:
            emitter, receiver = direction.split("->")
            slot = receiver if on_receiver else emitter
            pair = one.tensor(ident) if slot == "L1" else ident.tensor(one)
            channels[direction] = pair.compose(swap[direction])
        return cls(transfer_channels=channels)

    @classmethod
    def from_config(
        cls,
        cfg: DeviceConfig | None = None,
        transfer_channels: dict[str, QuantumChannel] | None = None,
    ) -> "NoiseModel":
        """Full device noise: the device's transfer channels, per-pulse
        depolarizing from the calibrated Clifford errors, CZ depolarizing
        from the calibrated gate errors, and idle decoherence.

        The model holds ``cfg`` as its device.  The half-transfer table
        starts empty, and so does the transfer table unless one is passed
        in; the model extracts each channel they lack from the device's
        lossy schedules when _CircuitRunner.encode compiles a segment that
        runs it (NoiseModel._extract), and a lookup before then is a
        KeyError and extracts nothing.  Calibrated single-qubit Clifford
        errors count one physical pulse per Clifford on average, so the
        per-pulse depolarizing probability is 2 * error (average
        infidelity of depolarizing is lam / 2).
        """
        cfg = cfg if cfg is not None else load_config()
        qubits = [*cfg.l_qubits, *cfg.data_qubits]
        rates = {q.name: pure_dephasing_rate(q) for q in qubits}
        tphi = {name: 1.0 / r if r > 0 else math.inf for name, r in rates.items()}
        return cls(
            transfer_channels=transfer_channels or {},
            sq_depolarizing={q.name: 2.0 * q.sq_clifford_error for q in qubits},
            cz_depolarizing={
                frozenset(g.pair): g.error_per_gate * 4.0 / 3.0 for g in cfg.cz_gates
            },
            qubit_t1_s={q.name: q.t1_s for q in qubits},
            qubit_tphi_s=tphi,
            device=cfg,
        )


# ---------------------------------------------------------------------------
# noisy circuit execution


# Pauli-transfer entries with |x| <= PAULI_RESIDUE are stored as exact zeros.
# They are rounding residue of exact zeros (cos(pi/2) evaluates to 6e-17);
# every entry of a CPTP map's Pauli-transfer matrix lies in [-1, 1].
PAULI_RESIDUE = 8 * np.finfo(float).eps

# Positions per sort in _CircuitRunner.evolve: one sort over a whole TQRB
# batch (343 positions by 240 circuits) is faster, but its key and index
# arrays raise the peak memory of a protocol run.
_EVOLVE_BLOCK = 64


def _pauli_transfer(superop: np.ndarray) -> np.ndarray:
    """Real Pauli-transfer matrix of a CPTP superoperator, residue zeroed."""
    r = pauli_transfer_matrix(superop).real
    r[np.abs(r) <= PAULI_RESIDUE] = 0.0
    return r


def _code_rows(circuits, segments: int) -> np.ndarray:
    """The circuits' segment codes as one int32 row each, padded with
    holes (-1).  Every code must lie in [-1, segments); the range is checked
    before the cast, which would wrap a wider integer into it."""
    lengths = np.array([len(c) for c in circuits], dtype=np.intp)
    rows = np.full((len(circuits), lengths.max(initial=0)), -1, dtype=np.int32)
    if rows.size:
        entries = np.concatenate(circuits)
        if not -1 <= entries.min() <= entries.max() < segments:
            raise ValueError(f"segment codes must lie in [-1, {segments}), -1 a hole")
        rows[np.arange(rows.shape[1]) < lengths[:, None]] = entries
    return rows


class _CircuitRunner:
    """Executes batches of circuits on real Pauli vectors under a NoiseModel.

    A circuit is a sequence of segments, fixed op tuples that recur across
    the circuits of a run (one remote CNOT, one single-qubit Clifford on one
    qubit, one network-benchmarking transfer step).  States are real Pauli
    vectors (channels.to_pauli), one base-4 digit per qubit in register
    order.  Each distinct op is compiled once into one sparse real
    Pauli-transfer matrix on the whole register: the op's unitary (or
    transfer channel) followed by its depolarizing, tensored with every
    other qubit's idle decoherence for the op's duration, with entries
    within PAULI_RESIDUE of zero dropped, so that Clifford pulses and CZs
    are signed permutations.  The tensor product is multiplied out from the
    blocks' nonzeros in numpy and permuted into register order, one CSR
    matrix built per op.  Each distinct segment gets an integer code and
    is compiled once: a joined segment (cliffords.Segment.join) into the
    product of its parts' matrices, each part coded and compiled once like
    any other segment, and any other segment into the product of its ops'
    matrices.  On the default device a TQRB run compiles 23 segments: the
    two remote CNOTs; on each data qubit the three virtual Zs and five
    pulse trains of the closing layer (the cycler and dressings c and a
    among them); dressing b; and the four joined segments, a cycler pair
    per data qubit and the iSWAP and SWAP class cores.
    evolve runs a batch of circuits in lockstep, one state row per
    circuit, one sparse product per distinct segment at each position, and
    skips the code -1.  The protocols draw their circuits as rows of a slot
    template (cliffords.SlotTemplate), with -1 for a hole, so every circuit
    runs the same slot at the same position: a position holds at most 2
    codes in a cycler slot, 3 in the class core or a frame slot (a random
    Clifford's leading virtual Z), 5 in a pulse slot (the rest of its pulse
    train) and 1 in NB's transfer slot.  A grouped product's cost grows
    with its group: on the 4-qubit register, for a matrix of 256 to 860
    nonzeros, about 15-18 us at 18 rows, 52-66 us at 80 rows and 170-250
    us at 240 rows, for three passes over each row (the gather, scipy's
    transposed copy of the group and the scatter) and the kernel's pass
    over the nonzeros.  So the row passes, one per circuit and non-hole
    position, set evolve's time along with the count of groups: at seed
    11 a benchmark ``rb`` TQRB batch makes 22,686 row passes in 1,122
    groups over 343 positions, where one slot per fixed segment made
    33,538 in 1,269 over 686.  The caches of ops, segments and bystander idle
    channels (one per qubit and duration) live as long as the runner.  The
    program gets its runners from ``circuit_runner``, which keeps the last
    one per register and reuses it while the same NoiseModel object comes
    back, so the protocol runs and preparations of one model (TQRB then IRB
    on one device noise) compile each op and segment once, and a new model
    starts from empty caches.
    """

    def __init__(self, noise: NoiseModel, qubit_order: tuple[str, ...]):
        self.noise = noise.validate()
        self.order = tuple(qubit_order)
        self.n = len(self.order)
        self._ops: dict[tuple, sparse.csr_matrix] = {}
        self._idle: dict[tuple[str, float], np.ndarray] = {}
        self._codes: dict[tuple, int] = {}
        self._segments: list[sparse.csr_matrix] = []

    def initial_state(self, spam: SpamModel) -> np.ndarray:
        return reduce(np.kron, [spam.initial_qubit_state(q) for q in self.order])

    def _target_superop(self, op: GateOp) -> np.ndarray:
        """The op's action on its own targets, in target order."""
        noise = self.noise
        if op.kind is GateKind.TRANSFER:
            direction, half = op.params["direction"], op.params.get("half")
            table = noise.half_transfer_channels if half else noise.transfer_channels
            try:
                return table[direction].superoperator
            except KeyError:
                kind = "half-transfer" if half else "transfer"
                raise KeyError(f"noise model has no {kind} channel for {direction}") from None
        u = op_matrix(op)
        superop = np.kron(u, u.conj())
        lam = 0.0
        if op.kind is GateKind.SQ_ROT:
            lam = noise.sq_depolarizing.get(op.targets[0], 0.0)
        elif op.kind is GateKind.CZ:
            lam = noise.cz_depolarizing.get(frozenset(op.targets), 0.0)
        if lam > 0.0:
            superop = depolarizing_channel(lam, len(op.targets)).superoperator @ superop
        return superop

    def _idle_superop(self, qubit: str, duration_s: float) -> np.ndarray:
        """Relaxation and pure dephasing of a bystander for the op's
        duration, each from its own table (a qubit may have either alone),
        built on the first call for each (qubit, duration)."""
        key = (qubit, duration_s)
        if key in self._idle:
            return self._idle[key]
        superop = np.eye(4)
        t1 = self.noise.qubit_t1_s.get(qubit)
        tphi = self.noise.qubit_tphi_s.get(qubit, math.inf)
        if duration_s > 0:
            channel = None
            if t1 is not None:
                channel = amplitude_damping_channel(1.0 - math.exp(-duration_s / t1))
            if math.isfinite(tphi):
                # coherences shrink by (1 - 2p) = exp(-duration / Tphi)
                dephasing = dephasing_channel(0.5 * (1.0 - math.exp(-duration_s / tphi)))
                channel = dephasing if channel is None else dephasing.compose(channel)
            if channel is not None:
                superop = channel.superoperator
        self._idle[key] = superop
        return superop

    def _compile(self, op: GateOp) -> sparse.csr_matrix:
        """The op's Pauli-transfer matrix on the whole register.

        The Kronecker product of the blocks (the op on its targets, then each
        bystander's idle channel) is multiplied out from their nonzeros: each
        block's row, column and value arrays are combined with the product
        so far by broadcasting, in block order, so every value is the same
        left-to-right product (r1 * r2) * r3 ... that the Kronecker product
        of the sparse blocks forms.
        """
        blocks = [(self._target_superop(op), op.targets)]
        blocks += [
            (self._idle_superop(q, op.duration_s), (q,))
            for q in self.order
            if q not in op.targets
        ]
        rows, cols, values = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), np.ones(1)
        for superop, _ in blocks:
            r = _pauli_transfer(superop)
            r_rows, r_cols = np.nonzero(r)
            rows = (rows[:, None] * len(r) + r_rows).ravel()
            cols = (cols[:, None] * len(r) + r_cols).ravel()
            values = (values[:, None] * r[r_rows, r_cols]).ravel()
        # one Pauli digit per qubit: map the Kronecker product's digits (block
        # order) onto the register's
        axes = [self.order.index(q) for _, qubits in blocks for q in qubits]
        to_register = np.arange(4**self.n).reshape((4,) * self.n).transpose(axes).reshape(-1)
        return sparse.csr_matrix(
            (values, (to_register[rows], to_register[cols])), shape=(4**self.n, 4**self.n)
        )

    def _compiled_op(self, op: GateOp) -> sparse.csr_matrix:
        matrix = self._ops.get(op.key)
        if matrix is None:
            matrix = self._ops[op.key] = self._compile(op)
        return matrix

    def encode(self, segments) -> np.ndarray:
        """A circuit's segment codes, compiling each segment the first time;
        the segments are cliffords.Segment, which carry their keys.  The
        model first gets the transfer ops of the new segments
        (NoiseModel._extract), so a model with a device extracts every
        channel they need and it lacks in one propagation."""
        segments = list(segments)
        new = [segment for segment in segments if segment.key not in self._codes]
        self.noise._extract([op for s in new for op in s if op.kind is GateKind.TRANSFER])
        return np.array([self._code(segment) for segment in segments], dtype=np.int32)

    def _code(self, segment: Segment) -> int:
        """The segment's code, compiling it the first time: the product of
        its parts' matrices for a joined segment, each part coded and
        compiled once like any other segment, else of its ops' matrices."""
        code = self._codes.get(segment.key)
        if code is None:
            if segment.parts:
                factors = [self._segments[self._code(part)] for part in segment.parts]
            else:
                factors = [self._compiled_op(op) for op in segment]
            matrix = factors[0]
            for factor in factors[1:]:
                matrix = factor @ matrix
            code = self._codes[segment.key] = len(self._segments)
            self._segments.append(matrix)
        return code

    def evolve(self, rho: np.ndarray, circuits) -> np.ndarray:
        """Pauli vectors, one column per circuit (its segment codes, -1 for
        a hole), each circuit run from the density matrix rho.

        The circuits advance in lockstep: at each position, the circuits
        that run the same segment share one sparse product.  The batch is
        held as one state row per circuit, so a group gathers whole rows.
        The groups come from one stable sort per block of at most
        _EVOLVE_BLOCK positions, on the key position * (segments + 1) + code
        with the holes dropped; the sort keeps positions in order and, within
        a group, the circuits in batch order.  The result is the transpose
        of the rows, shape (4^n, circuits).  A code outside [-1, segments)
        raises ValueError: in the key it would join another position's group.
        """
        stride = len(self._segments) + 1
        codes = _code_rows(circuits, len(self._segments))
        states = np.repeat(to_pauli(rho)[None, :], len(circuits), axis=0)
        for begin in range(0, codes.shape[1], _EVOLVE_BLOCK):
            block = codes[:, begin : begin + _EVOLVE_BLOCK].T  # (positions, circuits)
            runs = block >= 0
            position = np.arange(len(block), dtype=np.int32)[:, None]
            keys = (position * stride + block)[runs]
            order = np.argsort(keys, kind="stable")
            keys, rows = keys[order], np.nonzero(runs)[1][order]
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            for start, end, code in zip(
                starts.tolist(), [*starts[1:].tolist(), len(keys)], (keys[starts] % stride).tolist()
            ):
                group = rows[start:end]
                states[group] = (self._segments[code] @ states[group].T).T
        return states.T

    def run(self, rho: np.ndarray, segments) -> np.ndarray:
        """Density matrix after one circuit: a batch of one."""
        return from_pauli(self.evolve(rho, [self.encode(segments)])[:, 0])


# The last runner built on each register, by qubit order.  It is keyed on
# the model's identity, not its contents: an equal model built afresh (one
# benchmark round's) compiles its own ops.  Replacing the register's entry
# drops the previous model's runner, so this table keeps at most one model
# per register alive, however many a caller keeps.
_RUNNERS: dict[tuple[str, ...], _CircuitRunner] = {}


def circuit_runner(noise: NoiseModel, qubit_order: tuple[str, ...]) -> _CircuitRunner:
    """The executor of ``noise`` on the register ``qubit_order``: the
    register's last runner when it was built for this very model object,
    otherwise a new one, which replaces it."""
    order = tuple(qubit_order)
    runner = _RUNNERS.get(order)
    if runner is None or runner.noise is not noise:
        runner = _RUNNERS[order] = _CircuitRunner(noise, order)
    return runner


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class RbRecord:
    length: int
    seed: int
    shots: int
    survival: float
    spectator_l1: float
    spectator_l2: float


@dataclass
class RbDataset:
    """Per-sequence benchmarking results.

    survival is the protocol's return probability (carrier read 0 for
    network benchmarking, both data qubits read 0 for two-qubit RB);
    spectator_l1 / spectator_l2 are the l-qubit ground-state populations of
    the same shots.
    """

    protocol: str
    records: list[RbRecord]

    def lengths(self) -> list[int]:
        return sorted({r.length for r in self.records})

    def series(self, channel: str = "survival"):
        """(lengths, mean, sem) arrays for one recorded channel."""
        if channel not in ("survival", "spectator_l1", "spectator_l2"):
            raise ValueError(f"unknown channel {channel!r}")
        lengths = self.lengths()
        means = np.empty(len(lengths))
        sems = np.empty(len(lengths))
        for i, n in enumerate(lengths):
            vals = np.array(
                [getattr(r, channel) for r in self.records if r.length == n]
            )
            means[i] = vals.mean()
            sems[i] = vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
        return np.array(lengths), means, sems

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.length},{r.seed},{r.shots},{r.survival:.9f},"
                f"{r.spectator_l1:.9f},{r.spectator_l2:.9f}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# protocols


def _ground(measured: np.ndarray, order: tuple[str, ...], qubits):
    """Probability that every qubit in ``qubits`` reads 0, from an outcome
    distribution over the register ``order`` (first qubit the most
    significant bit).  A stack of distributions, shape (..., 2^n), gives
    one probability per distribution."""
    n = len(order)
    mask = sum(1 << (n - 1 - order.index(q)) for q in qubits)
    # a boolean selection on the last axis lays that axis out outermost, and
    # a sum over it adds in another order than for one distribution alone;
    # contiguous rows are summed row by row, each as it would be alone
    kept = np.ascontiguousarray(measured[..., (np.arange(measured.shape[-1]) & mask) == 0])
    return kept.sum(axis=-1)


def _check_counts(lengths, seeds_per_length: int, shots: int) -> None:
    repeated = sorted(n for n, count in Counter(lengths).items() if count > 1)
    if repeated:
        raise ValueError(f"sequence lengths must be distinct, got {repeated} more than once")
    if seeds_per_length < 0:
        raise ValueError(f"seeds_per_length must be >= 0, got {seeds_per_length}")
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")


def _run_sequences(
    noise: NoiseModel,
    spam: SpamModel | None,
    order: tuple[str, ...],
    lengths: tuple[int, ...],
    seeds_per_length: int,
    shots: int,
    stream: RngHandle,
    draw,
    segment,
) -> list[RbRecord]:
    """One record per (length, seed) on the register ``order``.

    ``draw(length, gens)`` draws the sequences of one length, one per
    generator, and returns them as one (k, L) int array of slot entries
    (segment ids of the protocol's slot template, -1 for a hole), a row per
    generator, and the qubits whose joint ground population is their
    survival; ``segment(id)`` builds the segment of an id.  Each
    (length, seed) pair has its own named stream under ``stream``, whose one
    generator draws its sequence's row and then its shots, so the dataset
    is reproducible record by record, whatever else the batch holds.  Every
    length is drawn first.  Only the segment ids the run uses are encoded,
    once each, so a transfer channel is still extracted only when a drawn
    circuit runs it; one array lookup then turns every sequence into
    segment codes, holes staying -1, and the executor runs them all as one
    batch.  The executor is ``circuit_runner``'s for this model and
    register, so a second run on the same model (IRB after TQRB) compiles
    only the segments the first did not; which segments a runner already
    holds changes their codes, never a state.  The whole batch then passes
    through one ``spam_apply`` call, each record's shots drawn from its
    own generator.
    """
    spam = spam if spam is not None else SpamModel.ideal(order)
    runner = circuit_runner(noise, order)
    drawn, batches = [], []
    for n in lengths:
        gens = [stream.stream(n, seed).generator() for seed in range(seeds_per_length)]
        if not gens:
            continue
        ids, survivors = draw(n, gens)
        batches.append(ids)
        drawn += [(n, seed, gen, survivors) for seed, gen in enumerate(gens)]
    if not batches:
        return []
    used = np.unique(np.concatenate([ids.ravel() for ids in batches]))
    used = used[used >= 0]
    # the last entry, past every used id, is where a hole (-1) looks up
    codes = np.full(used.max(initial=-1) + 2, -1, dtype=np.int32)
    codes[used] = runner.encode([segment(int(i)) for i in used])
    circuits = [row for ids in batches for row in codes[ids]]
    states = runner.evolve(runner.initial_state(spam), circuits)
    gens = [gen for _, _, gen, _ in drawn]
    measured = spam_apply(pauli_populations(states).T, spam.confusion(order), gens, shots)
    survival = np.empty(len(drawn))
    for qubits in {survivors for *_, survivors in drawn}:
        rows = [i for i, (*_, survivors) in enumerate(drawn) if survivors == qubits]
        survival[rows] = _ground(measured[rows], order, qubits)
    spectators = [_ground(measured, order, (q,)) for q in ("L1", "L2")]
    return [
        RbRecord(n, seed, shots, *ground)
        for (n, seed, _, _), ground in zip(drawn, zip(survival, *spectators))
    ]


def _nb_template(cfg: DeviceConfig) -> SlotTemplate:
    """Network benchmarking's slot template: per step, the carrier's
    single-qubit Clifford as a frame slot (its leading virtual Z) and a
    pulse slot (the rest of its pulse train), then the transfer step to
    the other l-qubit.

    Row 24 c + e is element e on carrier L_QUBIT_PAIR[c]; segment id 24 c + u
    is element u's pulse train on that carrier, and the row's two Clifford
    slots hold the ids of e's frame and pulse parts
    (``cliffords.split_sq_slots``), -1 where a part runs nothing; segment
    id 48 + c is the transfer step away from carrier c.
    """
    sq_time, transfer_s = cfg.single_qubit_gate_time_s, cfg.transfer.total_duration_s
    rows = np.arange(48)
    slots = np.column_stack([split_sq_slots(rows), 48 + rows // 24])

    def segment(segment_id: int) -> Segment:
        if segment_id < 48:
            carrier = L_QUBIT_PAIR[segment_id // 24]
            return single_qubit_cliffords(carrier, sq_time)[segment_id % 24].segments[0]
        emitter, receiver = L_QUBIT_PAIR if segment_id == 48 else L_QUBIT_PAIR[::-1]
        return transfer_step(emitter, receiver, transfer_s)

    return SlotTemplate(slots, segment)


def run_network_benchmarking(
    noise: NoiseModel,
    spam: SpamModel | None = None,
    lengths: tuple[int, ...] = DEFAULT_NB_LENGTHS,
    seeds_per_length: int = DEFAULT_SEEDS_PER_LENGTH,
    shots: int = DEFAULT_SHOTS,
    rng: RngHandle | None = None,
    cfg: DeviceConfig | None = None,
) -> RbDataset:
    """Carrier-bouncing benchmarking of the transfer link.

    Each segment is a random single-qubit Clifford on the carrier, a pulse
    train at the configured gate time, then a ``transfer_step`` of the
    configured transfer duration to the other l-qubit.  Sequence lengths
    must be even so the carrier ends where it started and a single local
    Clifford can invert the composite.  The sequences of one length are
    drawn together as rows of the NB slot template (``_nb_template``), each
    Clifford a frame slot and a pulse slot: one draw of each sequence's
    elements, then one ``invert_sequence`` call on their matrices stacked
    (k, n, 2, 2), whose element closes the sequence as the Clifford slots of
    its row.  ``shots``, ``seeds_per_length`` and repeated ``lengths`` are
    checked before anything is drawn, compiled or extracted.
    """
    _check_counts(lengths, seeds_per_length, shots)
    cfg = cfg if cfg is not None else load_config()
    rng = rng if rng is not None else RngHandle(seed=0)
    for n in lengths:
        if n < 2 or n % 2:
            raise ValueError(f"sequence lengths must be even and >= 2, got {n}")
    template = _nb_template(cfg)
    unitaries = np.array([elem.unitary for elem in single_qubit_cliffords()])

    def draw(length, gens):
        elements = np.stack([gen.integers(len(unitaries), size=length) for gen in gens])
        carriers = np.arange(length) % 2
        final = length % 2  # the carrier after the last transfer
        inverse = invert_sequence(unitaries[elements])
        steps = template.slots[24 * carriers + elements].reshape(len(gens), -1)
        # the inverse's row, every slot but the transfer step
        closing = template.slots[24 * final + inverse.index, :-1]
        closing = np.broadcast_to(closing, (len(gens), template.slots.shape[1] - 1))
        return np.hstack([steps, closing]), (L_QUBIT_PAIR[final],)

    records = _run_sequences(
        noise,
        spam,
        L_QUBIT_PAIR,
        lengths,
        seeds_per_length,
        shots,
        rng.stream("nb"),
        draw,
        template.segment,
    )
    return RbDataset("NB", records)


def run_two_qubit_rb(
    noise: NoiseModel,
    spam: SpamModel | None = None,
    lengths: tuple[int, ...] = DEFAULT_TQRB_LENGTHS,
    seeds_per_length: int = DEFAULT_SEEDS_PER_LENGTH,
    shots: int = DEFAULT_SHOTS,
    rng: RngHandle | None = None,
    interleave: tuple[GateOp, ...] | None = None,
    cfg: DeviceConfig | None = None,
) -> RbDataset:
    """Clifford-group RB on the data qubits through compiled circuits.

    Every element executes its device circuit segment by segment: dressing
    pulses, local CZs, transfers.  With ``interleave`` the given composite
    (e.g. a compiled remote CNOT) runs as one segment after each random
    element; it must act as a two-qubit Clifford on the data block, which
    data_block_unitary enforces, and the fitted decay is meant to be divided
    by a reference run.  The sequences of one length are drawn together as
    rows of the 7-slot two-qubit template (``cliffords.two_qubit_template``),
    the interleaved composite in an 8th slot: one draw of each sequence's
    elements, one table lookup and one ``invert_sequence`` call on their
    matrices stacked (k, n, 4, 4), or (k, 2n, 4, 4) interleaved.  ``shots``,
    ``seeds_per_length`` and repeated ``lengths`` are checked before
    anything is drawn, compiled or extracted.
    """
    _check_counts(lengths, seeds_per_length, shots)
    cfg = cfg if cfg is not None else load_config()
    rng = rng if rng is not None else RngHandle(seed=0)
    for n in lengths:
        if n < 1:
            raise ValueError(f"sequence lengths must be >= 1, got {n}")
    template = two_qubit_template(cfg)
    segment = template.segment
    if interleave is not None:
        ops = Segment(interleave)
        inter_unitary = data_block_unitary(ops)
        inter_id = TWO_QUBIT_SEGMENT_IDS if ops else -1

        def segment(segment_id):
            return ops if segment_id == inter_id else template.segment(segment_id)

    protocol = "INTERLEAVED" if interleave is not None else "TQRB"

    def draw(length, gens):
        indices = np.stack([gen.integers(TWO_QUBIT_GROUP_ORDER, size=length) for gen in gens])
        rows, unitaries = template.slots[indices], _two_qubit_matrices(indices)
        if interleave is not None:
            inter_rows = np.full((*indices.shape, 1), inter_id, dtype=rows.dtype)
            rows = np.concatenate([rows, inter_rows], axis=-1)
            unitaries = np.stack([unitaries, np.broadcast_to(inter_unitary, unitaries.shape)], 2)
            unitaries = unitaries.reshape(len(gens), -1, 4, 4)
        inverse = invert_sequence(unitaries, cfg)
        # one closing row per sequence; an inverse of one index closes them all
        closing = template.slots[inverse.index]
        closing = np.broadcast_to(closing, (len(gens), template.slots.shape[1]))
        return np.hstack([rows.reshape(len(gens), -1), closing]), DATA_QUBITS

    records = _run_sequences(
        noise,
        spam,
        QUBIT_ORDER,
        lengths,
        seeds_per_length,
        shots,
        rng.stream("tqrb", protocol),
        draw,
        segment,
    )
    return RbDataset(protocol, records)


# ---------------------------------------------------------------------------
# decay fitting


class FitError(RuntimeError):
    """The decay fit did not converge."""


@dataclass(frozen=True)
class DecayFitResult:
    """Parameters of survival = amplitude * decay**n + offset.

    at_bound names the fitted parameters that sit on their box bound (see
    fit_exponential); their errors do not describe the data.
    """

    amplitude: float
    decay: float
    offset: float
    amplitude_err: float
    decay_err: float
    offset_err: float
    rate: float
    rate_convention: str
    residual_rms: float
    channel: str
    protocol: str
    at_bound: tuple[str, ...] = ()


_FIT_PARAMETERS = ("amplitude", "decay", "offset")
_FIT_BOUNDS = (np.array([0.0, 0.0, 0.0]), np.array([1.5, 1.0, 1.0]))
# the fit's trust-region iterates stay strictly inside the box, so a parameter
# pressed against a bound stops short of it, by well under this share of the box
_AT_BOUND = 1e-4


def _decay_model(n, a, p, b):
    return a * np.power(p, n) + b


def _rate_convention(protocol: str, channel: str) -> tuple[str, float]:
    if channel != "survival":
        return "leak per segment = 1 - p", 1.0
    if protocol == "NB":
        return "EPS = (1 - p) / 2", 0.5
    if protocol in ("TQRB", "INTERLEAVED"):
        return "EPG = 3 (1 - p) / 4", 0.75
    raise ValueError(f"unknown protocol {protocol!r}")


def fit_exponential(data: RbDataset, channel: str = "survival") -> DecayFitResult:
    """Weighted least-squares fit of A p^n + B to one recorded channel.

    Per-length standard errors weight the residuals.  Constant data (every
    mean identical, e.g. a noiseless run) short-circuits to p = 1 with zero
    rate, since the model is degenerate there.  A fitted parameter within
    _AT_BOUND of the box width from a bound is named in at_bound.
    """
    lengths, means, sems = data.series(channel)
    if len(lengths) < 3:
        raise ValueError("need at least three distinct sequence lengths to fit")
    convention, factor = _rate_convention(data.protocol, channel)
    if np.ptp(means) < 1e-12:
        return DecayFitResult(
            amplitude=0.0,
            decay=1.0,
            offset=float(means[0]),
            amplitude_err=0.0,
            decay_err=0.0,
            offset_err=0.0,
            rate=0.0,
            rate_convention=convention,
            residual_rms=0.0,
            channel=channel,
            protocol=data.protocol,
        )
    positive = sems[sems > 0]
    floor = positive.min() if positive.size else 1.0
    sigma = np.where(sems > 0, sems, floor)
    offset0 = float(np.clip(means[-1], 0.0, 1.0))
    amp0 = float(np.clip(means[0] - offset0, 0.05, 1.5))
    mid = len(lengths) // 2
    frac = np.clip((means[mid] - offset0) / amp0, 1e-3, 0.999)
    p0 = float(np.clip(frac ** (1.0 / lengths[mid]), 0.2, 0.9999))
    # imported on the first fit: scipy.optimize is the slowest import of the
    # package, and the commands that never fit (sweep, bell) skip it
    from scipy.optimize import curve_fit

    try:
        params, cov = curve_fit(
            _decay_model,
            lengths,
            means,
            p0=[amp0, p0, offset0],
            sigma=sigma,
            absolute_sigma=True,
            bounds=_FIT_BOUNDS,
            maxfev=20000,
        )
    except RuntimeError as exc:
        raise FitError(f"decay fit failed on channel {channel!r}: {exc}") from exc
    errs = np.sqrt(np.abs(np.diag(cov)))
    a, p, b = (float(v) for v in params)
    lower, upper = _FIT_BOUNDS
    near = np.minimum(params - lower, upper - params) <= _AT_BOUND * (upper - lower)
    residual = float(np.sqrt(np.mean((_decay_model(lengths, a, p, b) - means) ** 2)))
    return DecayFitResult(
        amplitude=a,
        decay=p,
        offset=b,
        amplitude_err=float(errs[0]),
        decay_err=float(errs[1]),
        offset_err=float(errs[2]),
        rate=factor * (1.0 - p),
        rate_convention=convention,
        residual_rms=residual,
        channel=channel,
        protocol=data.protocol,
        at_bound=tuple(name for name, hit in zip(_FIT_PARAMETERS, near) if hit),
    )


def eps_from_decay(fit: DecayFitResult, reference: DecayFitResult | None = None) -> float:
    """Error rate implied by a fitted decay.

    NB: EPS = (1 - p) / 2.  TQRB: EPG = 3 (1 - p) / 4.  INTERLEAVED needs the
    reference fit and uses the decay ratio, EPG = 3 (1 - p_int / p_ref) / 4.
    """
    _, factor = _rate_convention(fit.protocol, "survival")
    if fit.protocol != "INTERLEAVED":
        return factor * (1.0 - fit.decay)
    if reference is None:
        raise ValueError("interleaved estimates need the reference fit")
    return factor * (1.0 - fit.decay / reference.decay)
