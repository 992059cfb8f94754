"""Randomized benchmarking of interconnect circuits at the density-matrix level.

Two protocols share one noisy circuit executor and one sequence loop; each
supplies only how it draws a sequence and which qubits its survival reads.
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
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy import sparse
from scipy.optimize import curve_fit

from .channels import (
    QuantumChannel,
    amplitude_damping_channel,
    dephasing_channel,
    depolarizing_channel,
    excitation_pump_channel,
    ideal_transfer_channel,
)
from .cliffords import (
    DATA_QUBITS,
    L_QUBIT_PAIR,
    QUBIT_ORDER,
    TWO_QUBIT_GROUP_ORDER,
    CliffordElement,
    GateKind,
    GateOp,
    data_block_unitary,
    half_transfer_op,
    invert_sequence,
    op_matrix,
    single_qubit_cliffords,
    transfer_step,
    two_qubit_clifford,
)
from .config import DeviceConfig, load_config, pure_dephasing_rate
from .rng import RngHandle

TRANSFER_DIRECTIONS = ("L1->L2", "L2->L1")

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
    distribution: np.ndarray,
    spam: SpamModel,
    qubits: tuple[str, ...],
    rng: RngHandle | np.random.Generator,
    shots: int,
) -> np.ndarray:
    """Empirical outcome distribution after confusion and shot sampling.

    The ideal distribution over computational outcomes (first qubit is the
    most significant bit) is mixed by the tensor product of per-qubit
    confusion matrices, then ``shots`` outcomes are drawn multinomially.
    Returns counts / shots.
    """
    dist = np.asarray(distribution, dtype=float)
    if dist.ndim != 1 or dist.size != 2 ** len(qubits):
        raise ValueError("distribution size does not match the qubit list")
    if shots <= 0:
        raise ValueError("shots must be positive")
    dist = np.clip(dist, 0.0, None)
    total = dist.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        raise ValueError(f"distribution is not normalized: sum {total}")
    noisy = spam.confusion(qubits) @ (dist / total)
    noisy = np.clip(noisy, 0.0, None)
    noisy /= noisy.sum()
    gen = rng.generator() if isinstance(rng, RngHandle) else rng
    counts = gen.multinomial(shots, noisy)
    return counts / shots


# ---------------------------------------------------------------------------
# noise model


@dataclass
class NoiseModel:
    """Circuit-level noise attached to each kind of operation.

    transfer_channels maps a direction string to the CPTP map applied to the
    (L1, L2) pair in place of the ideal transfer unitary.  sq_depolarizing
    and cz_depolarizing are depolarizing probabilities added after each
    physical pulse / CZ.  With idle_decoherence set, qubits not addressed by
    an op relax and dephase for its duration.  The model holds noise only:
    the circuits it runs, and so every op's duration, come from the
    DeviceConfig the protocol is given.
    """

    transfer_channels: dict[str, QuantumChannel]
    half_transfer_channels: dict[str, QuantumChannel] = field(default_factory=dict)
    sq_depolarizing: dict[str, float] = field(default_factory=dict)
    cz_depolarizing: dict[frozenset, float] = field(default_factory=dict)
    idle_decoherence: bool = False
    qubit_t1_s: dict[str, float] = field(default_factory=dict)
    qubit_tphi_s: dict[str, float] = field(default_factory=dict)

    def validate(self) -> "NoiseModel":
        for table in (self.transfer_channels, self.half_transfer_channels):
            for direction, channel in table.items():
                if direction not in TRANSFER_DIRECTIONS:
                    raise ValueError(f"unknown transfer direction {direction!r}")
                if channel.dim != 4:
                    raise ValueError("transfer channels act on the l-qubit pair")
                channel.validate()
        for label, probs in (
            ("sq_depolarizing", self.sq_depolarizing),
            ("cz_depolarizing", self.cz_depolarizing),
        ):
            for key, p in probs.items():
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"{label}[{key}] out of range: {p}")
        return self

    @classmethod
    def ideal(cls) -> "NoiseModel":
        """Lossless swaps, no gate noise, no decoherence."""
        swap = ideal_transfer_channel()
        return cls(
            transfer_channels={d: swap for d in TRANSFER_DIRECTIONS},
            half_transfer_channels={
                d: QuantumChannel.from_unitary(
                    op_matrix(half_transfer_op(d, 0.0)), label=f"half_transfer({d})"
                )
                for d in TRANSFER_DIRECTIONS
            },
        )

    @classmethod
    def with_transfer_depolarizing(cls, infidelity: float) -> "NoiseModel":
        """Ideal swap followed by depolarizing on the received qubit.

        A single-qubit depolarizing with probability lam has average
        infidelity lam / 2, so the channel is built with lam = 2 * infidelity
        and network benchmarking should report EPS equal to ``infidelity``.
        """
        if not 0.0 <= infidelity < 0.5:
            raise ValueError("transfer infidelity must lie in [0, 0.5)")
        lam = 2.0 * infidelity
        swap = ideal_transfer_channel()
        one = depolarizing_channel(lam)
        ident = QuantumChannel.identity(2)
        channels = {}
        for direction in TRANSFER_DIRECTIONS:
            receiver = direction.split("->")[1]
            pair = ident.tensor(one) if receiver == "L2" else one.tensor(ident)
            channels[direction] = pair.compose(swap)
        return cls(transfer_channels=channels)

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
        swap = ideal_transfer_channel()
        pump = excitation_pump_channel(leak_prob)
        ident = QuantumChannel.identity(2)
        channels = {}
        for direction in TRANSFER_DIRECTIONS:
            emitter = direction.split("->")[0]
            pair = pump.tensor(ident) if emitter == "L1" else ident.tensor(pump)
            channels[direction] = pair.compose(swap)
        return cls(transfer_channels=channels)

    @classmethod
    def from_config(
        cls,
        cfg: DeviceConfig | None = None,
        transfer_channels: dict[str, QuantumChannel] | None = None,
        half_transfer_channels: dict[str, QuantumChannel] | None = None,
        include_half: bool = False,
    ) -> "NoiseModel":
        """Full device noise: extracted transfer channels, per-pulse
        depolarizing from the calibrated Clifford errors, CZ depolarizing
        from the calibrated gate errors, and idle decoherence.

        Building the transfer channels integrates the pulse-level model for
        both directions, which takes a while; pass precomputed channels to
        skip it.  Calibrated single-qubit Clifford errors count one physical
        pulse per Clifford on average, so the per-pulse depolarizing
        probability is 2 * error (average infidelity of depolarizing is
        lam / 2).
        """
        from .dynamics import extract_channel
        from .pulses import build_transfer_schedule, reverse_schedule

        cfg = cfg if cfg is not None else load_config()

        def both_directions(forward):
            return {
                "L1->L2": extract_channel(cfg, forward, lossy=True),
                "L2->L1": extract_channel(cfg, reverse_schedule(forward), lossy=True),
            }

        if transfer_channels is None:
            transfer_channels = both_directions(build_transfer_schedule(cfg))
        if half_transfer_channels is None and include_half:
            half_transfer_channels = both_directions(
                build_transfer_schedule(cfg, method="sqrt_satd")
            )
        qubits = [*cfg.l_qubits, *cfg.data_qubits]
        rates = {q.name: pure_dephasing_rate(q) for q in qubits}
        tphi = {name: 1.0 / r if r > 0 else math.inf for name, r in rates.items()}
        return cls(
            transfer_channels=transfer_channels,
            half_transfer_channels=half_transfer_channels or {},
            sq_depolarizing={q.name: 2.0 * q.sq_clifford_error for q in qubits},
            cz_depolarizing={
                frozenset(g.pair): g.error_per_gate * 4.0 / 3.0 for g in cfg.cz_gates
            },
            idle_decoherence=True,
            qubit_t1_s={q.name: q.t1_s for q in qubits},
            qubit_tphi_s=tphi,
        )


# ---------------------------------------------------------------------------
# noisy circuit execution


class _CircuitRunner:
    """Executes circuits on a density matrix under a NoiseModel.

    A circuit is a sequence of segments, fixed op tuples that recur across
    the circuits of a run (one remote CNOT, one single-qubit Clifford on one
    qubit, one network-benchmarking transfer step).  Each distinct op is
    compiled once into one sparse superoperator on the row-major vec of the
    whole register: the op's unitary (or transfer channel) followed by its
    depolarizing, tensored with every other qubit's idle decoherence for the
    op's duration.  Each distinct segment is compiled once into the product
    of its ops' superoperators, so running a segment is one sparse
    matrix-vector product.  CSR storage keeps a 4-qubit op at 256-6,400
    nonzeros and a remote CNOT at about 7,200, instead of a dense 256x256
    matrix.  Both caches live as long as the runner.
    """

    def __init__(self, noise: NoiseModel, qubit_order: tuple[str, ...]):
        self.noise = noise
        self.order = tuple(qubit_order)
        self.n = len(self.order)
        self._ops: dict[tuple, sparse.csr_matrix] = {}
        self._segments: dict[tuple, sparse.csr_matrix] = {}

    def initial_state(self, spam: SpamModel) -> np.ndarray:
        return reduce(np.kron, [spam.initial_qubit_state(q) for q in self.order])

    def _target_superop(self, op: GateOp) -> np.ndarray:
        """The op's action on its own targets, in target order."""
        noise = self.noise
        if op.kind is GateKind.TRANSFER:
            direction = op.params["direction"]
            half = bool(op.params.get("half"))
            table = noise.half_transfer_channels if half else noise.transfer_channels
            channel = table.get(direction)
            if channel is None:
                kind = "half-transfer" if half else "transfer"
                raise KeyError(f"noise model has no {kind} channel for {direction}")
            return channel.superoperator
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
        """Relaxation and pure dephasing of a bystander for the op's duration."""
        t1 = self.noise.qubit_t1_s.get(qubit)
        if not self.noise.idle_decoherence or duration_s <= 0 or t1 is None:
            return np.eye(4)
        channel = amplitude_damping_channel(1.0 - math.exp(-duration_s / t1))
        tphi = self.noise.qubit_tphi_s.get(qubit, math.inf)
        if math.isfinite(tphi):
            # coherences shrink by (1 - 2p) = exp(-duration / Tphi)
            p = 0.5 * (1.0 - math.exp(-duration_s / tphi))
            channel = dephasing_channel(p).compose(channel)
        return channel.superoperator

    def _compile(self, op: GateOp) -> sparse.csr_matrix:
        blocks = [(self._target_superop(op), op.targets)]
        blocks += [
            (self._idle_superop(q, op.duration_s), (q,))
            for q in self.order
            if q not in op.targets
        ]
        # each block acts on its qubits' row bits then column bits; map the
        # Kronecker product's index onto the register's (rows, columns) order
        n = self.n
        axes = []
        for _, qubits in blocks:
            positions = [self.order.index(q) for q in qubits]
            axes += positions + [n + p for p in positions]
        to_register = np.arange(4**n).reshape((2,) * (2 * n)).transpose(axes).reshape(-1)
        product = reduce(
            lambda a, b: sparse.kron(a, b, format="coo"),
            (sparse.coo_matrix(superop) for superop, _ in blocks),
        )
        return sparse.csr_matrix(
            (product.data, (to_register[product.row], to_register[product.col])),
            shape=product.shape,
        )

    def _compiled_op(self, op: GateOp) -> sparse.csr_matrix:
        superop = self._ops.get(op.key)
        if superop is None:
            superop = self._ops[op.key] = self._compile(op)
        return superop

    def _compile_segment(self, segment) -> sparse.csr_matrix:
        superop = self._compiled_op(segment[0])
        for op in segment[1:]:
            superop = self._compiled_op(op) @ superop
        return superop

    def run(self, rho: np.ndarray, segments) -> np.ndarray:
        """Apply each segment (a non-empty tuple of ops) in turn."""
        v = np.asarray(rho, dtype=complex).reshape(-1)
        for segment in segments:
            key = tuple([op.key for op in segment])
            superop = self._segments.get(key)
            if superop is None:
                superop = self._segments[key] = self._compile_segment(segment)
            v = superop @ v
        return v.reshape(2**self.n, 2**self.n)


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


def _ground(measured: np.ndarray, order: tuple[str, ...], qubits) -> float:
    """Probability that every qubit in ``qubits`` reads 0, from an outcome
    distribution over the register ``order`` (first qubit the most
    significant bit)."""
    n = len(order)
    mask = sum(1 << (n - 1 - order.index(q)) for q in qubits)
    return measured[(np.arange(measured.size) & mask) == 0].sum()


def _run_sequences(
    noise: NoiseModel,
    spam: SpamModel | None,
    order: tuple[str, ...],
    lengths: tuple[int, ...],
    seeds_per_length: int,
    shots: int,
    stream: RngHandle,
    draw,
) -> list[RbRecord]:
    """One record per (length, seed) on the register ``order``.

    ``draw(length, gen)`` returns a sequence's segments and the qubits whose
    joint ground population is its survival.  Each (length, seed) pair has
    its own named stream under ``stream``, whose one generator draws the
    sequence and then the shots, so the dataset is reproducible record by
    record regardless of execution order.
    """
    noise.validate()
    spam = spam if spam is not None else SpamModel.ideal(order)
    runner = _CircuitRunner(noise, order)
    rho0 = runner.initial_state(spam)
    records = []
    for n in lengths:
        for seed in range(seeds_per_length):
            gen = stream.stream(n, seed).generator()
            segments, survivors = draw(n, gen)
            rho = runner.run(rho0, segments)
            measured = spam_apply(np.real(np.diag(rho)), spam, order, gen, shots)
            ground = [_ground(measured, order, q) for q in (survivors, ("L1",), ("L2",))]
            records.append(RbRecord(n, seed, shots, *ground))
    return records


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
    Clifford can invert the composite.
    """
    cfg = cfg if cfg is not None else load_config()
    rng = rng if rng is not None else RngHandle(seed=0)
    for n in lengths:
        if n < 2 or n % 2:
            raise ValueError(f"sequence lengths must be even and >= 2, got {n}")
    sq_time, transfer_s = cfg.single_qubit_gate_time_s, cfg.transfer.total_duration_s

    def draw(length, gen):
        carrier, sequence, segments = "L1", [], []
        for _ in range(length):
            elements = single_qubit_cliffords(carrier, sq_time)
            elem = elements[int(gen.integers(len(elements)))]
            receiver = "L2" if carrier == "L1" else "L1"
            sequence.append(elem)
            segments += elem.segments
            segments.append(transfer_step(carrier, receiver, transfer_s))
            carrier = receiver
        inverse = invert_sequence(sequence)
        segments += single_qubit_cliffords(carrier, sq_time)[inverse.index].segments
        return segments, (carrier,)

    records = _run_sequences(
        noise, spam, L_QUBIT_PAIR, lengths, seeds_per_length, shots, rng.stream("nb"), draw
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
    by a reference run.
    """
    cfg = cfg if cfg is not None else load_config()
    rng = rng if rng is not None else RngHandle(seed=0)
    for n in lengths:
        if n < 1:
            raise ValueError(f"sequence lengths must be >= 1, got {n}")
    inter_elem = None
    if interleave is not None:
        ops = tuple(interleave)
        inter_elem = CliffordElement(
            index=-1,
            unitary=data_block_unitary(ops),
            segments=(ops,) if ops else (),
            cnot_count=0,
        )
    protocol = "INTERLEAVED" if inter_elem is not None else "TQRB"

    def draw(length, gen):
        sequence = []
        for _ in range(length):
            sequence.append(two_qubit_clifford(int(gen.integers(TWO_QUBIT_GROUP_ORDER)), cfg))
            if inter_elem is not None:
                sequence.append(inter_elem)
        sequence.append(invert_sequence(sequence, cfg))
        return [segment for elem in sequence for segment in elem.segments], DATA_QUBITS

    records = _run_sequences(
        noise,
        spam,
        QUBIT_ORDER,
        lengths,
        seeds_per_length,
        shots,
        rng.stream("tqrb", protocol),
        draw,
    )
    return RbDataset(protocol, records)


# ---------------------------------------------------------------------------
# decay fitting


class FitError(RuntimeError):
    """The decay fit did not converge."""


@dataclass(frozen=True)
class DecayFitResult:
    """Parameters of survival = amplitude * decay**n + offset."""

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
    rate, since the model is degenerate there.
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
    try:
        params, cov = curve_fit(
            _decay_model,
            lengths,
            means,
            p0=[amp0, p0, offset0],
            sigma=sigma,
            absolute_sigma=True,
            bounds=([0.0, 0.0, 0.0], [1.5, 1.0, 1.0]),
            maxfev=20000,
        )
    except RuntimeError as exc:
        raise FitError(f"decay fit failed on channel {channel!r}: {exc}") from exc
    errs = np.sqrt(np.abs(np.diag(cov)))
    a, p, b = (float(v) for v in params)
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
