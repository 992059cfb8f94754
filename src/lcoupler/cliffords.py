"""Clifford machinery for the two-module device.

Provides the 24 single-qubit Clifford elements with hardware-style
decompositions (at most two physical x pi/2 pulses plus virtual Z), uniform
two-qubit Clifford sampling through the layered class construction
(single-qubit layer, one of four entangler classes, single-qubit layer),
sequence inversion, and compilation of an abstract CNOT between the data
qubits into the composite the device can actually run: local CZ gates
conjugated by Y rotations plus two directional state transfers.

Two-qubit group algebra works on abstract 4x4 matrices; only decompositions
touch the 4-qubit register. Element lookup for inversion uses the tableau
(conjugation action on X1, Z1, X2, Z2 with signs), which is an exact
canonical form: 720 symplectic actions x 16 sign patterns = 11520 elements.

An element's decomposition is a sequence of segments: fixed op tuples that
recur across elements (one remote CNOT, one single-qubit Clifford on one
qubit, or a run of them joined into one), built once and shared, so an
executor can compile each segment once.  The two-qubit slot template
(``two_qubit_template``) is the one definition of their order: 7 slots, a
cycler slot per data qubit, the class core, and a frame and a pulse slot
per data qubit for the closing layer, each holding one segment id or a
hole, so that sequences drawn as id arrays stay aligned slot by slot.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import product as iter_product
from typing import NamedTuple

import numpy as np

from .channels import _PAULIS, ideal_transfer_unitary, time_ordered_product
from .config import DATA_QUBITS, L_QUBIT_PAIR, DeviceConfig, load_config

TRANSFER_DIRECTIONS = ("L1->L2", "L2->L1")
QUBIT_ORDER = ("D1", "L1", "L2", "D2")
CZ_PAIRS = (frozenset({"D1", "L1"}), frozenset({"L2", "D2"}))
ADJACENT_L = {"D1": "L1", "D2": "L2"}

TWO_QUBIT_CLASS_SIZES = (576, 5184, 5184, 576)
TWO_QUBIT_GROUP_ORDER = sum(TWO_QUBIT_CLASS_SIZES)


class GateKind(str, Enum):
    SQ_ROT = "sq_rot"
    CZ = "cz"
    TRANSFER = "transfer"
    VIRTUAL_Z = "virtual_z"


@dataclass(frozen=True)
class GateOp:
    """One primitive circuit operation on named qubits."""

    kind: GateKind
    targets: tuple[str, ...]
    params: dict = field(default_factory=dict)
    duration_s: float = 0.0

    def __post_init__(self):
        if self.duration_s < 0:
            raise ValueError("negative duration")
        if self.kind is GateKind.CZ:
            if frozenset(self.targets) not in CZ_PAIRS:
                raise ValueError(f"CZ targets {self.targets} are not a coupler pair")
        elif self.kind is GateKind.TRANSFER:
            if set(self.targets) != set(L_QUBIT_PAIR):
                raise ValueError("transfer targets must be the l-qubit pair")
            if self.params.get("direction") not in TRANSFER_DIRECTIONS:
                raise ValueError("transfer needs a direction of L1->L2 or L2->L1")
        elif self.kind in (GateKind.SQ_ROT, GateKind.VIRTUAL_Z):
            if len(self.targets) != 1:
                raise ValueError(f"{self.kind.value} takes exactly one target")
            if self.kind is GateKind.SQ_ROT and self.params.get("axis") not in ("x", "y", "z"):
                raise ValueError("rotation axis must be x, y or z")
            if "angle_rad" not in self.params:
                raise ValueError("rotation needs angle_rad")

    @cached_property
    def key(self) -> tuple:
        """Hashable identity of the op (kind, targets, params, duration),
        computed once per op object."""
        return (self.kind.value, self.targets, tuple(sorted(self.params.items())), self.duration_s)


class Segment(tuple):
    """A fixed op tuple that recurs across circuits, with its hashable
    ``key`` (its ops' keys), computed once when the segment is built.  The
    builders below are cached, so every element that runs a segment shares
    one object and an executor looks it up without rebuilding the key.

    A segment made by ``join`` runs its parts' ops one part after another
    and keeps the parts, so an executor can build it from the parts it has
    already compiled; any other segment has no parts."""

    parts: tuple[Segment, ...] = ()

    def __new__(cls, ops):
        segment = super().__new__(cls, ops)
        segment.key = tuple(op.key for op in segment)
        return segment

    @classmethod
    def join(cls, parts) -> "Segment":
        """One segment running ``parts`` in order; its ops and key are the
        parts' ops and keys, concatenated."""
        parts = tuple(parts)
        segment = super().__new__(cls, (op for part in parts for op in part))
        segment.key = tuple(key for part in parts for key in part.key)
        segment.parts = parts
        return segment


def sq_rot(qubit: str, axis: str, angle_rad: float, duration_s: float) -> GateOp:
    return GateOp(GateKind.SQ_ROT, (qubit,), {"axis": axis, "angle_rad": angle_rad}, duration_s)


def virtual_z(qubit: str, angle_rad: float) -> GateOp:
    return GateOp(GateKind.VIRTUAL_Z, (qubit,), {"angle_rad": angle_rad}, 0.0)


def cz_op(a: str, b: str, duration_s: float) -> GateOp:
    return GateOp(GateKind.CZ, (a, b), {}, duration_s)


def transfer_op(direction: str, duration_s: float) -> GateOp:
    return GateOp(GateKind.TRANSFER, L_QUBIT_PAIR, {"direction": direction}, duration_s)


def half_transfer_op(direction: str, duration_s: float) -> GateOp:
    """Square-root transfer: the sweep stops at 45 degrees, leaving the
    moved excitation split evenly across the pair."""
    return GateOp(
        GateKind.TRANSFER, L_QUBIT_PAIR, {"direction": direction, "half": True}, duration_s
    )


_PAULI = dict(zip("ixyz", _PAULIS))

CZ_UNITARY = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _rotation(axis: str, angle_rad: float) -> np.ndarray:
    return (
        np.cos(angle_rad / 2.0) * np.eye(2, dtype=complex)
        - 1j * np.sin(angle_rad / 2.0) * _PAULI[axis]
    )


def op_matrix(op: GateOp) -> np.ndarray:
    """Local unitary of a single op (2x2 or 4x4 on its own targets)."""
    if op.kind is GateKind.SQ_ROT:
        return _rotation(op.params["axis"], op.params["angle_rad"])
    if op.kind is GateKind.VIRTUAL_Z:
        return np.diag([1.0, np.exp(1j * op.params["angle_rad"])]).astype(complex)
    if op.kind is GateKind.CZ:
        return CZ_UNITARY.copy()
    # transfer: the emitter-first unitary, read in the fixed (L1, L2) basis
    u = ideal_transfer_unitary(bool(op.params.get("half")))
    if op.params["direction"] == "L2->L1":
        u = _SWAP @ u @ _SWAP
    return u


def circuit_unitary(ops, qubit_order: tuple[str, ...] = QUBIT_ORDER) -> np.ndarray:
    """Product of a gate list on the named register, first op applied first.

    The product is held as a (2,)*2n tensor, row axes first; each op's
    matrix is contracted with its targets' row axes by ``np.tensordot``,
    and the op's output axes are moved back to the targets' places.
    """
    n = len(qubit_order)
    u = np.eye(2**n, dtype=complex).reshape((2,) * (2 * n))
    for op in ops:
        axes = [qubit_order.index(q) for q in op.targets]
        k = len(axes)
        m = op_matrix(op).reshape((2,) * (2 * k))
        u = np.moveaxis(np.tensordot(m, u, axes=(range(k, 2 * k), axes)), range(k), axes)
    return u.reshape(2**n, 2**n)


# ---------------------------------------------------------------------------
# single-qubit group


def _phase_keys(u: np.ndarray, decimals: int = 9) -> list[bytes]:
    """One key per matrix stacked in ``u`` (..., d, d): the matrix divided
    by the phase of its first entry of modulus above 1e-6, rounded to
    ``decimals``, as bytes, so matrices equal up to a global phase share a
    key."""
    u = np.asarray(u, dtype=complex)
    flat = u.reshape(-1, u.shape[-2] * u.shape[-1])
    first = np.argmax(np.abs(flat) > 1e-6, axis=1)
    normed = flat * np.exp(-1j * np.angle(flat[np.arange(len(flat)), first]))[:, None]
    # +0.0 collapses negative zeros so equal matrices share bytes
    return [row.tobytes() for row in np.round(normed, decimals) + 0.0]


def _rz(angle_rad: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * angle_rad), np.exp(0.5j * angle_rad)])


_X90 = _rotation("x", np.pi / 2.0)


@lru_cache(maxsize=None)
def _single_qubit_table():
    """24 matrices with minimal-pulse descriptors, in fixed enumeration order.

    A descriptor is (n_pulses, z_steps): z_steps are quarter-turn counts
    around the physical x pi/2 pulses, time-ordered first to last.
    """
    candidates = [(_rz(a * np.pi / 2.0), (0, (a,))) for a in range(4)]
    candidates += [
        (_rz(b * np.pi / 2.0) @ _X90 @ _rz(a * np.pi / 2.0), (1, (a, b)))
        for b, a in iter_product(range(4), repeat=2)
    ]
    candidates += [
        (
            _rz(c * np.pi / 2.0) @ _X90 @ _rz(b * np.pi / 2.0) @ _X90 @ _rz(a * np.pi / 2.0),
            (2, (a, b, c)),
        )
        for c, b, a in iter_product(range(4), repeat=3)
    ]
    mats, descs, index_of = [], [], {}
    keys = _phase_keys(np.array([u for u, _ in candidates]))
    for key, (u, desc) in zip(keys, candidates):
        if key not in index_of:
            index_of[key] = len(mats)
            mats.append(u)
            descs.append(desc)
    if len(mats) != 24:
        raise RuntimeError("single-qubit enumeration did not close at 24")
    return tuple(mats), tuple(descs), index_of


@lru_cache(maxsize=None)
def _sq_ops(desc, qubit: str, gate_time_s: float) -> Segment:
    n_pulses, z_steps = desc
    ops: list[GateOp] = []

    def z(step):
        if step % 4:
            ops.append(virtual_z(qubit, (step % 4) * np.pi / 2.0))

    z(z_steps[0])
    for step in z_steps[1:]:
        ops.append(sq_rot(qubit, "x", np.pi / 2.0, gate_time_s))
        z(step)
    assert n_pulses == len(z_steps) - 1
    return Segment(ops)


@dataclass(frozen=True, eq=False)
class CliffordElement:
    """A group element and the device circuit that runs it.

    ``segments`` are the circuit's fixed op tuples in execution order, each
    shared by every element that runs it; ``decomposition`` is their
    concatenation.
    """

    index: int
    unitary: np.ndarray
    segments: tuple[Segment, ...]
    cnot_count: int = 0

    @property
    def decomposition(self) -> tuple[GateOp, ...]:
        return tuple(op for segment in self.segments for op in segment)


@lru_cache(maxsize=None)
def single_qubit_cliffords(
    qubit: str = "q0", gate_time_s: float = DeviceConfig.single_qubit_gate_time_s
) -> tuple[CliffordElement, ...]:
    """All 24 elements; index 0 is the identity with an empty decomposition."""
    mats, descs, _ = _single_qubit_table()
    ops = [_sq_ops(desc, qubit, gate_time_s) for desc in descs]
    # each element is one segment, its op tuple; the identity runs none
    return tuple(CliffordElement(i, mats[i], (ops[i],) if ops[i] else ()) for i in range(24))


# ---------------------------------------------------------------------------
# two-qubit group via the layered class construction

# descriptor of the order-3 axis cycler E (X -> Y -> Z -> X): one x pi/2
# pulse followed by a quarter-turn virtual Z
_CYCLER_DESC = (1, (0, 1))

# iSWAP = (A x B) . CNOT(2->1) . CNOT(1->2) . (C x D), found by exhaustive
# search over the single-qubit group and pinned by a test at 1e-12
_ISWAP_DRESSING = {
    "a": (0, (1,)),
    "b": (1, (1, 3)),
    "c": (1, (0, 1)),
    "d": (0, (0,)),
}

_CNOT_12 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)

# first index of each class
_CLASS_STARTS = np.cumsum((0,) + TWO_QUBIT_CLASS_SIZES[:-1])


def _desc_index(desc) -> int:
    _, descs, _ = _single_qubit_table()
    return descs.index(desc)


@lru_cache(maxsize=None)
def _class_tables():
    """Factors of every element's matrix, layers[u1, u2] . reps[class] .
    cyclers[s1, s2]: the 24 x 24 single-qubit layers, the four class
    representatives and the 3 x 3 cycler layers (the identity at s = 0)."""
    mats = np.array(_single_qubit_table()[0])
    e_mat = mats[_desc_index(_CYCLER_DESC)]
    s3 = np.array([np.eye(2, dtype=complex), e_mat, e_mat @ e_mat])

    def krons(a, b):
        return np.einsum("aij,bkl->abikjl", a, b).reshape(len(a), len(b), 4, 4)

    reps = np.array([np.eye(4, dtype=complex), _CNOT_12, _ISWAP, _SWAP])
    return krons(mats, mats), reps, krons(s3, s3)


def _decode(index):
    """index -> (class_id, u1, u2, s1, s2), elementwise on integer arrays;
    the s factors are 0 outside classes 1 and 2."""
    class_id = np.searchsorted(_CLASS_STARTS, index, side="right") - 1
    # classes 1 and 2 carry 9 cycler layers per single-qubit layer
    per_layer = 1 + 8 * ((class_id == 1) | (class_id == 2))
    layer, s = divmod(index - _CLASS_STARTS[class_id], per_layer)
    u1, u2 = divmod(layer, 24)
    s1, s2 = divmod(s, 3)
    return class_id, u1, u2, s1, s2


def _check_index(index: int) -> None:
    if not 0 <= index < TWO_QUBIT_GROUP_ORDER:
        raise ValueError("two-qubit Clifford index out of range")


def decode_two_qubit_index(index: int) -> tuple[int, int, int, int, int]:
    """index -> (class_id, u1, u2, s1, s2); s factors are 0 outside classes 1, 2."""
    _check_index(index)
    return tuple(int(v) for v in _decode(index))


def _factor_product(class_id, u1, u2, s1, s2) -> np.ndarray:
    """Abstract 4x4 matrices of decoded elements (see ``_decode``)."""
    layers, reps, cyclers = _class_tables()
    return layers[u1, u2] @ reps[class_id] @ cyclers[s1, s2]


def _two_qubit_matrices(indices) -> np.ndarray:
    """Abstract 4x4 matrices of the elements, stacked in the shape of
    ``indices``."""
    return _factor_product(*_decode(indices))


def two_qubit_matrix(index: int) -> np.ndarray:
    """Abstract 4x4 matrix of the element, no device compilation."""
    _check_index(index)
    return _two_qubit_matrices(index)


@lru_cache(maxsize=None)
def _local_cnot(control: str, target: str, sq_time_s: float, cz_time_s: float):
    return (
        sq_rot(target, "y", np.pi / 2.0, sq_time_s),
        cz_op(control, target, cz_time_s),
        sq_rot(target, "y", -np.pi / 2.0, sq_time_s),
        virtual_z(control, np.pi),
    )


def local_cnot(control: str, target: str, cfg: DeviceConfig) -> list[GateOp]:
    """CNOT inside one module: the calibrated CZ conjugated by Y +/- pi/2 on
    the target, plus a virtual Z(pi) on the control."""
    cz_time = cfg.cz_for(control, target).duration_s
    return list(_local_cnot(control, target, cfg.single_qubit_gate_time_s, cz_time))


@lru_cache(maxsize=None)
def transfer_step(emitter: str, receiver: str, duration_s: float) -> Segment:
    """A circuit-level transfer: the move from emitter to receiver, then a
    virtual Z(pi) on the receiver that absorbs the dark-passage sign of the
    moved amplitude.  Every circuit that moves a state across the bus builds
    its transfers here, so a per-transfer frame correction belongs here too.
    """
    return Segment((transfer_op(f"{emitter}->{receiver}", duration_s), virtual_z(receiver, np.pi)))


@lru_cache(maxsize=None)
def _remote_cnot(
    control: str, target: str, sq_time_s: float, cz_near_s: float, cz_far_s: float,
    transfer_s: float,
) -> Segment:
    l_near, l_far = ADJACENT_L[control], ADJACENT_L[target]
    near = _local_cnot(control, l_near, sq_time_s, cz_near_s)
    return Segment(
        (
            *near,
            *transfer_step(l_near, l_far, transfer_s),
            *_local_cnot(l_far, target, sq_time_s, cz_far_s),
            *transfer_step(l_far, l_near, transfer_s),
            *near,
        )
    )


def compile_remote_cnot(
    control: str = "D1", target: str = "D2", cfg: DeviceConfig | None = None
) -> Segment:
    """Abstract CNOT(control -> target) between the data qubits.

    Copy the control onto the near l-qubit with a ``local_cnot``, move it
    across the bus, apply a local CNOT onto the far data qubit, move back and
    uncompute. Each move is a ``transfer_step``, whose virtual Z(pi) on the
    receiving l-qubit absorbs the dark-passage sign, so the composite equals
    CNOT exactly (no global-phase residue) with the l-pair back in |00>. The
    executor (``benchmarking._CircuitRunner``) applies no frequency-mismatch
    frame correction: it runs each transfer as the noise model's channel and
    nothing else.  Tracking the time-dependent mismatch phase is the
    ROADMAP's frame-tracking item.  The ops are built once per set of gate
    times, as one Segment shared by every caller and every two-qubit
    element that runs them.
    """
    cfg = cfg if cfg is not None else load_config()
    if {control, target} != set(DATA_QUBITS):
        raise ValueError("control and target must be the two data qubits")
    l_near, l_far = ADJACENT_L[control], ADJACENT_L[target]
    return _remote_cnot(
        control,
        target,
        cfg.single_qubit_gate_time_s,
        cfg.cz_for(control, l_near).duration_s,
        cfg.cz_for(l_far, target).duration_s,
        cfg.transfer.total_duration_s,
    )


_L00_INDICES = [
    i
    for i in range(16)
    if not (i >> QUBIT_ORDER[::-1].index("L1")) & 1
    and not (i >> QUBIT_ORDER[::-1].index("L2")) & 1
]


def data_block_unitary(ops, atol: float = 1e-9) -> np.ndarray:
    """4x4 action on (D1, D2) of a composite that keeps the l-pair in |00>."""
    full = circuit_unitary(ops, QUBIT_ORDER)
    block = full[np.ix_(_L00_INDICES, _L00_INDICES)]
    deficit = np.max(np.abs(block.conj().T @ block - np.eye(4)))
    if deficit > atol:
        raise ValueError(f"composite leaks out of the l=|00> sector by {deficit:.2e}")
    return block


class SlotTemplate(NamedTuple):
    """Every segment one element (or one protocol step) can run, in one
    fixed slot order.

    Row r of ``slots`` holds, slot by slot, the id of the segment entry r
    runs there, or -1 (a hole) where it runs none; ``segment(id)`` builds the
    segment of an id.  Circuits drawn as concatenated rows stay aligned slot
    by slot, whatever their elements.
    """

    slots: np.ndarray
    segment: Callable[[int], Segment]


# segment ids of the two-qubit template: 24 q + u is single-qubit element u
# on data qubit q (u = 0, the identity, runs none), then the remote CNOTs,
# then the joined segments (``_joined_parts``): the cycler twice on D1 and
# on D2, the iSWAP class's core and the SWAP class's core
_CNOT_FWD, _CNOT_REV = 48, 49
_CYCLER_PAIRS = 50  # + q, data qubit q
_ISWAP_CORE, _SWAP_CORE = 52, 53
TWO_QUBIT_SEGMENT_IDS = 54


@lru_cache(maxsize=None)
def _frame_pulse_parts() -> np.ndarray:
    """(24, 2) element indices: each single-qubit element's op train
    (``_sq_ops``) cut into its leading virtual Z, the frame part, and the
    rest of its pulse train, the pulse part.  Each part is itself the op
    train of an element, 0 (the identity) where the part runs nothing:
    the frame parts are Z(1), Z(2) and Z(3), the pulse parts X90,
    X90.Z(1), X90.Z(2), X90.Z(3) and X90.X90."""
    _, descs, _ = _single_qubit_table()
    trains = [_sq_ops(desc, "q0", DeviceConfig.single_qubit_gate_time_s) for desc in descs]
    element_of = {train.key: u for u, train in enumerate(trains)}
    parts = []
    for train in trains:
        lead = int(bool(train) and train[0].kind is GateKind.VIRTUAL_Z)
        parts.append([element_of[train.key[:lead]], element_of[train.key[lead:]]])
    return np.array(parts)


def split_sq_slots(ids) -> np.ndarray:
    """Frame and pulse slot entries, shape (..., 2), of single-qubit
    elements given as template segment ids 24 q + u (element u on the
    template's qubit q): the ids 24 q + the frame and pulse parts'
    elements (``_frame_pulse_parts``), -1 for a part that runs nothing.
    Both templates split their random single-qubit Cliffords here, so such
    a slot holds at most 3 (frame) or 5 (pulse) ids instead of 23."""
    qubit, element = np.divmod(np.asarray(ids), 24)
    parts = _frame_pulse_parts()[element]
    return np.where(parts != 0, 24 * qubit[..., None] + parts, -1)


@lru_cache(maxsize=None)
def _joined_parts() -> dict[int, tuple[int, ...]]:
    """The part ids of each joined segment id of the two-qubit template.
    Dressing d, on D2 after c, is the identity, so the iSWAP core has no
    part for it."""
    cycler = _desc_index(_CYCLER_DESC)
    dress = {name: _desc_index(desc) for name, desc in _ISWAP_DRESSING.items()}
    return {
        _CYCLER_PAIRS: (cycler, cycler),
        _CYCLER_PAIRS + 1: (24 + cycler, 24 + cycler),
        _ISWAP_CORE: (dress["c"], _CNOT_FWD, _CNOT_REV, dress["a"], 24 + dress["b"]),
        _SWAP_CORE: (_CNOT_FWD, _CNOT_REV, _CNOT_FWD),
    }


@lru_cache(maxsize=None)
def _two_qubit_slots() -> np.ndarray:
    """The (11520, 7) slot table of the two-qubit group, in run order: a
    cycler slot on D1 and one on D2 (S3 = {identity, E, E.E}: a hole, the
    cycler, or the two cyclers joined), the class core (class 1: the
    forward remote CNOT; class 2: the iSWAP dressing c, the forward then
    the reverse CNOT, the dressings a and b; class 3: the forward, reverse
    and forward CNOTs), then the closing single-qubit layer, a frame slot
    then a pulse slot on D1 and the same on D2 (``split_sq_slots``).  Each
    run of fixed segments is one joined segment (``_joined_parts``), so a
    circuit takes one executor position per slot, not one per segment."""
    class_id, u1, u2, s1, s2 = _decode(np.arange(TWO_QUBIT_GROUP_ORDER))
    cycler = _desc_index(_CYCLER_DESC)

    def cyclers(q, s):
        return np.choose(s, [-1, 24 * q + cycler, _CYCLER_PAIRS + q])

    core = np.array([-1, _CNOT_FWD, _ISWAP_CORE, _SWAP_CORE])[class_id]
    closing = [split_sq_slots(24 * q + u) for q, u in enumerate((u1, u2))]
    slots = np.column_stack([cyclers(0, s1), cyclers(1, s2), core, *closing]).astype(np.int16)
    slots.flags.writeable = False
    return slots


def two_qubit_template(cfg: DeviceConfig | None = None) -> SlotTemplate:
    """The two-qubit group's slot template on the device: 7 slots, taking
    2, 2 and 3 ids (the cycler slots and the class core) and 3, 5, 3 and 5
    (the closing layer's frame and pulse slots)."""
    cfg = cfg if cfg is not None else load_config()
    _, descs, _ = _single_qubit_table()

    def segment(segment_id: int) -> Segment:
        if segment_id < _CNOT_FWD:
            qubit, u = DATA_QUBITS[segment_id // 24], segment_id % 24
            return _sq_ops(descs[u], qubit, cfg.single_qubit_gate_time_s)
        if segment_id > _CNOT_REV:
            parts = _joined_parts()[segment_id]
            built = {i: segment(i) for i in set(parts)}
            return Segment.join(built[i] for i in parts)
        control, target = DATA_QUBITS if segment_id == _CNOT_FWD else DATA_QUBITS[::-1]
        return compile_remote_cnot(control, target, cfg)

    return SlotTemplate(_two_qubit_slots(), segment)


def two_qubit_clifford(index: int, cfg: DeviceConfig | None = None) -> CliffordElement:
    """Element by canonical index, with its device-compiled segments: its
    row of the slot template, holes left out.

    Each data qubit's cyclers are one segment, the class's remote CNOTs
    with the iSWAP dressings between them are one joined segment, and only
    the CNOT directions the class uses are compiled; each closing-layer
    Clifford is up to two segments, its leading virtual Z and the rest of
    its pulse train.
    """
    class_id, u1, u2, s1, s2 = decode_two_qubit_index(index)
    template = two_qubit_template(cfg)
    ids = [int(i) for i in template.slots[index] if i >= 0]
    built = {i: template.segment(i) for i in set(ids)}
    matrix = _factor_product(class_id, u1, u2, s1, s2)
    return CliffordElement(index, matrix, tuple(built[i] for i in ids), class_id)


# ---------------------------------------------------------------------------
# inversion

_GENERATORS_2Q = np.array([np.kron(_PAULI[p], _PAULI[q]) for p, q in ("xi", "zi", "ix", "iz")])
# Tr(P M) = vec(M) . vec(P^T): one product gives all 16 Pauli coefficients
_PAULI_TRACES = np.array(
    [np.kron(_PAULI[p], _PAULI[q]).T.reshape(16) for p in "ixyz" for q in "ixyz"]
).T
_LOOKUP_CHUNK = 1024


def _tableau_codes(u: np.ndarray) -> np.ndarray:
    """Tableau code of each stacked two-qubit Clifford in ``u`` (..., 4, 4).

    Conjugation maps generator k of (X1, Z1, X2, Z2) to +/-P for one of the
    16 Pauli strings (index w in "ixyz" x "ixyz" order); its digit is
    2 w + (1 if the sign is negative), and the code is sum_k digit_k 32^k.
    """
    images = u[..., None, :, :] @ _GENERATORS_2Q @ u.conj().swapaxes(-1, -2)[..., None, :, :]
    coeffs = images.reshape(*images.shape[:-2], 16) @ _PAULI_TRACES / 4.0
    which = np.argmax(np.abs(coeffs), axis=-1)
    c = np.take_along_axis(coeffs, which[..., None], axis=-1)[..., 0]
    if np.any(np.abs(np.abs(c) - 1.0) > 1e-8) or np.any(np.abs(c.imag) > 1e-8):
        raise ValueError("matrix is not a two-qubit Clifford")
    return (2 * which + (c.real < 0)) @ (32 ** np.arange(4))


class _TableauLookup(NamedTuple):
    codes: np.ndarray  # every element's tableau code, ascending
    indices: np.ndarray  # the element index of each code


@lru_cache(maxsize=None)
def _two_qubit_lookup() -> _TableauLookup:
    """Sorted tableau codes of the whole group, computed a chunk of elements
    at a time to bound the temporary arrays."""
    chunks = np.split(
        np.arange(TWO_QUBIT_GROUP_ORDER), range(_LOOKUP_CHUNK, TWO_QUBIT_GROUP_ORDER, _LOOKUP_CHUNK)
    )
    codes = np.concatenate([_tableau_codes(_two_qubit_matrices(c)) for c in chunks])
    order = np.argsort(codes)
    if np.any(np.diff(codes[order]) == 0):
        raise RuntimeError("two-qubit class construction produced duplicates")
    return _TableauLookup(codes[order], order)


class SequenceInverses(NamedTuple):
    """The inverting elements of a stack of sequences, by group index."""

    index: np.ndarray  # one index per sequence, in the stack's batch shape


def _inverse_indices(unitaries: np.ndarray) -> np.ndarray:
    """Group index of the element inverting each sequence in ``unitaries``
    (..., n, d, d), in the shape of the batch axes."""
    inverse = time_ordered_product(unitaries).conj().swapaxes(-1, -2)
    flat = inverse.reshape(-1, *inverse.shape[-2:])
    if inverse.shape[-1] == 2:
        _, _, index_of = _single_qubit_table()
        found = [index_of.get(key) for key in _phase_keys(flat)]
        if None in found:
            raise RuntimeError("sequence product is not in the single-qubit group")
        return np.array(found).reshape(inverse.shape[:-2])
    try:
        code = _tableau_codes(flat)
    except ValueError as exc:
        raise RuntimeError("sequence product is not in the two-qubit group") from exc
    codes, indices = _two_qubit_lookup()
    pos = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
    if np.any(codes[pos] != code):
        raise RuntimeError("sequence product is not in the two-qubit group")
    return indices[pos].reshape(inverse.shape[:-2])


def invert_sequence(
    seq, cfg: DeviceConfig | None = None
) -> CliffordElement | SequenceInverses:
    """Group element inverting the ordered product of the sequence: its
    elements in order, or their unitaries stacked (n, d, d).

    A stack (k, n, d, d) of k equal-length sequences gives their inverses
    as ``SequenceInverses``, group indices only, no element built; one
    sequence gives its ``CliffordElement``.  Each product is one pairwise
    batched product (``time_ordered_product``), bit for bit the same in a
    stack as alone.  Single-qubit sequences resolve by phase-normalized
    matrix lookup, which rounds to 9 decimals; two-qubit sequences by the
    tableau code of the inverse product, which tolerates 1e-8, one code
    array and one sorted search for the whole stack.  Either way the
    rounding of the product cannot change the element.
    """
    unitaries = seq if isinstance(seq, np.ndarray) else np.array([e.unitary for e in seq])
    if not unitaries.size:
        raise ValueError("cannot invert an empty sequence")
    if unitaries.ndim not in (3, 4):
        raise ValueError("expected a sequence (n, d, d) or a stack of them (k, n, d, d)")
    index = _inverse_indices(unitaries)
    if unitaries.ndim == 4:
        return SequenceInverses(index)
    if unitaries.shape[-1] == 2:
        return single_qubit_cliffords()[int(index)]
    return two_qubit_clifford(int(index), cfg)
