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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, reduce
from itertools import product as iter_product

import numpy as np

from .channels import ideal_transfer_unitary
from .config import DeviceConfig, load_config

DATA_QUBITS = ("D1", "D2")
L_QUBIT_PAIR = ("L1", "L2")
QUBIT_ORDER = ("D1", "L1", "L2", "D2")
CZ_PAIRS = (frozenset({"D1", "L1"}), frozenset({"L2", "D2"}))
ADJACENT_L = {"D1": "L1", "D2": "L2"}

TWO_QUBIT_CLASS_SIZES = (576, 5184, 5184, 576)
TWO_QUBIT_GROUP_ORDER = sum(TWO_QUBIT_CLASS_SIZES)

DEFAULT_SQ_GATE_TIME_S = 35e-9


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
            if self.params.get("direction") not in ("L1->L2", "L2->L1"):
                raise ValueError("transfer needs a direction of L1->L2 or L2->L1")
        elif self.kind in (GateKind.SQ_ROT, GateKind.VIRTUAL_Z):
            if len(self.targets) != 1:
                raise ValueError(f"{self.kind.value} takes exactly one target")
            if self.kind is GateKind.SQ_ROT and self.params.get("axis") not in ("x", "y", "z"):
                raise ValueError("rotation axis must be x, y or z")
            if "angle_rad" not in self.params:
                raise ValueError("rotation needs angle_rad")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "targets": list(self.targets),
            "params": dict(self.params),
            "duration_s": self.duration_s,
        }


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


_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

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


def circuit_unitary(ops, qubit_order: tuple[str, ...] = QUBIT_ORDER) -> np.ndarray:
    """Product of a gate list on the named register, first op applied first."""
    n = len(qubit_order)
    u = np.eye(2**n, dtype=complex)
    for op in ops:
        positions = [qubit_order.index(q) for q in op.targets]
        u = embed_unitary(op_matrix(op), positions, n) @ u
    return u


def circuit_duration(ops) -> float:
    return float(sum(op.duration_s for op in ops))


def schedule_ops(ops, t_start_s: float = 0.0) -> list[dict]:
    """Serial schedule: each op starts when the previous one ends."""
    out = []
    t = t_start_s
    for op in ops:
        entry = op.to_dict()
        entry["t_start_s"] = t
        out.append(entry)
        t += op.duration_s
    return out


def ops_to_json(ops, t_start_s: float = 0.0) -> str:
    return json.dumps(schedule_ops(ops, t_start_s), indent=2)


# ---------------------------------------------------------------------------
# single-qubit group


def _phase_key(u: np.ndarray, decimals: int = 9) -> bytes:
    flat = np.asarray(u, dtype=complex).flatten()
    first = int(np.argmax(np.abs(flat) > 1e-6))
    normed = np.asarray(u, dtype=complex) * np.exp(-1j * np.angle(flat[first]))
    # +0.0 collapses negative zeros so equal matrices share bytes
    return (np.round(normed, decimals) + 0.0).tobytes()


def _rz(angle_rad: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * angle_rad), np.exp(0.5j * angle_rad)])


_X90 = _rotation("x", np.pi / 2.0)


@lru_cache(maxsize=None)
def _single_qubit_table():
    """24 matrices with minimal-pulse descriptors, in fixed enumeration order.

    A descriptor is (n_pulses, z_steps): z_steps are quarter-turn counts
    around the physical x pi/2 pulses, time-ordered first to last.
    """
    mats, descs, index_of = [], [], {}

    def consider(u, desc):
        key = _phase_key(u)
        if key not in index_of:
            index_of[key] = len(mats)
            mats.append(u)
            descs.append(desc)

    for a in range(4):
        consider(_rz(a * np.pi / 2.0), (0, (a,)))
    for b, a in iter_product(range(4), repeat=2):
        consider(_rz(b * np.pi / 2.0) @ _X90 @ _rz(a * np.pi / 2.0), (1, (a, b)))
    for c, b, a in iter_product(range(4), repeat=3):
        consider(
            _rz(c * np.pi / 2.0) @ _X90 @ _rz(b * np.pi / 2.0) @ _X90 @ _rz(a * np.pi / 2.0),
            (2, (a, b, c)),
        )
    if len(mats) != 24:
        raise RuntimeError("single-qubit enumeration did not close at 24")
    return tuple(mats), tuple(descs), index_of


def _sq_ops(desc, qubit: str, gate_time_s: float) -> tuple[GateOp, ...]:
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
    return tuple(ops)


@dataclass(frozen=True, eq=False)
class CliffordElement:
    index: int
    unitary: np.ndarray
    decomposition: tuple[GateOp, ...]
    cnot_count: int = 0


@lru_cache(maxsize=None)
def single_qubit_cliffords(
    qubit: str = "q0", gate_time_s: float = DEFAULT_SQ_GATE_TIME_S
) -> tuple[CliffordElement, ...]:
    """All 24 elements; index 0 is the identity with an empty decomposition."""
    mats, descs, _ = _single_qubit_table()
    return tuple(
        CliffordElement(i, mats[i], _sq_ops(descs[i], qubit, gate_time_s))
        for i in range(24)
    )


def retarget_single_qubit(elem: CliffordElement, qubit: str) -> CliffordElement:
    ops = tuple(
        GateOp(op.kind, (qubit,), dict(op.params), op.duration_s)
        for op in elem.decomposition
    )
    return CliffordElement(elem.index, elem.unitary, ops, elem.cnot_count)


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


def _desc_index(desc) -> int:
    _, descs, _ = _single_qubit_table()
    return descs.index(desc)


@lru_cache(maxsize=None)
def _class_tables():
    mats, _, _ = _single_qubit_table()
    e_mat = mats[_desc_index(_CYCLER_DESC)]
    s3 = (np.eye(2, dtype=complex), e_mat, e_mat @ e_mat)
    reps = (np.eye(4, dtype=complex), _CNOT_12, _ISWAP, _SWAP)
    return mats, s3, reps


def decode_two_qubit_index(index: int) -> tuple[int, int, int, int, int]:
    """index -> (class_id, u1, u2, s1, s2); s factors are 0 outside classes 1, 2."""
    if not 0 <= index < TWO_QUBIT_GROUP_ORDER:
        raise ValueError("two-qubit Clifford index out of range")
    offset = index
    for class_id, size in enumerate(TWO_QUBIT_CLASS_SIZES):
        if offset < size:
            break
        offset -= size
    if class_id in (0, 3):
        u1, u2 = divmod(offset, 24)
        return class_id, u1, u2, 0, 0
    pair, s = divmod(offset, 9)
    u1, u2 = divmod(pair, 24)
    s1, s2 = divmod(s, 3)
    return class_id, u1, u2, s1, s2


def two_qubit_matrix(index: int) -> np.ndarray:
    """Abstract 4x4 matrix of the element, no device compilation."""
    mats, s3, reps = _class_tables()
    class_id, u1, u2, s1, s2 = decode_two_qubit_index(index)
    m = np.kron(mats[u1], mats[u2]) @ reps[class_id]
    if class_id in (1, 2):
        m = m @ np.kron(s3[s1], s3[s2])
    return m


def local_cnot(control: str, target: str, cfg: DeviceConfig) -> list[GateOp]:
    """CNOT inside one module: the calibrated CZ conjugated by Y +/- pi/2 on
    the target, plus a virtual Z(pi) on the control."""
    sq_time = cfg.single_qubit_gate_time_s
    return [
        sq_rot(target, "y", np.pi / 2.0, sq_time),
        cz_op(control, target, cfg.cz_for(control, target).duration_s),
        sq_rot(target, "y", -np.pi / 2.0, sq_time),
        virtual_z(control, np.pi),
    ]


def compile_remote_cnot(
    control: str = "D1", target: str = "D2", cfg: DeviceConfig | None = None
) -> list[GateOp]:
    """Abstract CNOT(control -> target) between the data qubits.

    Copy the control onto the near l-qubit with a ``local_cnot``, move it
    across the bus, apply a local CNOT onto the far data qubit, move back and
    uncompute. Every transfer is followed by a virtual Z(pi) on the
    receiving l-qubit that absorbs the dark-passage sign, so the composite
    equals CNOT exactly (no global-phase residue) with the l-pair back in
    |00>. The executor (``benchmarking._CircuitRunner``) applies no
    frequency-mismatch frame correction: it runs each transfer as the noise
    model's channel and nothing else.  Tracking the time-dependent mismatch
    phase is ROADMAP item 3.
    """
    cfg = cfg if cfg is not None else load_config()
    if {control, target} != set(DATA_QUBITS):
        raise ValueError("control and target must be the two data qubits")
    l_near, l_far = ADJACENT_L[control], ADJACENT_L[target]
    transfer_time = cfg.transfer.total_duration_s
    ops = local_cnot(control, l_near, cfg)
    ops += [transfer_op(f"{l_near}->{l_far}", transfer_time), virtual_z(l_far, np.pi)]
    ops += local_cnot(l_far, target, cfg)
    ops += [transfer_op(f"{l_far}->{l_near}", transfer_time), virtual_z(l_near, np.pi)]
    ops += local_cnot(control, l_near, cfg)
    return ops


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


def _two_qubit_ops(index: int, cfg: DeviceConfig) -> tuple[tuple[GateOp, ...], int]:
    """Device ops of an element and its remote-CNOT count: class k runs k
    remote CNOTs, and only the directions it uses are compiled."""
    class_id, u1, u2, s1, s2 = decode_two_qubit_index(index)
    _, descs, _ = _single_qubit_table()
    d1, d2 = DATA_QUBITS

    def sq(desc, qubit):
        return list(_sq_ops(desc, qubit, cfg.single_qubit_gate_time_s))

    cnot_fwd = compile_remote_cnot(d1, d2, cfg) if class_id >= 1 else []
    cnot_rev = compile_remote_cnot(d2, d1, cfg) if class_id >= 2 else []
    ops: list[GateOp] = []
    if class_id in (1, 2):
        # S3 = {identity, E, E.E}: zero, one or two copies of the cycler
        ops += sq(_CYCLER_DESC, d1) * s1 + sq(_CYCLER_DESC, d2) * s2
    if class_id == 1:
        ops += cnot_fwd
    elif class_id == 2:
        dress = _ISWAP_DRESSING
        ops += sq(dress["c"], d1) + sq(dress["d"], d2)
        ops += cnot_fwd + cnot_rev
        ops += sq(dress["a"], d1) + sq(dress["b"], d2)
    elif class_id == 3:
        ops += cnot_fwd + cnot_rev + cnot_fwd
    ops += sq(descs[u1], d1) + sq(descs[u2], d2)
    return tuple(ops), class_id


def two_qubit_clifford(index: int, cfg: DeviceConfig | None = None) -> CliffordElement:
    """Element by canonical index, with its device-compiled decomposition."""
    cfg = cfg if cfg is not None else load_config()
    ops, cnots = _two_qubit_ops(index, cfg)
    return CliffordElement(index, two_qubit_matrix(index), ops, cnots)


# ---------------------------------------------------------------------------
# inversion

_PAULI_STRINGS_2Q = [np.kron(_PAULI[p], _PAULI[q]) for p in "ixyz" for q in "ixyz"]
_GENERATORS_2Q = [np.kron(_PAULI[p], _PAULI[q]) for p, q in ("xi", "zi", "ix", "iz")]


def _tableau_key(u: np.ndarray) -> tuple:
    """Conjugation images of the four Pauli generators, with signs."""
    stack = np.stack(_PAULI_STRINGS_2Q)
    key = []
    for g in _GENERATORS_2Q:
        image = u @ g @ u.conj().T
        coeffs = np.einsum("kij,ji->k", stack, image) / 4.0
        which = int(np.argmax(np.abs(coeffs)))
        c = coeffs[which]
        if abs(abs(c) - 1.0) > 1e-8 or abs(c.imag) > 1e-8:
            raise ValueError("matrix is not a two-qubit Clifford")
        key.append((which, 1 if c.real > 0 else -1))
    return tuple(key)


@lru_cache(maxsize=None)
def _two_qubit_lookup() -> dict:
    table = {}
    for index in range(TWO_QUBIT_GROUP_ORDER):
        table[_tableau_key(two_qubit_matrix(index))] = index
    if len(table) != TWO_QUBIT_GROUP_ORDER:
        raise RuntimeError("two-qubit class construction produced duplicates")
    return table


def invert_sequence(seq, cfg: DeviceConfig | None = None) -> CliffordElement:
    """Group element inverting the ordered product of the sequence.

    Single-qubit sequences resolve by phase-normalized matrix lookup;
    two-qubit sequences by the tableau of the inverse product.
    """
    if not seq:
        raise ValueError("cannot invert an empty sequence")
    dim = seq[0].unitary.shape[0]
    product = reduce(lambda acc, e: e.unitary @ acc, seq, np.eye(dim, dtype=complex))
    inverse = product.conj().T
    if dim == 2:
        _, _, index_of = _single_qubit_table()
        found = index_of.get(_phase_key(inverse))
        if found is None:
            raise RuntimeError("sequence product is not in the single-qubit group")
        return single_qubit_cliffords()[found]
    try:
        index = _two_qubit_lookup()[_tableau_key(inverse)]
    except (KeyError, ValueError) as exc:
        raise RuntimeError("sequence product is not in the two-qubit group") from exc
    return two_qubit_clifford(index, cfg)
