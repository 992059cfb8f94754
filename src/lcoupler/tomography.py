"""Bell-state preparation circuits and two-qubit state tomography.

Three preparation variants are provided: a Bell pair on the l-qubits from a
single excitation and a square-root transfer, the same pair moved onto the
data qubits with local CZ circuits, and a data-qubit Bell pair built around
one full transfer.  Reconstruction measures the nine two-qubit Pauli
settings, inverts linearly, and projects the estimate onto the nearest
physical state in Frobenius norm.  Frame conventions leave single-qubit Z
phases arbitrary, so Bell fidelities are also reported at their optimum over
the two virtual-Z phases, which has a closed form for a target with two
nonzero amplitudes (every Bell target).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .benchmarking import NoiseModel, SpamModel, circuit_runner, spam_apply
from .channels import from_pauli, pauli_populations, to_pauli
from .cliffords import (
    QUBIT_ORDER,
    GateOp,
    Segment,
    half_transfer_op,
    local_cnot,
    sq_rot,
    transfer_step,
)
from .config import DeviceConfig, load_config
from .frames import wrap_angle
from .rng import RngHandle

SETTINGS = tuple(p + q for p in "XYZ" for q in "XYZ")
# setting PQ is read the way ZZ is: from the state's II, IQ, PI and PQ Pauli
# coefficients (index 4 p + q, digits I X Y Z = 0 1 2 3) put at II, IZ, ZI, ZZ
_SETTING_READS = np.array([[0, q, 4 * p, 4 * p + q] for p in (1, 2, 3) for q in (1, 2, 3)])


class BellVariant(str, Enum):
    LQUBIT_SQRT = "lqubit-sqrt"
    DATA_SQRT = "data-sqrt"
    DATA_FULL = "data-full"


def bell_circuit(
    variant: BellVariant | str, cfg: DeviceConfig | None = None
) -> tuple[GateOp, ...]:
    """Gate sequence preparing a Bell pair for the chosen variant.

    LQUBIT_SQRT excites L1 and applies a square-root transfer, leaving
    (|10> - |01>)/sqrt(2) on the l-qubits up to a global phase.  DATA_SQRT
    moves both halves of that pair onto the data qubits with local CZ
    circuits.  DATA_FULL spreads a data-qubit superposition through one full
    transfer and disentangles the l-qubits again, ending in
    (|00> + |11>)/sqrt(2) on the data pair with the l-qubits in |00>.
    """
    variant = BellVariant(variant)
    cfg = cfg if cfg is not None else load_config()
    sq = cfg.single_qubit_gate_time_s
    transfer = cfg.transfer.total_duration_s
    lqubit_pair = [
        sq_rot("L1", "x", math.pi, sq),
        half_transfer_op("L1->L2", transfer),
    ]
    if variant is BellVariant.LQUBIT_SQRT:
        return tuple(lqubit_pair)
    if variant is BellVariant.DATA_SQRT:
        ops = list(lqubit_pair)
        ops += local_cnot("L1", "D1", cfg) + local_cnot("D1", "L1", cfg)
        ops += local_cnot("L2", "D2", cfg) + local_cnot("D2", "L2", cfg)
        return tuple(ops)
    ops = [sq_rot("D1", "y", math.pi / 2, sq)]
    ops += local_cnot("D1", "L1", cfg)
    ops += transfer_step("L1", "L2", transfer)
    ops += local_cnot("L2", "D2", cfg) + local_cnot("D2", "L2", cfg)
    return tuple(ops)


def bell_target(variant: BellVariant | str) -> tuple[np.ndarray, tuple[str, str]]:
    """Ideal two-qubit statevector and the measured pair for a variant."""
    variant = BellVariant(variant)
    singlet = np.array([0.0, -1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2)
    phi_plus = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
    if variant is BellVariant.LQUBIT_SQRT:
        return singlet, ("L1", "L2")
    if variant is BellVariant.DATA_SQRT:
        return singlet, ("D1", "D2")
    return phi_plus, ("D1", "D2")


# ---------------------------------------------------------------------------
# simulation and reconstruction


def simulate_prep(
    ops,
    noise: NoiseModel,
    spam: SpamModel,
    qubits: tuple[str, str],
) -> np.ndarray:
    """Run a preparation circuit on the full register and return the reduced
    density matrix of the measured pair: the register's Pauli coefficients
    with I on every other qubit are the pair's."""
    runner = circuit_runner(noise, QUBIT_ORDER)
    circuit = runner.encode([Segment((op,)) for op in ops])
    paulis = runner.evolve(runner.initial_state(spam), [circuit])[:, 0]
    n = len(QUBIT_ORDER)
    first, second = (4 ** (n - 1 - QUBIT_ORDER.index(q)) for q in qubits)
    pair = np.add.outer(np.arange(4) * first, np.arange(4) * second).ravel()
    return from_pauli(paulis[pair])


def _project_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(values)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, len(u) + 1)
    k = idx[u + (1.0 - css) / idx > 0][-1]
    tau = (1.0 - css[k - 1]) / k
    return np.clip(values + tau, 0.0, None)


def project_to_state(mat: np.ndarray) -> np.ndarray:
    """Nearest density matrix in Frobenius norm: hermitize, then project the
    spectrum onto the probability simplex."""
    h = 0.5 * (mat + mat.conj().T)
    vals, vecs = np.linalg.eigh(h)
    w = _project_simplex(vals.real)
    return (vecs * w) @ vecs.conj().T


@dataclass
class TomographyResult:
    """Linear-inversion estimate after projection onto physical states."""

    density_matrix: np.ndarray
    expectations: dict[str, float]
    shots_per_setting: int | None
    qubits: tuple[str, str]

    def validate(self) -> "TomographyResult":
        rho = self.density_matrix
        if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
            raise ValueError("reconstruction is not hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-9:
            raise ValueError("reconstruction trace is not 1")
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            raise ValueError("reconstruction has a negative eigenvalue")
        return self

    def to_json_dict(self) -> dict:
        rho = self.density_matrix
        return {
            "qubits": list(self.qubits),
            "shots_per_setting": self.shots_per_setting,
            "expectations": {k: float(v) for k, v in self.expectations.items()},
            "density_matrix": [
                [[float(z.real), float(z.imag)] for z in row] for row in rho
            ],
        }


def _check_shots(shots_per_setting: int, exact: bool) -> None:
    if not exact and shots_per_setting < 100:
        raise ValueError("need at least 100 shots per setting")


def tomography_of_state(
    rho2: np.ndarray,
    spam: SpamModel,
    qubits: tuple[str, str],
    shots_per_setting: int = 10000,
    rng: RngHandle | None = None,
    exact: bool = False,
) -> TomographyResult:
    """Reconstruct a given two-qubit state from the nine Pauli settings.

    Each setting's outcome probabilities come from the state's Pauli
    coefficients.  With exact=True the confusion-mixed probabilities are used
    directly (the infinite-shot limit); otherwise all nine settings are
    sampled in one spam_apply call, each on its own generator
    (``rng.stream("tomo", setting)``).  A single-qubit expectation is the
    mean of its marginal over the three settings that measure it.
    """
    if rho2.shape != (4, 4):
        raise ValueError("tomography_of_state expects a two-qubit state")
    _check_shots(shots_per_setting, exact)
    rng = rng if rng is not None else RngHandle(seed=0)
    confusion = spam.confusion(qubits)
    coefficients = np.zeros((16, len(SETTINGS)))
    coefficients[[0, 3, 12, 15]] = to_pauli(rho2)[_SETTING_READS].T  # II IZ ZI ZZ
    probs = np.ascontiguousarray(pauli_populations(coefficients).T)  # a row per setting
    if exact:
        freq = (confusion @ np.clip(probs, 0.0, None)[..., None])[..., 0]
        freq /= freq.sum(axis=1, keepdims=True)
    else:
        gens = [rng.stream("tomo", setting).generator() for setting in SETTINGS]
        freq = spam_apply(probs, confusion, gens, shots_per_setting)
    signs = np.array([1.0, -1.0])
    grids = freq.reshape(3, 3, 2, 2)  # [first basis, second basis, first bit, second bit]
    two_q = (signs @ grids) @ signs
    first = (grids.sum(axis=3) @ signs).mean(axis=1)
    second = (grids.sum(axis=2) @ signs).mean(axis=0)
    expectations = {s: float(v) for s, v in zip(SETTINGS, two_q.ravel())}
    for p, q in SETTINGS:  # keys in the order the settings first read them
        expectations.setdefault(p + "I", float(first["XYZ".index(p)]))
        expectations.setdefault("I" + q, float(second["XYZ".index(q)]))
    measured = {"II": 1.0, **expectations}
    estimate = from_pauli(np.array([measured[p + q] for p in "IXYZ" for q in "IXYZ"]))
    return TomographyResult(
        density_matrix=project_to_state(estimate),
        expectations=expectations,
        shots_per_setting=None if exact else shots_per_setting,
        qubits=tuple(qubits),
    ).validate()


def state_tomography(
    prep,
    noise: NoiseModel,
    spam: SpamModel,
    qubits: tuple[str, str] = ("D1", "D2"),
    shots_per_setting: int = 10000,
    rng: RngHandle | None = None,
    exact: bool = False,
) -> TomographyResult:
    """Simulate a preparation circuit and reconstruct the measured pair;
    too few shots are refused before the circuit runs."""
    _check_shots(shots_per_setting, exact)
    rho2 = simulate_prep(prep, noise, spam, qubits)
    return tomography_of_state(rho2, spam, qubits, shots_per_setting, rng, exact)


# ---------------------------------------------------------------------------
# fidelities


def state_fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """Overlap <psi|rho|psi> with a pure target given as a statevector."""
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != rho.shape[:1]:
        raise ValueError("target must be a statevector of the state's dimension")
    psi = psi / np.linalg.norm(psi)
    return float(np.real(np.vdot(psi, rho @ psi)))


def optimize_bell_phases(
    rho: np.ndarray, target: np.ndarray
) -> tuple[float, tuple[float, float]]:
    """Best fidelity to (Z(a) x Z(b)) |target> over the two virtual phases.

    For a target with two nonzero amplitudes t_i and t_j the fidelity is
    |t_i|^2 rho_ii + |t_j|^2 rho_jj + 2 Re(exp(i (phi_j - phi_i)) c) with
    c = t_i* t_j rho_ij, so its maximum is the diagonal part plus 2 |c|, at
    phi_j - phi_i = -arg(c).  That whole difference goes on the first qubit
    whose bit differs between the two components, the other phase is 0.
    Any other target raises ValueError.
    """
    target = np.asarray(target, dtype=complex)
    target = target / np.linalg.norm(target)
    support = np.flatnonzero(target)
    if support.size != 2:
        raise ValueError("the phase optimum needs a target with two nonzero amplitudes")
    i, j = support
    rho = np.asarray(rho, dtype=complex)
    c = np.conj(target[i]) * target[j] * rho[i, j]
    diagonal = abs(target[i]) ** 2 * rho[i, i].real + abs(target[j]) ** 2 * rho[j, j].real
    # bit 1 of an index is the first qubit's; phi_j - phi_i is that qubit's
    # phase times the difference of its bits
    bit = 1 if (i ^ j) & 2 else 0
    angle = wrap_angle(-np.angle(c) * ((j >> bit & 1) - (i >> bit & 1)))
    phases = (angle, 0.0) if bit else (0.0, angle)
    return float(diagonal + 2.0 * abs(c)), phases
