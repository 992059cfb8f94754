"""Bell-state preparation circuits and two-qubit state tomography.

Three preparation variants are provided: a Bell pair on the l-qubits from a
single excitation and a square-root transfer, the same pair moved onto the
data qubits with local CZ circuits, and a data-qubit Bell pair built around
one full transfer.  Reconstruction measures the nine two-qubit Pauli
settings, inverts linearly, and projects the estimate onto the nearest
physical state in Frobenius norm.  Frame conventions leave single-qubit Z
phases arbitrary, so Bell fidelities are also reported after a two-parameter
phase search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import minimize

from .benchmarking import NoiseModel, SpamModel, _CircuitRunner, spam_apply
from .cliffords import (
    _PAULI,
    QUBIT_ORDER,
    GateOp,
    half_transfer_op,
    local_cnot,
    sq_rot,
    transfer_step,
)
from .config import DeviceConfig, load_config
from .rng import RngHandle

# rotate the measured axis onto Z: u P u^dag = Z
_BASIS_ROTATION = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / math.sqrt(2),
    "Z": np.eye(2, dtype=complex),
}

SETTINGS = tuple(p + q for p in "XYZ" for q in "XYZ")


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


def _pair_marginal(rho: np.ndarray, positions: tuple[int, int], n: int) -> np.ndarray:
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


def simulate_prep(
    ops,
    noise: NoiseModel,
    spam: SpamModel,
    qubits: tuple[str, str],
) -> np.ndarray:
    """Run a preparation circuit on the full register and return the reduced
    density matrix of the measured pair."""
    runner = _CircuitRunner(noise, QUBIT_ORDER)
    rho = runner.run(runner.initial_state(spam), [(op,) for op in ops])
    positions = tuple(QUBIT_ORDER.index(q) for q in qubits)
    return _pair_marginal(rho, positions, len(QUBIT_ORDER))


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


def tomography_of_state(
    rho2: np.ndarray,
    spam: SpamModel,
    qubits: tuple[str, str],
    shots_per_setting: int = 10000,
    rng: RngHandle | None = None,
    exact: bool = False,
) -> TomographyResult:
    """Reconstruct a given two-qubit state from the nine Pauli settings.

    With exact=True the confusion-mixed outcome probabilities are used
    directly (the infinite-shot limit); otherwise each setting is sampled
    multinomially through spam_apply.
    """
    if rho2.shape != (4, 4):
        raise ValueError("tomography_of_state expects a two-qubit state")
    if not exact and shots_per_setting < 100:
        raise ValueError("need at least 100 shots per setting")
    rng = rng if rng is not None else RngHandle(seed=0)
    signs = np.array([1.0, -1.0])
    two_q: dict[str, float] = {}
    singles: dict[str, list[float]] = {}
    for setting in SETTINGS:
        u = np.kron(_BASIS_ROTATION[setting[0]], _BASIS_ROTATION[setting[1]])
        probs = np.real(np.diag(u @ rho2 @ u.conj().T))
        if exact:
            freq = spam.confusion(qubits) @ np.clip(probs, 0.0, None)
            freq /= freq.sum()
        else:
            gen = rng.stream("tomo", setting).generator()
            freq = spam_apply(probs, spam, qubits, gen, shots_per_setting)
        grid = freq.reshape(2, 2)
        two_q[setting] = float(signs @ grid @ signs)
        singles.setdefault(setting[0] + "I", []).append(float(signs @ grid.sum(axis=1)))
        singles.setdefault("I" + setting[1], []).append(float(signs @ grid.sum(axis=0)))
    expectations = dict(two_q)
    expectations.update({k: float(np.mean(v)) for k, v in singles.items()})
    estimate = np.eye(4, dtype=complex)
    for label, value in expectations.items():
        estimate += value * np.kron(_PAULI[label[0].lower()], _PAULI[label[1].lower()])
    estimate /= 4.0
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
    """Simulate a preparation circuit and reconstruct the measured pair."""
    rho2 = simulate_prep(prep, noise, spam, qubits)
    return tomography_of_state(rho2, spam, qubits, shots_per_setting, rng, exact)


# ---------------------------------------------------------------------------
# fidelities


def state_fidelity(rho: np.ndarray, sigma_pure: np.ndarray) -> float:
    """Overlap <psi|rho|psi> with a pure target given as a statevector or a
    rank-one projector."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma_pure, dtype=complex)
    if sigma.ndim == 1:
        if sigma.shape[0] != rho.shape[0]:
            raise ValueError("state dimensions differ")
        psi = sigma / np.linalg.norm(sigma)
        return float(np.real(np.vdot(psi, rho @ psi)))
    if sigma.shape != rho.shape:
        raise ValueError("state dimensions differ")
    purity = np.real(np.trace(sigma @ sigma))
    if abs(purity - 1.0) > 1e-6:
        raise ValueError("target is not a pure-state projector")
    return float(np.real(np.trace(rho @ sigma)))


def optimize_bell_phases(
    rho: np.ndarray, target: np.ndarray
) -> tuple[float, tuple[float, float]]:
    """Best fidelity to (Z(a) x Z(b)) |target> over the two virtual phases.

    Coarse 16x16 grid, then a local simplex refinement from the best cell.
    """
    target = np.asarray(target, dtype=complex)
    target = target / np.linalg.norm(target)

    def fidelity(angles):
        a, b = angles
        phase = np.kron([1.0, np.exp(1j * a)], [1.0, np.exp(1j * b)])
        psi = phase * target
        return float(np.real(np.vdot(psi, rho @ psi)))

    grid = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    best = max(((a, b) for a in grid for b in grid), key=fidelity)
    res = minimize(
        lambda x: -fidelity(x), x0=np.array(best), method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14},
    )
    a, b = (float(x) % (2.0 * math.pi) for x in res.x)
    return float(-res.fun), (a, b)
