"""Computations made apart from lcoupler, used to check its outputs.

Nothing here calls lcoupler's dynamics, channel algebra or circuit executor.
The references read only plain data from it: config numbers, schedule
arrays, superoperator matrices, noise-model parameters and gate lists.

- ``transfer_populations``: the single-excitation block of the
  qubit-modes-qubit chain, propagated with a fourth-order Magnus step per
  schedule sample (two Gauss points on the linearly interpolated controls).
  Without loss it evolves a state vector; with loss it evolves the block's
  density matrix under the Lindblad generator, whose jumps all leave the
  block for the ground state.
- ``nb_prediction``: the NB error per segment implied by two pair channels.
- ``DenseExecutor``: applies gate lists as kron-embedded 256x256
  superoperators on the (D1, L1, L2, D2) register, for the group-average
  TQRB prediction and the remote-CNOT infidelity.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from scipy.linalg import expm

GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
MAGNUS_CHUNK = 256  # sample intervals exponentiated per batch; bounds memory

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.diag([1.0, -1.0]).astype(complex),
)


# ---------------------------------------------------------------------------
# transfer dynamics


def _chain_hamiltonian_parts(cfg):
    """(static, [coupling_e, coupling_r, number_e, number_r]) in Hz on the
    single-excitation sites (L1, retained modes low to high, L2).

    The L1 end couples to every mode with +1; the L2 end with the standing
    wave parity (-1)**(m - m_target).
    """
    freqs = list(cfg.cpw.mode_frequencies_hz)
    n_modes = len(freqs)
    k = n_modes // 2
    target = freqs[k]
    d = n_modes + 2
    static = np.diag([0.0] + [f - target for f in freqs] + [0.0]).astype(complex)
    coupling_e = np.zeros((d, d), dtype=complex)
    coupling_r = np.zeros((d, d), dtype=complex)
    for pos in range(n_modes):
        site = pos + 1
        sign = (-1.0) ** abs(pos - k)
        coupling_e[0, site] = coupling_e[site, 0] = 1.0
        coupling_r[d - 1, site] = coupling_r[site, d - 1] = sign
    number_e = np.zeros((d, d), dtype=complex)
    number_e[0, 0] = 1.0
    number_r = np.zeros((d, d), dtype=complex)
    number_r[d - 1, d - 1] = 1.0
    return static, [coupling_e, coupling_r, number_e, number_r]


def _gauss_controls(schedule) -> tuple[np.ndarray, np.ndarray, float]:
    """Controls (g_e, g_r, det_e, det_r) at the two Gauss points of every
    sample interval, shape (n_intervals, 4) each, and the interval length."""
    cols = np.stack(
        [schedule.g_e_hz, schedule.g_r_hz, schedule.det_e_hz, schedule.det_r_hz], axis=1
    )
    times = np.asarray(schedule.times_s)
    steps = np.diff(times)
    dt = float(steps[0])
    if np.max(np.abs(steps - dt)) > 1e-6 * dt:
        raise ValueError("reference propagator needs uniformly sampled controls")
    lo, hi = cols[:-1], cols[1:]
    return tuple(lo + a * (hi - lo) for a in GAUSS_NODES) + (dt,)


def _magnus_propagate(static, parts, schedule, y0) -> np.ndarray:
    """y(T) for dy/dt = A(t) y with A = static + sum_i c_i(t) parts[i]."""
    c1, c2, dt = _gauss_controls(schedule)
    parts = np.stack(parts)
    y = np.asarray(y0, dtype=complex)
    for start in range(0, len(c1), MAGNUS_CHUNK):
        a1 = static + np.einsum("ni,ijk->njk", c1[start : start + MAGNUS_CHUNK], parts)
        a2 = static + np.einsum("ni,ijk->njk", c2[start : start + MAGNUS_CHUNK], parts)
        omega = 0.5 * dt * (a1 + a2) + (math.sqrt(3.0) / 12.0) * dt**2 * (a2 @ a1 - a1 @ a2)
        for u in expm(omega):
            y = u @ y
    return y


def _site_rates(cfg) -> tuple[np.ndarray, np.ndarray]:
    """Per-site energy decay rates and pure dephasing rates, 1/s."""
    l1, l2 = cfg.l_qubits
    decay = [1.0 / l1.t1_s] + [1.0 / t for t in cfg.cpw.mode_t1_s] + [1.0 / l2.t1_s]
    dephase = [0.0] * len(decay)
    for site, q in ((0, l1), (len(decay) - 1, l2)):
        dephase[site] = max(0.0, 1.0 / q.t2_s - 0.5 / q.t1_s)
    return np.array(decay), np.array(dephase)


def transfer_populations(cfg, schedule, lossy: bool):
    """(pop_emitter, pop_receiver, pop_modes) at the end of the schedule,
    starting with one excitation on the schedule's emitter.

    Schedule columns are positional: g_e/det_e drive the L1 end.  With
    ``lossy`` the qubits relax (T1) and dephase (T_phi) and the modes relax;
    the remainder of the population sits in the joint ground state.
    """
    static, parts = _chain_hamiltonian_parts(cfg)
    d = static.shape[0]
    sites = {cfg.l_qubits[0].name: 0, cfg.l_qubits[1].name: d - 1}
    e_site, r_site = sites[schedule.emitter], sites[schedule.receiver]
    two_pi_i = 2j * math.pi
    if not lossy:
        psi0 = np.zeros(d, dtype=complex)
        psi0[e_site] = 1.0
        psi = _magnus_propagate(-two_pi_i * static, [-two_pi_i * p for p in parts], schedule, psi0)
        probs = np.abs(psi) ** 2
    else:
        eye = np.eye(d)

        def commutator(h):  # vec(-i 2 pi [h, rho]), row-major vec
            return -two_pi_i * (np.kron(h, eye) - np.kron(eye, h.T))

        decay, dephase = _site_rates(cfg)
        gamma = np.diag(decay)
        gen0 = commutator(static) - 0.5 * (np.kron(gamma, eye) + np.kron(eye, gamma))
        for site in np.flatnonzero(dephase):
            n = np.zeros((d, d))
            n[site, site] = 1.0
            # L = sqrt(2 gamma_phi) n: coherences with the site decay at gamma_phi
            gen0 = gen0 + 2.0 * dephase[site] * (
                np.kron(n, n) - 0.5 * (np.kron(n, eye) + np.kron(eye, n))
            )
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[e_site, e_site] = 1.0
        rho = _magnus_propagate(gen0, [commutator(p) for p in parts], schedule, rho0.reshape(-1))
        probs = np.real(np.diag(rho.reshape(d, d)))
    pop_modes = float(np.sum(probs[1:-1]))
    return float(probs[e_site]), float(probs[r_site]), pop_modes


# ---------------------------------------------------------------------------
# network benchmarking prediction


def _effective_transfer_map(superop: np.ndarray, direction: str, remove_z: bool) -> np.ndarray:
    """4x4 superoperator carrying the emitter's state to the receiver, with
    the receiver starting in |0>; the emitter is traced out afterwards."""
    s = np.asarray(superop).reshape(4, 4, 4, 4)  # [out_r, out_c, in_r, in_c] on (L1, L2)
    ground = np.diag([1.0, 0.0])
    z = np.diag([1.0, -1.0])
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            carrier = np.zeros((2, 2))
            carrier[i, j] = 1.0
            forward = direction == "L1->L2"
            rho_in = np.kron(carrier, ground) if forward else np.kron(ground, carrier)
            rho_out = np.einsum("abcd,cd->ab", s, rho_in).reshape(2, 2, 2, 2)
            if forward:
                received = np.einsum("xaxb->ab", rho_out)
            else:
                received = np.einsum("axbx->ab", rho_out)
            if remove_z:
                received = z @ received @ z
            out[:, i * 2 + j] = received.reshape(-1)
    return out


def twirl_parameter(superop: np.ndarray) -> float:
    """Depolarizing parameter of the twirl of a d-dimensional channel."""
    d2 = superop.shape[0]
    return float((np.real(np.trace(superop)) - 1.0) / (d2 - 1.0))


def nb_prediction(noise, sq_pulse_counts, remove_z: bool = True) -> float:
    """Predicted NB error per segment, EPS = (1 - p) / 2.

    Each direction's pair channel is reduced to the single-qubit map from
    emitter to receiver (receiver in |0>, the dark-passage Z undone as the
    circuit's virtual Z does), twirled, and the two directions are combined
    by their geometric mean.  The random single-qubit Clifford before each
    transfer multiplies in its depolarizing parameter, averaged over the
    group from the number of physical pulses of each element.
    """
    p_transfer = 1.0
    p_clifford = 1.0
    for direction, carrier in (("L1->L2", "L1"), ("L2->L1", "L2")):
        channel = noise.transfer_channels[direction]
        p_transfer *= twirl_parameter(
            _effective_transfer_map(channel.superoperator, direction, remove_z)
        )
        lam = noise.sq_depolarizing.get(carrier, 0.0)
        p_clifford *= float(np.mean([(1.0 - lam) ** n for n in sq_pulse_counts]))
    p = math.copysign(math.sqrt(abs(p_transfer)), p_transfer) * math.sqrt(p_clifford)
    return 0.5 * (1.0 - p)


# ---------------------------------------------------------------------------
# dense circuit executor


def _embed(op: np.ndarray, positions: tuple[int, ...], n: int) -> np.ndarray:
    """k-qubit operator placed on ``positions`` of an n-qubit register
    (qubit 0 most significant)."""
    rest = [q for q in range(n) if q not in positions]
    full = np.kron(op, np.eye(2 ** len(rest))).reshape((2,) * (2 * n))
    order = list(positions) + rest  # axis j of `full` belongs to qubit order[j]
    axes = [order.index(q) for q in range(n)]
    return full.transpose(axes + [n + a for a in axes]).reshape(2**n, 2**n)


def _superop(kraus) -> np.ndarray:
    return sum(np.kron(k, k.conj()) for k in kraus)


def _depolarizing_kraus(lam: float, n_qubits: int) -> list[np.ndarray]:
    d2 = 4**n_qubits
    paulis = [reduce(np.kron, [PAULI[p] for p in s]) for s in np.ndindex(*(4,) * n_qubits)]
    weights = [1.0 - lam + lam / d2] + [lam / d2] * (d2 - 1)
    return [math.sqrt(w) * p for w, p in zip(weights, paulis)]


def _idle_kraus(t1_s: float, tphi_s: float, duration_s: float) -> list[np.ndarray]:
    gamma = 1.0 - math.exp(-duration_s / t1_s)
    damp = [
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    ]
    if not math.isfinite(tphi_s):
        return damp
    p = 0.5 * (1.0 - math.exp(-duration_s / tphi_s))
    phase = [math.sqrt(1.0 - p) * PAULI[0], math.sqrt(p) * PAULI[3]]
    return [b @ a for b in phase for a in damp]


def _channel_kraus(superop: np.ndarray) -> list[np.ndarray]:
    """Kraus operators of a row-major superoperator via its Choi matrix."""
    d = int(round(math.sqrt(superop.shape[0])))
    choi = np.asarray(superop).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    vals, vecs = np.linalg.eigh(0.5 * (choi + choi.conj().T))
    return [math.sqrt(v) * vecs[:, i].reshape(d, d) for i, v in enumerate(vals) if v > 1e-14]


def _gate_unitary(kind: str, params: dict) -> np.ndarray:
    if kind == "sq_rot":
        axis = {"x": 1, "y": 2, "z": 3}[params["axis"]]
        half = params["angle_rad"] / 2.0
        return math.cos(half) * PAULI[0] - 1j * math.sin(half) * PAULI[axis]
    if kind == "virtual_z":
        return np.diag([1.0, np.exp(1j * params["angle_rad"])])
    if kind == "cz":
        return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    raise ValueError(f"no unitary for op kind {kind!r}")


class DenseExecutor:
    """Noisy gate lists on the 4-qubit register as 256x256 superoperators.

    Noise follows the NoiseModel's parameters: after each physical pulse a
    single-qubit depolarizing, after each CZ a two-qubit depolarizing, each
    transfer replaced by its pair channel, and every qubit not addressed by
    an op relaxing and dephasing for the op's duration.
    """

    ORDER = ("D1", "L1", "L2", "D2")
    N = 4

    def __init__(self, noise):
        self.noise = noise
        self._cache: dict = {}

    def _embedded(self, kraus, qubits) -> np.ndarray:
        positions = tuple(self.ORDER.index(q) for q in qubits)
        return _superop([_embed(k, positions, self.N) for k in kraus])

    def op_superop(self, op) -> np.ndarray:
        kind = op.kind.value
        key = (kind, op.targets, tuple(sorted(op.params.items())), op.duration_s)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        noise = self.noise
        if kind == "transfer":
            if op.params.get("half"):
                raise ValueError("reference executor covers full transfers only")
            channel = noise.transfer_channels[op.params["direction"]]
            s = self._embedded(_channel_kraus(channel.superoperator), op.targets)
        else:
            s = self._embedded([_gate_unitary(kind, op.params)], op.targets)
            if kind == "sq_rot":
                lam = noise.sq_depolarizing.get(op.targets[0], 0.0)
                if lam > 0.0:
                    s = self._embedded(_depolarizing_kraus(lam, 1), op.targets) @ s
            elif kind == "cz":
                lam = noise.cz_depolarizing.get(frozenset(op.targets), 0.0)
                if lam > 0.0:
                    s = self._embedded(_depolarizing_kraus(lam, 2), op.targets) @ s
        if noise.idle_decoherence and op.duration_s > 0:
            for q in self.ORDER:
                if q in op.targets or q not in noise.qubit_t1_s:
                    continue
                kraus = _idle_kraus(
                    noise.qubit_t1_s[q], noise.qubit_tphi_s.get(q, math.inf), op.duration_s
                )
                s = self._embedded(kraus, (q,)) @ s
        self._cache[key] = s
        return s

    def run(self, ops, columns: np.ndarray) -> np.ndarray:
        """Apply a gate list to register states given as vec columns."""
        for op in ops:
            columns = self.op_superop(op) @ columns
        return columns


TWO_QUBIT_PAULIS = [np.kron(PAULI[i], PAULI[j]) for i in range(4) for j in range(4)][1:]
L_GROUND = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def _register_state(data: np.ndarray, l_state: np.ndarray) -> np.ndarray:
    """data (x) l_state arranged in register order (D1, L1, L2, D2)."""
    t = np.einsum("abcd,efgh->aefbcghd", data.reshape(2, 2, 2, 2), l_state.reshape(2, 2, 2, 2))
    return t.reshape(16, 16)


def pauli_error_action(executor: DenseExecutor, ops, target: np.ndarray, l_state) -> np.ndarray:
    """B(sigma) = 1/15 sum_P 1/4 Tr_D[(P x 1) N(P x sigma)] over the 15
    non-identity data Paulis, where N runs the noisy ops after target^-1.

    Its trace is the data-pair twirl parameter when the l-qubits start in
    sigma; normalised, it is the l-qubit state handed to the next element.
    """
    u = np.asarray(target)
    columns = np.stack(
        [_register_state(u.conj().T @ p @ u, l_state).reshape(-1) for p in TWO_QUBIT_PAULIS],
        axis=1,
    )
    columns = executor.run(ops, columns)
    action = np.zeros((4, 4), dtype=complex)
    for k, p in enumerate(TWO_QUBIT_PAULIS):
        # [data row, l row, data col, l col]
        y = columns[:, k].reshape((2,) * 8).transpose(0, 3, 1, 2, 4, 7, 5, 6).reshape(4, 4, 4, 4)
        action += np.einsum("ba,albm->lm", p, y)
    return action / (4.0 * len(TWO_QUBIT_PAULIS))


def group_decay(executor: DenseExecutor, elements, iterations: int) -> float:
    """RB decay of the data pair over weighted (weight, ops, target) samples.

    The l-qubits start in |00>; each iteration hands the l-qubit state
    that survives one average element to the next, which accounts for
    residual l-qubit excitation carried between elements.
    """
    l_state = L_GROUND
    for _ in range(iterations):
        action = sum(w * pauli_error_action(executor, ops, u, l_state) for w, ops, u in elements)
        p = float(np.real(np.trace(action)))
        l_state = action / p
    return p
