"""Time-dependent Lindblad dynamics on the truncated excitation basis.

Chain layout: site 0 is the L1 end of the waveguide, the last site is the L2
end, and the sites between hold the retained CPW modes in ascending index
order.  Energies are tracked as frequencies (Hz) in the frame rotating at the
target mode; the propagator multiplies by 2*pi.  The standing-wave parity of
the modes shows up as alternating coupling signs at the L2 end:
sign(mode m) = (-1)**(m - m_target), with the L1 end all positive.  That
convention lives in mode_sign() below and nowhere else.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .basis import BasisLabel, DensityOperator, basis_index, build_basis
from .channels import QuantumChannel
from .config import DeviceConfig, pure_dephasing_rate
from .pulses import PulseSchedule, build_transfer_schedule

_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CHUNK = 64  # sample intervals, and then pieces, per batch; even, bounds memory
_MAX_SUBSTEPS = 4096  # per sample interval, before the propagator gives up
_SERIES_RADIUS = 0.5  # exponents are scaled to this 1-norm before summing


def mode_sign(mode_index: int, target_mode_index: int, end: str) -> float:
    """Coupling sign of a given waveguide end to mode m.

    Opposite ends of a resonator see alternating mode parities; the target
    mode couples with + at both ends.
    """
    if end == "L1":
        return 1.0
    return float((-1) ** ((mode_index - target_mode_index) % 2))


def _lowering_operator(basis: list[BasisLabel], site: int) -> np.ndarray:
    index = basis_index(basis)
    d = len(basis)
    a = np.zeros((d, d), dtype=complex)
    for j, label in enumerate(basis):
        n = label.occupations[site]
        if n == 0:
            continue
        lowered = list(label.occupations)
        lowered[site] = n - 1
        i = index[tuple(lowered)]
        a[i, j] = math.sqrt(n)
    return a


def _number_operator(basis: list[BasisLabel], site: int) -> np.ndarray:
    return np.diag([float(label.occupations[site]) for label in basis]).astype(complex)


def _exchange_operator(
    basis: list[BasisLabel], qubit_site: int, mode_sites: list[int], signs: list[float]
) -> np.ndarray:
    """sum_m s_m (sigma+_q a_m + h.c.), unit coupling."""
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


@dataclass
class HamiltonianModel:
    """H(t)/h on the chain basis, split into static and driven parts.

    matrix_at returns Hz; the equation of motion applies the 2*pi.  The _e
    operators belong to the schedule's g_e/det_e columns (the L1 end of the
    chain), the _r operators to g_r/det_r (the L2 end); emitter_site and
    receiver_site resolve the schedule's role labels to chain sites.
    """

    basis: list[BasisLabel]
    static_hz: np.ndarray
    coupling_e: np.ndarray
    coupling_r: np.ndarray
    number_e: np.ndarray
    number_r: np.ndarray
    schedule: PulseSchedule
    emitter_site: int
    receiver_site: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def controls_at(self, t_s: float | np.ndarray) -> tuple:
        s = self.schedule
        return (
            np.interp(t_s, s.times_s, s.g_e_hz),
            np.interp(t_s, s.times_s, s.g_r_hz),
            np.interp(t_s, s.times_s, s.det_e_hz),
            np.interp(t_s, s.times_s, s.det_r_hz),
        )

    def control_samples(self) -> np.ndarray:
        """Control samples (g_e, g_r, det_e, det_r) in Hz, shape (n_times, 4)."""
        s = self.schedule
        return np.stack([s.g_e_hz, s.g_r_hz, s.det_e_hz, s.det_r_hz], axis=1)

    def control_parts(self) -> np.ndarray:
        """The operators the controls multiply, in control_samples order."""
        return np.stack([self.coupling_e, self.coupling_r, self.number_e, self.number_r])

    def matrix_at(self, t_s: float) -> np.ndarray:
        g_e, g_r, det_e, det_r = self.controls_at(t_s)
        return (
            self.static_hz
            + g_e * self.coupling_e
            + g_r * self.coupling_r
            + det_e * self.number_e
            + det_r * self.number_r
        )


def build_hamiltonian(
    cfg: DeviceConfig, schedule: PulseSchedule, truncation: int = 1
) -> HamiltonianModel:
    """Assemble the chain Hamiltonian for a schedule.

    Schedule columns are positional: the g_e/det_e pair always drives the L1
    end of the chain and g_r/det_r the L2 end.  The schedule's
    emitter/receiver labels say which qubit currently plays which role (a
    reversed schedule carries exchanged columns and swapped labels) and are
    used for state placement and population reporting.
    """
    modes = cfg.cpw.modes_retained
    basis = build_basis(truncation, modes)
    indices = cfg.mode_indices()
    target_pos = cfg.target_mode_offset()
    target_freq = cfg.cpw.mode_frequencies_hz[target_pos]

    d = len(basis)
    static = np.zeros((d, d), dtype=complex)
    mode_sites = list(range(1, modes + 1))
    for pos, site in enumerate(mode_sites):
        delta = cfg.cpw.mode_frequencies_hz[pos] - target_freq
        static += delta * _number_operator(basis, site)

    l1_site, l2_site = 0, len(basis[0].occupations) - 1
    names = {cfg.l_qubits[0].name: l1_site, cfg.l_qubits[1].name: l2_site}
    try:
        e_site = names[schedule.emitter]
        r_site = names[schedule.receiver]
    except KeyError as exc:
        raise ValueError(f"schedule names unknown qubit {exc}") from exc
    if e_site == r_site:
        raise ValueError("schedule emitter and receiver are the same qubit")

    def exchange(site: int) -> np.ndarray:
        end = "L1" if site == l1_site else "L2"
        signs = [mode_sign(m, cfg.cpw.target_mode_index, end) for m in indices]
        return _exchange_operator(basis, site, mode_sites, signs)

    model = HamiltonianModel(
        basis=basis,
        static_hz=static,
        coupling_e=exchange(l1_site),
        coupling_r=exchange(l2_site),
        number_e=_number_operator(basis, l1_site),
        number_r=_number_operator(basis, l2_site),
        schedule=schedule,
        emitter_site=e_site,
        receiver_site=r_site,
    )
    # the controls are real, so hermitian parts make H(t) hermitian at every t
    for part in (model.static_hz, *model.control_parts()):
        if not np.allclose(part, part.conj().T, atol=1e-9):
            raise ValueError("Hamiltonian part is not hermitian")
    return model


@dataclass
class CollapseSet:
    """Lindblad operators with rates folded in (units 1/sqrt(s))."""

    operators: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def lossless(cls) -> "CollapseSet":
        return cls([])

    @classmethod
    def from_config(cls, cfg: DeviceConfig, basis: list[BasisLabel]) -> "CollapseSet":
        """Amplitude damping on every site plus pure qubit dephasing.

        1/T_phi = 1/T2 - 1/(2 T1), clamped at zero if T2 exceeds the 2*T1
        limit.  Mode T1 values follow the retained-window ordering.
        """
        n_sites = len(basis[0].occupations)
        modes = n_sites - 2
        ops: list[np.ndarray] = []

        qubit_sites = {0: cfg.l_qubits[0], n_sites - 1: cfg.l_qubits[1]}
        for site, qubit in qubit_sites.items():
            ops.append(math.sqrt(1.0 / qubit.t1_s) * _lowering_operator(basis, site))
            gamma_phi = pure_dephasing_rate(qubit)
            if gamma_phi < 0.0:
                warnings.warn(
                    f"{qubit.name}: T2 exceeds 2*T1, clamping pure dephasing to zero",
                    stacklevel=2,
                )
                gamma_phi = 0.0
            if gamma_phi > 0.0:
                ops.append(math.sqrt(2.0 * gamma_phi) * _number_operator(basis, site))

        for pos in range(modes):
            t1 = cfg.cpw.mode_t1_s[pos]
            ops.append(math.sqrt(1.0 / t1) * _lowering_operator(basis, pos + 1))
        return cls(ops)

    def split(self, dim: int) -> tuple[np.ndarray, sparse.csr_matrix]:
        """The dissipator split for the propagator: (decay, jump).

        decay = sum L^dag L over the operators that move population (site
        lowering) and enters H_eff.  jump is a sparse superoperator on the
        row-major vec of rho: their L rho L^dag, a gather of entries of rho
        since each has at most one entry per row and per column, plus the
        whole dissipator of each diagonal operator (dephasing).  That
        dissipator is diagonal and leaves populations alone; inside H_eff
        its decay of populations would have to be cancelled by the jump
        step, which loses accuracy on long steps.
        """
        eye = sparse.identity(dim, dtype=complex, format="csr")
        decay = np.zeros((dim, dim), dtype=complex)
        jump = sparse.csr_matrix((dim * dim, dim * dim), dtype=complex)
        for l in self.operators:
            ldl = l.conj().T @ l
            jump = jump + sparse.kron(l, l.conj(), format="csr")
            if np.count_nonzero(l - np.diag(np.diag(l))):
                decay += ldl
            else:
                jump = jump - 0.5 * (sparse.kron(ldl, eye) + sparse.kron(eye, ldl.T))
        return decay, jump.tocsr()


# -- propagator ----------------------------------------------------------------
#
# Between samples the controls are linear in t, so the generator of the
# no-jump evolution, A(t) = -2 pi i H_eff(t) with H_eff = H - (i / 4 pi) *
# decay, is A0 + sum_i c_i(t) A_i with each c_i linear on every sample
# interval.  Each interval, or an equal piece of it, is propagated by the
# fourth-order Magnus step on its two Gauss points (Blanes, Casas, Oteo & Ros,
# Phys. Rep. 470, 151 (2009)),
#     Omega = h/2 (A1 + A2) + (sqrt(3) / 12) h^2 [A2, A1],   U = exp(Omega).
# The jump part enters through a Lawson (integrating-factor) fourth-order
# Runge-Kutta step in the interaction picture of the no-jump evolution
# (Lawson, SIAM J. Numer. Anal. 4, 372 (1967)), which needs the propagators
# of the two half steps.


def _expm(omega: np.ndarray) -> np.ndarray:
    """exp of a stack of matrices: scaling, a Taylor series, squaring.

    Matrix products only.  A LAPACK solve, as in a Pade approximant, wakes
    OpenBLAS's worker threads, and the first such call in a process can
    stall for about a second on a 2-core host; the pieces' exponents are
    small, so the series is short.  Its degree is the least whose first
    omitted term is below 1e-17 at the scaled norm.
    """
    norm = float(np.abs(omega).sum(axis=-2).max())
    squarings = max(0, math.ceil(math.log2(norm / _SERIES_RADIUS))) if norm > 0.0 else 0
    x = omega / 2.0**squarings
    theta, degree = norm / 2.0**squarings, 1
    while theta ** (degree + 1) / math.factorial(degree + 1) > 1e-17:
        degree += 1
    eye = np.eye(omega.shape[-1])
    out = eye + x / degree
    for k in range(degree - 1, 0, -1):
        out = eye + (x @ out) / k
    for _ in range(squarings):
        out = out @ out
    return out


def _substep_counts(a0, parts, h, lo, slope, tol: float, jump_rate: float) -> np.ndarray:
    """Fewest equal substeps per sample interval whose remainder estimate
    stays at or below tol.

    The controls of each interval start at lo and change by slope.  With
    alpha1 = h A(t_mid) and alpha2 = h^2 dA/dt on an interval where A is
    linear in t, the leading remainder of the fourth-order Magnus step is
        R = -1/240 [alpha2, [alpha1, alpha2]] + 1/720 [alpha1, [alpha1, [alpha1, alpha2]]],
    of order h^5.  The Runge-Kutta jump step adds r (c + r)^4 / 120, where
    r = h * jump_rate (a norm of the jump part, 0 without loss) and c is the
    row-sum norm of alpha1's off-diagonal part: site energies add, so the
    jump part commutes with the diagonal of A and its integrand turns at the
    rate of the couplings.  n equal substeps divide the interval's estimate
    |R|_F + r (c + r)^4 / 120 by n^4, so n = ceil((estimate / tol) ** (1/4)),
    and a tighter tol never gives fewer substeps.
    """
    scale = h[:, None, None]
    alpha1 = scale * (a0 + np.einsum("ni,ijk->njk", lo + 0.5 * slope, parts))
    alpha2 = scale * np.einsum("ni,ijk->njk", slope, parts)

    def comm(x, y):
        return x @ y - y @ x

    c12 = comm(alpha1, alpha2)
    remainder = comm(alpha1, comm(alpha1, c12)) / 720.0 - comm(alpha2, c12) / 240.0
    rate = h * jump_rate
    turn = np.abs(alpha1 - alpha1 * np.eye(alpha1.shape[-1])).sum(axis=2).max(axis=1)
    estimate = np.linalg.norm(remainder, axis=(1, 2)) + rate * (turn + rate) ** 4 / 120.0
    counts = np.maximum(1.0, np.ceil((estimate / tol) ** 0.25))
    if counts.max() > _MAX_SUBSTEPS:
        raise RuntimeError(
            f"a sample interval needs {counts.max():.3g} substeps to reach tol {tol:.1e}"
        )
    return counts.astype(int)


def _piece_propagators(model: HamiltonianModel, a0, tol: float, jump_rate: float, split: int):
    """Yield (lengths, propagators) of the schedule's pieces in time order.

    Every sample interval is cut into split * n equal pieces, n from
    _substep_counts.  A batch holds at most _CHUNK pieces and every interval
    gives a multiple of split, so split-sized groups never straddle batches.
    """
    times = model.schedule.times_s
    ctrl = model.control_samples()
    parts = -2j * math.pi * model.control_parts()
    for start in range(0, len(times) - 1, _CHUNK):
        stop = min(start + _CHUNK, len(times) - 1)
        h = times[start + 1 : stop + 1] - times[start:stop]
        lo, slope = ctrl[start:stop], ctrl[start + 1 : stop + 1] - ctrl[start:stop]
        counts = split * _substep_counts(a0, parts, h, lo, slope, tol, jump_rate)
        interval = np.repeat(np.arange(stop - start), counts)
        index = np.arange(len(interval)) - np.repeat(np.cumsum(counts) - counts, counts)
        for first in range(0, len(interval), _CHUNK):
            iv = interval[first : first + _CHUNK]
            width = 1.0 / counts[iv]
            begin = index[first : first + _CHUNK] * width
            lengths = (h[iv] * width)[:, None, None]
            a1, a2 = (
                a0 + np.einsum("ni,ijk->njk", lo[iv] + offset[:, None] * slope[iv], parts)
                for offset in (begin + x * width for x in _GAUSS_NODES)
            )
            omega = 0.5 * lengths * (a1 + a2) + (math.sqrt(3.0) / 12.0) * lengths**2 * (
                a2 @ a1 - a1 @ a2
            )
            yield lengths[:, 0, 0], _expm(omega)


def _lawson_step(rho, u_first, u_second, h: float, jump) -> np.ndarray:
    """One RK4 step of length h in the interaction picture of the no-jump
    evolution, whose half-step propagators are u_first and u_second."""

    def propagate(u, m):
        return u @ m @ u.conj().T

    mid = propagate(u_first, rho)
    k1 = propagate(u_first, jump(rho))
    k2 = jump(mid + 0.5 * h * k1)
    k3 = jump(mid + 0.5 * h * k2)
    k4 = jump(propagate(u_second, mid + h * k3))
    return propagate(u_second, mid + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3)) + (h / 6.0) * k4


def _propagate(
    model: HamiltonianModel, collapse: CollapseSet, y0: np.ndarray, tol: float, pure: bool
) -> np.ndarray:
    """The one propagation routine: y(T) for a state vector (pure) or for a
    (stack of) d x d matrices under the Lindblad generator.

    tol bounds the remainder estimate of every sample interval (see
    _substep_counts).  Without collapse operators the piece propagators are
    multiplied into one, which is then applied once.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    y = np.array(y0, dtype=complex)
    if model.schedule.duration_s <= 0.0:
        return y
    d = model.dim
    decay, superop = collapse.split(d)
    a0 = -2j * math.pi * model.static_hz - 0.5 * decay
    if collapse.operators:
        jump_rate = float(abs(superop).sum(axis=1).max())

        def jump(m):
            return (superop @ m.reshape(-1, d * d).T).T.reshape(m.shape)

        for lengths, props in _piece_propagators(model, a0, tol, jump_rate, split=2):
            for h, u_first, u_second in zip(2.0 * lengths[::2], props[::2], props[1::2]):
                y = _lawson_step(y, u_first, u_second, h, jump)
    else:
        total = np.eye(d, dtype=complex)
        for _, props in _piece_propagators(model, a0, tol, 0.0, split=1):
            for u in props:
                total = u @ total
        y = total @ y if pure else total @ y @ total.conj().T
    if not np.all(np.isfinite(y)):
        raise RuntimeError("propagation produced non-finite values")
    return y


def _integrate_matrix(
    model: HamiltonianModel,
    collapse: CollapseSet,
    m0: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Propagate matrices under the (linear) Lindblad generator.

    m0 may be a single d x d matrix or a stack (..., d, d); stacked inputs
    share every propagator, which channel extraction leans on.
    """
    return _propagate(model, collapse, m0, tol, pure=False)


def _integrate_state(model: HamiltonianModel, psi0: np.ndarray, tol: float) -> np.ndarray:
    """Schrodinger fast path for pure lossless evolution."""
    return _propagate(model, CollapseSet.lossless(), psi0, tol, pure=True)


def evolve(
    model: HamiltonianModel,
    collapse: CollapseSet | None,
    rho0: DensityOperator,
    tol: float = 1e-9,
) -> DensityOperator:
    """Integrate the master equation over the model's schedule."""
    if list(rho0.basis) != list(model.basis):
        raise ValueError("state basis does not match the Hamiltonian basis")
    rho0.validate()
    collapse = collapse or CollapseSet.lossless()
    final = _integrate_matrix(model, collapse, rho0.matrix, tol)
    out = DensityOperator(final, model.basis)
    out.validate(trace_tol=1e-9, eig_floor=-1e-8)
    return out


@dataclass
class TransferResult:
    """End-of-schedule populations of a transfer simulation.

    pop_emitter / pop_receiver are the probabilities that the respective
    qubit is excited; pop_other is the probability that only modes hold the
    excitation.  Under loss the remainder sits in the joint ground state.
    """

    pop_emitter: float
    pop_receiver: float
    pop_other: float
    final_state: DensityOperator
    method: str
    g_hz: float
    sweep_duration_s: float
    total_duration_s: float
    lossy: bool
    saturated: bool = False


def _populations(rho: DensityOperator, emitter_site: int, receiver_site: int) -> tuple:
    probs = np.real(np.diag(rho.matrix))
    pop_e = pop_r = pop_other = 0.0
    for p, label in zip(probs, rho.basis):
        occ = label.occupations
        if occ[emitter_site] > 0:
            pop_e += p
        if occ[receiver_site] > 0:
            pop_r += p
        if occ[emitter_site] == 0 and occ[receiver_site] == 0 and label.mode_total > 0:
            pop_other += p
    return float(pop_e), float(pop_r), float(pop_other)


def simulate_transfer(
    cfg: DeviceConfig,
    schedule: PulseSchedule | None = None,
    lossy: bool = True,
    tol: float = 1e-9,
) -> TransferResult:
    """Run one transfer with the emitter excited and everything else ground.

    Lossless runs use the pure-state fast path; the density route gives the
    same populations and is exercised when collapse operators are present.
    """
    if schedule is None:
        schedule = build_transfer_schedule(cfg)
    model = build_hamiltonian(cfg, schedule)
    idx = basis_index(model.basis)
    occ0 = [0] * len(model.basis[0].occupations)
    occ0[model.emitter_site] = 1
    start = idx[tuple(occ0)]

    if lossy:
        collapse = CollapseSet.from_config(cfg, model.basis)
        rho0 = DensityOperator.single_excitation(model.emitter_site, model.basis)
        final = evolve(model, collapse, rho0, tol)
    else:
        psi0 = np.zeros(model.dim, dtype=complex)
        psi0[start] = 1.0
        psi = _integrate_state(model, psi0, tol)
        final = DensityOperator.from_pure(psi, model.basis)

    pop_e, pop_r, pop_other = _populations(final, model.emitter_site, model.receiver_site)
    return TransferResult(
        pop_emitter=pop_e,
        pop_receiver=pop_r,
        pop_other=pop_other,
        final_state=final,
        method=schedule.method,
        g_hz=schedule.g_hz,
        sweep_duration_s=schedule.sweep_duration_s,
        total_duration_s=schedule.duration_s,
        lossy=lossy,
        saturated=schedule.saturated(cfg.transfer.coupling_cap_hz),
    )


@dataclass
class SweepResult:
    method: str
    g_values_hz: list[float]
    t_values_s: list[float]
    results: list[list[TransferResult | None]]
    errors: list[list[str | None]]

    def grid(self, attr: str, empty: float | bool = np.nan) -> np.ndarray:
        """One TransferResult field per (g, T) cell; failed cells hold ``empty``."""
        return np.array(
            [[empty if r is None else getattr(r, attr) for r in row] for row in self.results],
            dtype=type(empty),
        )

    def receiver_population_grid(self) -> np.ndarray:
        return self.grid("pop_receiver")

    def saturated_grid(self) -> np.ndarray:
        return self.grid("saturated", False)

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["g_hz", "T_s", "pop_emitter", "pop_receiver", "pop_other", "saturated"]
            )
            for i, g in enumerate(self.g_values_hz):
                for j, t in enumerate(self.t_values_s):
                    r = self.results[i][j]
                    if r is None:
                        writer.writerow([f"{g:.9e}", f"{t:.9e}", "", "", "", ""])
                        continue
                    writer.writerow(
                        [
                            f"{g:.9e}",
                            f"{t:.9e}",
                            f"{r.pop_emitter:.9e}",
                            f"{r.pop_receiver:.9e}",
                            f"{r.pop_other:.9e}",
                            int(r.saturated),
                        ]
                    )


def sweep_transfer(
    cfg: DeviceConfig,
    method,
    g_grid_hz,
    t_grid_s,
    lossy: bool = False,
    tol: float = 1e-9,
) -> SweepResult:
    """Transfer populations over a (g, T) grid.

    Ramp durations stay at the configured value while the sweep time varies.
    Cells whose corrected coupling exceeds the configured cap are still
    simulated but flagged saturated.  A cell's ValueError (its schedule or
    state checks) or RuntimeError (the propagator) is recorded in errors, not
    raised.
    """
    if len(g_grid_hz) == 0 or len(t_grid_s) == 0:
        raise ValueError("sweep grids must be nonempty")
    ramp_total = cfg.transfer.total_duration_s - cfg.transfer.satd_duration_s
    results: list[list[TransferResult | None]] = []
    errors: list[list[str | None]] = []
    for g in g_grid_hz:
        row: list[TransferResult | None] = []
        err_row: list[str | None] = []
        for t in t_grid_s:
            try:
                schedule = build_transfer_schedule(
                    cfg,
                    method=method,
                    g_hz=float(g),
                    sweep_duration_s=float(t),
                    total_duration_s=float(t) + ramp_total,
                )
                row.append(simulate_transfer(cfg, schedule, lossy, tol))
                err_row.append(None)
            except (ValueError, RuntimeError) as exc:  # schedule or propagator
                row.append(None)
                err_row.append(str(exc))
        results.append(row)
        errors.append(err_row)
    method_name = getattr(method, "value", str(method))
    return SweepResult(
        method=method_name,
        g_values_hz=[float(g) for g in g_grid_hz],
        t_values_s=[float(t) for t in t_grid_s],
        results=results,
        errors=errors,
    )


# -- channel extraction ------------------------------------------------------


def extract_channel(
    cfg: DeviceConfig,
    schedule: PulseSchedule,
    lossy: bool = True,
    tol: float = 1e-9,
    frame_correct: bool = True,
) -> QuantumChannel:
    """CPTP map of a schedule on the (L1, L2) pair, L1 the more significant bit.

    The 16 operators |i><j| of the pair's computational basis are evolved with
    modes in vacuum, in the two-excitation basis that |11> needs; modes are
    traced out at the end, so any population left in them lands on
    computational ground states.  The per-input probability of that escape
    is recorded in leakage_in.  With frame_correct the deterministic detuning
    phase (half the per-qubit ramp integral, symmetric ramps) is removed by a
    virtual Z on each qubit.
    """
    model = build_hamiltonian(cfg, schedule, 2)
    collapse = CollapseSet.from_config(cfg, model.basis) if lossy else CollapseSet.lossless()
    occ = np.array([label.occupations for label in model.basis])
    modes = occ[:, 1:-1]
    mode_total = modes.sum(axis=1)
    # bits[i, a]: chain label a holds pair state i on its two end sites
    bits = (2 * occ[:, 0] + occ[:, -1] == np.arange(4)[:, None]).astype(float)
    inputs = bits * (mode_total == 0)
    stack = np.einsum("ia,jb->ijab", inputs, inputs).reshape(16, model.dim, model.dim)
    finals = _integrate_matrix(model, collapse, stack, tol)

    # entries whose mode occupations agree are traced into their pair bits;
    # superop[i * 4 + j, col] is entry (i, j) of input col's output, and the
    # populations |i><i| are the inputs 5 i
    same_modes = np.all(modes[:, None, :] == modes[None, :, :], axis=2)
    superop = np.einsum("ia,nab,jb->ijn", bits, finals * same_modes, bits).reshape(16, 16)
    populations = np.diagonal(finals[::5], axis1=1, axis2=2)
    leakage = np.real(np.sum((mode_total > 0) * populations, axis=1))

    if frame_correct:
        phi_e, phi_r = schedule.detuning_phase_rad()
        chi = 0.5 * (phi_e + phi_r)
        phases = np.array([np.exp(1j * chi * bin(i).count("1")) for i in range(4)], dtype=complex)
        u = np.diag(phases)
        superop = np.kron(u, u.conj()) @ superop

    # a CP floor of -1e-8 and a TP deficit of at most 1e-8
    return QuantumChannel(superop, 4, leakage_in=leakage, label="pair-channel").validate(
        tp_tol=1e-8
    )
