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

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .basis import BasisLabel, DensityOperator, basis_index, build_basis
from .channels import QuantumChannel, time_ordered_product
from .config import DeviceConfig, pure_dephasing_rate
from .pulses import PulseSchedule, build_transfer_schedule

_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CHUNK = 64  # intervals, and then pieces, per batch; even, bounds memory
_SCREEN_CHUNK = 1024  # intervals per batch of the substep screen, which forms no matrix
_MAX_SUBSTEPS = 4096  # per sample interval spanned, before the propagator gives up
_SERIES_RADIUS = 0.5  # exponents are scaled to this 1-norm before summing
_CONTROLS = 4  # g_e, g_r, det_e, det_r: the parts they multiply lead each table
_PAIRS = np.triu_indices(_CONTROLS, 1)  # the pairs i < j of the controls' brackets
_LINEAR_ULPS = 16  # a sample this many eps * max|c| off its chord still counts as linear
_EPS = np.finfo(float).eps
_TOL = 1e-9  # remainder bound per interval of every propagation (see _substep_counts)


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
    modes = sum(s * _lowering_operator(basis, site) for site, s in zip(mode_sites, signs))
    op = _lowering_operator(basis, qubit_site).conj().T @ modes
    return op + op.conj().T


@dataclass
class HamiltonianModel:
    """H(t)/h on the chain basis: static_hz plus the controls times parts.

    parts stacks the operators the controls multiply, shape (4, d, d), in
    control_samples order: the exchange of the L1 end of the chain (the
    schedule's g_e column), that of the L2 end (g_r), then the L1 and L2
    qubit numbers (det_e, det_r).  matrix_at returns Hz; the equation of
    motion applies the 2*pi.  emitter_site and receiver_site resolve the
    schedule's role labels to chain sites.
    """

    basis: list[BasisLabel]
    static_hz: np.ndarray
    parts: np.ndarray
    schedule: PulseSchedule
    emitter_site: int
    receiver_site: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def control_samples(self) -> np.ndarray:
        """Control samples (g_e, g_r, det_e, det_r) in Hz, shape (n_times, 4)."""
        s = self.schedule
        return np.stack([s.g_e_hz, s.g_r_hz, s.det_e_hz, s.det_r_hz], axis=1)

    def matrix_at(self, t_s: float) -> np.ndarray:
        s = self.schedule
        columns = (s.g_e_hz, s.g_r_hz, s.det_e_hz, s.det_r_hz)  # control_samples order
        controls = [np.interp(t_s, s.times_s, column) for column in columns]
        return sum((c * part for c, part in zip(controls, self.parts)), self.static_hz)


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

    ends = (l1_site, l2_site)
    parts = [exchange(site) for site in ends] + [_number_operator(basis, site) for site in ends]
    model = HamiltonianModel(
        basis=basis,
        static_hz=static,
        parts=np.stack(parts),
        schedule=schedule,
        emitter_site=e_site,
        receiver_site=r_site,
    )
    # the controls are real, so hermitian parts make H(t) hermitian at every t
    for part in (model.static_hz, *model.parts):
        if not np.allclose(part, part.conj().T, atol=1e-9):
            raise ValueError("Hamiltonian part is not hermitian")
    return model


@dataclass
class CollapseSet:
    """Lindblad operators with rates folded in (units 1/sqrt(s)); CollapseSet()
    is the lossless chain."""

    operators: list[np.ndarray] = field(default_factory=list)

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
    small, so the series is short.  Each matrix is scaled by its own power
    of 2, to a 1-norm of at most _SERIES_RADIUS, and squared back as often:
    a whole decoupled run (1-norm up to about 90 at 5 modes) then adds no
    squarings, nor their rounding, to the short pieces of its batch.  A
    batch with no 1-norm above _SERIES_RADIUS is summed as it is.  The
    degree is the least whose first omitted term is below 1e-17 at the
    largest scaled norm of the batch, and the series is summed as
    _series_table lays it out.

    The series' products are real.  NumPy's stacked complex product costs
    three to five times a real one on the same data at k <= 8 (1.3 times
    at 26 x 26), so the powers x^(i-1) x and Horner's steps, times x^q,
    multiply the left factor's interleaved parts by the real form of x or
    of x^q (_real_form): two forms per batch.  The squarings stay complex, since each has a new
    right factor, whose form would serve one product.  One array holds the
    powers, Horner's two running sums and the form, and the result is one
    of its rows: with each in an array of its own, a 26 x 26 batch's peak
    passes the size at which glibc's malloc returns freed memory to the
    system, and every batch page-faults its arrays afresh.
    """
    norms = np.abs(omega).sum(axis=-2).max(axis=-1)
    theta, squarings = float(norms.max()), None
    if theta > _SERIES_RADIUS:
        with np.errstate(divide="ignore"):
            squarings = np.maximum(0, np.ceil(np.log2(norms / _SERIES_RADIUS))).astype(int)
        scale = np.exp2(squarings)
        omega, theta = omega / scale[..., None, None], float((norms / scale).max())
    degree = 1
    while theta ** (degree + 1) / math.factorial(degree + 1) > 1e-17:
        degree += 1
    coef = _series_table(degree)
    q = coef.shape[1] - 1
    k = omega.shape[-1]
    work = np.empty((q + 5, *omega.shape), dtype=complex)
    powers, out, spare = work[: q + 1], work[q + 1], work[q + 2]
    step = work[q + 3 :].reshape(-1).view(float).reshape(*omega.shape[:-2], 2 * k, 2 * k)
    powers[0] = np.eye(k)
    powers[1] = omega
    _real_form(omega, out=step)
    for i in range(2, q + 1):
        np.matmul(powers[i - 1].view(float), step, out=powers[i].view(float))
    _real_form(powers[q], out=step)
    flat = powers.reshape(q + 1, -1).view(float)
    sums = out.reshape(-1).view(float)
    # the coefficients are real: each block is one real product over the interleaved parts
    np.matmul(coef[-1], flat, out=sums)
    for j in range(len(coef) - 2, -1, -1):
        np.matmul(out.view(float), step, out=spare.view(float))
        np.matmul(coef[j], flat, out=sums)
        out += spare
    out += powers[0]
    if squarings is not None:
        for i in range(squarings.max()):
            more = squarings > i
            out[more] = out[more] @ out[more]
    return out


def _real_form(b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The real 2k x 2k form R of each k x k matrix of a stack, with
    a @ b == (a.view(float) @ R).view(complex): a's interleaved real and
    imaginary parts times R.  Rows 2l and 2l + 1 of R are row l of b and
    of i b, each as interleaved parts.  Written into out if given."""
    k = b.shape[-1]
    if out is None:
        out = np.empty((*b.shape[:-2], 2 * k, 2 * k))
    rows = out.reshape(*b.shape[:-2], k, 2, 2 * k).view(complex)
    rows[..., 0, :] = b
    np.multiply(b, 1j, out=rows[..., 1, :])
    return out


@lru_cache(maxsize=None)
def _series_table(degree: int) -> np.ndarray:
    """The Taylor polynomial of exp to the given degree, laid out for
    Paterson and Stockmeyer (SIAM J. Comput. 2, 60 (1973)): with q =
    isqrt(degree), p(x) - 1 = sum_j B_j (x^q)^j, and row j holds the
    coefficients of B_j on the powers x^0 .. x^q, the terms x^n / n! with n
    from j q to j q + q - 1, the last row the rest, up to x^q.  _expm forms
    the powers, then Horner's rule in x^q over the rows, each one product
    of a row with the powers, so degree 10 takes 5 matrix products, not 9;
    the identity is added last, in one rounding, as in Horner's rule.
    Read-only, since every call of a degree shares it.
    """
    q = math.isqrt(degree)
    top = (degree - 1) // q
    coef = np.zeros((top + 1, q + 1))
    for n in range(1, degree + 1):
        j = min(n // q, top)
        coef[j, n - j * q] = 1.0 / math.factorial(n)
    coef.flags.writeable = False
    return coef


class _Block(NamedTuple):
    """One diagonal block of the generator and the fixed tables the
    propagator reads from it (see _sector_blocks); k is its size."""

    span: slice  # its states in the basis
    a0: np.ndarray  # a0's k x k block
    table: np.ndarray  # (14, 2 k^2): the four parts, then the ten brackets
    shifted_gram: np.ndarray  # (5, 5): of a0 and the parts less their traces
    parts_gram: np.ndarray  # (4, 4): of the parts
    bracket_gram: np.ndarray  # (10, 10): of the brackets
    turn_rows: np.ndarray  # (5, k): off-diagonal absolute row sums of a0 and the parts


def _sector_blocks(a0, parts) -> list[_Block]:
    """The generator's diagonal blocks, each a _Block.

    The finest split of the basis into consecutive blocks that a0 and every
    part leave closed, without the blocks on which all of them vanish (their
    propagator is the identity).  build_basis orders states by total
    excitation, which H and the decay conserve, so these are the excitation
    sectors less the ground state: 7 + 26 states for a pair on 5 modes.  The
    table holds each part, then the fixed brackets [a0, P_i] and
    [P_i, P_j], i < j, flattened to rows of interleaved real and imaginary
    parts for _combination.  The Gram matrices G_ij = Re tr(X_i^dag X_j) of
    three sets of them give the squared norms of the substep screen as
    quadratic forms (_gram_form).
    """
    pattern = (a0 != 0) | np.any(parts != 0, axis=0)
    pattern |= pattern.T
    d = len(pattern)
    reach = np.maximum.accumulate(np.where(pattern, np.arange(d), 0).max(axis=1))
    ends = np.flatnonzero(reach <= np.arange(d)) + 1
    first, second = _PAIRS
    blocks = []
    for a, b in zip([0, *ends[:-1]], ends):
        s = slice(int(a), int(b))
        if not pattern[s, s].any():
            continue
        a0_block, p = a0[s, s], parts[:, s, s]
        k = len(a0_block)
        brackets = [a0_block @ p - p @ a0_block, p[first] @ p[second] - p[second] @ p[first]]
        table = np.concatenate([p, *brackets]).reshape(-1, k * k).view(float)
        generators = np.concatenate([a0_block[None], p])
        traces = np.trace(generators, axis1=1, axis2=2)
        shifted = (generators - traces[:, None, None] / k * np.eye(k)).reshape(-1, k * k)
        shifted = shifted.view(float)
        parts_rows, bracket_rows = table[:_CONTROLS], table[_CONTROLS:]
        off_diagonal = np.abs(generators - generators * np.eye(k)).sum(axis=2)
        blocks.append(
            _Block(
                span=s,
                a0=a0_block,
                table=table,
                shifted_gram=shifted @ shifted.T,
                parts_gram=parts_rows @ parts_rows.T,
                bracket_gram=bracket_rows @ bracket_rows.T,
                turn_rows=off_diagonal,
            )
        )
    return blocks


def _combination(coef, rows) -> np.ndarray:
    """sum_i coef[:, i] X_i over the k x k matrices X_i flattened to rows
    of a table of _sector_blocks, for each row of real coefficients: one
    real product, as in _expm's block."""
    k = math.isqrt(rows.shape[1] // 2)
    return (coef @ rows).view(complex).reshape(-1, k, k)


def _bracket_coefficients(c, s) -> np.ndarray:
    """The ten coefficients of [A(c), s . P] over the brackets of
    _sector_blocks, one row per row of controls c and s.

    A(c) = a0 + sum_i c_i P_i is linear in the controls, so the bracket is
    sum_i s_i [a0, P_i] + sum_{i<j} (c_i s_j - c_j s_i) [P_i, P_j].
    """
    first, second = _PAIRS
    return np.concatenate([s, c[:, first] * s[:, second] - c[:, second] * s[:, first]], axis=1)


def _comm(x, y) -> np.ndarray:
    return x @ y - y @ x


def _square_norm(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack."""
    return np.square(m.reshape(len(m), -1).view(float)).sum(axis=1)


def _gram_form(gram, v, k: int) -> np.ndarray:
    """|sum_i v_i X_i|_F^2 for each real row v, as the quadratic form
    v^T gram v of the Gram matrix of the k x k matrices X_i, raised by
    (2 k^2 + 16) eps (sum_i |v_i| |X_i|_F)^2.

    That allowance exceeds the rounding of the Gram entries, dot products
    of length 2 k^2 (each off by at most k^2 eps |X_i|_F |X_j|_F), and of
    the form's own sums of at most 10 terms, so the result is never below
    the exact squared norm of the matrices the rows stand for.
    """
    reach = np.abs(v) @ np.sqrt(np.diagonal(gram))
    return ((v @ gram) * v).sum(axis=1) + (2 * k * k + 16) * _EPS * reach**2


def _screen_bound(shifted, alpha2, c12) -> np.ndarray:
    """An upper bound on the Frobenius norm of the Magnus remainder R (see
    _substep_counts) of each interval, from the squared Frobenius norms of
    alpha1' = alpha1 - (tr alpha1 / k) I, alpha2 and c12 = [alpha1, alpha2].

    |XY - YX|_F <= sqrt(2) |X|_F |Y|_F (Boettcher & Wenzel, Linear Algebra
    Appl. 429, 1864 (2008)) bounds |[alpha2, c12]| by sqrt(2) |alpha2| |c12|
    and |[alpha1, [alpha1, c12]]| by 2 |alpha1'|^2 |c12|, since alpha1' has
    the same commutators as alpha1 and a smaller norm.
    """
    return np.sqrt(c12) * (math.sqrt(2.0) * np.sqrt(alpha2) / 240.0 + 2.0 * shifted / 720.0)


def _substep_counts(
    a0, parts, h, lo, slope, tol: float, jump_rate: float, blocks=None
) -> np.ndarray:
    """Fewest equal substeps per interval whose remainder estimate stays at
    or below tol, as floats (_piece_propagators caps them).

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

    R and alpha1 are block diagonal like A, so both norms are gathered over
    the blocks of _sector_blocks (found here unless given).  Most intervals
    are cleared by _screen, _SCREEN_CHUNK at a time: where its bound is at
    or below tol, the estimate is too, and the interval gets one substep.
    The others take _estimate itself, _CHUNK at a time, so the counts are
    those of the estimate.
    """
    if blocks is None:
        blocks = _sector_blocks(a0, parts)
    counts = np.ones(len(h))
    for start in range(0, len(h), _SCREEN_CHUNK):
        span = slice(start, start + _SCREEN_CHUNK)
        bound = _screen(blocks, h[span], lo[span], slope[span], jump_rate)
        rest = start + np.flatnonzero(bound > tol)
        for batch in (rest[i : i + _CHUNK] for i in range(0, len(rest), _CHUNK)):
            estimate = _estimate(blocks, h[batch], lo[batch], slope[batch], jump_rate)
            counts[batch] = np.maximum(1.0, np.ceil((estimate / tol) ** 0.25))
    return counts


def _screen(blocks, h, lo, slope, jump_rate: float) -> np.ndarray:
    """An upper bound on the remainder estimate of each interval (see
    _substep_counts), forming no matrix.

    alpha1' = alpha1 - (tr alpha1 / k) I = h (a0' + mid . P'), the primes
    marking matrices less their traces, alpha2 = h slope . P and c12 =
    [alpha1, alpha2] = h^2 [A(mid), slope . P] are fixed combinations of
    each block's matrices with real coefficients, so their squared norms
    are quadratic forms in the interval's controls and bracket coefficients
    (_gram_form), which bound |R|_F by _screen_bound.  c is at most h times
    the off-diagonal row sums of a0 and the parts, weighted by 1 and |mid|,
    raised by (k + 8) eps for the rounding of these sums and of those
    _estimate takes.  Both allowances only raise the bound, so rounding can
    only send an interval on to the estimate itself, never clear one.
    """
    mid = lo + 0.5 * slope
    brackets = _bracket_coefficients(mid, slope)
    rate = h * jump_rate
    unit_mid = np.column_stack([np.ones(len(h)), mid])  # a0's weight, then the controls'
    bound, turn = 0.0, 0.0
    for block in blocks:
        k = len(block.a0)
        shifted = h**2 * _gram_form(block.shifted_gram, unit_mid, k)
        alpha2 = h**2 * _gram_form(block.parts_gram, slope, k)
        c12 = h**4 * _gram_form(block.bracket_gram, brackets, k)
        bound = bound + _screen_bound(shifted, alpha2, c12) ** 2
        if jump_rate:  # without loss the jump term is 0 whatever c is
            rows = (np.abs(unit_mid) @ block.turn_rows).max(axis=1)
            turn = np.maximum(turn, (1.0 + (k + 8) * _EPS) * h * rows)
    return np.sqrt(bound) + rate * (turn + rate) ** 4 / 120.0


def _estimate(blocks, h, lo, slope, jump_rate: float) -> np.ndarray:
    """The remainder estimate of each interval (see _substep_counts):
    alpha1, alpha2 and c12 are each one product with the block's table,
    then the nested commutators."""
    mid = lo + 0.5 * slope
    brackets = _bracket_coefficients(mid, slope)
    scale = h[:, None, None]
    rate = h * jump_rate
    square, turn = 0.0, 0.0
    for block in blocks:
        parts_rows = block.table[:_CONTROLS]
        alpha1 = scale * (block.a0 + _combination(mid, parts_rows))
        alpha2 = scale * _combination(slope, parts_rows)
        c12 = scale**2 * _combination(brackets, block.table[_CONTROLS:])
        remainder = _comm(alpha1, _comm(alpha1, c12)) / 720.0 - _comm(alpha2, c12) / 240.0
        square = square + _square_norm(remainder)
        if jump_rate:
            k = len(block.a0)
            off_diagonal = np.abs(alpha1 - alpha1 * np.eye(k)).sum(axis=2).max(axis=1)
            turn = np.maximum(turn, off_diagonal)
    return np.sqrt(square) + rate * (turn + rate) ** 4 / 120.0


def _interval_ends(times, ctrl, a0, parts) -> np.ndarray:
    """Indices of the samples that bound the propagation intervals: every
    sample but those inside a decoupled run along which the controls are
    linear in time.

    An interval is decoupled when a0 is diagonal and the control of every
    part with off-diagonal entries (the two exchanges) is exactly zero at
    both ends.  A(t) is then diagonal, so it commutes with itself at all
    times, and where every control is linear in t across a run of such
    intervals, exp(h A(t_mid)) over the whole run is its exact propagator:
    the Magnus brackets vanish, and the step's halves split exactly.
    Linear means each sample of the run lies within _LINEAR_ULPS * eps *
    max|c| of the chord of its column between the run's two ends; a
    sample is a candidate when it lies that close to the chord of its two
    neighbours, and a run of candidates whose chord test fails keeps its
    samples.  The piecewise-linear control and the chord then differ by at
    most that bound everywhere, so a run of length T moves a qubit's phase
    2 pi int c dt by at most 2 pi T _LINEAR_ULPS eps max|c|: 4e-14 rad for
    a default ramp (52 MHz, 35.3 ns), whose samples lie within 1.4 eps
    max|c| of their chords.
    """
    n = len(times)
    off = ~np.eye(len(a0), dtype=bool)
    if a0[off].any():
        return np.arange(n)
    coupled = parts[:, off].any(axis=1)
    decoupled = ~ctrl[:, coupled].any(axis=1)  # per sample
    bound = _LINEAR_ULPS * _EPS * np.abs(ctrl).max(axis=0)

    def near_chord(a, b, k):
        """Samples k within bound of the chords from samples a to b."""
        w = ((times[k] - times[a]) / (times[b] - times[a]))[:, None]
        return np.all(np.abs(ctrl[k] - (ctrl[a] + w * (ctrl[b] - ctrl[a]))) <= bound, axis=1)

    k = np.arange(1, n - 1)
    candidate = decoupled[:-2] & decoupled[1:-1] & decoupled[2:] & near_chord(k - 1, k + 1, k)
    keep = np.ones(n, dtype=bool)
    edges = np.diff(np.concatenate([[0], candidate.astype(int), [0]]))
    for first, stop in zip(np.flatnonzero(edges == 1) + 1, np.flatnonzero(edges == -1) + 1):
        run = np.arange(first, stop)
        if near_chord(first - 1, stop, run).all():
            keep[run] = False
    return np.flatnonzero(keep)


def _piece_rows(h, lo, slope, counts) -> tuple[np.ndarray, np.ndarray]:
    """The lengths and Magnus coefficient rows of all the pieces of a
    schedule, in time order, interval i (of length h[i], controls from
    lo[i] changing by slope[i]) cut into counts[i] equal pieces.

    h/2 (A1 + A2) = h A(centre), and A1 = A2 - gap slope . P, gap the Gauss
    points' distance as a fraction of the interval, so (sqrt(3) / 12) h^2
    [A2, A1] = -twist [A2, slope . P].  Both are linear in the parts and the
    brackets, so a piece's exponent is h a0 plus one real product of its
    row [h centre, -twist (bracket coefficients)] with a block's table.
    """
    interval = np.repeat(np.arange(len(h)), counts)
    index = np.arange(len(interval)) - np.repeat(np.cumsum(counts) - counts, counts)
    width = 1.0 / counts[interval]
    begin = index * width
    lengths = h[interval] * width
    gap = (_GAUSS_NODES[1] - _GAUSS_NODES[0]) * width
    twist = (math.sqrt(3.0) / 12.0) * lengths**2 * gap
    lo, slope = lo[interval], slope[interval]
    centre = lo + (begin + 0.5 * width)[:, None] * slope
    late = lo + (begin + _GAUSS_NODES[1] * width)[:, None] * slope
    rows = np.concatenate(
        [lengths[:, None] * centre, -twist[:, None] * _bracket_coefficients(late, slope)],
        axis=1,
    )
    return lengths, rows


def _piece_propagators(model: HamiltonianModel, a0, tol: float, jump_rate: float, split: int):
    """Yield (lengths, propagators) of the schedule's pieces in time order.

    The intervals are those between the samples of _interval_ends: each
    sample interval, or a whole decoupled run with linear controls.  Every
    interval is cut into split * n equal pieces, n from _substep_counts at
    the interval's own length, so the jump term of the estimate decides n
    on a run.  A batch holds at most _CHUNK pieces and every interval
    gives a multiple of split, so split-sized groups never straddle batches.
    The Magnus exponents and their exponentials are taken per block of
    _sector_blocks; the propagators are block diagonal, the identity off
    the blocks.  The exponents' coefficient rows (_piece_rows) are formed
    once per schedule, and each batch takes its slice of them.
    """
    parts = -2j * math.pi * model.parts
    times, ctrl = model.schedule.times_s, model.control_samples()
    ends = _interval_ends(times, ctrl, a0, parts)
    ctrl, h = ctrl[ends], np.diff(times[ends])
    lo, slope = ctrl[:-1], np.diff(ctrl, axis=0)
    blocks = _sector_blocks(a0, parts)
    counts = _substep_counts(a0, parts, h, lo, slope, tol, jump_rate, blocks)
    spans = np.diff(ends)  # the sample intervals of each interval
    if np.any(counts > _MAX_SUBSTEPS * spans):
        worst = np.argmax(counts / spans)
        raise RuntimeError(
            f"an interval of {spans[worst]} samples needs {counts[worst]:.3g} substeps"
            f" to reach tol {tol:.1e}"
        )
    lengths, coef = _piece_rows(h, lo, slope, split * counts.astype(int))
    eye = np.eye(model.dim, dtype=complex)
    for first in range(0, len(coef), _CHUNK):
        rows, batch = coef[first : first + _CHUNK], lengths[first : first + _CHUNK]
        props = np.repeat(eye[None], len(batch), axis=0)
        for block in blocks:
            omega = _combination(rows, block.table) + batch[:, None, None] * block.a0
            props[:, block.span, block.span] = _expm(omega)
        yield batch, props


def _stacked_jump(
    superop: sparse.csr_matrix, d: int, batch: int, schedules: int
) -> sparse.csr_matrix:
    """The jump superoperator of CollapseSet.split re-indexed to the flat
    index of _propagate's stacked layout x[s, r, b, c] = m_sb[r, c]: entry
    (r d + c, t d + e) lands at (n s + r B d + b d + c, n s + t B d + b d + e)
    for each of the B = batch matrices of each of the S = schedules
    schedules, n = d B d, so one sparse product jumps them all.  Its
    leading n S' rows and columns are the jump of the first S' schedules."""
    entries = superop.tocoo()
    n = d * batch * d
    offsets = n * np.arange(schedules)[:, None, None] + d * np.arange(batch)[None, :, None]

    def place(vec):
        return (vec // d * batch * d + vec % d)[None, None, :] + offsets

    data = np.broadcast_to(entries.data, (schedules, batch, entries.nnz))
    rows, cols = place(entries.row), place(entries.col)
    size = n * schedules
    return sparse.csr_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(size, size))


def _lawson_step(x, first, second, h, jump) -> np.ndarray:
    """One RK4 step in the interaction picture of the no-jump evolution, on
    the stacked layout x[s, r, b, c] = m_sb[r, c] of _propagate, of length
    h[s] for schedule s (h of shape (S, 1, 1, 1), or one scalar for all of
    them).  first and second are
    the (propagators, adjoints) pairs of its half steps, one d x d matrix
    per schedule.  Each conjugation u_s m_sb u_s^dag of all S B matrices is
    two batched GEMMs: u_s times the d x (B d) rows of x[s], then the
    (d B) x d result times u_s^dag.  jump returns a new array.  The stages
    are scaled and summed in place, in arrays the step has made, with the
    operands of the plain formula in its order, so x is never written and
    the result is the plain formula's to the bit."""
    schedules, d = x.shape[:2]

    def propagate(pair, m):
        u, u_dag = pair
        rows = (u @ m.reshape(schedules, d, -1)).reshape(schedules, -1, d)
        return (rows @ u_dag).reshape(m.shape)

    mid, k1 = propagate(first, x), propagate(first, jump(x))
    half, sixth = 0.5 * h, h / 6.0
    # the stages' inputs mid + h/2 k1, mid + h/2 k2, mid + h k3, in turn in one array
    stage = np.multiply(half, k1)
    stage += mid
    k2 = jump(stage)
    np.multiply(half, k2, out=stage)
    stage += mid
    k3 = jump(stage)
    np.multiply(h, k3, out=stage)
    stage += mid
    end = jump(propagate(second, stage))
    # k1 + 2 k2 + 2 k3, summed in that order: doubling is exact
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


def _lockstep(streams, x, stacked) -> np.ndarray:
    """Lawson steps of S schedules at once on x of shape (S, d, B, d).

    streams[s] yields schedule s's (lengths, propagators) batches in time
    order, as _piece_propagators with split=2 does; each pair of pieces is
    one step.  Every batch but a schedule's last holds _CHUNK pieces, so
    the schedules' batches line up and their steps are paired in order.
    stacked is _stacked_jump for all S schedules.  A schedule whose steps
    have run out is dropped: its rows of x are set aside, and the others
    step on without it, under the leading rows and columns of stacked.  No
    schedule takes a padding step, and its pieces are never batched with
    another schedule's, so each schedule's propagators are those it has
    alone.
    """
    live = np.arange(len(x))  # the schedule of each row of x
    out = np.empty_like(x)
    d, size = x.shape[1], x[0].size

    def jump(m):
        return (stacked @ m.ravel()).reshape(m.shape)

    for batches in itertools.zip_longest(*streams):
        # a schedule with no batch left has run out and takes no steps
        batches = [batches[s] for s in live]
        steps = np.array([0 if b is None else len(b[0]) // 2 for b in batches])
        props = np.zeros((len(live), 2 * steps.max(), d, d), dtype=complex)
        h = np.zeros((len(live), steps.max()))
        for row, batch in enumerate(batches):
            if batch is not None:
                props[row, : len(batch[1])] = batch[1]
                h[row, : steps[row]] = 2.0 * batch[0][::2]
        adjoints = props.conj().transpose(0, 1, 3, 2)
        # where every schedule's step has one length (as for a schedule and
        # its reverse) the step takes it as a scalar, whose products are faster
        uniform = bool(np.all(h == h[0]))
        drop = steps.min()  # the first step some schedule does not have
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
            x = _lawson_step(x, first, second, length, jump)
    out[live] = x
    return out


def _propagate(model, collapse: CollapseSet, y0: np.ndarray, tol: float) -> np.ndarray:
    """The one propagation routine: y(T) for a state vector (y0.ndim == 1)
    under the Schrodinger equation, or for a d x d matrix or a stack of them
    (..., d, d) under the Lindblad generator; stacked matrices share every
    propagator, which channel extraction leans on.  A state vector needs the
    lossless chain, CollapseSet().  model may also be a list of S models
    (schedules) that share their basis, static_hz and parts, a ValueError
    otherwise; y0 and the result then hold one input per model on a leading
    axis.

    tol bounds the remainder estimate of every interval (see
    _substep_counts): a sample interval, or a whole decoupled run of them
    along which the controls are linear, such as a transfer's detuning
    ramps, whose diagonal generator makes one interval exact (see
    _interval_ends).  Without collapse operators each model's piece
    propagators are multiplied into one, pairwise within each batch, which
    is then applied once.  With them, the B matrices of each of the S
    schedules are held for the whole propagation in one array
    x[s, r, b, c] = m_sb[r, c] of shape (S, d, B, d), transposed once on the
    way in and once on the way out, and _lockstep steps all the schedules
    together: every Lawson step conjugates all S B matrices in two batched
    GEMMs and jumps them in one sparse product on x's flat index.  Each
    schedule has its own stream of piece propagators, and one model alone
    is the case S = 1.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    single = isinstance(model, HamiltonianModel)
    models = [model] if single else list(model)
    y = np.array(y0, dtype=complex)
    ys = y[None] if single else y  # one input per model
    if ys.ndim == 2 and collapse.operators:
        raise ValueError("a state vector cannot be propagated with collapse operators")
    if len(ys) != len(models):
        raise ValueError(f"{len(models)} models for {len(ys)} inputs")
    first = models[0]
    for other in models[1:]:
        if other.basis != first.basis or not (
            np.array_equal(other.static_hz, first.static_hz)
            and np.array_equal(other.parts, first.parts)
        ):
            raise ValueError("batched models must share their basis, static_hz and parts")
    d = first.dim
    decay, superop = collapse.split(d)
    a0 = -2j * math.pi * first.static_hz - 0.5 * decay
    moving = [m.schedule.duration_s > 0.0 for m in models]  # the others are left as they are
    if collapse.operators:
        jump_rate = float(abs(superop).sum(axis=1).max())
        x = np.ascontiguousarray(ys.reshape(len(ys), -1, d, d).transpose(0, 2, 1, 3))
        streams = [
            _piece_propagators(m, a0, tol, jump_rate, split=2) if move else iter(())
            for m, move in zip(models, moving)
        ]
        x = _lockstep(streams, x, _stacked_jump(superop, d, x.shape[2], len(x)))
        ys = x.transpose(0, 2, 1, 3).reshape(ys.shape)
    else:
        for s, m in enumerate(models):
            if not moving[s]:
                continue
            total = np.eye(d, dtype=complex)
            for _, props in _piece_propagators(m, a0, tol, 0.0, split=1):
                total = time_ordered_product(props) @ total
            ys[s] = total @ ys[s] if ys[s].ndim == 1 else total @ ys[s] @ total.conj().T
    if not np.all(np.isfinite(ys)):
        raise RuntimeError("propagation produced non-finite values")
    return ys[0] if single else ys


def evolve(
    model: HamiltonianModel,
    collapse: CollapseSet,
    rho0: DensityOperator,
) -> DensityOperator:
    """Integrate the master equation over the model's schedule; CollapseSet()
    for the lossless chain."""
    if list(rho0.basis) != list(model.basis):
        raise ValueError("state basis does not match the Hamiltonian basis")
    rho0.validate()
    final = _propagate(model, collapse, rho0.matrix, _TOL)
    return DensityOperator(final, model.basis).validate()


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
    schedule: PulseSchedule,
    lossy: bool = True,
) -> TransferResult:
    """Run one transfer with the emitter excited and everything else ground.

    Lossless runs use the pure-state fast path; the density route gives the
    same populations and is exercised when collapse operators are present.
    """
    model = build_hamiltonian(cfg, schedule)
    idx = basis_index(model.basis)
    occ0 = [0] * len(model.basis[0].occupations)
    occ0[model.emitter_site] = 1
    start = idx[tuple(occ0)]

    if lossy:
        collapse = CollapseSet.from_config(cfg, model.basis)
        rho0 = DensityOperator.single_excitation(model.emitter_site, model.basis)
        final = evolve(model, collapse, rho0)
    else:
        psi0 = np.zeros(model.dim, dtype=complex)
        psi0[start] = 1.0
        psi = _propagate(model, CollapseSet(), psi0, _TOL)
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
                row.append(simulate_transfer(cfg, schedule, lossy))
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


def extract_channels(
    cfg: DeviceConfig,
    schedules: list[PulseSchedule],
    lossy: bool = True,
) -> list[QuantumChannel]:
    """CPTP maps of schedules on the (L1, L2) pair, L1 the more significant
    bit, one per schedule, all propagated together.

    The operators |i><j| of the pair's computational basis are evolved with
    modes in vacuum, in the two-excitation basis that |11> needs; modes are
    traced out at the end, so any population left in them lands on
    computational ground states.  The per-input probability of that escape
    is recorded in leakage_in.  Only the 10 inputs with i <= j are
    propagated: the Lindblad map preserves hermiticity, so the output for
    |j><i| is the adjoint of the output for |i><j|, and the other 6 are
    filled that way.  Under loss, the inputs of every schedule go through
    one _propagate call, each schedule on its own piece propagators, so each
    channel is the one the schedule gives alone, to the last bit.  A
    virtual Z on each qubit, applied after the propagated map, then removes
    the deterministic detuning phase (half the per-qubit ramp integral,
    symmetric ramps).
    """
    schedules = list(schedules)
    if not schedules:
        raise ValueError("no schedules to extract")
    models = [build_hamiltonian(cfg, schedule, 2) for schedule in schedules]
    basis, d = models[0].basis, models[0].dim
    collapse = CollapseSet.from_config(cfg, basis) if lossy else CollapseSet()
    occ = np.array([label.occupations for label in basis])
    modes = occ[:, 1:-1]
    mode_total = modes.sum(axis=1)
    # bits[i, a]: chain label a holds pair state i on its two end sites
    bits = (2 * occ[:, 0] + occ[:, -1] == np.arange(4)[:, None]).astype(float)
    inputs = bits * (mode_total == 0)
    rows, cols = np.triu_indices(4)
    stack = inputs[rows, :, None] * inputs[cols, None, :]
    propagated = _propagate(models, collapse, [stack] * len(models), _TOL)
    # entries whose mode occupations agree are traced into their pair bits
    same_modes = np.all(modes[:, None, :] == modes[None, :, :], axis=2)

    channels = []
    for schedule, upper in zip(schedules, propagated):
        finals = np.empty((4, 4, d, d), dtype=complex)
        finals[cols, rows] = upper.conj().transpose(0, 2, 1)
        finals[rows, cols] = upper  # last, so the populations are the propagated ones
        finals = finals.reshape(16, d, d)
        # superop[i * 4 + j, col] is entry (i, j) of input col's output, and
        # the populations |i><i| are the inputs 5 i
        superop = np.einsum("ia,nab,jb->ijn", bits, finals * same_modes, bits).reshape(16, 16)
        populations = np.diagonal(finals[::5], axis1=1, axis2=2)
        leakage = np.real(np.sum((mode_total > 0) * populations, axis=1))

        phi_e, phi_r = schedule.detuning_phase_rad()
        chi = 0.5 * (phi_e + phi_r)
        u = np.diag([np.exp(1j * chi * bin(i).count("1")) for i in range(4)])
        superop = np.kron(u, u.conj()) @ superop

        # a CP floor of -1e-8 and a TP deficit of at most 1e-8
        channels.append(QuantumChannel(superop, 4, leakage_in=leakage).validate(tp_tol=1e-8))
    return channels

