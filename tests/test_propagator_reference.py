"""The propagator against its previous, plainer route, kept here as a
test-only reference.

The reference is the route ``dynamics`` took before its products were cut:
the exponential's Taylor series summed by Horner's rule, every piece
exponentiated whole (no excitation-sector split), its Magnus commutator
and every substep estimate taken by plain matrix products with no screen,
the lossless pieces multiplied into the total one product at a time, and
every Lawson step conjugating its four matrices separately, with channel
extraction propagating all 16 pair inputs.  It steps through every sample
interval, so it does not share the propagator's grid: the propagator takes
a decoupled run with linear controls (a transfer's detuning ramps) as one
interval, and scales each exponent by its own power of 2 where the
reference scales a batch by its largest norm.  The two share the series
degree rule, the substep estimate and the tolerance, and agree within
1e-12 on every schedule here; on the per-sample grid the substep counts
are equal.  ``_expm`` is also checked against ``scipy.linalg.expm`` over
the sizes, batches and norms the propagator meets, the bracket table
against plain commutators, the screen's Gram forms against the norms of
the matrices they stand for, and the screen against the remainder it
bounds.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lcoupler import dynamics
from lcoupler.basis import DensityOperator, basis_index
from lcoupler.channels import QuantumChannel
from lcoupler.config import default_config, load_config
from lcoupler.dynamics import (
    _CHUNK,
    _CONTROLS,
    _GAUSS_NODES,
    _MAX_SUBSTEPS,
    _SERIES_RADIUS,
    CollapseSet,
    _bracket_coefficients,
    _combination,
    _gram_form,
    _interval_ends,
    _propagate,
    _screen_bound,
    _sector_blocks,
    _substep_counts,
    build_hamiltonian,
    extract_channels,
)
from lcoupler.pulses import PulseSchedule, build_transfer_schedule, reverse_schedule

from oracles import detuning_frame

AGREEMENT = 1e-12
ONE_MODE = {"cpw": {"modes_retained": 1}}

# ---------------------------------------------------------------------------
# the reference route


def reference_expm(omega):
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


def comm(x, y):
    return x @ y - y @ x


def reference_remainder(alpha1, alpha2):
    c12 = comm(alpha1, alpha2)
    return comm(alpha1, comm(alpha1, c12)) / 720.0 - comm(alpha2, c12) / 240.0


def reference_substep_counts(a0, parts, h, lo, slope, tol, jump_rate):
    scale = h[:, None, None]
    alpha1 = scale * (a0 + np.einsum("ni,ijk->njk", lo + 0.5 * slope, parts))
    alpha2 = scale * np.einsum("ni,ijk->njk", slope, parts)
    remainder = reference_remainder(alpha1, alpha2)
    rate = h * jump_rate
    turn = np.abs(alpha1 - alpha1 * np.eye(alpha1.shape[-1])).sum(axis=2).max(axis=1)
    estimate = np.linalg.norm(remainder, axis=(1, 2)) + rate * (turn + rate) ** 4 / 120.0
    counts = np.maximum(1.0, np.ceil((estimate / tol) ** 0.25))
    assert counts.max() <= _MAX_SUBSTEPS
    return counts.astype(int)


def reference_pieces(model, a0, tol, jump_rate, split):
    times = model.schedule.times_s
    ctrl = model.control_samples()
    parts = -2j * math.pi * model.parts
    for start in range(0, len(times) - 1, _CHUNK):
        stop = min(start + _CHUNK, len(times) - 1)
        h = times[start + 1 : stop + 1] - times[start:stop]
        lo, slope = ctrl[start:stop], ctrl[start + 1 : stop + 1] - ctrl[start:stop]
        counts = split * reference_substep_counts(a0, parts, h, lo, slope, tol, jump_rate)
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
            yield lengths[:, 0, 0], reference_expm(omega)


def reference_lawson_step(rho, u_first, u_second, h, jump):
    def propagate(u, m):
        return u @ m @ u.conj().T

    mid = propagate(u_first, rho)
    k1 = propagate(u_first, jump(rho))
    k2 = jump(mid + 0.5 * h * k1)
    k3 = jump(mid + 0.5 * h * k2)
    k4 = jump(propagate(u_second, mid + h * k3))
    return propagate(u_second, mid + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3)) + (h / 6.0) * k4


def reference_propagate(model, collapse, y0, tol):
    y = np.array(y0, dtype=complex)
    d = model.dim
    decay, superop = collapse.split(d)
    a0 = -2j * math.pi * model.static_hz - 0.5 * decay
    if collapse.operators:
        jump_rate = float(abs(superop).sum(axis=1).max())

        def jump(m):
            return (superop @ m.reshape(-1, d * d).T).T.reshape(m.shape)

        for lengths, props in reference_pieces(model, a0, tol, jump_rate, split=2):
            for h, u_first, u_second in zip(2.0 * lengths[::2], props[::2], props[1::2]):
                y = reference_lawson_step(y, u_first, u_second, h, jump)
    else:
        total = np.eye(d, dtype=complex)
        for _, props in reference_pieces(model, a0, tol, 0.0, split=1):
            for u in props:
                total = u @ total
        y = total @ y if y.ndim == 1 else total @ y @ total.conj().T
    return y


def reference_extract_channel(cfg, schedule, lossy, tol=1e-9):
    """extract_channels of one schedule, with all 16 inputs propagated by
    the reference route."""
    model = build_hamiltonian(cfg, schedule, 2)
    collapse = CollapseSet.from_config(cfg, model.basis) if lossy else CollapseSet()
    occ = np.array([label.occupations for label in model.basis])
    modes = occ[:, 1:-1]
    mode_total = modes.sum(axis=1)
    bits = (2 * occ[:, 0] + occ[:, -1] == np.arange(4)[:, None]).astype(float)
    inputs = bits * (mode_total == 0)
    stack = np.einsum("ia,jb->ijab", inputs, inputs).reshape(16, model.dim, model.dim)
    finals = reference_propagate(model, collapse, stack, tol)
    same_modes = np.all(modes[:, None, :] == modes[None, :, :], axis=2)
    superop = np.einsum("ia,nab,jb->ijn", bits, finals * same_modes, bits).reshape(16, 16)
    populations = np.diagonal(finals[::5], axis1=1, axis2=2)
    leakage = np.real(np.sum((mode_total > 0) * populations, axis=1))
    return QuantumChannel(detuning_frame(schedule) @ superop, 4, leakage_in=leakage)


# ---------------------------------------------------------------------------
# agreement on the runs the program makes


@pytest.mark.parametrize("method", ["satd", "stirap"])
@pytest.mark.parametrize("g_hz", [1e6, 4e6])
def test_sweep_cells_match_reference(method, g_hz):
    # the benchmark's sweep grid: 5 modes, T from 50 to 400 ns in 5 points
    cfg = default_config()
    ramps = cfg.transfer.total_duration_s - cfg.transfer.satd_duration_s
    for sweep_s in np.linspace(50e-9, 400e-9, 5):
        sched = build_transfer_schedule(cfg, method, g_hz, sweep_s, sweep_s + ramps)
        model = build_hamiltonian(cfg, sched)
        psi0 = np.zeros(model.dim, dtype=complex)
        psi0[basis_index(model.basis)[(1, 0, 0, 0, 0, 0, 0)]] = 1.0
        psi = _propagate(model, CollapseSet(), psi0, 1e-9)
        reference = reference_propagate(model, CollapseSet(), psi0, 1e-9)
        assert np.max(np.abs(psi - reference)) < AGREEMENT


@pytest.mark.parametrize(
    "overrides, method, lossy, reverse",
    [
        *(
            pytest.param(ONE_MODE, "satd", lossy, reverse, id=f"{reverse}-{lossy}")
            for lossy in (False, True)
            for reverse in (False, True)
        ),
        *(
            pytest.param(ONE_MODE, method, lossy, reverse, id=f"{method}-{reverse}-{lossy}")
            for method in ("stirap", "sqrt_satd")
            for lossy in (False, True)
            for reverse in (False, True)
        ),
        # the default 5-mode device (d = 34) that every CLI run extracts; the
        # lossy reference takes about 8 s a schedule, so three of the six
        pytest.param({}, "satd", True, False, id="5modes-lossy-forward"),
        pytest.param({}, "stirap", True, True, id="5modes-stirap-lossy-reverse"),
        pytest.param({}, "sqrt_satd", True, False, id="5modes-sqrt_satd-lossy-forward"),
        *(
            pytest.param({}, method, False, reverse, id=f"5modes-{method}-{reverse}-False")
            for method in ("satd", "stirap", "sqrt_satd")
            for reverse in (False, True)
        ),
    ],
)
def test_pair_extraction_matches_reference(overrides, method, lossy, reverse):
    # 10 propagated inputs and 6 adjoints against 16 propagated inputs, the
    # detuning ramps one interval each against every sample interval
    cfg = load_config(overrides)
    sched = build_transfer_schedule(cfg, method)
    if reverse:
        sched = reverse_schedule(sched)
    channel = extract_channels(cfg, [sched], lossy=lossy)[0]
    reference = reference_extract_channel(cfg, sched, lossy)
    assert np.max(np.abs(channel.superoperator - reference.superoperator)) < AGREEMENT
    assert np.max(np.abs(channel.leakage_in - reference.leakage_in)) < AGREEMENT


def test_lossy_transfer_matches_reference():
    cfg = default_config()
    result = dynamics.simulate_transfer(cfg, build_transfer_schedule(cfg), lossy=True)
    model = build_hamiltonian(cfg, build_transfer_schedule(cfg))
    collapse = CollapseSet.from_config(cfg, model.basis)
    rho0 = DensityOperator.single_excitation(model.emitter_site, model.basis).matrix
    reference = reference_propagate(model, collapse, rho0, 1e-9)
    assert np.max(np.abs(result.final_state.matrix - reference)) < AGREEMENT


@st.composite
def random_schedules(draw):
    n = draw(st.integers(2, 6))
    dt = draw(st.floats(0.2e-9, 5e-9))

    def column(bound):
        return np.array(draw(st.lists(st.floats(-bound, bound), min_size=n, max_size=n)))

    return PulseSchedule(
        times_s=np.arange(n) * dt,
        g_e_hz=column(5e6),
        g_r_hz=column(5e6),
        det_e_hz=column(60e6),
        det_r_hz=column(60e6),
        method="random",
        dt_s=dt,
        sweep_start_s=0.0,
        sweep_duration_s=(n - 1) * dt,
        g_hz=5e6,
        theta_max=0.0,
    )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sched=random_schedules(), lossy=st.booleans())
def test_operator_basis_matches_reference(sched, lossy):
    # every |a><b| of the pair's two-excitation basis, so the blocks below the
    # diagonal (more excitations in the ket than in the bra) are populated too
    cfg = load_config(ONE_MODE)
    model = build_hamiltonian(cfg, sched, truncation=2)
    collapse = CollapseSet.from_config(cfg, model.basis) if lossy else CollapseSet()
    basis = np.eye(model.dim**2, dtype=complex).reshape(-1, model.dim, model.dim)
    finals = _propagate(model, collapse, basis, 1e-9)
    reference = reference_propagate(model, collapse, basis, 1e-9)
    assert np.max(np.abs(finals - reference)) < AGREEMENT


@st.composite
def decoupled_stretch_schedules(draw):
    """A random schedule with one to three stretches at random positions
    where the couplings are zero and both detunings linear in time, and the
    bounds of the last stretch, which no later one overwrites.  Stretches
    are at most 22 ns long: under loss the two routes' Runge-Kutta errors
    over a run grow as its length to the fifth power."""
    n = draw(st.integers(4, 12))
    dt = draw(st.floats(0.2e-9, 2e-9))
    times = np.arange(n) * dt

    def columns(bound, count):
        floats = st.floats(-bound, bound)
        return np.array(draw(st.lists(floats, min_size=2 * count, max_size=2 * count)))

    g, det = columns(5e6, n).reshape(2, n), columns(60e6, n).reshape(2, n)
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(0, n - 3))
        b = draw(st.integers(a + 2, n - 1))
        start, stop = columns(60e6, 2).reshape(2, 2, 1)
        g[:, a : b + 1] = 0.0
        w = (times[a : b + 1] - times[a]) / (times[b] - times[a])
        det[:, a : b + 1] = start + (stop - start) * w
    sched = PulseSchedule(
        times_s=times,
        g_e_hz=g[0],
        g_r_hz=g[1],
        det_e_hz=det[0],
        det_r_hz=det[1],
        method="random",
        dt_s=dt,
        sweep_start_s=0.0,
        sweep_duration_s=(n - 1) * dt,
        g_hz=5e6,
        theta_max=0.0,
    )
    return sched, (a, b)


def interval_ends(model, collapse):
    a0, parts, *_ = estimate_inputs(model, collapse)
    return _interval_ends(model.schedule.times_s, model.control_samples(), a0, parts)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=decoupled_stretch_schedules(), lossy=st.booleans())
def test_decoupled_stretches_match_reference(case, lossy):
    sched, (a, b) = case
    cfg = load_config(ONE_MODE)
    model = build_hamiltonian(cfg, sched, truncation=2)
    collapse = CollapseSet.from_config(cfg, model.basis) if lossy else CollapseSet()
    # the last stretch's inner samples bound no interval
    assert not np.isin(np.arange(a + 1, b), interval_ends(model, collapse)).any()
    basis = np.eye(model.dim**2, dtype=complex).reshape(-1, model.dim, model.dim)
    finals = _propagate(model, collapse, basis, 1e-9)
    reference = reference_propagate(model, collapse, basis, 1e-9)
    assert np.max(np.abs(finals - reference)) < AGREEMENT


@pytest.mark.parametrize("kink", [None, "detuning", "coupling"])
def test_ramp_is_one_interval_unless_kinked(kink):
    # the default ramp's first 41 samples, decoupled and linear; a detuning
    # sample 1 Hz off the line (the bound is 16 eps * 52 MHz, 2e-7 Hz) or a
    # 1 Hz coupling sample in the middle keeps the intervals beside it
    cfg = load_config(ONE_MODE)
    full = build_transfer_schedule(cfg)
    keep = slice(0, 41)
    columns = {
        name: getattr(full, name)[keep].copy()
        for name in ("times_s", "g_e_hz", "g_r_hz", "det_e_hz", "det_r_hz")
    }
    if kink == "detuning":
        columns["det_e_hz"][20] += 1.0
    elif kink == "coupling":
        columns["g_e_hz"][20] = 1.0
    sched = dataclasses.replace(full, **columns)
    model = build_hamiltonian(cfg, sched, truncation=2)
    collapse = CollapseSet.from_config(cfg, model.basis)
    expected = [0, 40] if kink is None else [0, 19, 20, 21, 40]
    assert interval_ends(model, collapse).tolist() == expected
    basis = np.eye(model.dim**2, dtype=complex).reshape(-1, model.dim, model.dim)
    finals = _propagate(model, collapse, basis, 1e-9)
    assert np.max(np.abs(finals - reference_propagate(model, collapse, basis, 1e-9))) < AGREEMENT


# ---------------------------------------------------------------------------
# the screened substep estimate and the bracket table


def estimate_inputs(model, collapse):
    """The arguments _propagate hands _substep_counts, less tol."""
    decay, superop = collapse.split(model.dim)
    jump_rate = float(abs(superop).sum(axis=1).max()) if collapse.operators else 0.0
    ctrl = model.control_samples()
    return (
        -2j * math.pi * model.static_hz - 0.5 * decay,
        -2j * math.pi * model.parts,
        np.diff(model.schedule.times_s),
        ctrl[:-1],
        np.diff(ctrl, axis=0),
        jump_rate,
    )


def assert_counts_match_reference(model, collapse, tol=1e-9):
    a0, parts, h, lo, slope, jump_rate = estimate_inputs(model, collapse)
    counts = _substep_counts(a0, parts, h, lo, slope, tol, jump_rate)
    # the reference unscreened, _CHUNK intervals at a time to bound its memory
    reference = np.concatenate(
        [
            reference_substep_counts(a0, parts, h[b], lo[b], slope[b], tol, jump_rate)
            for b in (slice(i, i + _CHUNK) for i in range(0, len(h), _CHUNK))
        ]
    )
    assert np.array_equal(counts, reference)
    return counts


def test_screened_counts_match_reference_on_sweep_cells():
    # the benchmark's 20 sweep cells; some of their intervals take more than
    # one substep, so both the screen and the exact estimate decide counts
    cfg = default_config()
    ramps = cfg.transfer.total_duration_s - cfg.transfer.satd_duration_s
    counts = []
    for method in ("satd", "stirap"):
        for g_hz in (1e6, 4e6):
            for sweep_s in np.linspace(50e-9, 400e-9, 5):
                sched = build_transfer_schedule(cfg, method, g_hz, sweep_s, sweep_s + ramps)
                model = build_hamiltonian(cfg, sched)
                counts.append(assert_counts_match_reference(model, CollapseSet()))
    counts = np.concatenate(counts)
    assert len(counts) == 59_200 and 0 < np.count_nonzero(counts > 1) < len(counts)


@pytest.mark.parametrize("modes", [1, 5])
@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("reverse", [False, True])
def test_screened_counts_match_reference_on_pair_extraction(modes, lossy, reverse):
    cfg = load_config({"cpw": {"modes_retained": modes}})
    sched = build_transfer_schedule(cfg)
    if reverse:
        sched = reverse_schedule(sched)
    model = build_hamiltonian(cfg, sched, 2)
    collapse = CollapseSet.from_config(cfg, model.basis) if lossy else CollapseSet()
    assert_counts_match_reference(model, collapse)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    sched=random_schedules(),
    lossy=st.booleans(),
    jump_rate=st.one_of(st.none(), st.just(0.0), st.floats(1e4, 1e8)),
    tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
)
def test_screened_counts_match_reference_on_random_schedules(sched, lossy, jump_rate, tol):
    # jump_rate None keeps the collapse set's own rate
    cfg = load_config(ONE_MODE)
    model = build_hamiltonian(cfg, sched, truncation=2)
    collapse = CollapseSet.from_config(cfg, model.basis) if lossy else CollapseSet()
    a0, parts, h, lo, slope, own_rate = estimate_inputs(model, collapse)
    rate = own_rate if jump_rate is None else jump_rate
    counts = _substep_counts(a0, parts, h, lo, slope, tol, rate)
    assert np.array_equal(counts, reference_substep_counts(a0, parts, h, lo, slope, tol, rate))


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    sched=random_schedules(),
    hold=st.booleans(),
    log_coupling=st.floats(4.0, 7.0),
    jump_rate=st.one_of(st.none(), st.floats(1e4, 1e9)),
    tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
    seed=st.integers(0, 2**32 - 1),
)
def test_screened_counts_match_reference_with_coupled_a0(
    sched, hold, log_coupling, jump_rate, tol, seed
):
    # a dense hermitian static term makes a0 off-diagonal, so its row sums
    # enter the screen's bound on the jump term's turn rate.  Controls held
    # at their first samples leave no Magnus remainder, so the jump term
    # alone decides the counts.  jump_rate None keeps the collapse set's
    # own rate
    if hold:
        columns = {
            name: np.full_like(getattr(sched, name), getattr(sched, name)[0])
            for name in ("g_e_hz", "g_r_hz", "det_e_hz", "det_r_hz")
        }
        sched = dataclasses.replace(sched, **columns)
    cfg = load_config(ONE_MODE)
    model = build_hamiltonian(cfg, sched, truncation=2)
    coupling = _complex(np.random.default_rng(seed), (model.dim, model.dim))
    static = model.static_hz + 10.0**log_coupling * (coupling + coupling.conj().T)
    model = dataclasses.replace(model, static_hz=static)
    collapse = CollapseSet.from_config(cfg, model.basis)
    a0, parts, h, lo, slope, own_rate = estimate_inputs(model, collapse)
    rate = own_rate if jump_rate is None else jump_rate
    counts = _substep_counts(a0, parts, h, lo, slope, tol, rate)
    assert np.array_equal(counts, reference_substep_counts(a0, parts, h, lo, slope, tol, rate))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 9),
    n=st.integers(1, 70),
    log_scale=st.floats(-3.0, 9.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_bracket_matches_commutator(k, n, log_scale, seed):
    # a dense generator is one block, whose table gives [A(c), s . P]
    rng = np.random.default_rng(seed)
    a0, parts = _complex(rng, (k, k)), _complex(rng, (4, k, k))
    c, s = 10.0**log_scale * rng.normal(size=(2, n, 4))
    (block,) = _sector_blocks(a0, parts)
    x = a0 + np.einsum("ni,ijk->njk", c, parts)
    y = np.einsum("ni,ijk->njk", s, parts)
    scale = np.linalg.norm(x, axis=(1, 2)) * np.linalg.norm(y, axis=(1, 2))
    bracket = _combination(_bracket_coefficients(c, s), block.table[_CONTROLS:])
    error = np.linalg.norm(bracket - (x @ y - y @ x), axis=(1, 2))
    assert np.all(error <= 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 9),
    n=st.integers(1, 70),
    log_scale=st.floats(-3.0, 9.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_screen_norms_match_formed_matrices(k, n, log_scale, seed):
    # the squared norms of alpha1 - (tr alpha1 / k) I, alpha2 and c12 (per
    # unit h) from the block's Gram matrices, against those of the matrices
    # formed; each Gram form is never below the formed norm, and above it
    # by at most 1e-12 of (sum_i |v_i| |X_i|_F)^2, the scale on which both
    # round: a sum of matrices that nearly cancel has a tiny norm, which
    # neither route gets to a relative precision
    rng = np.random.default_rng(seed)
    a0, parts = _complex(rng, (k, k)), _complex(rng, (4, k, k))
    c, s = 10.0**log_scale * rng.normal(size=(2, n, 4))
    (block,) = _sector_blocks(a0, parts)
    x = a0 + np.einsum("ni,ijk->njk", c, parts)
    y = np.einsum("ni,ijk->njk", s, parts)
    formed = [
        x - np.trace(x, axis1=1, axis2=2)[:, None, None] / k * np.eye(k),
        y,
        x @ y - y @ x,
    ]
    forms = [
        (block.shifted_gram, np.column_stack([np.ones(n), c])),
        (block.parts_gram, s),
        (block.bracket_gram, _bracket_coefficients(c, s)),
    ]
    for matrices, (gram, v) in zip(formed, forms):
        square = np.linalg.norm(matrices, axis=(1, 2)) ** 2
        scale = (np.abs(v) @ np.sqrt(np.diagonal(gram))) ** 2
        gram_square = _gram_form(gram, v, k)
        assert np.all(square <= gram_square)
        assert np.all(gram_square - square <= 1e-12 * scale)


PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "raise": np.array([[0, 1], [0, 0]], dtype=complex),
    "lower": np.array([[0, 0], [1, 0]], dtype=complex),
}


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(2, 8),
    pair=st.sampled_from([("x", "z"), ("z", "x"), ("lower", "raise"), None]),
    log_ratio=st.floats(-4.0, 4.0),
    noise=st.sampled_from([0.0, 1e-3, 1.0]),
    shift=st.floats(-50.0, 50.0),
    rotate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_screen_bound_holds(k, pair, log_ratio, noise, shift, rotate, seed):
    # both Boettcher-Wenzel bounds are equalities for alpha1 ~ sigma_x and
    # alpha2 ~ sigma_z, so the draws include near-equality cases: one of the
    # two terms dominates as the ratio of the scales moves off 1
    rng = np.random.default_rng(seed)
    x, y = np.zeros((2, k, k), dtype=complex)
    if pair is not None:
        x[:2, :2], y[:2, :2] = PAULI[pair[0]], PAULI[pair[1]]
    x = 10.0 ** (-log_ratio / 2) * (x + noise * _complex(rng, (k, k)))
    y = 10.0 ** (log_ratio / 2) * (y + noise * _complex(rng, (k, k)))
    if pair is None:
        x, y = _complex(rng, (2, k, k))
    if rotate:
        q, _ = np.linalg.qr(_complex(rng, (k, k)))
        x, y = q @ x @ q.conj().T, q @ y @ q.conj().T
    alpha1, alpha2 = (x + shift * np.eye(k))[None], y[None]
    exact = np.linalg.norm(reference_remainder(alpha1, alpha2)[0])
    shifted = alpha1 - np.trace(alpha1[0]) / k * np.eye(k)
    square = [np.linalg.norm(m[0]) ** 2 for m in (shifted, alpha2, comm(alpha1, alpha2))]
    bound = _screen_bound(*square)
    assert exact <= bound * (1.0 + 1e-10) + 1e-300


# ---------------------------------------------------------------------------
# _expm against scipy


def _degree_switches():
    """1-norms where _expm changes its series degree or squaring count."""
    switches = [_SERIES_RADIUS * 2.0**k for k in range(5)]
    for m in range(1, 30):
        theta = (1e-17 * math.factorial(m + 1)) ** (1.0 / (m + 1))
        if 1e-6 <= theta <= _SERIES_RADIUS:
            switches.append(theta)
    return switches


NORMS = st.one_of(
    st.floats(math.log(1e-6), math.log(10.0)).map(math.exp),
    st.tuples(st.sampled_from(_degree_switches()), st.sampled_from([1 - 1e-6, 1 + 1e-6])).map(
        lambda pair: pair[0] * pair[1]
    ),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    batch=st.integers(1, 64),
    d=st.integers(1, 34),
    norm=NORMS,
    seed=st.integers(0, 2**32 - 1),
)
def test_expm_matches_scipy(batch, d, norm, seed):
    rng = np.random.default_rng(seed)
    omega = rng.normal(size=(batch, d, d)) + 1j * rng.normal(size=(batch, d, d))
    omega *= norm / np.abs(omega).sum(axis=-2).max()
    exact = expm(omega)
    scale = max(1.0, float(np.abs(exact).sum(axis=-2).max()))
    assert np.max(np.abs(dynamics._expm(omega) - exact)) <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(batch=st.integers(1, 64), d=st.integers(1, 34))
def test_expm_of_zero_is_exactly_the_identity(batch, d):
    out = dynamics._expm(np.zeros((batch, d, d), dtype=complex))
    assert np.array_equal(out, np.broadcast_to(np.eye(d), (batch, d, d)))
