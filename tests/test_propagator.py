"""The Magnus/Lawson propagator against an adaptive DOP853 oracle, and its
properties on random piecewise-linear control schedules.

The oracle integrates the same equations of motion with
``scipy.integrate.solve_ivp`` (DOP853, the route the library used before the
propagator) at ``rtol=1e-12``: the Schroedinger equation for states and the
dense Liouvillian on row-major vec(rho) for matrices.  It shares no code with
the propagator beyond the model's operators and controls.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from lcoupler import dynamics
from lcoupler.basis import basis_index
from lcoupler.channels import superop_to_choi
from lcoupler.config import default_config, load_config
from lcoupler.dynamics import (
    CollapseSet,
    _propagate,
    build_hamiltonian,
    extract_channels,
)
from lcoupler.pulses import (
    PulseSchedule,
    build_transfer_schedule,
    constant_coupling_schedule,
    reverse_schedule,
)

from oracles import detuning_frame
from test_propagator_reference import reference_lawson_step

SINGLE_MODE = {
    "cpw": {"modes_retained": 1, "mode_frequencies_hz": [4.881e9], "mode_t1_s": [5.23e-6]}
}
ORACLE_RTOL = 1e-12
AGREEMENT = 1e-8  # propagator at its default tol against the oracle


def _solve(rhs, duration, y0):
    sol = solve_ivp(
        rhs,
        (0.0, duration),
        y0,
        method="DOP853",
        rtol=ORACLE_RTOL,
        atol=ORACLE_RTOL * 1e-3,
        max_step=duration / 64.0,
    )
    assert sol.success, sol.message
    return sol.y[:, -1]


def oracle_state(model, psi0):
    def rhs(t, psi):
        return -2j * math.pi * (model.matrix_at(t) @ psi)

    return _solve(rhs, model.schedule.duration_s, np.asarray(psi0, dtype=complex))


def oracle_matrices(model, collapse, m0):
    """Stack of d x d matrices under the Lindblad equation, integrated as
    dY/dt = L(t) Y with the dense d^2 x d^2 Liouvillian."""
    d = model.dim
    eye = np.eye(d)

    def hamiltonian(h):
        return -2j * math.pi * (np.kron(h, eye) - np.kron(eye, h.T))

    static = hamiltonian(model.static_hz)
    for l in collapse.operators:
        ldl = l.conj().T @ l
        static = static + np.kron(l, l.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    parts = np.stack([hamiltonian(p) for p in model.parts])
    s = model.schedule
    columns = [s.g_e_hz, s.g_r_hz, s.det_e_hz, s.det_r_hz]
    m0 = np.asarray(m0, dtype=complex)
    n = m0.reshape(-1, d * d).shape[0]

    def rhs(t, y):
        c = np.array([np.interp(t, s.times_s, col) for col in columns])
        gen = static + np.tensordot(c, parts, 1)
        return (gen @ y.reshape(d * d, n)).reshape(-1)

    y = _solve(rhs, s.duration_s, m0.reshape(n, d * d).T.reshape(-1))
    return y.reshape(d * d, n).T.reshape(m0.shape)


# ---------------------------------------------------------------------------
# agreement with the oracle


@pytest.mark.parametrize(
    "method,g_hz,sweep_s",
    [
        ("satd", 1e6, 50e-9),  # saturated: corrections far over the cap
        ("stirap", 1e6, 50e-9),
        ("satd", 4e6, 137.5e-9),
    ],
)
def test_states_match_dop853_oracle(method, g_hz, sweep_s):
    cfg = default_config()
    ramps = cfg.transfer.total_duration_s - cfg.transfer.satd_duration_s
    sched = build_transfer_schedule(cfg, method, g_hz, sweep_s, sweep_s + ramps)
    model = build_hamiltonian(cfg, sched)
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[basis_index(model.basis)[(1, 0, 0, 0, 0, 0, 0)]] = 1.0
    psi = _propagate(model, CollapseSet(), psi0, 1e-9)
    assert np.max(np.abs(psi - oracle_state(model, psi0))) < AGREEMENT


@pytest.mark.parametrize("lossy", [False, True])
def test_pair_superoperator_matches_dop853_oracle(lossy, monkeypatch):
    cfg = load_config(SINGLE_MODE)
    sched = build_transfer_schedule(cfg)
    channel = extract_channels(cfg, [sched], lossy=lossy)[0]

    def oracle_integrate(models, collapse, m0, tol):
        # extract_channels hands _propagate a list of models, one input stack each
        return np.stack([oracle_matrices(m, collapse, y) for m, y in zip(models, m0)])

    monkeypatch.setattr(dynamics, "_propagate", oracle_integrate)
    reference = extract_channels(cfg, [sched], lossy=lossy)[0]
    assert np.max(np.abs(channel.superoperator - reference.superoperator)) < AGREEMENT
    assert np.max(np.abs(channel.leakage_in - reference.leakage_in)) < AGREEMENT


@pytest.mark.parametrize("scale", [1e-3, 0.3, 8.0])
def test_series_exponential_matches_scipy(scale):
    # -i H - D/2 with H hermitian and D >= 0, as the propagator's exponents
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 8, 8)) + 1j * rng.normal(size=(6, 8, 8))
    h = a + a.conj().transpose(0, 2, 1)
    decay = 0.01 * a @ a.conj().transpose(0, 2, 1)
    omega = scale * (-1j * h - 0.5 * decay)
    assert np.max(np.abs(dynamics._expm(omega) - expm(omega))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 34),
    batch=st.lists(st.integers(1, 4), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_form_multiplies_as_the_complex_matrix(k, batch, seed):
    rng = np.random.default_rng(seed)
    a, b = (
        rng.normal(size=(*batch, k, k)) + 1j * rng.normal(size=(*batch, k, k)) for _ in range(2)
    )
    form = dynamics._real_form(b)
    assert form.shape == (*batch, 2 * k, 2 * k)
    scale = float((np.abs(a) @ np.abs(b)).max())
    product = (a.view(float) @ form).view(complex)
    assert np.max(np.abs(product - a @ b)) <= 1e-13 * scale
    # the form of the adjoint is the transposed form, to the bit
    adjoint = dynamics._real_form(b.conj().swapaxes(-1, -2))
    assert np.array_equal(adjoint, form.swapaxes(-1, -2))


def test_tighter_tol_never_fewer_substeps():
    cfg = default_config()
    sched = build_transfer_schedule(cfg, "satd", 1e6, 50e-9, 121e-9)
    model = build_hamiltonian(cfg, sched)
    a0 = -2j * math.pi * model.static_hz
    parts = -2j * math.pi * model.parts
    ctrl = model.control_samples()
    h = np.diff(sched.times_s)
    counts = [
        dynamics._substep_counts(a0, parts, h, ctrl[:-1], np.diff(ctrl, axis=0), tol, 0.0)
        for tol in (1e-6, 1e-9, 1e-12)
    ]
    assert np.all(counts[0] <= counts[1]) and np.all(counts[1] <= counts[2])
    assert counts[2].sum() > counts[0].sum()


def test_nonpositive_tol_rejected():
    cfg = load_config(SINGLE_MODE)
    model = build_hamiltonian(cfg, build_transfer_schedule(cfg))
    with pytest.raises(ValueError, match="tol"):
        _propagate(model, CollapseSet(), np.eye(model.dim)[1], 0.0)


def test_unreachable_tol_is_a_runtime_error():
    cfg = load_config(SINGLE_MODE)
    model = build_hamiltonian(cfg, build_transfer_schedule(cfg))
    with pytest.raises(RuntimeError, match="substeps"):
        _propagate(model, CollapseSet(), np.eye(model.dim)[1], 1e-300)


def test_state_vector_under_loss_rejected():
    cfg = load_config(SINGLE_MODE)
    model = build_hamiltonian(cfg, build_transfer_schedule(cfg))
    collapse = CollapseSet.from_config(cfg, model.basis)
    with pytest.raises(ValueError, match="state vector"):
        _propagate(model, collapse, np.eye(model.dim)[1], 1e-9)


# ---------------------------------------------------------------------------
# schedules propagated together


def _both_ways(cfg, method="satd"):
    forward = build_transfer_schedule(cfg, method)
    return [forward, reverse_schedule(forward)]


def _assert_batch_matches_alone(cfg, schedules):
    together = extract_channels(cfg, schedules, lossy=True)
    assert len(together) == len(schedules)
    for schedule, channel in zip(schedules, together):
        alone = extract_channels(cfg, [schedule], lossy=True)[0]
        assert channel.superoperator.tobytes() == alone.superoperator.tobytes()
        assert channel.leakage_in.tobytes() == alone.leakage_in.tobytes()
    return together


def test_extract_channels_equals_one_schedule_at_a_time():
    cfg = load_config(SINGLE_MODE)
    _assert_batch_matches_alone(cfg, _both_ways(cfg) + _both_ways(cfg, "sqrt_satd"))


def test_extract_channels_equals_one_schedule_at_a_time_on_three_modes():
    cfg = load_config({"cpw": {"modes_retained": 3}})
    assert build_hamiltonian(cfg, build_transfer_schedule(cfg), 2).dim == 19
    _assert_batch_matches_alone(cfg, _both_ways(cfg))


def test_extract_channels_of_unequal_lengths():
    # different sample spacings give the two schedules steps of different
    # lengths, and different durations different step counts: the shorter
    # one runs out of steps first, from the first row of the batch
    cfg = load_config(SINGLE_MODE)
    ramps = cfg.transfer.total_duration_s - cfg.transfer.satd_duration_s
    short = build_transfer_schedule(cfg, "satd", None, 90e-9, 90e-9 + ramps, dt_s=0.25e-9)
    full = build_transfer_schedule(cfg, "sqrt_satd")
    assert short.duration_s < full.duration_s and short.dt_s != full.dt_s
    _assert_batch_matches_alone(cfg, [short, full])


def test_extract_channels_with_a_zero_duration_schedule():
    # a schedule of no duration takes no step: its stream is empty, and the
    # lockstep drops it at step 0 while the full schedule steps on
    cfg = load_config(SINGLE_MODE)
    empty = constant_coupling_schedule(0.0, 0.0)
    assert empty.duration_s == 0.0
    channel, _ = _assert_batch_matches_alone(cfg, [empty, build_transfer_schedule(cfg)])
    assert np.array_equal(channel.superoperator, np.eye(16))
    assert not channel.leakage_in.any()


def test_batched_models_must_share_their_operators():
    cfg = load_config(SINGLE_MODE)
    forward, backward = _both_ways(cfg)
    model = build_hamiltonian(cfg, forward, 2)
    collapse = CollapseSet.from_config(cfg, model.basis)
    inputs = np.stack([np.eye(model.dim)[None]] * 2)
    others = [
        build_hamiltonian(cfg, backward, 1),  # another basis
        dataclasses.replace(model, parts=2.0 * model.parts),
        dataclasses.replace(model, static_hz=model.static_hz + np.eye(model.dim)),
    ]
    for other in others:
        with pytest.raises(ValueError, match="share"):
            _propagate([model, other], collapse, inputs, 1e-9)


# ---------------------------------------------------------------------------
# properties on random piecewise-linear controls (1-mode device)

PROPERTY_SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def control_schedules(draw, min_samples=2):
    n = draw(st.integers(min_samples, 6))
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


def _operator_basis(d):
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d)


def _sub_schedule(sched, start, stop):
    keep = slice(start, stop + 1)
    times = sched.times_s[keep]
    return PulseSchedule(
        times_s=times - times[0],
        g_e_hz=sched.g_e_hz[keep],
        g_r_hz=sched.g_r_hz[keep],
        det_e_hz=sched.det_e_hz[keep],
        det_r_hz=sched.det_r_hz[keep],
        method=sched.method,
        dt_s=sched.dt_s,
        sweep_start_s=0.0,
        sweep_duration_s=float(times[-1] - times[0]),
        g_hz=sched.g_hz,
        theta_max=sched.theta_max,
    )


@PROPERTY_SETTINGS
@given(sched=control_schedules())
def test_lossless_propagation_keeps_the_norm(sched):
    cfg = load_config(SINGLE_MODE)
    model = build_hamiltonian(cfg, sched, truncation=2)
    psi0 = np.ones(model.dim, dtype=complex) / math.sqrt(model.dim)
    psi = _propagate(model, CollapseSet(), psi0, 1e-9)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


@PROPERTY_SETTINGS
@given(sched=control_schedules())
def test_lossy_pair_channel_is_cptp(sched):
    # tol bounds each interval's error, and under loss the Magnus error
    # moves trace: at tol 1e-9 a 1 ns interval whose coupling flips sign
    # leaves a 1e-10 deficit, so the 1e-10 bounds are checked at 1e-11
    cfg = load_config(SINGLE_MODE)
    with mock.patch.object(dynamics, "_TOL", 1e-11):
        channel = extract_channels(cfg, [sched], lossy=True)[0]
    choi = superop_to_choi(channel.superoperator)
    assert np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0] >= -1e-10
    assert channel.trace_preservation_deficit() <= 1e-10


@PROPERTY_SETTINGS
@given(sched=control_schedules(min_samples=3), data=st.data())
def test_split_schedule_composes(sched, data):
    cfg = load_config(SINGLE_MODE)
    cut = data.draw(st.integers(1, len(sched.times_s) - 2))
    model = build_hamiltonian(cfg, sched, truncation=2)
    collapse = CollapseSet.from_config(cfg, model.basis)
    basis = _operator_basis(model.dim)
    whole = _propagate(model, collapse, basis, 1e-9)
    halves = basis
    for part in (_sub_schedule(sched, 0, cut), _sub_schedule(sched, cut, len(sched.times_s) - 1)):
        halves = _propagate(build_hamiltonian(cfg, part, 2), collapse, halves, 1e-9)
    assert np.max(np.abs(whole - halves)) < 1e-10


@PROPERTY_SETTINGS
@given(first=control_schedules(), second=control_schedules())
def test_schedules_propagated_together_match_each_alone(first, second):
    # random spacings and sample counts: step lengths and counts differ
    cfg = load_config(SINGLE_MODE)
    models = [build_hamiltonian(cfg, s, truncation=2) for s in (first, second)]
    collapse = CollapseSet.from_config(cfg, models[0].basis)
    basis = _operator_basis(models[0].dim)
    together = _propagate(models, collapse, [basis, basis], 1e-9)
    for model, result in zip(models, together):
        assert result.tobytes() == _propagate(model, collapse, basis, 1e-9).tobytes()


# ---------------------------------------------------------------------------
# decoupled runs: one interval each, against closed forms


def _decoupled_schedule(cfg):
    """Couplings off throughout: the default detuning ramp from each
    qubit's idle offset, a 135 ns idle at constant detuning, and the ramp
    back, each column shifted by a constant so that the idle is off
    resonance."""
    sched = build_transfer_schedule(cfg)
    zero = np.zeros_like(sched.times_s)
    return dataclasses.replace(
        sched,
        g_e_hz=zero,
        g_r_hz=zero.copy(),
        det_e_hz=sched.det_e_hz + 3e6,
        det_r_hz=sched.det_r_hz - 2e6,
    )


def _qubit_superop(qubit, duration_s, detuning_hz, times_s):
    """Closed-form channel of one decoupled qubit, shape (out, out, in, in):
    damping 1 - exp(-t/T1), coherence exp(-t/T2) turned by 2 pi int det dt
    (the integral of the linear interpolation the propagator follows)."""
    damped = 1.0 - math.exp(-duration_s / qubit.t1_s)
    phase = 2.0 * math.pi * np.trapezoid(detuning_hz, times_s)
    coherence = math.exp(-duration_s / qubit.t2_s) * np.exp(1j * phase)
    s = np.zeros((2, 2, 2, 2), dtype=complex)
    s[0, 0, 0, 0] = 1.0
    s[0, 0, 1, 1] = damped
    s[1, 1, 1, 1] = 1.0 - damped
    s[0, 1, 0, 1] = coherence
    s[1, 0, 1, 0] = np.conj(coherence)
    return s


@pytest.mark.parametrize("modes", [1, 5])
def test_decoupled_schedule_matches_closed_form_channel(modes):
    cfg = load_config({"cpw": {"modes_retained": modes}})
    sched = _decoupled_schedule(cfg)
    model = build_hamiltonian(cfg, sched, 2)
    decay, _ = CollapseSet.from_config(cfg, model.basis).split(model.dim)
    a0 = -2j * math.pi * model.static_hz - 0.5 * decay
    ends = dynamics._interval_ends(
        sched.times_s, model.control_samples(), a0, -2j * math.pi * model.parts
    )
    # the ramp, the idle and the ramp back, each one interval
    assert ends.tolist() == [0, 355, 1705, 2060]
    channel = extract_channels(cfg, [sched], lossy=True)[0]
    closed_form = detuning_frame(sched) @ _closed_form_pair(cfg, sched)
    assert np.max(np.abs(channel.superoperator - closed_form)) < 1e-12
    assert not channel.leakage_in.any()


def test_long_decoupled_idle_takes_substeps_past_the_per_interval_cap(monkeypatch):
    # 100 us at constant detuning is one interval of 10,000 samples; its jump
    # term asks for more than _MAX_SUBSTEPS substeps, which the cap allows
    # per sample interval spanned
    cfg = load_config(SINGLE_MODE)
    n = 10_001
    times = np.arange(n) * 10e-9
    zero = np.zeros(n)
    sched = PulseSchedule(
        times_s=times,
        g_e_hz=zero,
        g_r_hz=zero,
        det_e_hz=np.full(n, 3e6),
        det_r_hz=np.full(n, -2e6),
        method="idle",
        dt_s=10e-9,
        sweep_start_s=0.0,
        sweep_duration_s=float(times[-1]),
        g_hz=0.0,
        theta_max=0.0,
    )
    steps = _counted_lawson_steps(monkeypatch)
    channel = extract_channels(cfg, [sched], lossy=True)[0]
    assert dynamics._MAX_SUBSTEPS < len(steps) < n
    closed_form = detuning_frame(sched) @ _closed_form_pair(cfg, sched)
    assert np.max(np.abs(channel.superoperator - closed_form)) < 1e-12


def _closed_form_pair(cfg, sched):
    """The pair's closed-form channel: L1's and L2's, L1 the more
    significant bit of the row-major vec."""
    l1, l2 = (
        _qubit_superop(q, sched.duration_s, det, sched.times_s)
        for q, det in zip(cfg.l_qubits, (sched.det_e_hz, sched.det_r_hz))
    )
    return np.einsum("ijkl,mnop->imjnkolp", l1, l2).reshape(16, 16)


@pytest.mark.parametrize("modes, steps", [(1, 1354), (5, 1360)])
def test_default_transfer_takes_its_lawson_steps(modes, steps, monkeypatch):
    # 2,060 sample intervals, of which the 706 inside the two zero-coupling
    # ramps are two intervals; at 5 modes the jump term of the estimate gives
    # each ramp two substeps
    cfg = load_config({"cpw": {"modes_retained": modes}})
    taken = _counted_lawson_steps(monkeypatch)
    extract_channels(cfg, [build_transfer_schedule(cfg)], lossy=True)
    assert len(taken) == steps


def _counted_lawson_steps(monkeypatch):
    """A list that gains an entry at every Lawson step from now on."""
    taken = []
    step = dynamics._lawson_step

    def counted(*args):
        taken.append(None)
        return step(*args)

    monkeypatch.setattr(dynamics, "_lawson_step", counted)
    return taken


# ---------------------------------------------------------------------------
# the Lawson step on the stacked layout


def _random_step_inputs(seed, schedules=2, d=4, batch=3):
    """x in the stacked layout (S, d, B, d), random unitary half steps per
    schedule, positive lengths, and a random jump superoperator with its
    stacked form."""
    rng = np.random.default_rng(seed)

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    x = normal(schedules, d, batch, d)
    halves = []
    for _ in range(2):
        u = np.linalg.qr(normal(schedules, d, d))[0]
        halves.append((u, u.conj().transpose(0, 2, 1)))
    superop = normal(d * d, d * d) * (rng.random((d * d, d * d)) < 0.3)
    superop = superop / np.abs(superop).sum(axis=1).max()
    h = rng.uniform(0.1, 0.5, size=schedules)
    stacked = dynamics._stacked_jump(sparse.csr_matrix(superop), d, batch, schedules)

    def jump(m):
        return (stacked @ m.ravel()).reshape(m.shape)

    return x, halves, h, superop, jump


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lawson_step_leaves_its_input_unchanged(seed):
    x, (first, second), h, _, jump = _random_step_inputs(seed)
    kept = x.copy()
    dynamics._lawson_step(x, first, second, h[:, None, None, None], jump)
    dynamics._lawson_step(x, first, second, h[0], jump)
    assert x.tobytes() == kept.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lawson_step_takes_a_scalar_length_as_the_same_length_per_schedule(seed):
    x, (first, second), h, _, jump = _random_step_inputs(seed)
    scalar = dynamics._lawson_step(x, first, second, h[0], jump)
    broadcast = np.full((len(x), 1, 1, 1), h[0])
    assert scalar.tobytes() == dynamics._lawson_step(x, first, second, broadcast, jump).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lawson_step_matches_the_reference_step(seed):
    x, (first, second), h, superop, jump = _random_step_inputs(seed)
    got = dynamics._lawson_step(x, first, second, h[:, None, None, None], jump)
    d = x.shape[1]

    def reference_jump(m):
        return (superop @ m.reshape(-1, d * d).T).T.reshape(m.shape)

    for s in range(len(x)):
        rho = x[s].transpose(1, 0, 2)  # the B matrices m_sb
        want = reference_lawson_step(rho, first[0][s], second[0][s], h[s], reference_jump)
        assert np.max(np.abs(got[s].transpose(1, 0, 2) - want)) < 1e-13
