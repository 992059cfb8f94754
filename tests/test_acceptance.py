"""Acceptance suite: one pass/fail check per headline capability.

Each test is self-contained and enforces its own numeric tolerance and,
where stated, a wall-clock budget.  Collection order matches the numbering
so `pytest -v tests/test_acceptance.py` reads as a checklist.
"""

import math
import time

import numpy as np
import pytest

from lcoupler.basis import DensityOperator
from lcoupler.benchmarking import (
    NoiseModel,
    SpamModel,
    eps_from_decay,
    fit_exponential,
    run_network_benchmarking,
    run_two_qubit_rb,
)
from lcoupler.cliffords import (
    QUBIT_ORDER,
    TWO_QUBIT_CLASS_SIZES,
    TWO_QUBIT_GROUP_ORDER,
    circuit_unitary,
    compile_remote_cnot,
    data_block_unitary,
    decode_two_qubit_index,
    single_qubit_cliffords,
    two_qubit_clifford,
)
from lcoupler.config import default_config, load_config
from lcoupler.dynamics import (
    CollapseSet,
    build_hamiltonian,
    evolve,
    extract_channels,
    simulate_transfer,
    sweep_transfer,
)
from lcoupler.frames import ramsey_round_trip
from lcoupler.pulses import (
    TransferMethod,
    build_transfer_schedule,
    constant_coupling_schedule,
    reverse_schedule,
)
from lcoupler.rng import RngHandle

SINGLE_MODE = {
    "cpw": {"modes_retained": 1, "mode_frequencies_hz": [4.881e9], "mode_t1_s": [5.23e-6]}
}


def _state_ok(rho: DensityOperator):
    """Trace and positivity floor required of every evolved state."""
    assert abs(rho.trace() - 1.0) < 1e-9
    assert rho.min_eigenvalue() > -1e-8


def test_criterion_01_satd_single_mode_exact():
    start = time.monotonic()
    cfg = load_config(SINGLE_MODE)
    sched = build_transfer_schedule(
        cfg, TransferMethod.SATD, g_hz=3.5e6,
        sweep_duration_s=135e-9, total_duration_s=206e-9,
    )
    res = simulate_transfer(cfg, sched, lossy=False)
    _state_ok(res.final_state)
    assert res.pop_receiver >= 1.0 - 1e-6
    assert time.monotonic() - start < 1.0


def test_criterion_02_satd_beats_stirap_on_grid():
    start = time.monotonic()
    cfg = default_config()  # five retained modes
    g_grid = np.linspace(1e6, 4e6, 8)
    t_grid = np.linspace(50e-9, 400e-9, 8)
    satd = sweep_transfer(cfg, TransferMethod.SATD, g_grid, t_grid, lossy=False)
    stirap = sweep_transfer(cfg, TransferMethod.STIRAP, g_grid, t_grid, lossy=False)
    pop_satd = satd.receiver_population_grid()
    pop_stirap = stirap.receiver_population_grid()
    short = np.array([t <= 150e-9 + 1e-15 for t in t_grid])
    mask = ~satd.saturated_grid() & ~stirap.saturated_grid() & short[None, :]
    assert mask.sum() > 0
    assert not np.isnan(pop_satd[mask]).any()
    assert np.all(pop_satd[mask] >= pop_stirap[mask])
    assert time.monotonic() - start < 120.0


def test_criterion_03_vacuum_rabi_oracle():
    start = time.monotonic()
    cfg = load_config(SINGLE_MODE)
    g = 3.5e6
    quarter = 1.0 / (4.0 * g)
    for frac in (0.2, 0.45, 0.7, 1.0):
        t = frac * quarter
        res = simulate_transfer(
            cfg, constant_coupling_schedule(g, t, dt_s=t / 400), lossy=False
        )
        _state_ok(res.final_state)
        assert abs(res.pop_emitter - math.cos(2 * math.pi * g * t) ** 2) < 1e-5
    assert time.monotonic() - start < 1.0


def test_criterion_04_lindblad_sanity():
    cfg = load_config(SINGLE_MODE)
    # T1-only decay at t = T1
    t1 = cfg.l_qubits[0].t1_s
    model = build_hamiltonian(cfg, constant_coupling_schedule(0.0, t1, dt_s=t1 / 1024))
    final = evolve(
        model, CollapseSet.from_config(cfg, model.basis),
        DensityOperator.single_excitation(0, model.basis),
    )
    _state_ok(final)
    assert abs(final.site_population(0) - math.exp(-1.0)) < 1e-6
    # trace drift and positivity across lossless and lossy evolutions
    for cfg_i, method, lossy in [
        (cfg, TransferMethod.SATD, False),
        (cfg, TransferMethod.STIRAP, True),
        (default_config(), TransferMethod.SATD, True),
    ]:
        res = simulate_transfer(
            cfg_i, build_transfer_schedule(cfg_i, method), lossy=lossy
        )
        _state_ok(res.final_state)


def test_criterion_05_population_swap_sign():
    cfg = load_config(SINGLE_MODE)
    forward = build_transfer_schedule(cfg, TransferMethod.SATD)
    # basis order |L1 L2>: 00, 01, 10, 11; each leg moves its emitter's
    # excitation to the other qubit with a sign flip
    for sched, excited, moved_to in (
        (forward, 2, 1),
        (reverse_schedule(forward), 1, 2),
    ):
        channel = extract_channels(cfg, [sched], lossy=False)[0]
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[excited] = 1.0 / math.sqrt(2.0)
        out = channel.apply(np.outer(psi, psi.conj()))
        assert abs(out[moved_to, moved_to] - 0.5) < 1e-6
        assert abs(out[0, moved_to] - (-0.5)) < 1e-6


def test_criterion_06_remote_cnot_identity():
    start = time.monotonic()
    ops = compile_remote_cnot("D1", "D2")
    block = data_block_unitary(ops, atol=1e-9)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    phase = block[0, 0] / abs(block[0, 0])
    assert np.max(np.abs(block / phase - cnot)) < 1e-9
    # l-qubits end in |00> for every data basis input
    full = circuit_unitary(ops, QUBIT_ORDER)
    l00 = [(d1 << 3) | (d2 << 0) for d1 in (0, 1) for d2 in (0, 1)]
    outside = [k for k in range(16) if k not in l00]
    for col in l00:
        leaked = np.sum(np.abs(full[outside, col]) ** 2)
        assert leaked < 1e-18
    assert time.monotonic() - start < 1.0


def test_criterion_07_clifford_groups():
    assert len(single_qubit_cliffords()) == 24
    counts = [0, 0, 0, 0]
    for index in range(TWO_QUBIT_GROUP_ORDER):
        counts[decode_two_qubit_index(index)[0]] += 1
    assert tuple(counts) == TWO_QUBIT_CLASS_SIZES == (576, 5184, 5184, 576)
    cfg = load_config()
    rng = np.random.default_rng(2024)
    for index in rng.integers(TWO_QUBIT_GROUP_ORDER, size=1000):
        elem = two_qubit_clifford(int(index), cfg)
        block = data_block_unitary(elem.decomposition, atol=1e-10)
        phase = np.trace(elem.unitary.conj().T @ block) / 4.0
        phase /= abs(phase)
        assert np.max(np.abs(block - phase * elem.unitary)) < 1e-10


@pytest.mark.parametrize("r", [0.005, 0.012, 0.03])
def test_criterion_08_nb_recovers_injected_depolarizing(r):
    start = time.monotonic()
    data = run_network_benchmarking(
        NoiseModel.with_transfer_depolarizing(r), rng=RngHandle(seed=101)
    )
    eps = eps_from_decay(fit_exponential(data))
    assert abs(eps - r) / r < 0.10
    assert time.monotonic() - start < 180.0


def test_criterion_09_spam_moves_amplitude_not_decay():
    noise = NoiseModel.with_transfer_depolarizing(0.012)
    fits, survivals_2 = {}, {}
    for fidelity in (1.0, 0.97, 0.93, 0.90):
        spam = SpamModel.ideal(("L1", "L2")).with_readout_fidelity(fidelity)
        data = run_network_benchmarking(noise, spam, rng=RngHandle(seed=5))
        fits[fidelity] = fit_exponential(data)
        survivals_2[fidelity] = np.mean(
            [rec.survival for rec in data.records if rec.length == 2]
        )
    base = fits[1.0]
    for fidelity in (0.97, 0.93, 0.90):
        fit = fits[fidelity]
        sigma = math.hypot(base.decay_err, fit.decay_err)
        assert abs(fit.decay - base.decay) < 2.0 * sigma
    shifts = [abs(survivals_2[f] - survivals_2[1.0]) for f in (0.97, 0.93, 0.90)]
    assert max(shifts) > 0.05


@pytest.mark.parametrize("leak", [0.005, 0.01, 0.02])
def test_criterion_10_leakage_recovered(leak):
    data = run_network_benchmarking(
        NoiseModel.with_transfer_leakage(leak), rng=RngHandle(seed=77)
    )
    fit = fit_exponential(data, channel="spectator_l2")
    assert abs(fit.rate - leak) / leak < 0.15
    # spectator population follows a clean A p^n + C decay
    assert 0.0 < fit.decay <= 1.0
    assert fit.residual_rms < 5e-3


def test_criterion_11_frame_tracking():
    f_receiver = 4.929e9
    f_emitter = f_receiver * (1.0 + 1e-3)  # miscalibrated by 1e-3 relative
    times = (0.0, 250e-9)
    tracked = ramsey_round_trip(f_emitter, f_receiver, times, track_frames=True)
    untracked = ramsey_round_trip(f_emitter, f_receiver, times, track_frames=False)
    assert tracked >= 1.0 - 1e-6
    assert 1.0 - untracked > 0.01


def test_criterion_12_table_noise_lands_in_brackets():
    start = time.monotonic()
    cfg = load_config(SINGLE_MODE)
    noise = NoiseModel.from_config(cfg)
    spam = SpamModel.from_config(cfg)
    nb = run_network_benchmarking(noise, spam, rng=RngHandle(seed=0), cfg=cfg)
    eps = eps_from_decay(fit_exponential(nb))
    assert 0.003 <= eps <= 0.03
    rb = run_two_qubit_rb(noise, spam, rng=RngHandle(seed=0), cfg=cfg)
    epg = eps_from_decay(fit_exponential(rb))
    assert 0.02 <= epg <= 0.12
    assert time.monotonic() - start < 600.0
