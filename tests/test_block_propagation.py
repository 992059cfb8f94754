"""The lossless propagator on the generator's excitation blocks, and the
tables that sweeps and extractions build once per call.

The block path multiplies each block's piece exponentials on their own and
applies the totals only on the blocks its input occupies; the oracle
``embedded_lossless_propagate`` embeds every batch into d x d identities
and multiplies those, as the propagator did before.  The golden sweep
values were computed by that earlier propagator.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcoupler import dynamics
from lcoupler.config import default_config, load_config
from lcoupler.dynamics import (
    CollapseSet,
    _propagate,
    build_hamiltonian,
    extract_channels,
    sweep_transfer,
)
from lcoupler.pulses import (
    PulseSchedule,
    build_transfer_schedule,
    constant_coupling_schedule,
    reverse_schedule,
)

from oracles import embedded_lossless_propagate

BLOCK_AGREEMENT = 1e-13
ONE_MODE = {"cpw": {"modes_retained": 1}}


def _modes(modes):
    return load_config({"cpw": {"modes_retained": modes}})


@st.composite
def ramp_schedules(draw):
    """Random piecewise-linear controls on a few samples."""
    n = draw(st.integers(2, 5))
    dt = draw(st.floats(0.2e-9, 4e-9))

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


def _sectors(model):
    """The excitation number of each basis state."""
    return np.array([sum(label.occupations) for label in model.basis])


def _inputs(kind, model, count, rng):
    """count inputs of one kind: vectors on one nonzero sector, on the two
    highest sectors (each a block at truncation 2), on the ground state
    alone, or stacks of three matrices."""
    d = model.dim
    if kind == "matrices":
        m = rng.normal(size=(count, 3, d, d)) + 1j * rng.normal(size=(count, 3, d, d))
        return m / np.linalg.norm(m, axis=(-2, -1), keepdims=True)
    sector = _sectors(model)
    top = sector.max()
    chosen = {
        "one sector": [int(rng.integers(1, top + 1))],
        "two sectors": [top - 1, top],
        "ground": [0],
    }[kind]
    v = (rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))) * np.isin(sector, chosen)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    truncation=st.sampled_from([1, 2]),
    modes=st.sampled_from([1, 3, 5]),  # a retained window is an odd count
    schedules=st.lists(ramp_schedules(), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_path_matches_the_embedded_propagators(truncation, modes, schedules, seed):
    cfg = _modes(modes)
    model = build_hamiltonian(cfg, schedules[0], truncation)
    models = [model] + [dynamics._on_schedule(cfg, model, s) for s in schedules[1:]]
    rng = np.random.default_rng(seed)
    for kind in ("one sector", "two sectors", "ground", "matrices"):
        y0 = _inputs(kind, model, len(models), rng)
        got = _propagate(models, CollapseSet(), y0, dynamics._TOL)
        want = embedded_lossless_propagate(models, y0, dynamics._TOL)
        assert got.shape == y0.shape
        assert np.max(np.abs(got - want)) <= BLOCK_AGREEMENT, kind
        if kind != "matrices":  # a vector's ground entry is never touched
            assert got[:, 0].tobytes() == y0[:, 0].tobytes()
        if kind == "ground":
            assert got.tobytes() == y0.tobytes()


@pytest.mark.parametrize("truncation, modes", [(1, 1), (1, 5), (2, 1), (2, 3)])
def test_ground_state_and_zero_duration_come_back_bit_equal(truncation, modes):
    cfg = _modes(modes)
    moving = build_transfer_schedule(cfg)
    model = build_hamiltonian(cfg, moving, truncation)
    still = dynamics._on_schedule(cfg, model, constant_coupling_schedule(0.0, 0.0))
    assert still.schedule.duration_s == 0.0
    d = model.dim
    ground = np.zeros(d, dtype=complex)
    ground[0] = 0.6 - 0.8j
    assert _propagate(model, CollapseSet(), ground, dynamics._TOL).tobytes() == ground.tobytes()
    rng = np.random.default_rng(truncation + modes)
    vectors = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
    matrices = rng.normal(size=(2, 4, d, d)) + 1j * rng.normal(size=(2, 4, d, d))
    for y0 in (vectors, matrices):
        for collapse in (CollapseSet(), CollapseSet.from_config(cfg, model.basis)):
            if y0.ndim == 2 and collapse.operators:
                continue
            out = _propagate([still, model], collapse, y0, dynamics._TOL)
            assert out[0].tobytes() == y0[0].tobytes()


# ---------------------------------------------------------------------------
# golden sweep values, from the propagator before its block path

GOLDEN_G_HZ = [1e6, 4e6]
GOLDEN_T_S = [50e-9, 400e-9]
GOLDEN = {
    "satd": {
        "pop_emitter": [
            [0.003285114800555372, 2.8615345234748704e-10],
            [0.0005149442303757901, 1.0755156312663889e-06],
        ],
        "pop_receiver": [
            [0.7756392749207471, 0.9999979289576926],
            [0.8961308842556855, 0.999992409024061],
        ],
        "pop_other": [
            [0.22107561027869754, 2.0707561542315027e-06],
            [0.10335417151393853, 6.515460307986144e-06],
        ],
    },
    "stirap": {
        "pop_emitter": [
            [0.9602238365994309, 0.008745256780153286],
            [0.49582048318572336, 0.01100831757529106],
        ],
        "pop_receiver": [
            [7.110780520054666e-05, 0.19586916073005173],
            [0.016482303259695286, 0.9173600159203323],
        ],
        "pop_other": [
            [0.03970505559536861, 0.7953855824897951],
            [0.48769721355458145, 0.07163166650437647],
        ],
    },
}


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_sweep_matches_its_golden_values(method):
    sweep = sweep_transfer(default_config(), method, GOLDEN_G_HZ, GOLDEN_T_S)
    assert sweep.errors == [[None, None], [None, None]]
    for attr, want in GOLDEN[method].items():
        assert np.max(np.abs(sweep.grid(attr) - np.array(want))) <= 1e-12, attr


# ---------------------------------------------------------------------------
# one Hamiltonian and one set of generator tables per call


def _counted(name):
    return mock.patch.object(dynamics, name, wraps=getattr(dynamics, name))


@pytest.mark.parametrize("lossy", [False, True])
def test_sweep_builds_its_tables_once_and_keeps_cells_apart(lossy):
    # 100.05 ns is no multiple of the 0.1 ns sample step: that cell, the
    # first, is refused when its schedule is built, the tables come from the
    # next cell's schedule, and every other cell is filled
    cfg = load_config(ONE_MODE)
    times = [100.05e-9, 60e-9, 135e-9]
    with _counted("build_hamiltonian") as built, _counted("_sector_blocks") as tabled:
        sweep = sweep_transfer(cfg, "satd", [2e6, 3.5e6], times, lossy=lossy)
    assert built.call_count == 1
    assert tabled.call_count == 1
    for row_errors, row in zip(sweep.errors, sweep.results):
        assert "divide" in row_errors[0]
        assert row[0] is None
        assert row_errors[1:] == [None, None]
    # each cell is the run of its schedule alone
    ramps = cfg.transfer.total_duration_s - cfg.transfer.satd_duration_s
    for i, g in enumerate([2e6, 3.5e6]):
        for j in (1, 2):
            schedule = build_transfer_schedule(cfg, "satd", g, times[j], times[j] + ramps)
            alone = dynamics.simulate_transfer(cfg, schedule, lossy)
            cell = sweep.results[i][j]
            assert cell.lossy == lossy
            assert cell.final_state.matrix.tobytes() == alone.final_state.matrix.tobytes()


@pytest.mark.parametrize("lossy", [False, True])
def test_extract_channels_builds_its_tables_once(lossy):
    cfg = load_config(ONE_MODE)
    forward = build_transfer_schedule(cfg)
    schedules = [forward, reverse_schedule(forward), build_transfer_schedule(cfg, "sqrt_satd")]
    with _counted("build_hamiltonian") as built, _counted("_sector_blocks") as tabled:
        together = extract_channels(cfg, schedules, lossy=lossy)
    assert built.call_count == 1
    assert tabled.call_count == 1
    # a model moved to the reverse schedule takes that schedule's roles
    model = build_hamiltonian(cfg, forward, 2)
    reverse = dynamics._on_schedule(cfg, model, schedules[1])
    alone = build_hamiltonian(cfg, schedules[1], 2)
    roles = reverse.emitter_site, reverse.receiver_site
    assert roles == (alone.emitter_site, alone.receiver_site)
    assert roles == (model.receiver_site, model.emitter_site)
    for schedule, channel in zip(schedules, together):
        single = extract_channels(cfg, [schedule], lossy=lossy)[0]
        assert np.max(np.abs(channel.superoperator - single.superoperator)) <= BLOCK_AGREEMENT


def test_batched_models_of_another_basis_are_still_refused():
    cfg = load_config(ONE_MODE)
    forward = build_transfer_schedule(cfg)
    model = build_hamiltonian(cfg, forward, 2)
    other = build_hamiltonian(cfg, reverse_schedule(forward), 1)
    with pytest.raises(ValueError, match="share their basis"):
        _propagate([model, other], CollapseSet(), np.zeros((2, model.dim)), dynamics._TOL)
