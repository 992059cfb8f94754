import math

import numpy as np
import pytest

from lcoupler.config import default_config
from lcoupler.pulses import (
    FULL_TRANSFER_ANGLE,
    HALF_TRANSFER_ANGLE,
    TransferMethod,
    build_transfer_schedule,
    reverse_schedule,
    satd_couplings,
    stirap_couplings,
    theta,
    theta_derivatives,
)

T = 135e-9
G = 3.5e6


def test_theta_quintic_fixed_point():
    # 6 x^5 - 15 x^4 + 10 x^3 at x = 0.3 is 0.16308
    assert theta(0.3 * T, T, 1.0) == pytest.approx(0.16308, abs=1e-12)
    assert theta(0.3 * T, T) == pytest.approx(0.16308 * math.pi / 2, rel=1e-12)


def test_theta_endpoints_and_monotonicity():
    th0, thd0, thdd0 = theta_derivatives(0.0, T)
    thT, thdT, thddT = theta_derivatives(T, T)
    assert th0 == 0.0 and thT == pytest.approx(FULL_TRANSFER_ANGLE, rel=1e-14)
    assert thd0 == 0.0 and thdT == pytest.approx(0.0, abs=1e-20)
    assert thdd0 == 0.0 and thddT == pytest.approx(0.0, abs=1e-6)
    ts = np.linspace(0, T, 401)
    assert np.all(np.diff(theta(ts, T)) >= 0)


def test_theta_derivatives_match_finite_differences():
    ts = np.linspace(0.05 * T, 0.95 * T, 19)
    h = T * 1e-6
    _, thd, thdd = theta_derivatives(ts, T)
    fd1 = (theta(ts + h, T) - theta(ts - h, T)) / (2 * h)
    fd2 = (theta(ts + h, T) - 2 * theta(ts, T) + theta(ts - h, T)) / h**2
    assert np.allclose(thd, fd1, rtol=1e-6)
    assert np.allclose(thdd, fd2, rtol=1e-3, atol=1e-3 * np.max(np.abs(thdd)))


def test_stirap_norm_identity():
    ts = np.linspace(0, T, 257)
    ge, gr = stirap_couplings(ts, T, G)
    assert np.allclose(ge**2 + gr**2, G**2, rtol=1e-12)
    # boundary ordering: receiver coupling leads
    assert ge[0] == 0.0 and gr[0] == pytest.approx(G)
    assert ge[-1] == pytest.approx(G) and gr[-1] == pytest.approx(0.0, abs=G * 1e-12)


def test_satd_boundaries_and_midpoint():
    ge0, gr0 = satd_couplings(0.0, T, G)
    geT, grT = satd_couplings(T, T, G)
    assert ge0 == pytest.approx(0.0, abs=1e-9)
    assert gr0 == pytest.approx(G, rel=1e-12)
    assert geT == pytest.approx(G, rel=1e-12)
    assert grT == pytest.approx(0.0, abs=1e-6)
    # the angular acceleration vanishes mid-sweep, so the correction does too
    ge_m, gr_m = satd_couplings(0.5 * T, T, G)
    th_m = theta(0.5 * T, T)
    assert ge_m == pytest.approx(G * math.sin(th_m), rel=1e-12)
    assert gr_m == pytest.approx(G * math.cos(th_m), rel=1e-12)


def test_satd_correction_scale_is_angular():
    # the correction term must be divided by (2 pi g)^2 + thetadot^2; freezing
    # one sample guards the dimensional convention
    t = 0.25 * T
    th, thd, thdd = theta_derivatives(t, T)
    expected_ge = G * (math.sin(th) + thdd * math.cos(th) / ((2 * math.pi * G) ** 2 + thd**2))
    ge, _ = satd_couplings(t, T, G)
    assert ge == pytest.approx(expected_ge, rel=1e-14)


def test_sqrt_variant_ends_at_equal_couplings():
    ge, gr = satd_couplings(T, T, G, HALF_TRANSFER_ANGLE)
    assert ge == pytest.approx(G / math.sqrt(2), rel=1e-9)
    assert gr == pytest.approx(G / math.sqrt(2), rel=1e-9)


class TestBuildSchedule:
    def setup_method(self):
        self.cfg = default_config()

    def test_structure_and_durations(self):
        sched = build_transfer_schedule(self.cfg, TransferMethod.SATD)
        assert sched.duration_s == pytest.approx(206e-9, abs=sched.dt_s)
        assert sched.sweep_start_s == pytest.approx(35.5e-9)
        assert sched.sweep_duration_s == pytest.approx(135e-9)
        # idle detuning offsets at the edges
        assert sched.det_e_hz[0] == pytest.approx(52e6)
        assert sched.det_r_hz[0] == pytest.approx(48e6)
        assert sched.det_e_hz[-1] == pytest.approx(52e6)
        # couplings are off during the ramps
        in_ramp = sched.times_s < sched.sweep_start_s
        assert np.all(sched.g_e_hz[in_ramp] == 0)
        assert np.all(sched.g_r_hz[in_ramp] == 0)
        # zero detuning during the sweep
        in_sweep = (sched.times_s >= sched.sweep_start_s) & (
            sched.times_s <= sched.sweep_start_s + sched.sweep_duration_s
        )
        assert np.all(sched.det_e_hz[in_sweep] == 0)
        assert np.max(np.abs(sched.g_e_hz)) <= self.cfg.transfer.coupling_cap_hz

    def test_sqrt_variant_one_sample_step(self):
        sched = build_transfer_schedule(self.cfg, TransferMethod.SQRT_SATD)
        i_end = int(round((sched.sweep_start_s + sched.sweep_duration_s) / sched.dt_s))
        assert sched.g_e_hz[i_end] == pytest.approx(G / math.sqrt(2), rel=1e-9)
        assert sched.g_e_hz[i_end + 1] == 0.0

    def test_saturation_flags_fast_schedules(self):
        fast = build_transfer_schedule(
            self.cfg, TransferMethod.SATD, g_hz=1e6, sweep_duration_s=50e-9,
            total_duration_s=120e-9,
        )
        assert fast.saturated(self.cfg.transfer.coupling_cap_hz)
        slow = build_transfer_schedule(self.cfg, TransferMethod.SATD)
        assert not slow.saturated(self.cfg.transfer.coupling_cap_hz)

    def test_reverse_exchanges_columns(self):
        sched = build_transfer_schedule(self.cfg, TransferMethod.SATD)
        rev = reverse_schedule(sched)
        assert np.array_equal(rev.g_e_hz, sched.g_r_hz)
        assert np.array_equal(rev.g_r_hz, sched.g_e_hz)
        assert np.array_equal(rev.det_e_hz, sched.det_r_hz)
        assert np.array_equal(rev.det_r_hz, sched.det_e_hz)
        assert rev.emitter == "L2" and rev.receiver == "L1"
        # reversal is an involution
        back = reverse_schedule(rev)
        assert np.array_equal(back.g_e_hz, sched.g_e_hz)
        assert np.array_equal(back.det_e_hz, sched.det_e_hz)
        assert back.emitter == "L1"

    def test_bad_durations_raise(self):
        with pytest.raises(ValueError, match="sweep duration"):
            build_transfer_schedule(self.cfg, total_duration_s=100e-9)
        with pytest.raises(ValueError, match="divide"):
            build_transfer_schedule(self.cfg, dt_s=1.3e-10, total_duration_s=206e-9)

    def test_detuning_phase_integrals(self):
        sched = build_transfer_schedule(self.cfg, TransferMethod.SATD)
        phi_e, phi_r = sched.detuning_phase_rad()
        # two 35.5 ns linear ramps from the idle offset: integral = offset * ramp
        assert phi_e == pytest.approx(2 * math.pi * 52e6 * 35.5e-9, rel=1e-3)
        assert phi_r == pytest.approx(2 * math.pi * 48e6 * 35.5e-9, rel=1e-3)
