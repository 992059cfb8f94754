"""Frame register bookkeeping and the closed-loop transfer check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcoupler.frames import TWO_PI, ramsey_round_trip, transfer_frame, wrap_angle


def _circular_gap(a, b):
    """Distance between two angles on the circle."""
    return abs(wrap_angle(a - b + np.pi) - np.pi)


class TestRegister:
    def test_full_turn_unchanged(self):
        assert wrap_angle(0.375 + TWO_PI) == pytest.approx(0.375, abs=1e-12)

    def test_wraparound_arithmetic(self):
        register = wrap_angle(0.3 + 6.1)
        assert register == pytest.approx(0.3 + 6.1 - TWO_PI, abs=1e-12)
        assert register == pytest.approx(0.11681, abs=1e-5)

    def test_wrap_angle_negative(self):
        assert wrap_angle(-0.5) == pytest.approx(TWO_PI - 0.5, abs=1e-12)


class TestTransferFrame:
    def test_degenerate_frequencies_copy_registers(self):
        emitter, receiver = transfer_frame(1.25, 0.5, 0.0, 123e-9)
        assert receiver == pytest.approx(1.25)
        assert emitter == pytest.approx(0.5)

    def test_device_frequency_gap_correction(self):
        # 4 MHz frame gap over a 206 ns transfer: 0.824 of a turn
        delta = TWO_PI * 4.933e9 - TWO_PI * 4.929e9
        _, receiver = transfer_frame(0.0, 0.0, delta, 206e-9)
        assert receiver == pytest.approx(TWO_PI * 0.824, abs=1e-9)
        assert receiver == pytest.approx(5.17734, abs=1e-5)

    def test_round_trip_shift(self):
        # two opposite transfers at t and t' shift the original emitter's
        # register by delta*(t - t') and the other register by the negative
        rng = np.random.default_rng(7)
        for _ in range(25):
            w1, w2 = TWO_PI * rng.uniform(4e9, 6e9, size=2)
            p1, p2 = rng.uniform(0.0, TWO_PI, size=2)
            t, t_prime = rng.uniform(0.0, 2e-6, size=2)
            r1, r2 = transfer_frame(p1, p2, w1 - w2, t)
            r2, r1 = transfer_frame(r2, r1, w2 - w1, t_prime)
            delta = w1 - w2
            assert r1 == pytest.approx(wrap_angle(p1 + delta * (t - t_prime)), abs=1e-6)
            assert r2 == pytest.approx(wrap_angle(p2 - delta * (t - t_prime)), abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        frequencies_hz=st.tuples(st.floats(4e9, 6e9), st.floats(4e9, 6e9)),
        registers_rad=st.tuples(st.floats(0.0, 6.28), st.floats(0.0, 6.28)),
        times_s=st.lists(st.floats(0.0, 2e-6), min_size=1, max_size=12),
    )
    def test_general_rule(self, frequencies_hz, registers_rad, times_s):
        """Transfers alternating L1 -> L2, L2 -> L1, ... at times t_k: the
        carrier's register ends at its start plus delta * sum(s_k t_k), with
        s_k = +1 for L1 -> L2 and -1 for L2 -> L1, and the other register at
        its start minus the same sum (delta = omega_L1 - omega_L2)."""
        w1, w2 = (TWO_PI * f for f in frequencies_hz)
        registers = list(registers_rad)  # indexed by qubit: L1, L2
        carrier = 0
        for t in times_s:
            other = 1 - carrier
            delta = (w1 - w2) if carrier == 0 else (w2 - w1)
            registers[carrier], registers[other] = transfer_frame(
                registers[carrier], registers[other], delta, t
            )
            carrier = other
        phase = (w1 - w2) * sum(t if k % 2 == 0 else -t for k, t in enumerate(times_s))
        start_carrier, start_other = registers_rad
        assert _circular_gap(registers[carrier], start_carrier + phase) < 1e-6
        assert _circular_gap(registers[1 - carrier], start_other - phase) < 1e-6


class TestRamseyLoop:
    def test_tracked_loop_closes(self):
        p = ramsey_round_trip(4.933e9, 4.929e9, (0.0, 250e-9), track_frames=True)
        assert p >= 1.0 - 1e-12

    def test_tracked_loop_closes_with_offset(self):
        f2 = 4.929e9
        p = ramsey_round_trip(f2 * (1.0 + 1e-3), f2, (10e-9, 310e-9), track_frames=True)
        assert p >= 1.0 - 1e-12

    def test_untracked_degenerate_frames_still_close(self):
        # equal frequencies: the two dark signs square away, nothing to track
        p = ramsey_round_trip(4.9e9, 4.9e9, (0.0, 250e-9), track_frames=False)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_untracked_offset_leaks_phase(self):
        f2 = 4.929e9
        p = ramsey_round_trip(f2 * (1.0 + 1e-3), f2, (0.0, 250e-9), track_frames=False)
        # residual phase 2*pi * 4.929 MHz * 250 ns -> sin^2 deviation 0.4442
        assert abs(1.0 - p) > 0.01
        assert 1.0 - p == pytest.approx(0.4442, abs=1e-3)

    def test_untracked_deviation_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f2 = rng.uniform(4e9, 6e9)
            rel = rng.uniform(5e-4, 2e-3)
            t1, t2 = np.sort(rng.uniform(0.0, 1e-6, size=2))
            p = ramsey_round_trip(f2 * (1.0 + rel), f2, (t1, t2), track_frames=False)
            chi = TWO_PI * f2 * rel * (t1 - t2)
            assert p == pytest.approx(np.cos(chi / 2.0) ** 2, abs=1e-12)
