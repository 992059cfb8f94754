"""Coupling-sweep waveforms and transfer pulse schedules.

A transfer schedule has three phases: a linear detuning ramp bringing each
coupler qubit from its idle offset onto the target mode with couplings off, a
coupling sweep at zero detuning, and the detuning ramp back.  The sweep
rotates the mixing angle theta from 0 to theta_max; ``stirap_couplings`` uses
a linear angle sweep, ``satd_couplings`` a smooth quintic sweep plus the
superadiabatic correction term that cancels transitions out of the followed
dark state.  theta_max = pi/2 realises a full transfer, pi/4 a half (square
root) transfer.

Couplings are stored in Hz; the correction denominator converts the base
coupling to angular units (2*pi*g) so both terms carry the same dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np


class TransferMethod(str, Enum):
    STIRAP = "stirap"
    SATD = "satd"
    SQRT_SATD = "sqrt_satd"


FULL_TRANSFER_ANGLE = math.pi / 2
HALF_TRANSFER_ANGLE = math.pi / 4


def theta(t, duration: float, theta_max: float = FULL_TRANSFER_ANGLE):
    """Quintic smoothstep mixing angle: flat first and second derivatives at
    both ends."""
    x = np.asarray(t, dtype=float) / duration
    s = 6 * x**5 - 15 * x**4 + 10 * x**3
    return theta_max * s


def theta_derivatives(t, duration: float, theta_max: float = FULL_TRANSFER_ANGLE):
    """(theta, dtheta/dt, d2theta/dt2) of the quintic sweep, in rad, rad/s,
    rad/s^2."""
    x = np.asarray(t, dtype=float) / duration
    s = 6 * x**5 - 15 * x**4 + 10 * x**3
    s1 = 30 * x**4 - 60 * x**3 + 30 * x**2
    s2 = 120 * x**3 - 180 * x**2 + 60 * x
    return theta_max * s, theta_max * s1 / duration, theta_max * s2 / duration**2


def stirap_couplings(t, duration: float, g_hz: float):
    """Resonant adiabatic-passage pair with a linear angle sweep.

    Returns (g_e, g_r) in Hz; g_e^2 + g_r^2 == g^2 identically.
    """
    angle = FULL_TRANSFER_ANGLE * np.asarray(t, dtype=float) / duration
    return g_hz * np.sin(angle), g_hz * np.cos(angle)


def satd_couplings(t, duration: float, g_hz: float, theta_max: float = FULL_TRANSFER_ANGLE):
    """Superadiabatic pair: quintic sweep plus the dressed-state correction.

    The correction rescales the couplings so the dressed dark state is
    followed exactly at any sweep speed; it vanishes at both ends where the
    angular acceleration is zero.
    """
    th, thd, thdd = theta_derivatives(t, duration, theta_max)
    g_angular = 2 * math.pi * g_hz
    denom = g_angular**2 + thd**2
    g_e = g_hz * (np.sin(th) + thdd * np.cos(th) / denom)
    g_r = g_hz * (np.cos(th) - thdd * np.sin(th) / denom)
    return g_e, g_r


@dataclass
class PulseSchedule:
    """Uniformly sampled transfer waveforms for one emitter/receiver pair."""

    times_s: np.ndarray
    g_e_hz: np.ndarray
    g_r_hz: np.ndarray
    det_e_hz: np.ndarray
    det_r_hz: np.ndarray
    method: str
    dt_s: float
    sweep_start_s: float
    sweep_duration_s: float
    g_hz: float
    theta_max: float
    emitter: str = "L1"
    receiver: str = "L2"

    def __post_init__(self):
        for name in ("times_s", "g_e_hz", "g_r_hz", "det_e_hz", "det_r_hz"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.shape != self.times_s.shape:
                raise ValueError(f"{name} length does not match times")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite samples")
        if abs(self.duration_s - self.dt_s * (len(self.times_s) - 1)) > self.dt_s:
            raise ValueError("sample spacing is inconsistent with the duration")

    @property
    def duration_s(self) -> float:
        return float(self.times_s[-1] - self.times_s[0])

    def max_coupling_hz(self) -> float:
        return float(max(np.max(np.abs(self.g_e_hz)), np.max(np.abs(self.g_r_hz))))

    def saturated(self, cap_hz: float) -> bool:
        """True when any coupling sample exceeds the hardware cap."""
        return self.max_coupling_hz() > cap_hz

    def detuning_phase_rad(self) -> tuple[float, float]:
        """Accumulated 2*pi*integral(detuning) phase for emitter and receiver."""
        phi_e = 2 * math.pi * float(np.trapezoid(self.det_e_hz, self.times_s))
        phi_r = 2 * math.pi * float(np.trapezoid(self.det_r_hz, self.times_s))
        return phi_e, phi_r


def _segment_samples(duration: float, dt: float, what: str) -> int:
    n = round(duration / dt)
    # picosecond slack: enough for float rounding, tight enough to reject
    # grids that genuinely miss the segment boundary
    if abs(n * dt - duration) > 1e-12:
        raise ValueError(f"dt does not divide the {what} duration to within one sample")
    return n


def build_transfer_schedule(
    cfg,
    method: TransferMethod | str = TransferMethod.SATD,
    g_hz: float | None = None,
    sweep_duration_s: float | None = None,
    total_duration_s: float | None = None,
    dt_s: float = 1e-10,
) -> PulseSchedule:
    """Sampled ramp / sweep / ramp schedule for an L1 -> L2 transfer.

    Detunings are each qubit's idle offset from the target mode, ramped
    linearly to zero with couplings off, then back after the sweep.  The
    square-root variant ends its sweep at theta_max = pi/4 with the couplings
    stepping to zero (one sample wide) for the ramp back.
    """
    method = TransferMethod(method)
    g = cfg.transfer.g_max_hz if g_hz is None else g_hz
    sweep = cfg.transfer.satd_duration_s if sweep_duration_s is None else sweep_duration_s
    total = cfg.transfer.total_duration_s if total_duration_s is None else total_duration_s
    if not 0 < sweep <= total:
        raise ValueError("need 0 < sweep duration <= total duration")
    ramp = 0.5 * (total - sweep)

    n_ramp = _segment_samples(ramp, dt_s, "ramp")
    n_sweep = _segment_samples(sweep, dt_s, "sweep")
    n_total = 2 * n_ramp + n_sweep
    times = np.arange(n_total + 1) * dt_s

    target = cfg.cpw.mode_frequencies_hz[cfg.target_mode_offset()]
    det_idle_e = cfg.l_qubits[0].idle_frequency_hz - target
    det_idle_r = cfg.l_qubits[1].idle_frequency_hz - target

    g_e = np.zeros_like(times)
    g_r = np.zeros_like(times)
    det_e = np.zeros_like(times)
    det_r = np.zeros_like(times)

    theta_max = HALF_TRANSFER_ANGLE if method is TransferMethod.SQRT_SATD else FULL_TRANSFER_ANGLE
    sweep_t = times[n_ramp : n_ramp + n_sweep + 1] - ramp
    if method is TransferMethod.STIRAP:
        ge_sweep, gr_sweep = stirap_couplings(sweep_t, sweep, g)
    else:
        ge_sweep, gr_sweep = satd_couplings(sweep_t, sweep, g, theta_max)
    # for the square-root variant the last sweep sample keeps (g/sqrt2,
    # g/sqrt2) and the first ramp-out sample is zero: a one-sample step
    g_e[n_ramp : n_ramp + n_sweep + 1] = ge_sweep
    g_r[n_ramp : n_ramp + n_sweep + 1] = gr_sweep

    if n_ramp > 0:
        ramp_up = times[:n_ramp] / ramp
        det_e[:n_ramp] = det_idle_e * (1.0 - ramp_up)
        det_r[:n_ramp] = det_idle_r * (1.0 - ramp_up)
        ramp_down = (times[n_ramp + n_sweep + 1 :] - (ramp + sweep)) / ramp
        det_e[n_ramp + n_sweep + 1 :] = det_idle_e * ramp_down
        det_r[n_ramp + n_sweep + 1 :] = det_idle_r * ramp_down

    return PulseSchedule(
        times_s=times,
        g_e_hz=g_e,
        g_r_hz=g_r,
        det_e_hz=det_e,
        det_r_hz=det_r,
        method=method.value,
        dt_s=dt_s,
        sweep_start_s=ramp,
        sweep_duration_s=sweep,
        g_hz=g,
        theta_max=theta_max,
        emitter=cfg.l_qubits[0].name,
        receiver=cfg.l_qubits[1].name,
    )


def constant_coupling_schedule(
    g_hz: float,
    duration_s: float,
    dt_s: float = 1e-10,
    which: str = "emitter",
    emitter: str = "L1",
    receiver: str = "L2",
) -> PulseSchedule:
    """Flat coupling on one qubit, zero everywhere else.

    Useful for vacuum Rabi exchange against the target mode.
    """
    n = _segment_samples(duration_s, dt_s, "duration")
    times = np.arange(n + 1) * dt_s
    flat = np.full_like(times, float(g_hz))
    zero = np.zeros_like(times)
    if which not in ("emitter", "receiver"):
        raise ValueError("which must be 'emitter' or 'receiver'")
    g_e, g_r = (flat, zero) if which == "emitter" else (zero, flat)
    return PulseSchedule(
        times_s=times,
        g_e_hz=g_e,
        g_r_hz=g_r,
        det_e_hz=zero,
        det_r_hz=zero.copy(),
        method="constant",
        dt_s=dt_s,
        sweep_start_s=0.0,
        sweep_duration_s=duration_s,
        g_hz=float(g_hz),
        theta_max=0.0,
        emitter=emitter,
        receiver=receiver,
    )


def reverse_schedule(schedule: PulseSchedule) -> PulseSchedule:
    """Opposite-direction transfer: all control columns exchange.

    Columns are positional (the g_e/det_e pair always drives the L1 end, see
    the dynamics module), so exchanging them hands the rising emitter
    waveform to the other qubit.  Time order is preserved.  The exchanged
    detuning ramps differ per qubit only in their idle offsets, which act
    diagonally while couplings are off, so transferred populations and the
    summed frame phase are unaffected.
    """
    return replace(
        schedule,
        g_e_hz=schedule.g_r_hz.copy(),
        g_r_hz=schedule.g_e_hz.copy(),
        det_e_hz=schedule.det_r_hz.copy(),
        det_r_hz=schedule.det_e_hz.copy(),
        times_s=schedule.times_s.copy(),
        emitter=schedule.receiver,
        receiver=schedule.emitter,
    )
