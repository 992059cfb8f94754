"""Virtual-Z frame bookkeeping across state transfers.

Each qubit's drive electronics stay phase-locked to that qubit's own frame
frequency, so a state moved between qubits whose frames differ by
delta = omega_emitter - omega_receiver arrives rotated by delta * T relative
to the receiver's drive at absolute protocol time T. No physical pulse is
needed to fix this: the receiver's accumulated virtual-Z register absorbs
delta * T, and every later rotation axis on that qubit is offset in software.

Frames travel with the state. A transfer hands the emitter's register
(plus the delta * T correction) to the receiver and, symmetrically, the
receiver's old register (with the opposite-sign correction) back to the
emitter, mirroring the population exchange.

The deterministic pi that a transfer imprints on the moved amplitude is not
handled here; the circuit layer folds it into the same register when it
schedules a transfer. This module only implements the frequency-mismatch
bookkeeping and a small closed-loop check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import ideal_transfer_unitary
from .cliffords import _SWAP, _rotation

TWO_PI = 2.0 * np.pi


def wrap_angle(angle_rad: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    return float(np.mod(angle_rad, TWO_PI))


@dataclass(frozen=True)
class Frame:
    """Rotating-frame state of one qubit's drive.

    virtual_z_rad is the accumulated software Z rotation, kept in [0, 2*pi).
    frequency_rad_s is the frame (drive) angular frequency.
    """

    qubit: str
    frequency_rad_s: float
    virtual_z_rad: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "virtual_z_rad", wrap_angle(self.virtual_z_rad))


def apply_virtual_z(frame: Frame, angle_rad: float) -> Frame:
    """Advance the register; purely software, no physical evolution."""
    return replace(frame, virtual_z_rad=wrap_angle(frame.virtual_z_rad + angle_rad))


def transfer_frame(emitter: Frame, receiver: Frame, t_transfer_s: float) -> tuple[Frame, Frame]:
    """Exchange frame registers across a state transfer at absolute time t.

    The receiver inherits the emitter's register plus
    (omega_emitter - omega_receiver) * t; the emitter symmetrically inherits
    the receiver's old register with the opposite-sign correction. Frame
    frequencies stay attached to their physical qubits. Returns the updated
    (emitter, receiver) pair.
    """
    delta = emitter.frequency_rad_s - receiver.frequency_rad_s
    correction = delta * t_transfer_s
    new_receiver = replace(
        receiver, virtual_z_rad=wrap_angle(emitter.virtual_z_rad + correction)
    )
    new_emitter = replace(
        emitter, virtual_z_rad=wrap_angle(receiver.virtual_z_rad - correction)
    )
    return new_emitter, new_receiver


def _framed_pulse(rotation: np.ndarray, register_rad: float) -> np.ndarray:
    # a register phi offsets the rotation axis: Z(phi) R Z(-phi)
    z = np.diag([1.0, np.exp(1j * register_rad)])
    return z @ rotation @ z.conj().T


def _transfer_unitary(delta_rad_s: float, t_transfer_s: float) -> np.ndarray:
    """Pair unitary for a circuit-level transfer in the doubly rotating frame.

    Basis |q_emitter q_receiver> with the emitter as the most significant
    bit. The moved amplitude carries the dark-passage minus sign and the
    frame-mismatch factor exp(+i * delta * t); the double-excitation element
    keeps both signs and both factors, which cancel.
    """
    phase = np.exp(1j * delta_rad_s * t_transfer_s)
    return ideal_transfer_unitary() @ np.diag([1.0, np.conj(phase), phase, 1.0])


def ramsey_round_trip(
    frequency_1_hz: float,
    frequency_2_hz: float,
    transfer_times_s: tuple[float, float],
    track_frames: bool = True,
) -> float:
    """Return probability of the closed-loop frame check.

    Circuit: pi/2 on qubit 1, transfer 1 -> 2 at the first event time,
    transfer back at the second, then -pi/2 on qubit 1; reports P(qubit 1
    back in |0>). With tracking the loop closes exactly; without it the
    residual phase (omega_1 - omega_2) * (t_first - t_second) leaks into the
    final pulse and the return probability drops for generic event times.
    """
    t_first, t_second = transfer_times_s
    f1 = Frame("L1", TWO_PI * frequency_1_hz)
    f2 = Frame("L2", TWO_PI * frequency_2_hz)
    delta = f1.frequency_rad_s - f2.frequency_rad_s

    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    pulse = _framed_pulse(_rotation("y", np.pi / 2.0), f1.virtual_z_rad)
    state = np.kron(pulse, np.eye(2)) @ state

    state = _transfer_unitary(delta, t_first) @ state
    if track_frames:
        f1, f2 = transfer_frame(f1, f2, t_first)
        f2 = apply_virtual_z(f2, np.pi)  # circuit layer absorbs the dark sign

    # reverse direction: swap the roles, emitter is now qubit 2
    state = _SWAP @ _transfer_unitary(-delta, t_second) @ _SWAP @ state
    if track_frames:
        f2, f1 = transfer_frame(f2, f1, t_second)
        f1 = apply_virtual_z(f1, np.pi)

    pulse = _framed_pulse(_rotation("y", -np.pi / 2.0), f1.virtual_z_rad)
    state = np.kron(pulse, np.eye(2)) @ state
    return float(np.abs(state[0]) ** 2 + np.abs(state[1]) ** 2)
