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
register algebra and a small closed-loop check: a Ramsey circuit of library
ops (cliffords) that the ideal circuit executor runs on the l-qubit pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .benchmarking import NoiseModel, SpamModel, _CircuitRunner
from .cliffords import L_QUBIT_PAIR, GateOp, Segment, sq_rot, transfer_op, virtual_z

TWO_PI = 2.0 * np.pi


def wrap_angle(angle_rad: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    wrapped = float(np.mod(angle_rad, TWO_PI))
    return 0.0 if wrapped == TWO_PI else wrapped  # -1e-17 rounds up to 2*pi


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


def ramsey_round_trip(
    frequency_1_hz: float,
    frequency_2_hz: float,
    transfer_times_s: tuple[float, float],
    track_frames: bool = True,
) -> float:
    """Return probability of the closed-loop frame check.

    Circuit on the l-qubit pair: pi/2 on qubit 1, transfer 1 -> 2 at the
    first event time, transfer back at the second, then -pi/2 on qubit 1;
    reports P(qubit 1 back in |0>) from the ideal executor. With tracking
    the loop closes exactly; without it the residual phase
    (omega_1 - omega_2) * (t_first - t_second) leaks into the final pulse
    and the return probability drops for generic event times.
    """

    def pulse(register_rad: float, angle_rad: float) -> list[GateOp]:
        # a register phi offsets the rotation axis: Z(phi) R Z(-phi)
        return [
            virtual_z("L1", -register_rad),
            sq_rot("L1", "y", angle_rad, 0.0),
            virtual_z("L1", register_rad),
        ]

    def transfer(emitter: Frame, receiver: Frame, t_transfer_s: float) -> list[GateOp]:
        # the bus imprints the frame mismatch delta * t on the moved amplitude:
        # exp(+i delta t) on the emitter's excitation, the conjugate on the
        # receiver's
        mismatch = (emitter.frequency_rad_s - receiver.frequency_rad_s) * t_transfer_s
        return [
            virtual_z(emitter.qubit, mismatch),
            virtual_z(receiver.qubit, -mismatch),
            transfer_op(f"{emitter.qubit}->{receiver.qubit}", 0.0),
        ]

    t_first, t_second = transfer_times_s
    f1 = Frame("L1", TWO_PI * frequency_1_hz)
    f2 = Frame("L2", TWO_PI * frequency_2_hz)

    ops = pulse(f1.virtual_z_rad, np.pi / 2.0) + transfer(f1, f2, t_first)
    if track_frames:
        f1, f2 = transfer_frame(f1, f2, t_first)
        f2 = apply_virtual_z(f2, np.pi)  # circuit layer absorbs the dark sign
    ops += transfer(f2, f1, t_second)
    if track_frames:
        f2, f1 = transfer_frame(f2, f1, t_second)
        f1 = apply_virtual_z(f1, np.pi)
    ops += pulse(f1.virtual_z_rad, -np.pi / 2.0)

    runner = _CircuitRunner(NoiseModel.ideal(), L_QUBIT_PAIR)
    ground = runner.initial_state(SpamModel.ideal(L_QUBIT_PAIR))
    rho = runner.run(ground, [Segment((op,)) for op in ops])
    return float(rho[0, 0].real + rho[1, 1].real)
