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
emitter, mirroring the population exchange. Registers are plain angles.

The deterministic pi that a transfer imprints on the moved amplitude is no
register matter: cliffords.transfer_step, the one builder of circuit
transfers, follows each move with a virtual Z(pi) on the receiver. This
module holds the frequency-mismatch register rule and a closed-loop check:
a Ramsey circuit of library ops that the ideal circuit executor runs on the
l-qubit pair.
"""

from __future__ import annotations

import numpy as np

from .benchmarking import NoiseModel, SpamModel, circuit_runner
from .cliffords import L_QUBIT_PAIR, GateOp, Segment, sq_rot, transfer_step, virtual_z

TWO_PI = 2.0 * np.pi


def wrap_angle(angle_rad: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    wrapped = float(np.mod(angle_rad, TWO_PI))
    return 0.0 if wrapped == TWO_PI else wrapped  # -1e-17 rounds up to 2*pi


def transfer_frame(
    emitter_rad: float, receiver_rad: float, delta_rad_s: float, t_transfer_s: float
) -> tuple[float, float]:
    """Exchange frame registers across a state transfer at absolute time t.

    delta_rad_s is omega_emitter - omega_receiver.  The receiver inherits the
    emitter's register plus delta * t; the emitter symmetrically inherits the
    receiver's old register minus delta * t.  Returns the updated
    (emitter, receiver) registers, each wrapped to [0, 2*pi).
    """
    correction = delta_rad_s * t_transfer_s
    return wrap_angle(receiver_rad - correction), wrap_angle(emitter_rad + correction)


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

    def transfer(emitter: str, receiver: str, mismatch_rad: float) -> list[GateOp]:
        # the bus imprints the frame mismatch delta * t on the moved amplitude:
        # exp(+i delta t) on the emitter's excitation, the conjugate on the
        # receiver's
        return [
            virtual_z(emitter, mismatch_rad),
            virtual_z(receiver, -mismatch_rad),
            *transfer_step(emitter, receiver, 0.0),
        ]

    t_first, t_second = transfer_times_s
    delta = TWO_PI * frequency_1_hz - TWO_PI * frequency_2_hz  # omega_L1 - omega_L2
    r1 = r2 = 0.0
    ops = pulse(r1, np.pi / 2.0) + transfer("L1", "L2", delta * t_first)
    if track_frames:
        r1, r2 = transfer_frame(r1, r2, delta, t_first)
    ops += transfer("L2", "L1", -delta * t_second)
    if track_frames:
        r2, r1 = transfer_frame(r2, r1, -delta, t_second)
    ops += pulse(r1, -np.pi / 2.0)

    runner = circuit_runner(NoiseModel.ideal(), L_QUBIT_PAIR)
    ground = runner.initial_state(SpamModel.ideal(L_QUBIT_PAIR))
    rho = runner.run(ground, [Segment((op,)) for op in ops])
    return float(rho[0, 0].real + rho[1, 1].real)
