"""Simulation and benchmarking toolkit for a resonator-bus interconnect
between superconducting qubit modules."""

from lcoupler.config import (
    ConfigError,
    DeviceConfig,
    default_config,
    load_config,
)
from lcoupler.rng import RngHandle
from lcoupler.basis import BasisLabel, DensityOperator, build_basis
from lcoupler.pulses import (
    PulseSchedule,
    TransferMethod,
    build_transfer_schedule,
    constant_coupling_schedule,
    reverse_schedule,
)
from lcoupler.dynamics import (
    CollapseSet,
    SweepResult,
    TransferResult,
    build_hamiltonian,
    evolve,
    extract_channels,
    simulate_transfer,
    sweep_transfer,
)
from lcoupler.channels import QuantumChannel, ideal_transfer_unitary
from lcoupler.frames import ramsey_round_trip, transfer_frame
from lcoupler.cliffords import (
    CliffordElement,
    GateKind,
    GateOp,
    circuit_unitary,
    compile_remote_cnot,
    invert_sequence,
    single_qubit_cliffords,
    two_qubit_clifford,
)
from lcoupler.benchmarking import (
    DecayFitResult,
    FitError,
    NoiseModel,
    RbDataset,
    SpamModel,
    eps_from_decay,
    fit_exponential,
    run_network_benchmarking,
    run_two_qubit_rb,
)
from lcoupler.tomography import (
    BellVariant,
    TomographyResult,
    bell_circuit,
    bell_target,
    optimize_bell_phases,
    state_fidelity,
    state_tomography,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DeviceConfig",
    "default_config",
    "load_config",
    "RngHandle",
    "BasisLabel",
    "DensityOperator",
    "build_basis",
    "PulseSchedule",
    "TransferMethod",
    "build_transfer_schedule",
    "constant_coupling_schedule",
    "reverse_schedule",
    "CollapseSet",
    "SweepResult",
    "TransferResult",
    "build_hamiltonian",
    "evolve",
    "extract_channels",
    "simulate_transfer",
    "sweep_transfer",
    "QuantumChannel",
    "ideal_transfer_unitary",
    "ramsey_round_trip",
    "transfer_frame",
    "CliffordElement",
    "GateKind",
    "GateOp",
    "circuit_unitary",
    "compile_remote_cnot",
    "invert_sequence",
    "single_qubit_cliffords",
    "two_qubit_clifford",
    "DecayFitResult",
    "FitError",
    "NoiseModel",
    "RbDataset",
    "SpamModel",
    "eps_from_decay",
    "fit_exponential",
    "run_network_benchmarking",
    "run_two_qubit_rb",
    "BellVariant",
    "TomographyResult",
    "bell_circuit",
    "bell_target",
    "optimize_bell_phases",
    "state_fidelity",
    "state_tomography",
    "__version__",
]
