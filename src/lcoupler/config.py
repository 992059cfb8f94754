"""Device description: qubits, resonator bus, gates, and loading/validation.

The device model is two tunable coupler qubits (L1, L2) attached to the two
ends of a long coplanar-waveguide resonator, each with a neighbouring data
qubit (D1, D2).  All frequencies are stored in Hz and all times in seconds.
``load_config`` accepts a JSON file or a plain mapping and merges it over the
bundled reference parameter set, so partial configs only need to state what
they change.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping


# the names every circuit, noise table and readout addresses the qubits by
L_QUBIT_PAIR = ("L1", "L2")
DATA_QUBITS = ("D1", "D2")


class ConfigError(ValueError):
    """Raised when a device description fails validation."""


@dataclass
class LQubitConfig:
    """A flux-tunable coupler qubit at one end of the resonator bus.

    The qubit has two capacitively shunted electrodes joined by an internal
    coupling; only the symmetric eigenmode is used as the computational
    two-level system.
    """

    name: str
    idle_frequency_hz: float
    min_frequency_hz: float
    max_frequency_hz: float
    t1_s: float = 100e-6
    t2_s: float = 20e-6
    readout_fidelity: float = 1.0
    thermal_population: float = 0.0
    sq_clifford_error: float = 0.0


@dataclass
class DataQubitConfig:
    """A fixed-frequency data qubit next to one coupler qubit."""

    name: str
    t1_s: float = 100e-6
    t2_s: float = 50e-6
    readout_fidelity: float = 1.0
    thermal_population: float = 0.0
    sq_clifford_error: float = 0.0


@dataclass
class CpwConfig:
    """The multimode coplanar-waveguide resonator bus.

    ``target_mode_index`` is the absolute harmonic index of the mode used for
    state transfer; ``modes_retained`` neighbouring modes (odd count, centred
    on the target) enter the simulation.  ``mode_frequencies_hz`` and
    ``mode_t1_s`` are aligned with the retained window; frequencies may be
    omitted and are then auto-filled on an exact free-spectral-range grid
    around ``target_frequency_hz``.
    """

    fsr_hz: float = 98e6
    target_mode_index: int = 50
    target_frequency_hz: float = 4.881e9
    modes_retained: int = 5
    mode_frequencies_hz: list[float] = field(default_factory=list)
    mode_t1_s: list[float] = field(default_factory=list)


@dataclass
class CzGateConfig:
    """A calibrated CZ between a data qubit and its coupler qubit."""

    pair: tuple[str, str]
    duration_s: float
    error_per_gate: float


@dataclass
class TransferConfig:
    """Timing and amplitude settings for one inter-module state transfer.

    ``g_max_hz`` is the coupling amplitude the sweep is scheduled at;
    ``coupling_cap_hz`` is the hardware limit used to flag saturated
    schedules (shaped pulses may request more than the cap allows).
    """

    g_max_hz: float = 3.5e6
    satd_duration_s: float = 135e-9
    total_duration_s: float = 206e-9
    coupling_cap_hz: float = 4e6


@dataclass
class DeviceConfig:
    """Complete device description consumed by every other module."""

    l_qubits: list[LQubitConfig]
    data_qubits: list[DataQubitConfig]
    cpw: CpwConfig
    cz_gates: list[CzGateConfig]
    transfer: TransferConfig
    single_qubit_gate_time_s: float = 35e-9

    # -- lookups ---------------------------------------------------------

    def qubit_names(self) -> list[str]:
        return [q.name for q in self.l_qubits] + [q.name for q in self.data_qubits]

    def cz_for(self, a: str, b: str) -> CzGateConfig:
        for gate in self.cz_gates:
            if set(gate.pair) == {a, b}:
                return gate
        raise KeyError(f"no CZ configured for pair ({a}, {b})")

    def mode_indices(self) -> list[int]:
        k = self.cpw.modes_retained // 2
        t = self.cpw.target_mode_index
        return list(range(t - k, t + k + 1))

    def target_mode_offset(self) -> int:
        """Position of the target mode inside the retained window."""
        return self.cpw.modes_retained // 2

    # -- validation ------------------------------------------------------

    def validate(self) -> "DeviceConfig":
        cpw = self.cpw
        if cpw.modes_retained < 1 or cpw.modes_retained % 2 == 0:
            raise ConfigError("modes_retained must be a positive odd count")
        if cpw.fsr_hz <= 0 or cpw.target_frequency_hz <= 0:
            raise ConfigError("resonator frequencies must be positive")

        if not cpw.mode_frequencies_hz:
            k = cpw.modes_retained // 2
            cpw.mode_frequencies_hz = [
                cpw.target_frequency_hz + (j - k) * cpw.fsr_hz
                for j in range(cpw.modes_retained)
            ]
        if len(cpw.mode_frequencies_hz) != cpw.modes_retained:
            raise ConfigError(
                "mode_frequencies_hz length must equal modes_retained "
                f"({len(cpw.mode_frequencies_hz)} != {cpw.modes_retained})"
            )
        for lo, hi in zip(cpw.mode_frequencies_hz, cpw.mode_frequencies_hz[1:]):
            if abs((hi - lo) - cpw.fsr_hz) > 0.01 * cpw.fsr_hz:
                raise ConfigError(
                    f"mode spacing {hi - lo:.4g} Hz departs from the "
                    f"free spectral range {cpw.fsr_hz:.4g} Hz by more than 1%"
                )
        if not cpw.mode_t1_s:
            cpw.mode_t1_s = [5e-6] * cpw.modes_retained
        if len(cpw.mode_t1_s) != cpw.modes_retained:
            raise ConfigError("mode_t1_s length must equal modes_retained")

        if len(self.l_qubits) != 2 or len(self.data_qubits) != 2:
            raise ConfigError("expected exactly two coupler qubits and two data qubits")
        named = (tuple(q.name for q in self.l_qubits), tuple(q.name for q in self.data_qubits))
        if named != (L_QUBIT_PAIR, DATA_QUBITS):
            raise ConfigError(
                f"qubits must be named {L_QUBIT_PAIR} (l-qubits) and {DATA_QUBITS} (data), "
                f"in that order; got {named[0]} and {named[1]}"
            )
        for q in [*self.l_qubits, *self.data_qubits]:
            if q.t1_s <= 0 or q.t2_s <= 0:
                raise ConfigError(f"{q.name}: T1/T2 must be positive")
            if not 0.5 <= q.readout_fidelity <= 1.0:
                raise ConfigError(f"{q.name}: readout fidelity outside [0.5, 1]")
            if not 0.0 <= q.thermal_population <= 0.5:
                raise ConfigError(f"{q.name}: thermal population outside [0, 0.5]")
            if not 0.0 <= q.sq_clifford_error < 1.0:
                raise ConfigError(f"{q.name}: single-qubit Clifford error outside [0, 1)")
        for q in self.l_qubits:
            if q.idle_frequency_hz <= 0:
                raise ConfigError(f"{q.name}: idle frequency must be positive")
            if not q.min_frequency_hz <= q.idle_frequency_hz <= q.max_frequency_hz:
                raise ConfigError(f"{q.name}: idle frequency outside tuning band")

        tr = self.transfer
        if tr.g_max_hz <= 0 or tr.coupling_cap_hz <= 0:
            raise ConfigError("transfer coupling settings must be positive")
        if not 0 < tr.satd_duration_s <= tr.total_duration_s:
            raise ConfigError("transfer durations must satisfy 0 < sweep <= total")

        names = set(self.qubit_names())
        for gate in self.cz_gates:
            gate.pair = tuple(gate.pair)
            if not set(gate.pair) <= names:
                raise ConfigError(f"CZ pair {gate.pair} names unknown qubits")
            if gate.duration_s <= 0 or not 0 <= gate.error_per_gate < 1:
                raise ConfigError(f"CZ pair {gate.pair}: bad duration or error")
        return self

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        for gate in d["cz_gates"]:
            gate["pair"] = list(gate["pair"])
        return d

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def pure_dephasing_rate(qubit: LQubitConfig | DataQubitConfig) -> float:
    """1/T_phi from 1/T2 = 1/(2 T1) + 1/T_phi; negative when T2 exceeds 2 T1."""
    return 1.0 / qubit.t2_s - 0.5 / qubit.t1_s


def default_config() -> DeviceConfig:
    """Bundled reference device parameters."""
    return DeviceConfig(
        l_qubits=[
            LQubitConfig(
                name="L1",
                idle_frequency_hz=4.933e9,
                min_frequency_hz=4.681e9,
                max_frequency_hz=5.243e9,
                t1_s=113e-6,
                t2_s=18e-6,
                readout_fidelity=0.959,
                thermal_population=0.019,
                sq_clifford_error=7.9e-4,
            ),
            LQubitConfig(
                name="L2",
                idle_frequency_hz=4.929e9,
                min_frequency_hz=4.665e9,
                max_frequency_hz=5.310e9,
                t1_s=76e-6,
                t2_s=22e-6,
                readout_fidelity=0.957,
                thermal_population=0.020,
                sq_clifford_error=8.4e-4,
            ),
        ],
        data_qubits=[
            DataQubitConfig(
                name="D1",
                t1_s=92e-6,
                t2_s=38e-6,
                readout_fidelity=0.967,
                thermal_population=0.019,
                sq_clifford_error=4.5e-4,
            ),
            DataQubitConfig(
                name="D2",
                t1_s=141e-6,
                t2_s=81e-6,
                readout_fidelity=0.976,
                thermal_population=0.013,
                sq_clifford_error=2.6e-4,
            ),
        ],
        cpw=CpwConfig(
            fsr_hz=98e6,
            target_mode_index=50,
            target_frequency_hz=4.881e9,
            modes_retained=5,
            mode_frequencies_hz=[],
            # outermost low mode is not individually characterised; it reuses
            # the nearest measured lifetime
            mode_t1_s=[5.15e-6, 5.15e-6, 5.23e-6, 5.13e-6, 4.53e-6],
        ),
        cz_gates=[
            CzGateConfig(pair=("D1", "L1"), duration_s=135e-9, error_per_gate=0.0093),
            CzGateConfig(pair=("L2", "D2"), duration_s=100e-9, error_per_gate=0.0054),
        ],
        transfer=TransferConfig(),
    ).validate()


def _merge(base: dict, override: Mapping) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, Mapping):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _default_mode_t1(default: DeviceConfig, cpw: Mapping[str, Any]) -> list[float]:
    """The default device's measured mode lifetimes on the window of
    harmonics ``cpw`` retains; a harmonic outside the measured window reuses
    the nearest measured lifetime."""
    measured = dict(zip(default.mode_indices(), default.cpw.mode_t1_s))
    lo, hi = min(measured), max(measured)
    k, target = cpw["modes_retained"] // 2, cpw["target_mode_index"]
    return [measured[min(max(m, lo), hi)] for m in range(target - k, target + k + 1)]


def _entries(merged: dict, key: str, cls) -> list:
    """One config list built entry by entry, naming the entry and the keys
    that do not fit ``cls``."""
    known = {f.name for f in fields(cls)}
    required = [
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    ]
    out = []
    for i, entry in enumerate(merged[key]):
        unknown = sorted(map(str, set(entry) - known))
        if unknown:
            raise ConfigError(f"{key}[{i}]: unknown key {', '.join(unknown)}")
        missing = [name for name in required if name not in entry]
        if missing:
            raise ConfigError(
                f"{key}[{i}]: missing {', '.join(missing)} "
                "(list entries replace the default list whole)"
            )
        out.append(cls(**entry))
    return out


def _config_from_dict(data: Mapping[str, Any]) -> DeviceConfig:
    default = default_config()
    base = default.to_dict()
    unknown = sorted(map(str, set(data) - set(base)))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged = _merge(base, data)
    try:
        # the mode arrays follow the merged window unless the input lists them
        listed = data.get("cpw", {})
        cpw = merged["cpw"]
        if "mode_frequencies_hz" not in listed:
            cpw["mode_frequencies_hz"] = []  # auto-filled by validate()
        if "mode_t1_s" not in listed:
            cpw["mode_t1_s"] = _default_mode_t1(default, cpw)
        cfg = DeviceConfig(
            l_qubits=_entries(merged, "l_qubits", LQubitConfig),
            data_qubits=_entries(merged, "data_qubits", DataQubitConfig),
            cpw=CpwConfig(**merged["cpw"]),
            cz_gates=_entries(merged, "cz_gates", CzGateConfig),
            transfer=TransferConfig(**merged["transfer"]),
            single_qubit_gate_time_s=merged["single_qubit_gate_time_s"],
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed device config: {exc}") from exc
    return cfg.validate()


def load_config(source: str | Path | Mapping[str, Any] | None = None) -> DeviceConfig:
    """Load a device config from a JSON file, a mapping, or the defaults.

    Partial inputs are merged over the reference parameter set.  Raises
    ``ConfigError`` for an unknown key or when the result fails validation,
    and ``FileNotFoundError`` when a path is given but missing.
    """
    if source is None:
        return default_config()
    if isinstance(source, Mapping):
        return _config_from_dict(source)
    path = Path(source)
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return _config_from_dict(data)
