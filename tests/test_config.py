import json

import pytest

from lcoupler.config import ConfigError, default_config, load_config


def test_default_reference_values():
    cfg = default_config()
    assert cfg.l_qubits[0].t1_s == pytest.approx(113e-6)
    assert cfg.l_qubits[1].t1_s == pytest.approx(76e-6)
    assert cfg.l_qubits[0].idle_frequency_hz == pytest.approx(4.933e9)
    assert cfg.cpw.mode_t1_s[cfg.target_mode_offset()] == pytest.approx(5.23e-6)
    assert cfg.transfer.g_max_hz == pytest.approx(3.5e6)
    assert cfg.transfer.satd_duration_s == pytest.approx(135e-9)
    assert cfg.transfer.total_duration_s == pytest.approx(206e-9)
    assert cfg.cz_for("D1", "L1").error_per_gate == pytest.approx(0.0093)
    assert cfg.cz_for("D2", "L2").duration_s == pytest.approx(100e-9)


def test_mode_frequencies_autofill():
    cfg = load_config({"cpw": {"mode_frequencies_hz": []}})
    freqs = cfg.cpw.mode_frequencies_hz
    assert len(freqs) == 5
    assert freqs[2] == pytest.approx(4.881e9)
    assert freqs[1] == pytest.approx(4.881e9 - 98e6)
    assert freqs[3] == pytest.approx(4.881e9 + 98e6)
    # retained window is centred on the target harmonic index
    assert cfg.mode_indices() == [48, 49, 50, 51, 52]


def test_partial_override_merges_over_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"transfer": {"g_max_hz": 2.0e6}, "single_qubit_gate_time_s": 40e-9})
    )
    cfg = load_config(path)
    assert cfg.transfer.g_max_hz == pytest.approx(2.0e6)
    assert cfg.transfer.satd_duration_s == pytest.approx(135e-9)  # untouched default
    assert cfg.single_qubit_gate_time_s == pytest.approx(40e-9)


def test_mode_spacing_must_match_fsr():
    bad = {"cpw": {"mode_frequencies_hz": [4.685e9, 4.783e9, 4.881e9, 4.979e9, 5.2e9]}}
    with pytest.raises(ConfigError, match="free spectral range"):
        load_config(bad)


@pytest.mark.parametrize(
    "patch,match",
    [
        ({"l_qubits": [{"readout_fidelity": 0.4}]}, "readout fidelity"),
        ({"data_qubits": [{}, {"thermal_population": 1.0}]}, "thermal population"),
        ({"transfer": {"satd_duration_s": 300e-9}}, "durations"),
        ({"cpw": {"modes_retained": 4}}, "odd"),
        ({"rng_seed": -1}, "rng_seed"),  # no longer a config field: --seed is the seed
        ({"transfr": {"g_max_hz": 2e6}}, "unknown config keys: transfr"),
        # SpamModel refuses a thermal population above 0.5, so the config does
        ({"l_qubits": [{"thermal_population": 0.6}]}, "thermal population"),
        # circuits, noise tables and readout address the qubits by name, so a
        # renamed L1 (its CZ pair renamed to match) would silently lose its
        # gate, idle and readout noise
        (
            {"l_qubits": [{"name": "A"}], "cz_gates": [{"pair": ["D1", "A"]}]},
            r"qubits must be named \('L1', 'L2'\)",
        ),
        ({"data_qubits": [{"name": "D2"}, {"name": "D1"}]}, r"got \('L1', 'L2'\) and \('D2', 'D1'\)"),
    ],
)
def test_validation_rejects_bad_fields(patch, match):
    # merge-friendly shape: lists replace wholesale, so rebuild them from defaults
    base = default_config().to_dict()
    for key, value in patch.items():
        if isinstance(value, list):
            merged = base[key]
            for i, entry in enumerate(value):
                merged[i].update(entry)
            patch[key] = merged
    with pytest.raises(ConfigError, match=match):
        load_config(patch)


def test_config_hash_is_stable_and_sensitive():
    a = default_config()
    b = default_config()
    assert a.config_hash() == b.config_hash()
    c = load_config({"single_qubit_gate_time_s": 40e-9})
    assert c.config_hash() != a.config_hash()


def test_roundtrip_through_dict():
    cfg = default_config()
    again = load_config(cfg.to_dict())
    assert again.canonical_json() == cfg.canonical_json()


@pytest.mark.parametrize(
    "modes,freqs,t1s",
    [
        (3, [4.783e9, 4.881e9, 4.979e9], [5.15e-6, 5.23e-6, 5.13e-6]),
        (1, [4.881e9], [5.23e-6]),
    ],
)
def test_partial_modes_override_derives_mode_arrays(modes, freqs, t1s):
    cfg = load_config({"cpw": {"modes_retained": modes}})
    assert len(cfg.cpw.mode_frequencies_hz) == len(cfg.cpw.mode_t1_s) == modes
    spelled = load_config(
        {"cpw": {"modes_retained": modes, "mode_frequencies_hz": freqs, "mode_t1_s": t1s}}
    )
    assert cfg.canonical_json() == spelled.canonical_json()


def test_listed_mode_arrays_win_over_derived():
    cfg = load_config({"cpw": {"modes_retained": 1, "mode_t1_s": [4e-6]}})
    assert cfg.cpw.mode_t1_s == [4e-6]
    assert cfg.cpw.mode_frequencies_hz == [4.881e9]


def test_partial_list_entry_names_the_entry_and_missing_keys():
    message = (
        "l_qubits[0]: missing name, idle_frequency_hz, min_frequency_hz, "
        "max_frequency_hz (list entries replace the default list whole)"
    )
    with pytest.raises(ConfigError) as err:
        load_config({"l_qubits": [{"thermal_population": 0.01}]})
    assert str(err.value) == message


@pytest.mark.parametrize("key", ["bogus", "anharmonicity_hz", "internal_coupling_hz"])
def test_unknown_list_entry_key_is_named(key):
    # the two removed l-qubit fields are refused like any misspelling
    qubits = default_config().to_dict()["l_qubits"]
    qubits[0][key] = 1.0
    with pytest.raises(ConfigError) as err:
        load_config({"l_qubits": qubits})
    assert str(err.value) == f"l_qubits[0]: unknown key {key}"

