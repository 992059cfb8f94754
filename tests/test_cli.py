"""End-to-end checks of the command-line interface.

Everything runs through ``main(argv)`` in-process so exit codes and file
outputs are observable without spawning subprocesses.  Noiseless modes and
tiny grids keep the suite fast.
"""

import json

import pytest

from lcoupler.cli import main
from lcoupler.config import default_config

SWEEP_HEADER = "g_hz,T_s,pop_emitter,pop_receiver,pop_other,saturated"
RB_HEADER = "length,seed,shots,survival,spectator_l1,spectator_l2"


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


class TestSweepCommand:
    def test_grid_csv_svg_manifest(self, tmp_path):
        code = run(
            tmp_path, "sweep", "--method", "satd",
            "--g", "1e6:4e6:4", "--T", "5e-8:4e-7:4",
        )
        assert code == 0
        csv = (tmp_path / "sweep_satd.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 16
        svg = (tmp_path / "sweep_satd.svg").read_text()
        assert svg.startswith("<svg")
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        for name in manifest["outputs"]:
            assert (tmp_path / name).exists()
        assert manifest["tool_version"]
        assert "config_sha256" in manifest

    def test_manifest_hash_is_the_library_hash(self, tmp_path):
        code = run(
            tmp_path, "sweep", "--method", "stirap", "--g", "3e6:3e6:1", "--T", "5e-8:5e-8:1",
        )
        assert code == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["config_sha256"] == default_config().config_hash()
        assert manifest["cell_errors"] == []

    def test_failed_cell_reported(self, tmp_path, capsys):
        code = run(
            tmp_path, "sweep", "--method", "satd",
            "--g", "3e6:3e6:1", "--T", "166.66e-9:166.66e-9:1",
        )
        assert code == 0
        lines = (tmp_path / "sweep_satd.csv").read_text().strip().split("\n")
        assert lines == [SWEEP_HEADER, "3.000000000e+06,1.666600000e-07,,,,"]
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        [cell] = manifest["cell_errors"]
        assert cell["g_hz"] == 3e6 and cell["T_s"] == pytest.approx(166.66e-9)
        assert "sweep duration" in cell["error"]
        assert "sweep duration" in capsys.readouterr().err

    def test_invalid_method_is_usage_error(self, tmp_path):
        code = run(
            tmp_path, "sweep", "--method", "bogus",
            "--g", "1e6:2e6:2", "--T", "1e-7:2e-7:2",
        )
        assert code == 2

    def test_malformed_grid_is_usage_error(self, tmp_path):
        code = run(
            tmp_path, "sweep", "--method", "satd",
            "--g", "1e6-4e6", "--T", "1e-7:2e-7:2",
        )
        assert code == 2

    def test_truncation_flag_is_gone(self, tmp_path, capsys):
        # a transfer never leaves the one-excitation sector, so the basis
        # size is not a sweep option
        code = run(
            tmp_path, "sweep", "--method", "satd",
            "--g", "3e6:3e6:1", "--T", "5e-8:5e-8:1", "--truncation", "2",
        )
        assert code == 2
        assert "--truncation" in capsys.readouterr().err
        assert not (tmp_path / "sweep_satd.csv").exists()


class TestNbCommand:
    ARGS = (
        "nb", "--noiseless", "--lengths", "2,4,8,16,32",
        "--seeds", "5", "--shots", "300", "--seed", "7",
    )

    def test_outputs_and_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(a, *self.ARGS) == 0
        assert run(b, *self.ARGS) == 0
        csv_a = (a / "nb_dataset.csv").read_bytes()
        csv_b = (b / "nb_dataset.csv").read_bytes()
        assert csv_a == csv_b
        assert csv_a.decode().split("\n")[0] == RB_HEADER

    def test_noiseless_eps_is_tiny(self, tmp_path):
        assert run(tmp_path, *self.ARGS) == 0
        fit = json.loads((tmp_path / "nb_fit.json").read_text())
        assert fit["protocol"] == "NB"
        assert fit["eps"] < 1e-4
        assert fit["survival"]["rate_convention"] == "EPS = (1 - p) / 2"
        # NB ends every sequence with the carrier on L1, so L1's spectator
        # column is the survival column: only L2's fit is a leakage estimate
        assert set(fit["leakage"]) == {"spectator_l2"}
        # constant data short-circuits the fit, so nothing sits on a bound
        assert fit["survival"]["at_bound"] == []

    def test_odd_length_rejected(self, tmp_path, capsys):
        code = run(tmp_path, "nb", "--noiseless", "--lengths", "3,5")
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_repeated_length_rejected(self, tmp_path, capsys):
        code = run(tmp_path, "nb", "--noiseless", "--seeds", "2", "--lengths", "2,2,4,8")
        assert code == 2
        assert "distinct" in capsys.readouterr().err
        assert not (tmp_path / "nb_dataset.csv").exists()


class TestRbCommand:
    def test_interleaved_fit_has_both_decays(self, tmp_path):
        code = run(
            tmp_path, "rb", "--noiseless", "--lengths", "1,2,4",
            "--seeds", "2", "--shots", "100",
            "--interleave", "remote-cnot",
        )
        assert code == 0
        fit = json.loads((tmp_path / "rb_fit.json").read_text())
        assert fit["reference"]["decay"] == pytest.approx(1.0, abs=1e-9)
        assert fit["interleaved"]["decay"] == pytest.approx(1.0, abs=1e-9)
        assert fit["interleaved_epg"] == pytest.approx(0.0, abs=1e-9)
        assert (tmp_path / "rb_interleaved.csv").exists()

    def test_reference_only_by_default(self, tmp_path):
        code = run(
            tmp_path, "rb", "--noiseless", "--lengths", "1,2,4",
            "--seeds", "2", "--shots", "100",
        )
        assert code == 0
        fit = json.loads((tmp_path / "rb_fit.json").read_text())
        assert fit["interleaved"] is None
        assert not (tmp_path / "rb_interleaved.csv").exists()

    def test_repeated_length_rejected(self, tmp_path, capsys):
        code = run(tmp_path, "rb", "--noiseless", "--seeds", "2", "--lengths", "1,4,4")
        assert code == 2
        assert "distinct" in capsys.readouterr().err


class TestBellCommand:
    def test_noiseless_data_full_hits_unit_fidelity(self, tmp_path):
        code = run(tmp_path, "bell", "--variant", "data-full", "--noiseless")
        assert code == 0
        payload = json.loads((tmp_path / "bell_data-full.json").read_text())
        assert payload["raw_fidelity"] == pytest.approx(1.0, abs=1e-6)
        assert payload["optimized_fidelity"] == pytest.approx(1.0, abs=1e-6)
        assert payload["shots_per_setting"] is None
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["fidelity"] == pytest.approx(1.0, abs=1e-6)
        assert (tmp_path / "bell_data-full.svg").exists()

    def test_missing_variant_is_usage_error(self, tmp_path):
        assert run(tmp_path, "bell") == 2

    @pytest.mark.parametrize(
        "variant, method",
        [("lqubit-sqrt", "sqrt_satd"), ("data-sqrt", "sqrt_satd"), ("data-full", "satd")],
    )
    def test_extracts_only_the_channel_its_circuit_runs(
        self, tmp_path, extractions, variant, method
    ):
        cfg_path = tmp_path / "one_mode.json"
        cfg_path.write_text(json.dumps({"cpw": {"modes_retained": 1}}))
        code = run(
            tmp_path / "out", "bell", "--variant", variant, "--config", str(cfg_path),
            "--shots-per-setting", "1000",
        )
        assert code == 0
        assert extractions == [[(method, "L1->L2")]]

    def test_sqrt_variant_noiseless(self, tmp_path):
        code = run(tmp_path, "bell", "--variant", "lqubit-sqrt", "--noiseless")
        assert code == 0
        payload = json.loads((tmp_path / "bell_lqubit-sqrt.json").read_text())
        assert payload["optimized_fidelity"] == pytest.approx(1.0, abs=1e-6)


class TestManifest:
    """``main`` writes one ``run_manifest.json`` for every subcommand, after
    the run has written everything it declares."""

    RUNS = {
        "sweep": ("sweep", "--method", "satd", "--g", "3e6:3e6:1", "--T", "5e-8:1e-7:2"),
        "nb": ("nb", "--noiseless", "--lengths", "2,4,8", "--seeds", "2", "--shots", "100"),
        "rb": (
            "rb", "--noiseless", "--interleave", "remote-cnot",
            "--lengths", "1,2,4", "--seeds", "2", "--shots", "100",
        ),
        "bell": ("bell", "--variant", "data-full", "--noiseless"),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_outputs_are_the_files_written_and_command_is_the_argv(self, tmp_path, name):
        argv = [*self.RUNS[name], "--seed", "4", "--out", str(tmp_path)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        written = {p.name for p in tmp_path.iterdir()} - {"run_manifest.json"}
        assert sorted(manifest["outputs"]) == sorted(written)
        assert manifest["command"] == "lcoupler " + " ".join(argv)
        assert manifest["rng_seed"] == 4

    def test_usage_failure_leaves_no_manifest(self, tmp_path):
        assert run(tmp_path, "nb", "--noiseless", "--lengths", "3,5") == 2
        assert not (tmp_path / "run_manifest.json").exists()

    def test_fit_failure_leaves_no_manifest(self, tmp_path, capsys, monkeypatch):
        from lcoupler import cli
        from lcoupler.benchmarking import FitError

        def failing(*args, **kwargs):
            raise FitError("decay fit did not converge")

        monkeypatch.setattr(cli, "fit_exponential", failing)
        assert run(tmp_path, *self.RUNS["nb"]) == 3
        assert capsys.readouterr().err == "numerical failure: decay fit did not converge\n"
        assert not (tmp_path / "run_manifest.json").exists()


class TestSvgHelpers:
    def test_write_svg_rejects_non_svg_content(self, tmp_path):
        from lcoupler.svg import write_svg

        with pytest.raises(ValueError):
            write_svg(tmp_path / "x.svg", "<html></html>")

    def test_heatmap_handles_nan_cells(self):
        import numpy as np

        from lcoupler.svg import heatmap_svg

        grid = np.array([[0.0, float("nan")], [0.5, 1.0]])
        doc = heatmap_svg([("panel", grid)], [1, 2], [3, 4], "x", "y")
        assert doc.startswith("<svg")
        assert "#b0b0b0" in doc  # NaN cells get the neutral fill


class TestConfigHandling:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"transfer": {"total_duration_s": 210e-9}}))
        monkeypatch.setenv("LCOUPLER_CONFIG", str(cfg_path))
        out = tmp_path / "out"
        assert run(out, "bell", "--variant", "data-full", "--noiseless") == 0
        payload = json.loads((out / "bell_data-full.json").read_text())
        assert payload["optimized_fidelity"] == pytest.approx(1.0, abs=1e-6)

    def test_missing_config_file_is_exit_2(self, tmp_path, capsys):
        code = run(tmp_path, "nb", "--config", str(tmp_path / "nope.json"))
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_thermal_population_the_spam_model_refuses_is_a_config_error(
        self, tmp_path, capsys
    ):
        # refused when the config loads, before any channel is extracted
        cfg = default_config().to_dict()
        cfg["l_qubits"][0]["thermal_population"] = 0.6
        cfg_path = tmp_path / "hot.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run(tmp_path / "out", "nb", "--config", str(cfg_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "thermal population" in err
        assert len(err.strip().splitlines()) == 1

    def test_lookup_failure_is_exit_2_without_traceback(self, tmp_path, capsys):
        # a config without the (L2, D2) CZ loads, but the compiled circuits
        # address that pair
        cfg = default_config().to_dict()
        cfg["cz_gates"] = [g for g in cfg["cz_gates"] if set(g["pair"]) != {"L2", "D2"}]
        cfg_path = tmp_path / "no_far_cz.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run(
            tmp_path / "out", "rb", "--noiseless", "--config", str(cfg_path),
            "--lengths", "1,2,4", "--seeds", "2", "--shots", "100",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no CZ configured for pair (L2, D2)" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys, monkeypatch):
        from lcoupler import cli

        def failing(*args, **kwargs):
            raise RuntimeError("propagator did not converge")

        monkeypatch.setattr(cli, "sweep_transfer", failing)
        code = run(tmp_path, "sweep", "--method", "satd", "--g", "3e6:3e6:1", "--T", "5e-8:5e-8:1")
        assert code == 3
        err = capsys.readouterr().err
        assert "propagator did not converge" in err and "Traceback" not in err
