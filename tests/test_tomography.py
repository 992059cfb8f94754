"""Tests for Bell preparation circuits and state tomography."""

import dataclasses

import numpy as np
import pytest

from lcoupler.benchmarking import NoiseModel, SpamModel
from lcoupler.cliffords import GateKind
from lcoupler.rng import RngHandle
from lcoupler.tomography import (
    BellVariant,
    bell_circuit,
    bell_target,
    optimize_bell_phases,
    project_to_state,
    simulate_prep,
    state_fidelity,
    state_tomography,
    tomography_of_state,
)

IDEAL_NOISE = NoiseModel.ideal()
IDEAL_SPAM = SpamModel.ideal()


class TestBellCircuits:
    @pytest.mark.parametrize("variant", list(BellVariant))
    def test_ideal_preparation_reaches_target(self, variant):
        target, pair = bell_target(variant)
        rho = simulate_prep(bell_circuit(variant), IDEAL_NOISE, IDEAL_SPAM, pair)
        assert state_fidelity(rho, target) > 1 - 1e-9

    def test_full_transfer_variant_parks_l_qubits(self):
        rho_l = simulate_prep(
            bell_circuit(BellVariant.DATA_FULL), IDEAL_NOISE, IDEAL_SPAM, ("L1", "L2")
        )
        assert np.real(rho_l[0, 0]) > 1 - 1e-9

    def test_circuit_contents(self):
        lq = bell_circuit("lqubit-sqrt")
        transfers = [op for op in lq if op.kind is GateKind.TRANSFER]
        assert len(transfers) == 1 and transfers[0].params.get("half")
        full = bell_circuit("data-full")
        transfers = [op for op in full if op.kind is GateKind.TRANSFER]
        assert len(transfers) == 1 and not transfers[0].params.get("half")
        sqrt = bell_circuit("data-sqrt")
        assert sum(1 for op in sqrt if op.kind is GateKind.CZ) == 4

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            bell_circuit("ghz")

    def test_half_transfer_needs_a_channel(self):
        bare = NoiseModel(transfer_channels=dict(IDEAL_NOISE.transfer_channels))
        with pytest.raises(KeyError, match="no half-transfer channel for L1->L2"):
            simulate_prep(
                bell_circuit("lqubit-sqrt"), bare, IDEAL_SPAM, ("L1", "L2")
            )

    def test_tomography_refuses_a_malformed_noise_model(self):
        # the same check NB and TQRB apply: a depolarizing probability above 1
        bad = dataclasses.replace(NoiseModel.ideal(), sq_depolarizing={"D1": 1.5})
        with pytest.raises(ValueError, match=r"sq_depolarizing\[D1\] out of range"):
            state_tomography(
                bell_circuit("data-full"), bad, IDEAL_SPAM, qubits=("D1", "D2")
            )


class TestProjection:
    def test_valid_state_unchanged(self):
        target, _ = bell_target("data-full")
        rho = 0.9 * np.outer(target, target.conj()) + 0.1 * np.eye(4) / 4
        assert np.max(np.abs(project_to_state(rho) - rho)) < 1e-12

    def test_negative_eigenvalue_clipped(self):
        out = project_to_state(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))
        assert np.allclose(out, np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_output_is_physical(self):
        gen = np.random.default_rng(0)
        for _ in range(10):
            raw = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
            out = project_to_state(raw)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-12


class TestStateFidelity:
    def test_pure_overlap_examples(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        assert state_fidelity(np.outer(psi, psi.conj()), psi) == pytest.approx(1.0)
        assert state_fidelity(np.eye(4) / 4, psi) == pytest.approx(0.25)
        rho = 0.9 * np.outer(psi, psi.conj()) + 0.1 * np.eye(4) / 4
        assert state_fidelity(rho, psi) == pytest.approx(0.925)

    def test_error_cases(self):
        psi = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            state_fidelity(np.eye(4) / 4, psi)
        with pytest.raises(ValueError, match="statevector"):
            state_fidelity(np.eye(2) / 2, psi[:, None] * psi)  # a projector target


class TestTomography:
    def test_ground_state_exact(self):
        zero = np.zeros((4, 4), dtype=complex)
        zero[0, 0] = 1.0
        res = tomography_of_state(
            zero, SpamModel.ideal(("a", "b")), ("a", "b"), exact=True
        )
        assert np.max(np.abs(res.density_matrix - zero)) < 1e-10

    def test_bell_reconstruction_at_high_shots(self):
        target, pair = bell_target("data-full")
        res = state_tomography(
            bell_circuit("data-full"),
            IDEAL_NOISE,
            IDEAL_SPAM,
            pair,
            shots_per_setting=100000,
            rng=RngHandle(seed=1),
        )
        assert state_fidelity(res.density_matrix, target) >= 0.995

    def test_depolarized_bell_matches_analytic(self):
        target, pair = bell_target("data-full")
        lam = 0.1
        rho = (1 - lam) * np.outer(target, target.conj()) + lam * np.eye(4) / 4
        exact = tomography_of_state(rho, SpamModel.ideal(pair), pair, exact=True)
        assert state_fidelity(exact.density_matrix, target) == pytest.approx(
            1 - 3 * lam / 4, abs=1e-10
        )
        sampled = tomography_of_state(
            rho, SpamModel.ideal(pair), pair, 100000, RngHandle(seed=3)
        )
        assert state_fidelity(sampled.density_matrix, target) == pytest.approx(
            1 - 3 * lam / 4, abs=0.01
        )

    def test_shot_floor_enforced(self):
        zero = np.zeros((4, 4), dtype=complex)
        zero[0, 0] = 1.0
        with pytest.raises(ValueError):
            tomography_of_state(zero, SpamModel.ideal(("a", "b")), ("a", "b"), 50)

    def test_convergence_with_shots(self):
        """Mean infidelity over 20 trials improves monotonically from 1e3 to
        1e5 shots per setting."""
        target, pair = bell_target("data-full")
        rho = simulate_prep(bell_circuit("data-full"), IDEAL_NOISE, IDEAL_SPAM, pair)
        means = {}
        for shots in (1000, 10000, 100000):
            vals = []
            for trial in range(20):
                res = tomography_of_state(
                    rho, IDEAL_SPAM, pair, shots,
                    RngHandle(seed=1000 + trial).stream("shots", shots),
                )
                vals.append(1 - state_fidelity(res.density_matrix, target))
            means[shots] = np.mean(vals)
        assert means[1000] > means[10000] > means[100000]

    def test_reproducible(self):
        target, pair = bell_target("data-full")
        rho = simulate_prep(bell_circuit("data-full"), IDEAL_NOISE, IDEAL_SPAM, pair)
        a = tomography_of_state(rho, IDEAL_SPAM, pair, 1000, RngHandle(seed=5))
        b = tomography_of_state(rho, IDEAL_SPAM, pair, 1000, RngHandle(seed=5))
        assert np.array_equal(a.density_matrix, b.density_matrix)
        assert a.expectations == b.expectations

    def test_result_shape_and_export(self):
        target, pair = bell_target("data-full")
        rho = simulate_prep(bell_circuit("data-full"), IDEAL_NOISE, IDEAL_SPAM, pair)
        res = tomography_of_state(rho, IDEAL_SPAM, pair, 2000, RngHandle(seed=9))
        res.validate()
        assert len(res.expectations) == 15
        assert set("".join(sorted(k)) for k in res.expectations) <= {
            "".join(sorted(p + q)) for p in "IXYZ" for q in "IXYZ"
        }
        d = res.to_json_dict()
        assert d["qubits"] == list(pair)
        assert d["shots_per_setting"] == 2000
        assert len(d["density_matrix"]) == 4
        assert all(len(row) == 4 and len(row[0]) == 2 for row in d["density_matrix"])
        re00 = d["density_matrix"][0][0][0]
        assert re00 == pytest.approx(np.real(res.density_matrix[0, 0]))

    def test_readout_error_biases_raw_reconstruction(self):
        """Without correction, degraded readout shows up as reduced
        correlators, so the raw Bell fidelity drops but the state stays
        physical."""
        target, pair = bell_target("data-full")
        rho = simulate_prep(bell_circuit("data-full"), IDEAL_NOISE, IDEAL_SPAM, pair)
        spam = SpamModel.ideal(pair).with_readout_fidelity(0.95)
        res = tomography_of_state(rho, spam, pair, exact=True)
        res.validate()
        fid = state_fidelity(res.density_matrix, target)
        assert 0.5 < fid < 0.95


class TestPhaseOptimization:
    def test_recovers_phase_kicked_bell(self):
        target, _ = bell_target("lqubit-sqrt")
        kick = np.kron(np.diag([1, np.exp(0.7j)]), np.diag([1, np.exp(-0.3j)]))
        psi = kick @ target
        rho = np.outer(psi, psi.conj())
        raw = state_fidelity(rho, target)
        opt, phases = optimize_bell_phases(rho, target)
        assert raw < 0.95
        assert opt == pytest.approx(1.0, abs=1e-9)

    def test_never_below_raw_fidelity(self):
        gen = np.random.default_rng(11)
        target, _ = bell_target("data-full")
        for _ in range(5):
            raw_mat = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
            rho = project_to_state(raw_mat)
            raw = state_fidelity(rho, target)
            opt, _ = optimize_bell_phases(rho, target)
            assert opt >= raw - 1e-12
