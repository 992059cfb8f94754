"""Tests for the randomized-benchmarking protocols and decay fits."""

import numpy as np
import pytest

from lcoupler.benchmarking import (
    CSV_HEADER,
    DecayFitResult,
    NoiseModel,
    RbDataset,
    RbRecord,
    SpamModel,
    eps_from_decay,
    fit_exponential,
    run_network_benchmarking,
    run_two_qubit_rb,
    spam_apply,
)
from lcoupler.channels import QuantumChannel, ideal_transfer_channel
from lcoupler.cliffords import (
    L_QUBIT_PAIR,
    QUBIT_ORDER,
    compile_remote_cnot,
    virtual_z,
)
from lcoupler.config import load_config
from lcoupler.rng import RngHandle


def synthetic_dataset(a, p, b, lengths, seeds, shots, gen, protocol="NB"):
    records = []
    for n in lengths:
        mean = a * p**n + b
        for s in range(seeds):
            k = gen.binomial(shots, mean)
            records.append(RbRecord(n, s, shots, k / shots, 1.0, 1.0))
    return RbDataset(protocol, records)


class TestSpamModel:
    def test_ideal_is_transparent(self):
        spam = SpamModel.ideal(("L1", "L2"))
        assert np.allclose(spam.confusion_matrix("L1"), np.eye(2))
        assert np.allclose(spam.initial_qubit_state("L2"), np.diag([1.0, 0.0]))

    def test_from_config_uses_calibration(self):
        spam = SpamModel.from_config(load_config())
        assert spam.readout_fidelity["L1"] == pytest.approx(0.959)
        assert spam.readout_fidelity["D1"] == pytest.approx(0.967)
        assert spam.thermal_population["L1"] == pytest.approx(0.019)

    def test_with_readout_fidelity_replaces_every_qubit(self):
        spam = SpamModel.from_config(load_config()).with_readout_fidelity(0.93)
        assert set(spam.readout_fidelity.values()) == {0.93}
        # thermal populations untouched
        assert spam.thermal_population["L1"] == pytest.approx(0.019)

    def test_confusion_columns_are_distributions(self):
        m = SpamModel({"q": 0.9}, {"q": 0.0}).confusion_matrix("q")
        assert np.allclose(m.sum(axis=0), [1.0, 1.0])

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError):
            SpamModel({"q": 0.4}, {"q": 0.0})
        with pytest.raises(ValueError):
            SpamModel({"q": 0.99}, {"q": 0.6})


class TestSpamApply:
    def test_ideal_spam_deterministic_distribution(self):
        spam = SpamModel.ideal(("a", "b"))
        dist = np.array([1.0, 0.0, 0.0, 0.0])
        out = spam_apply(dist, spam, ("a", "b"), RngHandle(seed=1), 100)
        assert out[0] == 1.0 and out[1:].sum() == 0.0

    def test_confusion_mixes_outcomes(self):
        spam = SpamModel({"q": 0.9}, {"q": 0.0})
        out = spam_apply(
            np.array([1.0, 0.0]), spam, ("q",), RngHandle(seed=2), 200000
        )
        assert out[0] == pytest.approx(0.9, abs=0.01)

    def test_symmetric_confusion_erases_information(self):
        """F = 0.5 maps every state to coin flips."""
        spam = SpamModel({"q": 0.5}, {"q": 0.0})
        for probs in ([1.0, 0.0], [0.0, 1.0], [0.3, 0.7]):
            out = spam_apply(
                np.array(probs), spam, ("q",), RngHandle(seed=8), 200000
            )
            assert out[0] == pytest.approx(0.5, abs=0.01)

    def test_rejects_bad_inputs(self):
        spam = SpamModel.ideal(("q",))
        with pytest.raises(ValueError):
            spam_apply(np.array([0.7, 0.7]), spam, ("q",), RngHandle(seed=0), 10)
        with pytest.raises(ValueError):
            spam_apply(np.array([1.0, 0.0, 0.0]), spam, ("q",), RngHandle(seed=0), 10)
        with pytest.raises(ValueError):
            spam_apply(np.array([1.0, 0.0]), spam, ("q",), RngHandle(seed=0), 0)


class TestNoiseModel:
    def test_ideal_channels_are_cptp_swaps(self):
        noise = NoiseModel.ideal().validate()
        ch = noise.transfer_channels["L1->L2"]
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0  # |10>: L1 excited
        out = ch.apply(rho)
        assert out[1, 1] == pytest.approx(1.0)

    def test_depolarizing_injection_strength(self):
        """Swap then depolarize the receiver: |10> ends with the moved
        excitation damped by lam/2 = infidelity."""
        r = 0.02
        ch = NoiseModel.with_transfer_depolarizing(r).transfer_channels["L1->L2"]
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0
        out = ch.apply(rho)
        lam = 2 * r
        assert out[1, 1] == pytest.approx(1.0 - lam / 2, abs=1e-12)
        assert out[0, 0] == pytest.approx(lam / 2, abs=1e-12)

    def test_leakage_injection_pumps_the_emitter_slot(self):
        leak = 0.03
        ch = NoiseModel.with_transfer_leakage(leak).transfer_channels["L1->L2"]
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0
        out = ch.apply(rho)
        # carrier arrives intact on L2, junk excitation appears on L1
        assert out[1, 1] == pytest.approx(1.0 - leak, abs=1e-12)
        assert out[3, 3] == pytest.approx(leak, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NoiseModel.with_transfer_depolarizing(0.7)
        with pytest.raises(ValueError):
            NoiseModel.with_transfer_leakage(-0.1)
        bad = NoiseModel(transfer_channels={"L3->L1": QuantumChannel.identity(4)})
        with pytest.raises(ValueError):
            bad.validate()
        wrong_dim = NoiseModel(transfer_channels={"L1->L2": QuantumChannel.identity(2)})
        with pytest.raises(ValueError):
            wrong_dim.validate()

    def test_from_config_noise_strengths(self):
        cfg = load_config()
        ident = QuantumChannel.identity(4)
        noise = NoiseModel.from_config(
            cfg, transfer_channels={d: ident for d in ("L1->L2", "L2->L1")}
        )
        assert noise.sq_depolarizing["L1"] == pytest.approx(2 * 0.00079)
        assert noise.sq_depolarizing["D1"] == pytest.approx(2 * 0.00045)
        assert noise.cz_depolarizing[frozenset({"D1", "L1"})] == pytest.approx(
            0.0093 * 4 / 3
        )
        assert noise.idle_decoherence
        # 1/T2 = 1/(2 T1) + 1/Tphi with T1 = 113 us, T2 = 18 us
        expected_tphi = 1.0 / (1.0 / 18e-6 - 0.5 / 113e-6)
        assert noise.qubit_tphi_s["L1"] == pytest.approx(expected_tphi)


class TestNetworkBenchmarking:
    def test_noiseless_survival_is_unity(self):
        ds = run_network_benchmarking(
            NoiseModel.ideal(),
            lengths=(2, 4, 8),
            seeds_per_length=5,
            shots=100,
            rng=RngHandle(seed=3),
        )
        assert all(r.survival == 1.0 for r in ds.records)
        assert all(r.spectator_l2 == 1.0 for r in ds.records)
        fit = fit_exponential(ds)
        assert fit.decay == 1.0 and fit.rate == 0.0

    def test_odd_or_short_lengths_rejected(self):
        for bad in ((3,), (0,), (2, 5)):
            with pytest.raises(ValueError):
                run_network_benchmarking(NoiseModel.ideal(), lengths=bad)

    def test_reproducible_record_for_record(self):
        kw = dict(lengths=(2, 8), seeds_per_length=3, shots=150)
        a = run_network_benchmarking(
            NoiseModel.with_transfer_depolarizing(0.02), rng=RngHandle(seed=9), **kw
        )
        b = run_network_benchmarking(
            NoiseModel.with_transfer_depolarizing(0.02), rng=RngHandle(seed=9), **kw
        )
        c = run_network_benchmarking(
            NoiseModel.with_transfer_depolarizing(0.02), rng=RngHandle(seed=10), **kw
        )
        assert a.records == b.records
        assert a.records != c.records

    def test_injected_depolarizing_recovered(self):
        r = 0.012
        ds = run_network_benchmarking(
            NoiseModel.with_transfer_depolarizing(r), rng=RngHandle(seed=101)
        )
        fit = fit_exponential(ds)
        assert abs(eps_from_decay(fit) - r) / r < 0.10
        # the channel is exactly depolarizing, so p should sit on 1 - 2r
        assert fit.decay == pytest.approx(1.0 - 2.0 * r, rel=0.01)

    def test_injected_leakage_recovered(self):
        leak = 0.01
        ds = run_network_benchmarking(
            NoiseModel.with_transfer_leakage(leak), rng=RngHandle(seed=77)
        )
        fit = fit_exponential(ds, channel="spectator_l2")
        assert fit.channel == "spectator_l2"
        assert abs(fit.rate - leak) / leak < 0.15
        # the carrier itself is untouched by the pump
        assert fit_exponential(ds).decay > 0.999

    def test_configured_single_qubit_gate_time_reaches_nb(self):
        """Longer pulses give the idle l-qubit longer to relax and dephase."""
        channels = {d: ideal_transfer_channel() for d in ("L1->L2", "L2->L1")}
        kw = dict(lengths=(2, 8), seeds_per_length=3, shots=1000)
        csv = {}
        for gate_time in (35e-9, 500e-9):
            cfg = load_config({"single_qubit_gate_time_s": gate_time})
            noise = NoiseModel.from_config(cfg, transfer_channels=channels)
            csv[gate_time] = run_network_benchmarking(
                noise, SpamModel.from_config(cfg), rng=RngHandle(seed=4), cfg=cfg, **kw
            ).to_csv()
        assert csv[35e-9] != csv[500e-9]

    def test_readout_error_moves_amplitude_not_decay(self):
        noise = NoiseModel.with_transfer_depolarizing(0.012)
        kw = dict(lengths=(2, 4, 8, 16, 32, 64), seeds_per_length=15, shots=1000)
        ref = run_network_benchmarking(
            noise, SpamModel.ideal(L_QUBIT_PAIR), rng=RngHandle(seed=5), **kw
        )
        degraded = run_network_benchmarking(
            noise,
            SpamModel.ideal(L_QUBIT_PAIR).with_readout_fidelity(0.90),
            rng=RngHandle(seed=5),
            **kw,
        )
        f_ref, f_deg = fit_exponential(ref), fit_exponential(degraded)
        sigma = max(f_ref.decay_err, f_deg.decay_err)
        assert abs(f_ref.decay - f_deg.decay) < 2 * sigma
        s2_ref = np.mean([r.survival for r in ref.records if r.length == 2])
        s2_deg = np.mean([r.survival for r in degraded.records if r.length == 2])
        assert abs(s2_ref - s2_deg) > 0.05


class TestTwoQubitRb:
    def test_noiseless_survival_is_unity(self):
        ds = run_two_qubit_rb(
            NoiseModel.ideal(),
            lengths=(1, 2, 4),
            seeds_per_length=3,
            shots=100,
            rng=RngHandle(seed=13),
        )
        assert ds.protocol == "TQRB"
        assert all(r.survival == 1.0 for r in ds.records)

    def test_noiseless_interleaved_remote_cnot_closes(self):
        ds = run_two_qubit_rb(
            NoiseModel.ideal(),
            lengths=(1, 2, 4),
            seeds_per_length=2,
            shots=100,
            rng=RngHandle(seed=17),
            interleave=compile_remote_cnot(),
        )
        assert ds.protocol == "INTERLEAVED"
        assert all(r.survival == 1.0 for r in ds.records)

    def test_interleaving_accelerates_decay(self):
        noise = NoiseModel.with_transfer_depolarizing(0.02)
        kw = dict(lengths=(1, 2, 4, 8, 16), seeds_per_length=8, shots=400)
        ref = run_two_qubit_rb(noise, rng=RngHandle(seed=9), **kw)
        inter = run_two_qubit_rb(
            noise, rng=RngHandle(seed=9), interleave=compile_remote_cnot(), **kw
        )
        f_ref, f_int = fit_exponential(ref), fit_exponential(inter)
        assert f_int.decay < f_ref.decay
        gate_epg = eps_from_decay(f_int, f_ref)
        assert gate_epg == pytest.approx(
            0.75 * (1 - f_int.decay / f_ref.decay), abs=1e-15
        )
        assert gate_epg > 0.0

    def test_reproducibility(self):
        kw = dict(lengths=(1, 4), seeds_per_length=2, shots=120)
        noise = NoiseModel.with_transfer_depolarizing(0.01)
        a = run_two_qubit_rb(noise, rng=RngHandle(seed=4), **kw)
        b = run_two_qubit_rb(noise, rng=RngHandle(seed=4), **kw)
        assert a.records == b.records

    def test_interleaving_identity_matches_reference_decay(self):
        noise = NoiseModel.with_transfer_depolarizing(0.015)
        kw = dict(lengths=(1, 2, 4, 8, 16), seeds_per_length=8, shots=400)
        ref = run_two_qubit_rb(noise, rng=RngHandle(seed=31), **kw)
        ident = run_two_qubit_rb(
            noise,
            rng=RngHandle(seed=31),
            interleave=(virtual_z("D1", 0.0),),
            **kw,
        )
        assert ident.protocol == "INTERLEAVED"
        f_ref, f_int = fit_exponential(ref), fit_exponential(ident)
        sigma = np.hypot(f_ref.decay_err, f_int.decay_err)
        assert abs(f_ref.decay - f_int.decay) < 2 * sigma

    def test_length_validation(self):
        with pytest.raises(ValueError):
            run_two_qubit_rb(NoiseModel.ideal(), lengths=(0,))


class TestDataset:
    def test_csv_header_and_shape(self):
        ds = RbDataset(
            "NB",
            [
                RbRecord(2, 0, 100, 0.98, 0.98, 0.99),
                RbRecord(4, 0, 100, 0.953333333, 0.95, 0.97),
            ],
        )
        text = ds.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == "2,0,100,0.980000000,0.980000000,0.990000000"
        assert len(lines) == 3 and text.endswith("\n")

    def test_series_statistics(self):
        ds = RbDataset(
            "NB",
            [
                RbRecord(2, 0, 10, 0.9, 1.0, 1.0),
                RbRecord(2, 1, 10, 0.8, 1.0, 1.0),
                RbRecord(8, 0, 10, 0.5, 1.0, 1.0),
            ],
        )
        lengths, means, sems = ds.series()
        assert list(lengths) == [2, 8]
        assert means[0] == pytest.approx(0.85)
        assert sems[0] == pytest.approx(np.std([0.9, 0.8], ddof=1) / np.sqrt(2))
        assert sems[1] == 0.0

    def test_unknown_channel_rejected(self):
        ds = RbDataset("NB", [RbRecord(2, 0, 10, 1.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            ds.series("population")


class TestFits:
    def test_exact_means_recover_decay_precisely(self):
        """With shot noise removed the fit reproduces the generator."""
        lengths = (2, 4, 8, 16, 32, 64)
        records = [
            RbRecord(n, s, 1000, 0.5 * 0.98**n + 0.5, 1.0, 1.0)
            for n in lengths
            for s in range(3)
        ]
        fit = fit_exponential(RbDataset("NB", records))
        assert fit.decay == pytest.approx(0.98, abs=1e-6)
        assert fit.amplitude == pytest.approx(0.5, abs=1e-6)
        assert fit.offset == pytest.approx(0.5, abs=1e-6)

    def test_recovers_known_decay(self):
        gen = np.random.default_rng(42)
        ds = synthetic_dataset(
            0.5, 0.97, 0.5, (2, 4, 8, 16, 32, 64, 128), 30, 1000, gen
        )
        fit = fit_exponential(ds)
        assert fit.decay == pytest.approx(0.97, abs=0.002)
        assert fit.amplitude == pytest.approx(0.5, abs=0.02)
        assert fit.offset == pytest.approx(0.5, abs=0.02)

    def test_error_bars_are_calibrated(self):
        """Fitted p lands within 3 sigma of truth in at least 95 of 100
        synthetic experiments."""
        gen = np.random.default_rng(7)
        hits = 0
        for _ in range(100):
            ds = synthetic_dataset(
                0.5, 0.97, 0.5, (2, 4, 8, 16, 32, 64, 128), 30, 1000, gen
            )
            fit = fit_exponential(ds)
            if abs(fit.decay - 0.97) < 3 * fit.decay_err:
                hits += 1
        assert hits >= 95

    def test_rate_conventions(self):
        gen = np.random.default_rng(1)
        nb = synthetic_dataset(0.5, 0.976, 0.5, (2, 4, 8, 16), 20, 4000, gen)
        fit = fit_exponential(nb)
        assert fit.rate == pytest.approx(0.5 * (1 - fit.decay), abs=1e-15)
        assert "EPS" in fit.rate_convention
        tq = synthetic_dataset(
            0.7, 0.9, 0.25, (1, 2, 4, 8, 16), 20, 4000, gen, protocol="TQRB"
        )
        fit_tq = fit_exponential(tq)
        assert fit_tq.rate == pytest.approx(0.75 * (1 - fit_tq.decay), abs=1e-15)

    def test_decay_to_error_rate_examples(self):
        base = dict(
            amplitude=0.5,
            offset=0.5,
            amplitude_err=0.0,
            decay_err=0.0,
            offset_err=0.0,
            rate_convention="",
            residual_rms=0.0,
            channel="survival",
        )
        nb = DecayFitResult(decay=0.976, rate=0.012, protocol="NB", **base)
        assert eps_from_decay(nb) == pytest.approx(0.012)
        ref = DecayFitResult(decay=0.9, rate=0.075, protocol="TQRB", **base)
        inter = DecayFitResult(
            decay=0.9 * 0.92, rate=0.0, protocol="INTERLEAVED", **base
        )
        assert eps_from_decay(inter, ref) == pytest.approx(0.06)
        with pytest.raises(ValueError):
            eps_from_decay(inter)

    def test_constant_data_short_circuits(self):
        ds = RbDataset(
            "NB", [RbRecord(n, s, 10, 1.0, 1.0, 1.0) for n in (2, 4, 8) for s in (0, 1)]
        )
        fit = fit_exponential(ds)
        assert fit.decay == 1.0 and fit.rate == 0.0 and fit.offset == 1.0

    def test_needs_three_lengths(self):
        ds = RbDataset(
            "NB",
            [RbRecord(2, 0, 10, 0.9, 1.0, 1.0), RbRecord(4, 0, 10, 0.8, 1.0, 1.0)],
        )
        with pytest.raises(ValueError):
            fit_exponential(ds)
