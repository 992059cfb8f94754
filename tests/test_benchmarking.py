"""Tests for the randomized-benchmarking protocols and decay fits."""

import dataclasses
import gc
import math
import operator
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import lcoupler
from lcoupler.benchmarking import (
    CSV_HEADER,
    _CircuitRunner,
    DecayFitResult,
    NoiseModel,
    RbDataset,
    RbRecord,
    SpamModel,
    circuit_runner,
    eps_from_decay,
    fit_exponential,
    run_network_benchmarking,
    run_two_qubit_rb,
    spam_apply,
)
from lcoupler.channels import QuantumChannel, amplitude_damping_channel, ideal_transfer_channel
from lcoupler.cliffords import (
    L_QUBIT_PAIR,
    QUBIT_ORDER,
    TRANSFER_DIRECTIONS,
    Segment,
    compile_remote_cnot,
    half_transfer_op,
    transfer_op,
    virtual_z,
)
from lcoupler.config import load_config
from lcoupler.dynamics import extract_channels
from lcoupler.pulses import build_transfer_schedule, reverse_schedule
from lcoupler.rng import RngHandle
from lcoupler.tomography import bell_circuit, state_tomography

# one bus mode: a pair extraction takes about 0.5 s
ONE_MODE = {"cpw": {"modes_retained": 1}}


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
        gen = RngHandle(seed=1).generator()
        (out,) = spam_apply([dist], spam.confusion(("a", "b")), [gen], 100)
        assert out[0] == 1.0 and out[1:].sum() == 0.0

    def test_confusion_mixes_outcomes(self):
        spam = SpamModel({"q": 0.9}, {"q": 0.0})
        gen = RngHandle(seed=2).generator()
        (out,) = spam_apply([[1.0, 0.0]], spam.confusion(("q",)), [gen], 200000)
        assert out[0] == pytest.approx(0.9, abs=0.01)

    def test_symmetric_confusion_erases_information(self):
        """F = 0.5 maps every state to coin flips."""
        spam = SpamModel({"q": 0.5}, {"q": 0.0})
        for probs in ([1.0, 0.0], [0.0, 1.0], [0.3, 0.7]):
            gen = RngHandle(seed=8).generator()
            (out,) = spam_apply([probs], spam.confusion(("q",)), [gen], 200000)
            assert out[0] == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("outcomes", [2, 4])
    def test_counts_ignore_one_ulp_about_one_half(self, outcomes):
        # NumPy's binomial draws on min(p, 1 - p): without the 1e-12 grid the
        # two sides of 0.5 draw mirrored counts from one seed
        names = ("a", "b")[: outcomes // 2]
        confusion = SpamModel.ideal(names).confusion(names)
        above, below = np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)
        counts = []
        for p in (above, below):
            dist = np.zeros(outcomes)
            dist[0], dist[-1] = p, 1.0 - p
            counts.append(spam_apply([dist], confusion, [RngHandle(seed=5).generator()], 1001))
        assert np.array_equal(*counts)

    def test_rejects_bad_inputs(self):
        confusion = SpamModel.ideal(("q",)).confusion(("q",))
        gens = [RngHandle(seed=0).generator()]
        with pytest.raises(ValueError):
            spam_apply([[0.7, 0.7]], confusion, gens, 10)
        with pytest.raises(ValueError):
            spam_apply([[1.0, 0.0, 0.0]], confusion, gens, 10)
        with pytest.raises(ValueError):
            spam_apply([[1.0, 0.0]], confusion, gens, 0)

    def test_rejects_a_stack_with_one_bad_row(self):
        """The same refusals for a stack: every row a point mass but the
        last, which is the bad input; and one generator per row."""
        confusion = SpamModel.ideal(("q",)).confusion(("q",))
        gens = [RngHandle(seed=i).generator() for i in range(3)]

        def call(last, shots=10):
            stack = np.zeros((3, len(last)))
            stack[:, 0] = 1.0
            stack[-1] = last
            return spam_apply(stack, confusion, gens, shots)

        with pytest.raises(ValueError, match="not normalized"):
            call([0.7, 0.7])
        with pytest.raises(ValueError, match="not normalized"):
            call([math.nan, 1.0])
        with pytest.raises(ValueError, match="size does not match"):
            call([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="shots must be positive"):
            call([1.0, 0.0], shots=0)
        with pytest.raises(ValueError, match="3 distributions but 2 generators"):
            spam_apply(np.eye(2)[[0, 0, 1]], confusion, gens[:2], 10)


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

    @pytest.mark.parametrize("field", ["qubit_t1_s", "qubit_tphi_s"])
    @pytest.mark.parametrize("lifetime", [0.0, -20e-6, math.nan])
    def test_idle_lifetimes_must_be_positive(self, field, lifetime):
        lifetimes = {"qubit_t1_s": {"L1": 50e-6, "L2": 50e-6}, "qubit_tphi_s": {}}
        lifetimes[field]["L2"] = lifetime
        noise = dataclasses.replace(NoiseModel.ideal(), **lifetimes)
        message = rf"{field}\[L2\] must be positive, got {lifetime}"
        with pytest.raises(ValueError, match=message):
            noise.validate()
        # the executor validates its model before it compiles an idle
        with pytest.raises(ValueError, match=message):
            run_network_benchmarking(noise, lengths=(2,), seeds_per_length=1, shots=100)

    @pytest.mark.parametrize(
        "field", ["qubit_t1_s", "qubit_tphi_s", "sq_depolarizing", "cz_depolarizing"]
    )
    def test_idle_lifetimes_must_name_register_qubits(self, field):
        """The idle and the gate-noise tables alike: a key that misnames a
        qubit would switch its noise off unseen."""
        good, bad = "L1", "Q9"
        if field == "cz_depolarizing":
            good, bad = frozenset({"D1", "L1"}), frozenset({"D1", "Q9"})
        noise = dataclasses.replace(NoiseModel.ideal(), **{field: {good: 50e-6, bad: 1e-9}})
        message = rf"{field}\[.*Q9.*\] (names no qubit|is not a pair)"
        with pytest.raises(ValueError, match=message):
            noise.validate()
        with pytest.raises(ValueError, match=message):
            run_two_qubit_rb(noise, lengths=(1,), seeds_per_length=1, shots=100)

    @pytest.mark.parametrize(
        "pair",
        [frozenset({"D1"}), frozenset({"D1", "L1", "L2"}), ("D1", "L1"), "D1"],
        ids=["one-qubit", "three-qubit", "tuple", "str"],
    )
    def test_cz_depolarizing_keys_are_qubit_pairs(self, pair):
        noise = dataclasses.replace(NoiseModel.ideal(), cz_depolarizing={pair: 0.01})
        with pytest.raises(ValueError, match=r"cz_depolarizing\[.*\] is not a pair"):
            noise.validate()

    def test_idle_dephasing_without_a_t1(self):
        # a data qubit idles holding its state through every remote CNOT (NB
        # idles an l-qubit only in |0>, where neither T1 nor T_phi acts)
        noise = dataclasses.replace(NoiseModel.ideal(), qubit_tphi_s={"D1": 1e-9}).validate()
        assert noise.idle_decoherence
        ds = run_two_qubit_rb(noise, lengths=(1, 2), seeds_per_length=2, shots=100)
        assert all(r.survival < 1.0 for r in ds.records)
        # D1 dephases fully while it idles, and does not relax
        idle = circuit_runner(noise, QUBIT_ORDER)._idle_superop("D1", 35e-9)
        assert np.allclose(idle, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)

    def test_idle_channel_of_a_t1_alone_is_amplitude_damping(self):
        noise = dataclasses.replace(NoiseModel.ideal(), qubit_t1_s={"L1": 20e-6}).validate()
        idle = circuit_runner(noise, QUBIT_ORDER)._idle_superop("L1", 35e-9)
        damping = amplitude_damping_channel(1.0 - math.exp(-35e-9 / 20e-6))
        assert idle.tobytes() == damping.superoperator.tobytes()

    def test_infinite_idle_lifetimes_do_not_decay(self):
        noise = dataclasses.replace(
            NoiseModel.ideal(), qubit_t1_s={"L1": math.inf}, qubit_tphi_s={"L1": math.inf}
        )
        ds = run_network_benchmarking(noise.validate(), lengths=(2,), seeds_per_length=2, shots=100)
        assert all(r.survival == 1.0 for r in ds.records)

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

    def test_model_is_read_only(self, extractions):
        """On a device model after an extraction, no write reaches a table,
        an extracted channel's included: item assignment and deletion, and
        every dict method (a table is a read-only view, not a dict).  Nor
        does attribute assignment, or the caller's own dict after the
        call."""
        cfg = load_config(ONE_MODE)
        passed = {"L1->L2": QuantumChannel.identity(4)}
        noise = NoiseModel.from_config(cfg, transfer_channels=passed)
        run_network_benchmarking(noise, lengths=(2,), seeds_per_length=1, shots=100, cfg=cfg)
        # the passed direction is only looked up; the one it lacks is extracted
        assert extractions == [[("satd", "L2->L1")]]
        channel = QuantumChannel.identity(4)
        writes = [
            lambda table: operator.setitem(table, "L1->L2", channel),
            lambda table: operator.delitem(table, "L2->L1"),
            lambda table: dict.update(table, {"L1->L2": channel}),
            lambda table: dict.setdefault(table, "L1->L2", channel),
            lambda table: dict.__ior__(table, {"L1->L2": channel}),
            lambda table: dict.pop(table, "L1->L2", None),
            lambda table: dict.popitem(table),
            lambda table: dict.clear(table),
        ]
        for f in dataclasses.fields(noise):
            if f.name != "device":
                for write in writes:
                    with pytest.raises(TypeError):
                        write(getattr(noise, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            noise.qubit_t1_s = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            noise.device = None
        passed["L1->L2"] = QuantumChannel.identity(2)
        passed.clear()
        assert noise.transfer_channels["L1->L2"].dim == 4
        assert list(noise.transfer_channels) == list(TRANSFER_DIRECTIONS)
        # reads through the mapping interface
        assert noise.qubit_tphi_s.get("nowhere", math.inf) == math.inf
        assert len(list(noise.sq_depolarizing.values())) == len(noise.sq_depolarizing)
        assert len(extractions) == 1

    def test_extracted_tables_are_written_only_by_extract(self, extractions):
        """A device model's transfer tables start empty and refuse every
        write from outside: only the model's own extraction fills them."""
        noise = NoiseModel.from_config(load_config(ONE_MODE))
        channel = QuantumChannel.identity(4)
        for table in (noise.transfer_channels, noise.half_transfer_channels):
            writes = [
                lambda: operator.setitem(table, "L1->L2", channel),
                lambda: dict.update(table, {"L1->L2": channel}),
                lambda: dict.setdefault(table, "L1->L2", channel),
                lambda: dict.__ior__(table, {"L1->L2": channel}),
                lambda: dict.pop(table, "L1->L2", None),
                lambda: dict.popitem(table),
                lambda: dict.clear(table),
                lambda: operator.delitem(table, "L1->L2"),
            ]
            for write in writes:
                with pytest.raises(TypeError):
                    write()
            assert len(table) == 0
        assert extractions == []

    def test_models_compare_by_identity(self):
        noise = NoiseModel.ideal()
        twin = dataclasses.replace(noise)
        assert twin.transfer_channels == noise.transfer_channels
        assert twin != noise and twin == twin
        assert len({noise, twin}) == 2


class TestExtractionOnFirstUse:
    def test_circuits_decide_what_is_extracted(self, extractions):
        cfg = load_config(ONE_MODE)
        noise = NoiseModel.from_config(cfg)
        assert extractions == []
        with pytest.raises(KeyError):
            noise.transfer_channels["L3->L1"]
        run_network_benchmarking(noise, lengths=(2,), seeds_per_length=1, shots=100, cfg=cfg)
        # one propagation carries both directions, and the table fills in direction order
        assert extractions == [[("satd", "L1->L2"), ("satd", "L2->L1")]]
        assert list(noise.transfer_channels) == ["L1->L2", "L2->L1"]
        run_two_qubit_rb(
            noise,
            lengths=(1,),
            seeds_per_length=1,
            shots=100,
            interleave=compile_remote_cnot(cfg=cfg),
            cfg=cfg,
        )
        assert len(extractions) == 1
        assert len(noise.half_transfer_channels) == 0

    def test_a_twin_extracts_into_its_own_tables(self, extractions):
        cfg = load_config(ONE_MODE)
        noise = NoiseModel.from_config(cfg)
        twin = dataclasses.replace(noise)
        assert twin.device is noise.device
        run_network_benchmarking(twin, lengths=(2,), seeds_per_length=1, shots=100, cfg=cfg)
        assert extractions == [[("satd", "L1->L2"), ("satd", "L2->L1")]]
        assert list(twin.transfer_channels) == list(TRANSFER_DIRECTIONS)
        assert len(noise.transfer_channels) == 0

    def test_a_run_extracts_its_directions_in_one_call(self, extractions):
        cfg = load_config(ONE_MODE)
        noise = NoiseModel.from_config(cfg)
        run_two_qubit_rb(
            noise,
            lengths=(1,),
            seeds_per_length=1,
            shots=100,
            interleave=compile_remote_cnot(cfg=cfg),
            cfg=cfg,
        )
        assert extractions == [[("satd", "L1->L2"), ("satd", "L2->L1")]]

    def test_channels_equal_direct_extraction(self, extractions):
        cfg = load_config(ONE_MODE)
        noise = NoiseModel.from_config(cfg)
        tables = {"satd": noise.transfer_channels, "sqrt_satd": noise.half_transfer_channels}
        # a lookup before any circuit runs the transfer extracts nothing
        for table in tables.values():
            with pytest.raises(KeyError):
                table["L1->L2"]
        assert extractions == []
        expected = {}
        for method in tables:
            forward = build_transfer_schedule(cfg, method=method)
            schedules = (forward, reverse_schedule(forward))
            for direction, schedule in zip(TRANSFER_DIRECTIONS, schedules):
                expected[method, direction] = extract_channels(cfg, [schedule], lossy=True)[0]
        extractions.clear()
        duration = cfg.transfer.total_duration_s
        runner = _CircuitRunner(noise, L_QUBIT_PAIR)
        runner.encode(
            [
                Segment((build(d, duration),))
                for build in (transfer_op, half_transfer_op)
                for d in TRANSFER_DIRECTIONS
            ]
        )
        # one extraction for both tables: full before half, L1->L2 before L2->L1
        assert extractions == [
            [
                ("satd", "L1->L2"),
                ("satd", "L2->L1"),
                ("sqrt_satd", "L1->L2"),
                ("sqrt_satd", "L2->L1"),
            ]
        ]
        for (method, direction), channel in expected.items():
            got = tables[method][direction]
            assert got.superoperator.tobytes() == channel.superoperator.tobytes()
            assert got.leakage_in.tobytes() == channel.leakage_in.tobytes()

    @pytest.mark.parametrize("run", [run_network_benchmarking, run_two_qubit_rb])
    @pytest.mark.parametrize(
        "counts, message",
        [
            ({"shots": 0}, "shots must be positive"),
            ({"seeds_per_length": -3}, "seeds_per_length"),
            # a repeated length would run the same (length, seed) streams twice
            ({"lengths": (2, 2, 4, 8)}, r"distinct, got \[2\] more than once"),
        ],
    )
    def test_bad_counts_are_refused_before_extraction(self, extractions, run, counts, message):
        cfg = load_config(ONE_MODE)
        noise = NoiseModel.from_config(cfg)
        with pytest.raises(ValueError, match=message):
            run(noise, cfg=cfg, **{"lengths": (2,), **counts})
        assert extractions == []
        assert len(noise.transfer_channels) == 0

    def test_transfer_timed_apart_from_its_schedule_is_refused(self, extractions):
        """Channels of a 306 ns schedule with a circuit timed at the built-in
        206 ns: refused before anything is extracted."""
        cfg = load_config({**ONE_MODE, "transfer": {"total_duration_s": 306e-9}})
        noise = NoiseModel.from_config(cfg)
        circuit = bell_circuit("data-full", load_config(ONE_MODE))
        with pytest.raises(ValueError, match="from a 3.06e-07 s schedule"):
            state_tomography(circuit, noise, SpamModel.ideal(), exact=True)
        assert extractions == []
        # the same noise with circuits timed from its own device runs
        run_network_benchmarking(noise, lengths=(2,), seeds_per_length=1, shots=100)
        assert extractions == [[("satd", "L1->L2"), ("satd", "L2->L1")]]

    @pytest.mark.parametrize("run", [run_network_benchmarking, run_two_qubit_rb])
    def test_circuits_are_timed_from_the_model_device(self, extractions, run):
        """Without cfg the protocols time their circuits from the model's
        device: here its 500 ns single-qubit gates, not the built-in 35 ns."""
        cfg = load_config({"single_qubit_gate_time_s": 500e-9})
        transfers = dict.fromkeys(TRANSFER_DIRECTIONS, QuantumChannel.identity(4))
        noise = NoiseModel.from_config(cfg, transfer_channels=transfers)
        kw = dict(lengths=(2,), seeds_per_length=2, shots=100)
        omitted = run(noise, rng=RngHandle(seed=5), **kw)
        assert omitted.to_csv() == run(noise, rng=RngHandle(seed=5), cfg=cfg, **kw).to_csv()
        built_in = NoiseModel.from_config(load_config(), transfer_channels=transfers)
        assert run(built_in, rng=RngHandle(seed=5), **kw).to_csv() != omitted.to_csv()
        assert extractions == []

    @pytest.mark.parametrize("run", [run_network_benchmarking, run_two_qubit_rb])
    def test_cfg_other_than_the_model_device_is_refused(self, extractions, run):
        cfg = load_config(ONE_MODE)
        other = load_config()
        message = (
            f"cfg (config_hash {other.config_hash()}) is not the noise model's device"
            f" (config_hash {cfg.config_hash()})"
        )
        kw = dict(lengths=(2,), seeds_per_length=1, shots=100)
        with pytest.raises(ValueError, match=re.escape(message)):
            run(NoiseModel.from_config(cfg), cfg=other, **kw)
        assert extractions == []
        # an equal device loaded apart is the model's device
        transfers = dict.fromkeys(TRANSFER_DIRECTIONS, QuantumChannel.identity(4))
        noise = NoiseModel.from_config(cfg, transfer_channels=transfers)
        run(noise, cfg=load_config(ONE_MODE), **kw)
        assert extractions == []


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


class TestRunnerCache:
    """The protocol runs of one model share its executor
    (``circuit_runner``), one per register, found by the model's identity."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """(register, op key) of every op compiled during the test."""
        calls, compile_op = [], _CircuitRunner._compile

        def counting(runner, op):
            calls.append((runner.order, op.key))
            return compile_op(runner, op)

        monkeypatch.setattr(_CircuitRunner, "_compile", counting)
        return calls

    @pytest.mark.parametrize("irb_first", [False, True], ids=["tqrb-first", "irb-first"])
    def test_reference_and_interleaved_compile_each_op_once(self, compiled, irb_first):
        """TQRB and IRB at the default lengths and seeds on one model
        compile the 24 distinct four-qubit ops once between them, and each
        dataset equals the one a fresh model gives alone, in either order."""
        cfg = load_config()
        spam = SpamModel.from_config(cfg)
        cnot = compile_remote_cnot(cfg=cfg)

        def run(noise, interleave):
            return run_two_qubit_rb(
                noise, spam, rng=RngHandle(seed=3), interleave=interleave, cfg=cfg
            ).to_csv()

        def model():
            transfers = NoiseModel.with_transfer_depolarizing(0.02).transfer_channels
            return NoiseModel.from_config(cfg, transfer_channels=transfers)

        shared = model()
        order = [cnot, None] if irb_first else [None, cnot]
        together = {bool(i): run(shared, i) for i in order}
        assert len(compiled) == 24 and len(set(compiled)) == 24
        assert {register for register, _ in compiled} == {QUBIT_ORDER}
        for interleaved, csv in together.items():
            assert csv == run(model(), cnot if interleaved else None)

    def test_one_model_per_register_stays_alive(self):
        """Fresh models, dropped after their runs: the cache keeps at most
        one of them alive per register."""
        kw = dict(lengths=(2,), seeds_per_length=2, shots=10)
        nb_models, rb_models = [], []
        for leak in (0.01, 0.02, 0.03):
            noise = NoiseModel.with_transfer_leakage(leak)
            run_network_benchmarking(noise, **kw)
            nb_models.append(weakref.ref(noise))
            noise = NoiseModel.with_transfer_depolarizing(leak)
            run_two_qubit_rb(noise, **kw)
            rb_models.append(weakref.ref(noise))
        del noise
        gc.collect()
        for models in (nb_models, rb_models):
            assert sum(ref() is not None for ref in models) <= 1

    def test_an_equal_model_gets_its_own_runner(self, compiled):
        noise = NoiseModel.with_transfer_depolarizing(0.01)
        twin = dataclasses.replace(noise)
        runner = circuit_runner(noise, L_QUBIT_PAIR)
        assert circuit_runner(noise, L_QUBIT_PAIR) is runner
        kw = dict(lengths=(2,), seeds_per_length=2, shots=10, rng=RngHandle(seed=4))
        first = run_network_benchmarking(noise, **kw)
        ops = len(compiled)
        twin_runner = circuit_runner(twin, L_QUBIT_PAIR)
        assert twin_runner is not runner and twin_runner.noise is twin
        # the twin compiles its ops afresh, and draws the same records
        assert run_network_benchmarking(twin, **kw).records == first.records
        assert len(compiled) == 2 * ops > 0


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
        assert fit.at_bound == ()

    def test_fit_on_its_bound_is_flagged(self):
        """A rising curve drives the amplitude onto its lower bound of 0, and
        a drop after the first length that no amplitude up to 1.5 can follow
        drives it onto its upper bound."""
        lengths = (2, 4, 8, 16, 32, 64)
        rising = [RbRecord(n, s, 1000, 0.9 + 0.001 * i, 1.0, 1.0)
                  for i, n in enumerate(lengths) for s in range(3)]
        fit = fit_exponential(RbDataset("NB", rising))
        assert "amplitude" in fit.at_bound
        assert fit.amplitude < 1e-4
        step = [RbRecord(n, s, 1000, 0.95 if n == 2 else 0.9, 1.0, 1.0)
                for n in lengths for s in range(3)]
        fit = fit_exponential(RbDataset("NB", step))
        assert fit.at_bound == ("amplitude",)
        assert fit.amplitude > 1.5 - 1e-4

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

    def test_importing_the_cli_leaves_scipy_optimize_unloaded(self):
        """fit_exponential imports curve_fit on its first call, so the
        commands that never fit do not import scipy.optimize."""
        src = str(Path(lcoupler.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, lcoupler.cli; sys.exit('scipy.optimize' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
