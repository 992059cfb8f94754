"""Slot templates: the protocols' sequences drawn as arrays of segment ids.

- The TQRB template, row by row for all 11,520 elements, against the
  unsplit segments assembled from the layered class recipe and against
  ``two_qubit_clifford``; the NB template against the step it encodes:
  the same ops in the same order, each random single-qubit Clifford split
  into a frame slot (its leading virtual Z) and a pulse slot.
- The split protocols' pre-sampling Pauli vectors against the unsplit
  route of ``tests/oracles.py``, within 1e-12.
- One array draw ``integers(N, size=n)`` against n scalar draws on the
  protocols' generators: same values, same stream state after.
- ``run_two_qubit_rb`` (plain and interleaved) and
  ``run_network_benchmarking`` against the element-by-element reference
  draws of ``tests/oracles.py``, CSV for CSV, on an analytic transfer
  channel and on the one-mode extracted link.
- The same protocols with 2 seeds per length against 5: every record of
  the smaller batch appears, byte for byte, in the larger one.
- The draws close each sequence through ``benchmarking.invert_sequence``:
  with that name returning the identity, a noiseless run loses survival.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcoupler import benchmarking
from lcoupler.benchmarking import (
    NoiseModel,
    SpamModel,
    _CircuitRunner,
    _nb_template,
    run_network_benchmarking,
    run_two_qubit_rb,
)
from lcoupler.channels import (
    QuantumChannel,
    amplitude_damping_channel,
    ideal_transfer_channel,
)
from lcoupler.cliffords import (
    L_QUBIT_PAIR,
    QUBIT_ORDER,
    TWO_QUBIT_GROUP_ORDER,
    GateKind,
    _joined_parts,
    _single_qubit_table,
    _sq_ops,
    compile_remote_cnot,
    single_qubit_cliffords,
    split_sq_slots,
    two_qubit_clifford,
    two_qubit_template,
)
from lcoupler.config import load_config
from lcoupler.rng import RngHandle

import oracles

ONE_MODE = {"cpw": {"modes_retained": 1}}


def _op_keys(segments):
    """The op keys the segments run, in order, whatever their grouping."""
    return [key for segment in segments for key in segment.key]


def _row_segments(template, row):
    return [template.segment(int(i)) for i in row if i >= 0]


class TestTemplates:
    def test_two_qubit_rows_match_the_recipe(self):
        """Every element runs the ops of its unsplit segments, in order."""
        cfg = load_config()
        template = two_qubit_template(cfg)
        assert template.slots.shape == (TWO_QUBIT_GROUP_ORDER, 7)
        for index in range(TWO_QUBIT_GROUP_ORDER):
            row = _op_keys(_row_segments(template, template.slots[index]))
            assert row == _op_keys(oracles.two_qubit_segments(index, cfg)), index
            assert row == _op_keys(two_qubit_clifford(index, cfg).segments), index

    def test_ids_per_slot(self):
        slots = two_qubit_template().slots
        ids_per_slot = [len(set(column[column >= 0].tolist())) for column in slots.T]
        # a cycler slot runs one cycler or two joined, the class core one of
        # three; the closing layer's frame slots run one of three virtual
        # Zs, its pulse slots one of five trains
        assert ids_per_slot == [2, 2, 3, 3, 5, 3, 5]

    def test_nb_rows_match_the_step(self):
        """Every NB row runs the ops of its unsplit step, in order."""
        cfg = load_config()
        template = _nb_template(cfg)
        assert template.slots.shape == (48, 3)
        for c, carrier in enumerate(L_QUBIT_PAIR):
            for element in range(24):
                row = template.slots[24 * c + element]
                expected = oracles.nb_step(carrier, element, cfg)
                assert _op_keys(_row_segments(template, row)) == _op_keys(expected)


    def test_frame_and_pulse_parts_rebuild_every_element(self):
        descs = _single_qubit_table()[1]
        for q, qubit in enumerate(L_QUBIT_PAIR):
            for element in range(24):
                frame, pulse = split_sq_slots(24 * q + element)
                parts = [
                    _sq_ops(descs[i % 24], qubit, 35e-9) for i in (frame, pulse) if i >= 0
                ]
                assert _op_keys(parts) == _op_keys([_sq_ops(descs[element], qubit, 35e-9)])
                assert frame == -1 or parts[0][0].kind is GateKind.VIRTUAL_Z
                assert pulse == -1 or parts[-1][0].kind is GateKind.SQ_ROT


class TestJoinedSegments:
    """The two-qubit template's joined segments (the cycler pairs, the iSWAP
    and SWAP cores) against the parts they join."""

    def test_ops_and_key_are_the_parts_concatenated(self):
        template = two_qubit_template()
        used = set(template.slots[template.slots >= 0].tolist())
        assert {i for i in used if template.segment(i).parts} == set(_joined_parts())
        for segment_id, part_ids in _joined_parts().items():
            segment = template.segment(segment_id)
            parts = [template.segment(i) for i in part_ids]
            assert [part.key for part in segment.parts] == [part.key for part in parts]
            assert not any(part.parts for part in parts)
            assert tuple(segment) == tuple(op for part in parts for op in part)
            assert segment.key == tuple(key for part in parts for key in part.key)

    def test_compiled_matrix_is_the_op_by_op_product(self):
        cfg = load_config()
        noise = NoiseModel.from_config(cfg, transfer_channels=_analytic_channels())
        runner = _CircuitRunner(noise, QUBIT_ORDER)
        template = two_qubit_template(cfg)
        for segment_id in _joined_parts():
            segment = template.segment(segment_id)
            (code,) = runner.encode([segment])
            expected = np.eye(4 ** len(QUBIT_ORDER))
            for op in segment:
                expected = runner._compiled_op(op) @ expected
            got = runner._segments[code].toarray()
            assert np.max(np.abs(got - expected)) <= 1e-13, segment_id

    def test_reference_then_interleaved_compile_each_segment_once(self, monkeypatch):
        """TQRB then IRB on one model: every segment, joined or a part of
        one, is compiled once, and each joined segment from its parts."""
        compiled, code = [], _CircuitRunner._code

        def counting(runner, segment):
            new = segment.key not in runner._codes
            result = code(runner, segment)
            if new:
                compiled.append(segment.key)
            return result

        monkeypatch.setattr(_CircuitRunner, "_code", counting)
        cfg = load_config()
        noise = NoiseModel.from_config(cfg, transfer_channels=_analytic_channels())
        kw = dict(rng=RngHandle(3), cfg=cfg)
        run_two_qubit_rb(noise, **kw)
        run_two_qubit_rb(noise, interleave=compile_remote_cnot(cfg=cfg), **kw)
        assert len(compiled) == len(set(compiled))
        template = two_qubit_template(cfg)
        for segment_id in _joined_parts():
            segment = template.segment(segment_id)
            assert segment.key in compiled, segment_id
            # each part was compiled by the time the joined segment was
            before = compiled[: compiled.index(segment.key)]
            assert all(part.key in before for part in segment.parts), segment_id


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    label=st.integers(0, 2**16),
    bound=st.sampled_from([24, TWO_QUBIT_GROUP_ORDER]),
    n=st.integers(1, 256),
)
def test_array_draw_equals_scalar_draws(seed, label, bound, n):
    handle = RngHandle(seed).stream("tqrb", label)
    array_gen, scalar_gen = handle.generator(), handle.generator()
    drawn = array_gen.integers(bound, size=n)
    assert drawn.tolist() == [int(scalar_gen.integers(bound)) for _ in range(n)]
    assert array_gen.random() == scalar_gen.random()


def _analytic_channels():
    """The ideal signed swap, then amplitude damping on the receiver."""
    swap, damp = ideal_transfer_channel(), amplitude_damping_channel(0.03)
    ident = QuantumChannel.identity(2)
    return {
        "L1->L2": ident.tensor(damp).compose(swap),
        "L2->L1": damp.tensor(ident).compose(swap),
    }


@pytest.fixture(scope="module", params=["analytic", "one-mode"])
def device(request):
    """(noise, spam, cfg); the one-mode link's channels are extracted once,
    the first time a circuit runs each direction."""
    if request.param == "analytic":
        cfg = load_config()
        noise = NoiseModel.from_config(cfg, transfer_channels=_analytic_channels())
    else:
        cfg = load_config(ONE_MODE)
        noise = NoiseModel.from_config(cfg)
    return noise, SpamModel.from_config(cfg), cfg


@pytest.mark.parametrize("seed", [0, 7, 12])
@pytest.mark.parametrize("interleaved", [False, True], ids=["tqrb", "irb"])
def test_two_qubit_rb_matches_element_by_element_draws(device, seed, interleaved):
    noise, spam, cfg = device
    kw = dict(lengths=(1, 2, 3, 9), seeds_per_length=3, shots=200, rng=RngHandle(seed), cfg=cfg)
    interleave = compile_remote_cnot(cfg=cfg) if interleaved else None
    got = run_two_qubit_rb(noise, spam, interleave=interleave, **kw)
    want = oracles.two_qubit_rb(noise, spam, interleave=interleave, **kw)
    assert got.protocol == want.protocol
    assert got.to_csv() == want.to_csv()


@pytest.mark.parametrize("seed", [0, 7, 12])
def test_network_benchmarking_matches_step_by_step_draws(device, seed):
    noise, spam, cfg = device
    kw = dict(lengths=(2, 4, 10), seeds_per_length=3, shots=200, rng=RngHandle(seed), cfg=cfg)
    got = run_network_benchmarking(noise, spam, **kw)
    assert got.to_csv() == oracles.network_benchmarking(noise, spam, **kw).to_csv()


def _presampling_states(run, *args, **kw) -> np.ndarray:
    """The Pauli vectors of the one ``_CircuitRunner.evolve`` call a
    protocol run makes, one column per sequence, before any shot is drawn."""
    states, evolve = [], _CircuitRunner.evolve

    def spy(runner, rho, circuits):
        states.append(evolve(runner, rho, circuits))
        return states[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_CircuitRunner, "evolve", spy)
        run(*args, **kw)
    (batch,) = states
    return batch


@settings(max_examples=15, deadline=None)
@given(
    protocol=st.sampled_from(["tqrb", "irb", "nb"]),
    seed=st.integers(0, 2**32),
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
    seeds=st.integers(1, 3),
)
def test_split_slots_keep_the_unsplit_pauli_vectors(protocol, seed, lengths, seeds):
    """TQRB, IRB and NB batches, whose single-qubit Cliffords run as a frame
    and a pulse segment, against the oracle that runs each as one segment."""
    cfg = load_config()
    noise = NoiseModel.from_config(cfg, transfer_channels=_analytic_channels())
    spam = SpamModel.from_config(cfg)
    lengths = tuple(2 * n for n in lengths) if protocol == "nb" else tuple(lengths)
    kw = dict(lengths=lengths, seeds_per_length=seeds, shots=10, rng=RngHandle(seed), cfg=cfg)
    got = _presampling_states(_run, protocol, noise, spam, **kw)
    if protocol == "nb":
        want = _presampling_states(oracles.network_benchmarking, noise, spam, **kw)
    else:
        interleave = compile_remote_cnot(cfg=cfg) if protocol == "irb" else None
        want = _presampling_states(oracles.two_qubit_rb, noise, spam, interleave=interleave, **kw)
    assert got.shape == want.shape == (4 ** (2 if protocol == "nb" else 4), seeds * len(lengths))
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("run", [run_two_qubit_rb, run_network_benchmarking])
@pytest.mark.parametrize("lengths, seeds", [((2, 4), 0), ((), 3)])
def test_a_run_that_draws_no_sequence_is_empty(run, lengths, seeds):
    data = run(NoiseModel.ideal(), lengths=lengths, seeds_per_length=seeds)
    assert data.records == []


def _run(protocol, noise, spam, **kw):
    """One protocol run: "tqrb", "irb" (the remote CNOT interleaved) or "nb"."""
    if protocol == "nb":
        return run_network_benchmarking(noise, spam, **kw)
    interleave = compile_remote_cnot(cfg=kw.get("cfg")) if protocol == "irb" else None
    return run_two_qubit_rb(noise, spam, interleave=interleave, **kw)


@pytest.mark.parametrize("protocol", ["tqrb", "irb", "nb"])
def test_records_do_not_depend_on_the_seeds_per_length(protocol):
    cfg = load_config()
    noise = NoiseModel.from_config(cfg, transfer_channels=_analytic_channels())
    lengths = (2, 4, 6) if protocol == "nb" else (1, 2, 5)

    def lines(seeds):
        data = _run(protocol, noise, SpamModel.from_config(cfg), lengths=lengths,
                    seeds_per_length=seeds, shots=200, rng=RngHandle(4), cfg=cfg)
        return data.to_csv().splitlines()[1:]

    few, many = lines(2), lines(5)
    assert len(few) == 2 * len(lengths) and len(many) == 5 * len(lengths)
    assert set(few) <= set(many)


@pytest.mark.parametrize("protocol", ["tqrb", "irb", "nb"])
def test_an_identity_inverse_loses_noiseless_survival(monkeypatch, protocol):
    """The dropped-inverse case of ``benchmarks/selftest.py`` replaces
    ``benchmarking.invert_sequence`` by a function that returns one identity
    element, whatever it is given; the draws must still close their
    sequences through that name."""
    cfg = load_config()
    lengths = (2, 4, 8) if protocol == "nb" else (1, 2, 4)
    kw = dict(lengths=lengths, seeds_per_length=2, rng=RngHandle(0), cfg=cfg)
    closed = _run(protocol, NoiseModel.ideal(), SpamModel.ideal(), **kw).records
    assert all(r.survival == 1.0 for r in closed)
    identity = single_qubit_cliffords()[0] if protocol == "nb" else two_qubit_clifford(0, cfg)
    monkeypatch.setattr(benchmarking, "invert_sequence", lambda seq, cfg=None: identity)
    opened = _run(protocol, NoiseModel.ideal(), SpamModel.ideal(), **kw).records
    assert any(r.survival < 1.0 for r in opened)
