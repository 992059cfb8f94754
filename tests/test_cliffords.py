"""Clifford group machinery and remote-CNOT compilation checks."""

from functools import reduce

import numpy as np
import pytest

from lcoupler import cliffords
from lcoupler.cliffords import (
    QUBIT_ORDER,
    TWO_QUBIT_CLASS_SIZES,
    TWO_QUBIT_GROUP_ORDER,
    CliffordElement,
    GateKind,
    GateOp,
    circuit_unitary,
    compile_remote_cnot,
    cz_op,
    data_block_unitary,
    decode_two_qubit_index,
    embed_unitary,
    invert_sequence,
    op_matrix,
    single_qubit_cliffords,
    sq_rot,
    transfer_op,
    transfer_step,
    two_qubit_clifford,
    two_qubit_matrix,
    _ISWAP_DRESSING,
    _CYCLER_DESC,
    _phase_key,
    _single_qubit_table,
    _sq_ops,
    _tableau_codes,
    _two_qubit_lookup,
    _two_qubit_matrices,
)
from lcoupler.config import load_config
from lcoupler.tomography import bell_circuit

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CNOT_REV = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def phase_distance(candidate, target):
    lam = np.vdot(target.flatten(), candidate.flatten())
    lam /= abs(lam)
    return np.max(np.abs(candidate - lam * target))


def decomposition_product(elem, dim=2):
    u = np.eye(dim, dtype=complex)
    for op in elem.decomposition:
        u = op_matrix(op) @ u
    return u


_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


_PAULI_STRINGS = np.stack([np.kron(_PAULI[p], _PAULI[q]) for p in "ixyz" for q in "ixyz"])
_GENERATORS = [np.kron(_PAULI[p], _PAULI[q]) for p, q in ("xi", "zi", "ix", "iz")]


def tableau_key(u):
    """Per-element oracle: (Pauli string index, sign) of the conjugation image
    of each generator X1, Z1, X2, Z2, one element at a time."""
    key = []
    for g in _GENERATORS:
        image = u @ g @ u.conj().T
        coeffs = np.einsum("kij,ji->k", _PAULI_STRINGS, image) / 4.0
        which = int(np.argmax(np.abs(coeffs)))
        c = coeffs[which]
        assert abs(abs(c) - 1.0) < 1e-8 and abs(c.imag) < 1e-8
        key.append((which, 1 if c.real > 0 else -1))
    return tuple(key)


def oracle_two_qubit_ops(index, cfg):
    """The element's device ops assembled op by op from the class recipe."""
    class_id, u1, u2, s1, s2 = decode_two_qubit_index(index)
    descs = _single_qubit_table()[1]
    t = cfg.single_qubit_gate_time_s

    def sq(desc, qubit):
        return list(_sq_ops(desc, qubit, t))

    fwd = compile_remote_cnot("D1", "D2", cfg)
    rev = compile_remote_cnot("D2", "D1", cfg)
    ops = []
    if class_id in (1, 2):
        ops += sq(_CYCLER_DESC, "D1") * s1 + sq(_CYCLER_DESC, "D2") * s2
    if class_id == 1:
        ops += fwd
    elif class_id == 2:
        dress = _ISWAP_DRESSING
        ops += sq(dress["c"], "D1") + sq(dress["d"], "D2") + fwd + rev
        ops += sq(dress["a"], "D1") + sq(dress["b"], "D2")
    elif class_id == 3:
        ops += fwd + rev + fwd
    return tuple(ops + sq(descs[u1], "D1") + sq(descs[u2], "D2"))


class TestGateOp:
    def test_cz_requires_coupler_pair(self):
        with pytest.raises(ValueError, match="coupler pair"):
            cz_op("D1", "D2", 100e-9)

    def test_cz_allowed_pairs(self):
        cz_op("D1", "L1", 135e-9)
        cz_op("L2", "D2", 100e-9)
        cz_op("D2", "L2", 100e-9)  # order free

    def test_transfer_targets_and_direction(self):
        transfer_op("L1->L2", 206e-9)
        with pytest.raises(ValueError, match="direction"):
            GateOp(GateKind.TRANSFER, ("L1", "L2"), {"direction": "L1->D1"}, 206e-9)
        with pytest.raises(ValueError, match="l-qubit"):
            GateOp(GateKind.TRANSFER, ("L1", "D2"), {"direction": "L1->L2"}, 206e-9)

    def test_rotation_validation(self):
        with pytest.raises(ValueError, match="axis"):
            sq_rot("D1", "q", np.pi, 35e-9)
        with pytest.raises(ValueError, match="negative"):
            sq_rot("D1", "x", np.pi, -1e-9)

    def test_embed_matches_kron(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(embed_unitary(m, [1], 3), np.kron(np.kron(np.eye(2), m), np.eye(2)))
        cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        assert np.allclose(embed_unitary(cz, [0, 1], 2), cz)
        # non-adjacent embedding: CZ on qubits 0, 2 of 3
        want = np.diag([1, 1, 1, 1, 1, -1, 1, -1]).astype(complex)
        assert np.allclose(embed_unitary(cz, [0, 2], 3), want)


class TestSingleQubitGroup:
    def test_twenty_four_elements(self):
        els = single_qubit_cliffords()
        assert len(els) == 24
        keys = {_phase_key(e.unitary) for e in els}
        assert len(keys) == 24

    def test_identity_first_with_empty_decomposition(self):
        els = single_qubit_cliffords()
        assert np.allclose(els[0].unitary, np.eye(2))
        assert els[0].decomposition == ()

    def test_at_most_two_physical_pulses(self):
        for e in single_qubit_cliffords():
            pulses = [op for op in e.decomposition if op.kind is GateKind.SQ_ROT]
            assert len(pulses) <= 2
            for op in pulses:
                assert op.params["axis"] == "x"
                assert op.params["angle_rad"] == pytest.approx(np.pi / 2)

    def test_decompositions_reproduce_matrices(self):
        for e in single_qubit_cliffords():
            assert phase_distance(decomposition_product(e), e.unitary) < 1e-10

    def test_closure_under_composition(self):
        els = single_qubit_cliffords()
        keys = {_phase_key(e.unitary) for e in els}
        rng = np.random.default_rng(5)
        for _ in range(500):
            a, b = rng.integers(24, size=2)
            assert _phase_key(els[a].unitary @ els[b].unitary) in keys

    def test_segments_concatenate_to_decomposition(self):
        descs = _single_qubit_table()[1]
        for qubit, gate_time in (("q0", 35e-9), ("L2", 500e-9)):
            for e in single_qubit_cliffords(qubit, gate_time):
                # one segment per element, none for the identity
                assert len(e.segments) == (e.index != 0)
                flat = tuple(op for segment in e.segments for op in segment)
                assert flat == e.decomposition == _sq_ops(descs[e.index], qubit, gate_time)


class TestTwoQubitGroup:
    def test_class_sizes_sum(self):
        assert TWO_QUBIT_CLASS_SIZES == (576, 5184, 5184, 576)
        assert TWO_QUBIT_GROUP_ORDER == 11520

    def test_exhaustive_distinctness(self):
        # tableau codes are a perfect canonical form; all 11520 must be distinct
        assert len(np.unique(_two_qubit_lookup().codes)) == 11520

    def test_batched_codes_match_per_element_tableau(self):
        mats = _two_qubit_matrices(np.arange(TWO_QUBIT_GROUP_ORDER))
        for index, code in enumerate(_tableau_codes(mats)):
            key = tableau_key(mats[index])
            assert code == sum(
                (2 * which + (sign < 0)) * 32**k for k, (which, sign) in enumerate(key)
            ), index

    def test_every_inverse_is_found(self):
        mats = _two_qubit_matrices(np.arange(TWO_QUBIT_GROUP_ORDER))
        codes, indices = _two_qubit_lookup()
        inverse_codes = _tableau_codes(mats.conj().swapaxes(-1, -2))
        pos = np.searchsorted(codes, inverse_codes)
        assert np.array_equal(codes[pos], inverse_codes)
        products = mats[indices[pos]] @ mats
        # each product is the identity up to a global phase
        phases = products[:, 0, 0]
        assert np.allclose(np.abs(phases), 1.0, atol=1e-12)
        assert np.max(np.abs(products - phases[:, None, None] * np.eye(4))) < 1e-12

    def test_segments_concatenate_to_the_recipe(self):
        cfg = load_config()
        for index in range(TWO_QUBIT_GROUP_ORDER):
            elem = two_qubit_clifford(index, cfg)
            assert all(elem.segments), index
            flat = tuple(op for segment in elem.segments for op in segment)
            assert flat == elem.decomposition == oracle_two_qubit_ops(index, cfg), index

    def test_index_decode_boundaries(self):
        assert decode_two_qubit_index(0) == (0, 0, 0, 0, 0)
        assert decode_two_qubit_index(575) == (0, 23, 23, 0, 0)
        assert decode_two_qubit_index(576) == (1, 0, 0, 0, 0)
        assert decode_two_qubit_index(576 + 5184) == (2, 0, 0, 0, 0)
        assert decode_two_qubit_index(11519) == (3, 23, 23, 0, 0)
        with pytest.raises(ValueError, match="index"):
            decode_two_qubit_index(11520)

    def test_identity_element(self):
        assert np.allclose(two_qubit_matrix(0), np.eye(4))

    def test_class_representatives(self):
        iswap = np.array(
            [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.allclose(two_qubit_matrix(576), CNOT)
        assert np.allclose(two_qubit_matrix(576 + 5184), iswap)
        assert np.allclose(two_qubit_matrix(576 + 2 * 5184), swap)

    def test_cnot_counts_by_class(self):
        cfg = load_config()
        for index, count in [(0, 0), (576, 1), (576 + 5184, 2), (576 + 2 * 5184, 3)]:
            assert two_qubit_clifford(index, cfg).cnot_count == count

    def test_each_class_compiles_only_the_cnots_it_uses(self, monkeypatch):
        cfg = load_config()
        original = cliffords.compile_remote_cnot
        calls = []

        def counting(control="D1", target="D2", cfg=None):
            calls.append((control, target))
            return original(control, target, cfg)

        monkeypatch.setattr(cliffords, "compile_remote_cnot", counting)
        for index, expected in [(0, 0), (576, 1), (576 + 5184, 2), (576 + 2 * 5184, 2)]:
            calls.clear()
            elem = two_qubit_clifford(index, cfg)
            assert len(calls) == expected
            assert phase_distance(data_block_unitary(elem.decomposition), elem.unitary) < 1e-9

    def test_sampled_decompositions_match_matrices(self):
        cfg = load_config()
        rng = np.random.default_rng(12)
        for _ in range(30):
            elem = two_qubit_clifford(int(rng.integers(11520)), cfg)
            block = data_block_unitary(elem.decomposition, atol=1e-9)
            assert phase_distance(block, elem.unitary) < 1e-10


class TestInversion:
    def test_identity_sequence(self):
        els = single_qubit_cliffords()
        assert invert_sequence([els[0]]).index == 0

    def test_pair_with_inverse(self):
        els = single_qubit_cliffords()
        c = els[13]
        c_inv = invert_sequence([c])
        total = c_inv.unitary @ c.unitary
        assert phase_distance(total, np.eye(2)) < 1e-12

    def test_hundred_random_single_qubit_sequences(self):
        els = single_qubit_cliffords()
        rng = np.random.default_rng(21)
        for _ in range(100):
            seq = [els[i] for i in rng.integers(24, size=8)]
            inv = invert_sequence(seq)
            total = reduce(lambda acc, e: e.unitary @ acc, seq + [inv], np.eye(2, dtype=complex))
            assert phase_distance(total, np.eye(2)) < 1e-9

    def test_random_two_qubit_sequences(self):
        cfg = load_config()
        rng = np.random.default_rng(22)
        for _ in range(25):
            seq = [two_qubit_clifford(int(i), cfg) for i in rng.integers(11520, size=8)]
            inv = invert_sequence(seq, cfg)
            total = reduce(lambda acc, e: e.unitary @ acc, seq + [inv], np.eye(4, dtype=complex))
            assert phase_distance(total, np.eye(4)) < 1e-9

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            invert_sequence([])

    def test_non_group_product_rejected(self):
        bogus = CliffordElement(0, np.diag([1.0, np.exp(0.3j)]), ())
        with pytest.raises(RuntimeError, match="not in the single-qubit group"):
            invert_sequence([bogus])


class TestRemoteCnot:
    def test_forward_equals_cnot(self):
        ops = compile_remote_cnot("D1", "D2")
        block = data_block_unitary(ops, atol=1e-12)
        assert np.max(np.abs(block - CNOT)) < 1e-9

    def test_reverse_equals_reversed_cnot(self):
        block = data_block_unitary(compile_remote_cnot("D2", "D1"), atol=1e-12)
        assert np.max(np.abs(block - CNOT_REV)) < 1e-9

    def test_direction_symmetry_via_hadamards(self):
        fwd = data_block_unitary(compile_remote_cnot("D1", "D2"))
        rev = data_block_unitary(compile_remote_cnot("D2", "D1"))
        hh = np.kron(HAD, HAD)
        assert phase_distance(hh @ fwd @ hh, rev) < 1e-9

    def test_basis_inputs_return_l_qubits(self):
        full = circuit_unitary(compile_remote_cnot("D1", "D2"), QUBIT_ORDER)
        # register order D1, L1, L2, D2; l=|00> columns are 0, 1, 8, 9
        sector = [0, 1, 8, 9]
        for col in sector:
            amp = full[:, col]
            outside = sum(abs(amp[i]) ** 2 for i in range(16) if i not in sector)
            assert outside < 1e-12

    def test_twenty_random_product_states_return_l_qubits(self):
        full = circuit_unitary(compile_remote_cnot("D1", "D2"), QUBIT_ORDER)
        sector = [0, 1, 8, 9]
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            state = np.zeros(16, dtype=complex)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    state[8 * i + j] = ai * bj  # l-qubits in |00>
            out = full @ state
            outside = sum(abs(out[i]) ** 2 for i in range(16) if i not in sector)
            assert outside < 1e-9

    def test_duration_breakdown(self):
        cfg = load_config()
        ops = compile_remote_cnot("D1", "D2", cfg)
        # 3 CZ (135 + 100 + 135 ns) + 2 transfers (206 ns each) = 782 ns
        fixed = 2 * 135e-9 + 100e-9 + 2 * 206e-9
        sq_count = sum(1 for op in ops if op.kind is GateKind.SQ_ROT)
        assert sq_count == 6
        assert sum(op.duration_s for op in ops) == pytest.approx(
            fixed + sq_count * cfg.single_qubit_gate_time_s, rel=1e-12
        )

    @pytest.mark.parametrize(
        "circuit, n_transfers",
        [
            pytest.param(lambda: compile_remote_cnot("D1", "D2"), 2, id="remote-cnot-D1-D2"),
            pytest.param(lambda: compile_remote_cnot("D2", "D1"), 2, id="remote-cnot-D2-D1"),
            pytest.param(lambda: transfer_step("L2", "L1", 206e-9), 1, id="nb-step"),
            pytest.param(lambda: bell_circuit("data-full"), 1, id="bell-data-full"),
        ],
    )
    def test_dark_sign_absorption_ops_present(self, circuit, n_transfers):
        ops = circuit()
        transfers = [i for i, op in enumerate(ops) if op.kind is GateKind.TRANSFER]
        assert len(transfers) == n_transfers
        for i in transfers:
            follow = ops[i + 1]
            receiver = ops[i].params["direction"].split("->")[1]
            assert follow.kind is GateKind.VIRTUAL_Z
            assert follow.targets == (receiver,)
            assert follow.params["angle_rad"] == pytest.approx(np.pi)

    def test_bad_qubit_names(self):
        with pytest.raises(ValueError, match="data qubits"):
            compile_remote_cnot("D1", "L1")
