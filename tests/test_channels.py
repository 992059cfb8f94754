import math

import numpy as np
import pytest

from lcoupler.channels import (
    QuantumChannel,
    amplitude_damping_channel,
    dephasing_channel,
    depolarizing_channel,
    excitation_pump_channel,
    ideal_transfer_channel,
    ideal_transfer_unitary,
    kraus_to_superop,
    superop_to_choi,
    unvec,
    vec,
)

from oracles import apply_to_qubits, average_gate_fidelity_mc


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 3)
    assert np.allclose(unvec(vec(rho)), rho)


def test_unitary_channel_matches_conjugation():
    rng = np.random.default_rng(3)
    # random unitary via QR
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(a)
    u = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    ch = QuantumChannel.from_unitary(u)
    rho = random_density(rng, 4)
    assert np.allclose(ch.apply(rho), u @ rho @ u.conj().T, atol=1e-12)
    ch.validate()


def test_identity_choi_is_maximally_entangled_projector():
    ch = QuantumChannel.identity(2)
    c = ch.choi()
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1.0  # |00> + |11> with (i,k) composite index
    assert np.allclose(c, np.outer(omega, omega.conj()))


def test_kraus_completeness_implies_tp():
    p = 0.3
    ch = amplitude_damping_channel(p)
    assert ch.trace_preservation_deficit() < 1e-12
    assert ch.choi_min_eigenvalue() > -1e-12


def test_depolarizing_output():
    lam = 0.4
    ch = depolarizing_channel(lam)
    rng = np.random.default_rng(11)
    rho = random_density(rng, 2)
    expect = (1 - lam) * rho + lam * np.eye(2) / 2
    assert np.allclose(ch.apply(rho), expect, atol=1e-12)
    ch.validate()


def test_depolarizing_average_fidelity():
    # 1 - lam/2 for a single qubit, 1 - 3 lam/4 entanglement-style would be
    # wrong: check against the standard closed form 1 - lam (d-1)/d ... d=2
    lam = 0.1
    ch = depolarizing_channel(lam)
    f = ch.average_gate_fidelity(np.eye(2))
    assert math.isclose(f, 1 - lam / 2, rel_tol=0, abs_tol=1e-12)


def test_average_fidelity_monte_carlo_agrees_with_trace_formula():
    lam = 0.23
    ch = depolarizing_channel(lam, n_qubits=2)
    target = np.eye(4)
    f_exact = ch.average_gate_fidelity(target)
    rng = np.random.default_rng(5)
    f_mc = average_gate_fidelity_mc(ch, target, rng, n_states=4000)
    assert abs(f_mc - f_exact) < 2e-3


def test_dephasing_shrinks_coherence():
    p = 0.2
    ch = dephasing_channel(p)
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = ch.apply(rho)
    assert math.isclose(out[0, 1].real, 0.5 * (1 - 2 * p), abs_tol=1e-12)


def test_excitation_pump_unconditional():
    ell = 0.05
    ch = excitation_pump_channel(ell)
    ch.validate()
    for state in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        out = ch.apply(state.astype(complex))
        assert math.isclose(out[1, 1].real, ell + (1 - ell) * state[1, 1].real, abs_tol=1e-12)


def test_ideal_transfer_unitary_action():
    u = ideal_transfer_unitary()
    # |10> -> -|01>, |01> -> -|10>, diagonal states fixed
    assert np.allclose(u @ np.array([0, 0, 1, 0]), np.array([0, -1, 0, 0]))
    assert np.allclose(u @ np.array([0, 1, 0, 0]), np.array([0, 0, -1, 0]))
    assert np.allclose(u @ np.array([1, 0, 0, 0]), np.array([1, 0, 0, 0]))
    assert np.allclose(u @ np.array([0, 0, 0, 1]), np.array([0, 0, 0, 1]))
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_half_transfer_rotation():
    h = ideal_transfer_unitary(half=True)
    # emitter excitation goes to the singlet-like superposition
    out = h @ np.array([0, 0, 1, 0], dtype=complex)
    assert np.allclose(out, np.array([0, -1, 1, 0]) / math.sqrt(2), atol=1e-12)
    # squaring continues the same rotation: emitter column matches the full
    # transfer even though the time-reversed column does not
    full_col = ideal_transfer_unitary() @ np.array([0, 0, 1, 0], dtype=complex)
    assert np.allclose(h @ h @ np.array([0, 0, 1, 0], dtype=complex), full_col, atol=1e-12)
    ideal_transfer_channel(half=True).validate()


def test_compose_matches_sequential_application():
    a = amplitude_damping_channel(0.1)
    b = dephasing_channel(0.2)
    rng = np.random.default_rng(2)
    rho = random_density(rng, 2)
    combined = b.compose(a)
    assert np.allclose(combined.apply(rho), b.apply(a.apply(rho)), atol=1e-12)


def test_tensor_matches_kron_of_kraus():
    a = amplitude_damping_channel(0.15)
    b = dephasing_channel(0.3)
    ab = a.tensor(b)
    rng = np.random.default_rng(9)
    rho = random_density(rng, 4)
    # build the same map from explicit Kraus products
    ka = [np.array([[1, 0], [0, math.sqrt(0.85)]]), np.array([[0, math.sqrt(0.15)], [0, 0]])]
    kb = [math.sqrt(0.7) * np.eye(2), math.sqrt(0.3) * np.diag([1.0, -1.0])]
    s = kraus_to_superop([np.kron(x, y) for x in ka for y in kb])
    assert np.allclose(ab.superoperator, s, atol=1e-12)
    assert np.allclose(ab.apply(rho), unvec(s @ vec(rho)), atol=1e-12)


def test_apply_to_qubits_matches_explicit_embedding():
    rng = np.random.default_rng(21)
    ch = amplitude_damping_channel(0.4)
    rho = random_density(rng, 8)
    for q in range(3):
        kraus = [
            np.array([[1, 0], [0, math.sqrt(0.6)]], dtype=complex),
            np.array([[0, math.sqrt(0.4)], [0, 0]], dtype=complex),
        ]
        expect = np.zeros_like(rho)
        for k in kraus:
            ops = [np.eye(2)] * 3
            ops[q] = k
            full = np.kron(np.kron(ops[0], ops[1]), ops[2])
            expect += full @ rho @ full.conj().T
        got = apply_to_qubits(ch, rho, (q,), 3)
        assert np.allclose(got, expect, atol=1e-12)


def test_apply_to_qubits_two_qubit_noncontiguous():
    rng = np.random.default_rng(22)
    ch = ideal_transfer_channel()
    rho = random_density(rng, 8)
    u2 = ideal_transfer_unitary()
    # act on qubits (0, 2) of three: build the permuted embedding by hand
    t = u2.reshape(2, 2, 2, 2)
    full = np.zeros((8, 8), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for ap in range(2):
                    for cp in range(2):
                        full[(a << 2) + (b << 1) + c, (ap << 2) + (b << 1) + cp] += t[
                            a, c, ap, cp
                        ]
    expect = full @ rho @ full.conj().T
    got = apply_to_qubits(ch, rho, (0, 2), 3)
    assert np.allclose(got, expect, atol=1e-12)


def test_apply_to_qubits_dimension_mismatch():
    ch = amplitude_damping_channel(0.1)
    with pytest.raises(ValueError):
        apply_to_qubits(ch, np.eye(4) / 4, (0, 1), 2)


def test_choi_reshuffle_consistency():
    ch = amplitude_damping_channel(0.37)
    c = superop_to_choi(ch.superoperator)
    # Choi reproduces the channel: Lambda(rho) = Tr_in[(rho^T (x) I) C]
    rng = np.random.default_rng(13)
    rho = random_density(rng, 2)
    c4 = c.reshape(2, 2, 2, 2)  # [i,k,j,l]
    out = np.einsum("ij,ikjl->kl", rho, c4)
    assert np.allclose(out, ch.apply(rho), atol=1e-12)
