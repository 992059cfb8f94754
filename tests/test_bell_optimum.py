"""The closed-form optimum of the Bell fidelity over two virtual-Z phases."""

import numpy as np
import pytest

from lcoupler.tomography import (
    BellVariant,
    bell_target,
    optimize_bell_phases,
    project_to_state,
    state_fidelity,
)

GRID = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)


def _phased(target, a, b):
    return np.kron([1.0, np.exp(1j * a)], [1.0, np.exp(1j * b)]) * target


def _random_states(seed, count=8):
    gen = np.random.default_rng(seed)
    for _ in range(count):
        yield project_to_state(gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4)))


@pytest.mark.parametrize("variant", list(BellVariant))
def test_optimum_beats_every_grid_point(variant):
    target, _ = bell_target(variant)
    a, b = np.meshgrid(GRID, GRID, indexing="ij")
    first, second = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])  # bits of each index
    psi = target * np.exp(1j * (a[..., None] * first + b[..., None] * second))
    for rho in _random_states(3):
        best, _ = optimize_bell_phases(rho, target)
        grid = np.einsum("abi,ij,abj->ab", psi.conj(), rho, psi).real
        assert best >= grid.max() - 1e-12


@pytest.mark.parametrize("variant", list(BellVariant))
def test_optimum_is_the_fidelity_at_its_phases(variant):
    target, _ = bell_target(variant)
    for rho in _random_states(5):
        best, (a, b) = optimize_bell_phases(rho, target)
        assert best == pytest.approx(state_fidelity(rho, _phased(target, a, b)), abs=1e-12)
        # the whole correction sits on the first qubit of the pair
        assert 0.0 <= a < 2.0 * np.pi and b == 0.0


def test_second_qubit_takes_the_phase_when_the_first_bits_agree():
    target = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)  # |0> x |+>
    kick = _phased(target / np.sqrt(2), 0.0, 0.9)
    best, (a, b) = optimize_bell_phases(np.outer(kick, kick.conj()), target)
    assert best == pytest.approx(1.0, abs=1e-12)
    assert a == 0.0 and b == pytest.approx(0.9, abs=1e-12)


def test_phase_just_below_zero_wraps_to_zero():
    # arg(c) = +1e-17: the correction -1e-17 would round up to 2 pi
    target, _ = bell_target("lqubit-sqrt")
    rho = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    rho[1, 2] = -0.5 * (1.0 + 1e-17j)
    rho[2, 1] = np.conj(rho[1, 2])
    best, (a, b) = optimize_bell_phases(rho, target)
    assert best == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= a < 2.0 * np.pi and b == 0.0


def test_three_nonzero_amplitudes_rejected():
    with pytest.raises(ValueError, match="two nonzero amplitudes"):
        optimize_bell_phases(np.eye(4) / 4, np.array([1.0, 1.0, 1.0, 0.0]))
