"""Excitation-number basis for the qubit/resonator chain and density operators.

Sites are ordered (L1 end qubit, retained modes low to high, L2 end qubit),
whichever qubit emits.
Qubits hold at most one excitation; each retained mode holds up to the global
truncation.  The basis keeps every state with total occupation up to the
truncation, ground state first, then by total occupation with the excitation
placed at earlier sites sorting first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


@dataclass(frozen=True)
class BasisLabel:
    """Occupation numbers per site: (L1 end, modes..., L2 end)."""

    occupations: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.occupations)

    @property
    def mode_total(self) -> int:
        return sum(self.occupations[1:-1])

    def __str__(self) -> str:
        return "|" + "".join(str(n) for n in self.occupations) + ">"


def build_basis(truncation: int, modes_retained: int) -> list[BasisLabel]:
    """All occupation states of the chain up to ``truncation`` excitations.

    Qubit sites are capped at one excitation regardless of truncation; each
    mode site is capped at ``truncation``.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if modes_retained < 1 or modes_retained % 2 == 0:
        raise ValueError("modes_retained must be a positive odd count")
    caps = [1] + [truncation] * modes_retained + [1]
    states = [
        occ
        for occ in product(*(range(c + 1) for c in caps))
        if sum(occ) <= truncation
    ]
    # ground first, then ascending total; within a total, excitation on
    # earlier sites first (descending lexicographic on the tuple)
    states.sort(key=lambda occ: (sum(occ), tuple(-n for n in occ)))
    return [BasisLabel(occ) for occ in states]


def basis_index(basis: list[BasisLabel]) -> dict[tuple[int, ...], int]:
    return {label.occupations: i for i, label in enumerate(basis)}


class DensityOperator:
    """A density matrix tied to a chain basis, with physicality checks."""

    def __init__(self, matrix: np.ndarray, basis: list[BasisLabel]):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (len(basis), len(basis)):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match basis size {len(basis)}"
            )
        self.matrix = matrix
        self.basis = basis

    @classmethod
    def from_pure(cls, vector: np.ndarray, basis: list[BasisLabel]) -> "DensityOperator":
        v = np.asarray(vector, dtype=complex)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("cannot build a state from the zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()), basis)

    @classmethod
    def single_excitation(cls, site: int, basis: list[BasisLabel]) -> "DensityOperator":
        """Pure state with one excitation at ``site`` (0 = the L1 end)."""
        occ = list(basis[0].occupations)
        if any(occ):
            raise ValueError("basis[0] is expected to be the ground state")
        occ[site] = 1
        idx = basis_index(basis)[tuple(occ)]
        vec = np.zeros(len(basis), dtype=complex)
        vec[idx] = 1.0
        return cls.from_pure(vec, basis)

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))))

    def validate(self) -> "DensityOperator":
        """Check hermiticity and unit trace within 1e-9, eigenvalues >= -1e-8."""
        herm_err = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if herm_err > 1e-9:
            raise ValueError(f"density matrix not hermitian (deviation {herm_err:.3e})")
        if abs(self.trace() - 1.0) > 1e-9:
            raise ValueError(f"trace drifted to {self.trace():.12f}")
        lam = self.min_eigenvalue()
        if lam < -1e-8:
            raise ValueError(f"negative eigenvalue {lam:.3e}")
        return self

    def site_population(self, site: int) -> float:
        """Expected occupation of one site."""
        weights = np.array([label.occupations[site] for label in self.basis])
        return float(np.real(np.sum(weights * np.diag(self.matrix))))

    def label_probability(self, occupations: tuple[int, ...]) -> float:
        idx = basis_index(self.basis)[tuple(occupations)]
        return float(np.real(self.matrix[idx, idx]))
