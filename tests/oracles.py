"""Dense and one-point oracles for the tests.

The library builds its operators in factored form (`operator_factors`,
`act_on_coefficients`) and evaluates Wigner D in batches (`wigner_rows`).
These helpers rebuild the dense (2j+1)^2 x (2j+1)^2 matrices and the
one-point evaluations from those routines, so that tests can check the
factored results against the plain definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from simplexmodes.modes import ModeBasis, _sample_pairs, cyclic_operators
from simplexmodes.su2wigner import SU2Element, _as_two_j, wigner_rows
from simplexmodes.weylaction import GroupOperator, act_on_points, operator_matrices


def wigner_d(j: float | int | Fraction, u: SU2Element) -> np.ndarray:
    """Wigner representation matrix D^j(u), (2j+1) x (2j+1) with m ascending
    on both axes, from one wigner_rows call."""
    two_j = _as_two_j(j)
    return wigner_rows(two_j, u.z1, u.z2)[0].reshape(two_j + 1, two_j + 1)


def operator_matrix(j: float | int | Fraction, op: GroupOperator) -> np.ndarray:
    """Matrix of one operator on the degree-2j harmonics; see operator_matrices."""
    return operator_matrices(j, [op])[0]


def act_on_point(op: GroupOperator, u: SU2Element) -> SU2Element:
    """Image of one point of S^3 under the operator; see act_on_points."""
    z1, z2 = act_on_points(op, np.array([u.z1]), np.array([u.z2]))
    return SU2Element(complex(z1[0]), complex(z2[0]))


def cyclic_projector(two_j: int) -> np.ndarray:
    """Average of the five deck-operator matrices: the Hermitian idempotent
    projecting onto the periodic subspace of degree 2j."""
    return sum(operator_matrices(Fraction(two_j, 2), cyclic_operators())) / 5.0


@dataclass(frozen=True)
class SamplePoint:
    u: SU2Element
    seed: int
    index: int


def sample_points(num_points: int, seed: int) -> list[SamplePoint]:
    """The sample of verify_invariance as SU(2) elements: uniform points of
    S^3 from normalized 4-dimensional Gaussian draws of a seeded generator."""
    return [
        SamplePoint(SU2Element(complex(z1), complex(z2)), seed, i)
        for i, (z1, z2) in enumerate(zip(*_sample_pairs(num_points, seed)))
    ]


def evaluate_modes(basis: ModeBasis, u: SU2Element) -> np.ndarray:
    """Values of every mode at a point."""
    return wigner_d(Fraction(basis.two_j, 2), u).reshape(-1) @ basis.coefficients
