"""Explicit cyclic-periodic eigenmode bases on S^3.

The periodic modes are spanned by the lattice of harmonics that the deck
generator fixes in its diagonal frame, and tagged by the integer spectrum of
the central transposition sum (`integer_eigenspaces`).  Tag f has rank m_f w_f:
its multiplicity from the hook lengths (`reduction.multiplicity_column`) times
w_f, the dimension of the C_5-fixed vectors of f.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .permgroup import Partition, Permutation, coxeter_element, trivial_multiplicity
from .reduction import CHAINS, lattice_count_o4, multiplicity_column
from .report import SPECTRUM_TOL, ConsistencyError
from .su2wigner import wigner_rows
from .weylaction import (
    GroupOperator,
    act_on_coefficients,
    act_on_points,
    compose,
    diagonal_factors,
    operator_factors,
    operator_matrices,
    permutation_operator,
    transposition_operators,
)

PHASE_TOL = 1e-8  # the first coefficient above this is made real and positive
PIVOT_TIE = 1e-9  # relative gap of pivot ties; 2j <= 24: rounding < 6e-15, real > 1.8e-5


class ModeBasis(NamedTuple):
    """Orthonormal periodic modes of one degree in the harmonics D^j_{m1 m2}
    flattened row-major, one partition tag per column, and the tag
    margins of periodic_basis: the largest distance of an eigenvalue of M from
    its integer and of a content block's squared norm from m_f w_f."""

    two_j: int
    coefficients: np.ndarray  # (2j+1)^2 x count, complex
    partitions: tuple[Partition, ...]
    spectrum_margin: float = 0.0
    trace_margin: float = 0.0

    @property
    def count(self) -> int:
        return self.coefficients.shape[1]


@lru_cache(maxsize=None)
def cyclic_operators() -> tuple[GroupOperator, ...]:
    """The five deck operators: identity and the four powers of the
    generating rotation (all are pure rotations)."""
    gen = permutation_operator(coxeter_element(5))
    ops = [GroupOperator.identity()]
    for _ in range(4):
        ops.append(compose(ops[-1], gen))
    return tuple(ops)


@lru_cache(maxsize=2)
def _operator_matrices(two_j: int) -> dict[Permutation, np.ndarray]:
    """Operator matrix of every element of S(5) at one degree; treat the
    cached arrays as read-only.  A dense oracle that no library route calls:
    it stays only because the benchmark trace reads its cache by this name."""
    perms = [Permutation(p) for p in itertools.permutations(range(1, 6))]
    ops = [permutation_operator(p) for p in perms]
    return dict(zip(perms, operator_matrices(two_j, ops)))


def canonical_phases(basis: np.ndarray, tol: float) -> np.ndarray:
    """The columns times conj(lead) / |lead|, lead the first entry of each whose
    modulus exceeds tol: that entry becomes real and positive (for real columns,
    a sign flip)."""
    lead = basis[np.argmax(np.abs(basis) > tol, axis=0), np.arange(basis.shape[1])]
    return basis * (np.conj(lead) / np.abs(lead))


def integer_eigenspaces(h: np.ndarray, lo: int, hi: int) -> tuple[dict[int, np.ndarray], float]:
    """Orthonormal eigenvectors of a Hermitian matrix with spectrum in the
    integers lo..hi, for each c in lo..hi (empty where c is no eigenvalue), and
    the margin: the largest distance of an eigenvalue from its rounded value."""
    vals, vecs = np.linalg.eigh(h)
    ints = np.clip(np.rint(vals), lo, hi)
    margin = float(np.abs(vals - ints).max(initial=0.0))
    return {c: vecs[:, ints == c] for c in range(lo, hi + 1)}, margin


def _pivoted_gram_schmidt(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of an r x p matrix of rank r:
    each step takes its column (a projected lattice vector) of largest
    residual, the first in lattice order of those within PIVOT_TIE of it."""
    residual, out = a.copy(), np.empty((len(a), len(a)), dtype=complex)
    for i in range(len(a)):
        norms = np.linalg.norm(residual, axis=0)
        k = int(np.argmax(norms >= (1.0 - PIVOT_TIE) * norms.max()))
        out[:, i] = residual[:, k] / norms[k]
        residual -= np.outer(out[:, i], out[:, i].conj() @ residual)
    return out


def periodic_basis(two_j: int) -> ModeBasis:
    """Orthonormal basis of all periodic modes of degree 2j, grouped and
    tagged by the S(5) partition of the isotypic component.

    In frames that diagonalize the deck generator (half-angles 3pi/5, pi/5)
    it multiplies the harmonic x_a y_b^T by exp(i pi (3a + b) / 5), (a, b) =
    (2 m1, 2 m2), so the lattice 3a + b = 0 (mod 10) spans the periodic modes.
    There the transposition sum M acts on the f-isotypic part as
    f.content_sum; its eigenspace at each content is that block, made canonical
    by pivoted Gram-Schmidt over the projected lattice vectors."""
    x, y, rot_l, rot_r = diagonal_factors(two_j, cyclic_operators()[1])
    twice_m = np.arange(-two_j, two_j + 1, 2)
    phase_error = max(np.abs(rot - np.diag(np.exp(1j * np.pi * k * twice_m / 5))).max()
                      for rot, k in ((rot_l, 3), (rot_r, 1)))
    i1, i2 = np.nonzero((3 * twice_m[:, None] + twice_m) % 10 == 0)
    ranks = {f: multiplicity_column(f, two_j)[two_j] * w for f in CHAINS["o4s5c5"].partitions
             if (w := trivial_multiplicity(f))}
    if phase_error > SPECTRUM_TOL or not len(i1) == lattice_count_o4(two_j) == sum(ranks.values()):
        raise ConsistencyError(
            f"2j={two_j}: generator phases off by {phase_error:.3g}, {len(i1)} lattice "
            f"points, count {lattice_count_o4(two_j)}, hook lengths {sum(ranks.values())}"
        )
    # a transposition, (-1)^{2j} L^T C^T R^T, sends x_a y_b^T to (L^T y_b)(R x_a)^T
    m = (-1.0) ** two_j * sum(
        (x.conj().T @ left.T @ y)[np.ix_(i1, i2)] * (y.conj().T @ right @ x)[np.ix_(i2, i1)]
        for left, right in operator_factors(two_j, transposition_operators())
    )
    blocks, spectrum_margin = integer_eigenspaces(m, -10, 10)
    columns, tags, trace_margin = [], [], 0.0
    for f, rank in ranks.items():
        v = blocks[f.content_sum]
        # |V|_F^2 is the trace of the content projector V V^dagger
        trace_margin = max(trace_margin, abs(np.vdot(v, v).real - rank))
        # column k of V^dagger is lattice vector k projected, in the isometry V
        columns.append(v @ _pivoted_gram_schmidt(v.conj().T))
        tags += [f] * v.shape[1]
    frame = (x[:, i1][:, None, :] * y[:, i2][None, :, :]).reshape((two_j + 1) ** 2, len(i1))
    coeffs = canonical_phases(frame @ np.hstack(columns), PHASE_TOL)
    return ModeBasis(two_j, coeffs, tuple(tags), spectrum_margin, trace_margin)


def basis_residuals(basis: ModeBasis) -> tuple[float, float]:
    """Largest entries of C^dagger C - I and of P C - C for the coefficients C:
    the columns are orthonormal and fixed by the projector P, the mean of the
    five deck operators, applied factored."""
    coeffs = basis.coefficients
    gram = coeffs.conj().T @ coeffs - np.eye(basis.count)
    fixed = act_on_coefficients(basis.two_j, cyclic_operators(), coeffs) / 5.0 - coeffs
    return float(np.abs(gram).max(initial=0.0)), float(np.abs(fixed).max(initial=0.0))


def _sample_pairs(num_points: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(z1, z2) = (x0 - i x3, -x2 - i x1) of N uniform points x of S^3, drawn
    by Marsaglia's method (Ann. Math. Statist. 43 (1972) 645) from
    random.Random(seed): points (a, b) and (c, d) of the open unit disc with
    squared radii s and t give x = (a, b, c k, d k), k = sqrt((1 - s) / t).
    random() keeps its stream for a seed and the method uses only +, -, *, /
    and sqrt, so a seed gives the same points on every platform."""
    rand = random.Random(seed).random

    def disc() -> tuple[float, float, float]:
        while True:
            a, b = 2.0 * rand() - 1.0, 2.0 * rand() - 1.0
            if 0.0 < (s := a * a + b * b) < 1.0:
                return a, b, s

    z1, z2 = [], []
    for _ in range(num_points):
        (a, b, s), (c, d, t) = disc(), disc()
        k = math.sqrt((1.0 - s) / t)
        z1.append(complex(a, -d * k))
        z2.append(complex(-c * k, -b))
    return np.array(z1, dtype=complex), np.array(z2, dtype=complex)


#: points x matrix entries per Wigner call of verify_invariance; bounds the
#: temporaries of the sample at every 2j
BLOCK_ELEMENTS = 1 << 12


def block_points(two_j: int) -> int:
    """Points per Wigner call of verify_invariance at degree 2j."""
    return max(1, BLOCK_ELEMENTS // (two_j + 1) ** 2)


def verify_invariance(basis: ModeBasis, num_points: int, seed: int) -> float:
    """Largest |psi(g u) - psi(u)| over the sample, all deck operators g,
    and all modes; exactly zero up to roundoff for a periodic basis.

    Points are evaluated in blocks of `block_points(2j)`, one `wigner_rows`
    call and one matrix product per block and operator; the identity, the
    first deck operator, is skipped.
    """
    if num_points < 1:
        raise ValueError(f"need at least one sample point, got {num_points}")
    z1, z2 = _sample_pairs(num_points, seed)
    two_j, coeffs = basis.two_j, basis.coefficients
    step = block_points(two_j)
    worst = 0.0
    for lo in range(0, num_points, step):
        u1, u2 = z1[lo:lo + step], z2[lo:lo + step]
        here = wigner_rows(two_j, u1, u2) @ coeffs
        for op in cyclic_operators()[1:]:
            there = wigner_rows(two_j, *act_on_points(op, u1, u2)) @ coeffs
            if here.size:
                worst = max(worst, float(np.abs(there - here).max()))
    return worst
