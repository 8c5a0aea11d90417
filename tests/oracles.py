"""Dense, one-point, Young-operator and group-element oracles for the tests.

The library builds its operators in factored form (`operator_factors`,
`act_on_coefficients`) and evaluates Wigner D in batches (`wigner_rows`).
These helpers rebuild the dense (2j+1)^2 x (2j+1)^2 matrices and the
one-point evaluations from those routines, so that tests can check the
factored results against the plain definitions.  The Young ranks reach the
multiplicities without characters: the joint eigenspaces of the Jucys-Murphy
sums, one per standard tableau, have the dimensions that character theory
predicts.  The eigh route to the Young fixed spaces is the reference for
the Gram-Schmidt route of `youngrep.fixed_subspace`.  The inverse coordinate
map, the SU(2) transpose and closeness, and the inverse and parity of a
permutation are plain functions here: tests use them as references, and no
command needs them.  `round_floats` is the reference for the CLI's JSON
writer: json.dumps(round_floats(doc), sort_keys=True, indent=1) is the text
that `cli._json_text` writes by hand.  `_row` is the character route to the
multiplicities, one degree at a time, that the library's hook-length columns
are checked against; `class_character` reads the class characters it sums
one degree at a time in O(1), the reference for the library's class columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from simplexmodes.modes import ModeBasis, _sample_pairs, cyclic_operators, integer_eigenspaces
from simplexmodes.permgroup import (
    CycleType,
    Partition,
    Permutation,
    character,
    exact_quotient,
    partitions_of,
)
from simplexmodes.reduction import CHAINS
from simplexmodes.report import SPECTRUM_TOL, ConsistencyError
from simplexmodes.su2wigner import Point4, SU2Element, wigner_rows
from simplexmodes.weylaction import (
    GroupOperator,
    act_on_coefficients,
    act_on_points,
    operator_matrices,
    transposition_operators,
)
from simplexmodes.youngrep import _basis, _contents as contents, trivial_projector

#: the partitions of 5 in the column order of the O(4) table
S5_PARTITION_ORDER = CHAINS["o4s5c5"].partitions


def round_floats(obj):
    """obj with every float rounded to 15 significant digits, complex numbers as
    [re, im] and numpy values as Python values."""
    if isinstance(obj, float):
        # JSON has no infinity or NaN: a residual that measured nothing is null
        return float(format(obj, ".15g")) if math.isfinite(obj) else None
    if isinstance(obj, complex):
        return [round_floats(obj.real), round_floats(obj.imag)]
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    if hasattr(obj, "tolist"):  # a numpy array or scalar, as Python values
        return round_floats(obj.tolist())
    return obj


def point(u: SU2Element) -> Point4:
    """The point of S^3 that su2_from_point sends to u."""
    return Point4(u.z1.real, -u.z2.imag, -u.z2.real, -u.z1.imag)


def transpose(u: SU2Element) -> SU2Element:
    """The element whose defining matrix is the transpose of u's."""
    return SU2Element(u.z1, -u.z2.conjugate())


def isclose(u: SU2Element, v: SU2Element, tol: float = 1e-12) -> bool:
    return abs(u.z1 - v.z1) <= tol and abs(u.z2 - v.z2) <= tol


def inverse(p: Permutation) -> Permutation:
    images = [0] * p.n
    for i, x in enumerate(p.images):
        images[x - 1] = i + 1
    return Permutation(tuple(images))


def parity(p: Permutation) -> int:
    """0 for even, 1 for odd."""
    return sum(length - 1 for length in p.cycle_type().parts) % 2


def _two_j(j: float | int | Fraction) -> int:
    """2j for a non-negative half-integer j."""
    two_j = 2 * Fraction(j)
    if two_j.denominator != 1 or two_j < 0:
        raise ValueError(f"j must be a non-negative half-integer, got {j}")
    return int(two_j)


def wigner_d(j: float | int | Fraction, u: SU2Element) -> np.ndarray:
    """Wigner representation matrix D^j(u), (2j+1) x (2j+1) with m ascending
    on both axes, from one wigner_rows call."""
    two_j = _two_j(j)
    return wigner_rows(two_j, u.z1, u.z2)[0].reshape(two_j + 1, two_j + 1)


def operator_matrix(j: float | int | Fraction, op: GroupOperator) -> np.ndarray:
    """Matrix of one operator on the degree-2j harmonics; see operator_matrices."""
    return operator_matrices(_two_j(j), [op])[0]


def act_on_point(op: GroupOperator, u: SU2Element) -> SU2Element:
    """Image of one point of S^3 under the operator; see act_on_points."""
    z1, z2 = act_on_points(op, np.array([u.z1]), np.array([u.z2]))
    return SU2Element(complex(z1[0]), complex(z2[0]))


def cyclic_projector(two_j: int) -> np.ndarray:
    """Average of the five deck-operator matrices: the Hermitian idempotent
    projecting onto the periodic subspace of degree 2j."""
    return sum(operator_matrices(two_j, cyclic_operators())) / 5.0


@dataclass(frozen=True)
class SamplePoint:
    u: SU2Element
    seed: int
    index: int


def sample_points(num_points: int, seed: int) -> list[SamplePoint]:
    """The sample of verify_invariance as SU(2) elements: uniform points of
    S^3 drawn by Marsaglia's method from random.Random(seed)."""
    return [
        SamplePoint(SU2Element(complex(z1), complex(z2)), seed, i)
        for i, (z1, z2) in enumerate(zip(*_sample_pairs(num_points, seed)))
    ]


def evaluate_modes(basis: ModeBasis, u: SU2Element) -> np.ndarray:
    """Values of every mode at a point."""
    return wigner_d(Fraction(basis.two_j, 2), u).reshape(-1) @ basis.coefficients


def eigh_fixed_subspace(f: Partition) -> tuple[np.ndarray, float]:
    """The eigh route to youngrep.fixed_subspace: the eigenvalue-1
    eigenvectors of the C_n average, whose spectrum is 0 and 1, and the
    largest distance of an eigenvalue from 0 or 1."""
    blocks, margin = integer_eigenspaces(np.asarray(trivial_projector(f)), 0, 1)
    return blocks[1], margin


def standard_tableaux(f: Partition) -> list[tuple[int, ...]]:
    """The Yamanouchi words of all standard tableaux of shape f, in the
    package basis order: the rows (1-based) of n, n-1, ..., 1."""
    return list(_basis(f.parts))


def rows(word: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The rows of the standard tableau of a Yamanouchi word."""
    out: list[list[int]] = [[] for _ in range(max(word))]
    for v, r in enumerate(reversed(word), start=1):
        out[r - 1].append(v)
    return tuple(map(tuple, out))


def _jucys_murphy_leaves(two_j: int) -> tuple[dict[tuple[int, ...], np.ndarray], float]:
    """Orthonormal bases of the joint eigenspaces of the Jucys-Murphy sums
    X_k = sum_{i<k} T_(i k), k = 2..5, on the degree-2j harmonics, keyed by
    the contents (0, c_2, .., c_5) of a standard tableau, and the largest
    distance of an eigenvalue from its integer in -(k-1)..(k-1).  The X_k
    commute, so each level splits every node's columns B by B^dagger X_k B."""
    swaps = dict(zip(itertools.combinations(range(1, 6), 2), transposition_operators()))
    nodes, margin = {(0,): np.eye((two_j + 1) ** 2, dtype=complex)}, 0.0
    for k in range(2, 6):
        ops = [swaps[i, k] for i in range(1, k)]
        split = {}
        for key, b in nodes.items():
            spaces, level_margin = integer_eigenspaces(
                b.conj().T @ act_on_coefficients(two_j, ops, b), 1 - k, k - 1)
            margin = max(margin, level_margin)
            split.update({key + (c,): b @ vecs for c, vecs in spaces.items() if vecs.shape[1]})
        nodes = split
    if margin > SPECTRUM_TOL:
        raise ConsistencyError(f"2j={two_j}: Jucys-Murphy eigenvalues off their integers, "
                               f"margin {margin:.3g}")
    return nodes, margin


def young_ranks(two_j: int) -> dict[Partition, int]:
    """Rank of the diagonal Young operators c^f_{r,r} for every partition f of
    5, from one Jucys-Murphy walk: the dimension of the joint eigenspace at the
    contents of tableau r.  Every standard tableau of f must give the same
    value, the multiplicity of f at degree 2j."""
    counts = {key: b.shape[1] for key, b in _jucys_murphy_leaves(two_j)[0].items()}
    out = {}
    for f in S5_PARTITION_ORDER:
        ranks = {counts.get(contents(t), 0) for t in standard_tableaux(f)}
        if len(ranks) != 1:
            raise ConsistencyError(f"tableaux of {f} disagree on rank: {ranks}")
        out[f] = ranks.pop()
    return out


@lru_cache(maxsize=None)
def _molien_terms(k: CycleType) -> tuple[int, int, tuple[int, ...]]:
    """The Molien series (1-t)(1-t^2) / prod_c (1-t^c) of the class k, c over
    its cycle lengths, written as M(t) / (1-t^P)^r with P the lcm of the c
    and r their number: returns P, r and the coefficients M_i of the integer
    polynomial M."""
    period, r = math.lcm(*k.parts), len(k.parts)
    poly = [1, -1, -1, 1]  # (1-t)(1-t^2)
    for c in k.parts:  # times (1-t^P)/(1-t^c) = 1 + t^c + ... + t^(P-c)
        out = [0] * (len(poly) + period - c)
        for i, a in enumerate(poly):
            for shift in range(0, period, c):
                out[i + shift] += a
        poly = out
    return period, r, tuple(poly)


def class_character(k: CycleType, two_j: int) -> int:
    """Exact character of the class k of S(n) on the degree-2j harmonics of
    R^(n-1): the coefficient of t^(2j) in its Molien series,
    sum over i = 2j (mod P), i <= 2j of M_i C((2j-i)/P + r-1, r-1)."""
    if two_j < 0:
        raise ValueError("two_j must be non-negative")
    period, r, poly = _molien_terms(k)
    below = range(two_j % period, min(two_j + 1, len(poly)), period)
    return sum(poly[i] * math.comb((two_j - i) // period + r - 1, r - 1) for i in below)


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[CycleType, ...]:
    return tuple(CycleType(p.parts) for p in partitions_of(n))


def _row(degree: int, parts) -> tuple[int, ...]:
    """The multiplicities of `parts` at one degree, from its class characters:
    (1/n!) sum_k |k| chi_f(k) chi_d(k) over the classes k of S(n), in integers;
    a sum that n! does not divide raises ConsistencyError."""
    n = parts[0].n
    chars = [(k, k.class_size * class_character(k, degree)) for k in _classes(n)]
    return tuple(exact_quotient(sum(character(f, k) * c for k, c in chars), math.factorial(n),
                                "m(%s) at degree %d", f, degree) for f in parts)
