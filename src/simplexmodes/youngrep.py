"""Young orthogonal representations of S(n) and their cyclic-invariant vectors.

Generator matrices are produced from the axial-distance rule, never
transcribed.  Basis order follows the tableau enumerations used by the
embedded reference tables (descending last-letter order unless an explicit
enumeration overrides it), so matrices and fixed vectors can be compared
positionally with the golden data.  The golden gate needs them only up to
6 x 6, so they are built in plain Python: every matrix is a tuple of rows
of floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .permgroup import Partition, Permutation, cyclic_elements, trivial_multiplicity
from .report import SPECTRUM_TOL, ConsistencyError

Matrix = tuple[tuple[float, ...], ...]  # a tuple of rows


@dataclass(frozen=True)
class StandardTableau:
    """Standard Young tableau: rows strictly increase left-right and top-down."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    @property
    def yamanouchi(self) -> tuple[int, ...]:
        """Row indices (1-based) of n, n-1, ..., 1; determines the tableau."""
        where = self._positions()
        return tuple(where[v][0] + 1 for v in range(self.n, 0, -1))

    def _positions(self) -> dict[int, tuple[int, int]]:
        return {
            v: (i, j) for i, row in enumerate(self.rows) for j, v in enumerate(row)
        }

    def position(self, value: int) -> tuple[int, int]:
        """(row, column) of a value, 0-based."""
        return self._positions()[value]

    def swap(self, a: int, b: int) -> StandardTableau:
        table = {a: b, b: a}
        return StandardTableau(
            tuple(tuple(table.get(v, v) for v in row) for row in self.rows)
        )


def _fill_tableaux(shape: tuple[int, ...]) -> list[StandardTableau]:
    n = sum(shape)
    rows = [[0] * r for r in shape]
    found: list[StandardTableau] = []

    def fill(k: int) -> None:
        if k > n:
            found.append(StandardTableau(tuple(tuple(r) for r in rows)))
            return
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v == 0:
                    if (j == 0 or row[j - 1] != 0) and (i == 0 or rows[i - 1][j] != 0):
                        row[j] = k
                        fill(k + 1)
                        row[j] = 0
                    break  # only the first free cell of each row can take k

    fill(1)
    return found


# Basis enumerations fixed by the reference tables where they differ from the
# descending last-letter default (keys are shapes, values Yamanouchi words).
_EXPLICIT_ORDER: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {
    (3, 2): (
        (2, 2, 1, 1, 1),
        (2, 1, 1, 2, 1),
        (2, 1, 2, 1, 1),
        (1, 2, 1, 2, 1),
        (1, 2, 2, 1, 1),
    ),
    # mirror images of the (3, 2) tableaux, in the same order
    (2, 2, 1): (
        (2, 1, 3, 2, 1),
        (2, 3, 2, 1, 1),
        (2, 3, 1, 2, 1),
        (3, 2, 2, 1, 1),
        (3, 2, 1, 2, 1),
    ),
}

# The tabulated convention for S(4), shape (2,2) negates the second basis
# vector relative to the raw axial-distance construction.
_BASIS_SIGNS: dict[tuple[int, ...], tuple[float, ...]] = {
    (2, 2): (1.0, -1.0),
}


@lru_cache(maxsize=None)
def _ordered_tableaux(shape: tuple[int, ...]) -> tuple[StandardTableau, ...]:
    tableaux = _fill_tableaux(shape)
    explicit = _EXPLICIT_ORDER.get(shape)
    if explicit is not None:
        by_word = {t.yamanouchi: t for t in tableaux}
        return tuple(by_word[w] for w in explicit)
    return tuple(sorted(tableaux, key=lambda t: t.yamanouchi, reverse=True))


@lru_cache(maxsize=None)
def _generator_array(shape: tuple[int, ...], i: int) -> Matrix:
    tableaux = _ordered_tableaux(shape)
    index = {t: k for k, t in enumerate(tableaux)}
    d = len(tableaux)
    mat = [[0.0] * d for _ in range(d)]
    for k, tab in enumerate(tableaux):
        r1, c1 = tab.position(i)
        r2, c2 = tab.position(i + 1)
        if r1 == r2:
            mat[k][k] = 1.0
        elif c1 == c2:
            mat[k][k] = -1.0
        else:
            # signed axial distance between i and i+1
            rho = (c2 - r2) - (c1 - r1)
            mat[k][k] = 1.0 / rho
            mat[k][index[tab.swap(i, i + 1)]] = math.sqrt(1.0 - 1.0 / rho**2)
    signs = _BASIS_SIGNS.get(shape, (1.0,) * d)
    return tuple(tuple(signs[a] * mat[a][b] * signs[b] for b in range(d)) for a in range(d))


def _identity(d: int) -> Matrix:
    return tuple(tuple(float(a == b) for b in range(d)) for a in range(d))


def _product(a: Matrix, b: Matrix) -> Matrix:
    columns = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in columns) for row in a)


def _scaled(c: float, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def _dot(u, v) -> float:
    return sum(x * y for x, y in zip(u, v))


def _norm(v) -> float:
    return math.sqrt(_dot(v, v))


def generator_matrix(f: Partition, i: int) -> Matrix:
    """Matrix of the adjacent transposition (i, i+1) for partition f."""
    n = f.n
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    return _generator_array(f.parts, i)


def _rep_array(shape: tuple[int, ...], p: Permutation) -> Matrix:
    mat = _identity(len(_ordered_tableaux(shape)))
    for i in p.adjacent_factors():
        mat = _product(mat, _generator_array(shape, i))
    return mat


def rep_matrix(f: Partition, p: Permutation) -> Matrix:
    """Matrix of an arbitrary permutation, as the product of generator
    matrices along an adjacent-transposition factorization (the left factor
    of a permutation product acts first, matching Permutation.__mul__)."""
    if p.n != f.n:
        raise ValueError(f"permutation of {p.n} letters for partition of {f.n}")
    return _rep_array(f.parts, p)


# --- the primed (tetrahedral) 3x3 representation of S(4) ---

_PRIMED_31 = (
    ((1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, -1.0, 0.0)),
    ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
)

_PRIMED_SHAPES = {(3, 1): 1.0, (2, 1, 1): -1.0}


def tetrahedral_primed_generators() -> list[Matrix]:
    """Generators (1,2), (2,3), (3,4) of S(4) in the 3-dimensional
    tetrahedral-axis basis: first the three matrices for partition [31],
    then their negatives, which realize the associate partition [211]."""
    return [*_PRIMED_31, *(_scaled(-1.0, m) for m in _PRIMED_31)]


def primed_rep_matrix(f: Partition, p: Permutation) -> Matrix:
    """Matrix of a permutation of S(4) in the primed tetrahedral basis."""
    sign = _PRIMED_SHAPES.get(f.parts)
    if sign is None:
        raise ValueError(f"no primed representation for partition {f}")
    mat = _identity(3)
    for i in p.adjacent_factors():
        mat = _product(mat, _scaled(sign, _PRIMED_31[i - 1]))
    return mat


def trivial_projector(f: Partition, primed: bool = False) -> Matrix:
    """Group average over the cyclic subgroup C_n: the orthogonal projector
    onto the subspace transforming by its identity representation."""
    rep = primed_rep_matrix if primed else rep_matrix
    mats = [rep(f, h) for h in cyclic_elements(f.n)]
    return tuple(tuple(sum(entries) / f.n for entries in zip(*rows)) for rows in zip(*mats))


def canonical_unit(v) -> tuple[float, ...]:
    """v / |v| with its first entry of modulus above SPECTRUM_TOL made
    positive: the sign rule of every fixed vector.  A zero vector gives NaNs."""
    norm = _norm(v)
    unit = [x / norm if norm else math.nan for x in v]
    lead = next((x for x in unit if abs(x) > SPECTRUM_TOL), 1.0)
    return tuple(math.copysign(1.0, lead) * x for x in unit)


def fixed_subspace(f: Partition) -> Matrix:
    """Orthonormal basis, one column each, of the eigenvalue-1 eigenspace of
    the Coxeter element of S(n) in representation f: the column space of the
    C_n average P, spanned by pivoted Gram-Schmidt over P's columns (each step
    takes the column of largest residual norm, the first of equals).  Its
    dimension is the trivial branching multiplicity.  The margin is the
    largest of |P b - b| over the basis vectors b and the residual norm of
    the columns left over."""
    p = trivial_projector(f)
    expected = trivial_multiplicity(f)
    residual = [list(col) for col in zip(*p)]
    basis = []
    for _ in range(expected):
        norms = [_norm(col) for col in residual]
        k = norms.index(max(norms))
        if norms[k] <= SPECTRUM_TOL:
            break
        b = canonical_unit(residual[k])
        for col in residual:
            overlap = _dot(b, col)
            col[:] = [x - overlap * y for x, y in zip(col, b)]
        basis.append(b)
    margin = max([_norm([_dot(row, b) - x for row, x in zip(p, b)]) for b in basis]
                 + [_norm(col) for col in residual])
    if margin > SPECTRUM_TOL or len(basis) != expected:
        raise ConsistencyError(
            f"fixed space of {f} has dimension {len(basis)}, character theory demands "
            f"{expected}; |P b - b| and leftover columns reach margin {margin:.3g}"
        )
    return tuple(tuple(b[i] for b in basis) for i in range(len(p)))
