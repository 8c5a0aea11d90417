"""Young orthogonal representations of S(n) and their cyclic-invariant vectors.

Generator matrices are produced from the axial-distance rule, never
transcribed.  Basis order follows the tableau enumerations used by the
embedded reference tables (descending last-letter order unless an explicit
enumeration overrides it), so matrices and eigenvectors can be compared
positionally with the golden data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .permgroup import (
    ConsistencyError,
    Partition,
    Permutation,
    cyclic_elements,
    trivial_multiplicity,
)

SPECTRUM_TOL = 1e-9  # of generator phases and of every integer_eigenspaces margin


@dataclass(frozen=True)
class StandardTableau:
    """Standard Young tableau: rows strictly increase left-right and top-down."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    @property
    def yamanouchi(self) -> tuple[int, ...]:
        """Row indices (1-based) of n, n-1, ..., 1; determines the tableau."""
        where = self._positions()
        return tuple(where[v][0] + 1 for v in range(self.n, 0, -1))

    @property
    def contents(self) -> tuple[int, ...]:
        """Content (column - row) of the box holding each value 1..n."""
        return tuple(c - r for r, c in map(self.position, range(1, self.n + 1)))

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

    def __str__(self) -> str:
        return "/".join(",".join(str(v) for v in row) for row in self.rows)


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


def standard_tableaux(f: Partition) -> list[StandardTableau]:
    """All standard tableaux of shape f, in the package basis order."""
    return list(_ordered_tableaux(f.parts))


@dataclass(frozen=True)
class ReprMatrix:
    """Orthogonal representation matrix tagged with its partition."""

    shape: Partition
    matrix: np.ndarray


@dataclass(frozen=True)
class FixedSubspace:
    """Orthonormal basis of the eigenvalue-1 eigenspace of the Coxeter
    element; its dimension equals the trivial branching multiplicity."""

    shape: Partition
    basis: np.ndarray  # (dimension of rep) x (multiplicity)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@lru_cache(maxsize=None)
def _generator_array(shape: tuple[int, ...], i: int) -> np.ndarray:
    tableaux = _ordered_tableaux(shape)
    index = {t: k for k, t in enumerate(tableaux)}
    d = len(tableaux)
    mat = np.zeros((d, d))
    for k, tab in enumerate(tableaux):
        r1, c1 = tab.position(i)
        r2, c2 = tab.position(i + 1)
        if r1 == r2:
            mat[k, k] = 1.0
        elif c1 == c2:
            mat[k, k] = -1.0
        else:
            # signed axial distance between i and i+1
            rho = (c2 - r2) - (c1 - r1)
            mat[k, k] = 1.0 / rho
            mat[k, index[tab.swap(i, i + 1)]] = math.sqrt(1.0 - 1.0 / rho**2)
    signs = _BASIS_SIGNS.get(shape)
    if signs is not None:
        s = np.diag(signs)
        mat = s @ mat @ s
    return mat


def generator_matrix(f: Partition, i: int) -> ReprMatrix:
    """Matrix of the adjacent transposition (i, i+1) for partition f."""
    n = f.n
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    return ReprMatrix(f, _generator_array(f.parts, i).copy())


def _rep_array(shape: tuple[int, ...], p: Permutation) -> np.ndarray:
    d = len(_ordered_tableaux(shape))
    mat = np.eye(d)
    for i in p.adjacent_factors():
        mat = mat @ _generator_array(shape, i)
    return mat


def rep_matrix(f: Partition, p: Permutation) -> ReprMatrix:
    """Matrix of an arbitrary permutation, as the product of generator
    matrices along an adjacent-transposition factorization (the left factor
    of a permutation product acts first, matching Permutation.__mul__)."""
    if p.n != f.n:
        raise ValueError(f"permutation of {p.n} letters for partition of {f.n}")
    return ReprMatrix(f, _rep_array(f.parts, p))


# --- the primed (tetrahedral) 3x3 representation of S(4) ---

_PRIMED_31 = (
    np.array([[1.0, 0, 0], [0, 0, -1], [0, -1, 0]]),
    np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]]),
    np.array([[1.0, 0, 0], [0, 0, 1], [0, 1, 0]]),
)

_PRIMED_SHAPES = {(3, 1): 1.0, (2, 1, 1): -1.0}


def tetrahedral_primed_generators() -> list[ReprMatrix]:
    """Generators (1,2), (2,3), (3,4) of S(4) in the 3-dimensional
    tetrahedral-axis basis: first the three matrices for partition [31],
    then their negatives, which realize the associate partition [211]."""
    out = [ReprMatrix(Partition.of(3, 1), m.copy()) for m in _PRIMED_31]
    out += [ReprMatrix(Partition.of(2, 1, 1), -m) for m in _PRIMED_31]
    return out


def primed_rep_matrix(f: Partition, p: Permutation) -> ReprMatrix:
    """Matrix of a permutation of S(4) in the primed tetrahedral basis."""
    sign = _PRIMED_SHAPES.get(f.parts)
    if sign is None:
        raise ValueError(f"no primed representation for partition {f}")
    mat = np.eye(3)
    for i in p.adjacent_factors():
        mat = mat @ (sign * _PRIMED_31[i - 1])
    return ReprMatrix(f, mat)


def trivial_projector(f: Partition, primed: bool = False) -> ReprMatrix:
    """Group average over the cyclic subgroup C_n: the orthogonal projector
    onto the subspace transforming by its identity representation."""
    rep = primed_rep_matrix if primed else rep_matrix
    n = f.n
    mats = [rep(f, h).matrix for h in cyclic_elements(n)]
    return ReprMatrix(f, sum(mats) / n)


def _canonical_columns(basis: np.ndarray) -> np.ndarray:
    """Flip column signs so the first significant entry is positive."""
    out = basis.copy()
    for col in range(out.shape[1]):
        for v in out[:, col]:
            if abs(v) > 1e-9:
                if v < 0:
                    out[:, col] = -out[:, col]
                break
    return out


def integer_eigenspaces(h: np.ndarray, lo: int, hi: int) -> tuple[dict[int, np.ndarray], float]:
    """Orthonormal eigenvectors of a Hermitian matrix with spectrum in the
    integers lo..hi, for each c in lo..hi (empty where c is no eigenvalue), and
    the margin: the largest distance of an eigenvalue from its rounded value."""
    vals, vecs = np.linalg.eigh(h)
    ints = np.clip(np.rint(vals), lo, hi)
    margin = float(np.abs(vals - ints).max(initial=0.0))
    return {c: vecs[:, ints == c] for c in range(lo, hi + 1)}, margin


def fixed_subspace(f: Partition) -> FixedSubspace:
    """Orthonormal basis of the eigenvalue-1 eigenspace of the Coxeter
    element of S(n) in representation f: the 1-eigenspace of the C_n average,
    whose spectrum is 0 and 1."""
    blocks, margin = integer_eigenspaces(trivial_projector(f).matrix, 0, 1)
    basis = _canonical_columns(blocks[1])
    expected = trivial_multiplicity(f)
    if margin > SPECTRUM_TOL or basis.shape[1] != expected:
        raise ConsistencyError(
            f"fixed space of {f} has dimension {basis.shape[1]}, character theory "
            f"demands {expected}; projector eigenvalues off 0 and 1 by margin {margin:.3g}"
        )
    return FixedSubspace(f, basis)
