"""Young orthogonal representations of S(n) and their cyclic-invariant vectors.

A standard tableau is its Yamanouchi word, and generator matrices are
produced from the axial-distance rule on its contents (Okounkov & Vershik,
Selecta Math. 2 (1996) 581), never transcribed.  Basis order follows the
tableau enumerations used by the embedded reference tables (descending
words unless an explicit enumeration overrides it), so matrices and fixed
vectors can be compared positionally with the golden data.  The golden
gate needs them only up to 6 x 6, so they are built in plain Python:
every matrix is a tuple of rows of floats.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

from .permgroup import Partition, Permutation, cyclic_elements, trivial_multiplicity
from .report import SPECTRUM_TOL, ConsistencyError

Matrix = tuple[tuple[float, ...], ...]  # a tuple of rows


@lru_cache(maxsize=None)
def _words(shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Yamanouchi words of a shape in descending order: the word of a standard
    tableau lists the rows (1-based) of n, n-1, ..., 1, and the row of n is a
    removable corner; zero parts stand for emptied rows."""
    if not any(shape):
        return ((),)
    out: list[tuple[int, ...]] = []
    for r in range(len(shape), 0, -1):
        if shape[r - 1] > (shape[r] if r < len(shape) else 0):
            smaller = shape[:r - 1] + (shape[r - 1] - 1,) + shape[r:]
            out += [(r,) + w for w in _words(smaller)]
    return tuple(out)


def _contents(word: tuple[int, ...]) -> tuple[int, ...]:
    """Content (column - row, 0-based) of the box holding each value 1..n
    in the tableau of a Yamanouchi word."""
    filled: dict[int, int] = {}
    out = []
    for r in reversed(word):
        out.append(filled.get(r, 0) - (r - 1))
        filled[r] = filled.get(r, 0) + 1
    return tuple(out)


# Basis enumerations fixed by the reference tables where they differ from the
# descending-word default (keys are shapes, values Yamanouchi words).
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


def _basis(shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The Yamanouchi words of a shape in basis order."""
    return _EXPLICIT_ORDER.get(shape) or _words(shape)


@lru_cache(maxsize=None)
def _generators(shape: tuple[int, ...]) -> tuple[Matrix, ...]:
    """Images of (1,2), ..., (n-1,n), read off the contents alone: with
    rho = c(i+1) - c(i), word w gets 1/rho on the diagonal and, where
    |rho| > 1 (i and i+1 share no row or column), sqrt(1 - 1/rho^2) at w
    with i and i+1 swapped."""
    words = _basis(shape)
    index = {w: k for k, w in enumerate(words)}
    contents = [_contents(w) for w in words]
    d, n = len(words), len(words[0])
    signs = _BASIS_SIGNS.get(shape, (1.0,) * d)
    out = []
    for i in range(1, n):
        mat = [[0.0] * d for _ in range(d)]
        for k, (w, c) in enumerate(zip(words, contents)):
            rho = c[i] - c[i - 1]
            mat[k][k] = 1.0 / rho
            if abs(rho) > 1:
                # i sits at position n-i of the word, i+1 just before it
                swapped = w[:n - i - 1] + (w[n - i], w[n - i - 1]) + w[n - i + 1:]
                mat[k][index[swapped]] = math.sqrt(1.0 - 1.0 / rho**2)
        out.append(tuple(tuple(signs[a] * mat[a][b] * signs[b] for b in range(d))
                         for a in range(d)))
    return tuple(out)


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
    return _generators(f.parts)[i - 1]


def _along(gens: Sequence[Matrix], dim: int, p: Permutation) -> Matrix:
    """Product of the images gens[i-1] of the adjacent factors i of p, in
    order, starting from the dim x dim identity."""
    mat = _identity(dim)
    for i in p.adjacent_factors():
        mat = _product(mat, gens[i - 1])
    return mat


def rep_matrix(f: Partition, p: Permutation) -> Matrix:
    """Matrix of an arbitrary permutation, as the product of generator
    matrices along an adjacent-transposition factorization (the left factor
    of a permutation product acts first, matching Permutation.__mul__)."""
    if p.n != f.n:
        raise ValueError(f"permutation of {p.n} letters for partition of {f.n}")
    return _along(_generators(f.parts), f.dimension, p)


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
    return _along([_scaled(sign, m) for m in _PRIMED_31], 3, p)


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
