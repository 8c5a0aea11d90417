"""Exact symmetric-group machinery: partitions, permutations, characters.

Characters are computed with the Murnaghan-Nakayama recursion in integer
arithmetic, so every table entry and branching multiplicity is exact.  The
character of a class of S(n) on the degree-2j harmonics of R^(n-1) is read
off its cycle type alone, in integers, from the Molien series of S(n)
(Stanley, Bull. AMS 1 (1979) 475): all degrees up to a top by `class_column`,
with `series_column`, the expander of any poly(t) / prod_h (1-t^h) by strided
prefix sums.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, NamedTuple

from .report import ConsistencyError


class Partition(namedtuple("Partition", "parts")):
    """Weakly decreasing positive integers labelling an irreducible
    representation of S(n), n = sum of the parts."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]) -> Partition:
        if not parts:
            raise ValueError("partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def of(cls, *parts: int) -> Partition:
        return cls(tuple(parts))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "[" + "".join(str(p) for p in self.parts) + "]"

    def conjugate(self) -> Partition:
        cols = [sum(1 for p in self.parts if p > i) for i in range(self.parts[0])]
        return Partition(tuple(cols))

    @property
    def hooks(self) -> tuple[int, ...]:
        """The hook length of every box, row by row: the arm, the leg and the box."""
        conj = self.conjugate().parts
        return tuple(r - j + conj[j] - i - 1 for i, r in enumerate(self.parts) for j in range(r))

    @property
    def dimension(self) -> int:
        """Number of standard tableaux, by the hook length formula."""
        return math.factorial(self.n) // math.prod(self.hooks)

    @property
    def content_sum(self) -> int:
        """Sum of the contents (column - row) of the boxes: the scalar by which
        the sum of all transpositions acts on the f-isotypic component."""
        return sum(c - r for r, row in enumerate(self.parts) for c in range(row))


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order ([n] first)."""

    def gen(m: int, cap: int) -> Iterator[tuple[int, ...]]:
        if m == 0:
            yield ()
            return
        for first in range(min(m, cap), 0, -1):
            for rest in gen(m - first, first):
                yield (first,) + rest

    return [Partition(p) for p in gen(n, n)]


class CycleType(namedtuple("CycleType", "parts")):
    """Conjugacy-class label of S(n): the multiset of cycle lengths."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]) -> CycleType:
        Partition(parts)  # same validity conditions
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def class_size(self) -> int:
        counts = Counter(self.parts)
        denom = 1
        for length, mult in counts.items():
            denom *= length**mult * math.factorial(mult)
        return math.factorial(self.n) // denom

    def __str__(self) -> str:
        counts = Counter(self.parts)
        out = []
        for length in sorted(counts, reverse=True):
            mult = counts[length]
            out.append(f"({length})" + (f"^{mult}" if mult > 1 else ""))
        return "".join(out)


class Permutation(namedtuple("Permutation", "images")):
    """Bijection of {1..n}, stored in one-line notation.

    Products compose left to right: ``(p * q)(x) == q(p(x))``, i.e. the left
    factor acts first.  This matches how strings of transpositions such as
    (1,2)(2,3)(3,4)(4,5) are read throughout the package.
    """

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]) -> Permutation:
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..n: {images}")
        return super().__new__(cls, images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, cycles: list[tuple[int, ...]]) -> Permutation:
        """Left-to-right product of the given cycles inside S(n)."""
        p = cls.identity(n)
        for cyc in cycles:
            images = list(range(1, n + 1))
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                images[a - 1] = b
            p = p * cls(tuple(images))
        return p

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        if self.n != other.n:
            raise ValueError("permutations act on different sets")
        return Permutation(tuple(other.images[i - 1] for i in self.images))

    def cycle_type(self) -> CycleType:
        seen = [False] * (self.n + 1)
        lengths = []
        for start in range(1, self.n + 1):
            if seen[start]:
                continue
            count = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = self(x)
                count += 1
            lengths.append(count)
        return CycleType(tuple(sorted(lengths, reverse=True)))

    def adjacent_factors(self) -> list[int]:
        """Indices i with self == s_{i1} * s_{i2} * ... for s_i = (i,i+1).

        Found by bubble-sorting the one-line word; the left factor acts
        first, consistent with ``__mul__``.
        """
        word = list(self.images)
        factors = []
        moved = True
        while moved:
            moved = False
            for i in range(len(word) - 1):
                if word[i] > word[i + 1]:
                    word[i], word[i + 1] = word[i + 1], word[i]
                    factors.append(i + 1)
                    moved = True
        return factors


def coxeter_element(n: int) -> Permutation:
    """Product (1,2)(2,3)...(n-1,n) of all adjacent transpositions.

    Generates the cyclic subgroup of S(n) spanned by the full cycle.
    """
    return Permutation.from_cycles(n, [(i, i + 1) for i in range(1, n)])


def cyclic_elements(n: int) -> list[Permutation]:
    """The powers g, g^2, ..., g^n = identity of the full cycle g = (1,2,...,n),
    the inverse of the Coxeter element c: g^k = c^(n-k)."""
    if n < 2:
        raise ValueError("need n >= 2")
    c = coxeter_element(n)
    powers = [Permutation.identity(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] * c)
    return powers[:0:-1] + powers[:1]


@lru_cache(maxsize=None)
def _mn(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion over border strips, via beta numbers."""
    if not rho:
        return 1 if not lam else 0
    strip = rho[0]
    length = len(lam)
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        mu = tuple(new_beta[i] - (length - 1 - i) for i in range(length))
        mu = tuple(x for x in mu if x > 0)
        total += (-1) ** height * _mn(mu, rho[1:])
    return total


def character(f: Partition, k: CycleType) -> int:
    """Exact character of S(n) for partition f at class k."""
    if f.n != k.n:
        raise ValueError(f"partition of {f.n} paired with class of {k.n}")
    return _mn(f.parts, k.parts)


class CharacterTable(NamedTuple):
    """Full character table of S(n); rows are partitions, columns classes."""

    n: int
    partitions: tuple[Partition, ...]
    cycle_types: tuple[CycleType, ...]
    values: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return math.factorial(self.n)

    def entry(self, f: Partition, k: CycleType) -> int:
        return self.values[self.partitions.index(f)][self.cycle_types.index(k)]

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(k.class_size for k in self.cycle_types)


def character_table(n: int) -> CharacterTable:
    """Character table of S(n) for n >= 2, partitions in reverse-lex order."""
    if n < 2:
        raise ValueError(f"character_table needs n >= 2, got {n}")
    parts = partitions_of(n)
    classes = [CycleType(p.parts) for p in parts]
    values = tuple(
        tuple(character(f, k) for k in classes) for f in parts
    )
    return CharacterTable(n, tuple(parts), tuple(classes), values)


def exact_quotient(total: int, order: int, what: str, *args) -> int:
    """total / order for a character sum that the group order must divide;
    the error names `what % args`, formatted only when the division fails."""
    quotient, remainder = divmod(total, order)
    if remainder:
        raise ConsistencyError(f"{what % args}: {total}/{order} is not an integer")
    return quotient


def trivial_multiplicity(f: Partition) -> int:
    """Multiplicity of the identity representation of the cyclic subgroup
    C_n < S(n) (generated by the full cycle) in the restriction of f: the
    k-th power of an n-cycle has g = gcd(k, n) cycles of length n/g."""
    n = f.n
    total = sum(character(f, CycleType((n // g,) * g))
                for g in (math.gcd(k, n) for k in range(1, n + 1)))
    m = exact_quotient(total, n, "character sum over C_%d for %s", n, f)
    if m < 0:
        raise ConsistencyError(f"negative multiplicity {m} for {f}")
    return m


#: cycle types of S(5) in the row order of the embedded character table
CLASS_ORDER_S5: tuple[CycleType, ...] = tuple(
    CycleType(parts)
    for parts in [
        (1, 1, 1, 1, 1),
        (2, 1, 1, 1),
        (3, 1, 1),
        (2, 2, 1),
        (3, 2),
        (4, 1),
        (5,),
    ]
)


def series_column(poly, lengths, top: int) -> list[int]:
    """The coefficients of t^0..t^top in poly(t) / prod_h (1-t^h), h over
    `lengths`: poly divided by each 1 - t^h as a prefix sum along every residue
    class mod h (Stanley, Enumerative Combinatorics 1, sec. 4.4)."""
    if top < 0:
        raise ValueError("top must be non-negative")
    col = [*poly[:top + 1], *[0] * (top + 1 - len(poly))]
    for h in lengths:
        for s in range(min(h, top + 1)):
            col[s::h] = accumulate(col[s::h])
    return col


def class_column(k: CycleType, top: int) -> list[int]:
    """Exact character of the class k of S(n) on the degree-d harmonics of
    R^(n-1) for d = 0..top: the coefficients of its Molien series
    (1-t)(1-t^2) / prod_c (1-t^c), c over the cycle lengths of k."""
    return series_column((1, -1, -1, 1), k.parts, top)
