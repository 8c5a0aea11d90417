"""Exact symmetric-group machinery: partitions, permutations, characters.

Characters are computed with the Murnaghan-Nakayama recursion in integer
arithmetic, so every table entry and branching multiplicity is exact.  The
character of a class of S(n) on the degree-2j harmonics of R^(n-1) is read
off its cycle type alone, in integers, from the Molien series of S(n)
(Stanley, Bull. AMS 1 (1979) 475).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


class ConsistencyError(RuntimeError):
    """An exactness check failed; indicates a bug, never bad user input."""


@dataclass(frozen=True, order=True)
class Partition:
    """Weakly decreasing positive integers labelling an irreducible
    representation of S(n), n = sum of the parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("partition needs at least one part")
        if any(p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {self.parts}")

    @classmethod
    def of(cls, *parts: int) -> Partition:
        return cls(tuple(parts))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "[" + "".join(str(p) for p in self.parts) + "]"

    def conjugate(self) -> Partition:
        cols = [sum(1 for p in self.parts if p > i) for i in range(self.parts[0])]
        return Partition(tuple(cols))

    @property
    def dimension(self) -> int:
        """Number of standard tableaux, by the hook length formula."""
        conj = self.conjugate().parts
        hooks = 1
        for i, row in enumerate(self.parts):
            for j in range(row):
                hooks *= (row - j) + (conj[j] - i) - 1
        return math.factorial(self.n) // hooks

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


@dataclass(frozen=True)
class CycleType:
    """Conjugacy-class label of S(n): the multiset of cycle lengths."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        Partition(self.parts)  # same validity conditions

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


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}, stored in one-line notation.

    Products compose left to right: ``(p * q)(x) == q(p(x))``, i.e. the left
    factor acts first.  This matches how strings of transpositions such as
    (1,2)(2,3)(3,4)(4,5) are read throughout the package.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..n: {self.images}")

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

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> Permutation:
        return cls.from_cycles(n, [(i, j)])

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        if self.n != other.n:
            raise ValueError("permutations act on different sets")
        return Permutation(tuple(other.images[i - 1] for i in self.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for i, x in enumerate(self.images):
            inv[x - 1] = i + 1
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, each starting at its smallest point."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def parity(self) -> int:
        """0 for even, 1 for odd."""
        lengths = self.cycle_type().parts
        return sum(length - 1 for length in lengths) % 2

    def sign(self) -> int:
        return -1 if self.parity() else 1

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


def full_cycle(n: int) -> Permutation:
    return Permutation.from_cycles(n, [tuple(range(1, n + 1))])


def cyclic_elements(n: int) -> list[Permutation]:
    """The n powers of the full cycle (1,2,...,n); last element is the identity."""
    if n < 2:
        raise ValueError("need n >= 2")
    g = full_cycle(n)
    out = [g]
    for _ in range(n - 1):
        out.append(out[-1] * g)
    return out


def cycle_type(p: Permutation) -> CycleType:
    return p.cycle_type()


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


@dataclass(frozen=True)
class CharacterTable:
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
    C_n < S(n) (generated by the full cycle) in the restriction of f."""
    n = f.n
    total = sum(character(f, h.cycle_type()) for h in cyclic_elements(n))
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


@lru_cache(maxsize=None)
def _molien_terms(k: CycleType) -> tuple[int, int, tuple[tuple[tuple[int, int], ...], ...]]:
    """The Molien series (1-t)(1-t^2) / prod_c (1-t^c) of the class k, c over
    its cycle lengths, written as M(t) / (1-t^P)^r with P the lcm of the c
    and r their number: returns P, r and the nonzero terms (i, M_i) of the
    integer polynomial M grouped by i mod P."""
    period, r = math.lcm(*k.parts), len(k.parts)
    poly = [1, -1, -1, 1]  # (1-t)(1-t^2)
    for c in k.parts:  # times (1-t^P)/(1-t^c) = 1 + t^c + ... + t^(P-c)
        out = [0] * (len(poly) + period - c)
        for i, a in enumerate(poly):
            for shift in range(0, period, c):
                out[i + shift] += a
        poly = out
    groups: list[list[tuple[int, int]]] = [[] for _ in range(period)]
    for i, a in enumerate(poly):
        if a:
            groups[i % period].append((i, a))
    return period, r, tuple(map(tuple, groups))


def class_character(k: CycleType, two_j: int) -> int:
    """Exact character of the class k of S(n) on the degree-2j harmonics of
    R^(n-1): the coefficient of t^(2j) in its Molien series,
    sum over i = 2j (mod P), i <= 2j of M_i C((2j-i)/P + r-1, r-1)."""
    if two_j < 0:
        raise ValueError("two_j must be non-negative")
    period, r, groups = _molien_terms(k)
    return sum(
        a * math.comb((two_j - i) // period + r - 1, r - 1)
        for i, a in groups[two_j % period] if i <= two_j
    )
