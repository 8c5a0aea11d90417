"""Branching multiplicities along the three chains

    O(2) > S(3) > C_3,   O(3) > S(4) > C_4,   O(4) > S(5) > C_5.

Each multiplicity is a character inner product in integers.  Every class
character is the integer Molien coefficient `permgroup.class_character`,
read off the cycle type; O(3) labels (l, kappa) twist it by kappa (-1)^l on
the odd classes.  A character sum that the group order does not divide
raises ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .permgroup import (
    CLASS_ORDER_S5,
    ConsistencyError,
    CycleType,
    Partition,
    character,
    class_character,
    exact_quotient,
    partitions_of,
    trivial_multiplicity,
)


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[CycleType, ...]:
    return tuple(CycleType(p.parts) for p in partitions_of(n))


@lru_cache(maxsize=None)
def _class_weights(f: Partition) -> dict[CycleType, int]:
    """|k| chi_f(k) for each class k of S(n): m_f = sum_k weight * chi(k) / n!."""
    return {k: k.class_size * character(f, k) for k in _classes(f.n)}


def _character_sum(chars: dict[CycleType, int], f: Partition) -> int:
    """n! times the multiplicity of f in the representation with class
    characters `chars`."""
    return sum(w * chars[k] for k, w in _class_weights(f).items())


# ---------------------------------------------------------------- O(2) chain

@dataclass(frozen=True)
class O2Label:
    """Irreducible representation label of O(2): |angular index| m, and for
    m > 0 the reflection symmetry epsilon of the symmetrized Fourier pair."""

    m: int
    epsilon: int | None = None

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("m must be non-negative")
        if self.m == 0 and self.epsilon is not None:
            raise ValueError("epsilon is undefined for m = 0")
        if self.m > 0 and self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1 for m > 0")

    @property
    def nu(self) -> int:
        return self.m % 3


def o2_reduce(label: O2Label) -> tuple[Partition, int]:
    """S(3) partition carried by an O(2) label, and the number of times the
    trivial C_3 representation occurs in it (the selection rule)."""
    if label.m == 0:
        return Partition.of(3), 1
    if label.nu == 0:
        if label.epsilon == 1:
            return Partition.of(3), 1
        return Partition.of(1, 1, 1), 1
    return Partition.of(2, 1), 0


# ---------------------------------------------------------------- O(3) chain

@dataclass(frozen=True)
class O3Label:
    """Irreducible representation label (l, kappa) of O(3) = SO(3) x {1, P}."""

    l: int
    kappa: int

    def __post_init__(self) -> None:
        if self.l < 0:
            raise ValueError("l must be non-negative")
        if self.kappa not in (1, -1):
            raise ValueError("kappa must be +1 or -1")


S4_PARTITION_ORDER = tuple(
    Partition(p) for p in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
)


def _o3_row(label: O3Label, parts) -> tuple[int, ...]:
    """Multiplicities of the S(4) partitions `parts` in (l, kappa).  On the
    degree-l harmonics P acts as (-1)^l, so an odd class, an inversion times
    a rotation, takes the extra sign kappa (-1)^l."""
    twist = label.kappa * (-1) ** label.l
    chars = {
        k: class_character(k, label.l) * twist ** ((k.n - len(k.parts)) % 2)
        for k in _classes(4)
    }
    return tuple(
        exact_quotient(_character_sum(chars, f), 24, "m((%d,%d),%s)", label.l, label.kappa, f)
        for f in parts
    )


def multiplicity_o3_s4(label: O3Label, f: Partition) -> int:
    """Number of times S(4) partition f occurs in the restriction of the
    O(3) representation (l, kappa), from first principles."""
    if f.n != 4:
        raise ValueError(f"expected a partition of 4, got {f}")
    return _o3_row(label, (f,))[0]


# ---------------------------------------------------------------- O(4) chain

S5_PARTITION_ORDER = tuple(
    Partition(p)
    for p in [
        (5,),
        (1, 1, 1, 1, 1),
        (4, 1),
        (2, 1, 1, 1),
        (3, 2),
        (2, 2, 1),
        (3, 1, 1),
    ]
)


@lru_cache(maxsize=None)
def _branch_weights_s5() -> dict[Partition, int]:
    return {f: trivial_multiplicity(f) for f in S5_PARTITION_ORDER}


def _o4_row(two_j: int, parts) -> tuple[int, ...]:
    """Multiplicities of the S(5) partitions `parts` at degree 2j."""
    chars = {k: class_character(k, two_j) for k in CLASS_ORDER_S5}
    return tuple(
        exact_quotient(_character_sum(chars, f), 120, "m((j,j),%s) at 2j=%d", f, two_j)
        for f in parts
    )


def multiplicity_o4_s5(two_j: int, f: Partition) -> int:
    """Number of times S(5) partition f occurs in the restriction of the
    degree-2j harmonic representation of O(4)."""
    if f.n != 5:
        raise ValueError(f"expected a partition of 5, got {f}")
    return _o4_row(two_j, (f,))[0]


def periodic_count_o4(two_j: int) -> int:
    """Number of C_5-periodic modes of degree 2j: the branch-weighted sum
    of the partition multiplicities."""
    weights = _branch_weights_s5()
    return sum(m * w for m, w in zip(_o4_row(two_j, tuple(weights)), weights.values()))


def lattice_count_o4(two_j: int) -> int:
    """#{(a, b) in {-2j, -2j+2, ..., 2j}^2 : 3a + b = 0 (mod 10)}: the harmonics
    that the deck generator fixes in its diagonal frame, counted in integers
    without characters.

    a and b share the parity of 2j, so 3a + b is even and the condition is
    b = 2a (mod 5).  The residues mod 5 of -2j + 2k repeat with period 5 in
    k, so each residue r is taken q or q + 1 times, (q, s) = divmod(2j+1, 5).
    """
    if two_j < 0:
        raise ValueError("two_j must be non-negative")
    q, s = divmod(two_j + 1, 5)
    taken = [q] * 5
    for k in range(s):
        taken[(2 * k - two_j) % 5] += 1
    return sum(taken[r] * taken[2 * r % 5] for r in range(5))


# ------------------------------------------------------------------- tables

@dataclass(frozen=True)
class MultiplicityTable:
    """Reduction table for one chain: entries[i][j] is the multiplicity of
    partitions[j] in the representation labelled row_labels[i]; `periodic`
    counts the cyclic-invariant modes per row, `totals` per partition."""

    chain: str
    row_labels: tuple[str, ...]
    partitions: tuple[Partition, ...]
    entries: tuple[tuple[int, ...], ...]
    periodic: tuple[int, ...]
    totals: tuple[int, ...] | None = None
    grand_total: int | None = None


def o2_multiplicity_table(m_max: int) -> MultiplicityTable:
    """Reduction rows for O(2) labels with m <= m_max."""
    parts = tuple(Partition(p) for p in [(3,), (2, 1), (1, 1, 1)])
    labels: list[str] = []
    entries = []
    periodic = []
    rows: list[O2Label] = [O2Label(0)]
    for m in range(1, m_max + 1):
        rows += [O2Label(m, 1), O2Label(m, -1)]
    for lab in rows:
        f, m0 = o2_reduce(lab)
        if lab.m == 0:
            labels.append("m=0")
        else:
            labels.append(f"m={lab.m},eps={'+' if lab.epsilon == 1 else '-'}")
        entries.append(tuple(1 if f == g else 0 for g in parts))
        periodic.append(m0)
    return MultiplicityTable(
        "o2s3c3", tuple(labels), parts, tuple(entries), tuple(periodic)
    )


def o3_multiplicity_table(l_max: int) -> MultiplicityTable:
    """Reduction rows for O(3) labels (l, (-1)^l) with l <= l_max; only
    these parities occur on single-valued spherical harmonics."""
    weights = {f: trivial_multiplicity(f) for f in S4_PARTITION_ORDER}
    dims = [f.dimension for f in S4_PARTITION_ORDER]
    labels = []
    entries = []
    periodic = []
    for l in range(l_max + 1):
        kappa = 1 if l % 2 == 0 else -1
        lab = O3Label(l, kappa)
        row = _o3_row(lab, S4_PARTITION_ORDER)
        dim_sum = sum(m * d for m, d in zip(row, dims))
        if dim_sum != 2 * l + 1:
            raise ConsistencyError(
                f"dimension audit failed at l={l}: {dim_sum} != {2 * l + 1}"
            )
        labels.append(f"(l={l},kappa={'+' if kappa == 1 else '-'})")
        entries.append(row)
        periodic.append(sum(m * weights[f] for m, f in zip(row, S4_PARTITION_ORDER)))
    return MultiplicityTable(
        "o3s4c4", tuple(labels), S4_PARTITION_ORDER, tuple(entries), tuple(periodic)
    )


def o4_multiplicity_table(two_j_max: int) -> MultiplicityTable:
    """Reduction table for degrees 2j = 0..two_j_max, with the per-partition
    totals row (periodic modes attributable to each partition) and the
    grand total of periodic modes."""
    degrees = range(two_j_max + 1)
    entries = tuple(_o4_row(t, S5_PARTITION_ORDER) for t in degrees)
    weights = _branch_weights_s5()
    dims = [f.dimension for f in S5_PARTITION_ORDER]
    for two_j, row in zip(degrees, entries):
        dim_sum = sum(m * d for m, d in zip(row, dims))
        if dim_sum != (two_j + 1) ** 2:
            raise ConsistencyError(
                f"dimension audit failed at 2j={two_j}: {dim_sum}"
            )
    periodic = tuple(
        sum(m * weights[f] for m, f in zip(row, S5_PARTITION_ORDER))
        for row in entries
    )
    totals = tuple(
        sum(row[i] for row in entries) * weights[f]
        for i, f in enumerate(S5_PARTITION_ORDER)
    )
    return MultiplicityTable(
        "o4s5c5",
        tuple(str(t) for t in degrees),
        S5_PARTITION_ORDER,
        entries,
        periodic,
        totals,
        sum(periodic),
    )


# ---------------------------------------------------------------- recursion

#: the S(5) classes with at most three cycles: their Molien series has at
#: most a simple pole at t = 1, so their characters are bounded in 2j
PERIODIC_CLASSES = tuple(k for k in CLASS_ORDER_S5 if len(k.parts) <= 3)


@dataclass(frozen=True)
class PartitionRecursion:
    """Measured degree-60 multiplicity increments for one partition,
    compared with the claimed rule delta = 2j + 36."""

    partition: Partition
    samples: tuple[tuple[int, int, int], ...]  # (2j, measured, claimed)

    @property
    def claim_holds(self) -> bool:
        return all(m == c for _, m, c in self.samples)


@dataclass(frozen=True)
class RecursionReport:
    two_j_max: int
    character_period_deviation: dict[str, int] = field(repr=False)
    partitions: tuple[PartitionRecursion, ...] = ()
    dimension_audit_ok: bool = True

    @property
    def characters_periodic(self) -> bool:
        return not any(self.character_period_deviation.values())


def recursion_report(two_j_max: int) -> RecursionReport:
    """Verify the period-60 character identity for the five eligible
    classes and measure the actual degree-60 increment of every partition
    multiplicity, rather than assuming the claimed closed form.

    A class's deviation is the largest |chi(2j+60) - chi(2j)| over
    2j = 0..two_j_max-60, in exact integers."""
    if two_j_max < 60:
        raise ValueError("need two_j_max >= 60 to compare degrees 2j and 2j+60")
    starts = range(two_j_max - 60 + 1)
    deviations = {
        str(k): max(abs(class_character(k, t + 60) - class_character(k, t)) for t in starts)
        for k in PERIODIC_CLASSES
    }
    rows = [_o4_row(t, S5_PARTITION_ORDER) for t in range(two_j_max + 1)]
    partitions = tuple(
        PartitionRecursion(f, tuple((t, rows[t + 60][i] - rows[t][i], t + 36) for t in starts))
        for i, f in enumerate(S5_PARTITION_ORDER)
    )
    audit_ok = all(
        sum(m * f.dimension for m, f in zip(row, S5_PARTITION_ORDER)) == (t + 1) ** 2
        for t, row in enumerate(rows)
    )
    return RecursionReport(two_j_max, deviations, partitions, audit_ok)
