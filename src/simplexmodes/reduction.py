"""Branching multiplicities along the three chains

    O(2) > S(3) > C_3,   O(3) > S(4) > C_4,   O(4) > S(5) > C_5.

Each multiplicity is a character inner product in integers.  S(n) acts on
the degree-d harmonics of R^(n-1), and every class character is the integer
Molien coefficient `permgroup.class_character`, read off the cycle type.
Each table reads one `permgroup.class_column` per class, all its degrees at
once, and builds each printed column, the multiplicities, the periodic count
and, on O(2), the trace of a transposition, by which O(2) splits each degree,
as an integer combination of class columns with one exact division pass.
The periodic column is an independent route: the C_n average of the class
characters over the powers of the full cycle.  A character sum that the
group order does not divide raises ConsistencyError.  `_row` is the
per-degree route, from `class_character`, of `modes` and the increment rule.
`table_checks` audits every row against the one dimension formula
dim H_d(R^(n-1)) = C(d+n-2, n-2) - C(d+n-4, n-2), the second term 0 for
d+n-4 < 0, and the increment of every row over the period lcm(1..n).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import compress, count, repeat
from operator import add, floordiv, mod, mul, sub
from typing import NamedTuple

from .permgroup import (
    CycleType,
    Partition,
    character,
    class_character,
    class_column,
    cyclic_elements,
    exact_quotient,
    partitions_of,
    trivial_multiplicity,
)
from .report import check


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[CycleType, ...]:
    return tuple(CycleType(p.parts) for p in partitions_of(n))


@lru_cache(maxsize=None)
def _class_weights(f: Partition) -> tuple[int, ...]:
    """|k| chi_f(k) for each class k of S(n) in `_classes` order."""
    return tuple(k.class_size * character(f, k) for k in _classes(f.n))


@lru_cache(maxsize=None)
def _cyclic_weights(n: int) -> tuple[int, ...]:
    """How many powers of the full cycle of S(n) lie in each class of `_classes`."""
    counts = Counter(p.cycle_type() for p in cyclic_elements(n))
    return tuple(counts[k] for k in _classes(n))


def _weighted(weights, cols) -> list[int]:
    """sum_k weights[k] cols[k], entry by entry."""
    total = repeat(0, len(cols[0]))
    for w, col in zip(weights, cols):
        if w:
            total = map(add, total, map(w.__mul__, col))
    return list(total)


def _combine(weights, cols, order: int, what: str, *args, start: int = 0) -> list[int]:
    """(1/order) sum_k weights[k] cols[k] at every degree d = start, start + 1, ...
    in integers: one exact division pass, which raises ConsistencyError at the
    first degree that `order` does not divide, naming `what % (*args, d)`."""
    total = _weighted(weights, cols)
    for i in compress(range(len(total)), map(mod, total, repeat(order))):
        exact_quotient(total[i], order, what, *args, start + i)
    return list(map(floordiv, total, repeat(order)))


def _columns(parts, top: int, start: int = 0) -> tuple[list[list[int]], list[list[int]]]:
    """The class columns of S(n) for d = start..top and, from them, the
    multiplicity column of each partition in `parts`."""
    n = parts[0].n
    cols = [class_column(k, top)[start:] for k in _classes(n)]
    return cols, [_combine(_class_weights(f), cols, math.factorial(n), "m(%s) at degree %d", f,
                           start=start) for f in parts]


def harmonic_dimension(n: int, degree: int) -> int:
    """dim H_d(R^(n-1)) = C(d+n-2, n-2) - C(d+n-4, n-2), the second term 0
    for d+n-4 < 0: 2l+1 for S(4) and (2j+1)^2 for S(5)."""
    drop = math.comb(degree + n - 4, n - 2) if degree + n >= 4 else 0
    return math.comb(degree + n - 2, n - 2) - drop


def _row(degree: int, parts) -> tuple[int, ...]:
    """The multiplicities of `parts` at one degree, from its class characters:
    (1/n!) sum_k |k| chi_f(k) chi_d(k) over the classes k of S(n)."""
    n = parts[0].n
    chars = [class_character(k, degree) for k in _classes(n)]
    return tuple(exact_quotient(sum(map(mul, _class_weights(f), chars)), math.factorial(n),
                                "m(%s) at degree %d", f, degree) for f in parts)


def _deviation(column, expected) -> int:
    """Largest |column[d] - expected[d]| over the rows d of `column`."""
    return max(map(abs, map(sub, column, expected)))


def _audit(cols, parts) -> int:
    """Largest |sum_f m_f dim(f) - dim H_d(R^(n-1))| over the rows d = 0, 1, ...
    of the multiplicity columns `cols`."""
    n = parts[0].n
    return _deviation(_weighted([f.dimension for f in parts], cols),
                      map(harmonic_dimension, repeat(n), range(len(cols[0]))))


def _increment_rule(parts) -> tuple[int, list[tuple[int, int]]]:
    """The period P = lcm(1..n) and, for each f in `parts`, the slope and
    intercept in d of m_f(d+P) - m_f(d), a quasi-polynomial by Molien
    (Stanley, Bull. AMS 1 (1979) 475).  A class with c cycles has a pole of
    order c - 2 at t = 1 and, for n <= 5, at most simple poles elsewhere, at
    roots of unity whose orders divide P.  So only the classes with at least
    four cycles add to the increment, each chi(d+P) - chi(d), of degree
    c - 4 <= 1 in d: read off at d = 0 and 1."""
    n = parts[0].n
    period = math.lcm(*range(1, n + 1))
    at = [[exact_quotient(sum(w * (class_character(k, d + period) - class_character(k, d))
                              for w, k in zip(_class_weights(f), _classes(n))
                              if len(k.parts) >= 4),
                          math.factorial(n), "increment of m(%s) at degree %d", f, d)
           for f in parts] for d in (0, 1)]
    return period, [(at1 - at0, at0) for at0, at1 in zip(*at)]


def _increment(cols, parts) -> tuple[int, int]:
    """The period P and the largest |m_f(d+P) - m_f(d) - rule_f(d)| over the
    rows d = 0, 1, ... of the multiplicity columns `cols`; the min(P, rows)
    rows past the table are read from class columns extended to rows + P."""
    period, rule = _increment_rule(parts)
    rows = len(cols[0])
    past = _columns(parts, rows + period - 1, max(period, rows))[1]
    return period, max(_deviation(map(sub, [*col[period:], *extra], col), count(icpt, slope))
                       for col, extra, (slope, icpt) in zip(cols, past, rule))


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


def lattice_count_o4(two_j: int) -> int:
    """#{(a, b) in {-2j, -2j+2, ..., 2j}^2 : 3a + b = 0 (mod 10)}: the harmonics
    that the deck generator fixes in its diagonal frame, counted in integers
    without characters.

    a and b share the parity of 2j, so 3a + b is even and the condition is
    b = 2a (mod 5).  The residues mod 5 of -2j + 2k repeat with period 5 in
    k, so each residue r is taken q + e_r times, (q, s) = divmod(2j+1, 5), with
    e_r = 1 for the s residues of -2j + 2k, k < s, and 0 for the others.  As
    r -> 2r permutes the residues, the count sum_r (q + e_r)(q + e_2r) is
    5q^2 + 2sq + #{r : e_r = e_2r = 1}, and that last term is 1, 0, 1, 4, 0
    for 2j = 0, 1, 2, 3, 4 (mod 5).
    """
    if two_j < 0:
        raise ValueError("two_j must be non-negative")
    q, s = divmod(two_j + 1, 5)
    return 5 * q * q + 2 * s * q + (1, 0, 1, 4, 0)[two_j % 5]


# ------------------------------------------------------------------- tables

class MultiplicityTable(NamedTuple):
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
    """Reduction rows for the O(2) labels m = 0 and (m, eps), 0 < m <= m_max.
    The pair (m, +), (m, -) spans the degree-m harmonics H_m of R^2, and a
    transposition of S(3) acts on (m, eps) by eps; m = 0 takes eps = +.  Row
    (m, eps) holds f when m_f(m) > 0 and the eps-eigenspace of a transposition
    in f, of dimension (dim f + eps chi_f((2)(1))) / 2, is not empty.  Its
    periodic count is the dimension of the C_3-fixed part of the eps-eigenspace
    on H_m, (C_3 average + eps chi_m((2)(1))) / 2."""
    parts, swap = tuple(partitions_of(3)), CycleType((2, 1))
    (cols, mults), at_swap = _columns(parts, m_max), _classes(3).index(swap)
    rows, fixed = {}, {}
    for eps in (1, -1):
        signed = [f.dimension + eps * character(f, swap) > 0 for f in parts]
        rows[eps] = list(zip(*([int(v > 0 and s) for v in col] for col, s in zip(mults, signed))))
        # (C_3 average + eps chi_swap) / 2 = (sum_k c_k chi_k + 3 eps chi_swap) / 6
        weights = [c + 3 * eps * (i == at_swap) for i, c in enumerate(_cyclic_weights(3))]
        fixed[eps] = _combine(weights, cols, 6, "C_3-fixed part of eps=%+d at m=%d", eps)
    picks = [(1, 0)] + [(eps, m) for m in range(1, m_max + 1) for eps in (1, -1)]
    labels = tuple(f"m={m},eps={'+' if eps == 1 else '-'}" if m else "m=0" for eps, m in picks)
    return MultiplicityTable("o2s3c3", labels, parts, tuple(rows[eps][m] for eps, m in picks),
                             tuple(fixed[eps][m] for eps, m in picks))


def _degree_table(chain: str, top: int, parts: tuple[Partition, ...], label,
                  totals: bool = False) -> MultiplicityTable:
    """Rows d = 0..top of the degree-d harmonics, labelled label(d), with the
    periodic count of each row as the C_n average of its class characters;
    with `totals`, also each partition's periodic modes m_f w_f over all rows
    and the grand total of the periodic column."""
    n = parts[0].n
    cols, mults = _columns(parts, top)
    periodic = tuple(_combine(_cyclic_weights(n), cols, n, "C_%d average at degree %d", n))
    extra = ()
    if totals:
        extra = (tuple(sum(col) * trivial_multiplicity(f) for f, col in zip(parts, mults)),
                 sum(periodic))
    return MultiplicityTable(chain, tuple(map(label, range(top + 1))), parts,
                             tuple(zip(*mults)), periodic, *extra)


def o3_multiplicity_table(l_max: int) -> MultiplicityTable:
    """Reduction rows for O(3) labels (l, (-1)^l) with l <= l_max; only
    these parities occur on single-valued spherical harmonics."""
    return _degree_table("o3s4c4", l_max, tuple(partitions_of(4)),
                         lambda l: f"(l={l},kappa={'+' if l % 2 == 0 else '-'})")


def o4_multiplicity_table(two_j_max: int) -> MultiplicityTable:
    """Reduction table for degrees 2j = 0..two_j_max, with the per-partition
    totals row (periodic modes attributable to each partition) and the
    grand total of periodic modes."""
    return _degree_table("o4s5c5", two_j_max, S5_PARTITION_ORDER, str, totals=True)


#: the dimension rule and the degree-increment rule that each degree chain reports
_RULES = {
    "o3s4c4": ("sum dim(f)*m = 2l+1", "m_f(l+12) - m_f(l) = dim f"),
    "o4s5c5": ("sum dim(f)*m = (2j+1)^2",
               "m_f(2j+60) - m_f(2j) = (2j+31) dim f + 5 chi_f((2)(1)^3)"),
}


def table_checks(table: MultiplicityTable) -> list[dict]:
    """The exact checks of one `reduce` table, each passing at residual 0:
    the dimension audit and the degree increment of the degree chains,
    periodic = sum_f m_f w_f on every chain, and the lattice count on O(4)."""
    checks, cols = [], list(zip(*table.entries))
    if table.chain in _RULES:
        audit_rule, increment_rule = _RULES[table.chain]
        checks.append(check("dimension_audit", _audit(cols, table.partitions), 0,
                            detail=audit_rule))
        period, residual = _increment(cols, table.partitions)
        checks.append(check(f"degree_{period}_increment", residual, 0, detail=increment_rule))
    weights = [trivial_multiplicity(f) for f in table.partitions]
    checks.append(check("periodic_equals_weighted_sum",
                        _deviation(table.periodic, _weighted(weights, cols)), 0))
    if table.chain == "o4s5c5":
        lattice = _deviation(table.periodic, map(lattice_count_o4, range(len(table.periodic))))
        checks.append(check("periodic_equals_lattice_count", lattice, 0,
                            detail="#{(a, b) in {-2j, -2j+2, .., 2j}^2 : 3a + b = 0 mod 10}"))
    return checks
