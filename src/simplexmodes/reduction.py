"""Branching multiplicities along the three chains, each a row of `CHAINS`:

    O(2) > S(3) > C_3,   O(3) > S(4) > C_4,   O(4) > S(5) > C_5.

S(n) acts on the degree-d harmonics of R^(n-1).  The multiplicity m_f(d) of
the irrep f is the coefficient of t^d in (1-t)(1-t^2) t^b(f) / prod_h (1-t^h),
h over the hook lengths of f and b(f) = sum_i (i-1) f_i, which
`multiplicity_column` expands for every degree up to a top by strided prefix
sums: no character and no division.  Character theory is the independent
side of the checks.  The periodic column is the C_n average of the class
characters (`permgroup.class_column`) over the powers of the full cycle, on
O(2) split by the trace of a transposition, and a class sum that the group
order does not divide raises ConsistencyError; the increment rule of m_f over
the period P = lcm(1..n) comes from their columns to P + 1.  `table_checks`
audits the rows of a chain with rules against dim H_d(R^(n-1)) =
C(d+n-2, n-2) - C(d+n-4, n-2) and their increment over P, read from the P
rows `ahead`, and the periodic column against sum_f m_f w_f and any lattice count.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from functools import lru_cache
from itertools import compress, count, islice, repeat
from operator import add, floordiv, mod, sub
from typing import NamedTuple

from .permgroup import (
    CycleType,
    Partition,
    character,
    class_column,
    cyclic_elements,
    exact_quotient,
    partitions_of,
    series_column,
    trivial_multiplicity,
)
from .report import check


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[CycleType, ...]:
    return tuple(CycleType(p.parts) for p in partitions_of(n))


def _cyclic_weights(n: int) -> Counter:
    """How many powers of the full cycle of S(n) lie in each class that holds any."""
    return Counter(p.cycle_type() for p in cyclic_elements(n))


def _weighted(weights, cols) -> list[int]:
    """sum_k weights[k] cols[k], entry by entry."""
    total = repeat(0, len(cols[0]))
    for w, col in zip(weights, cols):
        if w:
            total = map(add, total, map(w.__mul__, col))
    return list(total)


def _combine(weights: dict, cols: dict, order: int, what: str, *args) -> list[int]:
    """(1/order) sum_k weights[k] cols[k] over the classes k of `weights` at
    every degree d = 0, 1, ... in integers: one exact division pass, which
    raises ConsistencyError at the first degree that `order` does not divide,
    naming `what % (*args, d)`."""
    total = _weighted([*weights.values()], [cols[k] for k in weights])
    for d in compress(range(len(total)), map(mod, total, repeat(order))):
        exact_quotient(total[d], order, what, *args, d)
    return list(map(floordiv, total, repeat(order)))


def multiplicity_column(f: Partition, top: int) -> list[int]:
    """m_f(d) for d = 0..top: the principal specialization t^b(f) / prod_h (1-t^h)
    of the Schur function s_f (Stanley, Enumerative Combinatorics 2, Cor.
    7.21.3), the graded multiplicity of f in the polynomials, times the
    (1-t)(1-t^2) that divides out x_1 + ... + x_n and the multiples of |x|^2."""
    b = sum(i * row for i, row in enumerate(f.parts))
    return series_column((0,) * b + (1, -1, -1, 1), f.hooks, top)


def harmonic_dimension(n: int, degree: int) -> int:
    """dim H_d(R^(n-1)) = C(d+n-2, n-2) - C(d+n-4, n-2), the second term 0
    for d+n-4 < 0: 2l+1 for S(4) and (2j+1)^2 for S(5)."""
    drop = math.comb(degree + n - 4, n - 2) if degree + n >= 4 else 0
    return math.comb(degree + n - 2, n - 2) - drop


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
    c - 4 <= 1 in d: read off their class columns at d = 0 and 1."""
    n = parts[0].n
    period = math.lcm(*range(1, n + 1))
    cols = {k: class_column(k, period + 1) for k in _classes(n) if len(k.parts) >= 4}
    at = [[exact_quotient(sum(k.class_size * character(f, k) * (col[d + period] - col[d])
                              for k, col in cols.items()),
                          math.factorial(n), "increment of m(%s) at degree %d", f, d)
           for f in parts] for d in (0, 1)]
    return period, [(at1 - at0, at0) for at0, at1 in zip(*at)]


def _increment(cols, ahead, parts) -> tuple[int, int]:
    """The period P and the largest |m_f(d+P) - m_f(d) - rule_f(d)| over the
    rows d = 0, 1, ... of the multiplicity columns `cols`, with m_f(d+P) read
    from `cols` followed by the P rows `ahead` of them."""
    period, rule = _increment_rule(parts)
    return period, max(_deviation(map(sub, (col + more)[period:], col),
                                  count(icpt, slope))
                       for col, more, (slope, icpt) in zip(cols, ahead, rule))


# ------------------------------------------------------------------- chains

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


class Chain(NamedTuple):
    """One chain: name, partitions of n in table order, row label(d) of a degree
    chain, texts of the dimension and increment rules (None on O(2), whose rows
    are not degrees), whether totals print, and a character-free periodic count, or None."""

    name: str
    partitions: tuple[Partition, ...]
    label: Callable[[int], str] | None
    rules: tuple[str, str] | None
    totals: bool = False
    lattice: Callable[[int], int] | None = None


CHAINS = {chain.name: chain for chain in (
    Chain("o2s3c3", tuple(partitions_of(3)), None, None),
    Chain("o3s4c4", tuple(partitions_of(4)), lambda l: f"(l={l},kappa={'+-'[l % 2]})",
          ("sum dim(f)*m = 2l+1", "m_f(l+12) - m_f(l) = dim f")),
    Chain("o4s5c5", tuple(map(Partition, [(5,), (1, 1, 1, 1, 1), (4, 1), (2, 1, 1, 1), (3, 2),
                                          (2, 2, 1), (3, 1, 1)])), str,
          ("sum dim(f)*m = (2j+1)^2", "m_f(2j+60) - m_f(2j) = (2j+31) dim f + 5 chi_f((2)(1)^3)"),
          totals=True, lattice=lattice_count_o4),
)}


# ------------------------------------------------------------------- tables

class MultiplicityTable(NamedTuple):
    """Reduction table for one chain: entries[i][j] is the multiplicity of
    partitions[j] in the representation labelled row_labels[i]; `periodic`
    counts the cyclic-invariant modes per row, `totals` per partition; on a
    degree chain, `ahead` holds the P rows past the last, which no report prints."""

    chain: str
    row_labels: tuple[str, ...]
    partitions: tuple[Partition, ...]
    entries: tuple[tuple[int, ...], ...]
    periodic: tuple[int, ...]
    totals: tuple[int, ...] | None = None
    grand_total: int | None = None
    ahead: tuple[tuple[int, ...], ...] = ()


def o2_multiplicity_table(m_max: int) -> MultiplicityTable:
    """Reduction rows for the O(2) labels m = 0 and (m, eps), 0 < m <= m_max.
    The pair (m, +), (m, -) spans the degree-m harmonics H_m of R^2, and a
    transposition of S(3) acts on (m, eps) by eps; m = 0 takes eps = +.  Row
    (m, eps) holds f when m_f(m) > 0 and the eps-eigenspace of a transposition
    in f, of dimension (dim f + eps chi_f((2)(1))) / 2, is not empty.  Its
    periodic count is the dimension of the C_3-fixed part of the eps-eigenspace
    on H_m, (C_3 average + eps chi_m((2)(1))) / 2."""
    parts, swap, cyclic = CHAINS["o2s3c3"].partitions, CycleType((2, 1)), _cyclic_weights(3)
    mults = [multiplicity_column(f, m_max) for f in parts]
    cols = {k: class_column(k, m_max) for k in (*cyclic, swap)}
    rows, fixed = {}, {}
    for eps in (1, -1):
        signed = [f.dimension + eps * character(f, swap) > 0 for f in parts]
        rows[eps] = list(zip(*([int(v > 0 and s) for v in col] for col, s in zip(mults, signed))))
        # (C_3 average + eps chi_swap) / 2 = (sum_k c_k chi_k + 3 eps chi_swap) / 6
        weights = {**cyclic, swap: cyclic[swap] + 3 * eps}
        fixed[eps] = _combine(weights, cols, 6, "C_3-fixed part of eps=%+d at m=%d", eps)
    picks = [(1, 0)] + [(eps, m) for m in range(1, m_max + 1) for eps in (1, -1)]
    labels = tuple(f"m={m},eps={'+' if eps == 1 else '-'}" if m else "m=0" for eps, m in picks)
    return MultiplicityTable("o2s3c3", labels, parts, tuple(rows[eps][m] for eps, m in picks),
                             tuple(fixed[eps][m] for eps, m in picks))


def _degree_table(chain: Chain, top: int) -> MultiplicityTable:
    """Rows d = 0..top of the degree-d harmonics, labelled chain.label(d), with
    the periodic count of each row as the C_n average of its class characters;
    with chain.totals, also each partition's periodic modes m_f w_f over all rows
    and the grand total of the periodic column.  The P rows past top go `ahead`."""
    parts, n = chain.partitions, chain.partitions[0].n
    cyclic = _cyclic_weights(n)
    mults = [multiplicity_column(f, top + math.lcm(*range(1, n + 1))) for f in parts]
    cols = {k: class_column(k, top) for k in cyclic}
    periodic = tuple(_combine(cyclic, cols, n, "C_%d average at degree %d", n))
    extra = ()
    if chain.totals:
        extra = (tuple(sum(islice(col, top + 1)) * trivial_multiplicity(f)
                       for f, col in zip(parts, mults)), sum(periodic))
    rows = zip(*mults)
    return MultiplicityTable(chain.name, tuple(map(chain.label, range(top + 1))), parts,
                             tuple(islice(rows, top + 1)), periodic, *extra, ahead=tuple(rows))


def o3_multiplicity_table(l_max: int) -> MultiplicityTable:
    """Reduction rows for O(3) labels (l, (-1)^l) with l <= l_max; only
    these parities occur on single-valued spherical harmonics."""
    return _degree_table(CHAINS["o3s4c4"], l_max)


def o4_multiplicity_table(two_j_max: int) -> MultiplicityTable:
    """Reduction table for degrees 2j = 0..two_j_max, with the per-partition
    totals row (periodic modes attributable to each partition) and the
    grand total of periodic modes."""
    return _degree_table(CHAINS["o4s5c5"], two_j_max)


def table_checks(table: MultiplicityTable) -> list[dict]:
    """The exact checks of one `reduce` table, each passing at residual 0: the
    dimension audit and the degree increment of a chain with rules, periodic =
    sum_f m_f w_f on every chain, and the lattice count of a chain that has one."""
    chain, checks, cols = CHAINS[table.chain], [], list(zip(*table.entries))
    if chain.rules:
        checks.append(check("dimension_audit", _audit(cols, table.partitions), 0,
                            detail=chain.rules[0]))
        period, residual = _increment(cols, zip(*table.ahead), table.partitions)
        checks.append(check(f"degree_{period}_increment", residual, 0, detail=chain.rules[1]))
    weights = [trivial_multiplicity(f) for f in table.partitions]
    checks.append(check("periodic_equals_weighted_sum",
                        _deviation(table.periodic, _weighted(weights, cols)), 0))
    if chain.lattice:
        lattice = _deviation(table.periodic, map(chain.lattice, range(len(table.periodic))))
        checks.append(check("periodic_equals_lattice_count", lattice, 0,
                            detail="#{(a, b) in {-2j, -2j+2, .., 2j}^2 : 3a + b = 0 mod 10}"))
    return checks
