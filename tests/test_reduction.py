import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import S5_PARTITION_ORDER, _row, class_character, parity
from simplexmodes import reduction
from simplexmodes.permgroup import (
    CLASS_ORDER_S5,
    CycleType,
    Partition,
    Permutation,
    character,
    cyclic_elements,
    partitions_of,
    trivial_multiplicity,
)
from simplexmodes.report import ConsistencyError
from simplexmodes.su2wigner import chebyshev_u
from simplexmodes.weylaction import class_operators, operator_character
from simplexmodes.youngrep import primed_rep_matrix
from simplexmodes.reduction import (
    CHAINS,
    o2_multiplicity_table,
    o3_multiplicity_table,
    harmonic_dimension,
    lattice_count_o4,
    o4_multiplicity_table,
    table_checks,
)

S4_PARTITIONS = tuple(partitions_of(4))


def o3_row(l: int) -> tuple[int, ...]:
    """Multiplicities of the partitions of 4 in the degree-l harmonics of R^3."""
    return _row(l, S4_PARTITIONS)


def o4_row(two_j: int) -> tuple[int, ...]:
    """Multiplicities in S5_PARTITION_ORDER in the degree-2j harmonics of R^4."""
    return _row(two_j, S5_PARTITION_ORDER)

#: entries for 2j = 0..10 in S5_PARTITION_ORDER; row 10 carries the value
#: forced by the dimension sum rule (sum over f of dim(f) * m = (2j+1)^2)
O4_TABLE = [
    [1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 1, 0, 0],
    [1, 0, 1, 0, 1, 0, 1],
    [1, 0, 2, 0, 1, 1, 1],
    [1, 0, 2, 0, 2, 1, 2],
    [1, 0, 3, 1, 3, 1, 2],
    [1, 0, 4, 1, 3, 2, 3],
    [2, 0, 4, 1, 4, 3, 4],
    [2, 0, 5, 2, 5, 3, 5],
    [2, 1, 6, 2, 6, 4, 6],
]
O4_PERIODIC = [1, 0, 1, 4, 5, 8, 9, 12, 17, 20, 25]

O3_TABLE = [
    [1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0],
    [0, 1, 1, 0, 0],
    [1, 1, 0, 1, 0],
    [1, 1, 1, 1, 0],
]
O3_PERIODIC = [1, 0, 1, 2, 3]


def o2_rows(m_max: int) -> dict[str, tuple[list[Partition], int]]:
    """The partitions each `o2s3c3` row holds and its periodic count, by label."""
    table = o2_multiplicity_table(m_max)
    return {label: ([f for f, e in zip(table.partitions, row) if e], per)
            for label, row, per in zip(table.row_labels, table.entries, table.periodic)}


class TestCircleChain:
    def test_rule_rows(self):
        rows = o2_rows(6)
        assert rows["m=0"] == ([Partition.of(3)], 1)
        assert rows["m=6,eps=-"] == ([Partition.of(1, 1, 1)], 1)
        assert rows["m=6,eps=+"] == ([Partition.of(3)], 1)
        assert rows["m=4,eps=+"] == ([Partition.of(2, 1)], 0)
        assert rows["m=5,eps=-"] == ([Partition.of(2, 1)], 0)

    @pytest.mark.parametrize("m", range(13))
    def test_averaging_oracle(self, m):
        # numeric projection onto rotations by 2*pi*k/3 on the circle
        phis = np.linspace(0.1, 2 * math.pi, 17)
        rows = o2_rows(m)

        def basis_fn(eps):
            def fn(phi):
                if m == 0:
                    return 1.0 / math.sqrt(2 * math.pi)
                plus = cmath.exp(1j * m * phi)
                minus = cmath.exp(-1j * m * phi)
                return (plus + eps * (-1) ** m * minus) / math.sqrt(4 * math.pi)
            return fn

        for eps in ((None,) if m == 0 else (1, -1)):
            fn = basis_fn(eps if eps is not None else 1)
            label = "m=0" if m == 0 else f"m={m},eps={'+' if eps == 1 else '-'}"
            _, allowed = rows[label]
            for phi in phis:
                avg = sum(fn(phi + 2 * math.pi * k / 3) for k in range(3)) / 3
                if allowed:
                    assert abs(avg - fn(phi)) < 1e-12
                else:
                    assert abs(avg) < 1e-12

    def test_table_rows(self):
        table = o2_multiplicity_table(3)
        assert table.row_labels[0] == "m=0"
        assert table.row_labels[5] == "m=3,eps=+"
        # m=3 rows are periodic, m=1 and m=2 rows are not
        assert table.periodic == (1, 0, 0, 0, 0, 1, 1)

    def test_character_route_agrees_with_the_rules(self):
        # the closed-form selection rule: [3] at m = 0; [3] for (m, +) and
        # [111] for (m, -), both periodic, when 3 | m; otherwise [21], not periodic
        table = o2_multiplicity_table(1000)
        one, two, three = (Partition.of(*p) for p in [(3,), (2, 1), (1, 1, 1)])
        rules = [("m=0", one, 1)]
        for m in range(1, 1001):
            for eps, sign in ((1, "+"), (-1, "-")):
                f, per = ((one if eps == 1 else three), 1) if m % 3 == 0 else (two, 0)
                rules.append((f"m={m},eps={sign}", f, per))
        assert table.partitions == (one, two, three)
        assert table.row_labels == tuple(label for label, _, _ in rules)
        assert table.entries == tuple(tuple(int(g == f) for g in table.partitions)
                                      for _, f, _ in rules)
        assert table.periodic == tuple(per for _, _, per in rules)


class TestSphereChain:
    def test_spec_values(self):
        table = o3_multiplicity_table(3)
        assert table.partitions == S4_PARTITIONS
        rows = [dict(zip(table.partitions, row)) for row in table.entries]
        assert rows[2][Partition.of(2, 2)] == 1
        assert rows[3][Partition.of(2, 1, 1)] == 1
        assert rows[0][Partition.of(4)] == 1

    def test_full_table(self):
        table = o3_multiplicity_table(4)
        assert [list(r) for r in table.entries] == O3_TABLE
        assert list(table.periodic) == O3_PERIODIC

    def test_aggregate_counts(self):
        # 25 harmonics up to l=4, of which 7 are periodic
        total = sum(2 * l + 1 for l in range(5))
        assert total == 25
        assert sum(o3_multiplicity_table(4).periodic) == 7

    def test_dimension_rule(self):
        for l, row in enumerate(O3_TABLE):
            dims = [f.dimension for f in S4_PARTITIONS]
            assert sum(m * d for m, d in zip(row, dims)) == 2 * l + 1


class TestThreeSphereChain:
    def test_spec_values(self):
        assert dict(zip(S5_PARTITION_ORDER, o4_row(6)))[Partition.of(4, 1)] == 3
        assert dict(zip(S5_PARTITION_ORDER, o4_row(10)))[Partition.of(1, 1, 1, 1, 1)] == 1
        assert o4_row(1) == (0, 0, 1, 0, 0, 0, 0)

    def test_full_table(self):
        table = o4_multiplicity_table(10)
        assert [list(r) for r in table.entries] == O4_TABLE
        assert list(table.periodic) == O4_PERIODIC
        assert list(table.totals) == [12, 1, 0, 0, 26, 15, 48]
        assert table.grand_total == 102

    def test_harmonic_budget(self):
        assert sum((t + 1) ** 2 for t in range(11)) == 506

    def test_periodic_counts(self):
        periodic = o4_multiplicity_table(10).periodic
        assert periodic[3] == 4
        assert periodic[10] == 25

    def test_dimension_audit_runs_to_60(self):
        table = o4_multiplicity_table(60)
        assert len(table.entries) == 61
        audit = next(c for c in table_checks(table) if c["name"] == "dimension_audit")
        assert audit["passed"] and audit["residual"] == 0

    def test_forbidden_partitions_never_contribute(self):
        table = o4_multiplicity_table(40)
        idx = [
            table.partitions.index(Partition.of(4, 1)),
            table.partitions.index(Partition.of(2, 1, 1, 1)),
        ]
        assert all(table.totals[i] == 0 for i in idx)
        # yet the multiplicities themselves are nonzero
        assert any(row[idx[0]] for row in table.entries)


class TestRecursionReport:
    """The degree-60 recursion m_f(2j+60) = m_f(2j) + rule_f(2j), which
    `reduce --chain o4s5c5` reports as the check degree_60_increment."""

    def test_needs_sixty(self, monkeypatch):
        # each row d is compared with row d + 60: the table expands each
        # multiplicity series once, 60 rows past its last, and the check reads
        # those rows, so a one-row table still compares one pair
        calls = []
        column = reduction.multiplicity_column
        monkeypatch.setattr(reduction, "multiplicity_column",
                            lambda f, top: calls.append((f, top)) or column(f, top))
        for top in (0, 10, 80):
            table = o4_multiplicity_table(top)
            increment = next(c for c in table_checks(table) if c["name"] == "degree_60_increment")
            assert calls == [(f, top + 60) for f in S5_PARTITION_ORDER]
            assert len(table.entries) == top + 1 and len(table.ahead) == 60
            assert increment["passed"] and increment["residual"] == 0
            calls.clear()

    def test_character_periodicity(self):
        # the classes with at most three cycles repeat with period 60 and
        # drop out of the rule; the dimension audit holds on the same rows
        bounded = [k for k in CLASS_ORDER_S5 if len(k.parts) <= 3]
        assert len(bounded) == 5
        for k in bounded:
            assert all(class_character(k, t + 60) == class_character(k, t) for t in range(121))
        checks = {c["name"]: c for c in table_checks(o4_multiplicity_table(120))}
        assert checks["dimension_audit"]["residual"] == 0
        assert checks["degree_60_increment"]["residual"] == 0

    def test_claimed_rule_only_for_trivial_partition(self):
        # the rule delta = 2j + 36 is the [5] case of the derived rule
        period, rule = reduction._increment_rule(S5_PARTITION_ORDER)
        holds = {str(f): r == (1, 36) for f, r in zip(S5_PARTITION_ORDER, rule)}
        assert period == 60 and holds.pop("[5]") is True
        assert set(holds) == {"[41]", "[2111]", "[32]", "[221]", "[311]", "[11111]"}
        assert not any(holds.values())

    def test_measured_increments(self):
        # slope dim f, intercept 31 dim f + 5 chi_f((2)(1)^3), and the
        # measured increments at 2j = 0 and 1
        period, rule = reduction._increment_rule(S5_PARTITION_ORDER)
        assert [icpt for _, icpt in rule] == [36, 26, 134, 114, 160, 150, 186]
        assert [slope for slope, _ in rule] == [f.dimension for f in S5_PARTITION_ORDER]
        for i, (f, (slope, icpt)) in enumerate(zip(S5_PARTITION_ORDER, rule)):
            assert icpt == 31 * f.dimension + 5 * character(f, TRANSPOSITION)
            for t in (0, 1):
                measured = o4_row(t + 60)[i] - o4_row(t)[i]
                assert measured == slope * t + icpt, (f, t)
        # O(3) > S(4): period 12, slope 0, intercept dim f
        period, rule = reduction._increment_rule(S4_PARTITIONS)
        assert period == 12 and rule == [(0, f.dimension) for f in S4_PARTITIONS]

    def test_increment_budget(self):
        # summed against dimensions the increments must account for the
        # growth of the harmonic space
        _, rule = reduction._increment_rule(S5_PARTITION_ORDER)
        for t in (0, 1, 59, 1000):
            total = sum(f.dimension * (slope * t + icpt)
                        for f, (slope, icpt) in zip(S5_PARTITION_ORDER, rule))
            assert total == (t + 61) ** 2 - (t + 1) ** 2
        _, rule = reduction._increment_rule(S4_PARTITIONS)
        assert sum(f.dimension * icpt for f, (_, icpt) in zip(S4_PARTITIONS, rule)) == 24


class TestOneCharacterRowPerDegree:
    """Each table and its checks expand one hook-length series per partition
    for the multiplicities, P rows past the table on the degree chains, one
    class column to the table's top for each class that the C_n average and
    the O(2) transposition trace read, and one to P + 1 for each class that
    the increment rule reads, all its degrees at once."""

    @pytest.mark.parametrize("build, top, n, period", [
        (o2_multiplicity_table, 40, 3, 0), (o3_multiplicity_table, 30, 4, 12),
        (o4_multiplicity_table, 20, 5, 60),
    ], ids=["o2s3c3", "o3s4c4", "o4s5c5"])
    def test_each_class_character_once(self, monkeypatch, build, top, n, period):
        calls, series = [], []
        column, multiplicities = reduction.class_column, reduction.multiplicity_column
        monkeypatch.setattr(reduction, "class_column",
                            lambda k, d: calls.append((k, d)) or column(k, d))
        monkeypatch.setattr(reduction, "multiplicity_column",
                            lambda f, d: series.append((f, d)) or multiplicities(f, d))
        table = build(top)
        table_checks(table)
        assert series == [(f, top + period) for f in table.partitions]
        # the classes of C_n and, on O(2), the transposition, to the top; the
        # classes of four or more cycles of the degree chains to P + 1
        read = {p.cycle_type() for p in cyclic_elements(n)}
        read |= {CycleType((2, 1))} if n == 3 else set()
        rule = {CycleType(p.parts) for p in partitions_of(n) if len(p.parts) >= 4} if period else ()
        assert sorted(calls) == sorted([(k, top) for k in read]
                                       + [(k, period + 1) for k in rule])


def cyclic_average(n: int, d: int) -> int:
    """(1/n) sum of chi_d over the powers of the full cycle of S(n), one degree."""
    periodic, rest = divmod(sum(class_character(h.cycle_type(), d) for h in cyclic_elements(n)), n)
    assert rest == 0
    return periodic


def per_degree_table(chain: str, top: int) -> tuple[list, list]:
    """The rows and the periodic column of a chain's table, one degree at a
    time from `_row` and `class_character`."""
    parts = CHAINS[chain].partitions
    if CHAINS[chain].label:
        return ([_row(d, parts) for d in range(top + 1)],
                [cyclic_average(parts[0].n, d) for d in range(top + 1)])
    swap = CycleType((2, 1))
    entries, periodic = [], []
    for m in range(top + 1):
        for eps in (1, -1) if m else (1,):
            entries.append(tuple(int(x > 0 and f.dimension + eps * character(f, swap) > 0)
                                 for x, f in zip(_row(m, parts), parts)))
            fixed, rest = divmod(cyclic_average(3, m) + eps * class_character(swap, m), 2)
            periodic.append(fixed)
            assert rest == 0
    return entries, periodic


class TestColumnRoute:
    """Every table, built from hook-length and class columns, equals the
    per-degree character route on both sides of the periods 12 and 60."""

    @pytest.mark.parametrize("top", [0, 1, 11, 12, 13, 59, 60, 61, 1000])
    @pytest.mark.parametrize("build", [o2_multiplicity_table, o3_multiplicity_table,
                                       o4_multiplicity_table],
                             ids=["o2s3c3", "o3s4c4", "o4s5c5"])
    def test_table_equals_per_degree_rows(self, build, top):
        table = build(top)
        entries, periodic = per_degree_table(table.chain, top)
        assert list(table.entries) == entries
        assert list(table.periodic) == periodic
        if table.totals is not None:
            weights = [trivial_multiplicity(f) for f in table.partitions]
            assert list(table.totals) == [sum(col) * w for col, w in zip(zip(*entries), weights)]
            assert table.grand_total == sum(periodic)


class TestEverySimplexDimension:
    """The multiplicities of S(n) on the harmonics of R^(n-1), n = 3..8: the
    hook-length columns of the library against the character rows."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_hook_columns_equal_character_rows(self, n):
        parts = tuple(partitions_of(n))
        cols = [reduction.multiplicity_column(f, 300) for f in parts]
        assert list(zip(*cols)) == [_row(d, parts) for d in range(301)]

    def test_hook_columns_equal_character_rows_to_ten_thousand(self):
        cols = [reduction.multiplicity_column(f, 10**4) for f in S5_PARTITION_ORDER]
        for d in [*range(301, 10**4, 97), 9999, 10**4]:
            assert tuple(col[d] for col in cols) == o4_row(d), d

    @pytest.mark.parametrize("n", range(3, 9))
    def test_row_audit_and_non_negative(self, n):
        parts = tuple(partitions_of(n))
        for d in range(31):
            row = _row(d, parts)
            assert min(row) >= 0, (n, d)
            dim_sum = sum(m * f.dimension for m, f in zip(row, parts))
            assert dim_sum == harmonic_dimension(n, d), (n, d)

    def test_dimension_formula_closed_forms(self):
        for d in range(200):
            assert harmonic_dimension(3, d) == (2 if d else 1)
            assert harmonic_dimension(4, d) == 2 * d + 1
            assert harmonic_dimension(5, d) == (d + 1) ** 2


# ------------------------------------------------ float oracle, 2j, l <= 200

ROUND_TOL = 1e-6  # largest accepted distance of a float multiplicity from its integer


def _rounded(value: float, what: str) -> int:
    out = round(value)
    assert abs(value - out) <= ROUND_TOL, f"{what} = {value} is not an integer"
    return out


def float_o4_row(two_j: int) -> tuple[int, ...]:
    """Multiplicities (1/120) sum_k |k| chi_k(2j) chi_f(k), with the class
    characters chi_k summed in floats from the Chebyshev recurrence."""
    ops = class_operators()
    chis = {k: operator_character(two_j, ops[k]) for k in CLASS_ORDER_S5}
    return tuple(
        _rounded(
            sum(k.class_size * chis[k] * character(f, k) for k in CLASS_ORDER_S5) / 120,
            f"m(2j={two_j}, {f})",
        )
        for f in S5_PARTITION_ORDER
    )


def _s4_rotation_cosines() -> list[tuple[Permutation, int, float]]:
    """(p, parity, cos of the half rotation angle) for all 24 elements of S(4)
    acting on the tetrahedral axes; odd p act as inversion times a rotation."""
    out = []
    for images in itertools.permutations(range(1, 5)):
        p = Permutation(images)
        mat = np.asarray(primed_rep_matrix(Partition.of(3, 1), p))
        rot = -mat if parity(p) else mat
        cos_phi = min(1.0, max(-1.0, (np.trace(rot) - 1.0) / 2.0))
        out.append((p, parity(p), math.cos(math.acos(cos_phi) / 2.0)))
    return out


def float_o3_row(l: int, kappa: int, elements) -> tuple[int, ...]:
    """Multiplicities (1/24) sum_p chi_(l,kappa)(p) chi_f(p) over every element."""
    chis = [
        (p, (kappa if parity else 1) * chebyshev_u(2 * l, x)) for p, parity, x in elements
    ]
    return tuple(
        _rounded(
            sum(chi * character(f, p.cycle_type()) for p, chi in chis) / 24,
            f"m(({l},{kappa}), {f})",
        )
        for f in S4_PARTITIONS
    )


class TestFloatOracle:
    def test_o4_table_to_200(self):
        table = o4_multiplicity_table(200)
        assert list(table.entries) == [float_o4_row(t) for t in range(201)]

    def test_o3_table_to_200(self):
        elements = _s4_rotation_cosines()
        table = o3_multiplicity_table(200)
        assert list(table.entries) == [float_o3_row(l, (-1) ** l, elements) for l in range(201)]


# --------------------------------------------- exact properties to 10^6

BIG = 10**6
TRANSPOSITION = CycleType((2, 1, 1, 1))


class TestExactProperties:
    @given(st.integers(0, BIG))
    def test_o4_audit_and_non_negative(self, two_j):
        row = o4_row(two_j)
        assert min(row) >= 0
        assert sum(m * f.dimension for m, f in zip(row, S5_PARTITION_ORDER)) == (two_j + 1) ** 2

    @given(st.integers(0, BIG))
    def test_o3_audit_and_non_negative(self, l):
        row = o3_row(l)
        assert min(row) >= 0
        assert sum(m * f.dimension for m, f in zip(row, S4_PARTITIONS)) == 2 * l + 1

    @given(st.integers(0, BIG - 60))
    def test_o4_degree_sixty_increment(self, two_j):
        for f, later, now in zip(S5_PARTITION_ORDER, o4_row(two_j + 60), o4_row(two_j)):
            assert later - now == (two_j + 31) * f.dimension + 5 * character(f, TRANSPOSITION)

    @given(st.integers(0, BIG - 12))
    def test_o3_degree_twelve_increment(self, l):
        for f, later, now in zip(S4_PARTITIONS, o3_row(l + 12), o3_row(l)):
            assert later - now == f.dimension


    @given(st.integers(0, BIG))
    def test_lattice_count_equals_character_count(self, two_j):
        row = o4_row(two_j)
        weighted = sum(m * trivial_multiplicity(f) for m, f in zip(row, S5_PARTITION_ORDER))
        periodic, rest = divmod(sum(class_character(h.cycle_type(), two_j)
                                    for h in cyclic_elements(5)), 5)
        assert rest == 0
        assert lattice_count_o4(two_j) == weighted == periodic


class TestLatticeCount:
    @pytest.mark.parametrize("two_j", range(61))
    def test_equals_brute_force(self, two_j):
        twice_m = range(-two_j, two_j + 1, 2)
        brute = sum((3 * a + b) % 10 == 0 for a in twice_m for b in twice_m)
        assert lattice_count_o4(two_j) == brute

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError):
            lattice_count_o4(-1)


class TestExactDivision:
    def test_o4_remainder_raises(self, monkeypatch):
        # the character route of the tests divides exactly too
        exact = oracles.class_character
        monkeypatch.setattr(
            oracles, "class_character",
            lambda k, t: exact(k, t) + (1 if k == CycleType((5,)) else 0),
        )
        with pytest.raises(ConsistencyError, match=r"^m\(\[5\]\) at degree 3: "):
            _row(3, (Partition.of(5),))

    def test_o3_remainder_raises(self, monkeypatch):
        # the powers of a 4-cycle hold (4) twice: 1 + 1 + 2 (1 + 1) at l = 0
        exact = reduction.class_column
        monkeypatch.setattr(
            reduction, "class_column",
            lambda k, top: [c + (k == CycleType((4,))) * (t == 0)
                            for t, c in enumerate(exact(k, top))],
        )
        with pytest.raises(ConsistencyError,
                           match=r"^C_4 average at degree 0: 6/4 is not an integer$"):
            o3_multiplicity_table(0)

    def test_deviation_is_the_tabulation_margin(self, monkeypatch):
        # a multiplicity that breaks period 60 shows in the degree-60
        # increment as its exact deviation
        exact = reduction.multiplicity_column
        monkeypatch.setattr(
            reduction, "multiplicity_column",
            lambda f, top: [m + character(f, CycleType((5,))) * (t == 61)
                            for t, m in enumerate(exact(f, top))],
        )
        checks = {c["name"]: c for c in table_checks(o4_multiplicity_table(61))}
        # m_f(61) moves by chi_f((5)), at most 1, against sum_f dim(f) chi_f((5)) = 0
        assert checks["degree_60_increment"]["residual"] == 1
        assert not checks["degree_60_increment"]["passed"]
        assert checks["dimension_audit"]["residual"] == 0
