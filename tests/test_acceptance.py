"""End-to-end acceptance checks; the summary prints one line per check.

Tables are compared against the tabulated reference values verbatim.  Two
tabulated entries are known to be internally inconsistent (each violates an
exact counting rule the surrounding table must satisfy); the golden data
stores them corrected, each with an erratum record.  The table checks
therefore require that the differences between computed and tabulated
values are exactly the recorded errata, and prove each erratum in exact
integer arithmetic without the package: the tabulated table breaks its
counting rule, and the table with the recorded value substituted keeps it.
Any other difference, an erratum the program no longer reproduces, or a
missing or edited erratum record fails the check and is named.
"""

import cmath
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

import simplexmodes as sm
from oracles import (
    S5_PARTITION_ORDER,
    cyclic_projector,
    operator_matrix,
    transpose,
    wigner_d,
    young_ranks,
)
from simplexmodes.permgroup import CycleType

pytestmark = pytest.mark.acceptance

s = math.sqrt

INT_TOL = 0
REAL_TOL = 1e-9
CHAR_TOL = 1e-8
BRAID_TOL = 1e-12

# ----------------------------------------------------- tabulated reference

S3_ROWS = [(3,), (2, 1), (1, 1, 1)]
S3_COLS = [(1, 1, 1), (2, 1), (3,)]
S3_VERBATIM = [[1, 1, 1], [2, 0, -1], [1, -1, 1]]

S4_ROWS = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
S4_COLS = [(1, 1, 1, 1), (4,), (3, 1), (2, 2), (2, 1, 1)]
S4_VERBATIM = [
    [1, 1, 1, 1, 1],
    [3, -1, 0, -1, 1],
    [2, 0, -1, 2, 0],
    [3, 1, 0, -1, 1],
    [1, -1, 1, 1, -1],
]

S5_ROWS = [(5,), (1, 1, 1, 1, 1), (4, 1), (2, 1, 1, 1), (3, 2), (2, 2, 1), (3, 1, 1)]
S5_COLS = [(1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2), (4, 1), (5,)]
S5_SIZES = [1, 10, 15, 20, 20, 30, 24]
S5_VERBATIM = [
    [1, 1, 1, 1, 1, 1, 1],
    [1, -1, 1, 1, -1, -1, 1],
    [4, 2, 0, 1, -1, 0, -1],
    [4, -2, 0, 1, 1, 0, -1],
    [5, 1, 1, -1, 1, -1, 0],
    [5, -1, 1, -1, -1, 1, 0],
    [6, 0, -2, 0, 0, 0, 1],
]

O4_VERBATIM = [
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
    [2, 1, 6, 2, 6, 3, 6],
]
O4_PERIODIC_VERBATIM = [1, 0, 1, 4, 5, 8, 9, 12, 17, 20, 24]
O4_TOTALS_VERBATIM = [12, 1, 0, 0, 26, 14, 48]
O4_GRAND_VERBATIM = 101

CLASS_CHAR_TABLE = {
    (1, 1, 1, 1, 1): [1, 4, 9, 16, 25, 36],
    (2, 1, 1, 1): [1, 2, 3, 4, 5, 6],
    (3, 1, 1): [1, 1, 0, 1, 1, 0],
    (2, 2, 1): [1, 0, 1, 0, 1, 0],
    (3, 2): [1, -1, 0, 1, -1, 0],
    (4, 1): [1, 0, -1, 0, 1, 0],
    (5,): [1, -1, -1, 1, 0, 1],
}

O3_TABLE = [
    [1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0],
    [0, 1, 1, 0, 0],
    [1, 1, 0, 1, 0],
    [1, 1, 1, 1, 0],
]

COXETER_32 = np.array([
    [-1 / 3, 0, -s(2 / 9), 0, s(2 / 3)],
    [-s(2 / 3), 1 / 4, s(1 / 48), -s(3 / 16), -1 / 4],
    [-s(2 / 9), -s(3 / 16), 1 / 12, 3 / 4, -s(1 / 48)],
    [0, s(3 / 16), -3 / 4, 1 / 4, -s(3 / 16)],
    [0, -3 / 4, -s(3 / 16), -s(3 / 16), -1 / 4],
])

COXETER_221 = np.array([
    [-1 / 3, 0, s(2 / 9), 0, s(2 / 3)],
    [-s(2 / 3), 1 / 4, -s(1 / 48), s(3 / 16), -1 / 4],
    [s(2 / 9), s(3 / 16), 1 / 12, 3 / 4, s(1 / 48)],
    [0, -s(3 / 16), -3 / 4, 1 / 4, s(3 / 16)],
    [0, -3 / 4, s(3 / 16), s(3 / 16), -1 / 4],
])

COXETER_311 = np.array([
    [1 / 3, -s(1 / 18), 0, s(5 / 6), 0, 0],
    [s(2 / 9), 1 / 24, -s(3 / 64), -s(5 / 192), s(45 / 64), 0],
    [s(2 / 3), s(1 / 192), 1 / 8, -s(5 / 64), -s(15 / 64), 0],
    [0, s(15 / 64), -s(5 / 64), 1 / 8, -s(1 / 192), s(2 / 3)],
    [0, s(45 / 64), s(5 / 192), s(3 / 64), 1 / 24, -s(2 / 9)],
    [0, 0, s(5 / 6), 0, s(1 / 18), 1 / 3],
])


def _golden() -> dict:
    with resources.files("simplexmodes.data").joinpath("golden_tables.json").open() as fh:
        return json.load(fh)


def _assert_differences_are_errata(found: set, recorded: set) -> None:
    """`found` and `recorded` hold (location, computed, tabulated) triples."""

    def show(diffs, source):
        return ", ".join(f"{loc}: {source} {v}, tabulated {t}" for loc, v, t in sorted(diffs))

    extra, missing = found - recorded, recorded - found
    assert not extra and not missing, (
        f"differences from the tabulated values that are not recorded errata: "
        f"[{show(extra, 'computed')}]; recorded errata the computed values do not "
        f"show: [{show(missing, 'recorded')}]"
    )


def _centralizer_order(parts) -> int:
    """n!/|k| for the class k of cycle type `parts`: prod over i of i^m_i m_i!."""
    return math.prod(i**m * math.factorial(m) for i, m in Counter(parts).items())


def _orthogonality_violations(table, cols) -> list:
    """Column pairs breaking sum_f chi_f(k) chi_f(k') = delta_kk' n!/|k|."""
    bad = []
    for a, b in itertools.product(range(len(cols)), repeat=2):
        dot = sum(row[a] * row[b] for row in table)
        if dot != (_centralizer_order(cols[a]) if a == b else 0):
            bad.append((cols[a], cols[b], dot))
    return bad


def test_a01_character_tables_match_tabulated_values():
    golden = _golden()["character_tables"]
    for n, rows, cols, verbatim in (
        (3, S3_ROWS, S3_COLS, S3_VERBATIM),
        (4, S4_ROWS, S4_COLS, S4_VERBATIM),
        (5, S5_ROWS, S5_COLS, S5_VERBATIM),
    ):
        def where(fp, kp):
            return f"S({n}) chi^{sm.Partition(tuple(fp))}({CycleType(tuple(kp))})"

        table = sm.character_table(n)
        found = set()
        for (i, fp), (j, kp) in itertools.product(enumerate(rows), enumerate(cols)):
            got = table.entry(sm.Partition(fp), CycleType(kp))
            if got != verbatim[i][j]:
                found.add((where(fp, kp), got, verbatim[i][j]))
        errata = golden[str(n)]["errata"]
        _assert_differences_are_errata(found, {
            (where(e["partition"], e["class"]), e["value"], e["tabulated"])
            for e in errata
        })

        # each erratum is an error of the printed table, shown without the package
        printed = _orthogonality_violations(verbatim, cols)
        assert bool(printed) == bool(errata), (
            f"S({n}) tabulated table: orthogonality violations {printed} "
            f"with {len(errata)} recorded errata"
        )
        corrected = [list(row) for row in verbatim]
        for e in errata:
            i, j = rows.index(tuple(e["partition"])), cols.index(tuple(e["class"]))
            corrected[i][j] = e["value"]
        assert not _orthogonality_violations(corrected, cols), (
            f"S({n}) with the errata applied still breaks orthogonality: "
            f"{_orthogonality_violations(corrected, cols)}"
        )
    sizes = [CycleType(k).class_size for k in S5_COLS]
    assert sizes == S5_SIZES, f"S(5) class sizes {sizes} != {S5_SIZES}"
    assert [120 // _centralizer_order(k) for k in S5_COLS] == S5_SIZES


def test_a02_trivial_branching_columns():
    got3 = [sm.trivial_multiplicity(sm.Partition(p)) for p in S3_ROWS]
    assert got3 == [1, 0, 1]
    got4 = [sm.trivial_multiplicity(sm.Partition(p)) for p in S4_ROWS]
    assert got4 == [1, 0, 1, 1, 0]
    got5 = [sm.trivial_multiplicity(sm.Partition(p)) for p in S5_ROWS]
    assert got5 == [1, 1, 0, 0, 1, 1, 2]


def test_a03_young_projectors_and_fixed_vectors():
    proj = sm.trivial_projector(sm.Partition.of(2, 2))
    assert np.abs(proj - np.array([[1, s(3)], [s(3), 3]]) / 4).max() < REAL_TOL

    psi211 = np.asarray(sm.fixed_subspace(sm.Partition.of(2, 1, 1)))[:, 0]
    assert np.abs(psi211 - [s(1 / 2), s(1 / 6), s(1 / 3)]).max() < REAL_TOL

    psi22 = np.asarray(sm.fixed_subspace(sm.Partition.of(2, 2)))[:, 0]
    assert np.abs(psi22 - [0.5, s(3) / 2]).max() < REAL_TOL

    cox = sm.coxeter_element(5)
    got32 = sm.rep_matrix(sm.Partition.of(3, 2), cox)
    assert np.abs(got32 - COXETER_32).max() < REAL_TOL
    got221 = sm.rep_matrix(sm.Partition.of(2, 2, 1), cox)
    assert np.abs(got221 - COXETER_221).max() < REAL_TOL
    got311 = sm.rep_matrix(sm.Partition.of(3, 1, 1), cox)
    assert np.abs(got311 - COXETER_311).max() < REAL_TOL

    raw32 = np.array([s(2 / 3), -1, -s(1 / 3), -s(1 / 3), 1])
    got = np.asarray(sm.fixed_subspace(sm.Partition.of(3, 2)))[:, 0]
    assert np.abs(got - raw32 / np.linalg.norm(raw32)).max() < REAL_TOL
    raw221 = np.array([s(2 / 3), -1, s(1 / 3), s(1 / 3), 1])
    got = np.asarray(sm.fixed_subspace(sm.Partition.of(2, 2, 1)))[:, 0]
    assert np.abs(got - raw221 / np.linalg.norm(raw221)).max() < REAL_TOL

    space = np.asarray(sm.fixed_subspace(sm.Partition.of(3, 1, 1)))
    assert space.shape == (6, 2)
    q1 = np.array([s(49 / 45), s(2 / 45), s(8 / 15), s(2 / 3), 0, 1])
    q2 = np.array([s(8 / 45), s(49 / 45), -s(1 / 15), s(1 / 3), 1, 0])
    qbasis, _ = np.linalg.qr(np.column_stack([q1, q2]))
    # principal angles below 1e-9, measured through their sines: the
    # projection residual of a unit vector equals sin of its angle to the
    # target plane (arccos of singular values cannot resolve angles this
    # small in double precision)
    for v in (q1 / np.linalg.norm(q1), q2 / np.linalg.norm(q2)):
        assert np.linalg.norm(space @ (space.T @ v) - v) < REAL_TOL
    for col in space.T:
        assert np.linalg.norm(qbasis @ (qbasis.T @ col) - col) < REAL_TOL


def test_a04_o4_class_characters_and_recursions():
    rows = {r.cycle_type.parts: r for r in sm.class_character_table(60)}
    for parts, want in CLASS_CHAR_TABLE.items():
        got = rows[parts].values[:6]
        assert np.abs(np.array(got) - np.array(want)).max() < CHAR_TOL, parts
    periods = {(3, 1, 1): 3, (2, 2, 1): 2, (3, 2): 3, (4, 1): 4, (5,): 5}
    for parts, period in periods.items():
        vals = rows[parts].values
        for t in range(61 - period):
            assert abs(vals[t + period] - vals[t]) < CHAR_TOL, (parts, t)
    for t in range(61):
        assert abs(rows[(1, 1, 1, 1, 1)].values[t] - (t + 1) ** 2) < CHAR_TOL
        assert abs(rows[(2, 1, 1, 1)].values[t] - (t + 1)) < CHAR_TOL


def _o4_locations(entries, periodic, totals, grand_total) -> dict:
    """Every printed number of the O(4)>S(5) table, keyed as in the errata records."""
    out = {
        f"m(2j={t}, {f})": m
        for t, row in enumerate(entries)
        for f, m in zip(S5_PARTITION_ORDER, row)
    }
    out.update({f"periodic_row_{t}": p for t, p in enumerate(periodic)})
    out.update({
        "totals_" + "".join(map(str, f.parts)): total
        for f, total in zip(S5_PARTITION_ORDER, totals)
    })
    out["grand_total"] = grand_total
    return out


def test_a05_o4_multiplicity_table_as_tabulated():
    table = sm.o4_multiplicity_table(60)

    # the differences from all 77 tabulated multiplicities and the rows
    # derived from them are exactly the recorded errata
    table10 = sm.o4_multiplicity_table(10)
    computed = _o4_locations(
        table.entries[:11], table.periodic[:11], table10.totals, table10.grand_total
    )
    printed = _o4_locations(
        O4_VERBATIM, O4_PERIODIC_VERBATIM, O4_TOTALS_VERBATIM, O4_GRAND_VERBATIM
    )
    errata = _golden()["o4_s5"]["errata"]
    recorded = set()
    for e in errata:
        recorded.add((
            f"m(2j={e['two_j']}, {sm.Partition(tuple(e['partition']))})",
            e["value"], e["tabulated"],
        ))
        recorded.update((k, d["value"], d["tabulated"]) for k, d in e["derived"].items())
    _assert_differences_are_errata(
        {(k, computed[k], v) for k, v in printed.items() if computed[k] != v}, recorded
    )

    # each erratum is an error of the printed table, shown without the package:
    # dimensions and C_5-fixed counts (chi(e) + 4 chi((5)))/5 from the S(5) table
    s5 = {fp: row for fp, row in zip(S5_ROWS, S5_VERBATIM)}
    ident, c5 = S5_COLS.index((1, 1, 1, 1, 1)), S5_COLS.index((5,))
    dims = [s5[f.parts][ident] for f in S5_PARTITION_ORDER]
    fixed = [(s5[f.parts][ident] + 4 * s5[f.parts][c5]) // 5 for f in S5_PARTITION_ORDER]

    def audit(rows):
        return [sum(d * m for d, m in zip(dims, row)) for row in rows]

    def derived(rows):
        totals = [w * sum(col) for w, col in zip(fixed, zip(*rows))]
        periodic = [sum(w * m for w, m in zip(fixed, row)) for row in rows]
        return _o4_locations(rows, periodic, totals, sum(totals))

    squares = [(t + 1) ** 2 for t in range(11)]
    erratum_rows = {e["two_j"] for e in errata}
    got = audit(O4_VERBATIM)
    assert [t for t in range(11) if got[t] != squares[t]] == sorted(erratum_rows), (
        f"tabulated dimension audit {got} vs {squares}"
    )
    assert derived(O4_VERBATIM) == printed, "tabulated rows do not follow from the entries"
    corrected = [list(row) for row in O4_VERBATIM]
    for e in errata:
        j = S5_PARTITION_ORDER.index(sm.Partition(tuple(e["partition"])))
        corrected[e["two_j"]][j] = e["value"]
    assert audit(corrected) == squares, f"corrected dimension audit {audit(corrected)}"
    fixed_up = derived(corrected)
    knock_on = {(k, fixed_up[k], v) for k, v in printed.items() if fixed_up[k] != v}
    assert knock_on == recorded, f"corrected table changes {sorted(knock_on)}"
    assert sum(squares) == 506

    # dimension audit for every degree up to 60
    failures = []
    for two_j, row in enumerate(table.entries):
        total = sum(m * f.dimension for m, f in zip(row, S5_PARTITION_ORDER))
        if total != (two_j + 1) ** 2:
            failures.append(f"dimension audit at 2j={two_j}: {total}")
    assert not failures, "; ".join(failures)


def test_a06_o3_multiplicity_table_first_principles():
    table = sm.o3_multiplicity_table(4)
    assert [list(r) for r in table.entries] == O3_TABLE
    assert list(table.periodic) == [1, 0, 1, 2, 3]
    assert sum(2 * l + 1 for l in range(5)) == 25
    assert sum(table.periodic) == 7


def test_a07_circle_selection_rules_with_averaging_oracle():
    table = sm.o2_multiplicity_table(12)
    rows = {label: ([f for f, e in zip(table.partitions, row) if e], per)
            for label, row, per in zip(table.row_labels, table.entries, table.periodic)}
    # rule table
    assert rows["m=0"] == ([sm.Partition.of(3)], 1)
    for m in range(1, 13):
        for eps in (1, -1):
            held, m0 = rows[f"m={m},eps={'+' if eps == 1 else '-'}"]
            if m % 3 == 0:
                assert m0 == 1
                assert held == [sm.Partition.of(3) if eps == 1 else sm.Partition.of(1, 1, 1)]
            else:
                assert (held, m0) == ([sm.Partition.of(2, 1)], 0)
    # averaging oracle on the circle
    phis = np.linspace(0.05, 2 * math.pi, 23)
    for m in range(13):
        for eps in ((None,) if m == 0 else (1, -1)):
            def fn(phi):
                if m == 0:
                    return 1 / s(2 * math.pi)
                plus = cmath.exp(1j * m * phi)
                minus = cmath.exp(-1j * m * phi)
                return (plus + eps * (-1) ** m * minus) / s(4 * math.pi)

            label = "m=0" if m == 0 else f"m={m},eps={'+' if eps == 1 else '-'}"
            _, allowed = rows[label]
            for phi in phis:
                avg = sum(fn(phi + 2 * math.pi * k / 3) for k in range(3)) / 3
                if allowed:
                    assert abs(avg - fn(phi)) < 1e-12
                else:
                    assert abs(avg) < 1e-12


def test_a08_projector_ranks_match_character_counts():
    table = sm.o4_multiplicity_table(8)
    for two_j in range(9):
        projector = cyclic_projector(two_j)
        rank = int(round(np.trace(projector).real))
        assert abs(np.trace(projector).real - rank) < 1e-8
        assert rank == O4_PERIODIC_VERBATIM[two_j], two_j
        assert rank == table.periodic[two_j], two_j
    for two_j in range(7):
        ranks = young_ranks(two_j)
        assert set(ranks) == set(sm.partitions_of(5))
        assert [ranks[f] for f in table.partitions] == list(table.entries[two_j]), two_j


def test_a09_mode_invariance_with_negative_control():
    for two_j in (0, 2, 3, 4, 5):
        basis = sm.periodic_basis(two_j)
        assert sm.verify_invariance(basis, 100, 20080514) < REAL_TOL, two_j
    rogue = np.zeros((4, 1), dtype=complex)
    rogue[1, 0] = 1.0
    control = sm.ModeBasis(1, rogue, (None,))
    assert sm.verify_invariance(control, 100, 20080514) > 0.1


def test_a10_property_suite():
    rng = np.random.default_rng(314159)

    def random_su2():
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        return sm.su2_from_point(sm.Point4(*x))

    # Wigner identities
    for j in (Fraction(1, 2), 1, Fraction(3, 2), 2, 5):
        for _ in range(20):
            u, v = random_su2(), random_su2()
            du = wigner_d(j, u)
            dv = wigner_d(j, v)
            assert np.abs(wigner_d(j, u * v) - du @ dv).max() < REAL_TOL
            assert np.abs(du @ du.conj().T - np.eye(len(du))).max() < REAL_TOL
            assert np.abs(
                wigner_d(j, transpose(u)) - du.T
            ).max() < REAL_TOL

    # braid relations in every Young representation
    for n in (3, 4, 5):
        for f in sm.partitions_of(n):
            gens = [np.asarray(sm.generator_matrix(f, i)) for i in range(1, n)]
            d = len(gens[0])
            for i in range(n - 2):
                prod = gens[i] @ gens[i + 1]
                assert np.abs(prod @ prod @ prod - np.eye(d)).max() < BRAID_TOL
            for i in range(n - 1):
                for k in range(i + 2, n - 1):
                    sq = gens[i] @ gens[k]
                    assert np.abs(sq @ sq - np.eye(d)).max() < BRAID_TOL

    # the operator of a product never depends on the factorization
    perms = [sm.Permutation(p) for p in itertools.permutations(range(1, 6))]
    for _ in range(20):
        a = perms[rng.integers(len(perms))]
        b = perms[rng.integers(len(perms))]
        lhs = operator_matrix(2, sm.permutation_operator(a * b))
        rhs = operator_matrix(2, sm.permutation_operator(a)) @ operator_matrix(
            2, sm.permutation_operator(b)
        )
        assert np.abs(lhs - rhs).max() < REAL_TOL
