"""The golden gate: every reproduced table compared with data/golden_tables.json.

Each section of the golden file yields comparison rows.  A row passes when
max |computed - golden| <= tolerance; a tolerance of 0 means exact equality
and a shape mismatch fails.  Rows sharing a check name are reported as one
check.  Conventions of the reference tables (a joint sign, a sign-normalised
vector, a spanned subspace) are applied to the two values before the row is
built, so one comparator serves every table.  Every value is a number or
a nested sequence of numbers, so the gate needs no array library.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, NamedTuple

from .permgroup import CycleType, Partition, character_table, coxeter_element, trivial_multiplicity
from .reduction import (harmonic_dimension, o2_multiplicity_table, o3_multiplicity_table,
                        o4_multiplicity_table)
from .report import REAL_TOL, ConsistencyError, check
from .su2wigner import su2_from_point
from .weylaction import class_character_table, class_operators, weyl_vectors_s5
from .youngrep import (
    _product,
    canonical_unit,
    fixed_subspace,
    generator_matrix,
    primed_rep_matrix,
    rep_matrix,
    tetrahedral_primed_generators,
    trivial_projector,
)


class Row(NamedTuple):
    """One comparison.  Only rows with a `fault` key can be perturbed by
    --inject-fault; `label` locates a failure and `detail` is always reported."""

    check: str
    computed: Any
    golden: Any
    tol: float = 0
    fault: str | None = None
    label: str = ""
    detail: str = ""


def _complex(pairs):
    """Golden complex numbers are stored as [re, im] pairs."""
    if isinstance(pairs[0], list):
        return [_complex(p) for p in pairs]
    return complex(*pairs)


def _erratum(name: str, got, record: dict, label: str, detail: str = "") -> Row:
    """The computed value equals the record's corrected value, and that
    differs from the tabulated one."""
    return Row(name, [got, record["value"] != record["tabulated"]], [record["value"], True],
               label=label, detail=detail)


# ----------------------------------------------------------------- sections

def _character_tables(gold):
    for n, g in gold["character_tables"].items():
        table = character_table(int(n))
        parts = [Partition(tuple(p)) for p in g["partitions"]]
        classes = [CycleType(tuple(k)) for k in g["classes"]]
        yield Row(f"characters_s{n}", [[table.entry(f, k) for k in classes] for f in parts],
                  g["characters"], fault=f"chartable:{n}")
        yield Row(f"class_sizes_s{n}", [k.class_size for k in classes], g["class_sizes"])
        yield Row(f"branch_column_s{n}", [trivial_multiplicity(f) for f in parts], g["branch"])
        for err in g["errata"]:
            f, k = Partition(tuple(err["partition"])), CycleType(tuple(err["class"]))
            yield _erratum(f"erratum_s{n}_{f}", table.entry(f, k), err, f"chi^{f}({k})",
                           f"tabulated {err['tabulated']}, correct {err['value']}: "
                           f"{err['reason']}")


#: the `o2s3c3` table row of each golden circle label
_CIRCLE_ROWS = {"m=0": "m=0", "nu=0,eps=+": "m=3,eps=+", "nu=0,eps=-": "m=3,eps=-",
                "nu=1": "m=4,eps=+", "nu=2": "m=5,eps=-"}


def _circle_rules(gold):
    table = o2_multiplicity_table(5)
    for rule in gold["circle_rules"]:
        i = table.row_labels.index(_CIRCLE_ROWS[rule["label"]])
        held = [p for f, e in zip(table.partitions, table.entries[i]) if e for p in f.parts]
        yield Row("circle_rules", [*held, table.periodic[i]],
                  [*rule["partition"], rule["periodic"]], label=rule["label"])


def _o3(gold):
    g = gold["o3_s4"]
    table = o3_multiplicity_table(max(g["l_values"]))
    yield Row("o3_s4_table", table.entries, g["entries"], label="entries")
    yield Row("o3_s4_table", table.periodic, g["periodic"], label="periodic")
    yield Row("o3_s4_table", sum(harmonic_dimension(4, l) for l in g["l_values"]),
              g["total_states"], label="total_states")
    yield Row("o3_s4_table", sum(table.periodic), g["total_periodic"], label="total_periodic")


def _o4(gold):
    g = gold["o4_s5"]
    table = o4_multiplicity_table(max(g["two_j"]))
    parts = [Partition(tuple(p)) for p in g["partitions"]]
    order = [table.partitions.index(f) for f in parts]
    totals = [table.totals[c] for c in order]
    yield Row("o4_s5_entries", [[table.entries[t][c] for c in order] for t in g["two_j"]],
              g["entries"], fault="o4")
    yield Row("o4_s5_periodic", [table.periodic[t] for t in g["two_j"]], g["periodic"])
    yield Row("o4_s5_totals", totals, g["totals"])
    yield Row("o4_s5_grand_total", table.grand_total, g["grand_total"])
    yield Row("o4_s5_harmonics_count", sum(harmonic_dimension(5, t) for t in g["two_j"]),
              g["harmonics_total"])
    for err in g["errata"]:
        t, f = err["two_j"], Partition(tuple(err["partition"]))
        j = parts.index(f)
        derived = {f"periodic_row_{t}": table.periodic[t],
                   "totals_" + "".join(map(str, f.parts)): totals[j],
                   "grand_total": table.grand_total}
        yield _erratum("erratum_o4_s5", table.entries[t][order[j]], err, f"m(2j={t},{f})",
                       f"2j={t} {f}: tabulated {err['tabulated']}, correct {err['value']}: "
                       f"{err['reason']}")
        for key, record in err["derived"].items():
            yield _erratum("erratum_o4_s5", derived.get(key, math.nan), record, key)


def _class_characters(gold):
    g = gold["class_characters"]
    rows = {r.cycle_type.parts: r for r in class_character_table(60)}
    mine = [rows[tuple(k)] for k in g["classes"]]
    name = "class_characters"
    yield Row(name, [r.reflective for r in mine], g["reflective"], label="reflective")
    for r, want in zip(mine, g["half_angles"]):
        yield Row(name, sorted(r.half_angles), sorted(want), REAL_TOL,
                  label=f"{r.cycle_type} half angles")
    yield Row(name, [r.values[:len(want)] for r, want in zip(mine, g["values"])], g["values"],
              fault="classchars", label="values")
    for r, p in zip(mine, g["periods_two_j"]):
        if p:
            yield Row(name, r.values[p:], r.values[:-p], label=f"{r.cycle_type} period {p}")
    degrees = range(len(rows[(1, 1, 1, 1, 1)].values))
    yield Row(name, rows[(1, 1, 1, 1, 1)].values, [harmonic_dimension(5, t) for t in degrees],
              label="(1)^5 closed form")
    yield Row(name, rows[(2, 1, 1, 1)].values, [t + 1 for t in degrees],
              label="(2)(1)^3 closed form")


def _weyl(gold):
    g = gold["weyl"]
    pts = weyl_vectors_s5()
    yield Row("weyl_gram", _product(pts, list(zip(*pts))), g["gram"], 1e-15)
    yield Row("weyl_v_matrices", [su2_from_point(p).matrix() for p in pts],
              _complex(g["v_matrices"]), 1e-12)
    ops = {str(k): op for k, op in class_operators().items()}
    for name, data in g["class_matrices"].items():
        op = ops[name]
        if "g_r_g_l" in data:
            got, want = (op.g_r * op.g_l).matrix(), _complex(data["g_r_g_l"])
        else:
            got = [op.g_l.matrix(), op.g_r.matrix()]
            want = _complex([data["g_l"], data["g_r"]])
            if data.get("joint_sign"):  # the rotation pair is fixed only up to a joint sign
                pairs = list(zip(_flatten(got)[1], _flatten(want)[1]))
                if max(abs(x + y) for x, y in pairs) < max(abs(x - y) for x, y in pairs):
                    got = [[[-x for x in row] for row in m] for m in got]
        yield Row("weyl_class_matrices", got, want, REAL_TOL, label=name)


def _young(gold):
    g = gold["young"]
    name = "young_golden"
    generators = {"generators_32": (3, 2), "generators_211_s4": (2, 1, 1),
                  "generators_22_s4": (2, 2), "reflection_generators_s3": (2, 1)}
    for key, shape in generators.items():
        got = [generator_matrix(Partition(shape), i) for i in range(1, len(g[key]) + 1)]
        if key == "reflection_generators_s3":
            # the reference table gives (1,2) the opposite overall sign
            got[0] = [[-x for x in row] for row in got[0]]
        yield Row(name, got, g[key], REAL_TOL, label=key)
    cox5, cox4 = coxeter_element(5), coxeter_element(4)
    matrices = {
        "coxeter_32": rep_matrix(Partition.of(3, 2), cox5),
        "coxeter_221": rep_matrix(Partition.of(2, 2, 1), cox5),
        "coxeter_311": rep_matrix(Partition.of(3, 1, 1), cox5),
        "coxeter_211_s4": rep_matrix(Partition.of(2, 1, 1), cox4),
        "coxeter_22_s4": rep_matrix(Partition.of(2, 2), cox4),
        "projector_22": trivial_projector(Partition.of(2, 2)),
        "projector_211_primed": trivial_projector(Partition.of(2, 1, 1), primed=True),
        "primed_coxeter_211": primed_rep_matrix(Partition.of(2, 1, 1), cox4),
    }
    for key, got in matrices.items():
        yield Row(name, got, g[key], REAL_TOL, label=key)
    primed = tetrahedral_primed_generators()[:len(g["primed_generators_31"])]
    yield Row(name, primed, g["primed_generators_31"], REAL_TOL, label="primed_generators_31")
    fixed = {"fixed_211": (2, 1, 1), "fixed_22": (2, 2), "fixed_32_raw": (3, 2),
             "fixed_221_raw": (2, 2, 1)}
    for key, shape in fixed.items():
        got = [row[0] for row in fixed_subspace(Partition(shape))]
        yield Row(name, got, canonical_unit(g[key]), REAL_TOL, label=key)
    basis = fixed_subspace(Partition.of(3, 1, 1))
    want = list(zip(*(canonical_unit(w) for w in g["span_311"])))
    # each golden vector lies in the fixed space: it equals its projection
    yield Row(name, _product(basis, _product(list(zip(*basis)), want)), want, REAL_TOL,
              label="span_311")


SECTIONS = (_character_tables, _circle_rules, _o3, _o4, _class_characters, _weyl, _young)

#: every check of the gate, in report order; one that gets no rows fails
CHECKS = (
    "characters_s3", "class_sizes_s3", "branch_column_s3",
    "characters_s4", "class_sizes_s4", "branch_column_s4", "erratum_s4_[211]",
    "characters_s5", "class_sizes_s5", "branch_column_s5",
    "circle_rules", "o3_s4_table",
    "o4_s5_entries", "o4_s5_periodic", "o4_s5_totals", "o4_s5_grand_total",
    "o4_s5_harmonics_count", "erratum_o4_s5",
    "class_characters", "weyl_gram", "weyl_v_matrices", "weyl_class_matrices",
    "young_golden",
)


# --------------------------------------------------------------------- gate

def _fault_index(fault: str, key: str, shape: tuple[int, ...]) -> tuple[int, ...] | None:
    """The index that `fault`, spelled key:i:j..., names in a row of this shape."""
    if not fault.startswith(key + ":"):
        return None
    try:
        at = tuple(int(i) for i in fault[len(key) + 1:].split(":"))
    except ValueError:
        return None
    fits = len(at) == len(shape) and all(0 <= i < n for i, n in zip(at, shape))
    return at if fits else None


def _show(z: complex) -> str:
    return format(z.real if z.imag == 0 else z, ".15g")


def _flatten(value) -> tuple[tuple[int, ...] | None, list[complex]]:
    """The shape of a number or nested sequence and its entries in row-major
    order; the shape is None when the nesting is ragged."""
    if not isinstance(value, (list, tuple)):
        return (), [complex(value)]
    parts = [_flatten(v) for v in value]
    shapes = {shape for shape, _ in parts}
    if len(shapes) > 1 or None in shapes:
        return None, []
    return (len(parts), *(shapes.pop() if parts else ())), [x for _, xs in parts for x in xs]


def _compare(row: Row, fault: str | None) -> tuple[float, str, bool]:
    """The largest deviation of one row, its first failing entry ('' when it
    passes), and whether `fault` perturbed it.  A number counts as a sequence
    of one, a ragged value as a shape mismatch, and a NaN deviates by inf."""
    (shape, got), (want_shape, want) = (
        _flatten(v if isinstance(v, (list, tuple)) else [v]) for v in (row.computed, row.golden))
    indices = list(itertools.product(*map(range, shape or ())))  # row-major
    at = _fault_index(fault, row.fault, shape) if fault and row.fault and shape else None
    if at is not None:
        got[indices.index(at)] += 1
    where = f"{row.label} " if row.label else ""
    if shape is None or shape != want_shape:
        return (math.inf, f"{where}shape {shape or 'ragged'} != golden {want_shape or 'ragged'}",
                at is not None)
    dev = [math.inf if math.isnan(d := abs(x - y)) else d for x, y in zip(got, want)]
    bad = next((k for k, d in enumerate(dev) if d > row.tol), None)
    problem = ""
    if bad is not None:
        problem = (f"{where}index ({', '.join(map(str, indices[bad]))}): "
                   f"computed {_show(got[bad])}, golden {_show(want[bad])}")
    return max(dev, default=0.0), problem, at is not None


def run(gold: dict, fault: str | None = None) -> tuple[list[dict], bool]:
    """Every check of CHECKS in order, and whether `fault` perturbed a
    computed entry.  A check reports the largest deviation of its rows with
    that row's tolerance (a failing row first), its first failure, and every
    detail; a check without rows fails.  A row naming an unregistered check
    raises ConsistencyError."""
    results: dict[str, list[tuple[Row, float, str]]] = {name: [] for name in CHECKS}
    hit = False
    for section in SECTIONS:
        for row in section(gold):
            if row.check not in results:
                raise ConsistencyError(f"row for unregistered check {row.check!r}")
            residual, problem, faulted = _compare(row, fault)
            hit = hit or faulted
            results[row.check].append((row, residual, problem))
    checks = []
    for name, rows in results.items():
        if not rows:
            checks.append(check(name, math.inf, 0, "no rows"))
            continue
        row, residual, _ = max(rows, key=lambda r: (bool(r[2]), r[1]))
        problems = [p for _, _, p in rows if p][:1]
        details = [r.detail for r, _, _ in rows if r.detail]
        checks.append(check(name, residual, row.tol, "; ".join(problems + details)))
    return checks, hit
