"""Command-line front end: tables, mode coefficients, and golden-file checks.

Exit codes: 0 success, 2 usage error, 3 failed verification or internal
consistency error.  All JSON output is deterministic: sorted keys and
floats rounded to 15 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from importlib import resources

import numpy as np

from . import __version__
from .modes import MAX_TWO_J_MODES, cyclic_projector, periodic_basis, verify_invariance
from .permgroup import (
    ConsistencyError,
    CycleType,
    Partition,
    character_table,
    coxeter_element,
    cyclic_elements,
    trivial_multiplicity,
)
from .reduction import (
    MultiplicityTable,
    O2Label,
    o2_multiplicity_table,
    o3_multiplicity_table,
    o4_multiplicity_table,
    o2_reduce,
)
from .weylaction import ROUND_TOL, class_character_table, class_periods, weyl_vectors_s5
from .youngrep import (
    fixed_subspace,
    generator_matrix,
    primed_rep_matrix,
    rep_matrix,
    tetrahedral_primed_generators,
    trivial_projector,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3

REAL_TOL = 1e-9
MAX_ROWS = 10_000  # largest --max of reduce and --two-j-max of classchars
#: largest accepted value of each bounded option; all of them start at 0
LIMITS = {"max": MAX_ROWS, "two_j_max": MAX_ROWS, "two_j": MAX_TWO_J_MODES}


class UsageError(Exception):
    pass


# ------------------------------------------------------------ serialization

def _round_floats(obj):
    if isinstance(obj, float):
        return float(format(obj, ".15g"))
    if isinstance(obj, complex):
        return [_round_floats(obj.real), _round_floats(obj.imag)]
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, (np.floating, np.complexfloating, np.integer)):
        return _round_floats(obj.item())
    return obj


def report_document(command: str, parameters: dict, payload: dict,
                    checks: list[dict], seed: int | None = None) -> dict:
    return {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "seed": seed,
        "tolerances": {"integer": 0, "real": REAL_TOL, "rounding": ROUND_TOL},
        "payload": payload,
        "checks": checks,
    }


def _emit(doc_or_text, args) -> None:
    if isinstance(doc_or_text, str):
        text = doc_or_text
    else:
        text = json.dumps(_round_floats(doc_or_text), sort_keys=True, indent=1) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check(name: str, passed: bool, residual: float | int | None = None,
           detail: str = "") -> dict:
    out = {"name": name, "passed": bool(passed)}
    if residual is not None:
        out["residual"] = residual
    if detail:
        out["detail"] = detail
    return out


# ----------------------------------------------------------------- commands

def cmd_chartable(args) -> dict:
    table = character_table(args.n)
    checks = []
    # column orthogonality, exact in integers
    ok = True
    for a in range(len(table.cycle_types)):
        for b in range(len(table.cycle_types)):
            dot = sum(row[a] * row[b] for row in table.values)
            want = table.order // table.cycle_types[a].class_size if a == b else 0
            ok = ok and dot == want
    checks.append(_check("column_orthogonality_exact", ok))
    identity = table.cycle_types.index(CycleType((1,) * args.n))
    dim_sq = sum(row[identity] ** 2 for row in table.values)
    checks.append(_check("sum_of_squared_dimensions", dim_sq == table.order,
                         residual=dim_sq - table.order))
    payload = {
        "n": args.n,
        "order": table.order,
        "partitions": [list(f.parts) for f in table.partitions],
        "classes": [list(k.parts) for k in table.cycle_types],
        "class_sizes": list(table.class_sizes()),
        "characters": [list(row) for row in table.values],
    }
    return report_document("chartable", {"n": args.n}, payload, checks)


def cmd_branch(args) -> dict:
    table = character_table(args.n)
    golden = _load_golden()["character_tables"][str(args.n)]
    parts = [Partition(tuple(p)) for p in golden["partitions"]]
    column = [trivial_multiplicity(f) for f in parts]
    # brute-force oracle: average characters over the explicit cyclic elements
    ok = True
    for f, m in zip(parts, column):
        avg = sum(
            table.entry(f, h.cycle_type()) for h in cyclic_elements(args.n)
        ) / args.n
        ok = ok and avg == m
    checks = [_check("matches_elementwise_average", ok)]
    payload = {
        "n": args.n,
        "partitions": [list(f.parts) for f in parts],
        "trivial_multiplicity": column,
    }
    return report_document("branch", {"n": args.n}, payload, checks)


def _table_payload(table: MultiplicityTable) -> dict:
    payload = {
        "chain": table.chain,
        "row_labels": list(table.row_labels),
        "partitions": [list(f.parts) for f in table.partitions],
        "entries": [list(r) for r in table.entries],
        "periodic": list(table.periodic),
    }
    if table.totals is not None:
        payload["totals"] = list(table.totals)
    if table.grand_total is not None:
        payload["grand_total"] = table.grand_total
    return payload


def _table_csv(table: MultiplicityTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", *(str(f) for f in table.partitions), "periodic"])
    for label, row, per in zip(table.row_labels, table.entries, table.periodic):
        writer.writerow([label, *row, per])
    if table.totals is not None:
        writer.writerow(["totals", *table.totals, table.grand_total])
    return buf.getvalue()


def cmd_reduce(args) -> dict | str:
    tables = {"o2s3c3": o2_multiplicity_table, "o3s4c4": o3_multiplicity_table,
              "o4s5c5": o4_multiplicity_table}
    table = tables[args.chain](args.max)
    if args.format == "csv":
        return _table_csv(table)
    checks = []
    if args.chain == "o3s4c4":
        checks.append(_check("dimension_audit", True, detail="sum dim(f)*m = 2l+1"))
    if args.chain == "o4s5c5":
        checks.append(_check("dimension_audit", True, detail="sum dim(f)*m = (2j+1)^2"))
        checks.append(_check(
            "periodic_equals_weighted_sum",
            table.grand_total == sum(table.periodic),
        ))
    return report_document(
        "reduce", {"chain": args.chain, "max": args.max}, _table_payload(table), checks
    )


def cmd_modes(args) -> dict:
    basis = periodic_basis(args.two_j)
    projector = cyclic_projector(args.two_j)
    gram = basis.coefficients.conj().T @ basis.coefficients
    ortho = float(np.abs(gram - np.eye(basis.count)).max()) if basis.count else 0.0
    fix = (
        float(np.abs(projector @ basis.coefficients - basis.coefficients).max())
        if basis.count
        else 0.0
    )
    deviation = verify_invariance(basis, args.verify_points, args.seed)
    checks = [
        _check("columns_orthonormal", ortho < 1e-10, residual=ortho),
        _check("columns_fixed_by_projector", fix < REAL_TOL, residual=fix),
        _check("invariance_max_deviation", deviation < REAL_TOL, residual=deviation),
    ]
    payload = {
        "two_j": args.two_j,
        "count": basis.count,
        "partitions": [str(f) if f else None for f in basis.partitions],
        "coefficients": [
            [[v.real, v.imag] for v in basis.coefficients[:, c]]
            for c in range(basis.count)
        ],
    }
    return report_document(
        "modes",
        {"two_j": args.two_j, "verify_points": args.verify_points},
        payload,
        checks,
        seed=args.seed,
    )


def cmd_classchars(args) -> dict:
    rows = class_character_table(args.two_j_max)
    payload = {
        "two_j_max": args.two_j_max,
        "rows": [
            {
                "class": list(r.cycle_type.parts),
                "reflective": r.reflective,
                "half_angles": list(r.half_angles),
                "values": list(r.values),
            }
            for r in rows
        ],
    }
    # the rows repeat one tabulated period; residual is its rounding margin
    checks = [
        _check(f"period_{len(values)}_class_{k}", margin <= ROUND_TOL, residual=margin)
        for k, (values, margin) in class_periods().items()
    ]
    return report_document(
        "classchars", {"two_j_max": args.two_j_max}, payload, checks
    )


# ------------------------------------------------------------------- verify

def _load_golden() -> dict:
    with resources.files("simplexmodes.data").joinpath("golden_tables.json").open() as fh:
        return json.load(fh)


def _cx(entry) -> complex:
    return complex(entry[0], entry[1])


def _cmat(rows) -> np.ndarray:
    return np.array([[_cx(v) for v in row] for row in rows])


def _max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


class _FaultInjector:
    """Perturbs one computed table entry so the golden gate must trip."""

    def __init__(self, spec: str | None):
        self.spec = None
        self.hit = False
        if spec:
            name, *idx = spec.split(":")
            try:
                self.spec = (name, tuple(int(i) for i in idx))
            except ValueError:
                raise UsageError(f"bad --inject-fault spec: {spec!r}") from None

    def bump(self, name: str, key, value):
        if self.spec == (name, key):
            self.hit = True
            return value + 1
        return value


def _verify_character_tables(golden, fault, results):
    for n_str, gold in golden["character_tables"].items():
        n = int(n_str)
        table = character_table(n)
        parts = [Partition(tuple(p)) for p in gold["partitions"]]
        classes = [CycleType(tuple(k)) for k in gold["classes"]]
        bad = []
        for i, f in enumerate(parts):
            for j, k in enumerate(classes):
                got = fault.bump("chartable", (n, i, j), table.entry(f, k))
                if got != gold["characters"][i][j]:
                    bad.append(f"chi^{f}({k}) = {got} != {gold['characters'][i][j]}")
        results.append(_check(
            f"characters_s{n}", not bad, detail="; ".join(bad)
        ))
        sizes_ok = [k.class_size for k in classes] == gold["class_sizes"]
        results.append(_check(f"class_sizes_s{n}", sizes_ok))
        branch = [trivial_multiplicity(f) for f in parts]
        results.append(_check(
            f"branch_column_s{n}", branch == gold["branch"],
            detail=f"{branch} vs {gold['branch']}",
        ))
        for err in gold["errata"]:
            f = Partition(tuple(err["partition"]))
            got = table.entry(f, CycleType(tuple(err["class"])))
            results.append(_check(
                f"erratum_s{n}_{f}",
                got == err["value"] != err["tabulated"],
                detail=f"computed {got}, tabulated {err['tabulated']}, "
                f"correct {err['value']}: {err['reason']}",
            ))


def _verify_circle(golden, results):
    probes = {
        "m=0": O2Label(0),
        "nu=0,eps=+": O2Label(3, 1),
        "nu=0,eps=-": O2Label(3, -1),
        "nu=1": O2Label(4, 1),
        "nu=2": O2Label(5, -1),
    }
    bad = []
    for row in golden["circle_rules"]:
        f, m0 = o2_reduce(probes[row["label"]])
        if list(f.parts) != row["partition"] or m0 != row["periodic"]:
            bad.append(row["label"])
    results.append(_check("circle_rules", not bad, detail=", ".join(bad)))


def _verify_o3(golden, results):
    gold = golden["o3_s4"]
    table = o3_multiplicity_table(max(gold["l_values"]))
    ok = [list(r) for r in table.entries] == gold["entries"]
    ok = ok and list(table.periodic) == gold["periodic"]
    states = sum(2 * l + 1 for l in gold["l_values"])
    ok = ok and states == gold["total_states"]
    ok = ok and sum(table.periodic) == gold["total_periodic"]
    results.append(_check("o3_s4_table", ok))


def _verify_o4(golden, fault, results):
    gold = golden["o4_s5"]
    table = o4_multiplicity_table(max(gold["two_j"]))
    parts = [Partition(tuple(p)) for p in gold["partitions"]]
    order = [table.partitions.index(f) for f in parts]
    bad = []
    for i, t in enumerate(gold["two_j"]):
        for j in range(len(parts)):
            got = fault.bump("o4", (t, j), table.entries[i][order[j]])
            if got != gold["entries"][i][j]:
                bad.append(f"m(2j={t},{parts[j]}) = {got} != {gold['entries'][i][j]}")
    results.append(_check("o4_s5_entries", not bad, detail="; ".join(bad)))
    results.append(_check(
        "o4_s5_periodic", list(table.periodic) == gold["periodic"],
        detail=f"{list(table.periodic)} vs {gold['periodic']}",
    ))
    totals = [table.totals[i] for i in order]
    results.append(_check("o4_s5_totals", totals == gold["totals"]))
    results.append(_check("o4_s5_grand_total", table.grand_total == gold["grand_total"]))
    harmonics = sum((t + 1) ** 2 for t in gold["two_j"])
    results.append(_check("o4_s5_harmonics_count", harmonics == gold["harmonics_total"]))
    for err in gold["errata"]:
        f = Partition(tuple(err["partition"]))
        i, j = gold["two_j"].index(err["two_j"]), parts.index(f)
        got = table.entries[i][order[j]]
        derived = {
            f"periodic_row_{err['two_j']}": table.periodic[i],
            "totals_" + "".join(map(str, f.parts)): totals[j],
            "grand_total": table.grand_total,
        }
        bad = [
            f"{key} computed {derived.get(key)}, recorded {d['value']}"
            for key, d in err["derived"].items()
            if not derived.get(key) == d["value"] != d["tabulated"]
        ]
        results.append(_check(
            "erratum_o4_s5",
            got == err["value"] != err["tabulated"] and not bad,
            detail=f"2j={err['two_j']} {f}: computed {got}, tabulated "
            f"{err['tabulated']}, correct {err['value']}: {err['reason']}"
            + "".join(f"; {b}" for b in bad),
        ))


def _verify_classchars(golden, fault, results):
    gold = golden["class_characters"]
    rows = {r.cycle_type.parts: r for r in class_character_table(60)}
    bad = []
    for i, parts in enumerate(tuple(tuple(k) for k in gold["classes"])):
        row = rows[parts]
        if row.reflective != gold["reflective"][i]:
            bad.append(f"{row.cycle_type}: reflective flag")
        got_angles = sorted(row.half_angles)
        want_angles = sorted(gold["half_angles"][i])
        if len(got_angles) != len(want_angles) or _max_abs(
            np.array(got_angles) - np.array(want_angles)
        ) > REAL_TOL:
            bad.append(f"{row.cycle_type}: half angles {got_angles} vs {want_angles}")
        for t, want in enumerate(gold["values"][i]):
            got = fault.bump("classchars", (i, t), row.values[t])
            if got != want:
                bad.append(f"{row.cycle_type}: 2j={t} {got} != {want}")
        period = gold["periods_two_j"][i]
        if period and row.values[period:] != row.values[:-period]:
            bad.append(f"{row.cycle_type}: period {period} violated")
    closed = rows[(1, 1, 1, 1, 1)], rows[(2, 1, 1, 1)]
    for t in range(61):
        if closed[0].values[t] != (t + 1) ** 2:
            bad.append(f"(1)^5 closed form at 2j={t}")
        if closed[1].values[t] != t + 1:
            bad.append(f"(2)(1)^3 closed form at 2j={t}")
    results.append(_check("class_characters", not bad, detail="; ".join(bad[:8])))


def _verify_weyl(golden, results):
    gold = golden["weyl"]
    vectors = weyl_vectors_s5()
    pts = np.array([v.a.as_array() for v in vectors])
    gram = pts @ pts.T
    results.append(_check(
        "weyl_gram", _max_abs(gram - np.array(gold["gram"])) < 1e-15,
        residual=_max_abs(gram - np.array(gold["gram"])),
    ))
    dev = max(
        _max_abs(v.v.matrix() - _cmat(m))
        for v, m in zip(vectors, gold["v_matrices"])
    )
    results.append(_check("weyl_v_matrices", dev < 1e-12, residual=dev))
    from .weylaction import class_operators

    ops = {str(k): op for k, op in class_operators().items()}
    bad = []
    for name, data in gold["class_matrices"].items():
        op = ops[name]
        if "g_r_g_l" in data:
            got = (op.g_r * op.g_l).matrix()
            if _max_abs(got - _cmat(data["g_r_g_l"])) > REAL_TOL:
                bad.append(f"{name}: g_r g_l")
            continue
        want_l, want_r = _cmat(data["g_l"]), _cmat(data["g_r"])
        dl = _max_abs(op.g_l.matrix() - want_l)
        dr = _max_abs(op.g_r.matrix() - want_r)
        if data.get("joint_sign"):
            dl_m = _max_abs(op.g_l.matrix() + want_l)
            dr_m = _max_abs(op.g_r.matrix() + want_r)
            if not (max(dl, dr) < REAL_TOL or max(dl_m, dr_m) < REAL_TOL):
                bad.append(f"{name}: rotation pair (up to joint sign)")
        elif max(dl, dr) > REAL_TOL:
            bad.append(f"{name}: rotation pair")
    results.append(_check("weyl_class_matrices", not bad, detail="; ".join(bad)))


def _verify_young(golden, results):
    gold = golden["young"]
    bad = []

    def close(name, got, want, tol=REAL_TOL):
        dev = _max_abs(np.asarray(got) - np.asarray(want))
        if dev > tol:
            bad.append(f"{name} (dev {dev:.2e})")

    for i, want in enumerate(gold["generators_32"], start=1):
        close(f"generator_32_{i}", generator_matrix(Partition.of(3, 2), i).matrix, want)
    for i, want in enumerate(gold["generators_211_s4"], start=1):
        close(f"generator_211_{i}", generator_matrix(Partition.of(2, 1, 1), i).matrix, want)
    for i, want in enumerate(gold["generators_22_s4"], start=1):
        close(f"generator_22_{i}", generator_matrix(Partition.of(2, 2), i).matrix, want)
    for i, want in enumerate(gold["reflection_generators_s3"], start=1):
        got = generator_matrix(Partition.of(2, 1), i).matrix
        if i == 1:
            # reference table uses the opposite overall sign for (1,2)
            if _max_abs(got - np.diag([1.0, -1.0])) > REAL_TOL:
                bad.append("generator_21_1")
        else:
            close(f"generator_21_{i}", got, want)
    cox5 = coxeter_element(5)
    cox4 = coxeter_element(4)
    close("coxeter_32", rep_matrix(Partition.of(3, 2), cox5).matrix, gold["coxeter_32"])
    close("coxeter_221", rep_matrix(Partition.of(2, 2, 1), cox5).matrix, gold["coxeter_221"])
    close("coxeter_311", rep_matrix(Partition.of(3, 1, 1), cox5).matrix, gold["coxeter_311"])
    close("coxeter_211_s4", rep_matrix(Partition.of(2, 1, 1), cox4).matrix, gold["coxeter_211_s4"])
    close("coxeter_22_s4", rep_matrix(Partition.of(2, 2), cox4).matrix, gold["coxeter_22_s4"])
    close("projector_22", trivial_projector(Partition.of(2, 2)).matrix, gold["projector_22"])
    close(
        "projector_211_primed",
        trivial_projector(Partition.of(2, 1, 1), primed=True).matrix,
        gold["projector_211_primed"],
    )
    primed = tetrahedral_primed_generators()
    for i, want in enumerate(gold["primed_generators_31"]):
        close(f"primed_generator_{i + 1}", primed[i].matrix, want)
    close(
        "primed_coxeter_211",
        primed_rep_matrix(Partition.of(2, 1, 1), cox4).matrix,
        gold["primed_coxeter_211"],
    )

    def fixed_vector(shape):
        space = fixed_subspace(Partition(shape))
        return space.basis[:, 0]

    def normalized(v):
        v = np.asarray(v, dtype=float)
        v = v / np.linalg.norm(v)
        for x in v:
            if abs(x) > 1e-9:
                return v if x > 0 else -v
        return v

    close("fixed_211", fixed_vector((2, 1, 1)), normalized(gold["fixed_211"]))
    close("fixed_22", fixed_vector((2, 2)), normalized(gold["fixed_22"]))
    close("fixed_32", fixed_vector((3, 2)), normalized(gold["fixed_32_raw"]))
    close("fixed_221", fixed_vector((2, 2, 1)), normalized(gold["fixed_221_raw"]))
    space = fixed_subspace(Partition.of(3, 1, 1))
    for i, raw in enumerate(gold["span_311"], start=1):
        v = np.asarray(raw) / np.linalg.norm(raw)
        resid = _max_abs(space.basis @ (space.basis.T @ v) - v)
        if resid > REAL_TOL:
            bad.append(f"span_311 vector {i} (residual {resid:.2e})")
    results.append(_check("young_golden", not bad, detail="; ".join(bad)))


def cmd_verify(args) -> tuple[dict, int]:
    golden = _load_golden()
    fault = _FaultInjector(args.inject_fault)
    results: list[dict] = []
    _verify_character_tables(golden, fault, results)
    _verify_circle(golden, results)
    _verify_o3(golden, results)
    _verify_o4(golden, fault, results)
    _verify_classchars(golden, fault, results)
    _verify_weyl(golden, results)
    _verify_young(golden, results)
    if fault.spec and not fault.hit:
        raise UsageError(f"--inject-fault {args.inject_fault} matches no computed entry")
    failed = [r for r in results if not r["passed"]]
    payload = {
        "golden_version": golden["version"],
        "checks_total": len(results),
        "checks_failed": len(failed),
    }
    doc = report_document(
        "verify", {"all": True, "inject_fault": args.inject_fault}, payload, results
    )
    return doc, (EXIT_OK if not failed else EXIT_INCONSISTENT)


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexmodes",
        description="Tables and periodic eigenmode bases for simplicial "
        "spherical manifolds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the report to a file")
        p.add_argument(
            "--format", choices=["json", "csv"], default="json",
            help="csv is available for reduce only",
        )

    p = sub.add_parser("chartable", help="character table of S(n)")
    p.add_argument("--n", type=int, choices=[3, 4, 5], required=True)
    common(p)

    p = sub.add_parser("branch", help="trivial-representation branching column")
    p.add_argument("--n", type=int, choices=[3, 4, 5], required=True)
    common(p)

    p = sub.add_parser("reduce", help="multiplicity table for one chain")
    p.add_argument(
        "--chain", choices=["o2s3c3", "o3s4c4", "o4s5c5"], required=True
    )
    p.add_argument("--max", type=int, required=True,
                   help="largest m, l or 2j row")
    common(p)

    p = sub.add_parser("modes", help="periodic mode coefficients on S^3")
    p.add_argument("--two-j", type=int, required=True, dest="two_j")
    p.add_argument("--verify-points", type=int, default=100, dest="verify_points")
    p.add_argument("--seed", type=int, default=20080514)
    common(p)

    p = sub.add_parser("classchars", help="class characters of the O(4) action")
    p.add_argument("--two-j-max", type=int, required=True, dest="two_j_max")
    common(p)

    p = sub.add_parser("verify", help="compare every table against the golden data")
    p.add_argument("--all", action="store_true", required=True)
    p.add_argument(
        "--inject-fault",
        help="perturb one computed entry (chartable:n:i:j, o4:two_j:col, "
        "classchars:row:col); the verification must then fail",
    )
    common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.format == "csv" and args.command != "reduce":
            raise UsageError("--format csv is only available for reduce")
        for dest, high in LIMITS.items():
            if not 0 <= getattr(args, dest, 0) <= high:
                raise UsageError(f"--{dest.replace('_', '-')} must lie in 0..{high}")
        if getattr(args, "verify_points", 1) < 1:
            raise UsageError("--verify-points must be at least 1")
        if args.command == "verify":
            doc, code = cmd_verify(args)
            _emit(doc, args)
            if code != EXIT_OK:
                failed = [c["name"] for c in doc["checks"] if not c["passed"]]
                print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
            return code
        commands = {"chartable": cmd_chartable, "branch": cmd_branch, "reduce": cmd_reduce,
                    "modes": cmd_modes, "classchars": cmd_classchars}
        _emit(commands[args.command](args), args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
