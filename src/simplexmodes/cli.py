"""Command-line front end: tables, mode coefficients, and golden-file checks.

Exit codes: 0 success, 2 usage error, 3 a failed check in the report or an internal
consistency error.  All JSON output is deterministic: sorted keys and floats rounded to
15 significant digits.  A report is written in pieces, the largest one coefficient row
or leaf list.  Each command imports the library modules it runs when it is called, so
`--version`, `--help` and usage errors load none of them.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import sys
from contextlib import nullcontext

from . import __version__
from .report import REAL_TOL, SPECTRUM_TOL, ConsistencyError, check, load

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3

MAX_ROWS = 10_000  # largest --max of reduce, --two-j-max of classchars, --verify-points
# periodic_basis has no degree cap, but its dense coefficients beyond 2j = 24 have
# no output contract
MAX_TWO_J_MODES = 24
#: accepted range (low, high) of each bounded option
LIMITS = {
    "max": (0, MAX_ROWS),
    "two_j_max": (0, MAX_ROWS),
    "two_j": (0, MAX_TWO_J_MODES),
    "verify_points": (1, MAX_ROWS),
    "seed": (0, 2**63 - 1),
}
#: the table builder in `reduction` of each chain that `reduce --chain` takes
CHAINS = {"o2s3c3": "o2_multiplicity_table", "o3s4c4": "o3_multiplicity_table",
          "o4s5c5": "o4_multiplicity_table"}


# The interpreter's final collection walks every tracked object, numpy's too,
# although the process frees its memory at once: freezing them at exit skips
# that walk however the process ends.  An in-process caller of `main` keeps
# its collector, since nothing is frozen before the interpreter exits.
atexit.register(gc.freeze)


class UsageError(Exception):
    pass


# ------------------------------------------------------------ serialization

def report_document(command: str, parameters: dict, payload: dict,
                    checks: list[dict], seed: int | None = None) -> dict:
    return {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "seed": seed,
        "tolerances": {"integer": 0, "real": REAL_TOL},
        "payload": payload,
        "checks": checks,
    }


def _json_text(obj, pad: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=1) with floats rounded to 15 significant
    digits (null if not finite), complex numbers as [re, im] and numpy values as Python
    values.  json encodes with indent in pure Python, so lists of ints or of finite complex
    numbers (`modes` rows) are joined here directly, dicts and matrices from `_json_chunks`."""
    if isinstance(obj, dict) or getattr(obj, "ndim", 0) > 1:
        return "".join(_json_chunks(obj, pad))
    if hasattr(obj, "tolist"):
        obj = obj.tolist()
    if isinstance(obj, complex):
        obj = [obj.real, obj.imag]
    if isinstance(obj, float):
        return repr(float(format(obj, ".15g"))) if math.isfinite(obj) else "null"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    inner, deeper, types = pad + " ", pad + "  ", set(map(type, obj))
    if types == {int}:
        items = map(int.__repr__, obj)
    elif types == {complex} and math.isfinite(abs(sum(obj))):
        items = (f"[{deeper}{float(format(c.real, '.15g'))!r},"
                 f"{deeper}{float(format(c.imag, '.15g'))!r}{inner}]" for c in obj)
    else:
        items = (_json_text(v, inner) for v in obj)
    body = ("," + inner).join(items)
    # one f-string copies body once, where a chain of + copies it per operand
    return f"[{inner}{body}{pad}]" if body else "[]"


def _json_chunks(obj, pad: str = "\n"):
    """`_json_text(obj, pad)` in pieces: a dict by entry, a matrix by row, a list whole."""
    if not isinstance(obj, dict) and getattr(obj, "ndim", 0) < 2:
        yield _json_text(obj, pad)
        return
    ends, inner, sep = "{}" if isinstance(obj, dict) else "[]", pad + " ", ""
    for k in sorted(obj) if ends == "{}" else range(len(obj)):
        yield (sep or ends[0]) + inner + (f"{json.dumps(k)}: " if ends == "{}" else "")
        yield from _json_chunks(obj[k], inner)
        sep = ","
    yield pad + ends[1] if sep else ends


def _emit(doc: dict, args) -> None:
    """Write the report in pieces, at most one coefficient row, leaf list or CSV line each;
    an error while rendering (exit 2) leaves the pieces written so far on stdout or in FILE."""
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
        if getattr(args, "format", "json") == "csv":
            _table_csv(doc["payload"], out)
        else:
            out.writelines(_json_chunks(doc))
            out.write("\n")


# ----------------------------------------------------------------- commands

def cmd_chartable(args) -> dict:
    from .permgroup import character_table

    table = character_table(args.n)
    classes = table.cycle_types
    # column orthogonality, exact in integers
    ortho = max(
        abs(sum(row[a] * row[b] for row in table.values)
            - (table.order // classes[a].class_size if a == b else 0))
        for a in range(len(classes))
        for b in range(len(classes))
    )
    # the hook-length dimensions, a second route to the identity column
    dim_sq = sum(f.dimension ** 2 for f in table.partitions)
    checks = [
        check("column_orthogonality_exact", ortho, 0),
        check("sum_of_squared_dimensions", abs(dim_sq - table.order), 0),
    ]
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
    from .permgroup import Partition, character_table, cyclic_elements, trivial_multiplicity

    table = character_table(args.n)
    gold = load()["character_tables"][str(args.n)]
    parts = [Partition(tuple(p)) for p in gold["partitions"]]
    column = [trivial_multiplicity(f) for f in parts]
    # brute-force oracle: average characters over the explicit cyclic elements
    residual = max(
        abs(sum(table.entry(f, h.cycle_type()) for h in cyclic_elements(args.n)) / args.n - m)
        for f, m in zip(parts, column)
    )
    checks = [check("matches_elementwise_average", residual, 0)]
    payload = {
        "n": args.n,
        "partitions": [list(f.parts) for f in parts],
        "trivial_multiplicity": column,
    }
    return report_document("branch", {"n": args.n}, payload, checks)


def _table_payload(table) -> dict:
    """The `reduce` payload of one `reduction.MultiplicityTable`."""
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


def _table_csv(payload: dict, out) -> None:
    """Write the `reduce` payload to `out` as CSV: one line per row, then the totals if any."""
    import csv

    from .permgroup import Partition

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label", *(str(Partition(tuple(p))) for p in payload["partitions"]),
                     "periodic"])
    for label, row, per in zip(payload["row_labels"], payload["entries"], payload["periodic"]):
        writer.writerow([label, *row, per])
    if "totals" in payload:
        writer.writerow(["totals", *payload["totals"], payload["grand_total"]])


def cmd_reduce(args) -> dict:
    from . import reduction

    table = getattr(reduction, CHAINS[args.chain])(args.max)
    return report_document("reduce", {"chain": args.chain, "max": args.max},
                           _table_payload(table), reduction.table_checks(table))


def cmd_modes(args) -> dict:
    from . import modes

    basis = modes.periodic_basis(args.two_j)
    gram, fixed = modes.basis_residuals(basis)
    deviation = modes.verify_invariance(basis, args.verify_points, args.seed)
    checks = [
        check("columns_orthonormal", gram, 1e-10),
        check("columns_fixed_by_projector", fixed, REAL_TOL),
        check("content_sum_tags", basis.spectrum_margin, SPECTRUM_TOL,
              detail="eigenvalues of the transposition sum on the periodic modes "
              "vs the content sums [5] 10, [32] 2, [311] 0, [221] -2, [11111] -10"),
        check("tag_projector_traces", basis.trace_margin, SPECTRUM_TOL,
              detail="trace of each content projector vs m_f * w_f"),
        check("invariance_max_deviation", deviation, REAL_TOL),
    ]
    payload = {
        "two_j": args.two_j,
        "count": basis.count,
        "partitions": [str(f) if f else None for f in basis.partitions],
        "coefficients": basis.coefficients.T,
    }
    return report_document(
        "modes",
        {"two_j": args.two_j, "verify_points": args.verify_points},
        payload,
        checks,
        seed=args.seed,
    )


def cmd_classchars(args) -> dict:
    from .weylaction import class_character_table, class_operators, operator_character

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
    # the printed characters against the float operator traces on 2j = 0..11,
    # two periods of every bounded class (the lcm of its cycle lengths is <= 6)
    traces = max(
        abs(row["values"][t] - operator_character(t, op))
        for row, op in zip(payload["rows"], class_operators().values())
        for t in range(min(args.two_j_max, 11) + 1)
    )
    checks = [check("characters_match_operator_traces", traces, REAL_TOL)]
    return report_document(
        "classchars", {"two_j_max": args.two_j_max}, payload, checks
    )


# ------------------------------------------------------------------- verify

def cmd_verify(args) -> dict:
    from . import golden

    data = load()
    checks, hit = golden.run(data, args.inject_fault)
    if args.inject_fault is not None and not hit:
        raise UsageError(f"--inject-fault {args.inject_fault!r} matches no computed entry")
    payload = {
        "golden_version": data["version"],
        "checks_total": len(checks),
        "checks_failed": sum(not c["passed"] for c in checks),
    }
    return report_document(
        "verify", {"all": True, "inject_fault": args.inject_fault}, payload, checks
    )


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

    p = sub.add_parser("chartable", help="character table of S(n)")
    p.add_argument("--n", type=int, choices=[3, 4, 5], required=True)
    common(p)

    p = sub.add_parser("branch", help="trivial-representation branching column")
    p.add_argument("--n", type=int, choices=[3, 4, 5], required=True)
    common(p)

    p = sub.add_parser("reduce", help="multiplicity table for one chain")
    p.add_argument("--chain", choices=list(CHAINS), required=True)
    p.add_argument("--max", type=int, required=True,
                   help="largest m, l or 2j row")
    common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")

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
    commands = {"chartable": cmd_chartable, "branch": cmd_branch, "reduce": cmd_reduce,
                "modes": cmd_modes, "classchars": cmd_classchars, "verify": cmd_verify}
    try:
        for dest, (low, high) in LIMITS.items():
            if not low <= getattr(args, dest, low) <= high:
                raise UsageError(f"--{dest.replace('_', '-')} must lie in {low}..{high}")
        doc = commands[args.command](args)
        _emit(doc, args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
