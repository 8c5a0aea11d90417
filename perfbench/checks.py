"""Output checks for simplexmodes CLI commands, independent of the BLAS build.

Every check compares a command's exit code and stdout against the golden
tables shipped with the package, or against identities the benchmark
recomputes itself.  `modes` coefficients are never compared entry by entry:
the basis inside a degenerate eigenspace may differ between LAPACK builds,
while the count, the partition tags and orthonormality may not.

`check(argv, exit_code, stdout, ref)` returns a list of problems; an empty
list means the command's output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

GRAM_TOL = 1e-10
CLASSCHARS_TOL = 1e-8
CLASSCHARS_CHECKED_MAX = 60
GOLDEN_O4_ROWS = 10
EXPECTED_FAULT_CHECK = {"o4": "o4_s5_entries", "chartable": "characters_s",
                        "classchars": "class_characters"}


def _key(parts) -> tuple[int, ...]:
    return tuple(parts)


def _tag(parts) -> str:
    return "[" + "".join(str(p) for p in parts) + "]"


class Reference:
    """Golden data plus the exact O(4) > S(5) multiplicities derived from it.

    The S(5) class characters on the degree-2j harmonics are integers: the
    identity gives (2j+1)^2, a transposition 2j+1, and the other five
    classes repeat with the periods stored in the golden file.  So
    m_f(2j) = (1/120) sum_k |k| chi_k(2j) chi_f(k) is exact for every 2j.
    """

    def __init__(self, golden: dict):
        self.golden = golden
        s5 = golden["character_tables"]["5"]
        self.s5_parts = [_key(p) for p in s5["partitions"]]
        self.s5_classes = [_key(k) for k in s5["classes"]]
        self.s5_sizes = s5["class_sizes"]
        self.s5_chars = s5["characters"]
        self.weights = dict(zip(self.s5_parts, s5["branch"]))
        self.dims = {}
        for n in ("4", "5"):
            table = golden["character_tables"][n]
            identity = [_key(k) for k in table["classes"]].index((1,) * int(n))
            for part, row in zip(table["partitions"], table["characters"]):
                self.dims[_key(part)] = row[identity]
        cc = golden["class_characters"]
        self.class_rows = {
            _key(k): (period, values)
            for k, period, values in zip(cc["classes"], cc["periods_two_j"], cc["values"])
        }

    def class_character(self, cls: tuple[int, ...], two_j: int) -> int:
        if cls == (1, 1, 1, 1, 1):
            return (two_j + 1) ** 2
        if cls == (2, 1, 1, 1):
            return two_j + 1
        period, values = self.class_rows[cls]
        value = values[two_j % period]
        if value != round(value):
            raise ValueError(f"golden class character {value} is not an integer")
        return int(round(value))

    def o4_row(self, two_j: int) -> dict[tuple[int, ...], int]:
        """Exact multiplicity of every S(5) partition at degree 2j."""
        chis = [self.class_character(k, two_j) for k in self.s5_classes]
        row = {}
        for part, chars in zip(self.s5_parts, self.s5_chars):
            m = Fraction(sum(s * c * x for s, c, x in zip(self.s5_sizes, chis, chars)), 120)
            if m.denominator != 1:
                raise ValueError(f"non-integer multiplicity {m} for {part} at 2j={two_j}")
            row[part] = int(m)
        return row

    def periodic_count(self, two_j: int) -> int:
        return sum(m * self.weights[f] for f, m in self.o4_row(two_j).items())


def load_reference(root: Path) -> Reference:
    path = root / "src" / "simplexmodes" / "data" / "golden_tables.json"
    with open(path) as fh:
        return Reference(json.load(fh))


def _option(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def expected_exit(argv: list[str]) -> int:
    return 3 if "--inject-fault" in argv else 0


def check(argv: list[str], exit_code: int, stdout: str, ref: Reference) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    want = expected_exit(argv)
    if exit_code != want:
        return [f"exit code {exit_code}, expected {want}"]
    if argv == ["--version"]:
        return [] if stdout.strip() else ["empty version string"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(doc, dict) or doc.get("command") != argv[0]:
        return [f"document is not a {argv[0]!r} report"]
    try:
        return _CHECKERS[argv[0]](argv, doc, ref)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed {argv[0]} document: {exc!r}"]


def _failed_checks(doc: dict) -> list[str]:
    return [c["name"] for c in doc["checks"] if not c["passed"]]


def _checks_pass(doc: dict) -> list[str]:
    failed = _failed_checks(doc)
    return [f"self-check failed: {', '.join(failed)}"] if failed else []


def _check_chartable(argv, doc, ref):
    problems = _checks_pass(doc)
    n = _option(argv, "--n")
    gold = ref.golden["character_tables"][n]
    p = doc["payload"]
    got = {
        (_key(f), _key(k)): row[j]
        for f, row in zip(p["partitions"], p["characters"])
        for j, k in enumerate(p["classes"])
    }
    for f, row in zip(gold["partitions"], gold["characters"]):
        for k, want in zip(gold["classes"], row):
            if got.get((_key(f), _key(k))) != want:
                problems.append(f"chi^{_tag(f)}({_key(k)}) differs from golden")
    return problems


def _check_branch(argv, doc, ref):
    problems = _checks_pass(doc)
    gold = ref.golden["character_tables"][_option(argv, "--n")]
    p = doc["payload"]
    got = dict(zip(map(_key, p["partitions"]), p["trivial_multiplicity"]))
    want = dict(zip(map(_key, gold["partitions"]), gold["branch"]))
    if got != want:
        problems.append(f"branch column {got} differs from golden {want}")
    return problems


def _check_reduce(argv, doc, ref):
    problems = _checks_pass(doc)
    chain, top = _option(argv, "--chain"), int(_option(argv, "--max"))
    p = doc["payload"]
    parts = [_key(f) for f in p["partitions"]]
    rows = p["entries"]
    if len(rows) != top + 1 or len(p["periodic"]) != top + 1:
        return problems + [f"{len(rows)} rows, expected {top + 1}"]
    for t, row in enumerate(rows):
        size = (t + 1) ** 2 if chain == "o4s5c5" else 2 * t + 1
        if sum(ref.dims[f] * m for f, m in zip(parts, row)) != size:
            problems.append(f"dimension audit fails at row {t}")
    if chain == "o4s5c5":
        gold = ref.golden["o4_s5"]
        gold_parts = [_key(f) for f in gold["partitions"]]
        for t, gold_row in zip(gold["two_j"], gold["entries"]):
            if t > min(top, GOLDEN_O4_ROWS):
                continue
            got = dict(zip(parts, rows[t]))
            if any(got[f] != m for f, m in zip(gold_parts, gold_row)):
                problems.append(f"row 2j={t} differs from golden")
        for t, (row, periodic) in enumerate(zip(rows, p["periodic"])):
            if periodic != sum(ref.weights[f] * m for f, m in zip(parts, row)):
                problems.append(f"periodic count wrong at 2j={t}")
    return problems


def _check_classchars(argv, doc, ref):
    problems = _checks_pass(doc)
    top = int(_option(argv, "--two-j-max"))
    rows = doc["payload"]["rows"]
    if sorted(_key(r["class"]) for r in rows) != sorted(ref.class_rows):
        return problems + ["class list differs from golden"]
    for r in rows:
        cls, values = _key(r["class"]), r["values"]
        if len(values) != top + 1:
            problems.append(f"class {cls}: {len(values)} values, expected {top + 1}")
            continue
        for t in range(min(top, CLASSCHARS_CHECKED_MAX) + 1):
            if abs(values[t] - ref.class_character(cls, t)) > CLASSCHARS_TOL:
                problems.append(f"class {cls} at 2j={t}: {values[t]}")
                break
    return problems


def _gram_residual(columns: list[list[complex]]) -> float:
    worst = 0.0
    for a, u in enumerate(columns):
        for b in range(a, len(columns)):
            v = columns[b]
            dot = sum(x.conjugate() * y for x, y in zip(u, v))
            worst = max(worst, abs(dot - (1.0 if a == b else 0.0)))
    return worst


def _check_modes(argv, doc, ref):
    problems = _checks_pass(doc)
    two_j = int(_option(argv, "--two-j"))
    p = doc["payload"]
    columns = [[complex(re, im) for re, im in col] for col in p["coefficients"]]
    count = p["count"]
    if not (count == len(columns) == len(p["partitions"])):
        return problems + ["count, coefficient columns and tags disagree"]
    if any(len(col) != (two_j + 1) ** 2 for col in columns):
        problems.append("a coefficient column has the wrong length")
    if count != ref.periodic_count(two_j):
        problems.append(f"count {count}, o4s5c5 table says {ref.periodic_count(two_j)}")
    tags: dict[str, int] = {}
    for tag in p["partitions"]:
        tags[tag] = tags.get(tag, 0) + 1
    want = {
        _tag(f): m * ref.weights[f]
        for f, m in ref.o4_row(two_j).items()
        if m * ref.weights[f]
    }
    if tags != want:
        problems.append(f"columns per partition {tags}, expected {want}")
    residual = _gram_residual(columns)
    if not residual < GRAM_TOL:
        problems.append(f"Gram residual {residual:.3g} exceeds {GRAM_TOL}")
    return problems


def _check_verify(argv, doc, ref):
    p = doc["payload"]
    failed = _failed_checks(doc)
    problems = []
    if p["checks_total"] != len(doc["checks"]) or p["checks_failed"] != len(failed):
        problems.append("checks_total or checks_failed disagrees with the check list")
    fault = _option(argv, "--inject-fault")
    if fault is None:
        if p["checks_failed"] != 0:
            problems.append(f"golden gate failed: {', '.join(failed)}")
    else:
        expected = EXPECTED_FAULT_CHECK[fault.split(":")[0]]
        if not failed or any(not name.startswith(expected) for name in failed):
            problems.append(f"fault {fault} tripped {failed}, expected {expected}")
    return problems


_CHECKERS = {
    "chartable": _check_chartable,
    "branch": _check_branch,
    "reduce": _check_reduce,
    "classchars": _check_classchars,
    "modes": _check_modes,
    "verify": _check_verify,
}
