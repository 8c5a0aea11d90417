"""Per-layer metrics from the spans that shim.py writes, one file per command.

A function's inclusive time `.s` adds the durations of its spans that have
no enclosing span of the same function, so recursion is not counted twice.
Its self time `.self_s` is each span's duration minus the part of that
interval covered by its direct child spans.
"""

from __future__ import annotations

import statistics

NS = 1e-9
MB = 2**20
WIGNER_TWO_J = (4, 6, 8, 10, 12)
CLI_COMMANDS = ("chartable", "branch", "reduce", "modes", "classchars", "verify")
CACHE_NAMES = (
    "su2wigner._wigner_terms",
    "modes._operator_matrices",
    "weylaction.class_operators",
    "permgroup._mn",
)


def _metric_list() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def fn(name, *fields):
        units = {"calls": "count", "s": "s", "self_s": "s", "steps": "count",
                 "bytes": "B", "peak_mb": "MB"}
        out.extend((f"{name}.{f}", units[f], "lower") for f in fields)

    fn("su2wigner.chebyshev_u", "calls", "s", "steps")
    fn("su2wigner.su2_character", "calls", "s")
    fn("su2wigner.wigner_d", "calls", "s")
    for two_j in WIGNER_TWO_J:
        fn(f"su2wigner.wigner_d.2j{two_j}", "calls", "s")
    fn("weylaction.operator_character", "calls", "s")
    fn("weylaction.class_character_table", "s")
    fn("weylaction.operator_matrix", "calls", "s", "bytes")
    fn("weylaction.act_on_point", "calls", "s")
    fn("reduction.o4_multiplicity_table", "s", "self_s")
    fn("reduction.o3_multiplicity_table", "s", "self_s")
    fn("reduction.multiplicity_o4_s5", "calls", "self_s")
    fn("reduction.multiplicity_o3_s4", "calls", "self_s")
    fn("permgroup.character", "calls", "s")
    fn("permgroup.character_table", "s")
    fn("modes.periodic_basis", "s", "self_s", "peak_mb")
    fn("modes.cyclic_projector", "s")
    fn("modes.verify_invariance", "s")
    fn("modes.evaluate_modes", "calls", "s")
    fn("modes.sample_points", "s")
    fn("youngrep.fixed_subspace", "calls", "s")
    fn("youngrep.rep_matrix", "calls", "s")
    fn("youngrep.primed_rep_matrix", "calls", "s")
    for command in CLI_COMMANDS:
        fn(f"cli.cmd_{command}", "s")
    out += [
        ("cli.emit_s", "s", "lower"),
        ("cli.output_bytes", "B", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.import_numpy_s", "s", "lower"),
    ]
    for cache in CACHE_NAMES:
        out += [(f"cache.{cache}.hits", "count", "higher"),
                (f"cache.{cache}.misses", "count", "lower")]
    out += [
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


PER_LAYER = _metric_list()
UNITS = {name: unit for name, unit, _ in PER_LAYER}
# counts that depend only on the commands run, never on timing or the seed
EXACT = {name for name, unit, _ in PER_LAYER if unit == "count"} | {
    "weylaction.operator_matrix.bytes"}


def covered_ns(start: int, end: int, children: list[tuple[int, int]]) -> int:
    """Length of the union of child intervals, clipped to [start, end]."""
    total, reach = 0, start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            reach = c_end
    return total


def function_stats(names: list[str], spans: list) -> dict[str, dict]:
    """calls, inclusive ns, self ns and summed notes per function name.

    `spans` holds (name_id, start_ns, end_ns, parent_index, note) with each
    parent listed before its children.
    """
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    stats = {name: {"calls": 0, "ns": 0, "self_ns": 0, "notes": []} for name in names}
    for i, (name_id, start, end, parent, note) in enumerate(spans):
        entry = stats[names[name_id]]
        entry["calls"] += 1
        entry["self_ns"] += (end - start) - covered_ns(start, end, children[i])
        if note is not None:
            entry["notes"].append((note, end - start))
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name_id:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["ns"] += end - start
    return stats


def pass_metrics(docs: list[dict], output_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics for one traced pass, and calls/s/self_s of every
    wrapped function, from the span documents of the pass's commands."""
    totals: dict[str, dict] = {}
    caches = {name: [0, 0] for name in CACHE_NAMES}
    for doc in docs:
        for name, entry in function_stats(doc["names"], doc["spans"]).items():
            acc = totals.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "notes": []})
            for key in ("calls", "ns", "self_ns"):
                acc[key] += entry[key]
            acc["notes"] += entry["notes"]
        for name, (hits, misses) in doc["caches"].items():
            caches[name][0] += hits
            caches[name][1] += misses
    functions = {
        name: {"calls": e["calls"], "s": e["ns"] * NS, "self_s": e["self_ns"] * NS}
        for name, e in sorted(totals.items())
    }

    def get(name, field):
        return functions.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})[field]

    def notes(name):
        return totals.get(name, {"notes": []})["notes"]

    metrics: dict[str, float | int] = {}
    for name, _, _ in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and head.count(".") == 1:
            metrics[name] = get(head, field)
    metrics["su2wigner.chebyshev_u.steps"] = sum(n for n, _ in notes("su2wigner.chebyshev_u"))
    metrics["weylaction.operator_matrix.bytes"] = sum(
        b for b, _ in notes("weylaction.operator_matrix"))
    for two_j in WIGNER_TWO_J:
        hits = [ns for t, ns in notes("su2wigner.wigner_d") if t == two_j]
        metrics[f"su2wigner.wigner_d.2j{two_j}.calls"] = len(hits)
        metrics[f"su2wigner.wigner_d.2j{two_j}.s"] = sum(hits) * NS
    metrics["modes.periodic_basis.peak_mb"] = max(
        (b for b, _ in notes("modes.periodic_basis")), default=0) / MB
    metrics["cli.emit_s"] = get("cli.main", "s") - sum(
        get(f"cli.cmd_{c}", "s") for c in CLI_COMMANDS)
    metrics["cli.output_bytes"] = output_bytes
    for key, field in (("cli.import_s", "import_ns"), ("cli.import_numpy_s", "import_numpy_ns")):
        metrics[key] = statistics.median(d[field] for d in docs) * NS if docs else 0.0
    for name, (hits, misses) in caches.items():
        metrics[f"cache.{name}.hits"] = hits
        metrics[f"cache.{name}.misses"] = misses
    return metrics, functions
