"""Tests of the benchmark itself: output checks, failure counting, span
arithmetic and the tracing shim.

    python3 -m pytest -p no:cacheprovider perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import checks
import layers
import run

sys.path.insert(0, str(run.SRC))
from simplexmodes import cli  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return checks.load_reference(run.ROOT)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def outputs():
    commands = {
        "reduce": ["reduce", "--chain", "o4s5c5", "--max", "12"],
        "modes": ["modes", "--two-j", "4", "--verify-points", "2"],
        "verify": ["verify", "--all"],
    }
    return {name: (argv, *_cli(argv)) for name, argv in commands.items()}


def test_reference_reproduces_golden_o4_table(ref):
    gold = ref.golden["o4_s5"]
    parts = [tuple(f) for f in gold["partitions"]]
    for two_j, row, periodic in zip(gold["two_j"], gold["entries"], gold["periodic"]):
        got = ref.o4_row(two_j)
        assert [got[f] for f in parts] == row
        assert ref.periodic_count(two_j) == periodic


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["chartable", "--n", "5"],
    ["branch", "--n", "4"],
    ["reduce", "--chain", "o3s4c4", "--max", "30"],
    ["classchars", "--two-j-max", "70"],
    ["verify", "--all", "--inject-fault", "o4:10:5"],
])
def test_correct_outputs_pass(ref, argv):
    if argv == ["--version"]:
        code, out = 0, "0.1.0\n"
    else:
        code, out = _cli(argv)
    assert checks.check(argv, code, out, ref) == []


def test_unmodified_documents_pass(ref, outputs):
    for argv, code, out in outputs.values():
        assert checks.check(argv, code, out, ref) == []


def test_bumped_table_entry_fails(ref, outputs):
    argv, code, out = outputs["reduce"]
    doc = json.loads(out)
    doc["payload"]["entries"][7][2] += 1
    assert checks.check(argv, code, json.dumps(doc), ref)


def test_dropped_mode_column_fails(ref, outputs):
    argv, code, out = outputs["modes"]
    doc = json.loads(out)
    doc["payload"]["coefficients"].pop()
    doc["payload"]["partitions"].pop()
    doc["payload"]["count"] -= 1
    assert checks.check(argv, code, json.dumps(doc), ref)


def test_non_orthonormal_modes_fail(ref, outputs):
    argv, code, out = outputs["modes"]
    doc = json.loads(out)
    doc["payload"]["coefficients"][1] = copy.deepcopy(doc["payload"]["coefficients"][0])
    assert checks.check(argv, code, json.dumps(doc), ref)


def test_wrong_exit_code_fails(ref, outputs):
    argv, _, out = outputs["verify"]
    assert checks.check(argv, 3, out, ref)
    assert checks.check(["verify", "--all", "--inject-fault", "o4:10:5"], 0, out, ref)


def test_failures_count_in_fail_ratio(ref, outputs):
    """A bumped row, a dropped column and a wrong exit code are each one failure."""
    argv_r, code_r, out_r = outputs["reduce"]
    argv_m, code_m, out_m = outputs["modes"]
    argv_v, _, out_v = outputs["verify"]
    bumped = json.loads(out_r)
    bumped["payload"]["entries"][3][0] += 1
    dropped = json.loads(out_m)
    for key in ("coefficients", "partitions"):
        dropped["payload"][key].pop()
    dropped["payload"]["count"] -= 1
    canned = [
        (code_r, out_r), (code_r, json.dumps(bumped)),
        (code_m, out_m), (code_m, json.dumps(dropped)),
        (0, out_v), (3, out_v),
    ]
    argvs = [argv_r, argv_r, argv_m, argv_m, argv_v, argv_v]
    runner = run.Runner(Path("."), ref)
    replies = iter(canned)

    def fake_spawn(cmd):
        code, out = next(replies)
        return code, out.encode(), b"", 0.1, 30.0

    runner.spawn = fake_spawn
    results = [runner.command(argv) for argv in argvs]
    assert [r["ok"] for r in results] == [True, False, True, False, True, False]
    assert runner.attempted == 6 and len(runner.failures) == 3


def test_self_time_of_nested_spans():
    names = ["a", "b", "c", "d"]
    spans = [
        (0, 0, 100, -1, None),   # a
        (1, 10, 40, 0, None),    # b inside a
        (2, 20, 30, 1, None),    # c inside b
        (3, 50, 60, 0, None),    # d inside a
        (0, 60, 90, 0, None),    # a again, nested in a
    ]
    stats = layers.function_stats(names, spans)
    assert stats["a"]["self_ns"] == (100 - 30 - 10 - 30) + 30
    assert stats["b"]["self_ns"] == 20
    assert stats["c"]["self_ns"] == 10
    assert stats["d"]["self_ns"] == 10
    assert stats["a"]["ns"] == 100  # the nested call is not counted twice
    assert stats["a"]["calls"] == 2


def test_overlapping_children_are_covered_once():
    assert layers.covered_ns(0, 100, [(10, 50), (30, 70), (90, 120)]) == 70


def test_tail_percentile():
    assert run.tail(list(range(10))) is None
    assert run.tail([float(v) for v in range(20)]) == {"pct": 50, "value": 9.0}


def test_shim_traces_functions_bound_by_other_modules():
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        spans_path = Path(tmp) / "spans.json"
        argv = ["chartable", "--n", "3"]
        proc = subprocess.run(
            [sys.executable, str(run.SHIM), str(spans_path), "0", "0", "--", *argv],
            env=run.child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(spans_path.read_text())
    names, spans = doc["names"], doc["spans"]
    called = [names[s[0]] for s in spans]
    # cli binds character_table with `from .permgroup import character_table`
    assert called.count("permgroup.character_table") == 1
    table = called.index("permgroup.character_table")
    assert names[spans[spans[table][3]][0]] == "cli.cmd_chartable"
    metrics, _ = layers.pass_metrics([doc], len(proc.stdout))
    assert metrics["permgroup.character.calls"] == 9
    assert metrics["cli.output_bytes"] == len(proc.stdout)
    assert set(doc["caches"]) == set(layers.CACHE_NAMES)
