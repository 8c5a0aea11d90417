import importlib.util
import json
import math
from importlib import resources
from pathlib import Path

import pytest

from simplexmodes import golden, report
from simplexmodes.golden import Row
from simplexmodes.report import ConsistencyError

TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_golden_tables.py"


def test_generator_reproduces_golden_file_byte_for_byte():
    spec = importlib.util.spec_from_file_location("make_golden_tables", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # serialised exactly as tool.main() writes it
    text = json.dumps(tool.DOC, indent=1, sort_keys=True) + "\n"
    shipped = resources.files("simplexmodes.data").joinpath("golden_tables.json")
    assert text.encode() == shipped.read_bytes()


class TestCompare:
    def test_exact_row_needs_equality(self):
        assert golden._compare(Row("x", [1, 2], [1, 2]), None) == (0.0, "", False)
        residual, problem, _ = golden._compare(Row("x", [1, 2], [1, 3], label="m"), None)
        assert residual == 1.0
        assert problem == "m index (1): computed 2, golden 3"

    def test_tolerance_bounds_the_deviation(self):
        residual, problem, _ = golden._compare(Row("x", [0.5], [0.5 + 1e-12], 1e-9), None)
        assert 0 < residual <= 1e-9 and problem == ""

    def test_shape_mismatch_fails(self):
        residual, problem, _ = golden._compare(Row("x", [1, 2], [[1, 2]]), None)
        assert residual == math.inf and "shape" in problem

    def test_ragged_value_is_a_shape_mismatch(self):
        for got, want in (([[1, 2], [3]], [[1, 2], [3, 4]]), ([[1, 2], [3, 4]], [[1, 2], 3])):
            residual, problem, _ = golden._compare(Row("x", got, want, label="m"), None)
            assert residual == math.inf and problem.startswith("m shape ") and "ragged" in problem
        row = Row("x", [[0, 0], [0]], [[0, 0], [0, 0]], fault="t")
        assert golden._compare(row, "t:1:0") == (math.inf, "shape ragged != golden (2, 2)", False)

    def test_missing_value_fails(self):
        residual, problem, _ = golden._compare(Row("x", [math.nan], [1]), None)
        assert residual == math.inf and problem

    def test_fault_needs_a_key_and_an_index_in_range(self):
        row = Row("x", [[0, 0], [0, 0]], [[0, 0], [0, 0]], fault="t")
        assert golden._compare(row, "t:1:0")[2]
        for spec in ("t:2:0", "t:-1:0", "t:1", "t:1:0:0", "t:a:0", "u:1:0"):
            assert not golden._compare(row, spec)[2], spec
        assert not golden._compare(row._replace(fault=None), "t:1:0")[2]

    def test_check_reports_its_largest_deviation(self, monkeypatch):
        rows = [Row("c", [0], [0]), Row("c", [1.0], [1.0 + 2e-13], 1e-12),
                Row("c", [1.0], [1.0 + 1e-10], 1e-9, detail="note")]
        monkeypatch.setattr(golden, "SECTIONS", (lambda gold: rows,))
        monkeypatch.setattr(golden, "CHECKS", ("c",))
        [c], _ = golden.run({})
        assert c["passed"] and c["tolerance"] == 1e-9 and c["detail"] == "note"
        rows.append(Row("c", [2], [1], label="late"))
        [c], _ = golden.run({})
        assert not c["passed"] and c["residual"] == 1.0 and c["tolerance"] == 0
        assert c["detail"] == "late index (0): computed 2, golden 1; note"


def _negated(value):
    if isinstance(value, list):
        return [_negated(v) for v in value]
    return -value


@pytest.mark.parametrize("joint_sign", [True, False])
def test_negated_coxeter_pair_needs_the_joint_sign(joint_sign):
    # the golden (5) rotation pair is fixed only up to a joint sign, so the
    # gate compares the sign of the computed pair that fits the record better
    gold = report.load()
    record = gold["weyl"]["class_matrices"]["(5)"]
    record.update(g_l=_negated(record["g_l"]), g_r=_negated(record["g_r"]))
    if not joint_sign:
        del record["joint_sign"]
    checks, _ = golden.run(gold)
    c = next(c for c in checks if c["name"] == "weyl_class_matrices")
    assert c["passed"] == joint_sign
    assert joint_sign or c["detail"].startswith("(5) index")


class TestRegistry:
    def test_checks_are_registered_in_report_order(self):
        checks, _ = golden.run(report.load())
        assert [c["name"] for c in checks] == list(golden.CHECKS)
        assert all(c["passed"] for c in checks)

    def test_unregistered_check_raises(self, monkeypatch):
        monkeypatch.setattr(golden, "SECTIONS", (lambda gold: [Row("stray", [0], [0])],))
        with pytest.raises(ConsistencyError, match="stray"):
            golden.run({})
