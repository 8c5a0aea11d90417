import json

import pytest

from simplexmodes import cli, golden, modes, reduction
from simplexmodes.cli import MAX_ROWS, main
from simplexmodes.modes import MAX_TWO_J_MODES
from simplexmodes.permgroup import Partition
from simplexmodes.weylaction import ROUND_TOL


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


class TestCharTable:
    def test_s3(self, capsys):
        rc, doc = run_json(capsys, "chartable", "--n", "3")
        assert rc == 0
        # partitions and classes both come in reverse-lex order
        assert doc["payload"]["partitions"] == [[3], [2, 1], [1, 1, 1]]
        assert doc["payload"]["classes"] == [[3], [2, 1], [1, 1, 1]]
        assert doc["payload"]["characters"] == [[1, 1, 1], [-1, 0, 2], [1, -1, 1]]
        assert all(c["passed"] for c in doc["checks"])

    def test_metadata(self, capsys):
        _, doc = run_json(capsys, "chartable", "--n", "4")
        assert doc["command"] == "chartable"
        assert doc["tolerances"]["real"] == 1e-9


class TestBranch:
    def test_columns(self, capsys):
        _, doc = run_json(capsys, "branch", "--n", "3")
        assert doc["payload"]["trivial_multiplicity"] == [1, 0, 1]
        _, doc = run_json(capsys, "branch", "--n", "4")
        assert doc["payload"]["trivial_multiplicity"] == [1, 0, 1, 1, 0]
        _, doc = run_json(capsys, "branch", "--n", "5")
        assert doc["payload"]["trivial_multiplicity"] == [1, 1, 0, 0, 1, 1, 2]


class TestReduce:
    def test_o4_table(self, capsys):
        rc, doc = run_json(capsys, "reduce", "--chain", "o4s5c5", "--max", "10")
        assert rc == 0
        payload = doc["payload"]
        assert payload["periodic"] == [1, 0, 1, 4, 5, 8, 9, 12, 17, 20, 25]
        assert payload["totals"] == [12, 1, 0, 0, 26, 15, 48]
        assert payload["grand_total"] == 102
        assert payload["entries"][3] == [1, 0, 1, 0, 1, 0, 1]

    def test_o3_table(self, capsys):
        _, doc = run_json(capsys, "reduce", "--chain", "o3s4c4", "--max", "4")
        assert doc["payload"]["periodic"] == [1, 0, 1, 2, 3]

    def test_o2_table(self, capsys):
        _, doc = run_json(capsys, "reduce", "--chain", "o2s3c3", "--max", "3")
        assert doc["payload"]["periodic"] == [1, 0, 0, 0, 0, 1, 1]

    @pytest.mark.parametrize("chain, periods", [("o3s4c4", 4), ("o4s5c5", 0)])
    def test_checks_report_margins(self, capsys, chain, periods):
        rc, doc = run_json(capsys, "reduce", "--chain", chain, "--max", "30")
        assert rc == 0
        checks = {c["name"]: c for c in doc["checks"]}
        assert checks["dimension_audit"]["residual"] == 0
        assert checks["dimension_audit"]["tolerance"] == 0
        margins = [c for name, c in checks.items() if name.startswith("period_")]
        assert len(margins) == periods
        assert all(0 <= c["residual"] < c["tolerance"] == ROUND_TOL for c in margins)

    @pytest.mark.parametrize("chain", ["o2s3c3", "o3s4c4", "o4s5c5"])
    def test_periodic_equals_weighted_sum(self, capsys, chain):
        rc, doc = run_json(capsys, "reduce", "--chain", chain, "--max", "40")
        assert rc == 0
        weighted = next(c for c in doc["checks"] if c["name"] == "periodic_equals_weighted_sum")
        assert weighted == {"name": "periodic_equals_weighted_sum", "passed": True,
                            "residual": 0, "tolerance": 0}

    def test_o2_selection_rule_against_branching(self, capsys, monkeypatch):
        # a selection rule that lets [21] through disagrees with its C_3 branching
        real = reduction.o2_reduce

        def lenient(label):
            f, m0 = real(label)
            return f, 1 if f == Partition.of(2, 1) else m0

        monkeypatch.setattr(reduction, "o2_reduce", lenient)
        rc, doc = run_json(capsys, "reduce", "--chain", "o2s3c3", "--max", "5")
        assert rc == 3
        weighted = next(c for c in doc["checks"] if c["name"] == "periodic_equals_weighted_sum")
        assert not weighted["passed"] and weighted["residual"] == 1

    def test_csv_format(self, capsys):
        rc, out = run(capsys, "reduce", "--chain", "o4s5c5", "--max", "3",
                      "--format", "csv")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("label,[5],")
        assert lines[0].endswith("periodic")
        assert lines[-1].startswith("totals,")

    def test_o4_lattice_count_check(self, capsys):
        rc, doc = run_json(capsys, "reduce", "--chain", "o4s5c5", "--max", "300")
        assert rc == 0
        lattice = next(c for c in doc["checks"] if c["name"] == "periodic_equals_lattice_count")
        assert lattice["passed"] and lattice["residual"] == 0 and lattice["tolerance"] == 0

    def test_o4_beyond_200(self, capsys):
        rc, doc = run_json(capsys, "reduce", "--chain", "o4s5c5", "--max", "201")
        assert rc == 0
        assert len(doc["payload"]["entries"]) == 202

    @pytest.mark.parametrize("chain", ["o2s3c3", "o3s4c4", "o4s5c5"])
    @pytest.mark.parametrize("top", [-1, MAX_ROWS + 1])
    def test_row_limit(self, capsys, chain, top):
        rc = main(["reduce", "--chain", chain, "--max", str(top)])
        assert rc == 2
        assert f"0..{MAX_ROWS}" in capsys.readouterr().err


class TestModes:
    def test_constant_mode(self, capsys):
        rc, doc = run_json(capsys, "modes", "--two-j", "0")
        assert rc == 0
        assert doc["payload"]["count"] == 1
        deviation = next(
            c for c in doc["checks"] if c["name"] == "invariance_max_deviation"
        )
        assert deviation["passed"] and deviation["residual"] < 1e-12

    def test_degree_two(self, capsys):
        rc, doc = run_json(
            capsys, "modes", "--two-j", "2", "--verify-points", "25", "--seed", "7"
        )
        assert rc == 0
        assert doc["payload"]["count"] == 1
        assert doc["seed"] == 7
        assert all(c["passed"] for c in doc["checks"])

    def test_range_guard(self, capsys):
        rc = main(["modes", "--two-j", str(MAX_TWO_J_MODES + 1)])
        assert rc == 2
        assert f"0..{MAX_TWO_J_MODES}" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-1", str(MAX_ROWS + 1), "100000000"])
    def test_no_verify_points_exits_2(self, capsys, points):
        rc = main(["modes", "--two-j", "2", "--verify-points", points])
        assert rc == 2
        assert f"1..{MAX_ROWS}" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**63)])
    def test_seed_out_of_range_exits_2(self, capsys, seed):
        rc = main(["modes", "--two-j", "2", "--seed", seed])
        assert rc == 2
        assert f"0..{2**63 - 1}" in capsys.readouterr().err

    def test_checks_report_tag_margins(self, capsys):
        rc, doc = run_json(capsys, "modes", "--two-j", "7", "--verify-points", "5")
        assert rc == 0
        assert [c["name"] for c in doc["checks"]] == [
            "columns_orthonormal", "columns_fixed_by_projector", "content_sum_tags",
            "tag_projector_traces", "invariance_max_deviation",
        ]
        assert all(0 <= c["residual"] <= c["tolerance"] for c in doc["checks"])

    def test_at_the_modes_cap(self, capsys):
        rc, doc = run_json(capsys, "modes", "--two-j", str(MAX_TWO_J_MODES),
                           "--verify-points", "6")
        assert rc == 0
        assert MAX_TWO_J_MODES == 24 and doc["payload"]["count"] == 125
        assert len(doc["payload"]["coefficients"][0]) == 625

    def test_failed_check_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_invariance", lambda *args: 1.0)
        rc = main(["modes", "--two-j", "2"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert "invariance_max_deviation" in err
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["invariance_max_deviation"]
        assert failed[0]["residual"] == 1.0 and failed[0]["tolerance"] == 1e-9

    def test_wrong_tag_counts_exit_3(self, capsys, monkeypatch):
        # character theory with the ranks of [32] and [221] swapped
        f32, f221, real = Partition.of(3, 2), Partition.of(2, 2, 1), modes.multiplicity_o4_s5
        swap = {f32: f221, f221: f32}
        monkeypatch.setattr(modes, "multiplicity_o4_s5",
                            lambda two_j, f: real(two_j, swap.get(f, f)))
        assert modes.periodic_basis(2).trace_margin >= 1
        rc = main(["modes", "--two-j", "2"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert "tag_projector_traces" in err
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["tag_projector_traces"]


class TestClassChars:
    def test_values(self, capsys):
        rc, doc = run_json(capsys, "classchars", "--two-j-max", "5")
        assert rc == 0
        rows = {tuple(r["class"]): r["values"] for r in doc["payload"]["rows"]}
        assert rows[(5,)] == [1, -1, -1, 1, 0, 1]
        assert rows[(3, 1, 1)] == [1, 1, 0, 1, 1, 0]
        assert all(type(v) is int for values in rows.values() for v in values)
        assert all(c["passed"] for c in doc["checks"])
        # the period checks report the rounding margin of the tabulated period
        assert len(doc["checks"]) == 5
        assert all(0 <= c["residual"] < ROUND_TOL for c in doc["checks"])

    @pytest.mark.parametrize("top", [-1, MAX_ROWS + 1])
    def test_row_limit(self, capsys, top):
        rc = main(["classchars", "--two-j-max", str(top)])
        assert rc == 2
        assert f"0..{MAX_ROWS}" in capsys.readouterr().err


VERIFY_CHECKS = [
    "characters_s3", "class_sizes_s3", "branch_column_s3",
    "characters_s4", "class_sizes_s4", "branch_column_s4", "erratum_s4_[211]",
    "characters_s5", "class_sizes_s5", "branch_column_s5",
    "circle_rules", "o3_s4_table",
    "o4_s5_entries", "o4_s5_periodic", "o4_s5_totals", "o4_s5_grand_total",
    "o4_s5_harmonics_count", "erratum_o4_s5",
    "class_characters", "weyl_gram", "weyl_v_matrices", "weyl_class_matrices",
    "young_golden",
]

#: each documented fault spec and the one check it must trip
FAULTS = {
    "chartable:5:2:3": "characters_s5",
    "chartable:3:0:0": "characters_s3",
    "o4:10:5": "o4_s5_entries",
    "o4:0:0": "o4_s5_entries",
    "classchars:6:0": "class_characters",
    "classchars:6:3": "class_characters",
}


class TestVerify:
    def test_clean_build_passes(self, capsys):
        rc, doc = run_json(capsys, "verify", "--all")
        assert rc == 0
        assert doc["payload"]["checks_failed"] == 0
        names = {c["name"] for c in doc["checks"]}
        assert "erratum_s4_[211]" in names
        assert "erratum_o4_s5" in names

    def test_every_check_reports_its_margin(self, capsys):
        _, doc = run_json(capsys, "verify", "--all")
        assert [c["name"] for c in doc["checks"]] == VERIFY_CHECKS
        for c in doc["checks"]:
            assert 0 <= c["residual"] <= c["tolerance"], c

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_fault_injection_trips(self, capsys, fault):
        rc = main(["verify", "--all", "--inject-fault", fault])
        assert rc == 3
        assert FAULTS[fault] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pick, tripped",
        [
            (lambda g: g["character_tables"]["4"]["errata"][0], "erratum_s4_[211]"),
            (lambda g: g["o4_s5"]["errata"][0], "erratum_o4_s5"),
            (lambda g: g["o4_s5"]["errata"][0]["derived"]["grand_total"], "erratum_o4_s5"),
        ],
    )
    def test_erratum_record_disagreeing_with_table_trips(
        self, capsys, monkeypatch, pick, tripped
    ):
        data = golden.load()
        pick(data)["value"] += 1
        monkeypatch.setattr(golden, "load", lambda: data)
        rc, doc = run_json(capsys, "verify", "--all")
        assert rc == 3
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == [tripped]

    @pytest.mark.parametrize(
        "section, tripped",
        [
            (lambda g: g["character_tables"]["4"], "erratum_s4_[211]"),
            (lambda g: g["o4_s5"], "erratum_o4_s5"),
        ],
    )
    def test_deleted_erratum_records_fail_their_check(
        self, capsys, monkeypatch, section, tripped
    ):
        data = golden.load()
        section(data)["errata"] = []
        monkeypatch.setattr(golden, "load", lambda: data)
        rc, out = run(capsys, "verify", "--all")
        doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
        assert rc == 3
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == [tripped]
        assert failed[0]["detail"] == "no rows" and failed[0]["residual"] is None
        assert [c["name"] for c in doc["checks"]] == VERIFY_CHECKS

    def test_bad_fault_spec(self, capsys):
        rc, _ = run(capsys, "verify", "--all", "--inject-fault", "nonsense")
        assert rc == 2

    @pytest.mark.parametrize("fault", ["chartable:x:0:0", "o4:999:0", "o4:10:5:1"])
    def test_fault_that_perturbs_nothing_exits_2(self, capsys, fault):
        rc, _ = run(capsys, "verify", "--all", "--inject-fault", fault)
        assert rc == 2

    @pytest.mark.parametrize("fault, tripped", list(FAULTS.items()))
    def test_fault_trips_only_its_check(self, capsys, fault, tripped):
        rc, doc = run_json(capsys, "verify", "--all", "--inject-fault", fault)
        assert rc == 3
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == [tripped]

    def test_fault_detail_names_its_index(self, capsys):
        _, doc = run_json(capsys, "verify", "--all", "--inject-fault", "o4:10:5")
        failed = next(c for c in doc["checks"] if not c["passed"])
        assert failed["detail"] == "index (10, 5): computed 5, golden 4"
        assert failed["residual"] == 1 and failed["tolerance"] == 0


class TestInterface:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chartable", "--n", "3", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tabulate"])
        assert exc.value.code == 2

    def test_csv_rejected_elsewhere(self, capsys):
        rc, _ = run(capsys, "chartable", "--n", "3", "--format", "csv")
        assert rc == 2

    def test_output_to_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        rc = main(["chartable", "--n", "3", "--output", str(target)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_library_value_error_exits_2(self, capsys, monkeypatch):
        def refuse(args):
            raise ValueError("n out of range")

        monkeypatch.setattr(cli, "cmd_chartable", refuse)
        rc = main(["chartable", "--n", "3"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err == "error: n out of range\n"
        assert out == ""

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        rc = main(["chartable", "--n", "3", "--output", str(target)])
        assert rc == 0
        doc = json.loads(target.read_text())
        assert doc["payload"]["n"] == 3

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            rc = main([
                "modes", "--two-j", "3", "--verify-points", "10",
                "--seed", "5", "--output", str(target),
            ])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
