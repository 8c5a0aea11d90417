import gc
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import round_floats
from simplexmodes import cli, modes, permgroup, reduction, report, weylaction
from simplexmodes.cli import MAX_ROWS, MAX_TWO_J_MODES, main
from simplexmodes.permgroup import CycleType, Partition, Permutation, character


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


def break_columns(monkeypatch, module, faults):
    """Add faults[(k, d)] to chi_d(k) in every class column that `module` reads."""
    exact = module.class_column

    def broken(k, top):
        col = exact(k, top)
        for (cls, d), delta in faults.items():
            if cls == k and d <= top:
                col[d] += delta
        return col

    monkeypatch.setattr(module, "class_column", broken)


def break_multiplicities(monkeypatch, delta):
    """Add delta(f, d) to m_f(d) in every multiplicity column that `reduction` reads."""
    exact = reduction.multiplicity_column
    monkeypatch.setattr(reduction, "multiplicity_column",
                        lambda f, top: [m + delta(f, d) for d, m in enumerate(exact(f, top))])


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

    def test_wrong_character_fails_orthogonality_alone(self, capsys, monkeypatch):
        # chi_[21]((3)) off by 1; the hook-length dimensions still square to 3!
        real = permgroup.character_table

        def broken(n):
            table = real(n)
            values = [list(row) for row in table.values]
            values[1][0] += 1
            return table._replace(values=tuple(map(tuple, values)))

        monkeypatch.setattr(permgroup, "character_table", broken)
        rc, doc = run_json(capsys, "chartable", "--n", "3")
        assert rc == 3
        failed = [(c["name"], c["residual"]) for c in doc["checks"] if not c["passed"]]
        assert failed == [("column_orthogonality_exact", 2)]

    def test_wrong_dimension_fails_the_squared_dimensions_alone(self, capsys, monkeypatch):
        # dim [21] off by 1: 1 + 9 + 1 = 11 against 3! = 6; the characters are right
        real = Partition.dimension.fget
        monkeypatch.setattr(Partition, "dimension",
                            property(lambda f: real(f) + (f == Partition.of(2, 1))))
        rc, doc = run_json(capsys, "chartable", "--n", "3")
        assert rc == 3
        failed = [(c["name"], c["residual"]) for c in doc["checks"] if not c["passed"]]
        assert failed == [("sum_of_squared_dimensions", 5)]


class TestBranch:
    def test_columns(self, capsys):
        _, doc = run_json(capsys, "branch", "--n", "3")
        assert doc["payload"]["trivial_multiplicity"] == [1, 0, 1]
        _, doc = run_json(capsys, "branch", "--n", "4")
        assert doc["payload"]["trivial_multiplicity"] == [1, 0, 1, 1, 0]
        _, doc = run_json(capsys, "branch", "--n", "5")
        assert doc["payload"]["trivial_multiplicity"] == [1, 1, 0, 0, 1, 1, 2]

    def test_wrong_cyclic_elements_exit_3(self, capsys, monkeypatch):
        def identities(n):  # the elementwise average over these gives the dimensions
            return [Permutation.identity(n)] * n

        monkeypatch.setattr(permgroup, "cyclic_elements", identities)
        rc, doc = run_json(capsys, "branch", "--n", "5")
        assert rc == 3
        assert doc["payload"]["trivial_multiplicity"] == [1, 1, 0, 0, 1, 1, 2]
        (check,) = doc["checks"]
        assert check["name"] == "matches_elementwise_average"
        assert not check["passed"] and check["residual"] == 4


#: sha256 of the stdout of `reduce` at every --max of REDUCE_TOPS, concatenated
REDUCE_PINS = {
    ("o2s3c3", "json"): "db61f989a534be68ca4d34aac723d93d83dc957fe2bf1184e488e433897506a9",
    ("o2s3c3", "csv"): "396ff415408bfd2cea38840799f122d3de148d17129d692b2250d7c1dd7782c2",
    ("o3s4c4", "json"): "815c9762e20cf15010bc21efd6eab9c8b722fbecb444ace7248e111133d6c96a",
    ("o3s4c4", "csv"): "f98d4941415d8ff66dd7d9997e926e22697a2756b499037417e430aef14aab72",
    ("o4s5c5", "json"): "0496d98ff71103cdd50bdaf9c794f7879483ed0b8d2bfc8c8d3752fa5f5be6dd",
    ("o4s5c5", "csv"): "38f85ed5587b7114e104c765e5bca392ac9c89a3991f49ff12c4968afb746d4d",
}
#: both sides of the periods 12 and 60, and the largest tables
REDUCE_TOPS = (0, 1, 11, 12, 13, 59, 60, 61, 1000, 10000)


class TestReduce:
    @pytest.mark.parametrize("chain, fmt", list(REDUCE_PINS))
    def test_output_keeps_its_pinned_bytes(self, capsys, tmp_path, chain, fmt):
        # JSON pins the check names, details and residuals too; --output holds the same bytes
        digest, target = hashlib.sha256(), tmp_path / "report"
        for top in REDUCE_TOPS:
            argv = ["reduce", "--chain", chain, "--max", str(top), "--format", fmt]
            rc, out = run(capsys, *argv)
            assert rc == 0
            digest.update(out.encode())
            assert main([*argv, "--output", str(target)]) == 0
            assert target.read_bytes() == out.encode()
        assert digest.hexdigest() == REDUCE_PINS[chain, fmt]

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

    @pytest.mark.parametrize("chain, top", [("o3s4c4", 4), ("o4s5c5", 0)])
    def test_checks_report_margins(self, capsys, chain, top):
        rc, doc = run_json(capsys, "reduce", "--chain", chain, "--max", str(top))
        assert rc == 0
        checks = {c["name"]: c for c in doc["checks"]}
        assert checks["dimension_audit"]["residual"] == 0
        assert checks["dimension_audit"]["tolerance"] == 0
        # the characters are exact integers: nothing is rounded, no margin to report
        assert not [name for name in checks if name.startswith("period_")]
        assert "rounding" not in doc["tolerances"]

    @pytest.mark.parametrize("chain", ["o2s3c3", "o3s4c4", "o4s5c5"])
    def test_periodic_equals_weighted_sum(self, capsys, chain):
        rc, doc = run_json(capsys, "reduce", "--chain", chain, "--max", "40")
        assert rc == 0
        weighted = next(c for c in doc["checks"] if c["name"] == "periodic_equals_weighted_sum")
        assert weighted == {"name": "periodic_equals_weighted_sum", "passed": True,
                            "residual": 0, "tolerance": 0}

    @pytest.mark.parametrize("chain, parts, residual", [("o3s4c4", (3, 1), 1),
                                                        ("o4s5c5", (4, 1), 2),
                                                        ("o2s3c3", (2, 1), 1)])
    def test_wrong_branching_fails_the_weighted_sum(self, capsys, monkeypatch, chain, parts,
                                                    residual):
        # the periodic column is the C_n average of the class characters, so a
        # wrong branching weight shows as the largest entry of its column
        real = reduction.trivial_multiplicity
        monkeypatch.setattr(reduction, "trivial_multiplicity",
                            lambda f: real(f) + (f == Partition.of(*parts)))
        rc, doc = run_json(capsys, "reduce", "--chain", chain, "--max", "4")
        assert rc == 3
        failed = [(c["name"], c["residual"]) for c in doc["checks"] if not c["passed"]]
        assert failed == [("periodic_equals_weighted_sum", residual)]
        # the CSV table runs the same checks and fails the same way
        rc = main(["reduce", "--chain", chain, "--max", "4", "--format", "csv"])
        out, err = capsys.readouterr()
        assert rc == 3 and err == "verification failed: periodic_equals_weighted_sum\n"
        assert out.startswith(f"label,[{chain[-1]}],")  # [n] of S(n) comes first

    def test_csv_format(self, capsys):
        rc, out = run(capsys, "reduce", "--chain", "o4s5c5", "--max", "3",
                      "--format", "csv")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("label,[5],")
        assert lines[0].endswith("periodic")
        assert lines[-1].startswith("totals,")

    def test_broken_row_fails_the_dimension_audit(self, capsys, monkeypatch):
        # dim(f) added to every m_f at 2j = 3 adds sum_f dim(f)^2 = 120 to the
        # row's dimension and sum_f dim(f) w_f = 24 to its weighted sum, while
        # the periodic column, from the class characters, stays right
        break_multiplicities(monkeypatch, lambda f, d: f.dimension * (d == 3))
        # and m_f(63) - m_f(3) falls dim(f) short of the rule, at most 6
        rc = main(["reduce", "--chain", "o4s5c5", "--max", "5"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert err == ("verification failed: dimension_audit, degree_60_increment, "
                       "periodic_equals_weighted_sum\n")
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert [(c["name"], c["residual"]) for c in failed] == [
            ("dimension_audit", 120), ("degree_60_increment", 6),
            ("periodic_equals_weighted_sum", 24)]

    @pytest.mark.parametrize("chain, name, detail", [
        ("o3s4c4", "degree_12_increment", "m_f(l+12) - m_f(l) = dim f"),
        ("o4s5c5", "degree_60_increment",
         "m_f(2j+60) - m_f(2j) = (2j+31) dim f + 5 chi_f((2)(1)^3)"),
    ], ids=["o3s4c4", "o4s5c5"])
    @pytest.mark.parametrize("top", [0, 10, 200, MAX_ROWS])
    def test_degree_increment_check(self, capsys, chain, name, detail, top):
        # rows past --max are computed, so --max 0 still compares one pair
        rc, doc = run_json(capsys, "reduce", "--chain", chain, "--max", str(top))
        assert rc == 0
        increment = next(c for c in doc["checks"] if c["name"] == name)
        assert increment == {"name": name, "passed": True, "residual": 0, "tolerance": 0,
                             "detail": detail}

    def test_broken_period_fails_the_increment(self, capsys, monkeypatch):
        # chi_f((5)) added to every m_f at 2j = 61: the increment from 2j = 1
        # misses its rule by 1, in either format, and the weighted sum the
        # periodic column by sum_f w_f chi_f((5)) = 4; chi_f((4)) added at
        # l = 13: the increment from l = 1 misses by 1 and the weighted sum by
        # sum_f w_f chi_f((4)) = 2; the dimensions do not move
        at = {5: 61, 4: 13}
        break_multiplicities(monkeypatch,
                             lambda f, d: character(f, CycleType((f.n,))) * (d == at[f.n]))
        rc, doc = run_json(capsys, "reduce", "--chain", "o4s5c5", "--max", "61")
        assert rc == 3
        failed = [(c["name"], c["residual"]) for c in doc["checks"] if not c["passed"]]
        assert failed == [("degree_60_increment", 1), ("periodic_equals_weighted_sum", 4)]
        rc = main(["reduce", "--chain", "o4s5c5", "--max", "61", "--format", "csv"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert err == ("verification failed: degree_60_increment, "
                       "periodic_equals_weighted_sum\n")
        assert out.startswith("label,[5],")
        rc, doc = run_json(capsys, "reduce", "--chain", "o3s4c4", "--max", "13")
        assert rc == 3
        failed = [(c["name"], c["residual"]) for c in doc["checks"] if not c["passed"]]
        assert failed == [("degree_12_increment", 1), ("periodic_equals_weighted_sum", 2)]

    def test_broken_class_column_fails_the_periodic_routes(self, capsys, monkeypatch):
        # the (5) character at 2j = 61 off by 5 moves the C_5 average by
        # 4 * 5 / 5 = 4, away from the weighted sum and the lattice count; the
        # multiplicities, the audit and the increment do not read it
        break_columns(monkeypatch, reduction, {(CycleType((5,)), 61): 5})
        rc, doc = run_json(capsys, "reduce", "--chain", "o4s5c5", "--max", "61")
        assert rc == 3
        failed = [(c["name"], c["residual"]) for c in doc["checks"] if not c["passed"]]
        assert failed == [("periodic_equals_weighted_sum", 4),
                          ("periodic_equals_lattice_count", 4)]
        # the (4) character off by 1 at l = 0: the C_4 average 6/4 is no integer
        monkeypatch.undo()
        break_columns(monkeypatch, reduction, {(CycleType((4,)), 0): 1})
        rc = main(["reduce", "--chain", "o3s4c4", "--max", "13"])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert err == ("internal consistency error: C_4 average at degree 0: "
                       "6/4 is not an integer\n")

    def test_broken_class_column_fails_the_increment_alone(self, capsys, monkeypatch):
        # the increment rule reads the classes of four or more cycles from
        # their columns to P + 1, which no other check reads: the (2)(1)^3
        # character at 2j = 60 off by 12 moves each rule_f(2j) by
        # chi_f((2)(1)^3) (1 - 2j), at most 2 * 4 = 8 at 2j = 5; the (1)^4
        # character at l = 12 off by 24 moves it by dim f (1 - l), at most
        # 3 * 4 = 12 at l = 5
        break_columns(monkeypatch, reduction, {(CycleType((2, 1, 1, 1)), 60): 12})
        rc, doc = run_json(capsys, "reduce", "--chain", "o4s5c5", "--max", "5")
        assert rc == 3
        failed = [(c["name"], c["residual"]) for c in doc["checks"] if not c["passed"]]
        assert failed == [("degree_60_increment", 8)]
        monkeypatch.undo()
        break_columns(monkeypatch, reduction, {(CycleType((1, 1, 1, 1)), 12): 24})
        rc, doc = run_json(capsys, "reduce", "--chain", "o3s4c4", "--max", "5")
        assert rc == 3
        failed = [(c["name"], c["residual"]) for c in doc["checks"] if not c["passed"]]
        assert failed == [("degree_12_increment", 12)]
        # off by 1, the class sum 10 chi_f((2)(1)^3) at 2j = 0 is no multiple of 5!
        monkeypatch.undo()
        break_columns(monkeypatch, reduction, {(CycleType((2, 1, 1, 1)), 60): 1})
        rc = main(["reduce", "--chain", "o4s5c5", "--max", "60"])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert err == ("internal consistency error: increment of m([5]) at degree 0: "
                       "4330/120 is not an integer\n")

    def test_o4_lattice_count_check(self, capsys):
        rc, doc = run_json(capsys, "reduce", "--chain", "o4s5c5", "--max", "300")
        assert rc == 0
        lattice = next(c for c in doc["checks"] if c["name"] == "periodic_equals_lattice_count")
        assert lattice["passed"] and lattice["residual"] == 0 and lattice["tolerance"] == 0

    def test_wrong_lattice_count_fails_it_alone(self, capsys, monkeypatch):
        # the lattice count is the one route of its check that no other check reads;
        # the check calls it through the chain's row
        row = reduction.CHAINS["o4s5c5"]
        monkeypatch.setitem(reduction.CHAINS, "o4s5c5",
                            row._replace(lattice=lambda t: row.lattice(t) + (t == 7)))
        rc = main(["reduce", "--chain", "o4s5c5", "--max", "10"])
        out, err = capsys.readouterr()
        assert rc == 3 and err == "verification failed: periodic_equals_lattice_count\n"
        failed = [(c["name"], c["residual"]) for c in json.loads(out)["checks"] if not c["passed"]]
        assert failed == [("periodic_equals_lattice_count", 1)]

    def test_builds_no_operator(self):
        # the multiplicities come from integer characters alone: no SU(2)
        # operator of a class is built
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code = (
            "import os, simplexmodes.cli as c, simplexmodes.weylaction as w; "
            "rc = c.main(['reduce', '--chain', 'o4s5c5', '--max', '50', '--output', os.devnull]); "
            "print(rc, w.class_operators.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.split() == ["0", "0"]

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

    @pytest.mark.parametrize("two_j", [12, MAX_TWO_J_MODES])
    def test_blas_thread_count_keeps_tags_and_spans(self, two_j):
        # OpenBLAS's thread count may move the last digits of the coefficients
        # and of the residuals, nothing else
        docs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                       OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run(
                [sys.executable, "-m", "simplexmodes.cli", "modes", "--two-j", str(two_j),
                 "--verify-points", "5"],
                env=env, capture_output=True, text=True, check=True)
            docs.append(json.loads(out.stdout))
        one, two = (doc["payload"] for doc in docs)
        assert one["count"] == two["count"] and one["partitions"] == two["partitions"]
        assert ([(c["name"], c["passed"]) for c in docs[0]["checks"]]
                == [(c["name"], c["passed"]) for c in docs[1]["checks"]])
        spans = [np.array(p["coefficients"]) @ [1, 1j] for p in (one, two)]
        for tag in set(one["partitions"]):
            mask = [t == tag for t in one["partitions"]]
            old, new = (s[mask].T for s in spans)
            # sine of the largest principal angle between the two spans
            assert np.linalg.norm(new - old @ (old.conj().T @ new), 2) <= 1e-10, tag

    def test_at_the_modes_cap(self, capsys):
        rc, doc = run_json(capsys, "modes", "--two-j", str(MAX_TWO_J_MODES),
                           "--verify-points", "6")
        assert rc == 0
        assert MAX_TWO_J_MODES == 24 and doc["payload"]["count"] == 125
        assert len(doc["payload"]["coefficients"][0]) == 625

    @pytest.mark.parametrize("two_j", [0, 1, 2, 7, 12, 24])
    def test_coefficient_writer_matches_json(self, capsys, monkeypatch, tmp_path, two_j):
        # 2j = 1 has no periodic mode: an empty matrix
        docs, real = [], cli.cmd_modes
        monkeypatch.setattr(cli, "cmd_modes", lambda args: docs.append(real(args)) or docs[-1])
        argv = ["modes", "--two-j", str(two_j), "--verify-points", "5"]
        rc, out = run(capsys, *argv)
        target = tmp_path / "modes.json"
        assert rc == 0 and main([*argv, "--output", str(target)]) == 0
        for doc, text in zip(docs, (out, target.read_text())):
            assert text == json.dumps(round_floats(doc), sort_keys=True, indent=1) + "\n"
        assert len(docs) == 2
        assert (docs[0]["payload"]["coefficients"].size == 0) == (two_j == 1)

    def test_failed_check_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(modes, "verify_invariance", lambda *args: 1.0)
        rc = main(["modes", "--two-j", "2"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert "invariance_max_deviation" in err
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["invariance_max_deviation"]
        assert failed[0]["residual"] == 1.0 and failed[0]["tolerance"] == 1e-9

    def test_unfixed_columns_exit_3(self, capsys, monkeypatch):
        # the deck projector moves every coefficient by 1e-6
        real = modes.act_on_coefficients
        monkeypatch.setattr(modes, "act_on_coefficients", lambda *args: real(*args) + 1e-6)
        rc = main(["modes", "--two-j", "2"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert err == "verification failed: columns_fixed_by_projector\n"
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["columns_fixed_by_projector"]

    def test_off_integer_spectrum_exits_3(self, capsys, monkeypatch):
        # the true content blocks, reported with eigenvalues a whole unit off
        real = modes.integer_eigenspaces
        monkeypatch.setattr(modes, "integer_eigenspaces", lambda *args: (real(*args)[0], 1.0))
        rc = main(["modes", "--two-j", "2"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert "content_sum_tags" in err
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert [(c["name"], c["residual"]) for c in failed] == [("content_sum_tags", 1.0)]

    def test_wrong_tag_counts_exit_3(self, capsys, monkeypatch):
        # the multiplicities of [32] and [221] swapped
        a, b = Partition.of(3, 2), Partition.of(2, 2, 1)
        swap = {a: b, b: a}
        real = modes.multiplicity_column
        monkeypatch.setattr(modes, "multiplicity_column",
                            lambda f, top: real(swap.get(f, f), top))
        assert modes.periodic_basis(2).trace_margin >= 1
        rc = main(["modes", "--two-j", "2"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert "tag_projector_traces" in err
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["tag_projector_traces"]


class TestJsonWriter:
    """`cli._json_text` writes json.dumps(round_floats(doc), sort_keys=True,
    indent=1) by hand, and `cli._json_chunks` writes the same text in pieces."""

    @pytest.mark.parametrize("argv", [
        ["reduce", "--chain", "o2s3c3", "--max", "13"],
        ["reduce", "--chain", "o3s4c4", "--max", "13"],
        ["reduce", "--chain", "o4s5c5", "--max", "61"],
        ["classchars", "--two-j-max", "61"],
        ["verify", "--all"],
        ["verify", "--all", "--inject-fault", "o4:10:5"],
        ["chartable", "--n", "5"],
        ["branch", "--n", "4"],
        *(["modes", "--two-j", two_j, "--verify-points", "5"] for two_j in "0 1 2 12".split()),
    ], ids=" ".join)
    def test_documents_match_json(self, capsys, monkeypatch, tmp_path, argv):
        docs, real = [], cli.report_document
        monkeypatch.setattr(cli, "report_document",
                            lambda *args, **kw: docs.append(real(*args, **kw)) or docs[-1])
        rc, out = run(capsys, *argv)
        assert rc == (3 if "--inject-fault" in argv else 0)
        [doc] = docs
        assert out == json.dumps(round_floats(doc), sort_keys=True, indent=1) + "\n"
        target = tmp_path / "report"
        assert main([*argv, "--output", str(target)]) == rc
        assert target.read_bytes() == out.encode()

    def test_edge_values_match_json(self):
        nan, inf = float("nan"), float("inf")
        doc = {"b": [], "a": {}, "nan": nan, "inf": [-inf, 1.5, -0.0, 1e-320, 0.1 + 0.2],
               "flags": [True, False, None], "mixed": [1, 2.0, "x", (3, 4)], "big": 10**30,
               "complex": [complex(1, -0.0), complex(nan, 1)], "z": complex(inf, 2),
               "rows": np.array([[1 + 2j, 3], [0.1 + 0.2j, -1j]]), "ints": np.arange(3),
               "scalar": np.float64(0.1) + np.float64(0.2), "text": "chi \u03c7 \"quoted\"",
               "nested": [[[]], [{}], [[1], [2.5]]], "empty_rows": np.zeros((0, 4), complex),
               "one_row": np.array([[0.5 - 1j, 1e-320j]]),
               "dicts": [{"y": [1.5, nan], "x": {}}, {"w": np.arange(2)}]}
        want = json.dumps(round_floats(doc), sort_keys=True, indent=1)
        assert cli._json_text(doc) == want
        assert "".join(cli._json_chunks(doc)) == want

    def test_no_piece_longer_than_one_row(self, monkeypatch):
        # the largest report reaches stdout a coefficient row at a time, never whole
        docs, real, sizes = [], cli.cmd_modes, []
        monkeypatch.setattr(cli, "cmd_modes", lambda args: docs.append(real(args)) or docs[-1])

        class Sink(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return len(text)

        monkeypatch.setattr(sys, "stdout", Sink())
        assert main(["modes", "--two-j", str(MAX_TWO_J_MODES), "--verify-points", "5"]) == 0
        [doc] = docs
        row = max(len(cli._json_text(r, "\n   ")) for r in doc["payload"]["coefficients"])
        assert max(sizes) <= row < sum(sizes) / 100

    def test_render_error_exits_2_and_keeps_the_pieces_written(self, capsys, monkeypatch,
                                                                 tmp_path):
        # FILE is opened before the report is rendered: a failed render leaves a partial file
        def broken(obj, pad="\n"):
            yield "{"
            raise ValueError("cannot render")

        monkeypatch.setattr(cli, "_json_chunks", broken)
        target = tmp_path / "report"
        target.write_text("an earlier report")
        assert main(["chartable", "--n", "3", "--output", str(target)]) == 2
        assert target.read_text() == "{"
        assert capsys.readouterr() == ("", "error: cannot render\n")


class TestClassChars:
    def test_values(self, capsys):
        rc, doc = run_json(capsys, "classchars", "--two-j-max", "5")
        assert rc == 0
        rows = {tuple(r["class"]): r["values"] for r in doc["payload"]["rows"]}
        assert rows[(5,)] == [1, -1, -1, 1, 0, 1]
        assert rows[(3, 1, 1)] == [1, 1, 0, 1, 1, 0]
        assert all(type(v) is int for values in rows.values() for v in values)
        # one cross-check of the integer characters against the operator traces
        [cross] = doc["checks"]
        assert cross["name"] == "characters_match_operator_traces"
        assert cross["passed"] and 0 <= cross["residual"] < 1e-12

    def test_wrong_character_exits_3(self, capsys, monkeypatch):
        # the check reads the printed values: each class one off at 2j = 3
        break_columns(monkeypatch, weylaction, {(k, 3): 1 for k in permgroup.CLASS_ORDER_S5})
        rc = main(["classchars", "--two-j-max", "5"])
        out, err = capsys.readouterr()
        assert rc == 3
        assert "characters_match_operator_traces" in err
        [cross] = json.loads(out)["checks"]
        assert not cross["passed"] and cross["residual"] == pytest.approx(1)

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
        data = report.load()
        pick(data)["value"] += 1
        monkeypatch.setattr(cli, "load", lambda: data)
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
        data = report.load()
        section(data)["errata"] = []
        monkeypatch.setattr(cli, "load", lambda: data)
        rc, out = run(capsys, "verify", "--all")
        doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
        assert rc == 3
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == [tripped]
        assert failed[0]["detail"] == "no rows" and failed[0]["residual"] is None
        assert [c["name"] for c in doc["checks"]] == VERIFY_CHECKS

    def test_ragged_golden_table_fails_its_check(self, capsys, monkeypatch):
        data = report.load()
        data["o4_s5"]["entries"][10].pop()
        monkeypatch.setattr(cli, "load", lambda: data)
        rc, doc = run_json(capsys, "verify", "--all")
        assert rc == 3
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["o4_s5_entries"]
        assert failed[0]["detail"].startswith("shape (")

    def test_bad_fault_spec(self, capsys):
        rc, _ = run(capsys, "verify", "--all", "--inject-fault", "nonsense")
        assert rc == 2

    @pytest.mark.parametrize("fault", ["chartable:x:0:0", "o4:999:0", "o4:10:5:1", ""])
    def test_fault_that_perturbs_nothing_exits_2(self, capsys, fault):
        rc = main(["verify", "--all", "--inject-fault", fault])
        assert rc == 2
        # quoted, so that an empty spec shows as ''
        assert f"--inject-fault {fault!r} matches no computed entry" in capsys.readouterr().err

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


CLI = ("-m", "simplexmodes.cli")


def run_cold(*args, **kwargs):
    """A fresh interpreter on the test session's import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, **kwargs)


class TestExitPath:
    """A process that ends skips the final collection (`cli` freezes the
    collector at exit); what it wrote and its exit code stay the same."""

    def test_csv_output_file_matches_the_pinned_rows(self, tmp_path):
        target = tmp_path / "o3s4c4.csv"
        proc = run_cold(*CLI, "reduce", "--chain", "o3s4c4", "--max", "12", "--format", "csv",
                        "--output", str(target))
        assert proc.returncode == 0 and proc.stdout == proc.stderr == b""
        assert target.read_text().splitlines() == [
            "label,[4],[31],[22],[211],[1111],periodic",
            '"(l=0,kappa=+)",1,0,0,0,0,1', '"(l=1,kappa=-)",0,1,0,0,0,0',
            '"(l=2,kappa=+)",0,1,1,0,0,1', '"(l=3,kappa=-)",1,1,0,1,0,2',
            '"(l=4,kappa=+)",1,1,1,1,0,3', '"(l=5,kappa=-)",0,2,1,1,0,2',
            '"(l=6,kappa=+)",1,2,1,1,1,3', '"(l=7,kappa=-)",1,2,1,2,0,4',
            '"(l=8,kappa=+)",1,2,2,2,0,5', '"(l=9,kappa=-)",1,3,1,2,1,4',
            '"(l=10,kappa=+)",1,3,2,2,1,5', '"(l=11,kappa=-)",1,3,2,3,0,6',
            '"(l=12,kappa=+)",2,3,2,3,1,7',
        ]

    def test_largest_report_same_on_a_pipe_and_in_a_file(self, tmp_path):
        argv = ["modes", "--two-j", str(MAX_TWO_J_MODES), "--verify-points", "5"]
        target = tmp_path / "modes.json"
        piped = run_cold(*CLI, *argv, check=True)
        run_cold(*CLI, *argv, "--output", str(target), check=True)
        assert len(piped.stdout) > 4_000_000 and target.read_bytes() == piped.stdout

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--all", "--inject-fault", "o4:10:5"], 3),
        (["reduce", "--chain", "o4s5c5", "--max", str(MAX_ROWS + 1)], 2),
    ])
    def test_exit_codes(self, argv, code):
        assert run_cold(*CLI, *argv).returncode == code

    def test_collector_frozen_only_at_exit(self, capsys):
        # exit handlers run last in, first out: one registered before `cli` is
        # imported sees the freeze, while `main` itself freezes nothing
        code = ("import atexit, gc; "
                "atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
                "import simplexmodes.cli as c; c.main(['chartable', '--n', '3']); "
                "print(gc.get_freeze_count())")
        out = run_cold("-c", code, text=True, check=True).stdout.splitlines()
        assert out[-2:] == ["0", "True"]
        before = gc.get_freeze_count()
        assert main(["reduce", "--chain", "o4s5c5", "--max", "3"]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == before


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
        with pytest.raises(SystemExit) as exc:
            main(["chartable", "--n", "3", "--format", "csv"])
        assert exc.value.code == 2

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
