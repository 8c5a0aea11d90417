"""The exact-table commands and the golden gate run on the integer core and
plain floats: only `modes`, which builds arrays, loads numpy, and each
command loads only the library modules it runs.  Every function and method of
the library is reached by some command."""

import ast
import functools
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simplexmodes

PROBE = """
import sys
from simplexmodes import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # --version exits from argparse
    code = exc.code
print(code, *sorted(sys.modules), file=sys.stderr)
"""

TABLE_COMMANDS = [
    ["--version"],
    ["chartable", "--n", "5"],
    ["branch", "--n", "5"],
    *(["reduce", "--chain", chain, "--max", "20", "--format", fmt]
      for chain in ("o2s3c3", "o3s4c4", "o4s5c5") for fmt in ("json", "csv")),
    ["classchars", "--two-j-max", "60"],
]
ARRAY_COMMANDS = [["modes", "--two-j", "2"]]
#: the golden gate with and without its fault, and their exit codes
GATE_COMMANDS = [
    pytest.param(["verify", "--all"], 0, id="verify --all"),
    pytest.param(["verify", "--all", "--inject-fault", "o4:10:5"], 3,
                 id="verify --all --inject-fault o4:10:5"),
]
ALL_COMMANDS = [
    *(pytest.param(argv, 0, id=" ".join(argv)) for argv in TABLE_COMMANDS + ARRAY_COMMANDS),
    *GATE_COMMANDS,
]
#: no command loads `dataclasses`: with the introspection modules it imports,
#: about 10 ms of every cold command
NO_COMMAND_LOADS = {"dataclasses"}
#: numpy imports these itself, so only the numpy-free commands are held to them
INTROSPECTION = {"inspect", "ast", "dis", "tokenize"}

#: names that left the library, by their former module: test-only oracles,
#: wrappers of a value the caller already holds, routes no command reached and
#: duplicated constants
REMOVED = {
    "cli": ("_table_payload", "report_document"),
    "permgroup": ("_molien_terms", "class_character", "cyclic_character", "cycle_type",
                  "full_cycle"),
    "youngrep": ("FixedSubspace", "ReprMatrix", "StandardTableau", "standard_tableaux"),
    "su2wigner": ("WignerMatrix", "q_conjugation", "wigner_d"),
    "weylaction": ("WeylVector", "act_on_point", "operator_matrix"),
    "reduction": ("O2Label", "O3Label", "PERIODIC_CLASSES", "PartitionRecursion",
                  "RecursionReport", "S4_PARTITION_ORDER", "S5_PARTITION_ORDER", "_RULES",
                  "_columns", "_row", "multiplicity_o3_s4", "multiplicity_o4_s5", "o2_reduce",
                  "periodic_count_o4", "recursion_report"),
    "modes": ("ModeComponent", "ModeDescription", "SamplePoint", "cyclic_projector",
              "evaluate_modes", "lower_dim_modes", "sample_points", "young_rank",
              "young_ranks"),
}

#: every command's code paths: each table, every chain in both formats, both
#: ends of `modes` and the golden gate with and without its fault
REACH_COMMANDS = [
    *(["chartable", "--n", n] for n in "345"),
    *(["branch", "--n", n] for n in "345"),
    *(["reduce", "--chain", chain, "--max", "20", "--format", fmt]
      for chain in ("o2s3c3", "o3s4c4", "o4s5c5") for fmt in ("json", "csv")),
    ["classchars", "--two-j-max", "60"],
    ["modes", "--two-j", "0"],
    ["modes", "--two-j", "4"],
    ["verify", "--all"],
    ["verify", "--all", "--inject-fault", "o4:10:5"],
]

#: runs the commands of argv[1] (JSON) in one interpreter under sys.setprofile
#: and prints their exit codes and the package functions they called
REACH_PROBE = """
import json, sys
from simplexmodes import cli

called = set()

def profile(frame, event, arg):
    module = frame.f_globals.get("__name__", "")
    if event == "call" and module.startswith("simplexmodes."):
        called.add((module, frame.f_code.co_name, frame.f_code.co_firstlineno))

codes = []
for argv in json.loads(sys.argv[1]):
    sys.setprofile(profile)
    try:
        codes.append(cli.main(argv))
    finally:
        sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(called)}), file=sys.stderr)
"""


def loaded_modules(argv: list[str], exit_code: int = 0) -> set[str]:
    """The modules loaded after cli.main(argv) in a fresh interpreter, which
    must exit with `exit_code`."""
    code, stderr, loaded = _probe(tuple(argv))
    assert code == str(exit_code), stderr
    return set(loaded)


@functools.cache
def _probe(argv: tuple[str, ...]) -> tuple[str, str, frozenset[str]]:
    """The exit code, stderr and loaded modules of one PROBE run, once per argv."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                         capture_output=True, text=True, check=True)
    code, *loaded = out.stderr.splitlines()[-1].split()
    return code, out.stderr, frozenset(loaded)


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=" ".join)
def test_table_commands_do_not_load_numpy(argv):
    assert "numpy" not in loaded_modules(argv)


@pytest.mark.parametrize("argv, exit_code", GATE_COMMANDS)
def test_golden_gate_does_not_load_numpy(argv, exit_code):
    assert "numpy" not in loaded_modules(argv, exit_code)


@pytest.mark.parametrize("argv", ARRAY_COMMANDS, ids=" ".join)
def test_array_commands_load_numpy(argv):
    loaded = loaded_modules(argv)
    assert "numpy" in loaded
    assert not loaded & {"simplexmodes.youngrep", "simplexmodes.golden"}


@functools.cache
def loaded_by_numpy() -> frozenset[str]:
    """The modules that `import numpy` alone loads in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", "import sys, numpy; print(*sys.modules)"],
                         capture_output=True, text=True, check=True)
    return frozenset(out.stdout.split())


@pytest.mark.parametrize("argv, exit_code", ALL_COMMANDS)
def test_no_command_loads_numpy_random(argv, exit_code):
    # the `modes` sample comes from the standard library; numpy before 2.0
    # loads numpy.random with numpy itself, numpy 2 on first use
    assert "numpy.random" not in loaded_modules(argv, exit_code) - loaded_by_numpy()


@pytest.mark.parametrize("argv, exit_code", ALL_COMMANDS)
def test_no_command_loads_dataclasses(argv, exit_code):
    # the library's records are named tuples
    forbidden = NO_COMMAND_LOADS if argv in ARRAY_COMMANDS else NO_COMMAND_LOADS | INTROSPECTION
    assert not loaded_modules(argv, exit_code) & forbidden


@pytest.mark.parametrize("argv, exit_code", [
    pytest.param(["--version"], 0, id="--version"),
    pytest.param(["modes", "--two-j", "99"], 2, id="modes --two-j 99"),
])
def test_start_up_loads_no_library_module(argv, exit_code):
    # answered before any command runs
    loaded = loaded_modules(argv, exit_code)
    package = {m for m in loaded if m.startswith("simplexmodes.")}
    assert package == {"simplexmodes.cli", "simplexmodes.report"}
    assert not loaded & {"dataclasses", "csv"}


@pytest.mark.parametrize("argv", [["chartable", "--n", "5"], ["branch", "--n", "5"],
                                  ["classchars", "--two-j-max", "60"]], ids=" ".join)
def test_character_commands_do_not_load_reduction(argv):
    assert "simplexmodes.reduction" not in loaded_modules(argv)


def test_every_export_resolves():
    assert simplexmodes.__all__
    for name in simplexmodes.__all__:
        value = getattr(simplexmodes, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("simplexmodes.") and getattr(home, name) is value
    with pytest.raises(AttributeError):
        simplexmodes.no_such_name


def test_oracles_are_not_library_api():
    for module, names in REMOVED.items():
        home = importlib.import_module(f"simplexmodes.{module}")
        for name in names:
            assert name not in simplexmodes.__all__ and not hasattr(home, name), name
    # kept in weylaction for the benchmark trace, but not exported
    assert "operator_matrices" not in simplexmodes.__all__


#: the only defs that no command reaches, each with the reason it stays
REACH_EXEMPT = {
    "modes._operator_matrices": "perfbench/shim.py reads its cache_info() by name",
    "weylaction.operator_matrices": "builds the matrices that modes._operator_matrices caches",
}


def library_defs() -> dict[tuple[str, str, int], str]:
    """Every def of the library modules, nested defs, properties and dunders
    included, keyed as the profiler sees its code (module, name, first line,
    the first decorator's if any), with its dotted name."""
    out = {}
    for path in sorted(Path(simplexmodes.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"simplexmodes.{path.stem}"

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                        out[module, child.name, first] = name
                    walk(child, name)
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), path.stem)
    return out


def test_every_exported_function_runs_under_a_command():
    # in a fresh interpreter, so that no cache filled by another test hides a call
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", REACH_PROBE, json.dumps(REACH_COMMANDS)],
                         env=env, capture_output=True, text=True, check=True)
    reach = json.loads(out.stderr.splitlines()[-1])
    assert reach["codes"] == [0] * (len(REACH_COMMANDS) - 1) + [3]
    called = {tuple(key) for key in reach["called"]}
    defs = library_defs()
    # exactly the exemptions, each still unreached
    assert sorted(name for key, name in defs.items() if key not in called) == sorted(REACH_EXEMPT)
    # every exported function is one of those defs
    for name in simplexmodes.__all__:
        value = getattr(simplexmodes, name)
        if not isinstance(value, type):
            code = inspect.unwrap(value).__code__
            assert (value.__module__, code.co_name, code.co_firstlineno) in defs, name
