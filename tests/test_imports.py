"""The exact-table commands run on the integer core: only the commands that
build arrays load numpy."""

import importlib
import os
import subprocess
import sys

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
ARRAY_COMMANDS = [["modes", "--two-j", "2"], ["verify", "--all"]]

#: test-only oracles that left the library, by their former module
REMOVED = {
    "permgroup": ("cyclic_character",),
    "su2wigner": ("WignerMatrix", "q_conjugation", "wigner_d"),
    "weylaction": ("act_on_point", "operator_matrix"),
    "modes": ("SamplePoint", "cyclic_projector", "evaluate_modes", "sample_points"),
}


def loaded_modules(argv: list[str]) -> set[str]:
    """The modules loaded after cli.main(argv) in a fresh interpreter, which
    must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                         capture_output=True, text=True, check=True)
    code, *loaded = out.stderr.splitlines()[-1].split()
    assert code == "0", out.stderr
    return set(loaded)


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=" ".join)
def test_table_commands_do_not_load_numpy(argv):
    assert "numpy" not in loaded_modules(argv)


@pytest.mark.parametrize("argv", ARRAY_COMMANDS, ids=" ".join)
def test_array_commands_load_numpy(argv):
    assert "numpy" in loaded_modules(argv)


def test_version_loads_no_operator_module():
    # the SU(2) operators serve modes, classchars and verify only
    loaded = loaded_modules(["--version"])
    assert not loaded & {"simplexmodes.weylaction", "simplexmodes.su2wigner"}


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
