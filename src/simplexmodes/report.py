"""The report contract that the command line and the golden gate share.

One check entry, the tolerances of every floating-point table entry and of
every integer spectrum, the golden data, and the error behind exit code 3 when no report can be made.
Nothing here imports numpy or another module of the package, so the command
line starts without them.
"""

from __future__ import annotations

import json

REAL_TOL = 1e-9  # tolerance of every floating-point table entry
SPECTRUM_TOL = 1e-9  # of generator phases, every integer_eigenspaces margin and fixed-vector leads


class ConsistencyError(RuntimeError):
    """An exactness check failed; indicates a bug, never bad user input.
    The command line exits 3 on it."""


def load() -> dict:
    from importlib import resources

    with resources.files("simplexmodes.data").joinpath("golden_tables.json").open() as fh:
        return json.load(fh)


def check(name: str, residual: float, tolerance: float, detail: str = "") -> dict:
    """One report entry; it passes when the residual is within the tolerance."""
    out = {"name": name, "passed": bool(residual <= tolerance),
           "residual": residual, "tolerance": tolerance}
    if detail:
        out["detail"] = detail
    return out
