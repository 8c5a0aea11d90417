"""The report contract that the command line and the golden gate share.

One check entry, the tolerance of every floating-point table entry, and the
golden data.  Nothing here imports numpy, so the exact-table commands start
without it.
"""

from __future__ import annotations

import json
from importlib import resources

REAL_TOL = 1e-9  # tolerance of every floating-point table entry


def load() -> dict:
    with resources.files("simplexmodes.data").joinpath("golden_tables.json").open() as fh:
        return json.load(fh)


def check(name: str, residual: float, tolerance: float, detail: str = "") -> dict:
    """One report entry; it passes when the residual is within the tolerance."""
    out = {"name": name, "passed": bool(residual <= tolerance),
           "residual": residual, "tolerance": tolerance}
    if detail:
        out["detail"] = detail
    return out
