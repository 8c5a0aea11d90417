"""Run one simplexmodes CLI command with every public function traced.

    python shim.py SPANS_FILE COMMAND_ID MEMORY -- CLI_ARGS...

The shim times the import of numpy and of `simplexmodes.cli`, then wraps
each public function of the seven modules, including the copies other
modules bound with `from .x import y`, and calls `cli.main(CLI_ARGS)`.
Spans (name, start, end, parent, note) stay in memory and are written to
SPANS_FILE as JSON when the command returns, with the hit and miss counts
of the package's lru caches.  With MEMORY = 1, `modes.periodic_basis` also
runs under tracemalloc and its note is the traced peak in bytes; that cost
lands in the span, so timings from such a run are not used.

Stdout is the command's own output, unchanged, and the exit code is the
command's.
"""

import sys
import time

MODULES = ("permgroup", "youngrep", "su2wigner", "weylaction", "reduction", "modes", "cli")
CACHES = (
    ("su2wigner", "_wigner_terms"),
    ("modes", "_operator_matrices"),
    ("weylaction", "class_operators"),
    ("permgroup", "_mn"),
)


def _two_j(j) -> int:
    return int(round(2 * j))


NOTES = {
    "su2wigner.chebyshev_u": lambda args, kwargs, result: args[0] if args else kwargs["n"],
    "su2wigner.wigner_d": lambda args, kwargs, result: _two_j(args[0] if args else kwargs["j"]),
    "weylaction.operator_matrix": lambda args, kwargs, result: getattr(result, "nbytes", None),
}


def public_functions(module):
    """(name, function) for every public function defined in `module`."""
    import inspect

    for name, obj in sorted(vars(module).items()):
        target = getattr(obj, "__wrapped__", obj)
        if (
            not name.startswith("_")
            and inspect.isfunction(target)
            and target.__module__ == module.__name__
        ):
            yield name, obj


class Tracer:
    """Wraps functions so that each call appends a span; spans stay in memory."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        if self.memory and name == "modes.periodic_basis":
            fn, note = _with_tracemalloc(fn)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = note(args, kwargs, result) if note and result is not None else None
                spans[index] = (name_id, start, end, parent, value)

        return wrapper


def _with_tracemalloc(fn):
    """`fn` run under tracemalloc, and a note giving the traced peak in bytes."""
    import tracemalloc

    peaks = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    return measured, lambda args, kwargs, result: peaks[-1]


def install(tracer: Tracer) -> None:
    """Replace every binding of each public function by its traced wrapper."""
    import importlib

    wrappers = {}
    for short in MODULES:
        module = importlib.import_module(f"simplexmodes.{short}")
        for name, fn in public_functions(module):
            wrappers[id(fn)] = (fn, tracer.wrap(f"{short}.{name}", fn))
    for mod_name, module in list(sys.modules.items()):
        if mod_name.partition(".")[0] != "simplexmodes":
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def main() -> int:
    out_path, command_id, memory = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: shim.py SPANS_FILE COMMAND_ID MEMORY -- CLI_ARGS...")
    argv = sys.argv[5:]
    t0 = time.perf_counter_ns()
    import numpy  # noqa: F401  (timed apart from the package)

    t1 = time.perf_counter_ns()
    import simplexmodes.cli as cli

    t2 = time.perf_counter_ns()
    import importlib
    import json

    caches = {
        f"{short}.{name}": getattr(importlib.import_module(f"simplexmodes.{short}"), name)
        for short, name in CACHES
    }
    tracer = Tracer(memory)
    install(tracer)
    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "command": command_id,
                    "argv": argv,
                    "exit": code,
                    "import_ns": t2 - t0,
                    "import_numpy_ns": t1 - t0,
                    "names": tracer.names,
                    "spans": tracer.spans,
                    "caches": {
                        key: [fn.cache_info().hits, fn.cache_info().misses]
                        for key, fn in caches.items()
                    },
                },
                fh,
            )
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
