#!/usr/bin/env python3
"""End-to-end benchmark of the simplexmodes command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it benchmarks the package under `src/`
of that checkout (not an installed copy) and checks every output.  Each
command runs as a cold subprocess, one at a time, with `MODES_NUM_THREADS`
unset and BLAS threading at its library default.  A pass runs the
workload's command list once, in an order shuffled by the seed; passes
repeat until `--seconds` is used up.

With `--trace 0` the last stdout line gives the end-to-end metrics:
  setup_s      median wall time of a cold `simplexmodes.cli --version`
  wall_s       median wall time of one pass
  peak_rss_mb  median over passes of the largest max-RSS of one child
With `--trace 1` each command runs through shim.py instead, which times the
public functions of every module; untraced passes alternate with traced
ones, and their difference is the tracing overhead (`trace.overhead_s`).

The line before the last is a JSON record with the provenance of the run,
the tail percentile of the pass times, `fail_ratio` and, when traced,
calls, inclusive and self time of every wrapped function.

`--workload all` runs every workload in turn and prints a summary table.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIM = Path(__file__).resolve().parent / "shim.py"
MIN_SETUP_SAMPLES = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 120
TAIL_SAMPLES = 10

# Each workload sits at a reach point of one code path, so that later
# changes to that path show on it and leave the others unchanged.
WORKLOADS = {
    # exact-table path at its reach points: Chebyshev characters, no matrices
    "tables": [
        ["reduce", "--chain", "o4s5c5", "--max", "200"],
        ["reduce", "--chain", "o3s4c4", "--max", "1000"],
        ["classchars", "--two-j-max", "1000"],
    ],
    # mode-basis construction up to the 2j <= 12 cap: operator matrices, eigh
    "modes-build": [
        ["modes", "--two-j", str(t), "--verify-points", "5"] for t in (8, 10, 12)
    ],
    # many pointwise Wigner evaluations with a small basis
    "modes-eval": [["modes", "--two-j", "6", "--verify-points", "3000"]],
    # the README invocations and the golden gate with its negative control:
    # process start and first-call set-up dominate
    "cold-small": [
        ["chartable", "--n", "5"],
        ["branch", "--n", "5"],
        ["reduce", "--chain", "o4s5c5", "--max", "10"],
        ["modes", "--two-j", "4", "--verify-points", "100"],
        ["classchars", "--two-j-max", "60"],
        ["verify", "--all"],
        ["verify", "--all", "--inject-fault", "o4:10:5"],
    ],
}

PROBE = """
import json, sys, numpy, simplexmodes
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({exc!r})"
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": blas, "simplexmodes_file": simplexmodes.__file__,
                  "simplexmodes_version": simplexmodes.__version__}))
"""


def workload_commands(name: str, seed: int) -> list[list[str]]:
    """The workload's commands, with a seed-derived --seed for each `modes`."""
    rng = random.Random(seed)
    out = []
    for argv in WORKLOADS[name]:
        if argv[0] == "modes":
            argv = argv + ["--seed", str(rng.randrange(1, 2**31))]
        out.append(argv)
    return out


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MODES_NUM_THREADS", None)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least TAIL_SAMPLES samples beyond it."""
    below = len(values) - TAIL_SAMPLES
    if below < 1:
        return None
    return {"pct": 100 * below // len(values), "value": sorted(values)[below - 1]}


class Runner:
    """Runs CLI commands as child processes and checks their outputs."""

    def __init__(self, tmp: Path, ref: checks.Reference):
        self.tmp = tmp
        self.ref = ref
        self.env = child_env()
        self.attempted = 0
        self.failures: list[dict] = []

    def spawn(self, cmd: list[str]) -> tuple[int, bytes, bytes, float, float]:
        """Exit code, stdout, stderr, wall seconds and peak RSS (MB) of one
        child; the RSS is that child's own, read with wait4 on its pid."""
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                wall, usage.ru_maxrss / 1024)

    def command(self, argv: list[str], spans: Path | None = None,
                memory: bool = False) -> dict:
        """Run one CLI command, plain or through the tracing shim, and check it."""
        if spans is None:
            cmd = [sys.executable, "-m", "simplexmodes.cli", *argv]
        else:
            cmd = [sys.executable, str(SHIM), str(spans), " ".join(argv),
                   "1" if memory else "0", "--", *argv]
        code, out, err, wall, rss = self.spawn(cmd)
        problems = checks.check(argv, code, out.decode(errors="replace"), self.ref)
        self.attempted += 1
        if problems:
            self.failures.append({"argv": argv, "exit": code, "problems": problems[:5],
                                  "stderr": err.decode(errors="replace")[-500:]})
        return {"argv": argv, "ok": not problems, "wall_s": wall, "rss_mb": rss,
                "output_bytes": len(out)}

    def run_pass(self, commands: list[list[str]], rng: random.Random,
                 traced: bool = False, memory: bool = False) -> dict:
        order = rng.sample(commands, len(commands))
        started = time.perf_counter()
        results, docs = [], []
        for i, argv in enumerate(order):
            spans = self.tmp / f"spans-{i}.json" if traced else None
            results.append(self.command(argv, spans, memory))
            if spans is not None and spans.exists():
                with open(spans) as fh:
                    docs.append(json.load(fh))
                spans.unlink()
        return {
            "wall_s": sum(r["wall_s"] for r in results),
            "peak_rss_mb": max(r["rss_mb"] for r in results),
            "output_bytes": sum(r["output_bytes"] for r in results),
            "elapsed_s": time.perf_counter() - started,
            "commands": results,
            "docs": docs,
        }

    def version(self) -> float:
        """Wall time of one cold `--version`: start-up, imports, parser build."""
        return self.command(["--version"])["wall_s"]

    def provenance(self) -> dict:
        code, out, err, _, _ = self.spawn([sys.executable, "-c", PROBE])
        if code != 0:
            raise RuntimeError(f"cannot import simplexmodes: {err.decode()[-500:]}")
        info = json.loads(out)
        info.update({
            "git_commit": git_commit(ROOT),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MODES_NUM_THREADS")},
            "unset_for_children": ["MODES_NUM_THREADS"],
        })
        return info


def _run_until(deadline: float, minimum: int, step) -> None:
    """Call step() at least `minimum` times, then while another call is
    expected to end before the deadline; step returns its elapsed time."""
    spent = [step() for _ in range(minimum)]
    while time.perf_counter() + statistics.median(spent) <= deadline:
        spent.append(step())


def end_to_end(runner: Runner, commands, seed: int, seconds: float) -> tuple[dict, dict]:
    rng = random.Random(seed)
    runner.version()  # warms the file cache and byte-code; not a sample
    setup, passes = [], []

    def step():
        # start-up samples are spread over the run, like the passes, so
        # that a slow spell of the machine shifts both alike
        started = time.perf_counter()
        passes.append(runner.run_pass(commands, rng))
        setup.append(runner.version())
        return time.perf_counter() - started

    _run_until(time.perf_counter() + seconds, MIN_PASSES, step)
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(runner.version())
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    per_command: dict[str, list] = {}
    for p in passes:
        for r in p["commands"]:
            per_command.setdefault(" ".join(r["argv"]), []).append(r)
    record = {
        "passes": len(passes),
        "setup_s": {"median": statistics.median(setup), "samples": len(setup)},
        "wall_s": {"median": statistics.median(walls), "tail": tail(walls),
                   "samples": len(walls), "values": walls},
        "commands": {
            name: {"median_wall_s": statistics.median(r["wall_s"] for r in rs),
                   "max_rss_mb": max(r["rss_mb"] for r in rs)}
            for name, rs in sorted(per_command.items())
        },
    }
    return metrics, record


def traced(runner: Runner, commands, seed: int, seconds: float) -> tuple[dict, dict]:
    deadline = time.perf_counter() + seconds
    rng = random.Random(seed)
    memory = runner.run_pass(commands, rng, traced=True, memory=True)
    plain, spans = [], []

    def step():
        plain.append(runner.run_pass(commands, rng))
        spans.append(runner.run_pass(commands, rng, traced=True))
        return plain[-1]["elapsed_s"] + spans[-1]["elapsed_s"]

    _run_until(deadline, MIN_TRACED_PASSES, step)
    per_pass = [layers.pass_metrics(p["docs"], p["output_bytes"]) for p in spans]
    values: dict[str, float] = {}
    repeat = True
    for name, _, _ in layers.PER_LAYER:
        if name.startswith("trace."):
            continue
        seen = [m[name] for m, _ in per_pass]
        if name in layers.EXACT:
            repeat = repeat and len(set(seen)) == 1
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    values["modes.periodic_basis.peak_mb"] = layers.pass_metrics(
        memory["docs"], memory["output_bytes"])[0]["modes.periodic_basis.peak_mb"]
    values["trace.wall_s"] = statistics.median(p["wall_s"] for p in spans)
    values["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in plain)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    functions = {
        name: {"calls": calls["calls"],
               **{field: statistics.median(f[name][field] for _, f in per_pass)
                  for field in ("s", "self_s")}}
        for name, calls in per_pass[0][1].items()
    }
    metrics = {name: (values[name], layers.UNITS[name]) for name, _, _ in layers.PER_LAYER}
    record = {"traced_passes": len(spans), "untraced_passes": len(plain),
              "exact_counts_repeat": repeat, "functions": functions}
    return metrics, record


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ref = checks.load_reference(ROOT)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(tmp, ref)
        info = runner.provenance()
        commands = workload_commands(name, seed)
        measure = traced if trace else end_to_end
        metrics, record = measure(runner, commands, seed, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    from_checkout = Path(info["simplexmodes_file"]).resolve().is_relative_to(SRC)
    failed = len(runner.failures)
    record.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": info, "imported_from_checkout": from_checkout,
        "fail_ratio": {"value": failed / runner.attempted, "unit": "1"},
        "failures": runner.failures[:10],
    })
    return {
        "correct": failed == 0 and from_checkout,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": record,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "simplexmodes" / "cli.py").is_file():
        print(f"error: no simplexmodes package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        record = results[name].pop("record")
        print(json.dumps({"record": record}, sort_keys=True))
        for failure in record["failures"]:
            print(f"{name}: FAILED {' '.join(failure['argv'])}: {failure['problems']}",
                  file=sys.stderr)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(f"{name:12s} fail_ratio {result['failed'] / result['attempted']:.3g} 1  " + "  ".join(
            f"{k} {m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
