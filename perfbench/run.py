"""quasiproj benchmark: one `qc` workload per run, or all of them.

    python3 perfbench/run.py --workload freq_census --seed 3 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 the workload's `qc` command runs as a child process, again
and again for --seconds, and the run reports the end-to-end metrics: wall
time, items per second, CPU time, peak RSS and set-up time (the same
command at a small radius).  With --trace 1 the same argv goes through
`quasiproj.cli.run` in-process, with spans around each module's public
functions, and the run reports the per-layer metrics.  Either way every
output is checked, a record of the run is written under perfbench/out/,
and the last line of stdout is one JSON object.  Run from anywhere in a
checkout of the repository; nothing is built or installed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import logging
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, Tracer, layer_metrics, traced  # noqa: E402
from workloads import (DEFAULT_SEED, SETUP_RADIUS, WORKLOADS, check_output,  # noqa: E402
                       draw_gamma, gamma_problems, pinned_digest, qc_args)

#: at least this many timed commands per run, however short --seconds is
MIN_SAMPLES = 3
#: set-up samples per run, interleaved with the first workload commands
SETUP_SAMPLES = 5
#: fresh interpreters per start-up figure in the traced run
STARTUP_SAMPLES = 5
#: a child process still running after this long is killed (and fails)
CHILD_LIMIT_S = 150.0
#: stop starting new commands once this much of the 180 s allowance is gone
RUN_LIMIT_S = 120.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: the traced count that must equal each workload's output item count
OUTPUT_COUNT = {"tiling_svg": "io.tiling_edges",
                "freq_census": "tiling2d.vertices",
                "cells_obj": "lattice3d.cells",
                "overlap_census": "lattice3d.classify_calls"}
#: the summary `qc lattice3d` logs
LATTICE_LOG = re.compile(r"(\d+) points, (\d+) tips, (\d+) complete cells")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: list


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], tag: str) -> Sample:
    """Run argv to completion; wall time plus the child's own rusage."""
    err_path = OUT / f"{tag}.stderr"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, err_path.read_text().splitlines())


def qc_command(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "quasiproj.cli", *args]


# ---------------------------------------------------------------------------
# bookkeeping shared by both kinds of run
# ---------------------------------------------------------------------------

class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems


def output_problems(w, path: Path, seed: int, digests: set):
    """Check one output file; returns (items, problems)."""
    chk = check_output(w, path)
    problems = list(chk.problems)
    digests.add(chk.sha256)
    if len(digests) > 1:
        problems.append("output differs between identical runs")
    pinned = pinned_digest(w.name) if seed == DEFAULT_SEED else None
    if pinned is not None and chk.sha256 != pinned:
        problems.append(f"sha256 {chk.sha256} differs from pinned {pinned}")
    return chk.items, problems


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quasiproj").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def package_version(name: str) -> str | None:
    try:
        return version(name)
    except PackageNotFoundError:
        return None


def run_record(workload: str, seed: int, gamma: list[float], trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "gamma": gamma, "trace": trace,
        "commit": git_commit(), "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": package_version("numpy"), "scipy": package_version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def percentile_note(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"median of {n}; no percentile has 10 samples beyond it"
    v = sorted(values)
    return f"median of {n}; p{100 * (n - 10) // n} = {v[n - 11]:.6g}"


def finish(w, record: dict, ledger: Ledger, metrics: dict, notes: dict) -> int:
    """Print the metrics and the result line, and write the run record."""
    correct = not ledger.failures
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{w.name} {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"{w.name} failed_frac = {len(ledger.failures) / max(ledger.attempted, 1):.6g} "
          f"({len(ledger.failures)} of {ledger.attempted})")
    for failure in ledger.failures:
        print(f"{w.name} FAILED {failure}")
    record.update(correct=correct, attempted=ledger.attempted,
                  failures=ledger.failures,
                  metrics={k: {"value": v, "unit": u, "note": notes.get(k, "")}
                           for k, (v, u) in metrics.items()})
    out = OUT / f"results-{w.name}-seed{record['seed']}-trace{record['trace']}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": len(ledger.failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics of the qc process
# ---------------------------------------------------------------------------

def timed_run(w, seed: int, seconds: int) -> int:
    gamma = draw_gamma(w.c, seed)
    out = OUT / f"{w.name}.{w.suffix}"
    main = qc_command(qc_args(w, gamma, w.radius, out))
    setup = qc_command(qc_args(w, gamma, SETUP_RADIUS, OUT / f"{w.name}-setup.{w.suffix}"))
    ledger, digests = Ledger(), set()

    def setup_once() -> float | None:
        s = run_child(setup, f"{w.name}-setup")
        problems = gamma_problems(s.stderr, gamma) if s.code == 0 else [f"exit {s.code}"]
        return s.wall_s if ledger.record("setup run", problems) else None

    setup_once()  # bytecode and page caches, which users do not pay per run
    start = time.perf_counter()
    runs, setups, items, attempts = [], [], 0, 0
    while True:
        if len(setups) < SETUP_SAMPLES:
            wall = setup_once()
            if wall is not None:
                setups.append(wall)
        attempts += 1
        s = run_child(main, w.name)
        problems = [f"exit {s.code}"]
        if s.code == 0:
            items, problems = output_problems(w, out, seed, digests)
            problems += gamma_problems(s.stderr, gamma)
        if ledger.record("workload run", problems):
            runs.append(s)
        elapsed = time.perf_counter() - start
        expected = statistics.median(r.wall_s for r in runs) if runs else s.wall_s
        full = attempts >= MIN_SAMPLES and elapsed + expected > seconds
        if full or elapsed > RUN_LIMIT_S:
            break

    def med(values):
        return statistics.median(values) if values else 0.0

    wall = med([r.wall_s for r in runs])
    metrics = {
        "wall_s": (wall, "s"),
        "items_per_s": (items / wall if wall else 0.0, "1/s"),
        "cpu_s": (med([r.cpu_s for r in runs]), "s"),
        "peak_rss_mb": (med([r.rss_mb for r in runs]), "MB"),
        "setup_s": (med(setups), "s"),
    }
    notes = {"wall_s": percentile_note([r.wall_s for r in runs]),
             "items_per_s": f"{items} {w.item} per run",
             "cpu_s": percentile_note([r.cpu_s for r in runs]),
             "setup_s": percentile_note(setups) + f", radius {SETUP_RADIUS}"}
    record = run_record(w.name, seed, gamma, 0)
    record["samples"] = {"wall_s": [r.wall_s for r in runs],
                         "cpu_s": [r.cpu_s for r in runs],
                         "peak_rss_mb": [r.rss_mb for r in runs],
                         "setup_s": setups, "output_sha256": sorted(digests)}
    return finish(w, record, ledger, metrics, notes)


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics from an in-process traced run
# ---------------------------------------------------------------------------

class LogLines(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.lines: list[str] = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def startup_split(ledger: Ledger) -> tuple[float, float]:
    """Fresh-interpreter time, and what `import quasiproj.cli` adds to it."""
    bare, imported = [], []
    for _ in range(STARTUP_SAMPLES):
        for argv, into in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import quasiproj.cli"], imported)):
            s = run_child(argv, "startup")
            if ledger.record("start-up probe", [] if s.code == 0 else [f"exit {s.code}"]):
                into.append(s.wall_s)
    if not bare or not imported:
        return 0.0, 0.0
    return statistics.median(bare), statistics.median(imported) - statistics.median(bare)


def threads2_speedup(gamma: list[float], w) -> float | None:
    """threads=1 over threads=2 time of the workload's 2-d enumeration."""
    from quasiproj import geometry, window
    basis = geometry.make_basis()
    shift = window.normalize_shift(gamma)
    wset = window.build_windows(window.build_polytope_P(basis), shift.c)
    times = {1: [], 2: []}
    try:
        for _ in range(3):
            for threads in (1, 2):
                t0 = time.perf_counter()
                window.enumerate_accepted_2d(w.radius, shift, wset, basis, threads=threads)
                times[threads].append(time.perf_counter() - t0)
    except TypeError:  # the threads parameter is gone
        return None
    return statistics.median(times[1]) / statistics.median(times[2])


def cross_check(w, metrics: dict, items: int, log: list[str]) -> list[str]:
    """Traced counts against the counts read from the output and the log."""
    expect = [(OUTPUT_COUNT[w.name], items)]
    summary = next(filter(None, map(LATTICE_LOG.search, log)), None)
    if w.name == "cells_obj" and summary:
        expect += [("window.enumerate_3d.accepted", int(summary[1])),
                   ("lattice3d.tips", int(summary[2])),
                   ("lattice3d.cells", int(summary[3]))]
    problems = []
    for name, want in expect:
        value, _, absent = metrics[name]
        if not absent and int(value) != want:
            problems.append(f"traced {name} = {int(value)}, output says {want}")
    return problems


def traced_run(w, seed: int, seconds: int) -> int:
    gamma = draw_gamma(w.c, seed)
    ledger, digests = Ledger(), set()
    interpreter_s, import_s = startup_split(ledger)

    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("quasiproj.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's package")
    log = LogLines()
    logging.getLogger("qc").addHandler(log)

    out = OUT / f"{w.name}-traced.{w.suffix}"
    argv = qc_args(w, gamma, w.radius, out)

    def checked(tracer=None) -> tuple[float, int, list[str]]:
        log.lines.clear()
        t0 = time.perf_counter()
        if tracer is None:
            code = cli.run(argv)
        else:
            with traced(tracer), tracer.span("cli.run"):
                code = cli.run(argv)
        dt = time.perf_counter() - t0
        if code != 0:
            return dt, 0, [f"exit {code}"]
        items, problems = output_problems(w, out, seed, digests)
        return dt, items, problems + gamma_problems(log.lines, gamma)

    def traced_once():
        tracer = Tracer()
        dt, items, problems = checked(tracer)
        metrics = layer_metrics(tracer)
        problems += cross_check(w, metrics, items, log.lines)
        if ledger.record("traced run", problems):
            traced_s.append(dt)
            per_run.append(metrics)
        return dt

    def plain_once():
        dt, _, problems = checked()
        if ledger.record("untraced in-process run", problems):
            plain.append(dt)
        return dt

    ledger.record("warm-up run", checked()[2])  # first-touch of the big arrays
    plain, traced_s, per_run = [], [], []
    start = time.perf_counter()
    while True:
        # alternate which side of a pair runs first
        pair = (plain_once, traced_once)
        if len(plain) % 2:
            pair = pair[::-1]
        dt = sum(run() for run in pair)
        elapsed = time.perf_counter() - start
        if elapsed + dt > seconds or elapsed > RUN_LIMIT_S:
            break

    absent = set()
    metrics, notes = {}, {}
    metrics["cli.interpreter_s"] = (interpreter_s, "s")
    metrics["cli.import_s"] = (import_s, "s")
    notes["cli.interpreter_s"] = f"median of {STARTUP_SAMPLES} fresh `python -c pass`"
    notes["cli.import_s"] = "fresh `import quasiproj.cli` minus the interpreter"
    for name, unit, _, _ in LAYER_METRICS:
        values = [m[name][0] for m in per_run]
        is_absent = any(m[name][2] for m in per_run)
        if unit in ("count", "B") and len(set(values)) > 1:
            ledger.record(f"count {name}", [f"differs between repeats: {values}"])
        metrics[name] = (statistics.median(values) if values else 0.0, unit)
        if is_absent:
            absent.add(name)
            notes[name] = "ABSENT: a function it needs is gone or ran off the main thread"
        elif not any(values):
            notes[name] = "not exercised by this workload"
    speedup = threads2_speedup(gamma, w) if w.name == "freq_census" else 0.0
    metrics["window.enumerate_2d.threads2_speedup"] = (speedup or 0.0, "x")
    if speedup is None:
        absent.add("window.enumerate_2d.threads2_speedup")
        notes["window.enumerate_2d.threads2_speedup"] = "ABSENT: no threads parameter"
    elif not speedup:
        notes["window.enumerate_2d.threads2_speedup"] = "measured on freq_census only"
    overhead = (statistics.median(traced_s) / statistics.median(plain) - 1.0
                if traced_s and plain else 0.0)
    metrics["trace.overhead_frac"] = (overhead, "1")
    notes["trace.overhead_frac"] = f"traced vs untraced cli.run, {len(traced_s)} pairs"

    record = run_record(w.name, seed, gamma, 1)
    record["absent"] = sorted(absent)
    record["samples"] = {"traced_s": traced_s, "untraced_s": plain}
    return finish(w, record, ledger, metrics, notes)


# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: int) -> int:
    """Every workload, end to end and traced, each in its own process."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", str(trace)],
                                  stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            ok &= (proc.returncode == 0 and bool(lines)
                   and json.loads(lines[-1]).get("correct") is True)
    print("all workloads correct" if ok else "SOME WORKLOADS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quasiproj" / "cli.py").is_file():
        print(f"run.py: no quasiproj package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run = traced_run if args.trace else timed_run
    return run(WORKLOADS[args.workload], args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
