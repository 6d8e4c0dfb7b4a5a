"""Shared machinery: order statistics, process accounting, calibration.

Process accounting reads Linux ``/proc``.  A program process and all of
its descendants count, because scald-serve's pool workers do the
server's verification work.  The server forks them from a
request-handler thread, so they are listed under that thread's
``/proc/<pid>/task/<tid>/children``, not the main thread's.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass
class Context:
    """What a workload needs to run: where, how much, and the references."""

    out: Path            #: the benchmark's own scratch output
    env: dict            #: environment of every program process
    seed: int
    ops: int             #: ops in the run (fixed, so both commits do the same)
    trace: bool          #: record spans on every other cycle of ops
    refs: dict           #: this workload's stored references
    setup_reps: int      #: set-up repetitions; ``setup_s`` is their median
    deadline: float      #: perf_counter time by which the op loop must stop


@dataclass
class Outcome:
    """What one run of a workload measured."""

    setup_s: list[float] = field(default_factory=list)
    #: seconds per op, untraced ops (every op when tracing is off)
    latencies: list[float] = field(default_factory=list)
    #: seconds per op, traced ops
    traced: list[float] = field(default_factory=list)
    #: program CPU seconds over ``cpu_ops`` ops
    cpu_s: float = 0.0
    cpu_ops: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: the first few failures, for the run record
    failures: list[str] = field(default_factory=list)
    #: per-layer metrics (traced runs); layers a workload does not
    #: exercise are filled with 0 by the caller
    layers: dict[str, float] = field(default_factory=dict)
    #: extra figures for the run record and the human-readable lines
    notes: dict[str, float] = field(default_factory=dict)
    #: the traced ops' spans, written out with the run record
    spans: list[dict] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def engine_layers(runs: list[dict], ops: int) -> dict[str, float]:
    """``engine.*`` and ``reporting.summary_ms`` per op from engine runs.

    Each run is a flat dict of PhaseTimes and EngineStats fields
    (seconds and counts); hit rates pool the hits of all runs.
    """
    def total(key: str) -> float:
        return sum(r[key] for r in runs)

    def rate(kind: str) -> float:
        hits = total(f"{kind}_hits")
        seen = hits + total(f"{kind}_misses")
        return hits / seen if seen else 0.0

    per_op = 1e3 / ops
    return {
        "engine.build_ms": total("build") * per_op,
        "engine.levelize_ms": total("levelize_seconds") * per_op,
        "engine.verify_ms": total("verify") * per_op,
        "engine.events": total("events") / ops,
        "engine.evaluations": total("evaluations") / ops,
        "engine.memo_hit_rate": rate("memo"),
        "engine.intern_hit_rate": rate("intern"),
        "engine.prepared_hit_rate": rate("prepared"),
        "reporting.summary_ms": total("summary") * per_op,
    }


def expander_layers(stats: dict) -> dict[str, float]:
    """``hdl.*`` from one ExpanderStats (as a dict)."""
    return {
        "hdl.read_ms": stats["read_seconds"] * 1e3,
        "hdl.pass1_ms": stats["pass1_seconds"] * 1e3,
        "hdl.pass2_ms": stats["pass2_seconds"] * 1e3,
        "hdl.macro_calls": float(stats["macro_calls"]),
    }


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float]) -> tuple[float, int]:
    """The value at the highest percentile with ten samples beyond it.

    Returns ``(value, percentile)``: p90 for 100 samples, p58 for 24.
    With ten samples or fewer it is the largest one.
    """
    ordered = sorted(values)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], (100 * (index + 1)) // len(ordered)


def calibrate(samples: int = 5) -> list[float]:
    """Milliseconds of a fixed pure-Python loop, ``samples`` times.

    The loop never changes, so a shift in it between runs is the machine,
    not the program.
    """
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def program_env(root: Path, pycache: Path) -> dict[str, str]:
    """The environment every program process runs in.

    Bytecode comes from a private cache that the benchmark fills before
    any timed region, so a fresh process never recompiles ``src/``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cli_import_ms(env: dict, reps: int) -> float:
    """Milliseconds a fresh interpreter spends importing ``repro.cli``.

    The import is timed inside each of ``reps`` fresh interpreters, so
    interpreter start is left out; the median is returned.
    """
    code = ("import time; start = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - start)")
    seconds = [
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(reps)
    ]
    return median(seconds) * 1e3


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------

def _cpu_of(pid: int) -> float:
    """utime + stime + cutime + cstime of ``pid``, in seconds.

    The children's fields hold the CPU of exited, reaped children, so a
    pool worker that dies between two readings still counts once.
    """
    with open(f"/proc/{pid}/stat") as fh:
        text = fh.read()
    fields = text[text.rindex(")") + 2:].split()
    return sum(int(f) for f in fields[11:15]) / CLOCK_TICKS


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid``, through all of its threads."""
    out: list[int] = []
    todo = [pid]
    while todo:
        parent = todo.pop()
        try:
            tids = os.listdir(f"/proc/{parent}/task")
        except FileNotFoundError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except FileNotFoundError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


def tree_cpu(pid: int) -> tuple[float, float]:
    """(CPU seconds of ``pid`` itself, CPU seconds of its descendants)."""
    own = _cpu_of(pid)
    kids = 0.0
    for child in descendants(pid):
        try:
            kids += _cpu_of(child)
        except (FileNotFoundError, ProcessLookupError):
            pass
    return own, kids


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident set (VmHWM) of ``pid`` and its descendants."""
    total_kb = 0
    for p in [pid, *descendants(pid)]:
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except FileNotFoundError:
            pass
    return total_kb / 1024


def alive(pid: int) -> bool:
    """Is ``pid`` still running (a zombie has ended)?"""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except FileNotFoundError:
        return False
    return text[text.rindex(")") + 2] != "Z"

