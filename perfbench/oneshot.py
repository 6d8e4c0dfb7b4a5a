"""oneshot-1k: ``scald-tv DESIGN --summary`` in a fresh process per op.

The thesis's batch use and the end-to-end time a user waits for: process
start to the last listing line.  Expansion (``repro.hdl``) is about half
of each op and the from-scratch engine about a third, so expansion and
start-up changes show here and nowhere else.  A fresh process per op
stops a cache that lives across calls from posing as a gain.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import Context, Outcome, digest, engine_layers, expander_layers
from inputs import design_seeds, design_source
from spans import Spans, self_times

NAME = "oneshot-1k"
WHY = ("scald-tv --summary in a fresh process on rotating 1000-chip "
       "four-case designs: batch use, where expansion and start-up show")
CHIPS = 1000
#: Designs rotated through in one run; one op in a cycle per design.
CYCLE = 3
#: Op time at the commit that defined the benchmark; sets ops per run.
OP_SECONDS = 1.25
TIMEOUT_S = 120.0
CLEAN = b"No setup, hold or minimum pulse width errors detected."

HERE = Path(__file__).resolve().parent


def _spawn(argv: list[str], ctx: Context, stderr) -> tuple:
    """Run one program process to completion.

    Returns ``(start, end, exit status, rusage, stdout bytes)``; the
    rusage comes from ``wait4`` on this child alone.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=ctx.env, cwd=ctx.out / "designs",
                            stdout=subprocess.PIPE, stderr=stderr)
    killer = threading.Timer(TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage, out


def run(ctx: Context) -> Outcome:
    result = Outcome()
    designs = []
    (ctx.out / "designs").mkdir(parents=True, exist_ok=True)
    for dseed in design_seeds(ctx.seed, CYCLE):
        name = f"oneshot-{dseed}.scald"
        (ctx.out / "designs" / name).write_text(design_source(CHIPS, dseed, True))
        designs.append((name, ctx.refs[str(dseed)]))

    py = sys.executable
    with open(ctx.out / "oneshot-stderr.log", "wb") as errlog:
        # Set-up: a fresh interpreter importing repro.cli.  The first
        # launch also fills the bytecode cache for the standard library.
        _spawn([py, "-c", "import repro.cli"], ctx, errlog)
        for _ in range(ctx.setup_reps):
            start, end, *_ = _spawn([py, "-c", "import repro.cli"], ctx, errlog)
            result.setup_s.append(end - start)

        # One untimed op so every module the op imports is cached.
        _spawn([py, "-m", "repro.cli", designs[0][0], "--summary"], ctx, errlog)

        spans = Spans()
        counters: list[dict] = []
        trace_file = ctx.out / "oneshot-trace.json"
        for i in range(ctx.ops):
            if time.perf_counter() > ctx.deadline:
                break
            name, ref = designs[i % CYCLE]
            traced = ctx.trace and (i // CYCLE) % 2 == 1
            if traced:
                argv = [py, str(HERE / "traced_cli.py"), str(trace_file),
                        name, "--summary"]
            else:
                argv = [py, "-m", "repro.cli", name, "--summary"]
            trace_file.unlink(missing_ok=True)
            start, end, code, usage, out = _spawn(argv, ctx, errlog)
            result.attempted += 1

            if code != 0:
                result.fail(f"op {i} {name}: exit status {code}")
            elif CLEAN not in out:
                result.fail(f"op {i} {name}: no clean verdict line")
            elif digest(out.decode()) != ref["stdout_sha256"]:
                result.fail(f"op {i} {name}: stdout differs from reference")

            result.peak_rss_mb = max(result.peak_rss_mb, usage.ru_maxrss / 1024)
            if not traced:
                result.latencies.append(end - start)
                result.cpu_s += usage.ru_utime + usage.ru_stime
                result.cpu_ops += 1
                continue
            result.traced.append(end - start)
            if code != 0:
                continue
            spans.op = i
            root = spans.add("op", "unattributed", start, end, None)
            with open(trace_file) as fh:
                child = json.load(fh)
            spans.adopt(child["spans"], root)
            counters.append(child["counters"])

    if ctx.trace and counters:
        _layers(result, spans, counters)
    return result


def _layers(result: Outcome, spans: Spans, counters: list[dict]) -> None:
    ops = len(counters)
    runs = [dict(c["phases"], **c["engine"]) for c in counters]
    result.layers.update(engine_layers(runs, ops))
    hdl = [expander_layers(c["expander"]) for c in counters]
    for key in hdl[0]:
        result.layers[key] = sum(h[key] for h in hdl) / ops
    listing = sum(r["end"] - r["start"] for r in spans.records
                  if r["layer"] == "reporting")
    result.layers["reporting.listing_ms"] = listing * 1e3 / ops
    for layer, seconds in self_times(spans.records).items():
        result.layers[f"self.{layer}_ms"] = seconds * 1e3 / ops
    result.spans = spans.records
