#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark with a traced layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oneshot-1k --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

``--trace 0`` measures the end-to-end metrics with no spans installed;
``--trace 1`` is the separate traced run that prints the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md beside
this file describes the workloads, the metrics and the noise that
shaped them.
"""

from __future__ import annotations

import argparse
import compileall
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_per_op_ms": "ms",
    "peak_rss_mb": "MB",
}
#: self-time layers of the traced split; "unattributed" is the remainder
LAYERS = ("cli", "hdl", "core", "reporting", "session", "sta", "parametric",
          "server", "unattributed")
#: per-layer metrics in the result line: name -> unit.  Every time here
#: is measured on every workload; a count or ratio reads 0 on a workload
#: that does not exercise its layer.  ``share.<layer>`` is the layer's
#: self time as a fraction of the traced op time.
PER_LAYER = {
    "env.calib_ms": "ms",
    "cli.import_ms": "ms",
    "hdl.read_ms": "ms",
    "hdl.pass1_ms": "ms",
    "hdl.pass2_ms": "ms",
    "hdl.macro_calls": "count",
    "engine.build_ms": "ms",
    "engine.levelize_ms": "ms",
    "engine.verify_ms": "ms",
    "engine.events": "count",
    "engine.evaluations": "count",
    "engine.memo_hit_rate": "ratio",
    "engine.intern_hit_rate": "ratio",
    "engine.prepared_hit_rate": "ratio",
    "reporting.summary_ms": "ms",
    "incremental.dirty_primitives": "count",
    "incremental.reused_waveforms": "count",
    "fmax.engine_runs": "count",
    "fmax.parametric_passes": "count",
    "fmax.static_evals": "count",
    "pool.waveforms_shipped": "count",
    "pool.waveform_refs": "count",
    "pool.snapshots_fetched": "count",
    "server.response_kb": "KiB",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "trace.op_mean_ms": "ms",
    "trace.op_p50_ms": "ms",
    "trace.overhead_ms": "ms",
}
#: per-layer times of layers only some workloads exercise: printed in the
#: report for the workloads that measure them, kept out of the result
#: line (where a time that reads 0 on every run of a workload would be
#: taken for a constant)
DETAIL = {
    "reporting.listing_ms": "ms",
    "session.edit_ms": "ms",
    "sta.prescreen_ms": "ms",
    "fmax.static_ms": "ms",
    "fmax.engine_ms": "ms",
    "pool.worker_cpu_ms": "ms",
    "server.empty_rt_ms": "ms",
    "server.edit_rt_ms": "ms",
    "server.reverify_rt_ms": "ms",
    "server.transport_ms": "ms",
    **{f"self.{layer}_ms": "ms" for layer in LAYERS},
}
#: set-up repetitions per run; setup_s is their median
SETUP_REPS = {"oneshot-1k": 9, "serve-edit-1k": 3, "fmax-250": 7}
#: fresh interpreters per traced run that time ``import repro.cli``.
#: Only oneshot-1k's ops import it, but every per-layer metric must be in
#: every workload's result line, and a time reading 0 on every run of a
#: workload would look like a constant.
CLI_IMPORT_REPS = 5
#: the op loop stops here even if ops remain, and the whole run is cut
#: off at HARD_LIMIT_S, so a run always ends within 180 s
LOOP_LIMIT_S = 140
HARD_LIMIT_S = 170


class RunTimeout(Exception):
    pass


WORKLOADS = ("oneshot-1k", "serve-edit-1k", "fmax-250")


def _workloads() -> dict:
    import fmax
    import oneshot
    import serve

    return {m.NAME: m for m in (oneshot, serve, fmax)}


def op_count(module, seconds: int) -> int:
    """Ops per run: about ``seconds`` of work at the defining commit.

    A whole number of input cycles, so traced and untraced ops (which
    alternate by cycle) see every input equally often; fixed per
    ``seconds``, so two commits always do the same work.
    """
    cycle = module.CYCLE
    return cycle * max(2, round(seconds / module.OP_SECONDS / cycle))


def build(pycache: Path) -> None:
    """Compile the program and the benchmark into the private cache."""
    for tree in (ROOT / "src", HERE):
        if not compileall.compile_dir(str(tree), quiet=1):
            raise SystemExit(f"perfbench: {tree} does not compile")


def run_workload(module, args, refs, env) -> dict:
    from harness import Context, calibrate, cli_import_ms, median, tail

    calib = calibrate()
    ctx = Context(
        out=OUT, env=env, seed=args.seed,
        ops=op_count(module, args.seconds), trace=bool(args.trace),
        refs=refs[module.NAME], setup_reps=SETUP_REPS[module.NAME],
        deadline=time.perf_counter() + LOOP_LIMIT_S,
    )
    outcome = module.run(ctx)
    calib += calibrate()

    lat = outcome.latencies
    record = {
        "workload": module.NAME, "seed": args.seed, "trace": args.trace,
        "ops": ctx.ops, "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.failures, "setup_s": outcome.setup_s,
        "latencies_s": lat, "traced_s": outcome.traced, "calib_ms": calib,
        "notes": outcome.notes,
    }
    e2e = {}
    if lat:
        tail_s, pct = tail(lat)
        e2e = {
            "setup_s": median(outcome.setup_s),
            "op_p50_ms": median(lat) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "cpu_per_op_ms": outcome.cpu_s / outcome.cpu_ops * 1e3,
            "peak_rss_mb": outcome.peak_rss_mb,
        }
        record["tail_percentile"] = pct
    record["end_to_end"] = e2e
    if args.trace:
        layers = {name: 0.0 for name in (*PER_LAYER, *DETAIL)}
        layers.update(outcome.layers)
        layers["env.calib_ms"] = median(calib)
        layers["cli.import_ms"] = cli_import_ms(env, CLI_IMPORT_REPS)
        if outcome.traced:
            op_mean = sum(outcome.traced) / len(outcome.traced) * 1e3
            layers["trace.op_mean_ms"] = op_mean
            layers["trace.op_p50_ms"] = median(outcome.traced) * 1e3
            for layer in LAYERS:
                layers[f"share.{layer}"] = layers[f"self.{layer}_ms"] / op_mean
            if lat:
                layers["trace.overhead_ms"] = (
                    layers["trace.op_p50_ms"] - median(lat) * 1e3)
        record["per_layer"] = layers
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    name = f"{module.NAME}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / "runs" / name, "w") as fh:
        json.dump(dict(record, spans=outcome.spans), fh)
    return record


def report(record: dict) -> None:
    """Human-readable lines for one workload's run."""
    from harness import median

    attempted = record["attempted"]
    fail_share = record["failed"] / attempted if attempted else 1.0
    print(f"{record['workload']}: seed {record['seed']}, "
          f"{attempted} of {record['ops']} ops attempted, "
          f"{len(record['traced_s'])} traced")
    e2e = record["end_to_end"]
    for name, unit in END_TO_END.items():
        if name in e2e:
            extra = ""
            if name == "setup_s":
                extra = f"  (median of {len(record['setup_s'])} set-ups)"
            elif name == "op_tail_ms":
                extra = (f"  (p{record['tail_percentile']} of "
                         f"{len(record['latencies_s'])} untraced ops)")
            print(f"  {name:<16} {e2e[name]:12.3f} {unit}{extra}")
    print(f"  {'fail_share':<16} {fail_share:12.3f} ratio"
          f"  ({record['failed']} of {attempted} ops failed)")
    for what in record["failures"]:
        print(f"    failed: {what}")
    calib = record["calib_ms"]
    print(f"  {'env.calib_ms':<16} {median(calib):12.3f} ms  "
          f"(start {median(calib[:len(calib) // 2]):.2f}, "
          f"end {median(calib[len(calib) // 2:]):.2f})")
    for name, value in record["notes"].items():
        print(f"  {name:<16} {value:12.3f} ms")
    layers = record.get("per_layer")
    if not layers:
        return
    print("  per layer (means over traced ops unless noted):")
    for name, unit in PER_LAYER.items():
        print(f"    {name:<30} {layers[name]:14.4f} {unit}")
    print("  layer times this workload measures, report only:")
    for name, unit in DETAIL.items():
        if layers[name]:
            print(f"    {name:<30} {layers[name]:14.4f} {unit}")
    split = sum(layers[f"self.{layer}_ms"] for layer in LAYERS)
    print(f"  self times {split:.3f} ms = traced op mean "
          f"{layers['trace.op_mean_ms']:.3f} ms; tracing overhead "
          f"{layers['trace.overhead_ms']:.3f} ms on the op median")


def _timeout(signum, frame):
    raise RunTimeout(f"run exceeded {HARD_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36,
                        help="sets the fixed op count of a run (default 36)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(HARD_LIMIT_S * (3 if args.workload == "all" else 1))
    pycache = OUT / "pycache"
    sys.pycache_prefix = str(pycache)
    build(pycache)
    sys.path.insert(0, str(ROOT / "src"))
    from harness import program_env

    with open(HERE / "refs.json") as fh:
        refs = json.load(fh)
    modules = _workloads()
    # With "all", fmax-250 goes first: its peak_rss_mb is this process's
    # own high-water mark, which the others' 1000-chip inputs would raise.
    chosen = (("fmax-250", "oneshot-1k", "serve-edit-1k")
              if args.workload == "all" else (args.workload,))
    env = program_env(ROOT, pycache)
    try:
        records = [run_workload(modules[n], args, refs, env) for n in chosen]
    except RunTimeout as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    metrics = {}
    for record in records:
        report(record)
        source = record["per_layer"] if args.trace else record["end_to_end"]
        units = PER_LAYER if args.trace else END_TO_END
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for name, unit in units.items():
            if name in source:
                metrics[prefix + name] = {"value": source[name], "unit": unit}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
