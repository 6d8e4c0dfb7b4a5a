"""Analytic Fmax vs. engine bisection: the parametric-timing speed claim.

``solve_static_fmax`` finds the fastest clock period from one parametric
dataflow pass (affine window bounds in the period ``T``) plus a handful of
concrete confirmation passes; ``bisect_fmax`` finds the same boundary by
running the full event-driven verifier at O(log T) trial periods.  Both
must land on the same picosecond — the agreement is asserted here at the
benchmark size, and property-tested across synthetic designs in
``tests/test_fmax.py``.

The acceptance claim is analytic >= 10x faster than bisection at 250
chips.  The engine-anchored combined solver (``solve_fmax``) is timed
alongside for reference — it pays for engine confirmation, so it tracks
the bisection cost, but with fewer engine runs (a secant descent from
the static root, steered by the engine's check margins).  Headline
numbers land in ``BENCH_fmax.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.sta.parametric import bisect_fmax, solve_fmax, solve_static_fmax
from repro.workloads.synth import SynthConfig, generate

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_fmax.json"

CHIPS = 250


def _best_of(n: int, fn):
    """Best wall time of ``n`` runs (robust to scheduler noise)."""
    best, result = None, None
    for _ in range(n):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_fmax_speedup(benchmark, report):
    circuit, _ = generate(
        SynthConfig(chips=CHIPS, seed=7, stage_chips=400)
    ).circuit()

    bisect_s, oracle = _best_of(2, lambda: bisect_fmax(circuit))
    anchored_s, anchored = _best_of(1, lambda: solve_fmax(circuit))

    static = benchmark.pedantic(
        lambda: solve_static_fmax(circuit), rounds=5, iterations=1
    )
    analytic_s = min(benchmark.stats.stats.data)

    ratio = bisect_s / analytic_s
    rows = [
        f"design: {CHIPS} chips; engine Fmax boundary {oracle.period_ps} ps, "
        f"static root {static.period_ps} ps",
        f"analytic (parametric pass + confirm): {analytic_s * 1e3:9.1f} ms"
        f"  ({static.passes} parametric, {static.static_evals} static evals)",
        f"engine bisection:                     {bisect_s * 1e3:9.1f} ms"
        f"  ({oracle.engine_runs} engine runs)",
        f"anchored (static + engine confirm):   {anchored_s * 1e3:9.1f} ms"
        f"  ({anchored.engine_runs} engine runs)",
        f"speedup, analytic vs bisection:       {ratio:9.1f}x  (claim: >= 10x)",
    ]
    report("analytic Fmax vs engine bisection", "\n".join(rows))

    # Recorded before any assertion, so a failing run leaves its own
    # reading on disk and not the last passing one.
    BENCH_FILE.write_text(
        json.dumps(
            {
                "chips": CHIPS,
                "analytic_seconds": analytic_s,
                "anchored_seconds": anchored_s,
                "bisect_seconds": bisect_s,
                "speedup_vs_bisect": ratio,
                "engine_period_ps": oracle.period_ps,
                "static_period_ps": static.period_ps,
                "bisect_engine_runs": oracle.engine_runs,
                "anchored_engine_runs": anchored.engine_runs,
                "agreement": anchored.period_ps == oracle.period_ps,
            },
            indent=2,
        )
        + "\n"
    )

    # Both oracles must be period-limited here and agree exactly.
    assert oracle.period_limited and oracle.period_ps is not None
    assert anchored.period_ps == oracle.period_ps
    # The static root is sound (pessimism only raises it) and the binding
    # check is attributed.
    assert static.period_limited and static.period_ps is not None
    assert static.period_ps >= oracle.period_ps
    assert static.binding is not None
    assert ratio >= 10.0, (
        f"analytic Fmax must be >= 10x faster than engine bisection: "
        f"{analytic_s * 1e3:.1f} ms vs {bisect_s * 1e3:.1f} ms "
        f"({ratio:.1f}x)"
    )
