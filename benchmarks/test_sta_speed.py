"""Static pass vs. full verification: the scald-sta speed claim.

The point of a static analysis is whole-design answers at a fraction of
the engine's cost.  This benchmark times the three phases of both flows at
the Table 3-1 design size (1 000 chips by default, 6 357 under
``REPRO_S1_SCALE=1``):

* expansion — reading the design and building the netlist (the thesis
  bills this to every verification run: 107 of Table 3-1's 170 minutes);
* full verification — ``TimingVerifier.verify()``, all cases;
* the static pass — ``repro.sta.analyze`` (windows + domains + slack).

The acceptance claim is static >= 10x faster than a full verification run
(expansion + verify, Table 3-1's accounting).  The verify-only ratio is
reported alongside for reference.  Headline numbers land in
``BENCH_sta.json`` so the trajectory is tracked from PR to PR.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.verifier import TimingVerifier
from repro.sta import analyze
from repro.workloads.synth import SynthConfig, generate

from conftest import synth_chip_count

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_sta.json"


def _best_of(n: int, fn):
    """Best wall time of ``n`` runs (robust to scheduler noise)."""
    best, result = None, None
    for _ in range(n):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_sta_speedup(benchmark, report):
    chips = synth_chip_count()
    design = generate(SynthConfig(chips=chips, stage_chips=400))

    expand_s, (circuit, _) = _best_of(2, design.circuit)
    verify_s, result = _best_of(2, TimingVerifier(circuit).verify)

    analysis = benchmark.pedantic(lambda: analyze(circuit), rounds=5,
                                  iterations=1)
    static_s = min(benchmark.stats.stats.data)

    full_run_s = expand_s + verify_s
    ratio_full = full_run_s / static_s
    ratio_verify = verify_s / static_s

    rows = [
        f"design: {chips} chips, {result.primitive_count} primitives, "
        f"{len(analysis.slack)} checkers",
        f"expansion (read + build netlist):   {expand_s * 1e3:9.1f} ms",
        f"full verification (all cases):      {verify_s * 1e3:9.1f} ms",
        f"static pass (windows+domains+slack):{static_s * 1e3:9.1f} ms",
        f"speedup vs full run (expand+verify): {ratio_full:8.1f}x  (claim: >= 10x)",
        f"speedup vs verify phase alone:       {ratio_verify:8.1f}x",
    ]
    report("scald-sta vs scald-tv (static-pass speedup)", "\n".join(rows))

    # Recorded before any assertion, so a failing run leaves its own
    # reading on disk and not the last passing one.
    BENCH_FILE.write_text(
        json.dumps(
            {
                "chips": chips,
                "expand_seconds": expand_s,
                "verify_seconds": verify_s,
                "static_seconds": static_s,
                "speedup_vs_full_run": ratio_full,
                "speedup_vs_verify": ratio_verify,
            },
            indent=2,
        )
        + "\n"
    )

    assert result.ok
    assert not analysis.windows.feedback  # synth designs are loop-free
    assert analysis.slack, "the workload must contain checkers"
    assert ratio_full >= 10.0, (
        f"static pass must be >= 10x faster than a full verification run: "
        f"{static_s * 1e3:.1f} ms vs {full_run_s * 1e3:.1f} ms "
        f"({ratio_full:.1f}x)"
    )
