"""Incremental re-verify vs. from-scratch: the session speedup claims.

The point of a long-lived session is that a designer's edit-verify loop
pays for the dirty cone, not the design.  This benchmark makes one local
wire-delay edit to a 250-chip synthetic design and times
``Session.reverify()`` against a from-scratch ``TimingVerifier`` run on
the same edited circuit, and the prescreen's update of its held static
analysis against a from-scratch ``repro.sta.analyze()``.

Acceptance: identical answers (checked first — a fast wrong answer is
worthless), >= 5x faster engine re-verification and >= 10x faster static
update.  Headline numbers land in ``BENCH_incremental.json`` so the
trajectory is tracked from PR to PR.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import oracle
from repro.core.verifier import TimingVerifier
from repro.incremental import WireDelayEdit
from repro.session import Session
from repro.sta import analyze
from repro.workloads.synth import SynthConfig, generate

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"

CHIPS = 250
SPEEDUP_FLOOR = 5.0
STATIC_FLOOR = 10.0
#: Rotating wire delays, so every timed round re-verifies a real change.
DELAYS = [(0.0, 0.25), (0.0, 0.5), (0.0, 0.75)]


def _record(doc: dict) -> None:
    """Merge ``doc`` into the ledger, keeping the other test's figures."""
    try:
        ledger = json.loads(BENCH_FILE.read_text())
    except (OSError, ValueError):
        ledger = {}
    ledger.update(doc)
    BENCH_FILE.write_text(json.dumps(ledger, indent=2) + "\n")


def _edited_session():
    """A verified session on the 250-chip design and the net it edits."""
    circuit, _ = generate(SynthConfig(chips=CHIPS)).circuit()
    session = Session(circuit)
    session.verify()
    return session, next(n for n in circuit.nets if n.startswith("S0 R "))


def test_incremental_speedup(benchmark, report):
    session, net = _edited_session()
    circuit = session.circuit

    # Correctness before speed: the edited design must re-verify
    # byte-identical to a from-scratch run.
    inc = oracle.Reverify(session).step(WireDelayEdit(net, (0.0, 0.5)))
    dirty, total = inc.stats.dirty_primitives, inc.result.primitive_count

    # From-scratch baseline on the same edited circuit.
    scratch_s = None
    for _ in range(3):
        t0 = time.perf_counter()
        scratch = TimingVerifier(circuit).verify()
        elapsed = time.perf_counter() - t0
        scratch_s = elapsed if scratch_s is None else min(scratch_s, elapsed)
    assert scratch.ok

    # Each round re-applies a (changed) edit so every timed reverify does
    # real cone work rather than a no-op pass.
    round_index = [0]

    def one_edit_reverify():
        session.edit(WireDelayEdit(net, DELAYS[round_index[0] % len(DELAYS)]))
        round_index[0] += 1
        return session.reverify(prescreen=False)

    inc = benchmark.pedantic(one_edit_reverify, rounds=5, iterations=1)
    reverify_s = min(benchmark.stats.stats.data)
    assert inc.incremental and inc.ok

    speedup = scratch_s / reverify_s
    _record(
        {
            "chips": CHIPS,
            "primitives": total,
            "dirty_primitives": dirty,
            "reused_waveforms": inc.stats.reused_waveforms,
            "scratch_seconds": scratch_s,
            "reverify_seconds": reverify_s,
            "speedup": speedup,
            "floor": SPEEDUP_FLOOR,
        }
    )

    report(
        "Incremental re-verify",
        "\n".join(
            [
                f"  design: {CHIPS} chips, {total} primitives",
                f"  one wire-delay edit dirties {dirty} primitives "
                f"({inc.stats.reused_waveforms} waveforms reused)",
                f"  from-scratch: {scratch_s * 1000:8.2f} ms",
                f"  reverify:     {reverify_s * 1000:8.2f} ms",
                f"  speedup:      {speedup:8.1f}x  (floor {SPEEDUP_FLOOR}x)",
            ]
        ),
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental reverify only {speedup:.1f}x faster than scratch "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


def test_static_update_speedup(benchmark, report):
    """The prescreen's held analysis, updated from one wire-delay edit,
    against a from-scratch ``analyze()`` of the same design."""
    session, net = _edited_session()

    # Correctness before speed: the first prescreen builds the held
    # analysis, and after an edit the updated one equals a fresh one.
    mode = oracle.Reverify(session)
    mode.step()
    mode.step(WireDelayEdit(net, (0.0, 0.5)))

    scratch_s = None
    for _ in range(5):
        t0 = time.perf_counter()
        analyze(session.circuit, session.config, constraints=session.constraints)
        elapsed = time.perf_counter() - t0
        scratch_s = elapsed if scratch_s is None else min(scratch_s, elapsed)

    # Each timed round is one edit -> reverify; the figure is the
    # prescreen's own time within it.
    seconds: list[float] = []

    def one_edit_prescreen():
        session.edit(WireDelayEdit(net, DELAYS[len(seconds) % len(DELAYS)]))
        inc = session.reverify()
        seconds.append(inc.prescreen.seconds)
        return inc

    benchmark.pedantic(one_edit_prescreen, rounds=5, iterations=1)
    update_s = min(seconds)

    speedup = scratch_s / update_s
    _record(
        {
            "static_scratch_seconds": scratch_s,
            "static_update_seconds": update_s,
            "static_speedup": speedup,
            "static_floor": STATIC_FLOOR,
        }
    )
    report(
        "Incremental static prescreen",
        "\n".join(
            [
                f"  design: {CHIPS} chips, one wire-delay edit per round",
                f"  analyze() from scratch: {scratch_s * 1000:8.2f} ms",
                f"  held update:            {update_s * 1000:8.2f} ms",
                f"  speedup:                {speedup:8.1f}x  "
                f"(floor {STATIC_FLOOR}x)",
            ]
        ),
    )
    assert speedup >= STATIC_FLOOR, (
        f"held static update only {speedup:.1f}x faster than analyze() "
        f"(floor {STATIC_FLOOR}x)"
    )
