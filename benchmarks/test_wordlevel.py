"""Word-level evaluation versus bit-blasting: the Table 3-2 event saving.

The thesis credits vector symmetry with representing the S-1 design in
8 282 primitives where bit-blasting needs 53 833 (6.5x).  This benchmark
verifies the same synthetic designs both ways — the word-level engine on
the vector form, the scalar engine on the blasted form — asserts the
reports are byte-identical per bit, and writes the event and wall-time
ratios to ``BENCH_wordlevel.json`` so the saving is tracked from PR to PR.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import oracle
from repro.core.verifier import TimingVerifier
from repro.netlist import bit_blast
from repro.workloads.synth import SynthConfig, generate

SIZES = (120, 250, 500)
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_wordlevel.json"


def _measure(chips: int) -> dict:
    circuit, _stats = generate(SynthConfig(chips=chips)).circuit()
    blasted = bit_blast(circuit)

    t0 = time.perf_counter()
    word = TimingVerifier(circuit).verify()
    word_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    blast = TimingVerifier(blasted).verify()
    blast_seconds = time.perf_counter() - t0

    oracle.compare(
        "bit-blast",
        oracle.observe_bits(word, circuit),
        oracle.observe_bits(blast, circuit),
    )
    return {
        "chips": chips,
        "word_primitives": len(circuit.components),
        "blast_primitives": len(blasted.components),
        "word_events": word.stats.events,
        "blast_events": blast.stats.events,
        "event_ratio": blast.stats.events / word.stats.events,
        "word_seconds": word_seconds,
        "blast_seconds": blast_seconds,
        "time_ratio": blast_seconds / max(word_seconds, 1e-9),
        "vector_events": word.stats.vector_events,
        "lane_splits": word.stats.lane_splits,
    }


def test_wordlevel_event_saving(benchmark, report):
    runs = [_measure(chips) for chips in SIZES]

    largest = SIZES[-1]
    circuit, _stats = generate(SynthConfig(chips=largest)).circuit()
    benchmark.pedantic(
        lambda: TimingVerifier(circuit).verify(), rounds=3, iterations=1
    )

    payload = {
        "sizes": runs,
        "min_event_ratio": min(r["event_ratio"] for r in runs),
    }
    BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        f"{'chips':>6} {'word ev':>9} {'blast ev':>9} {'ratio':>7} "
        f"{'word s':>8} {'blast s':>8} {'time x':>7}",
    ]
    for r in runs:
        rows.append(
            f"{r['chips']:>6} {r['word_events']:>9,} {r['blast_events']:>9,} "
            f"{r['event_ratio']:>6.1f}x {r['word_seconds']:>8.3f} "
            f"{r['blast_seconds']:>8.3f} {r['time_ratio']:>6.1f}x"
        )
    rows += [
        "",
        "violation reports byte-identical per bit at every size",
        "(paper: 53,833 / 8,282 = 6.5x primitives on the S-1 example)",
        f"written to {BENCH_FILE.name}",
    ]
    report("Word-level evaluation — events vs bit-blasting", "\n".join(rows))

    assert BENCH_FILE.exists()
    # The tentpole target: at least 3x fewer events at every size.
    assert payload["min_event_ratio"] >= 3.0
