"""Differential proof of the optimized engine against the naive one.

The engine's optimisations — levelized scheduling, waveform interning,
memoized evaluation — may change how many evaluations the fixed point
takes, but never what it converges to.  ``repro.oracle.naive`` requires
``==``-identical observations (snapshots, violations, listings,
cross-reference and margins) between the optimized engine and the naive
FIFO engine on every workload, including under case analysis.
"""

from __future__ import annotations

import pytest

from repro import oracle
from repro.core.config import VerifyConfig
from repro.core.engine import Engine
from repro.core.verifier import TimingVerifier
from repro.workloads.minicpu import build_minicpu
from repro.workloads.synth import SynthConfig, generate

OPTIMIZED = VerifyConfig()
NAIVE = OPTIMIZED.naive()

#: The optimized engine, every optimisation on ("all-on"), held to the
#: naive engine by the oracle's naive mode.
ALL_ON = pytest.mark.parametrize("mode", [pytest.param(oracle.naive, id="all-on")])


@pytest.mark.parametrize(
    "chips,seed",
    [(120, 1980), (250, 7), (500, 42)],
)
@ALL_ON
def test_synth_equivalence(chips, seed, mode):
    circuit, _ = generate(
        SynthConfig(chips=chips, stage_chips=250, seed=seed)
    ).circuit()
    mode(circuit)


@ALL_ON
def test_minicpu_equivalence(mode):
    mode(build_minicpu())


@ALL_ON
def test_case_analysis_equivalence(mode):
    """Incremental ``apply_case`` re-evaluation matches the naive engine."""
    circuit, _ = generate(SynthConfig(chips=200)).circuit()
    for k in range(4):
        circuit.add_case_by_name({"MUX CTL .S0-8": k % 2})
    mode(circuit)


def test_scrambled_order_equivalence():
    """A hostile netlist order changes the work, never the fixed point."""
    circuit, _ = generate(SynthConfig(chips=250)).circuit()
    items = list(circuit.components.items())[::-1]
    circuit.components.clear()
    circuit.components.update(items)
    oracle.naive(circuit)


def test_optimized_engine_reports_cache_activity():
    """The counters threaded through EngineStats actually move."""
    circuit, _ = generate(SynthConfig(chips=250)).circuit()
    result = TimingVerifier(circuit, OPTIMIZED).verify()
    s = result.stats
    assert s.memo_hits > 0
    assert s.intern_hits > 0
    assert s.prepared_hits + s.prepared_misses > 0
    assert s.max_rank > 0
    assert s.evaluations_saved == s.memo_hits
    assert 0.0 < s.memo_hit_rate < 1.0
    assert 0.0 < s.intern_hit_rate < 1.0
    # The naive engine leaves every optimisation counter untouched.
    naive = TimingVerifier(circuit, NAIVE).verify()
    assert naive.stats.memo_hits == naive.stats.intern_hits == 0
    assert naive.stats.max_rank == 0


def test_levelized_heap_drains_in_rank_order():
    """The initial drain visits components in nondecreasing rank order."""
    circuit, _ = generate(SynthConfig(chips=120)).circuit()
    engine = Engine(circuit, OPTIMIZED)
    engine.initialize(circuit.cases[0] if circuit.cases else {})
    seen: list[int] = []
    n_initial = len(engine._heap)
    for _ in range(n_initial):
        comp = engine._pop()
        assert comp is not None
        seen.append(engine._ranks.get(comp.name, 0))
        engine._queued.discard(comp.name)
    # Popping never goes back down in rank within one wave.
    assert seen == sorted(seen)
