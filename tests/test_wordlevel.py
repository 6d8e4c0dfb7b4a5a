"""Word-level evaluation: WordWave algebra and the bit-blast differential.

The word-level engine must be *undetectable* from the outside: for every
design, its violation report, assumed-stable cross-reference, and verdict
must match the bit-blasted scalar circuit byte-for-byte after canonical
per-bit expansion (``repro.oracle.bitblast``).  These tests pin the
WordWave value type's canonical form, the engine's divergence
bookkeeping, and the differential across the example designs, a
synthetic size x seed matrix, and a hypothesis-driven sweep.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oracle
from repro.constraints import load_constraints
from repro.core.values import CHANGE, ONE, STABLE, ZERO
from repro.core.verifier import TimingVerifier
from repro.core.waveform import Waveform
from repro.core.wordwave import WordWave, lane_groups, word_apply
from repro.hdl.expander import MacroExpander
from repro.netlist import bit_blast
from repro.netlist.bitblast import blast_width
from repro.netlist.circuit import Circuit
from repro.workloads.synth import SynthConfig, generate

PERIOD = 50_000
DESIGNS = Path(__file__).resolve().parent.parent / "examples" / "designs"

#: Every shipped design without constraints, and with its sibling .sdc
#: when it has one.
SHIPPED = [
    pytest.param(path.stem, with_sdc, id=f"{with_sdc}-{path.stem}")
    for path in sorted(DESIGNS.glob("*.scald"))
    for with_sdc in (False, True)
    if not with_sdc or path.with_suffix(".sdc").exists()
]

W_STABLE = Waveform.constant(PERIOD, STABLE)
W_ZERO = Waveform.constant(PERIOD, ZERO)
W_ONE = Waveform.constant(PERIOD, ONE)
W_CHANGE = Waveform.constant(PERIOD, CHANGE)


class TestWordWave:
    def test_uniform_has_no_overrides(self):
        w = WordWave.uniform(32, W_STABLE)
        assert w.is_uniform
        assert w.width == 32
        assert all(w.lane(i) is W_STABLE for i in range(32))

    def test_plurality_base_canonicalization(self):
        # 5 stable lanes, 3 zero lanes: base must be the stable waveform
        # no matter how the list is ordered.
        lanes = [W_ZERO, W_STABLE, W_STABLE, W_ZERO, W_STABLE, W_STABLE,
                 W_ZERO, W_STABLE]
        w = WordWave.from_lanes(lanes)
        assert w.base == W_STABLE
        assert sorted(w.overrides) == [0, 3, 6]
        assert w.lanes() == lanes

    def test_equal_regardless_of_construction(self):
        a = WordWave(4, W_STABLE, {2: W_ZERO})
        b = WordWave.from_lanes([W_STABLE, W_STABLE, W_ZERO, W_STABLE])
        assert a == b
        assert hash(a) == hash(b)

    def test_override_equal_to_base_is_dropped(self):
        w = WordWave(4, W_STABLE, {1: Waveform.constant(PERIOD, STABLE)})
        assert w.is_uniform

    def test_lane_is_modulo_width(self):
        w = WordWave(4, W_STABLE, {1: W_ZERO})
        assert w.lane(5) == W_ZERO  # 5 % 4 == 1, the bit-blast convention
        assert w.lane(4) == W_STABLE

    def test_map_evaluates_once_per_distinct_lane(self):
        w = WordWave(8, W_STABLE, {3: W_ZERO, 5: W_ZERO})
        calls = []

        def invert(wf: Waveform) -> Waveform:
            calls.append(wf)
            return W_ONE if wf == W_ZERO else W_CHANGE

        out = w.map(invert)
        assert len(calls) == 2  # two divergence groups, not eight lanes
        assert out.lane(0) == W_CHANGE and out.lane(3) == W_ONE

    def test_map_recanonicalizes_merged_lanes(self):
        w = WordWave(4, W_STABLE, {2: W_ZERO})
        out = w.map(lambda wf: W_ONE)  # fn merges every lane back together
        assert out.is_uniform and out.base == W_ONE

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            WordWave(0, W_STABLE)

    def test_override_lane_bounds_checked(self):
        with pytest.raises(ValueError):
            WordWave(4, W_STABLE, {4: W_ZERO})

    def test_immutable(self):
        w = WordWave.uniform(2, W_STABLE)
        with pytest.raises(AttributeError):
            w.width = 3


class TestLaneGroups:
    def test_uniform_inputs_one_group(self):
        words = [WordWave.uniform(8, W_STABLE), WordWave.uniform(1, W_ONE)]
        groups = lane_groups(words, 8)
        assert len(groups) == 1
        assert groups[0][0] == list(range(8))

    def test_diverged_lane_splits_group(self):
        words = [WordWave(8, W_STABLE, {5: W_ZERO})]
        groups = lane_groups(words, 8)
        assert len(groups) == 2
        assert [g for g, _k in groups] == [[0, 1, 2, 3, 4, 6, 7], [5]]

    def test_word_apply_matches_per_lane(self):
        a = WordWave(8, W_STABLE, {1: W_ZERO, 6: W_ONE})
        b = WordWave.uniform(2, W_CHANGE)

        def f(x: Waveform, y: Waveform) -> Waveform:
            return x if x == W_ZERO else y

        out = word_apply(f, [a, b])
        assert out.width == 8
        for i in range(8):
            assert out.lane(i) == f(a.lane(i), b.lane(i))


class TestDifferentialExamples:
    @pytest.mark.parametrize("name,with_sdc", SHIPPED)
    def test_examples_byte_identical(self, name, with_sdc):
        circuit = MacroExpander.from_file(str(DESIGNS / f"{name}.scald")).expand()
        constraints = None
        if with_sdc:
            constraints = load_constraints(str(DESIGNS / f"{name}.sdc"), circuit)
        oracle.bitblast(circuit, constraints)

    def test_word_mode_saves_events(self):
        path = DESIGNS / "shifter.scald"
        word, blast = oracle.bitblast(MacroExpander.from_file(str(path)).expand())
        assert blast.stats.events >= 3 * word.stats.events


class TestDifferentialSynthetic:
    @pytest.mark.parametrize(
        "chips,seed",
        [(60, 3), (120, 7), (120, 1980), (250, 7), (60, 1), (200, 7), (500, 1980)],
    )
    def test_synth_matrix_byte_identical(self, chips, seed):
        circuit, _stats = generate(SynthConfig(chips=chips, seed=seed)).circuit()
        word, blast = oracle.bitblast(circuit)
        assert word.ok and blast.ok  # synth designs verify clean
        assert blast.stats.events >= 3 * word.stats.events

    @settings(max_examples=6, deadline=None)
    @given(
        chips=st.integers(min_value=30, max_value=150),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_synth_property(self, chips, seed):
        circuit, _stats = generate(SynthConfig(chips=chips, seed=seed)).circuit()
        oracle.bitblast(circuit)


def _diverged_design() -> Circuit:
    """A vector datapath whose lane case keys force real divergence.

    ``EN [0]`` and ``EN [5]`` are case-pinned to 0, so those lanes of the
    AND output sit at constant 0 while the remaining six lanes carry the
    changing data — the setup/hold checker must report exactly those six
    lanes, lane-suffixed, identically to the blasted twin.
    """
    c = Circuit("wordviol", period_ns=50.0, clock_unit_ns=12.5)
    en = c.net("EN .S0-6", width=8)
    d = c.net("D .C1-2")
    q = c.net("Q", width=8)
    clk = c.net("PHI .P2-3")
    c.gate("AND", q, [d, en], delay=(2.0, 3.0), name="g", width=8)
    c.setup_hold(q, clk, setup=10.0, hold=2.0, name="su", width=8)
    c.add_case_by_name({"EN .S0-6 [0]": 0, "EN .S0-6 [5]": 0})
    return c


class TestDivergedLanes:
    def test_lane_case_violations_byte_identical(self):
        word, _blast = oracle.bitblast(_diverged_design())
        # Six active lanes, one setup + one hold record each.
        assert len(word.violations) == 12
        assert {v.signal for v in word.violations} == {
            f"Q [{i}]" for i in (1, 2, 3, 4, 6, 7)
        }
        assert all(v.component.startswith("su [") for v in word.violations)

    def test_diverged_stats_counters(self):
        word, _blast = oracle.bitblast(_diverged_design())
        s = word.stats
        assert s.lane_splits >= 1
        assert s.vector_events >= 1
        assert s.events >= s.vector_events

    def test_uniform_run_has_no_splits(self):
        circuit, _stats = generate(SynthConfig(chips=60, seed=3)).circuit()
        result = TimingVerifier(circuit).verify()
        assert result.stats.lane_splits == 0
        assert result.stats.vector_events >= 1  # vector nets still store once


class TestBroadcastDrivers:
    """A narrow driver on a wider net broadcasts across every lane."""

    def test_fig_2_5_scalar_mux_broadcasts(self):
        from repro.workloads.figures import fig_2_5_register_file

        word, _blast = oracle.bitblast(fig_2_5_register_file())
        # The word run reproduces the exact Figure 3-11 report: two
        # unsuffixed records, not a per-lane expansion.
        assert [v.component for v in word.violations] == [
            "rf/su addr",
            "out reg/su",
        ]

    def test_blast_width_covers_output_net(self):
        from repro.workloads.figures import fig_2_5_register_file

        circuit = fig_2_5_register_file()
        mux = circuit.components["adr mux"]
        assert mux.width == 1
        assert blast_width(circuit, mux) == 4  # ADR is a 4-bit net
        blasted = bit_blast(circuit)
        assert "adr mux [3]" in blasted.components
        # Every ADR lane is driven; none may be assumed stable.
        result = TimingVerifier(blasted).verify()
        assert not any("ADR [" in x for x in result.xref_assumed_stable)


class TestWordValueAccessor:
    def _engine(self):
        from repro.core.engine import Engine

        circuit = _diverged_design()
        engine = Engine(circuit)
        engine.initialize(circuit.cases[0])
        engine.run()
        return engine

    def test_word_value_exposes_lanes(self):
        engine = self._engine()
        word = engine.word_value("Q")
        assert isinstance(word, WordWave)
        assert word.width == 8
        assert not word.is_uniform
        assert word.lane(0) == word.lane(5)  # the two case-pinned lanes

    def test_scalar_net_is_uniform_word(self):
        engine = self._engine()
        word = engine.word_value("D .C1-2")
        assert word.width == 1 and word.is_uniform


class TestCanonicalExpansion:
    def test_unsuffixed_record_expands_by_blast_width(self):
        from repro.workloads.figures import fig_2_5_register_file

        circuit = fig_2_5_register_file()
        word, blast = oracle.bitblast(circuit)
        lines = oracle.observe(word, circuit).bit_violations
        # 32-wide out reg/su + 4-wide rf/su addr = 36 canonical lines.
        assert len(lines) == 36
        assert lines == oracle.observe(blast, circuit).bit_violations

    def test_xref_expansion_matches(self):
        circuit = _diverged_design()
        word, blast = oracle.bitblast(circuit)
        assert (
            oracle.observe(word, circuit).bit_xref
            == oracle.observe(blast, circuit).bit_xref
        )
