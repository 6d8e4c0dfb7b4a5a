"""Tests for the static analysis package (``repro.sta``).

Three layers: interval-set algebra edge cases (the wraparound axis is
where off-by-ones live), the dataflow passes on hand-built circuits with
known answers, and the enclosure soundness contract — static windows must
contain every engine transition, checked deterministically on a size/seed
matrix and property-style under hypothesis.
"""

import glob
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Circuit, TimingVerifier, VerifyConfig
from repro.constraints import InputDelay, input_delay_spans
from repro.core.timeline import Timebase
from repro.core.violations import ViolationKind
from repro.hdl.assertions import parse_assertion_spec
from repro.hdl.expander import MacroExpander
from repro.lint import LintConfig, lint_circuit
from repro.sta import (
    IntervalSet,
    analyze,
    check_encloses,
    compute_slack,
    compute_windows,
    infer_domains,
)
from repro.sta.slack import TWINS
from repro.sta.windows import assertion_windows, edge_runs, waveform_windows
from repro.workloads import figures
from repro.workloads.synth import SynthConfig, generate

PERIOD = 50_000


def circuit():
    return Circuit("p", period_ns=50.0, clock_unit_ns=6.25)


# ---------------------------------------------------------------------------
# IntervalSet algebra
# ---------------------------------------------------------------------------


class TestIntervalSet:
    def test_empty_is_interned(self):
        a = IntervalSet.empty(PERIOD)
        b = IntervalSet.empty(PERIOD)
        assert a is b
        assert a.is_empty and not a.is_full
        assert a.measure() == 0

    def test_normalization_sorts_and_merges(self):
        s = IntervalSet(PERIOD, ((30_000, 40_000), (10_000, 20_000),
                                 (18_000, 25_000)))
        assert s.spans == ((10_000, 25_000), (30_000, 40_000))

    def test_wraparound_span_is_canonical(self):
        # A span crossing the period boundary keeps lo in [0, period).
        s = IntervalSet(PERIOD, ((45_000, 55_000),))
        assert s.covers(46_000, 48_000)
        assert s.covers(1_000, 4_000)      # the wrapped tail
        assert s.covers(48_000, 52_000)    # across the boundary itself
        assert not s.covers(6_000, 7_000)

    def test_wrap_merge_with_zero_start(self):
        # [45000, 50000) tail meeting [0, 5000] head merges across zero.
        s = IntervalSet(PERIOD, ((45_000, 49_999), (49_999, 55_000),))
        assert len(s.spans) == 1
        assert s.covers(49_000, 51_000)

    def test_full_collapse(self):
        s = IntervalSet(PERIOD, ((0, PERIOD - 1), (PERIOD - 1, PERIOD),))
        assert s.is_full
        assert s.covers(0, PERIOD)
        assert s.measure() == PERIOD

    def test_zero_width_window(self):
        point = IntervalSet(PERIOD, ((12_345, 12_345),))
        assert not point.is_empty
        assert point.measure() == 0
        assert point.covers(12_345, 12_345)
        assert not point.covers(12_345, 12_346)

    def test_zero_width_shift_widens(self):
        point = IntervalSet(PERIOD, ((10_000, 10_000),))
        shifted = point.shift(1_000, 3_000)
        assert shifted.spans == ((11_000, 13_000),)

    def test_shift_wraps(self):
        s = IntervalSet(PERIOD, ((48_000, 49_000),))
        shifted = s.shift(2_000, 4_000)
        assert shifted.covers(0, 3_000)
        assert not shifted.covers(4_000, 5_000)

    def test_shift_zero_is_identity(self):
        s = IntervalSet(PERIOD, ((1, 2),))
        assert s.shift(0, 0) is s

    def test_shift_overflow_to_full(self):
        # Widening by a whole period leaves nowhere uncovered.
        s = IntervalSet(PERIOD, ((0, 1),))
        assert s.shift(0, PERIOD).is_full

    def test_union_and_uncovered(self):
        a = IntervalSet(PERIOD, ((0, 10_000),))
        b = IntervalSet(PERIOD, ((20_000, 30_000),))
        u = a.union(b)
        assert u.spans == ((0, 10_000), (20_000, 30_000))
        assert u.contains_set(a) and u.contains_set(b)
        assert a.uncovered(b) == [(20_000, 30_000)]
        assert u.uncovered(b) == []

    def test_union_noop_returns_self(self):
        a = IntervalSet(PERIOD, ((0, 10_000),))
        assert a.union(IntervalSet.empty(PERIOD)) is a

    def test_mismatched_periods_rejected(self):
        a = IntervalSet(PERIOD, ((0, 1),))
        b = IntervalSet(PERIOD * 2, ((0, 1),))
        with pytest.raises(ValueError):
            a.union(b)


# ---------------------------------------------------------------------------
# dataflow passes on hand-built circuits
# ---------------------------------------------------------------------------


class TestWindows:
    def test_stable_input_has_empty_windows(self):
        c = circuit()
        c.buf("OUT", "A .S0-8", delay=(1.0, 2.0))
        an = compute_windows(c)
        rise, fall = an.by_name("OUT")
        assert rise.is_empty and fall.is_empty

    def test_clock_windows_follow_delay(self):
        c = circuit()
        c.buf("OUT", "CK .P2-3", delay=(1.0, 2.0))
        an = compute_windows(c)
        ck_r, _ = an.by_name("CK .P2-3")
        out_r, _ = an.by_name("OUT")
        # Delayed by [1000, 2000] ps (plus the engine's 1 ps edge paint).
        assert not out_r.is_empty
        lo, hi = ck_r.spans[0]
        assert out_r.covers(lo + 1_000, hi + 2_000)

    def test_feedback_widens_to_full_period(self):
        c = circuit()
        c.gate("NOR", "Q", ["R .S0-6", "QB"], delay=(1.0, 2.0), name="g1")
        c.gate("NOR", "QB", ["S .S0-6", "Q"], delay=(1.0, 2.0), name="g2")
        an = compute_windows(c)
        assert an.feedback, "cross-coupled gates must be reported as a cut"
        for net_name in ("Q", "QB"):
            rise, fall = an.by_name(net_name)
            assert rise.is_full and fall.is_full
        cut_nets = {cut.net for cut in an.feedback}
        assert cut_nets == {"Q", "QB"}

    def test_register_cuts_feedback(self):
        # A registered loop is not combinational feedback: no cuts.
        c = circuit()
        c.reg("Q", clock="CK .P2-3", data="D", delay=(1.0, 2.0))
        c.gate("NOT", "D", ["Q"], delay=(1.0, 2.0))
        an = compute_windows(c)
        assert not an.feedback
        rise, fall = an.by_name("Q")
        assert not rise.is_full


#: Absolute widths and skews for random assertions.
_WIDTH_NS = st.integers(1, 240).map(lambda h: h / 2)
_SKEW_NS = st.integers(0, 20).map(lambda h: h / 2)


def _fmt(x: float) -> str:
    return f"{x:g}"


@st.composite
def _assertion_specs(draw, kinds="PCS"):
    """``(kind letter, spec text, clock units per period)``: 1-3 ranges in
    every form (``t``, ``t1-t2`` either way round, ``t+width``) at times
    within the cycle, optional explicit skew and ``L``."""
    units = draw(st.sampled_from([4, 8, 10, 16]))
    times = st.integers(0, 4 * units).map(lambda q: _fmt(q / 4))
    ranges = []
    for _ in range(draw(st.integers(1, 3))):
        start = draw(times)
        form = draw(st.sampled_from(["time", "range", "width"]))
        if form == "time":
            ranges.append(start)
        elif form == "range":
            ranges.append(f"{start}-{draw(times)}")
        else:
            ranges.append(f"{start}+{_fmt(draw(_WIDTH_NS))}")
    spec = ",".join(ranges)
    if draw(st.booleans()):
        spec += f"(-{_fmt(draw(_SKEW_NS))},{_fmt(draw(_SKEW_NS))})"
    if draw(st.booleans()):
        spec += " L"
    return draw(st.sampled_from(kinds)), spec, units


def _timebase(period_ps: int, units_per_period: int) -> Timebase:
    return Timebase(period_ps, Fraction(period_ps, units_per_period))


class TestSourceWindows:
    """One builder gives the fixed-source windows of the concrete pass, the
    parametric pass and the engine's input delays.  It works on the
    asserted spans alone; the waveform route it replaced stays here as the
    independent reference."""

    @settings(max_examples=400, deadline=None)
    @given(spec=_assertion_specs(), period=st.integers(200, 120_000))
    def test_assertion_windows_equal_the_waveform_route(self, spec, period):
        kind, text, units = spec
        assertion = parse_assertion_spec(kind, text)
        timebase = _timebase(period, units)
        config = VerifyConfig()
        skew = config.clock_skew_ns(kind == "P")
        assert assertion_windows(assertion, timebase, config) == (
            waveform_windows(assertion.waveform(timebase, skew))
        )

    @settings(max_examples=400, deadline=None)
    @given(
        spec=_assertion_specs(kinds="PC"),
        period=st.integers(200, 120_000),
        min_ps=st.integers(0, 40_000),
        extra_ps=st.integers(0, 40_000),
    )
    def test_input_delay_spans_shift_the_rising_windows(
        self, spec, period, min_ps, extra_ps
    ):
        kind, text, units = spec
        clock = f"CK .{kind}{text}"
        c = circuit()
        c.buf("OUT", clock)
        assertion = c.find(c.nets[clock]).assertion
        timebase = _timebase(period, units)
        config = VerifyConfig()
        wf = assertion.waveform(timebase, config.clock_skew_ns(kind == "P"))
        delay = InputDelay("PORT", clock, min_ps, min_ps + extra_ps)
        assert input_delay_spans(delay, c, config, timebase) == [
            (r0 + min_ps, r1 + min_ps + extra_ps)
            for r0, r1 in wf.rising_windows()
        ]


def _set(*spans):
    return IntervalSet(PERIOD, spans)


class TestEdgeRuns:
    """``edge_runs`` is the one static reading of a clock's edges: where
    skew makes a rise and a fall window touch or overlap, a clocked reader
    sees both edges anywhere in the run, as the engine's readers do."""

    def test_disjoint_windows_pass_through(self):
        rise, fall = _set((1_000, 3_000)), _set((7_000, 9_000))
        runs = edge_runs(rise, fall)
        assert runs[0] is rise and runs[1] is fall

    def test_overlapping_windows_are_one_edge_window(self):
        rise, fall = _set((7_500, 17_500)), _set((13_750, 23_750))
        run = _set((7_500, 23_750))
        assert edge_runs(rise, fall) == (run, run)

    def test_a_run_holds_only_the_edges_inside_it(self):
        rise = _set((0, 10_000), (30_000, 40_000))
        fall = _set((8_000, 20_000))
        assert edge_runs(rise, fall) == (
            _set((0, 20_000), (30_000, 40_000)),
            _set((0, 20_000)),
        )

    def test_wrapping_and_full_runs(self):
        rise, fall = _set((45_000, 52_000)), _set((1_000, 4_000))
        run = _set((45_000, 54_000))
        assert edge_runs(rise, fall) == (run, run)
        full = IntervalSet.everywhere(PERIOD)
        assert edge_runs(_set((0, 30_000)), _set((25_000, 50_000))) == (
            full, full,
        )
        empty = IntervalSet.empty(PERIOD)
        assert edge_runs(full, empty) == (full, empty)

    @settings(max_examples=400, deadline=None)
    @given(spec=_assertion_specs(kinds="PC"), period=st.integers(200, 120_000))
    def test_clock_assertions_read_like_the_engine(self, spec, period):
        kind, text, units = spec
        assertion = parse_assertion_spec(kind, text)
        timebase = _timebase(period, units)
        config = VerifyConfig()
        wf = assertion.waveform(timebase, config.clock_skew_ns(kind == "P"))
        assert edge_runs(*assertion_windows(assertion, timebase, config)) == (
            IntervalSet(period, wf.rising_windows()),
            IntervalSet(period, wf.falling_windows()),
        )

    def test_memoized_per_analysis(self):
        c = circuit()
        c.setup_hold("D .S0-4", "CK .C2-3", setup=2.5, hold=1.5)
        a, b = compute_windows(c), compute_windows(c)
        pair = a.by_name("CK .C2-3")
        assert a.edge_runs(*pair) is a.edge_runs(*pair)
        assert b.edge_runs(*pair) is not a.edge_runs(*pair)


SKEWED = "tests/fixtures/skewed_clock.scald"


class TestSkewedClock:
    """The fixture's clock rise and fall windows overlap: the checker's
    guard spans the whole run, as the engine's does."""

    def test_static_slack_sees_the_whole_run(self):
        c = MacroExpander.from_file(SKEWED).expand()
        a = analyze(c)
        (rec,) = a.slack
        assert rec.slack_ps == -2_250 and not a.ok
        result = TimingVerifier(c).verify()
        assert sorted(result.margins.values()) == [-22_250, -2_250]
        assert max(result.margins.values()) >= rec.slack_ps
        assert check_encloses(result, a.windows, a.slack).ok

    def test_scald_sta_reports_negative_slack(self, capsys):
        from repro.sta.cli import main

        assert main([SKEWED]) == 1
        out = capsys.readouterr().out
        assert "su                   D .S0-4 vs CK .C2-3: -2.2 ns" in out
        assert "statically clean" not in out


#: Designs whose engine run files every kind of violation between them.
_EVERY_KIND = """\
design EVERYKIND;
period 50 ns;
clock_unit 6.25 ns;

prim "SETUP HOLD CHK" su (I="D .S0-4", CK="CK .C2-3") setup=2.5 hold=1.5;
prim "SETUP RISE HOLD FALL CHK" srhf (I="D .S0-4", CK="CK .P3-5")
     setup=1.0 hold=1.0;
prim AND dead (I1="CK .P2-3", I2="GND", OUT="DEAD") delay=1.0:2.0;
prim "SETUP HOLD CHK" nc (I="D .S0-4", CK="DEAD") setup=1.0 hold=1.0;
prim "MIN PULSE WIDTH" mpw (I="CK .P2-3") min_high=8.0 min_low=48.0;
prim BUF late (I="D .S0-6", OUT="Q .S0-4") delay=10.0:12.0;
"""


def _every_kind_designs():
    """``(circuit, constraints, config)`` of each design in turn."""
    from repro.constraints import parse_sdc, resolve

    def sdc(c, text):
        commands, _ = parse_sdc(text)
        return resolve(commands, c)

    yield MacroExpander.from_source(_EVERY_KIND).expand(), None, None
    yield figures.fig_1_5_gated_clock(), None, None
    yield figures.fig_1_5_gated_clock(True), None, None
    c = MacroExpander.from_file("examples/designs/recovery.scald").expand()
    yield c, sdc(c, 'create_clock -period 50 -name CK "MAIN CLK .P2-3"\n'
                    "set_recovery 12 hold\nset_removal 30 hold\n"), None
    c = circuit()
    c.buf("D", "DIN .S0-6", delay=(14.0, 16.0))
    c.latch("Q", "EN .P2-3", "D", delay=(1.0, 2.0), name="lat")
    yield c, sdc(c, "set_max_time_borrow 1 lat"), VerifyConfig(
        default_wire_delay_ns=(0.0, 0.0)
    )
    c = circuit()
    c.reg("Q", "CK .P2-3", "D .S0-6", delay=(1.0, 2.0), name="r")
    yield c, sdc(c, 'create_clock -period 50 -name CK "CK .P2-3"\n'
                    "set_output_delay 5 -max -clock CK Q\n"
                    "set_output_delay 1 -min -clock CK Q\n"), None


class TestTwinTable:
    """``slack.TWINS`` states once which static record kinds bound each
    engine check; an empty row means the check has no static twin."""

    def test_every_violation_kind_has_a_row(self):
        assert set(TWINS) == set(ViolationKind)
        record_kinds = {"setup-hold", "output", "recovery", "removal", "borrow"}
        assert set().union(*TWINS.values()) == record_kinds

    def test_every_filed_check_has_its_row(self):
        """Whatever the engine's checkers file: a check with a twin meets
        a record of a kind in its row at the same (component, signal) that
        claims no positive slack; each check without one counts toward the
        static passes' ``indeterminate``."""
        seen = set()
        for c, constraints, config in _every_kind_designs():
            result = TimingVerifier(c, config, constraints=constraints).verify()
            a = analyze(c, config, constraints=constraints)
            twinless = set()
            for v in result.violations:
                seen.add(v.kind)
                if not TWINS[v.kind]:
                    twinless.add((v.component, v.signal))
                    continue
                twins = [
                    r
                    for r in a.slack
                    if (r.component, r.signal) == (v.component, v.signal)
                    and r.kind in TWINS[v.kind]
                ]
                assert twins, v
                assert all(not r.slack_ps or r.slack_ps <= 0 for r in twins)
            assert len(twinless) <= a.indeterminate(), twinless
        assert seen == set(ViolationKind)


class TestDomains:
    def test_single_domain(self):
        c = circuit()
        c.reg("Q", clock="CK .P2-3", data="D .S0-6", delay=(1.0, 2.0))
        dom = infer_domains(c, compute_windows(c))
        assert [r.net for r in dom.roots] == ["CK .P2-3"]
        (entry,) = dom.storage
        assert entry.roots == frozenset({"CK .P2-3"})
        assert not (entry.gated or entry.convergent or entry.unclocked)
        assert dom.crossings == []

    def test_gated_and_convergent_clock(self):
        c = circuit()
        c.gate("AND", "GCK", ["CK .P2-3", "EN .S0-8"], delay=(1.0, 2.0))
        c.reg("Q1", clock="GCK", data="D .S0-6", name="r1")
        c.gate("OR", "MCK", ["CK .P2-3", "CK2 .P4-5"], delay=(1.0, 2.0))
        c.reg("Q2", clock="MCK", data="D .S0-6", name="r2")
        dom = infer_domains(c, compute_windows(c))
        r1 = dom.of_component("r1")
        assert r1.gated and not r1.convergent
        r2 = dom.of_component("r2")
        assert r2.convergent and r2.roots == frozenset(
            {"CK .P2-3", "CK2 .P4-5"}
        )

    def test_unclocked_storage(self):
        c = circuit()
        c.reg("Q", clock="TIED", data="D .S0-6", name="r")
        c.net("TIED")  # undriven, unasserted: statically quiet
        dom = infer_domains(c, compute_windows(c))
        assert dom.of_component("r").unclocked

    def test_crossing_without_synchronizer(self):
        c = circuit()
        c.reg("Q1", clock="CKA .P2-3", data="D .S0-6", name="ra")
        c.reg("Q2", clock="CKB .P4-5", data="Q1", name="rb")
        c.gate("NOT", "OUT", ["Q2"])  # combinational consumer: not a sync
        dom = infer_domains(c, compute_windows(c))
        (crossing,) = dom.crossings
        assert crossing.component == "rb"
        assert crossing.foreign_roots == frozenset({"CKA .P2-3"})
        assert not crossing.synchronized

    def test_crossing_through_logic(self):
        c = circuit()
        c.reg("Q1", clock="CKA .P2-3", data="D .S0-6", name="ra")
        c.gate("AND", "M", ["Q1", "EN .S0-8"])
        c.reg("Q2", clock="CKB .P4-5", data="M", name="rb")
        dom = infer_domains(c, compute_windows(c))
        assert [x.component for x in dom.crossings] == ["rb"]

    def test_two_flop_synchronizer_is_demoted(self):
        c = circuit()
        c.reg("Q1", clock="CKA .P2-3", data="D .S0-6", name="ra")
        c.reg("Q2", clock="CKB .P4-5", data="Q1", name="sync1")
        c.reg("Q3", clock="CKB .P4-5", data="Q2", name="sync2")
        dom = infer_domains(c, compute_windows(c))
        (crossing,) = dom.crossings
        assert crossing.component == "sync1"
        assert crossing.synchronized


class TestSlack:
    def test_positive_slack_on_shifter(self):
        c = MacroExpander.from_file("examples/designs/shifter.scald").expand()
        records = compute_slack(c, compute_windows(c))
        assert records and all(r.ok for r in records)
        assert min(r.slack_ps for r in records) == 400

    def test_stable_data_never_negative(self):
        c = circuit()
        c.setup_hold("D .S0-8", "CK .P2-3", setup=5.0, hold=2.0)
        (rec,) = compute_slack(c, compute_windows(c))
        assert rec.slack_ps is not None and rec.slack_ps >= 0

    def test_changing_data_in_guard_is_negative(self):
        # Data is the clock itself through a small delay: it always
        # changes inside its own setup/hold guard.
        c = circuit()
        c.buf("D", "CK .P2-3", delay=(0.5, 1.0))
        c.setup_hold("D", "CK .P2-3", setup=5.0, hold=5.0)
        (rec,) = compute_slack(c, compute_windows(c))
        assert rec.slack_ps is not None and rec.slack_ps < 0

    def test_no_clock_edge(self):
        c = circuit()
        c.setup_hold("D .S0-6", "QUIET .S0-8", setup=5.0, hold=2.0)
        (rec,) = compute_slack(c, compute_windows(c))
        assert rec.no_edge and rec.slack_ps is None

    def test_overflow_at_feedback(self):
        c = circuit()
        c.gate("NOR", "Q", ["R .S0-6", "QB"], delay=(1.0, 2.0))
        c.gate("NOR", "QB", ["S .S0-6", "Q"], delay=(1.0, 2.0))
        c.setup_hold("Q", "CK .P2-3", setup=5.0, hold=2.0)
        (rec,) = compute_slack(c, compute_windows(c))
        assert rec.overflow and rec.slack_ps is None


# ---------------------------------------------------------------------------
# the sta.* lint rule family
# ---------------------------------------------------------------------------


def _rules_fired(c, *rule_ids):
    config = LintConfig(selected=frozenset(rule_ids))
    return [d.rule for d in lint_circuit(c, config).diagnostics]


class TestStaRules:
    def test_negative_slack_rule(self):
        c = circuit()
        c.buf("D", "CK .P2-3", delay=(0.5, 1.0))
        c.setup_hold("D", "CK .P2-3", setup=5.0, hold=5.0)
        assert _rules_fired(c, "sta.negative-slack") == ["sta.negative-slack"]

    def test_cdc_rule_skips_synchronizers(self):
        unsync = circuit()
        unsync.reg("Q1", clock="CKA .P2-3", data="D .S0-6", name="ra")
        unsync.reg("Q2", clock="CKB .P4-5", data="Q1", name="rb")
        unsync.gate("NOT", "OUT", ["Q2"])
        assert _rules_fired(unsync, "sta.clock-domain-crossing") == [
            "sta.clock-domain-crossing"
        ]

        synced = circuit()
        synced.reg("Q1", clock="CKA .P2-3", data="D .S0-6", name="ra")
        synced.reg("Q2", clock="CKB .P4-5", data="Q1", name="sync1")
        synced.reg("Q3", clock="CKB .P4-5", data="Q2", name="sync2")
        assert _rules_fired(synced, "sta.clock-domain-crossing") == []

    def test_unclocked_storage_rule(self):
        c = circuit()
        c.reg("Q", clock="TIED", data="D .S0-6", name="r")
        c.net("TIED")
        assert _rules_fired(c, "sta.unclocked-storage") == [
            "sta.unclocked-storage"
        ]

    def test_window_overflow_rule(self):
        c = circuit()
        c.gate("NOR", "Q", ["R .S0-6", "QB"], delay=(1.0, 2.0))
        c.gate("NOR", "QB", ["S .S0-6", "Q"], delay=(1.0, 2.0))
        fired = _rules_fired(c, "sta.window-overflow")
        assert fired == ["sta.window-overflow"] * len(fired) and fired

    def test_fmax_rule_flags_cdc_binding_path(self):
        # The Fmax-binding check guards Q1, which crosses CKA -> CKB with
        # no synchronizer: the period bound rests on an async hand-off.
        c = circuit()
        c.reg("Q1", clock="CKA .P2-3", data="D .S0-6", name="ra")
        c.reg("Q2", clock="CKB .P4-5", data="Q1", name="rb")
        c.setup_hold("Q1", "CKB .P4-5", setup=3.0, hold=1.0, name="su")
        fired = _rules_fired(c, "sta.fmax")
        assert fired == ["sta.fmax"]

    def test_fmax_rule_quiet_on_clocked_binding_path(self):
        # Same shape, one domain: period-limited but the binding path ends
        # on the clock assertion — nothing to flag.
        c = circuit()
        c.reg("Q1", clock="CK .P2-3", data="D .S0-6", name="ra")
        c.setup_hold("Q1", "CK .P2-3", setup=3.0, hold=1.0, name="su")
        assert _rules_fired(c, "sta.fmax") == []

    def test_witness_trace_unknown_signal_is_unconstrained(self):
        from repro.sta.parametric import trace_witness
        from repro.sta.slack import SlackRecord

        c = circuit()
        c.reg("Q", clock="CK .P2-3", data="D .S0-6", name="r")
        ghost = SlackRecord(
            component="x/su", prim="SETUP HOLD CHK", signal="NO SUCH NET",
            clock="CK .P2-3", setup_ps=0, hold_ps=0, slack_ps=-1,
            no_edge=False, overflow=False, origin=None,
        )
        hops, terminal = trace_witness(c, None, None, 50_000, ghost)
        assert hops == [] and terminal == "unconstrained"

    def test_shifter_stays_clean(self):
        c = MacroExpander.from_file("examples/designs/shifter.scald").expand()
        config = LintConfig(
            selected=frozenset(
                {
                    "sta.negative-slack",
                    "sta.clock-domain-crossing",
                    "sta.unclocked-storage",
                    "sta.window-overflow",
                    "sta.fmax",
                }
            )
        )
        assert lint_circuit(c, config).diagnostics == ()


# ---------------------------------------------------------------------------
# enclosure soundness: engine transitions inside static windows
# ---------------------------------------------------------------------------


def _assert_enclosed(c, config=None):
    result = TimingVerifier(c, config).verify()
    analysis = compute_windows(c, config)
    cc = check_encloses(result, analysis)
    assert cc.ok, cc.failures[:5]
    return cc


class TestEnclosure:
    @pytest.mark.parametrize("chips", [60, 200, 500])
    @pytest.mark.parametrize("seed", [1, 7, 1980])
    def test_synth_matrix(self, chips, seed):
        c, _ = generate(SynthConfig(chips=chips, seed=seed)).circuit()
        cc = _assert_enclosed(c)
        assert cc.nets_checked > 0

    def test_examples_designs(self):
        for path in sorted(glob.glob("examples/designs/*.scald")):
            c = MacroExpander.from_file(path).expand()
            cc = _assert_enclosed(c)
            assert cc.cases_checked == max(1, len(c.cases))

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: figures.fig_1_5_gated_clock(False),
            lambda: figures.fig_1_5_gated_clock(True),
            figures.fig_2_5_register_file,
            lambda: figures.fig_2_6_case_analysis(True),
            lambda: figures.fig_2_6_case_analysis(False),
            figures.fig_3_12_alu_datapath,
            lambda: figures.fig_4_1_correlation(False),
            lambda: figures.fig_4_1_correlation(True),
        ],
        ids=[
            "fig_1_5", "fig_1_5_directive", "fig_2_5", "fig_2_6",
            "fig_2_6_one_case", "fig_3_12", "fig_4_1", "fig_4_1_corr",
        ],
    )
    def test_figures_with_verdicts(self, builder):
        """Every thesis figure in each variant its flag gives: the windows
        enclose the engine, and no positive static slack meets an engine
        violation of a check it bounds."""
        c = builder()
        result = TimingVerifier(c).verify()
        a = analyze(c)
        cc = check_encloses(result, a.windows, a.slack)
        assert cc.ok, (cc.failures[:3], cc.verdict_failures[:3])

    def test_feedback_design_is_enclosed(self):
        # Widened-to-full windows trivially enclose whatever oscillation
        # the engine settles on — but the path must not crash.
        c = circuit()
        c.gate("NOR", "Q", ["R .S0-6", "QB"], delay=(1.0, 2.0))
        c.gate("NOR", "QB", ["S .S0-6", "Q"], delay=(1.0, 2.0))
        result = TimingVerifier(c).verify()
        assert check_encloses(result, compute_windows(c)).ok

    @settings(max_examples=10, deadline=None)
    @given(
        chips=st.integers(min_value=40, max_value=150),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_random_synth(self, chips, seed):
        c, _ = generate(SynthConfig(chips=chips, seed=seed)).circuit()
        _assert_enclosed(c)

    @settings(max_examples=8, deadline=None)
    @given(
        chips=st.integers(min_value=40, max_value=120),
        seed=st.integers(min_value=0, max_value=5_000),
        data=st.data(),
    )
    def test_property_constrained_enclosure(self, chips, seed, data):
        """A random valid ConstraintSet keeps static enclosing the engine.

        Constraints tighten (uncertainty), relax (multicycle), shift
        (latency) or waive (false path) individual checks — but always
        identically in both analyses, so the enclosure AND the per-check
        verdict contract must survive any mix of them.
        """
        from repro.constraints.resolve import CheckerMods, ConstraintSet

        c, _ = generate(SynthConfig(chips=chips, seed=seed)).circuit()
        checkers = sorted(
            comp.name
            for comp in c.iter_components()
            if comp.prim.name in (
                "SETUP_HOLD_CHK", "SETUP_RISE_HOLD_FALL_CHK",
            )
        )[:8]
        mods = {}
        for name in checkers:
            if not data.draw(st.booleans(), label=f"constrain {name}"):
                continue
            mods[name] = CheckerMods(
                setup_cycles=data.draw(
                    st.integers(1, 3), label=f"{name} setup_cycles"
                ),
                hold_cycles=data.draw(
                    st.integers(0, 1), label=f"{name} hold_cycles"
                ),
                uncertainty_ps=data.draw(
                    st.integers(0, 2_000), label=f"{name} uncertainty"
                ),
                clock_shift_ps=data.draw(
                    st.integers(0, 1_000), label=f"{name} latency"
                ),
                waived=data.draw(st.booleans(), label=f"{name} waived"),
            )
        cs = ConstraintSet(
            path="<property>", period_ps=c.period_ps, checker_mods=mods
        )
        result = TimingVerifier(c, constraints=cs).verify()
        analysis = compute_windows(c, constraints=cs)
        slack = compute_slack(c, analysis, constraints=cs)
        cc = check_encloses(result, analysis, slack=slack)
        assert cc.ok, (cc.failures[:3], cc.verdict_failures[:3])


# ---------------------------------------------------------------------------
# surfaces: analyze facade, scald-sta CLI, scald-tv --crosscheck
# ---------------------------------------------------------------------------


class TestSurfaces:
    def test_analyze_facade(self):
        c = MacroExpander.from_file("examples/designs/shifter.scald").expand()
        a = analyze(c)
        assert a.ok
        assert len(a.domains.storage) == 2
        assert len(a.slack) == 2
        assert a.windows.period == c.period_ps

    def test_scald_sta_text(self, capsys):
        from repro.sta.cli import main

        assert main(["examples/designs/shifter.scald"]) == 0
        out = capsys.readouterr().out
        assert "STATIC TIMING ANALYSIS" in out
        assert "statically clean" in out

    def test_scald_sta_json(self, capsys):
        from repro.sta.cli import main

        assert main(["examples/designs/shifter.scald", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["period_ps"] == 50_000
        assert {s["component"] for s in doc["slack"]} == {
            "inreg/su", "outreg/su",
        }

    def test_scald_sta_usage_errors(self, capsys):
        from repro.sta.cli import main

        assert main([]) == 2
        assert main(["/nonexistent/x.scald"]) == 2

    def test_scald_tv_crosscheck(self, capsys):
        """Every shipped design, with and without its sibling .sdc, and
        the pulse-width and skewed-clock fixtures: the static windows
        enclose the engine's transitions, and each shipped design verifies
        clean under its constraints."""
        from repro.cli import main

        fixtures = ["tests/fixtures/pulse_width.scald", SKEWED]
        for path in sorted(glob.glob("examples/designs/*.scald")) + fixtures:
            sdc = path.removesuffix(".scald") + ".sdc"
            runs = [[path]] + ([[path, "--sdc", sdc]] if Path(sdc).exists() else [])
            for argv in runs:
                rc = main([*argv, "--crosscheck"])
                out = capsys.readouterr().out
                assert "crosscheck: static windows enclose" in out, argv
                assert "crosscheck FAILED" not in out, argv
                clean = "No setup, hold or minimum pulse width errors" in out
                assert rc == (0 if clean else 1), argv
                assert clean or "--sdc" not in argv, argv


# ---------------------------------------------------------------------------
# satellites: lint --select, JSON envelope, naive-profile rendering
# ---------------------------------------------------------------------------


class TestLintSelect:
    def test_select_runs_only_named_rules(self):
        c = circuit()
        c.buf("D", "CK .P2-3", delay=(0.5, 1.0))
        c.setup_hold("D", "CK .P2-3", setup=5.0, hold=5.0)
        all_diags = lint_circuit(c).diagnostics
        picked = lint_circuit(
            c, LintConfig(selected=frozenset({"sta.negative-slack"}))
        ).diagnostics
        assert {d.rule for d in picked} == {"sta.negative-slack"}
        assert len(picked) <= len(all_diags)

    def test_disable_wins_over_select(self):
        c = circuit()
        c.buf("D", "CK .P2-3", delay=(0.5, 1.0))
        c.setup_hold("D", "CK .P2-3", setup=5.0, hold=5.0)
        config = LintConfig(
            selected=frozenset({"sta.negative-slack"}),
            disabled=frozenset({"sta.negative-slack"}),
        )
        assert lint_circuit(c, config).diagnostics == ()

    def test_cli_select_unknown_rule_exits_2(self, capsys):
        from repro.lint.cli import main

        code = main(
            ["examples/designs/shifter.scald", "--select", "no-such-rule"]
        )
        assert code == 2
        assert "unknown rule(s): no-such-rule" in capsys.readouterr().err

    def test_cli_disable_unknown_rule_exits_2(self, capsys):
        from repro.lint.cli import main

        code = main(
            ["examples/designs/shifter.scald", "--disable", "nope,dead-net"]
        )
        assert code == 2
        assert "unknown rule(s): nope" in capsys.readouterr().err

    def test_cli_select_known_rule_runs(self, capsys):
        from repro.lint.cli import main

        code = main(["examples/designs/shifter.scald", "--select", "dead-net"])
        assert code == 0
        assert "dead-net" in capsys.readouterr().out


class TestLintJsonEnvelope:
    def test_summary_fields(self, capsys):
        from repro.lint.cli import main

        assert main(["examples/designs/shifter.scald", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        summary = doc["summary"]
        for key in ("errors", "warnings", "infos", "total", "suppressed"):
            assert key in summary
        assert summary["total"] == (
            summary["errors"] + summary["warnings"] + summary["infos"]
        )

    def test_suppressed_count(self):
        from repro.lint import lint_source

        src = (
            "design T;\n"
            "period 50 ns;\n"
            "clock_unit 6.25 ns;\n"
            "-- lint: disable=dead-net\n"
            'prim BUF b (I="CK .P2-3", OUT="UNUSED") delay=1:2;\n'
        )
        result = lint_source(src, "t.scald")
        assert all(d.rule != "dead-net" for d in result.diagnostics)
        assert result.suppressed >= 1


class TestNaiveProfile:
    def test_disabled_caches_report_disabled(self):
        from repro.reporting.stats import profile_json, profile_report

        c = MacroExpander.from_file("examples/designs/shifter.scald").expand()
        res = TimingVerifier(c, VerifyConfig().naive()).verify()
        caches = profile_json(res)["caches"]
        assert caches["memo_hit_rate"] == "disabled"
        assert caches["intern_hit_rate"] == "disabled"
        assert caches["prepared_hit_rate"] == "disabled"
        text = profile_report(res)
        assert "evaluation memo: disabled" in text
        assert "0%" not in text.split("evaluation memo")[1]

    def test_enabled_caches_stay_numeric(self):
        from repro.reporting.stats import profile_json

        c = MacroExpander.from_file("examples/designs/shifter.scald").expand()
        res = TimingVerifier(c).verify()
        caches = profile_json(res)["caches"]
        assert isinstance(caches["memo_hit_rate"], float)
        assert isinstance(caches["intern_hit_rate"], float)
