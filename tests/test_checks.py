"""Tests for the constraint checkers (sections 2.4.4, 2.4.5, 2.6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checks import (
    check_gating_stability,
    check_min_pulse_width,
    check_setup_hold,
    check_setup_hold_windows,
    check_setup_rise_hold_fall,
    check_stable_assertion,
)
from repro.core.timeline import ns_to_ps
from repro.core.values import CHANGE, ONE, STABLE, UNKNOWN, ZERO
from repro.core.violations import ViolationKind
from repro.core.waveform import Waveform

P = 50_000


def clk(high=(20_000, 30_000), skew=(0, 0)):
    return Waveform.from_intervals(P, ZERO, [(*high, ONE)], skew=skew)


def stable_between(start, end):
    return Waveform.from_intervals(P, CHANGE, [(start, end, STABLE)])


class TestSetupHold:
    def test_clean_passes(self):
        v = check_setup_hold(
            "chk", "D", stable_between(10_000, 40_000), "CK", clk(),
            setup_ps=5_000, hold_ps=3_000,
        )
        assert v == []

    def test_setup_violation_amount(self):
        """Figure 3-11's arithmetic: data stable at 47.5 ns, clock rising at
        49.0 ns, setup 2.5 ns — missed by 1.0 ns."""
        data = stable_between(47_500, 47_500 + 40_000)
        v = check_setup_hold(
            "chk", "D", data, "CK", clk(high=(49_000, 49_500)),
            setup_ps=2_500, hold_ps=0,
        )
        assert len(v) == 1
        assert v[0].kind is ViolationKind.SETUP
        assert v[0].missed_by_ps == 1_000

    def test_setup_missed_by_full_amount(self):
        """First Figure 3-11 message: data stable exactly when the clock
        starts rising misses the whole 3.5 ns setup interval."""
        data = stable_between(11_500, 11_500 + 30_000)
        v = check_setup_hold(
            "chk", "D", data, "CK", clk(high=(11_500, 20_000)),
            setup_ps=3_500, hold_ps=0,
        )
        assert len(v) == 1
        assert v[0].missed_by_ps == 3_500

    def test_hold_violation(self):
        data = stable_between(10_000, 21_000)  # changes 1 us after the edge
        v = check_setup_hold(
            "chk", "D", data, "CK", clk(), setup_ps=2_000, hold_ps=3_000,
        )
        assert len(v) == 1
        assert v[0].kind is ViolationKind.HOLD
        assert v[0].missed_by_ps == 2_000  # required until 23, changed at 21

    def test_both_violations(self):
        data = stable_between(19_500, 20_500)
        v = check_setup_hold(
            "chk", "D", data, "CK", clk(), setup_ps=2_000, hold_ps=2_000,
        )
        kinds = {x.kind for x in v}
        assert kinds == {ViolationKind.SETUP, ViolationKind.HOLD}

    def test_clock_skew_tightens_check(self):
        """With ±1 ns clock skew the stable requirement spans the whole
        edge window."""
        data = stable_between(18_500, 40_000)  # fine for a sharp clock
        assert check_setup_hold(
            "chk", "D", data, "CK", clk(), setup_ps=1_000, hold_ps=1_000
        ) == []
        v = check_setup_hold(
            "chk", "D", data, "CK", clk(skew=(-1_000, 1_000)),
            setup_ps=1_000, hold_ps=1_000,
        )
        assert len(v) == 1 and v[0].kind is ViolationKind.SETUP

    def test_unknown_signals_skipped(self):
        u = Waveform.constant(P, UNKNOWN)
        assert check_setup_hold("c", "D", u, "CK", clk(), 1, 1) == []
        assert check_setup_hold("c", "D", stable_between(0, P), "CK", u, 1, 1) == []

    def test_no_clock_edge_reported(self):
        v = check_setup_hold(
            "chk", "D", stable_between(0, P), "CK",
            Waveform.constant(P, ZERO), setup_ps=1_000, hold_ps=1_000,
        )
        assert len(v) == 1
        assert v[0].kind is ViolationKind.NO_CLOCK_EDGE

    def test_every_edge_checked(self):
        two_phase = Waveform.from_intervals(
            P, ZERO, [(10_000, 15_000, ONE), (35_000, 40_000, ONE)]
        )
        data = stable_between(5_000, 30_000)  # unstable around second edge
        v = check_setup_hold(
            "chk", "D", data, "CK", two_phase, setup_ps=2_000, hold_ps=2_000
        )
        assert len(v) == 2  # setup and hold on the 35 ns edge

    def test_negative_hold_allowed(self):
        """Figure 3-5 checks a hold time of -1.0 ns (stability may end
        before the edge completes)."""
        data = stable_between(10_000, 19_500)
        v = check_setup_hold(
            "chk", "D", data, "CK", clk(), setup_ps=5_000, hold_ps=-1_000,
        )
        assert v == []


class TestSetupRiseHoldFall:
    def test_stable_through_pulse_passes(self):
        data = stable_between(10_000, 40_000)
        assert check_setup_rise_hold_fall(
            "chk", "A", data, "WE", clk(), setup_ps=3_500, hold_ps=1_000
        ) == []

    def test_change_while_true_detected(self):
        """The address lines must be stable the whole time write-enable is
        high (Figure 3-5's SETUP RISE HOLD FALL CHK)."""
        data = Waveform.from_intervals(P, STABLE, [(24_000, 26_000, CHANGE)])
        v = check_setup_rise_hold_fall(
            "chk", "A", data, "WE", clk(), setup_ps=1_000, hold_ps=1_000
        )
        assert len(v) == 1
        assert v[0].kind is ViolationKind.STABLE_WHILE_TRUE

    def test_hold_after_falling_edge(self):
        data = stable_between(10_000, 30_500)  # changes 0.5 ns after fall
        v = check_setup_rise_hold_fall(
            "chk", "A", data, "WE", clk(), setup_ps=1_000, hold_ps=1_000
        )
        assert len(v) == 1
        assert v[0].kind is ViolationKind.HOLD
        assert v[0].missed_by_ps == 500

    def test_setup_before_rising_edge(self):
        data = stable_between(19_000, 40_000)
        v = check_setup_rise_hold_fall(
            "chk", "A", data, "WE", clk(), setup_ps=3_500, hold_ps=1_000
        )
        assert len(v) == 1
        assert v[0].kind is ViolationKind.SETUP
        assert v[0].missed_by_ps == 2_500

    def test_no_edge_reported(self):
        v = check_setup_rise_hold_fall(
            "chk", "A", stable_between(0, P), "WE",
            Waveform.constant(P, ONE), setup_ps=1, hold_ps=1,
        )
        assert v and v[0].kind is ViolationKind.NO_CLOCK_EDGE


class TestMinPulseWidth:
    def test_wide_pulse_passes(self):
        assert check_min_pulse_width("c", "CK", clk(), ns_to_ps(5.0), ns_to_ps(3.0)) == []

    def test_narrow_high_pulse(self):
        """The Figure 1-5 runt: a 5 ns pulse against a wider minimum."""
        v = check_min_pulse_width(
            "c", "REG CLOCK", clk(high=(20_000, 25_000)), ns_to_ps(6.0), None
        )
        assert len(v) == 1
        assert v[0].kind is ViolationKind.MIN_PULSE_WIDTH_HIGH
        assert v[0].actual_ps == 5_000
        assert v[0].required_ps == 6_000

    def test_narrow_low_pulse(self):
        wf = Waveform.from_intervals(P, ONE, [(20_000, 22_000, ZERO)])
        v = check_min_pulse_width("c", "CK", wf, None, ns_to_ps(3.0))
        assert len(v) == 1
        assert v[0].kind is ViolationKind.MIN_PULSE_WIDTH_LOW

    def test_constant_is_not_a_pulse(self):
        assert check_min_pulse_width(
            "c", "CK", Waveform.constant(P, ONE), ns_to_ps(5.0), ns_to_ps(5.0)
        ) == []

    def test_separate_skew_does_not_shrink(self):
        """The whole point of the skew field (section 2.8): a 10 ns pulse
        through a 5/10 ns gate still measures 10 ns."""
        delayed = clk().delayed(5_000, 10_000)
        assert check_min_pulse_width("c", "CK", delayed, ns_to_ps(8.0), None) == []

    def test_folded_skew_does_shrink(self):
        folded = clk().delayed(5_000, 10_000).materialized()
        v = check_min_pulse_width("c", "CK", folded, ns_to_ps(8.0), None)
        assert len(v) == 1
        assert v[0].actual_ps == 5_000

    def test_glitch_window_flagged(self):
        wf = Waveform.from_intervals(P, ZERO, [(20_000, 24_000, CHANGE)])
        v = check_min_pulse_width("c", "CK", wf, ns_to_ps(5.0), None)
        assert any(x.kind is ViolationKind.POSSIBLE_GLITCH for x in v)

    def test_glitch_warnings_can_be_disabled(self):
        wf = Waveform.from_intervals(P, ZERO, [(20_000, 24_000, CHANGE)])
        v = check_min_pulse_width(
            "c", "CK", wf, ns_to_ps(5.0), None, glitch_warnings=False
        )
        assert v == []

    def test_glitch_config_reaches_checker(self):
        from dataclasses import replace

        from repro import Circuit, EXACT, TimingVerifier
        from repro.workloads import fig_1_5_gated_clock

        quiet = replace(EXACT, glitch_warnings=False)
        result = TimingVerifier(fig_1_5_gated_clock(), quiet).verify()
        assert not any(
            x.kind is ViolationKind.POSSIBLE_GLITCH for x in result.violations
        )

    def test_unknown_skipped(self):
        assert check_min_pulse_width(
            "c", "CK", Waveform.constant(P, UNKNOWN), 1_000, 1_000
        ) == []

    def test_wrapping_pulse_measured_once(self):
        wf = Waveform.from_intervals(P, ZERO, [(45_000, 52_000, ONE)])
        v = check_min_pulse_width("c", "CK", wf, ns_to_ps(8.0), None)
        assert len(v) == 1
        assert v[0].actual_ps == 7_000


class TestGatingStability:
    def test_stable_control_passes(self):
        control = stable_between(10_000, 40_000)
        assert check_gating_stability("g", "WRITE", control, "CK", clk()) == []

    def test_figure_1_5_hazard(self):
        """ENABLE falls at 25 ns while CLOCK is asserted 20-30 ns: the
        gated register may be falsely clocked."""
        enable = Waveform.from_intervals(P, ONE, [(25_000, 50_000, ZERO)])
        # As a timing value the fall is an instantaneous transition at 25.
        v = check_gating_stability("g", "ENABLE", enable, "CLOCK", clk())
        assert len(v) == 1
        assert v[0].kind is ViolationKind.GATING_STABILITY

    def test_control_change_during_clock_skew_window(self):
        control = Waveform.from_intervals(P, STABLE, [(18_500, 19_500, CHANGE)])
        assert check_gating_stability("g", "W", control, "CK", clk()) == []
        v = check_gating_stability(
            "g", "W", control, "CK", clk(skew=(-1_000, 1_000))
        )
        assert len(v) == 1

    def test_unknowns_skipped(self):
        u = Waveform.constant(P, UNKNOWN)
        assert check_gating_stability("g", "W", u, "CK", clk()) == []


class TestStableAssertionCheck:
    def test_conforming_signal_passes(self):
        asserted = stable_between(10_000, 40_000)
        computed = stable_between(5_000, 45_000)  # stable for longer: fine
        assert check_stable_assertion("S", computed, asserted) == []

    def test_violating_signal_reported(self):
        """Section 2.5.2: the designer's assertion is checked against the
        actual signal once hardware generates it."""
        asserted = stable_between(10_000, 40_000)
        computed = stable_between(15_000, 40_000)  # still changing at 12 ns
        v = check_stable_assertion("S", computed, asserted)
        assert len(v) == 1
        assert v[0].kind is ViolationKind.ASSERTION_MISMATCH

    def test_unknown_skipped(self):
        asserted = stable_between(10_000, 40_000)
        assert check_stable_assertion("S", Waveform.constant(P, UNKNOWN), asserted) == []


SETUP, HOLD = ViolationKind.SETUP, ViolationKind.HOLD


class TestMargins:
    """Signed margins: how far each setup, hold and pulse-width check
    passed by, or (negative, uncapped) failed by."""

    def test_clean_setup_and_hold_margins(self):
        # Edge at 20 ns; guard [15, 23] ns; data changes from 40 ns to 10 ns.
        margins = {}
        v = check_setup_hold(
            "chk", "D", stable_between(10_000, 40_000), "CK", clk(),
            setup_ps=5_000, hold_ps=3_000, margins=margins,
        )
        assert v == []
        assert margins == {
            ("chk", SETUP, "D", 0): 15_000 - 10_000,
            ("chk", HOLD, "D", 0): 40_000 - 23_000,
        }

    def test_violated_margin_is_uncapped(self):
        """missed_by_ps caps at the setup time (Figure 3-11: "by the
        full" amount); the margin keeps the whole depth."""
        margins = {}
        v = check_setup_hold(
            "chk", "D", stable_between(21_000, 45_000), "CK", clk(),
            setup_ps=2_500, hold_ps=3_000, margins=margins, case_index=2,
        )
        by_kind = {x.kind: x for x in v}
        assert by_kind[SETUP].missed_by_ps == 2_500
        assert margins[("chk", SETUP, "D", 2)] == 17_500 - 21_000
        assert by_kind[HOLD].missed_by_ps == 3_000
        assert margins[("chk", HOLD, "D", 2)] == 17_500 - 23_000

    def test_figure_3_11_margin_equals_missed_by(self):
        margins = {}
        v = check_setup_hold(
            "chk", "D", stable_between(47_500, 87_500), "CK",
            clk(high=(49_000, 49_500)), setup_ps=2_500, hold_ps=0,
            margins=margins,
        )
        assert v[0].missed_by_ps == 1_000
        assert margins[("chk", SETUP, "D", 0)] == -1_000

    def test_every_edge_keeps_the_smallest(self):
        two_phase = Waveform.from_intervals(
            P, ZERO, [(10_000, 15_000, ONE), (35_000, 40_000, ONE)]
        )
        margins = {}
        check_setup_hold(
            "chk", "D", stable_between(5_000, 30_000), "CK", two_phase,
            setup_ps=2_000, hold_ps=2_000, margins=margins,
        )
        # The 10 ns edge passes with 3 ns of setup margin; the data changes
        # through the whole [33, 37] ns guard of the 35 ns edge, which
        # misses both sides by the guard's full width (past the 2 ns cap).
        assert margins[("chk", SETUP, "D", 0)] == 33_000 - 37_000
        assert margins[("chk", HOLD, "D", 0)] == 33_000 - 37_000

    def test_rise_hold_fall_margins(self):
        margins = {}
        v = check_setup_rise_hold_fall(
            "chk", "A", stable_between(10_000, 30_500), "WE", clk(),
            setup_ps=1_000, hold_ps=1_000, margins=margins,
        )
        assert [x.kind for x in v] == [HOLD]
        assert margins == {
            ("chk", SETUP, "A", 0): 19_000 - 10_000,
            ("chk", HOLD, "A", 0): 30_500 - 31_000,
        }

    def test_stable_data_files_no_margin(self):
        margins = {}
        check_setup_hold(
            "chk", "D", Waveform.constant(P, STABLE), "CK", clk(),
            setup_ps=1_000, hold_ps=1_000, margins=margins,
        )
        assert margins == {}

    def test_pulse_width_margins(self):
        margins = {}
        v = check_min_pulse_width(
            "c", "CK", clk(high=(20_000, 25_000)), 6_000, 3_000,
            margins=margins,
        )
        assert [x.kind for x in v] == [ViolationKind.MIN_PULSE_WIDTH_HIGH]
        assert margins == {
            ("c", ViolationKind.MIN_PULSE_WIDTH_HIGH, "CK", 0): -1_000,
            ("c", ViolationKind.MIN_PULSE_WIDTH_LOW, "CK", 0): 45_000 - 3_000,
        }

    @settings(max_examples=150, deadline=None)
    @given(
        changes=st.lists(
            st.tuples(
                st.integers(0, P - 1),
                st.integers(0, 8_000),
                st.sampled_from([CHANGE, ONE]),
            ),
            max_size=3,
        ),
        rise=st.integers(0, P - 1),
        width=st.integers(1_000, 20_000),
        skew=st.integers(0, 2_000),
        setup=st.integers(-2_000, 6_000),
        hold=st.integers(-2_000, 6_000),
    )
    def test_negative_exactly_when_violated(
        self, changes, rise, width, skew, setup, hold
    ):
        """On every setup/hold checker a margin is negative exactly when
        the same check reports a violation, and then by at least the
        (capped) amount it reports."""
        base = ZERO if changes and changes[0][2] is ONE else STABLE
        spans = [(lo, min(lo + w, P), val) for lo, w, val in changes if w]
        data = Waveform.from_intervals(P, base, spans)
        clock = Waveform.from_intervals(
            P, ZERO, [(rise, rise + width, ONE)] if rise + width <= P
            else [(rise, P, ONE), (0, rise + width - P, ONE)],
            skew=(0, skew),
        )
        for run in (
            lambda m: check_setup_hold(
                "c", "D", data, "CK", clock, setup, hold, margins=m
            ),
            lambda m: check_setup_rise_hold_fall(
                "c", "D", data, "CK", clock, setup, hold, margins=m
            ),
            lambda m: check_setup_hold_windows(
                "c", "D", data, "CK", clock, setup, hold, 2_500, 1_000,
                margins=m,
            ),
        ):
            margins = {}
            violations = [
                x for x in run(margins) if x.kind in (SETUP, HOLD)
            ]
            assert {k for k, m in margins.items() if m < 0} == {
                ("c", x.kind, "D", 0) for x in violations
            }
            for x in violations:
                assert -margins[("c", x.kind, "D", 0)] >= x.missed_by_ps
