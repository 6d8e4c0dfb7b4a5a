"""Tests for the parametric Fmax solver (``repro.sta.parametric``).

Three layers of evidence:

* the :class:`Aff` affine-form algebra is exact and refuses every lossy
  coercion;
* a parametric pass at the design period reproduces the concrete static
  slack numbers record-for-record (the differential that licenses reusing
  the untouched window/slack passes);
* the two independent Fmax oracles — the analytic anchored solve and pure
  engine bisection — agree to within 1 ps, and the boundary is real: the
  engine is clean at Fmax and violating one picosecond below.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import VerifyConfig
from repro.core.verifier import TimingVerifier
from repro.core.violations import ViolationKind
from repro.sta import analyze
from repro.sta.parametric import (
    Aff,
    StaticFmax,
    _at_period,
    _limiting_check,
    _record_key,
    _slack_form,
    bisect_fmax,
    run_parametric,
    solve_fmax,
    solve_static_fmax,
)
from repro.sta.slack import SlackRecord
from repro.workloads import figures
from repro.workloads.synth import SynthConfig, generate


SETUP, HOLD = ViolationKind.SETUP, ViolationKind.HOLD
MPW_HIGH = ViolationKind.MIN_PULSE_WIDTH_HIGH


def _engine_clean(circuit, period_ps, config=None, constraints=None):
    with _at_period(circuit, period_ps):
        result = TimingVerifier(
            circuit, config or VerifyConfig(), constraints=constraints
        ).verify()
    return result.ok


def _shifter():
    from repro.hdl.expander import MacroExpander

    return MacroExpander.from_file("examples/designs/shifter.scald").expand()


PULSE_WIDTH = "tests/fixtures/pulse_width.scald"


def _pulse_width():
    from repro.hdl.expander import MacroExpander

    return MacroExpander.from_file(PULSE_WIDTH).expand()


def _synth_circuit(chips, seed, alu_fraction=0.0):
    design = generate(
        SynthConfig(chips=chips, seed=seed, alu_fraction=alu_fraction)
    )
    return design.circuit()[0]


class TestAffAlgebra:
    def test_arithmetic_is_exact(self):
        t = Aff(0, 1)
        form = (t * 3 + 250) - (t + 50)
        assert form == Aff(200, 2)
        assert form.at(100) == Fraction(400)

    def test_structural_equality_and_hash(self):
        assert Aff(5, 0) == 5 and hash(Aff(5, 0)) != hash(Aff(5, 1))
        assert Aff(5, 1) != Aff(5, 2)  # same value at some T, different form
        assert len({Aff(1, 2), Aff(1, 2), Aff(1, 3)}) == 2

    def test_constant_comparisons_need_no_context(self):
        assert Aff(3) > Aff(2)
        assert Aff(-1) < 0
        assert Aff(7) % Aff(4) == Aff(3)

    def test_sloped_comparison_outside_context_raises(self):
        with pytest.raises(RuntimeError):
            Aff(0, 1) > 5

    def test_lossy_coercions_raise(self):
        for op in (int, float, round):
            with pytest.raises(TypeError):
                op(Aff(1, 1))

    def test_quadratic_product_rejected(self):
        with pytest.raises(TypeError):
            Aff(0, 1) * Aff(0, 1)


# Designs whose parametric pass must reproduce the concrete slack exactly.
_DIFFERENTIAL = [
    ("fig_2_5", figures.fig_2_5_register_file),
    ("fig_4_1", figures.fig_4_1_correlation),
    ("synth40", lambda: _synth_circuit(40, 3)),
    ("synth80", lambda: _synth_circuit(80, 11)),
]


class TestParametricMatchesConcrete:
    @pytest.mark.parametrize(
        "builder", [b for _, b in _DIFFERENTIAL], ids=[n for n, _ in _DIFFERENTIAL]
    )
    def test_affine_slack_at_design_period_equals_concrete(self, builder):
        circuit = builder()
        period = circuit.timebase.period_ps
        run = run_parametric(circuit, t0=period)
        concrete = {
            _record_key(r): r for r in analyze(circuit).slack
        }
        assert run.records, "parametric pass produced no slack records"
        for rec in run.records:
            twin = concrete[_record_key(rec)]
            if rec.slack_ps is None:
                assert twin.slack_ps is None
                assert (rec.overflow, rec.no_edge) == (
                    twin.overflow, twin.no_edge
                )
                continue
            form = _slack_form(rec.slack_ps)
            assert form.at(period) == twin.slack_ps, (
                f"{_record_key(rec)}: affine {form.a}+{form.b}*T at "
                f"T={period} != concrete {twin.slack_ps}"
            )


class TestHandDerivedFmax:
    def test_shifter_fmax_is_28100_ps(self):
        """First-principles Fmax of examples/designs/shifter.scald.

        The critical path launches at the MAIN CLK rise (clock unit 2 =
        T/4, trimmed distribution, no wire delay) and must make the *next*
        cycle's rise at T + T/4:

          inreg REG          4.5 ns   (clock-to-out max)
          wire               2.0 ns   (default max)
          slow stage: CHG    6.5 ns + 2.0 wire
                      MUX2   3.3 ns + 2.0 wire
          fast stage: MUX2   3.3 ns + 2.0 wire   (one-hot cases: at most
                                                  one stage routes slow)
          outreg setup       2.5 ns
          ------------------------
          total             28.1 ns

        slack(T) = (T + T/4) - (T/4 + 25.6) - 2.5 = T - 28.1 ns, so the
        smallest clean period is exactly 28 100 ps.
        """
        from repro.hdl.expander import MacroExpander

        circuit = MacroExpander.from_file(
            "examples/designs/shifter.scald"
        ).expand()
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert analytic.period_limited and oracle.period_limited
        assert analytic.period_ps == oracle.period_ps == 28100
        assert analytic.binding is not None
        assert analytic.binding.component == "outreg/su"
        assert analytic.slope == 1  # slack gains 1 ps per ps of period

    def test_fig_2_5_fmax_is_63998_ps(self):
        """The register file is bound by the RAM address check, slope 1/8.

        ``rf/su addr`` guards ADR around the write-enable pulse.  Every
        term of the guard (AND-gate delay, wire, the 3.5/1.0 ns
        setup/hold) is constant, while the separation between the ADR
        select flip (clock unit 4 = T/2) and the WE CLK fall (unit 3 =
        3T/8) grows as T/8 — one picosecond per eight of period.  Solving
        the binding inequality gives T/8 >= 8.0 ns, i.e. T = 64 000 ps up
        to the integer rounding of the clock-unit edges; the engine's
        rounded edges first align two picoseconds earlier, at 63 998, and
        both oracles must land on that exact boundary.
        """
        circuit = figures.fig_2_5_register_file()
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert analytic.period_ps == oracle.period_ps == 63998
        assert analytic.binding is not None
        assert analytic.binding.component == "rf/su addr"
        assert analytic.binding.signal == "ADR"

    def test_fig_2_6_is_not_period_limited(self):
        """Pure combinational case-analysis circuit: no period-binding
        check, clean at every probed period — both oracles must say so."""
        circuit = figures.fig_2_6_case_analysis()
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert not analytic.period_limited and not oracle.period_limited
        assert analytic.period_ps is None and oracle.period_ps is None

    def test_fig_1_5_fails_at_every_period(self):
        """The gated-clock runt pulse can be arbitrarily short at any
        period (ENABLE may change anywhere in its window), so slowing the
        clock never fixes it: period-independent failure on both oracles."""
        circuit = figures.fig_1_5_gated_clock()
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert analytic.period_limited and oracle.period_limited
        assert analytic.period_ps is None and oracle.period_ps is None


class TestBoundaryIsReal:
    @pytest.mark.parametrize(
        "builder",
        [figures.fig_2_5_register_file, lambda: _synth_circuit(60, 1)],
        ids=["fig_2_5", "synth60"],
    )
    def test_engine_clean_at_fmax_violating_below(self, builder):
        circuit = builder()
        res = solve_fmax(circuit)
        assert res.period_limited and res.period_ps is not None
        assert _engine_clean(circuit, res.period_ps)
        assert not _engine_clean(circuit, res.period_ps - 1)


class TestProbeBudget:
    """The margin-steered search: few engine runs, bisection's answer."""

    @pytest.mark.parametrize(
        "config",
        [
            None,
            SynthConfig(chips=60, seed=1),
            SynthConfig(chips=120, seed=7),
            SynthConfig(chips=250, seed=7, stage_chips=400),  # BENCH_fmax
        ],
        ids=["shifter", "synth60", "synth120", "synth250"],
    )
    def test_at_most_eight_engine_runs(self, config):
        circuit = _shifter() if config is None else generate(config).circuit()[0]
        analytic = solve_fmax(circuit)
        assert analytic.engine_runs <= 8
        assert analytic.period_ps == bisect_fmax(circuit).period_ps

    def test_binding_check_is_violated_one_picosecond_below(self):
        """Static pessimism sets T_s on synth 120/7 through c18/su, which
        is clean at Fmax; the check named is the one the engine fails."""
        circuit = generate(SynthConfig(chips=120, seed=7)).circuit()[0]
        res = solve_fmax(circuit)
        with _at_period(circuit, res.period_ps - 1):
            failing = {
                (v.component, v.signal)
                for v in TimingVerifier(circuit).verify().violations
            }
        assert (res.binding.component, res.binding.signal) in failing

    @pytest.mark.parametrize(
        "builder, budget, component, signal",
        [
            (figures.fig_2_5_register_file, 7, "rf/su addr", "ADR"),
            (_pulse_width, 9, "mpw", "CK .P2-3"),
        ],
        ids=["fig_2_5", "pulse_width"],
    )
    def test_no_clean_static_root(self, builder, budget, component, signal):
        """Fig. 2-5 has no static root and the fixture's engine violates
        at it: the same margin-steered search, from a violating start."""
        circuit = builder()
        analytic = solve_fmax(circuit)
        assert analytic.engine_runs <= budget
        assert analytic.period_ps == bisect_fmax(circuit).period_ps
        assert (analytic.binding.component, analytic.binding.signal) == (
            component, signal,
        )


class TestEngineRunsCounted:
    """``engine_runs`` is every engine run the search made, attribution
    included: no verification happens off the books."""

    @pytest.mark.parametrize(
        "builder",
        [
            figures.fig_2_5_register_file,
            figures.fig_3_12_alu_datapath,
            figures.fig_1_5_gated_clock,
            _shifter,
        ],
        ids=["fig_2_5", "fig_3_12", "fig_1_5", "shifter"],
    )
    def test_verify_calls_equal_engine_runs(self, builder, monkeypatch):
        circuit = builder()
        calls = []
        verify = TimingVerifier.verify

        def counted(self, *args, **kwargs):
            calls.append(1)
            return verify(self, *args, **kwargs)

        monkeypatch.setattr(TimingVerifier, "verify", counted)
        res = solve_fmax(circuit)
        assert res.method == "anchored"
        assert len(calls) == res.engine_runs


class TestStartAboveStaticRoot:
    """Regression: a minimum-pulse-width check holds the clock above the
    static root ``T_s``.  The static pass has no pulse-width twin, so the
    engine fails there; the search doubles up from ``T_s`` instead of
    calling the static pass unsound."""

    def test_answer_binding_and_cost(self):
        circuit = _pulse_width()
        res = solve_fmax(circuit)
        assert res.static_period_ps == 21998
        assert res.period_ps == bisect_fmax(circuit).period_ps == 39994
        assert res.method == "anchored"
        assert (res.binding.component, res.binding.signal) == (
            "mpw", "CK .P2-3",
        )
        assert res.binding.kind == MPW_HIGH.value
        assert res.engine_runs <= 9

    def test_scald_sta_prints_the_binding(self, capsys):
        from repro.sta.cli import main

        assert main([PULSE_WIDTH, "--fmax"]) == 0
        out = capsys.readouterr().out
        assert "min period 39994 ps" in out
        assert (
            "binding check: mpw on 'CK .P2-3' [min-pulse-width-high]" in out
        )


class TestSoundnessAssertion:
    """An engine setup or hold violation at a static-clean period breaks
    the crosscheck contract: the search must raise, never step past it."""

    @pytest.mark.parametrize("t_s", [20_000, 28_099])
    def test_setup_violation_at_static_root_raises(self, t_s, monkeypatch):
        from repro.sta import parametric

        solve = parametric.solve_static_fmax

        def optimistic(*args, **kwargs):
            return dataclasses.replace(solve(*args, **kwargs), period_ps=t_s)

        monkeypatch.setattr(parametric, "solve_static_fmax", optimistic)
        with pytest.raises(AssertionError, match="lost its soundness contract"):
            solve_fmax(_shifter())  # true boundary 28 100 ps


class TestLimitingCheck:
    """Which check FmaxResult names, from the margins one picosecond
    below Fmax (no engine run: the tables stand in for the probes)."""

    @staticmethod
    def _static():
        def rec(component, signal, slack):
            return SlackRecord(
                component=component, prim="SETUP_HOLD_CHK", signal=signal,
                clock="CK", setup_ps=1_000, hold_ps=1_000, slack_ps=slack,
                no_edge=False, overflow=False, origin=None,
            )

        return StaticFmax(
            period_limited=True,
            period_ps=50_000,
            binding=rec("a/su", "A", -1),
            slope=Fraction(1, 4),
            records=[rec("a/su", "A", -1), rec("b/su", "B", 700)],
            forms=[
                rec("a/su", "A", Aff(-12_501, Fraction(1, 4))),
                rec("b/su", "B", Aff(-5_550, Fraction(1, 8))),
            ],
        )

    @pytest.mark.parametrize(
        "margins, component, signal, slope",
        [
            # The deepest violation names the check and its own slope.
            ({("a/su", SETUP, "A", 0): -1, ("b/su", SETUP, "B", 1): -3},
             "b/su", "B", Fraction(1, 8)),
            # A tie goes to the first check in report order.
            ({("b/su", HOLD, "B", 0): -2, ("a/su", SETUP, "A", 0): -2},
             "b/su", "B", Fraction(1, 8)),
            # No violated check carries a margin: the static binding.
            ({("b/su", SETUP, "B", 0): 4}, "a/su", "A", Fraction(1, 4)),
            # A diverged lane's label finds the word's static record.
            ({("b/su [2]", SETUP, "B [2]", 0): -1},
             "b/su", "B", Fraction(1, 8)),
            # No static twin: the engine's own names, no slope.
            ({("ck/mpw", MPW_HIGH, "CK", 0): -5}, "ck/mpw", "CK", None),
        ],
        ids=["deepest", "tie", "no-margin", "lane", "no-twin"],
    )
    def test_named_check(self, margins, component, signal, slope):
        record, got_slope = _limiting_check(self._static(), margins)
        assert (record.component, record.signal) == (component, signal)
        assert got_slope == slope


class TestOracleAgreement:
    @settings(max_examples=6, deadline=None)
    @given(
        chips=st.integers(min_value=20, max_value=70),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_analytic_equals_bisection_within_1ps(self, chips, seed):
        circuit = _synth_circuit(chips, seed)
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert analytic.period_limited == oracle.period_limited
        assert (analytic.period_ps is None) == (oracle.period_ps is None)
        if analytic.period_ps is not None:
            assert abs(analytic.period_ps - oracle.period_ps) <= 1

    @pytest.mark.parametrize(
        "builder, period, binding",
        [
            (
                figures.fig_3_12_alu_datapath,
                43996,
                ("assertion", "STATUS .S1-8", "assertion-mismatch"),
            ),
            (figures.fig_4_1_correlation, None, None),
        ],
        ids=["fig_3_12", "fig_4_1"],
    )
    def test_figures_without_static_root(self, builder, period, binding):
        """No static root on either figure; Fig. 4-1 has no clean period
        at all.  Fig. 3-12's limit is an assertion mismatch, which files
        no margin: the first engine violation below Fmax is named."""
        circuit = builder()
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert analytic.period_limited and oracle.period_limited
        assert analytic.period_ps == oracle.period_ps == period
        rec = analytic.binding
        assert binding == (
            None if rec is None else (rec.component, rec.signal, rec.kind)
        )

    def test_alu_mix_agrees_too(self):
        circuit = _synth_circuit(60, 1, alu_fraction=0.04)
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert analytic.period_ps == oracle.period_ps


class TestStaticSoundness:
    @pytest.mark.parametrize(
        "builder",
        [lambda: _synth_circuit(60, 1), lambda: _synth_circuit(120, 7)],
        ids=["synth60", "synth120"],
    )
    def test_static_root_never_below_engine_boundary(self, builder):
        """Constant pessimism only raises the static root: T_s >= T*."""
        circuit = builder()
        static = solve_static_fmax(circuit)
        engine = bisect_fmax(circuit)
        assert static.period_limited and engine.period_limited
        assert static.period_ps >= engine.period_ps
        # And the static root really is statically meaningful: the engine
        # must be clean there (static-positive implies engine-clean).
        assert _engine_clean(circuit, static.period_ps)
