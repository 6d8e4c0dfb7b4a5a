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
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oracle
from repro.core.config import VerifyConfig
from repro.core.engine import Engine
from repro.core.timeline import scaled_timebase
from repro.core.verifier import TimingVerifier
from repro.core.violations import ViolationKind
from repro.sta import analyze, compute_windows
from repro.sta.parametric import (
    Aff,
    StaticFmax,
    _engine_probe,
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


def _engine_result(circuit, period_ps, config=None, constraints=None):
    """A full verification of ``circuit`` re-timed to ``period_ps`` here,
    independently of the library's probe engine (always restored)."""
    saved = circuit.timebase
    circuit.timebase = scaled_timebase(saved, period_ps)
    try:
        return TimingVerifier(
            circuit, config or VerifyConfig(), constraints=constraints
        ).verify()
    finally:
        circuit.timebase = saved


def _engine_clean(circuit, period_ps, config=None, constraints=None):
    return _engine_result(circuit, period_ps, config, constraints).ok


def _scald(path):
    from repro.hdl.expander import MacroExpander

    return MacroExpander.from_file(path).expand()


def _shifter():
    return _scald("examples/designs/shifter.scald")


PULSE_WIDTH = "tests/fixtures/pulse_width.scald"


def _pulse_width():
    return _scald(PULSE_WIDTH)


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

    def test_input_delay_windows_at_the_sample_equal_concrete(self):
        """The parametric pass builds its source windows with the concrete
        pass's own builder, so at its sample period every window is the
        concrete one.  The skewed rise (7.5-17.5 ns) and fall (13.75-23.75
        ns) of a ``.C2-3`` clock overlap into one run, and the port
        launches from all of it: it changes over [13.5, 53.75] ns, not
        just 6 to 30 ns after the rise window."""
        circuit, cons = _input_delay("CK .C2-3")
        period = circuit.timebase.period_ps
        run = run_parametric(circuit, constraints=cons, t0=period)
        concrete = compute_windows(circuit, constraints=cons)

        def at_sample(windows):
            return [
                "full" if s.is_full else [
                    (_slack_form(lo).at(period), _slack_form(hi).at(period))
                    for lo, hi in s.spans
                ]
                for s in windows
            ]

        assert at_sample(concrete.by_name("PORT")) == [[(13500, 53750)]] * 2
        assert run.analysis.windows.keys() == concrete.windows.keys()
        for net, windows in concrete.windows.items():
            assert at_sample(run.analysis.windows[net]) == at_sample(windows), (
                net.name
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

    def test_fig_2_6_static_search_is_bounded(self):
        """Static-clean down to 1 ps: the search gallops down from the
        region walk's guess instead of stepping one picosecond at a time
        (which took 10,000 static evals)."""
        static = solve_static_fmax(figures.fig_2_6_case_analysis())
        assert not static.period_limited and static.period_ps is None
        assert static.static_evals <= 25

    @pytest.mark.parametrize(
        "builder",
        [
            figures.fig_2_6_case_analysis,
            figures.fig_1_5_gated_clock,
            lambda: _scald("tests/fixtures/gated_clock.scald"),
        ],
        ids=["fig_2_6", "fig_1_5", "gated_clock"],
    )
    def test_region_walk_stops_where_nothing_binds(self, builder):
        """No check bounds the period from below in the first region, so
        the walk hands its floor to the gallop after one parametric pass
        (Fig. 2-6 used to spend all 24 re-sampling under each floor)."""
        assert solve_static_fmax(builder()).passes == 1

    @pytest.mark.parametrize(
        "builder",
        [
            figures.fig_2_5_register_file,
            figures.fig_3_12_alu_datapath,
            figures.fig_4_1_correlation,
        ],
        ids=["fig_2_5", "fig_3_12", "fig_4_1"],
    )
    def test_static_search_without_a_root_is_bounded(self, builder):
        """No period is static-clean here (in Figs 3-12 and 4-1 a static
        slack does not grow with the period), so the search gallops up
        from the region walk's guess, doubling its step at most 16 times,
        and gives up."""
        static = solve_static_fmax(builder())
        assert static.period_limited and static.period_ps is None
        assert static.static_evals <= 25

    def test_fig_1_5_fails_at_every_period(self):
        """The gated-clock runt pulse can be arbitrarily short at any
        period (ENABLE may change anywhere in its window), so slowing the
        clock never fixes it: period-independent failure on both oracles."""
        circuit = figures.fig_1_5_gated_clock()
        analytic = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert analytic.period_limited and oracle.period_limited
        assert analytic.period_ps is None and oracle.period_ps is None


def _shipped(name, sdc):
    from repro.constraints import load_constraints
    from repro.hdl.expander import MacroExpander

    path = f"examples/designs/{name}.scald"
    circuit = MacroExpander.from_file(path).expand()
    cons = None
    if sdc:
        cons = load_constraints(path.replace(".scald", ".sdc"), circuit)
    return circuit, cons


def _input_delay(clock="CK .P2-3"):
    """A register fed by a port that an SDC input delay says changes 6 to
    30 ns after each clock rise: its windows move with the probed period
    through ``input_delay_spans``."""
    from repro import Circuit
    from repro.constraints import parse_sdc, resolve

    circuit = Circuit("port", period_ns=50.0, clock_unit_ns=6.25)
    circuit.reg("Q", clock, "PORT", delay=(1.0, 2.0), name="r")
    circuit.setup_hold("PORT", clock, setup=2.5, hold=1.5, name="su")
    commands, _ = parse_sdc(
        f'create_clock -period 50 -name CK "{clock}"\n'
        "set_input_delay 30 -max -clock CK PORT\n"
        "set_input_delay 6 -min -clock CK PORT\n"
    )
    return circuit, resolve(commands, circuit)


def _synth_cases(chips, seed, n_cases):
    circuit = _synth_circuit(chips, seed)
    for k in range(n_cases):
        circuit.add_case_by_name({"MUX CTL .S0-8": k % 2})
    return circuit


DESIGNS = Path(__file__).resolve().parent.parent / "examples" / "designs"

#: ``(id, builder)`` of each shipped design without constraints and,
#: when it has a sibling .sdc, with them; and of each design as it ships,
#: with its .sdc when it has one.
_SHIPPED = [
    (f"{path.stem}{'+sdc' if sdc else ''}", lambda n=path.stem, c=sdc: _shipped(n, c))
    for path in sorted(DESIGNS.glob("*.scald"))
    for sdc in (False, True)
    if not sdc or path.with_suffix(".sdc").exists()
]
_AS_SHIPPED = [
    (f"{path.stem}{'+sdc' if sdc else ''}", lambda n=path.stem, c=sdc: _shipped(n, c))
    for path in sorted(DESIGNS.glob("*.scald"))
    for sdc in [path.with_suffix(".sdc").exists()]
]

_PROBED = [
    *_SHIPPED,
    ("fig_2_5", lambda: (figures.fig_2_5_register_file(), None)),
    ("fig_3_12", lambda: (figures.fig_3_12_alu_datapath(), None)),
    ("pulse_width", lambda: (_pulse_width(), None)),
    ("input_delay", _input_delay),
    ("synth60x4", lambda: (_synth_cases(60, 1, 4), None)),
]


class TestBoundaryIsReal:
    """The solved Fmax is the engine's own boundary: clean at Fmax,
    violating one picosecond below, with the binding check among the
    checks failing there.  The search passes the period as an argument,
    so the circuit keeps its timebase object."""

    @pytest.mark.parametrize(
        "builder",
        [
            *[pytest.param(b, id=name) for name, b in _AS_SHIPPED],
            pytest.param(
                lambda: (figures.fig_2_5_register_file(), None), id="fig_2_5"
            ),
            pytest.param(lambda: (_synth_circuit(60, 1), None), id="synth60"),
            pytest.param(lambda: (_synth_circuit(200, 7), None), id="synth200"),
            pytest.param(
                lambda: (figures.fig_3_12_alu_datapath(), None), id="fig_3_12"
            ),
            pytest.param(lambda: (_pulse_width(), None), id="pulse_width"),
        ],
    )
    def test_engine_clean_at_fmax_violating_below(self, builder):
        circuit, cons = builder()
        timebase = circuit.timebase
        res = solve_fmax(circuit, constraints=cons)
        assert circuit.timebase is timebase
        assert res.period_limited and res.period_ps is not None
        assert _engine_clean(circuit, res.period_ps, constraints=cons)
        below = _engine_result(circuit, res.period_ps - 1, constraints=cons)
        assert not below.ok
        failing = {(v.component, v.signal) for v in below.violations}
        assert (res.binding.component, res.binding.signal) in failing


class TestProbeEngine:
    """One engine serves a whole search, re-initialized at each period;
    each probe must equal a from-scratch verification of the circuit
    re-timed to that period, whatever periods came before it."""

    @pytest.mark.parametrize(
        "builder", [b for _, b in _PROBED], ids=[n for n, _ in _PROBED]
    )
    def test_probe_equals_reference(self, builder):
        circuit, cons = builder()
        res = solve_fmax(circuit, constraints=cons)
        periods = {circuit.timebase.period_ps, res.static_period_ps}
        if res.period_ps is not None:
            periods |= {res.period_ps, res.period_ps - 1}
        periods.discard(None)
        descending = sorted(periods, reverse=True)
        # The lowest period is probed twice in a row, every period twice.
        order = descending + descending[::-1]
        probe = _engine_probe(circuit, VerifyConfig(), cons)
        for period in order:
            ref = _engine_result(circuit, period, constraints=cons)
            expected = (
                ref.ok,
                ref.margins,
                [
                    (v.component, v.kind, v.signal, v.case_index)
                    for v in ref.violations
                ],
            )
            assert probe(period) == expected, period


class TestFmaxLeavesSessionAlone:
    """``Session.fmax()`` probes on its own engine: the session's circuit
    keeps its timebase, no structure check or summary listing runs, and
    the next re-verify stays incremental and byte-identical."""

    def test_reverify_after_fmax(self, monkeypatch):
        from repro import session as session_mod
        from repro.incremental import WireDelayEdit
        from repro.reporting import listing
        from repro.session import Session

        edit = WireDelayEdit("MUX CTL .S0-8", (0.0, 2.0))
        twin = Session(_synth_cases(60, 1, 4))
        twin.verify()
        twin.edit(edit)
        expected = twin.reverify(prescreen=False)

        mode = oracle.Reverify(Session(_synth_cases(60, 1, 4)))
        mode.verify()
        session = mode.session
        session.edit(edit)
        timebase = session.circuit.timebase
        calls = {"timing_summary": 0, "check_structure": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as m:
            m.setattr(
                listing,
                "timing_summary",
                counting("timing_summary", listing.timing_summary),
            )
            m.setattr(
                session_mod,
                "check_structure",
                counting("check_structure", session_mod.check_structure),
            )
            assert session.fmax().period_ps is not None
        assert calls == {"timing_summary": 0, "check_structure": 0}
        assert session.circuit.timebase is timebase

        got = mode.step()
        assert got.incremental and expected.incremental
        assert (
            got.result.stats.dirty_primitives
            == expected.result.stats.dirty_primitives
        )


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
        failing = {
            (v.component, v.signal)
            for v in _engine_result(circuit, res.period_ps - 1).violations
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
    included: no verification happens off the books.  Every engine run
    starts at :meth:`Engine.initialize`."""

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
        initialize = Engine.initialize

        def counted(self, *args, **kwargs):
            calls.append(1)
            return initialize(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "initialize", counted)
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

    def test_scald_sta_says_the_engine_violates_at_the_static_root(
        self, capsys
    ):
        """Fmax above T_s is not an engine confirmation below it."""
        from repro.sta.cli import main

        assert main([PULSE_WIDTH, "--fmax"]) == 0
        out = capsys.readouterr().out
        assert "confirmed down to" not in out
        assert (
            "static root 21998 ps; the engine violates there on a check "
            "the static pass does not model, and is clean from 39994 ps"
        ) in out


class TestSkewedClock:
    def test_fmax_equals_bisection(self):
        """The fixture's clock edges overlap (tests/fixtures/
        skewed_clock.scald): the static root reads the whole run, so the
        engine is clean there and the search answers without tripping
        its soundness assertion."""
        path = "tests/fixtures/skewed_clock.scald"
        res = solve_fmax(_scald(path))
        assert res.period_ps == bisect_fmax(_scald(path)).period_ps == 67995
        assert res.static_period_ps >= res.period_ps


class TestCasedPort:
    def test_fmax_equals_case_one_alone(self):
        """Case 1 of tests/fixtures/cased_port.scald binds the period and
        case 0 holds D at 0, so both searches must answer what they answer
        on a twin holding case 1 alone: a case switch starts the input-
        delay port from the windows a fresh run gives it."""
        from repro.constraints import load_constraints

        answers = []
        for cases in (slice(None), slice(1, None)):
            circuit = _scald("tests/fixtures/cased_port.scald")
            circuit.cases = circuit.cases[cases]
            cons = load_constraints("tests/fixtures/cased_port.sdc", circuit)
            answers.append(
                (
                    solve_fmax(circuit, constraints=cons).period_ps,
                    bisect_fmax(circuit, constraints=cons).period_ps,
                )
            )
        assert answers == [(51500, 51500)] * 2


class TestSoundnessAssertion:
    """An engine setup or hold violation at a static-clean period breaks
    the crosscheck contract: the search must raise, never step past it."""

    @pytest.mark.parametrize(
        "kind, raises",
        [(ViolationKind.STABLE_WHILE_TRUE, True), (MPW_HIGH, False)],
        ids=["stable-while-true", "pulse-width"],
    )
    def test_kind_rule_reads_the_twin_table(self, kind, raises, monkeypatch):
        """A violation at T_s (the search's first probe) of a check with a
        static twin raises; one without (a pulse width, here failing at
        T_s and below) sends the search up from T_s, so the answer lands
        just above it."""
        from repro.sta import parametric

        probe = parametric._engine_probe
        t_s = solve_static_fmax(_shifter()).period_ps

        def violating_up_to_ts(circuit, config, constraints):
            real = probe(circuit, config, constraints)
            return lambda t: (
                (False, {}, [("c", kind, "D", 0)]) if t <= t_s else real(t)
            )

        monkeypatch.setattr(parametric, "_engine_probe", violating_up_to_ts)
        if raises:
            with pytest.raises(AssertionError, match="lost its soundness"):
                solve_fmax(_shifter())
        else:
            assert solve_fmax(_shifter()).period_ps == t_s + 1

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

    def test_twinless_check_borrows_no_record(self):
        """A no-clock-edge violation on a checker that also files a
        setup-hold record is named as itself, without that record's
        slope."""
        static = dataclasses.replace(self._static(), binding=None)
        edge = ("a/su", ViolationKind.NO_CLOCK_EDGE, "A", 0)
        record, slope = _limiting_check(static, {}, [edge])
        assert (record.component, record.kind) == ("a/su", "no-clock-edge")
        assert record.slack_ps is None and slope is None


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
