"""Property-style and coverage tests for the engine and remaining models.

These exercise the invariants the thesis's algorithm depends on:
determinism of the fixed point, independence from evaluation order,
periodicity of every computed waveform, and the soundness of the symbolic
result against the value-level (logic simulation) semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Circuit, EXACT, TimingVerifier, VerifyConfig
from repro.core.engine import Engine
from repro.core.values import CHANGE, ONE, STABLE, UNKNOWN, ZERO
from repro.workloads.synth import SynthConfig, generate


def circuit():
    return Circuit("p", period_ns=50.0, clock_unit_ns=6.25)


class TestWideMuxesAndStorage:
    def test_mux4_routing(self):
        c = circuit()
        c.mux("OUT", selects=["S0", "S1"], inputs=["VCC", "GND", "GND", "GND"],
              name="m")
        c.net("S0"), c.net("S1")  # undriven, unasserted -> assumed stable
        r = TimingVerifier(c, EXACT).verify()
        # Selects assumed stable-unknown: output is one of the inputs.
        assert str(r.waveform("OUT").value_at(0)) == "S"

    def test_mux4_constant_selects(self):
        c = circuit()
        c.mux("OUT", selects=["GND", "VCC"], inputs=["A0 .S0-8", "A1 .S0-8",
              "VCC", "A3 .S0-8"], name="m")
        r = TimingVerifier(c, EXACT).verify()
        # S0=0, S1=1 -> index 2 -> the constant one.
        assert r.waveform("OUT").value_at(0) is ONE

    def test_mux8_through_engine(self):
        c = circuit()
        c.mux("OUT", selects=["GND", "GND", "GND"],
              inputs=["D .S0-6", "VCC", "VCC", "VCC", "VCC", "VCC", "VCC", "VCC"],
              name="m", delay=(1.0, 2.0))
        r = TimingVerifier(c, EXACT).verify()
        wf = r.waveform("OUT")
        assert wf.value_at(10_000) is STABLE
        assert wf.value_at(45_000) is CHANGE  # D's changing tail, delayed

    def test_reg_rs_reset_through_engine(self):
        c = circuit()
        c.reg("Q", clock="CK .P2-3", data="D .S0-6",
              set_="GND", reset="MASTER RESET .S0-8", delay=(1.0, 2.0))
        r = TimingVerifier(c, EXACT).verify()
        # Reset is stable-unknown: the output may be held at 0 or clocked.
        assert str(r.waveform("Q").value_at(30_000)) in "S0"

    def test_latch_rs_through_engine(self):
        c = circuit()
        c.latch("Q", enable="EN .P2-5", data="D .S0-8",
                set_="VCC", reset="GND", delay=(1.0, 2.0))
        r = TimingVerifier(c, EXACT).verify()
        assert r.waveform("Q").value_at(30_000) is ONE  # set wins

    def test_latch_pipeline(self):
        """Two-phase latching: data flows through alternating latches."""
        c = circuit()
        phase_a = c.net("PHI A .P0-4")
        phase_b = c.net("PHI B .P4-8")
        phase_a.wire_delay_ps = (0, 0)
        phase_b.wire_delay_ps = (0, 0)
        c.latch("L1", enable=phase_a, data="D .S6-9", delay=(1.0, 2.0))
        c.latch("L2", enable=phase_b, data="L1", delay=(1.0, 2.0))
        r = TimingVerifier(c, EXACT).verify()
        assert not r.waveform("L2").is_fully_unknown


class TestAliasesInEngine:
    def test_alias_shares_waveform(self):
        c = circuit()
        c.buf("OUT", "INTERNAL", delay=(1.0, 2.0))
        c.alias("INTERNAL", "D .S0-6")
        r = TimingVerifier(c, EXACT).verify()
        out = r.waveform("OUT")
        assert out.value_at(10_000) is STABLE
        assert out.value_at(45_000) is CHANGE

    def test_alias_of_clock_drives_register(self):
        c = circuit()
        c.reg("Q", clock="LOCAL CK", data="D .S0-6", delay=(1.5, 4.5))
        c.alias("LOCAL CK", "MAIN CLK .P2-3")
        r = TimingVerifier(c, EXACT).verify()
        assert r.waveform("Q").value_at(15_000) is CHANGE


class TestDeterminism:
    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_fixed_point_deterministic(self, seed):
        d = generate(SynthConfig(chips=60, seed=seed))
        c1, _ = d.circuit()
        c2, _ = d.circuit()
        r1 = TimingVerifier(c1).verify()
        r2 = TimingVerifier(c2).verify()
        assert r1.cases[0].waveforms == r2.cases[0].waveforms
        assert r1.stats.events == r2.stats.events

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_every_waveform_covers_the_period(self, seed):
        c, _ = generate(SynthConfig(chips=50, seed=seed)).circuit()
        r = TimingVerifier(c).verify()
        for name, wf in r.cases[0].waveforms.items():
            assert sum(w for _v, w in wf.segments) == c.period_ps, name

    def test_case_order_independence(self):
        """Whatever order the cases run in, each case's converged state and
        verdict are the same — incremental re-evaluation has no history
        dependence."""
        from repro.constraints import load_constraints
        from repro.hdl.expander import MacroExpander

        def mux():
            c = circuit()
            c.mux("OUT", selects=["SEL .S0-8"], inputs=["A .S0-6", "B .S2-8"],
                  delay=(1.0, 2.0), name="m")
            for bit in (0, 1):
                c.add_case_by_name({"SEL .S0-8": bit})
            return c, None, EXACT

        def cased_port():
            # An input-delay port under case analysis (the fixture's
            # header derives case 1's setup miss).
            path = "tests/fixtures/cased_port"
            c = MacroExpander.from_file(f"{path}.scald").expand()
            return c, load_constraints(f"{path}.sdc", c), VerifyConfig()

        def split_word():
            # Case 0 splits Q's lanes 0 and 5 off; case 1 keys no lane, so
            # Q's driver stores through the scalar path; case 2 keys a
            # lane of F only.  Q is one word again in cases 1 and 2.
            c = Circuit("word", period_ns=50.0, clock_unit_ns=12.5)
            en, q = c.net("EN .S0-6", width=8), c.net("Q", width=8)
            c.gate("AND", q, ["D .C1-2", en], delay=(2.0, 3.0), name="g",
                   width=8)
            for net, name in ((q, "su"), (c.net("F .S0-6", width=8), "suf")):
                c.setup_hold(net, "PHI .P2-3", setup=10.0, hold=2.0,
                             name=name, width=8)
            for case in (
                {"EN .S0-6 [0]": 0, "EN .S0-6 [5]": 0},
                {"EN .S0-6": 1},
                {"EN .S0-6": 1, "F .S0-6 [0]": 0},
            ):
                c.add_case_by_name(case)
            return c, None, VerifyConfig()

        def verdict(result, case):
            return [
                (v.component, v.kind, v.signal, v.missed_by_ps)
                for v in result.violations
                if v.case_index == case
            ]

        for build in (mux, cased_port, split_word):
            runs = []
            for reverse in (False, True):
                c, cons, config = build()
                if reverse:
                    c.cases.reverse()
                runs.append(
                    TimingVerifier(c, config, constraints=cons).verify()
                )
            fwd, rev = runs
            last = len(fwd.cases) - 1
            for i in range(last + 1):
                assert fwd.cases[i].waveforms == rev.cases[last - i].waveforms
                assert verdict(fwd, i) == verdict(rev, last - i), (build.__name__, i)


class TestSymbolicSoundness:
    """The symbolic result must cover every concrete logic-simulation
    behaviour: wherever the verifier says a signal is a known constant or
    stable, the simulator (driven with any vector) must agree it does not
    change there."""

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                 min_size=2, max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_verifier_covers_simulation(self, vectors):
        from repro.baselines import LogicSimulator

        c = circuit()
        ck = c.net("CK .P2-3")
        ck.wire_delay_ps = (0, 0)
        for n in ("N1", "N2", "Q"):
            c.net(n).wire_delay_ps = (0, 0)
        c.gate("AND", "N1", ["A .S0-6", "B .S0-6"], delay=(1.0, 3.0), name="g1")
        c.gate("XOR", "N2", ["N1", "A .S0-6"], delay=(1.0, 2.0), name="g2")
        c.reg("Q", clock=ck, data="N2", delay=(1.5, 4.5))

        result = TimingVerifier(c, EXACT).verify()
        sim = LogicSimulator(c)
        sim.drive("A .S0-6", [a for a, _b in vectors])
        sim.drive("B .S0-6", [b for _a, b in vectors])
        sim_result = sim.run(cycles=len(vectors), record_trace=True)

        # Wherever the verifier guarantees stability, no simulated vector
        # may ever change the signal (skip the X-initialisation cycle).
        period = c.period_ps
        for name in ("N1", "N2", "Q"):
            wf = result.waveform(name).materialized()
            for net, t, _value in sim_result.trace:
                if net != name or t < period:
                    continue
                # A simulator change at t may sit at either boundary of
                # the verifier's half-open changing window: covered when
                # the instant before t or t itself is marked changing.
                changing = {"C", "R", "F", "U"}
                before = str(wf.value_at((t - 1) % period))
                at = str(wf.value_at(t % period))
                assert before in changing or at in changing, (
                    f"{name} changed at {t} ps where the verifier claims "
                    f"{before}/{at}"
                )


class TestXrefAndUnknowns:
    def test_unknown_propagates_until_resolved(self):
        c = circuit()
        c.gate("AND", "N1", ["N0", "A .S0-6"], name="g1")
        c.gate("BUF", "N0", ["B .S0-6"], name="g0")
        e = Engine(c, EXACT)
        e.initialize()
        assert e.waveform_of("N1").is_fully_unknown
        e.run()
        assert not e.waveform_of("N1").is_fully_unknown

    def test_checker_on_unknown_is_silent(self):
        c = circuit()
        c.gate("NOT", "LOOPY", ["LOOPY2"], name="i1")
        # LOOPY2 never driven and unasserted -> stable; LOOPY resolves.
        c.setup_hold("LOOPY", "CK .P2-3", setup=1.0, hold=1.0)
        r = TimingVerifier(c, EXACT).verify()
        assert r.ok

    def test_xref_records_each_assumed_signal_once(self):
        c = circuit()
        c.gate("AND", "OUT", ["MYSTERY", "MYSTERY", "OTHER"], name="g")
        r = TimingVerifier(c, EXACT).verify()
        assert r.xref_assumed_stable.count("MYSTERY") == 1
