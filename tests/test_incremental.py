"""Incremental re-verification must be byte-identical to from-scratch.

The correctness gate for the whole incremental layer: after any typed
edit (or sequence of edits), ``Session.reverify()`` and a from-scratch
``TimingVerifier`` on the same edited circuit must give the same
observation, and the prescreen's held static analysis must equal a fresh
``analyze()`` (``repro.oracle.Reverify`` and ``repro.oracle.Pooled``).
Shipped designs cover each edit type deterministically; a hypothesis
sweep drives randomized edit sequences over the synthetic generator's
size x seed matrix, serially and on a pooled four-case session.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Circuit, Session, oracle
from repro.incremental import (
    AssertionEdit,
    ConstraintsEdit,
    ParamEdit,
    PendingDirty,
    ReconnectEdit,
    WireDelayEdit,
    apply_edit,
    edit_from_doc,
    edit_to_doc,
)
from repro.netlist.circuit import NetlistError
from repro.sta import analyze, check_encloses
from repro.workloads import figures
from repro.workloads.synth import SynthConfig, generate

SHIFTER = "examples/designs/shifter.scald"
MULTICYCLE = "examples/designs/multicycle.scald"
RECOVERY = "examples/designs/recovery.scald"
DESIGNS = Path(__file__).resolve().parent.parent / "examples" / "designs"


def _mode(path):
    """A verified session on ``path``, held to the oracle."""
    mode = oracle.Reverify(Session.from_file(path))
    mode.verify()
    return mode


class TestEditTypes:
    def test_wire_delay_edit(self):
        inc = _mode(SHIFTER).step(WireDelayEdit("AFTER 1", (0.0, 1.0)))
        assert inc.incremental
        assert inc.stats.incremental_runs == 1
        assert inc.stats.reused_waveforms > 0

    def test_wire_delay_restore_default(self):
        mode = _mode(SHIFTER)
        mode.session.edit(WireDelayEdit("AFTER 1", (0.0, 1.0)))
        mode.session.reverify(prescreen=False)
        inc = mode.step(WireDelayEdit("AFTER 1", None))
        assert inc.incremental

    def test_param_edit_model_delay(self):
        inc = _mode(SHIFTER).step(ParamEdit("s1/rot", {"delay": (2.0, 5.0)}))
        assert inc.incremental

    def test_param_edit_checker(self):
        # Tighten the output register's setup far enough to fail: the
        # incremental run must report the identical violation listing.
        inc = _mode(SHIFTER).step(ParamEdit("outreg/su", {"setup": 30.0}))
        assert not inc.ok

    def test_param_edit_rejects_unknown(self):
        # A valid key ahead of the bad one must not be written either: a
        # half-applied edit would change the delay without dirtying the
        # component, and the next reverify would miss it.
        mode = _mode(SHIFTER)
        before = dict(mode.session.circuit.components["s1/rot"].params)
        with pytest.raises(NetlistError):
            mode.step(ParamEdit("s1/rot", {"delay": (2.0, 5.0), "bogus": 1.0}))
        assert mode.session.circuit.components["s1/rot"].params == before
        mode.step()

    def test_param_edit_rejects_width(self):
        mode = _mode(SHIFTER)
        before = dict(mode.session.circuit.components["s1/rot"].params)
        with pytest.raises(NetlistError):
            mode.step(ParamEdit("s1/rot", {"delay": (2.0, 5.0), "width": 8}))
        assert mode.session.circuit.components["s1/rot"].params == before
        mode.step()

    def test_reconnect_edit(self):
        # Bypass the second shift stage at the output register.
        inc = _mode(SHIFTER).step(ReconnectEdit("outreg/r", "DATA", "AFTER 1"))
        assert inc.incremental

    def test_reconnect_rejects_unknown_pin(self):
        session = _mode(SHIFTER).session
        with pytest.raises(NetlistError):
            session.edit(ReconnectEdit("outreg/r", "NOPIN", "AFTER 1"))

    def test_assertion_edit(self):
        inc = _mode(MULTICYCLE).step(AssertionEdit("DIN .S0-6", ".S1-6"))
        assert inc.incremental

    def test_edit_sequence_batches(self):
        inc = _mode(SHIFTER).step(
            WireDelayEdit("HELD", (0.0, 0.5)),
            ParamEdit("s2/rot", {"delay": (2.0, 6.0)}),
            ParamEdit("inreg/su", {"hold": 1.0}),
        )
        assert inc.incremental

    def test_recovery_design(self):
        _mode(RECOVERY).step(ParamEdit("hold", {"delay": (1.0, 4.0)}))


#: Every typed edit class on each shipped design, applied one at a time.
SHIPPED_EDITS = {
    "shifter": [
        WireDelayEdit("AFTER 1", (0.0, 25.0)),
        ParamEdit("s2/rot", {"delay": (2.0, 6.0)}),
        ParamEdit("outreg/su", {"setup": 30.0}),
        ReconnectEdit("outreg/r", "DATA", "AFTER 1"),
        WireDelayEdit("AFTER 1", None),
    ],
    "multicycle": [
        AssertionEdit("DIN .S0-6", ".S1-6"),
        ParamEdit("su", {"setup": 1.0}),
    ],
    "recovery": [
        ParamEdit("hold", {"delay": (1.0, 4.0)}),
        WireDelayEdit("CLEAR .S0-6", (0.0, 9.0)),
    ],
}


@pytest.mark.parametrize(
    "name,sdc",
    [
        pytest.param(name, sdc, id=f"{name}{'+sdc' if sdc else ''}")
        for name in SHIPPED_EDITS
        for sdc in (False, True)
        if not sdc or (DESIGNS / f"{name}.sdc").exists()
    ],
)
def test_shipped_design_edit_lists(name, sdc):
    """Each edit in turn: reverify == scratch, held static == analyze()."""
    path = DESIGNS / f"{name}.scald"
    sdc_path = str(path.with_suffix(".sdc")) if sdc else None
    mode = oracle.Reverify(Session.from_file(str(path), sdc=sdc_path))
    mode.verify()
    mode.step()  # builds the held static analysis
    for edit in SHIPPED_EDITS[name]:
        mode.step(edit)


@pytest.mark.parametrize("chips,seed", [(60, 1), (200, 7)])
def test_synth_wire_edits(chips, seed):
    """Four wire edits in the first stage, one reverify each."""
    mode = oracle.Reverify(_synth_session(chips, seed))
    mode.step()
    nets = sorted(n for n in mode.session.circuit.nets if n.startswith("S0 R "))
    for i, net in enumerate(nets[:4]):
        inc = mode.step(WireDelayEdit(net, (0.0, 0.25 * (i + 1))))
        assert 0 < inc.stats.dirty_primitives < inc.result.primitive_count


def test_pooled_four_cases_prescreen_on():
    """The prescreen runs in the parent of a pooled session, on the
    parent's circuit, while the workers re-verify their own copies."""
    with oracle.Pooled(_synth_cases(60, 1)) as mode:
        mode.verify()
        mode.step()
        nets = sorted(n for n in mode.session.circuit.nets if n.startswith("S0 R "))
        for i, net in enumerate(nets[:3]):
            inc = mode.step(WireDelayEdit(net, (0.0, 0.5 * (i + 1))))
        assert inc.result.pool.pool_starts == 1


class TestReverifySemantics:
    def test_falls_back_to_full_run(self):
        session = Session.from_file(SHIFTER)
        inc = session.reverify()
        assert not inc.incremental  # no converged state yet
        assert inc.ok

    def test_noop_reverify_reuses_everything(self):
        mode = _mode(SHIFTER)
        inc = mode.session.reverify(prescreen=False)
        assert inc.incremental
        assert inc.stats.dirty_primitives == 0
        assert inc.stats.reused_waveforms > 0
        mode.step()

    def test_prescreen_attached(self):
        session = _mode(SHIFTER).session
        session.edit(WireDelayEdit("AFTER 1", (0.0, 1.0)))
        inc = session.reverify(prescreen=True)
        assert inc.prescreen is not None
        assert inc.prescreen.seconds >= 0.0
        # Static analysis is conservative: a clean prescreen verdict can
        # never contradict an engine violation in the other direction,
        # but either way the engine result is the authority.
        if inc.prescreen.ok:
            assert inc.ok

    def test_prescreen_indeterminate_is_not_clean(self):
        """An overflowed static window makes no slack claim; the prescreen
        must not launder "no evidence" into "statically clean" while the
        engine goes on to find real violations."""
        session = _mode(SHIFTER).session
        session.edit(WireDelayEdit("AFTER 1", (0.0, 25.0)))
        inc = session.reverify(prescreen=True)
        assert not inc.ok  # engine authority: the design is broken
        assert inc.prescreen is not None
        assert inc.prescreen.indeterminate >= 1
        assert not inc.prescreen.ok

    @pytest.mark.parametrize("use_directive", [False, True])
    def test_prescreen_counts_checks_without_static_twin(self, use_directive):
        """Fig. 1-5 files no static slack record at all, yet the engine
        reports its runt clock pulse (a minimum-pulse-width glitch, or a
        gating-stability error under the &A directive): the prescreen must
        not read that absence of evidence as clean."""
        session = Session(figures.fig_1_5_gated_clock(use_directive))
        assert not session.verify().ok
        inc = session.reverify(prescreen=True)
        assert not inc.prescreen.ok
        assert inc.prescreen.indeterminate == (2 if use_directive else 1)

    @pytest.mark.parametrize(
        "enable, case, indeterminate",
        [
            ('"GND"', "", 1),
            ('"EN .S0-8"', 'case "EN .S0-8" = 0;\n', 1),
            # The A letter hands the gate to EN: the static record already
            # claims nothing (no edge), next to the gating check.
            ('"EN .S0-8"&A', "", 2),
        ],
        ids=["gnd", "case", "assume-enable"],
    )
    def test_prescreen_counts_a_clock_that_may_lose_its_edge(
        self, enable, case, indeterminate
    ):
        """A clock gated by a second input may hold no edge at all in some
        case, and the engine then files no-clock-edge, a check with no
        static twin.  Counted once per checker, the prescreen must not
        call the design clean."""
        session = Session.from_source(
            "design NOEDGE;\nperiod 50 ns;\nclock_unit 6.25 ns;\n"
            f'prim AND g (I1="MAIN CLK .P2-3", I2={enable}, OUT="GCK")'
            " delay=1.0:2.0;\n"
            'prim "SETUP HOLD CHK" su (I="D .S0-6", CK="GCK")'
            " setup=2.5 hold=1.5;\n" + case
        )
        kinds = {v.kind.value for v in session.verify().violations}
        assert "no-clock-edge" in kinds
        inc = session.reverify(prescreen=True)
        assert not inc.prescreen.ok
        assert inc.prescreen.indeterminate == indeterminate

    def test_latch_borrow_report_is_not_indeterminate(self):
        """A latch's uncapped borrow record is a report, not a check: a
        latch design with clean static slack prescreens clean."""
        c = Circuit("latch", period_ns=50.0, clock_unit_ns=6.25)
        c.buf("D", "DIN .S0-6", delay=(14.0, 16.0))
        c.latch("Q", "EN .P2-3", "D", delay=(1.0, 2.0), name="lat")
        c.setup_hold("DIN .S0-6", "EN .P2-3", setup=2.5, hold=1.5, name="su")
        session = Session(c)
        assert session.verify().ok
        inc = session.reverify(prescreen=True)
        kinds = sorted(r.kind for r in session.sta().slack)
        assert kinds == ["borrow", "setup-hold"]
        assert inc.prescreen.indeterminate == 0
        assert inc.prescreen.ok and inc.prescreen.worst_slack_ps > 0

    def test_dirty_cone_is_local(self):
        """A one-net edit dirties a strict subset of the primitives."""
        circuit, _ = generate(SynthConfig(chips=100)).circuit()
        mode = oracle.Reverify(Session(circuit))
        mode.verify()
        total = sum(
            1 for c in circuit.iter_components() if not c.prim.is_checker
        )
        net = next(n for n in circuit.nets if n.startswith("S0 R "))
        inc = mode.step(WireDelayEdit(net, (0.0, 0.4)))
        assert 0 < inc.stats.dirty_primitives < total
        assert inc.stats.reused_waveforms > 0


class TestHeldStaticAnalysis:
    """The prescreen's held analysis always equals a fresh ``analyze()``."""

    def _held(self, path=SHIFTER):
        mode = _mode(path)
        mode.step()  # builds the held analysis
        return mode, mode.session._static

    def test_timing_edits_update_in_place(self):
        mode, held = self._held()
        inc = mode.step(
            WireDelayEdit("AFTER 1", (0.0, 25.0)),
            ParamEdit("s2/rot", {"delay": (2.0, 6.0)}),
        )
        assert mode.session._static is held
        assert not inc.prescreen.ok and inc.prescreen.indeterminate >= 1
        assert mode.step(WireDelayEdit("AFTER 1", None)).prescreen.ok
        assert mode.session._static is held

    def test_checker_setup_edit_alone(self):
        # PendingDirty drops checkers; the static dirt must not.
        mode, held = self._held()
        inc = mode.step(ParamEdit("outreg/su", {"setup": 30.0}))
        assert mode.session._static is held
        assert not inc.ok and not inc.prescreen.ok
        assert inc.prescreen.worst_slack_ps < 0

    def test_reverify_without_prescreen_keeps_static_dirt(self):
        mode, held = self._held()
        session = mode.session
        session.edit(WireDelayEdit("AFTER 1", (0.0, 25.0)))
        assert not session.reverify(prescreen=False).ok
        session.verify()
        mode.step(ParamEdit("outreg/su", {"hold": 3.0}))
        assert session._static is held

    @pytest.mark.parametrize(
        "path,net,edit",
        [
            (SHIFTER, "AFTER 1", ReconnectEdit("outreg/r", "DATA", "AFTER 1")),
            (MULTICYCLE, "DIN .S0-6", AssertionEdit("DIN .S0-6", ".S1-6")),
            (SHIFTER, "AFTER 1",
             ConstraintsEdit(path="examples/designs/shifter.sdc")),
            (MULTICYCLE, "DIN .S0-6", ConstraintsEdit(clear=True)),
        ],
    )
    def test_structural_edits_rebuild(self, path, net, edit):
        mode, held = self._held(path)
        session = mode.session
        session.edit(WireDelayEdit(net, (0.0, 2.0)), edit)
        assert session._static is None and not session._static_nets
        mode.step()
        assert session._static is not held
        # The rebuilt analysis is held and updated from then on.
        rebuilt = session._static
        mode.step(WireDelayEdit(net, None))
        assert session._static is rebuilt

    def test_feedback_loop_with_upstream_wire_edit(self):
        c = Circuit("loop", period_ns=50.0, clock_unit_ns=6.25)
        c.buf("R", "RIN .S0-6", delay=(1.0, 2.0), name="rb")
        c.gate("NOR", "Q", ["R", "QB"], delay=(1.0, 2.0), name="g1")
        c.gate("NOR", "QB", ["S .S0-6", "Q"], delay=(1.0, 2.0), name="g2")
        c.buf("OUT", "R", delay=(1.0, 2.0), name="ob")
        c.setup_hold("OUT", "CK .P2-3", setup=1.0, hold=1.0, name="su")
        c.setup_hold("Q", "CK .P2-3", setup=1.0, hold=1.0, name="suq")
        mode = oracle.Reverify(Session(c))
        mode.verify()
        mode.step()
        held = mode.session._static
        assert {cut.net for cut in held.windows.feedback} == {"Q", "QB"}
        for delay in ((0.0, 3.0), (0.0, 30.0), None):
            mode.step(WireDelayEdit("RIN .S0-6", delay))
            mode.step(ParamEdit("g1", {"delay": (0.0, 4.0)}))
        assert mode.session._static is held

    def test_net_with_two_drivers(self):
        """A multi-driven net (which the engine refuses) keeps the union of
        its drivers' windows, read only after both have stored."""
        c = Circuit("wired", period_ns=50.0, clock_unit_ns=6.25)
        c.buf("A1", "A .S0-4", delay=(1.0, 2.0), name="a1")
        c.buf("X", "A1", delay=(1.0, 2.0), name="d1")
        c.buf("X", "B .S2-6", delay=(1.0, 2.0), name="d2")
        c.buf("Y", "X", delay=(1.0, 1.0), name="rd")
        c.setup_hold("Y", "CK .P6-7", setup=1.0, hold=1.0, name="su")
        held = analyze(c)
        # d1 sits one level deeper than d2; the reader must still see both.
        x_rise, _ = held.windows.by_name("X")
        y_rise, _ = held.windows.by_name("Y")
        assert y_rise.contains_set(x_rise.shift(1_000, 1_001))
        for edit in (
            WireDelayEdit("A .S0-4", (0.0, 4.0)),
            WireDelayEdit("B .S2-6", (1.0, 9.0)),
            ParamEdit("d1", {"delay": (0.0, 7.0)}),
            WireDelayEdit("A .S0-4", None),
        ):
            apply_edit(c, edit, PendingDirty())
            if isinstance(edit, WireDelayEdit):
                held.update({c.find(c.nets[edit.net])}, [])
            else:
                held.update(set(), [c.components[edit.component]])
            oracle.compare_static("reverify", held, analyze(c))

    def test_sdc_input_output_delay_and_recovery(self):
        c = Circuit("io", period_ns=50.0, clock_unit_ns=6.25)
        c.buf("D", "PORT", delay=(1.0, 2.0), name="ib")
        c.buf("CLR", "CLEAR .S0-6", delay=(0.5, 1.0), name="cb")
        c.reg("Q", "CK .P2-3", "D", delay=(1.0, 2.0), reset="CLR", name="r")
        c.setup_hold("D", "CK .P2-3", setup=2.5, hold=1.5, name="su")
        sdc = (
            'create_clock -period 50 -name CK "CK .P2-3"\n'
            "set_input_delay 3 -max -clock CK PORT\n"
            "set_input_delay 1 -min -clock CK PORT\n"
            "set_output_delay 5 -max -clock CK Q\n"
            "set_output_delay 1 -min -clock CK Q\n"
            "set_recovery 4 r\n"
        )
        mode = oracle.Reverify(Session(c))
        mode.session.edit(ConstraintsEdit(source=sdc))
        mode.verify()
        mode.step()
        held = mode.session._static
        kinds = {r.kind for r in held.slack}
        assert {"setup-hold", "output", "recovery"} <= kinds
        for edit in (
            WireDelayEdit("PORT", (0.0, 6.0)),
            WireDelayEdit("CLR", (0.0, 20.0)),
            ParamEdit("r", {"delay": (1.0, 9.0)}),
            WireDelayEdit("CK .P2-3", (0.0, 3.0)),
            ParamEdit("su", {"setup": 6.0}),
        ):
            mode.step(edit)
        assert mode.session._static is held

    def test_rejected_batch_records_its_applied_prefix(self):
        mode, held = self._held()
        session = mode.session
        with pytest.raises(NetlistError):
            session.edit(
                WireDelayEdit("AFTER 1", (0.0, 25.0)),
                WireDelayEdit("NO SUCH NET", (0.0, 1.0)),
            )
        assert session._static_nets == {
            session.circuit.find(session.circuit.nets["AFTER 1"])
        }
        inc = mode.step()
        assert session._static is held and not inc.prescreen.ok

    def test_held_windows_enclose_the_engine_after_edits(self):
        mode = oracle.Reverify(_synth_session(60, 2))
        mode.step()
        nets = sorted(n for n in mode.session.circuit.nets if n.startswith("S0 R "))
        for i, net in enumerate(nets[:3]):
            inc = mode.step(WireDelayEdit(net, (0.0, 0.5 * (i + 1))))
            cc = check_encloses(inc.result, mode.session._static.windows)
            assert cc.ok, cc.failures[:3]

    def test_no_prescreen_no_static_dirt(self):
        session = _mode(SHIFTER).session
        for k in range(3):
            session.edit(
                WireDelayEdit("AFTER 1", (0.0, float(k))),
                ParamEdit("outreg/su", {"setup": 1.0 + k}),
            )
            session.reverify(prescreen=False)
        assert session._static is None
        assert not session._static_nets and not session._static_params


class TestWireFormat:
    @pytest.mark.parametrize(
        "edit",
        [
            WireDelayEdit("A", (0.0, 1.5)),
            WireDelayEdit("A", None),
            ParamEdit("c", {"delay": (1.0, 2.0), "setup": 0.5}),
            ReconnectEdit("c", "DATA", "-B &H"),
            AssertionEdit("A", ".P2-3"),
            AssertionEdit("A", None),
        ],
    )
    def test_round_trip(self, edit):
        assert edit_from_doc(edit_to_doc(edit)) == edit

    def test_unknown_kind_rejected(self):
        with pytest.raises(NetlistError):
            edit_from_doc({"kind": "sorcery"})

    def test_unknown_key_rejected(self):
        # A misspelled field must not silently turn into a different edit
        # ("delay" dropped -> clear-wire-delay no-op reported as success).
        with pytest.raises(NetlistError, match="delay"):
            edit_from_doc(
                {"kind": "wire_delay", "net": "A", "delay": [0.0, 1.0]}
            )
        with pytest.raises(NetlistError, match="setup"):
            edit_from_doc({"kind": "param", "component": "c", "setup": 1.0})


# ----------------------------------------------------------------------
# randomized edit sequences over the synth matrix
# ----------------------------------------------------------------------

_SYNTH_CACHE = {}


def _synth_circuit(chips, seed):
    """A fresh expansion of a cached synthetic design.

    Sessions edit circuits in place, so every draw gets a fresh expansion;
    only the (deterministic) generated source is cached.
    """
    key = (chips, seed)
    if key not in _SYNTH_CACHE:
        _SYNTH_CACHE[key] = generate(SynthConfig(chips=chips, seed=seed))
    return _SYNTH_CACHE[key].circuit()[0]


def _synth_session(chips, seed):
    """A converged session on a cached synthetic circuit."""
    session = Session(_synth_circuit(chips, seed))
    session.verify()
    return session


def _synth_cases(chips, seed):
    """The same design with four cases on its mux select."""
    circuit = _synth_circuit(chips, seed)
    for k in range(4):
        circuit.add_case_by_name({"MUX CTL .S0-8": k % 2})
    return circuit


@st.composite
def _edits(draw, session):
    """1-3 random timing edits valid for ``session``'s circuit."""
    circuit = session.circuit
    nets = sorted(circuit.nets)
    delayed = sorted(
        name
        for name, comp in circuit.components.items()
        if isinstance(comp.params.get("delay"), tuple)
    )
    checkers = sorted(
        name
        for name, comp in circuit.components.items()
        if comp.prim.is_checker and "setup" in comp.params
    )
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["wire", "wire_clear", "delay", "setup"]))
        if kind == "wire":
            lo = draw(st.integers(min_value=0, max_value=4)) / 4
            hi = lo + draw(st.integers(min_value=0, max_value=4)) / 4
            out.append(WireDelayEdit(draw(st.sampled_from(nets)), (lo, hi)))
        elif kind == "wire_clear":
            out.append(WireDelayEdit(draw(st.sampled_from(nets)), None))
        elif kind == "delay" and delayed:
            comp = draw(st.sampled_from(delayed))
            lo_ps, hi_ps = circuit.components[comp].params["delay"]
            stretch = draw(st.integers(min_value=2, max_value=6)) / 4
            new_hi = max(lo_ps, int(hi_ps * stretch))
            out.append(
                ParamEdit(comp, {"delay": (lo_ps / 1000, new_hi / 1000)})
            )
        elif checkers:
            comp = draw(st.sampled_from(checkers))
            out.append(
                ParamEdit(
                    comp,
                    {"setup": draw(st.integers(min_value=0, max_value=12)) / 4},
                )
            )
    return out


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
@pytest.mark.parametrize("chips,seed", [(30, 1), (30, 7), (60, 2)])
def test_randomized_edit_sequences(chips, seed, data):
    """Random edit batches: reverify == from-scratch, always, serially and
    on a pooled four-case session driven through the same batches."""
    serial = oracle.Reverify(_synth_session(chips, seed))
    with oracle.Pooled(_synth_cases(chips, seed)) as pooled:
        pooled.verify()
        for mode in (serial, pooled):
            mode.step()  # builds the held static analysis
        # Two rounds per example: dirt must not leak between rounds, and
        # the second round starts from an incremental converged state
        # rather than a full run's.  Each batch is re-verified without the
        # prescreen, which leaves the static dirt for the no-op step after
        # it; that step's engine result is the prescreen-free run's.
        for _ in range(2):
            edits = data.draw(_edits(serial.session))
            for mode in (serial, pooled):
                mode.session.edit(*edits).reverify(prescreen=False)
                mode.step()
