"""Incremental re-verification must be byte-identical to from-scratch.

The correctness gate for the whole incremental layer: after any typed
edit (or sequence of edits), ``Session.reverify()`` and a from-scratch
``TimingVerifier`` on the same edited circuit must produce identical
error listings, summary listings and cross-references
(:func:`repro.incremental.assert_incremental_equivalent`).  Shipped
designs cover each edit type deterministically; a hypothesis sweep drives
randomized edit sequences over the synthetic generator's size x seed
matrix.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Session
from repro.incremental import (
    AssertionEdit,
    ParamEdit,
    ReconnectEdit,
    WireDelayEdit,
    assert_incremental_equivalent,
    edit_from_doc,
    edit_to_doc,
)
from repro.netlist.circuit import NetlistError
from repro.workloads.synth import SynthConfig, generate

SHIFTER = "examples/designs/shifter.scald"
MULTICYCLE = "examples/designs/multicycle.scald"
RECOVERY = "examples/designs/recovery.scald"


def _session(path):
    session = Session.from_file(path)
    session.verify()
    return session


class TestEditTypes:
    def test_wire_delay_edit(self):
        session = _session(SHIFTER)
        session.edit(WireDelayEdit("AFTER 1", (0.0, 1.0)))
        inc = assert_incremental_equivalent(session)
        assert inc.incremental
        assert inc.stats.incremental_runs == 1
        assert inc.stats.reused_waveforms > 0

    def test_wire_delay_restore_default(self):
        session = _session(SHIFTER)
        session.edit(WireDelayEdit("AFTER 1", (0.0, 1.0)))
        session.reverify(prescreen=False)
        session.edit(WireDelayEdit("AFTER 1", None))
        inc = assert_incremental_equivalent(session)
        assert inc.incremental

    def test_param_edit_model_delay(self):
        session = _session(SHIFTER)
        session.edit(ParamEdit("s1/rot", {"delay": (2.0, 5.0)}))
        inc = assert_incremental_equivalent(session)
        assert inc.incremental

    def test_param_edit_checker(self):
        session = _session(SHIFTER)
        # Tighten the output register's setup far enough to fail: the
        # incremental run must report the identical violation listing.
        session.edit(ParamEdit("outreg/su", {"setup": 30.0}))
        inc = assert_incremental_equivalent(session)
        assert not inc.ok

    def test_param_edit_rejects_unknown(self):
        # A valid key ahead of the bad one must not be written either: a
        # half-applied edit would change the delay without dirtying the
        # component, and the next reverify would miss it.
        session = _session(SHIFTER)
        before = dict(session.circuit.components["s1/rot"].params)
        with pytest.raises(NetlistError):
            session.edit(
                ParamEdit("s1/rot", {"delay": (2.0, 5.0), "bogus": 1.0})
            )
        assert session.circuit.components["s1/rot"].params == before
        assert_incremental_equivalent(session)

    def test_param_edit_rejects_width(self):
        session = _session(SHIFTER)
        before = dict(session.circuit.components["s1/rot"].params)
        with pytest.raises(NetlistError):
            session.edit(ParamEdit("s1/rot", {"delay": (2.0, 5.0), "width": 8}))
        assert session.circuit.components["s1/rot"].params == before
        assert_incremental_equivalent(session)

    def test_reconnect_edit(self):
        session = _session(SHIFTER)
        # Bypass the second shift stage at the output register.
        session.edit(ReconnectEdit("outreg/r", "DATA", "AFTER 1"))
        inc = assert_incremental_equivalent(session)
        assert inc.incremental

    def test_reconnect_rejects_unknown_pin(self):
        session = _session(SHIFTER)
        with pytest.raises(NetlistError):
            session.edit(ReconnectEdit("outreg/r", "NOPIN", "AFTER 1"))

    def test_assertion_edit(self):
        session = _session(MULTICYCLE)
        session.edit(AssertionEdit("DIN .S0-6", ".S1-6"))
        inc = assert_incremental_equivalent(session)
        assert inc.incremental

    def test_edit_sequence_batches(self):
        session = _session(SHIFTER)
        session.edit(
            WireDelayEdit("HELD", (0.0, 0.5)),
            ParamEdit("s2/rot", {"delay": (2.0, 6.0)}),
            ParamEdit("inreg/su", {"hold": 1.0}),
        )
        inc = assert_incremental_equivalent(session)
        assert inc.incremental

    def test_recovery_design(self):
        session = _session(RECOVERY)
        session.edit(ParamEdit("hold", {"delay": (1.0, 4.0)}))
        assert_incremental_equivalent(session)


class TestReverifySemantics:
    def test_falls_back_to_full_run(self):
        session = Session.from_file(SHIFTER)
        inc = session.reverify()
        assert not inc.incremental  # no converged state yet
        assert inc.ok

    def test_noop_reverify_reuses_everything(self):
        session = _session(SHIFTER)
        inc = session.reverify(prescreen=False)
        assert inc.incremental
        assert inc.stats.dirty_primitives == 0
        assert inc.stats.reused_waveforms > 0
        assert_incremental_equivalent(session)

    def test_prescreen_attached(self):
        session = _session(SHIFTER)
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
        session = _session(SHIFTER)
        session.edit(WireDelayEdit("AFTER 1", (0.0, 25.0)))
        inc = session.reverify(prescreen=True)
        assert not inc.ok  # engine authority: the design is broken
        assert inc.prescreen is not None
        assert inc.prescreen.indeterminate >= 1
        assert not inc.prescreen.ok

    def test_dirty_cone_is_local(self):
        """A one-net edit dirties a strict subset of the primitives."""
        circuit, _ = generate(SynthConfig(chips=100)).circuit()
        session = Session(circuit)
        session.verify()
        total = sum(
            1 for c in circuit.iter_components() if not c.prim.is_checker
        )
        net = next(n for n in circuit.nets if n.startswith("S0 R "))
        session.edit(WireDelayEdit(net, (0.0, 0.4)))
        inc = assert_incremental_equivalent(session)
        assert 0 < inc.stats.dirty_primitives < total
        assert inc.stats.reused_waveforms > 0


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


def _synth_session(chips, seed):
    """A converged session on a cached synthetic circuit.

    Sessions edit circuits in place, so every draw gets a fresh expansion;
    only the (deterministic) generated source is cached.
    """
    key = (chips, seed)
    if key not in _SYNTH_CACHE:
        _SYNTH_CACHE[key] = generate(SynthConfig(chips=chips, seed=seed))
    circuit, _ = _SYNTH_CACHE[key].circuit()
    session = Session(circuit)
    session.verify()
    return session


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
    """Random edit batches: reverify == from-scratch, always."""
    session = _synth_session(chips, seed)
    # Two reverification rounds per example: dirt must not leak between
    # rounds, and the second round starts from an incremental converged
    # state rather than a full run's.
    for _ in range(2):
        session.edit(*data.draw(_edits(session)))
        assert_incremental_equivalent(session)
