"""Tests for the long-lived verification Session (repro.session)."""

import pytest

from repro import Session, TimingVerifier, VerifyConfig, oracle
from repro.hdl.expander import MacroExpander
from repro.incremental import ConstraintsEdit

SHIFTER = "examples/designs/shifter.scald"
MULTICYCLE = "examples/designs/multicycle.scald"
MULTICYCLE_SDC = "examples/designs/multicycle.sdc"


def _expand(path):
    return MacroExpander.from_file(path).expand()


class TestSessionVerify:
    @pytest.mark.parametrize("path", [SHIFTER, MULTICYCLE])
    def test_matches_one_shot_verifier(self, path):
        """A session's full run is byte-identical to TimingVerifier's."""
        oracle.Reverify(Session.from_file(path)).verify()

    def test_verifier_facade_is_a_session(self):
        """TimingVerifier still works (it delegates to a one-shot session)."""
        result = TimingVerifier(_expand(SHIFTER)).verify()
        assert result.ok
        assert result.stats.incremental_runs == 0

    def test_engine_persists_across_runs(self):
        session = Session.from_file(SHIFTER)
        session.verify()
        engine = session.engine
        session.verify()
        assert session.engine is engine
        assert session.runs == 2

    def test_repeated_runs_identical(self):
        session = oracle.Reverify(Session.from_file(SHIFTER))
        session.verify()
        session.verify()

    def test_from_source(self):
        source = open(SHIFTER).read()
        result = Session.from_source(source, name="shifter").verify()
        assert result.ok

    def test_config_respected(self):
        config = VerifyConfig().naive()
        session = Session.from_file(SHIFTER, config=config)
        result = session.verify()
        assert result.ok
        assert result.stats.memo_hits == 0


class TestSessionInternTable:
    def test_table_is_session_owned(self):
        a = Session.from_file(SHIFTER)
        b = Session.from_file(SHIFTER)
        assert a.intern_table is not b.intern_table
        a.verify()
        assert len(a.intern_table) > 0
        assert len(b.intern_table) == 0  # never ran; nothing interned

    def test_engine_interns_into_session_table(self):
        session = Session.from_file(SHIFTER)
        result = session.verify()
        # Every stored waveform is the interned instance: re-interning a
        # structurally equal copy returns the stored object itself.
        engine = session.engine
        for wf in result.cases[0].waveforms.values():
            assert engine._intern(wf) is wf


class TestSessionStatic:
    def test_sta_over_session_circuit(self):
        session = Session.from_file(SHIFTER)
        analysis = session.sta()
        assert analysis.ok

    def test_fmax_over_session_circuit(self):
        session = Session.from_file(SHIFTER)
        res = session.fmax()
        assert res.fmax_mhz is not None and res.fmax_mhz > 0

    def test_sdc_loaded_from_file(self):
        clean = Session.from_file(MULTICYCLE, sdc=MULTICYCLE_SDC).verify()
        dirty = Session.from_file(MULTICYCLE).verify()
        assert clean.ok
        assert not dirty.ok  # by design: the path needs its 2-cycle waiver

    def test_constraints_edit_swaps_sdc(self):
        session = Session.from_file(MULTICYCLE)
        assert not session.verify().ok
        session.edit(ConstraintsEdit(path=MULTICYCLE_SDC))
        assert session.reverify(prescreen=False).ok
        session.edit(ConstraintsEdit(clear=True))
        assert not session.reverify(prescreen=False).ok
