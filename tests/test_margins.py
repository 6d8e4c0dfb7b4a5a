"""Engine check margins across execution modes and against static slack.

Every setup, hold and minimum-pulse-width check files a signed margin
(``repro.core.checks``).  Two contracts hold them to account:

* a margin is a property of the converged waveforms, so serial, pooled
  and incremental runs — and the check memo — must file the same margins
  in the same report order;
* the quantitative engine-vs-static crosscheck: static slack is a lower
  bound on what the engine measures, so wherever a setup-hold record has
  static slack ``s >= 0``, every engine margin on the same (component,
  signal) is at least ``s``, in every case.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oracle
from repro.constraints import load_constraints
from repro.core.verifier import TimingVerifier
from repro.hdl.expander import MacroExpander
from repro.incremental import WireDelayEdit
from repro.session import Session
from repro.sta.slack import compute_slack
from repro.sta.windows import compute_windows
from repro.workloads.synth import SynthConfig, generate

DESIGNS = Path(__file__).resolve().parent.parent / "examples" / "designs"


def _synth(chips, seed, n_cases=0):
    circuit, _ = generate(
        SynthConfig(chips=chips, stage_chips=max(30, chips // 2), seed=seed)
    ).circuit()
    for k in range(n_cases):
        circuit.add_case_by_name({"MUX CTL .S0-8": k % 2})
    return circuit


def assert_margins_cover_static_slack(circuit, constraints=None) -> int:
    """Check the crosscheck contract; return how many margins it compared."""
    result = TimingVerifier(circuit, constraints=constraints).verify()
    analysis = compute_windows(circuit, constraints=constraints)
    by_check: dict[tuple[str, str], list] = {}
    for key, margin in result.margins.items():
        by_check.setdefault((key[0], key[2]), []).append((key, margin))
    compared = 0
    for rec in compute_slack(circuit, analysis, constraints):
        if rec.kind != "setup-hold" or rec.slack_ps is None or rec.slack_ps < 0:
            continue
        for key, margin in by_check.get((rec.component, rec.signal), ()):
            assert margin >= rec.slack_ps, (key, margin, rec.slack_ps)
            compared += 1
    return compared


class TestStaticSlackBoundsMargins:
    @settings(max_examples=8, deadline=None)
    @given(
        chips=st.integers(min_value=20, max_value=120),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    def test_property_synth_matrix(self, chips, seed):
        circuit, _ = generate(SynthConfig(chips=chips, seed=seed)).circuit()
        assert assert_margins_cover_static_slack(circuit) > 0

    @pytest.mark.parametrize(
        "name", sorted(p.stem for p in DESIGNS.glob("*.sdc"))
    )
    def test_shipped_constrained_designs(self, name):
        circuit = MacroExpander.from_file(str(DESIGNS / f"{name}.scald")).expand()
        constraints = load_constraints(str(DESIGNS / f"{name}.sdc"), circuit)
        assert assert_margins_cover_static_slack(circuit, constraints) > 0


class TestMarginsAgreeAcrossModes:
    def test_serial_pooled_and_incremental_runs_agree(self):
        """Every run files the reference's margins in its report order
        (``repro.oracle``): a full run, a second run served from the
        checker memo and an edit→reverify, serially and on the pool."""
        edit = WireDelayEdit("ALU EN .P4.5-6", (0.0, 30.0))
        serial = oracle.Reverify(Session(_synth(60, 1, n_cases=4)))
        with oracle.Pooled(_synth(60, 1, n_cases=4)) as pooled:
            for mode in (serial, pooled):
                mode.verify()
                # A second run serves every check from the checker memo.
                mode.verify()
                inc = mode.step(edit)
                assert inc.incremental
                edited = inc.result.margins
                assert any(m < 0 for m in edited.values())
                assert {key[3] for key in edited} == {0, 1, 2, 3}
            assert pooled.session._pool.stats.workers == 2
