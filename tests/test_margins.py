"""Engine check margins across execution modes and against static slack.

Every setup, hold and minimum-pulse-width check files a signed margin
(``repro.core.checks``).  Two contracts hold them to account:

* a margin is a property of the converged waveforms, so serial, pooled
  and incremental runs — and the check memo — must file the same margins
  in the same report order;
* the quantitative engine-vs-static crosscheck: static slack is a lower
  bound on what the engine measures.  Wherever a record has static slack
  ``s >= 0``, every engine margin filed on a check its kind bounds
  (``slack.TWINS``) at the same (component, signal) is at least ``s``, in
  every case; where that check files no margin, ``s > 0`` means the
  engine reports no violation of it.
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
from repro.sta import check_encloses
from repro.sta.slack import TWINS, compute_slack
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


def assert_margins_cover_static_slack(
    circuit, constraints=None, result=None
) -> int:
    """Check the crosscheck contract; return how many margins it compared."""
    if result is None:
        result = TimingVerifier(circuit, constraints=constraints).verify()
    analysis = compute_windows(circuit, constraints=constraints)
    filed: dict[tuple, list[int]] = {}
    for (component, kind, signal, _case), margin in result.margins.items():
        filed.setdefault((component, kind, signal), []).append(margin)
    violated = {(v.component, v.kind, v.signal) for v in result.violations}
    compared = 0
    for rec in compute_slack(circuit, analysis, constraints):
        s = rec.slack_ps
        if s is None or s < 0:
            continue
        for kind, twins in TWINS.items():
            if rec.kind not in twins:
                continue
            check = (rec.component, kind, rec.signal)
            margins = filed.get(check)
            if margins:
                assert min(margins) >= s, (check, margins, s)
                compared += len(margins)
            elif s > 0:
                assert check not in violated, (check, s)
    return compared


def _ns():
    return st.integers(0, 24).map(lambda q: q / 4)


@st.composite
def _clocked_sources(draw):
    """SCALD text: a .P or .C clock with a 1-2 unit pulse, sent straight,
    through a BUF or NOT, or through an &A-gated AND (random gate and wire
    delays), clocking a REG, a LATCH and both setup checkers; a checker on
    the ungated clock reads each storage element's output."""
    kind = draw(st.sampled_from("PC"))
    width = draw(st.integers(1, 2))
    start = draw(st.integers(0, 8 - width))
    clock = f'"CK .{kind}{start}-{start + width}"'
    data = '"D .S{}-{}"'.format(*draw(st.permutations(range(9)))[:2])

    def delay():
        lo = draw(_ns())
        return f"{lo:g}:{lo + draw(_ns()):g}"

    lines = [
        "design PROP;", "period 50 ns;", "clock_unit 6.25 ns;",
        f"wire {clock} {delay()};",
    ]
    via = draw(st.sampled_from(["straight", "BUF", "NOT", "AND"]))
    if via == "straight":
        gck = clock
    else:
        gck = '"GCK"'
        pins = (
            f'I1={clock}&A, I2="EN .S0-8"' if via == "AND" else f"I={clock}"
        )
        lines += [
            f'wire "GCK" {delay()};',
            f'prim {via} g ({pins}, OUT="GCK") delay={delay()};',
        ]
    lines += [
        f'prim REG r (CLOCK={gck}, DATA={data}, OUT="Q") delay={delay()};',
        f'prim LATCH l (ENABLE={gck}, DATA={data}, OUT="L") delay={delay()};',
    ]
    for name, prim, pin, ck in (
        ("su", "SETUP HOLD CHK", data, gck),
        ("srhf", "SETUP RISE HOLD FALL CHK", data, gck),
        ("qsu", "SETUP HOLD CHK", '"Q"', clock),
        ("lsu", "SETUP HOLD CHK", '"L"', clock),
    ):
        lines.append(
            f'prim "{prim}" {name} (I={pin}, CK={ck}) '
            f"setup={draw(_ns()):g} hold={draw(_ns()):g};"
        )
    return "\n".join(lines) + "\n"


class TestStaticSlackBoundsMargins:
    @settings(max_examples=60, deadline=None)
    @given(source=_clocked_sources())
    def test_property_narrow_clock_pulses(self, source):
        """Skew and delay spreads make a narrow pulse's rise and fall
        windows overlap; every clocked reader must then see both edges
        anywhere in the run, as the engine's readers do."""
        circuit = MacroExpander.from_source(source).expand()
        result = TimingVerifier(circuit).verify()
        analysis = compute_windows(circuit)
        slack = compute_slack(circuit, analysis)
        cc = check_encloses(result, analysis, slack=slack)
        assert cc.ok, (cc.failures[:3], cc.verdict_failures[:3])
        assert_margins_cover_static_slack(circuit, result=result)

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
