"""Static setup/hold slack bounds at every checker component.

The engine's checkers (``core/checks.py``) test converged waveforms against
guard windows built around each clock edge.  The static analogue works on
arrival-window sets instead: a clock rise *span* ``[r0, r1]`` is the
interval inside which the rise may occur, so the guarded region for a
``SETUP HOLD CHK`` is ``[r0 - setup, r1 + hold]`` — any possible data
change inside it is a potential violation no matter where in the span the
edge actually lands.  Slack is then a pure interval computation:

* negative slack = the deepest overlap of a data-change window with any
  guard (how far into the forbidden region the data can reach);
* positive slack = the smallest circular gap between the data windows and
  the nearest guard (how much the delays can grow before trouble).

Because arrival windows are over-approximations, static slack is a *lower
bound* on the engine's margin: static-positive implies engine-clean, while
static-negative only means the conservative windows overlap — the engine
run decides whether a real path does.  That one-sided relationship is the
same soundness contract the crosscheck enforces on values.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.violations import ViolationKind
from ..netlist.circuit import Circuit, Component, Net
from .windows import _ASSUME, WindowAnalysis, _used_input_conns

_CHECKERS = frozenset({"SETUP_HOLD_CHK", "SETUP_RISE_HOLD_FALL_CHK"})
#: Primitives that can file a record (see :func:`component_records`).
_FILERS = _CHECKERS | {"REG_RS", "LATCH", "LATCH_RS"}

#: The static record kinds that bound each engine check: at the same
#: (component, signal), slack ``s > 0`` means the engine files no violation
#: of it and ``s >= 0`` is at most every margin it files.  An empty row: no
#: static twin (:func:`twinless_sites` counts where the check is filed).
TWINS: dict[ViolationKind, tuple[str, ...]] = {
    ViolationKind.SETUP: ("setup-hold", "output"),
    ViolationKind.HOLD: ("setup-hold", "output"),
    # The SETUP RISE HOLD FALL guard spans the whole high level.
    ViolationKind.STABLE_WHILE_TRUE: ("setup-hold",),
    ViolationKind.RECOVERY: ("recovery",),
    ViolationKind.REMOVAL: ("removal",),
    ViolationKind.BORROW: ("borrow",),
    ViolationKind.NO_CLOCK_EDGE: (),
    ViolationKind.MIN_PULSE_WIDTH_HIGH: (),
    ViolationKind.MIN_PULSE_WIDTH_LOW: (),
    ViolationKind.POSSIBLE_GLITCH: (),
    ViolationKind.GATING_STABILITY: (),
    ViolationKind.ASSERTION_MISMATCH: (),
}


def twinless_sites(analysis: WindowAnalysis) -> tuple[int, frozenset[str]]:
    """Where the engine can file a check with an empty :data:`TWINS` row.

    A count, one per check: each minimum-pulse-width checker, each gate
    whose directive letter is or may be A or H (gating stability) and,
    under ``check_assertions``, each driven net with a stable assertion.
    And the checkers and output-delay checks (``sdc@NET``) that may file
    no-clock-edge: a clock keeps an edge in every case only when its net is
    clock-asserted, or a gate with one timing input (``_used_input_conns``:
    one input, or a certain A or H letter) drives it from such a net.
    """
    circuit = analysis.circuit
    sweep = analysis._sweep
    find = circuit.find
    position = {id(comp): j for j, comp in enumerate(sweep.comps)}

    def keeps_edge(net: Net) -> bool:
        rep, seen = find(net), set()
        while rep not in seen:
            if rep.assertion is not None and rep.assertion.kind.is_clock:
                return True
            seen.add(rep)
            driver = sweep.drivers.get(rep)
            j = None if driver is None else position.get(id(driver[0]))
            if j is None or sweep.kinds[j] != 0 or rep in sweep.multi:
                return False
            conns = _used_input_conns(
                sweep.comps[j], sweep.inputs[j], sweep.letters[j]
            )
            if len(conns) != 1:
                return False
            rep = find(conns[0].net)
        return False

    count = 0
    edgeless: set[str] = set()
    for comp in circuit.iter_components():
        if comp.prim.name == "MIN_PULSE_WIDTH":
            count += 1
        elif comp.prim.name in _CHECKERS and not keeps_edge(comp.pins["CK"].net):
            edgeless.add(comp.name)
    if analysis.constraints is not None:
        for spec in analysis.constraints.output_delays:
            clock = circuit.nets.get(spec.clock)
            if clock is not None and not keeps_edge(clock):
                edgeless.add(f"sdc@{spec.net}")
    # A letter rides in on a waveform only from the tail of a directive
    # string written at some gate input.
    riding = set().union(
        *(conn.directives[1:] for row in sweep.inputs for conn in row)
    )
    may_assume = bool(riding & _ASSUME)
    for letters in sweep.letters:
        if letters is not None and any(
            letter in _ASSUME if certain else may_assume
            for letter, certain in letters
        ):
            count += 1
    if analysis.config.check_assertions:
        count += sum(
            1
            for rep in circuit.representatives()
            if rep.assertion is not None
            and not rep.assertion.kind.is_clock
            and rep in sweep.drivers
        )
    return count, frozenset(edgeless)


@dataclass(frozen=True)
class SlackRecord:
    """Static slack at one checker component (all times integer ps).

    ``kind`` distinguishes the check families the constraint front-end
    added: ``"setup-hold"`` (the thesis checkers), ``"recovery"`` /
    ``"removal"`` (asynchronous SET/RESET margins), ``"borrow"`` (latch
    time borrowing — always reported, pass/fail only under a
    ``set_max_time_borrow`` constraint) and ``"output"`` (virtual
    ``set_output_delay`` boundary checks).  The engine's matching checks
    produce violations keyed by the same (component, kind, signal), which
    is what the per-check crosscheck verdict compares.
    """

    component: str
    prim: str
    signal: str                 #: guarded data net
    clock: str                  #: clock net (with ``-`` prefix if inverted)
    setup_ps: int
    hold_ps: int
    slack_ps: int | None        #: None when indeterminate (see flags)
    no_edge: bool               #: clock has no static rise window
    overflow: bool              #: clock window widened to the full period
    origin: tuple[str, int] | None
    kind: str = "setup-hold"
    waived: bool = False        #: false path pruned this check
    setup_eff_ps: int | None = None  #: effective guard extents after SDC mods
    hold_eff_ps: int | None = None
    borrow_ps: int | None = None     #: latch borrow depth (kind="borrow")

    @property
    def ok(self) -> bool:
        return self.slack_ps is None or self.slack_ps >= 0


def compute_slack(
    circuit: Circuit, analysis: WindowAnalysis, constraints=None
) -> list[SlackRecord]:
    """Bound the slack of every check from the static windows.

    Without constraints this is exactly the thesis checker sweep plus the
    informational latch-borrow report.  A :class:`ConstraintSet` adds the
    modern vocabulary: multicycle/uncertainty/latency-adjusted guards,
    false-path waivers, recovery/removal records and output-delay records —
    each mirroring the engine check that consumes the same constraint.
    """
    return sorted_records(record_slots(circuit, analysis, constraints))


def record_slots(
    circuit: Circuit, analysis: WindowAnalysis, constraints=None
) -> list[list]:
    """The records of :func:`compute_slack` grouped by what files them.

    One ``[component, records]`` slot per component that can file a
    record, in iteration order, then one ``[spec, records]`` slot per
    ``set_output_delay`` spec.  :meth:`repro.sta.StaAnalysis.update`
    rebuilds single slots in place with the same builders.
    """
    slots: list[list] = []
    for comp in circuit.iter_components():
        if comp.prim.name in _FILERS:
            slots.append([comp, component_records(comp, analysis, constraints)])
    if constraints is not None:
        for spec in constraints.output_delays:
            slots.append([spec, _output_slack_all(spec, analysis)])
    return slots


def sorted_records(slots: list[list]) -> list[SlackRecord]:
    """Flatten slots in order and sort stably, worst slack first."""
    records = [r for _key, recs in slots for r in recs]
    records.sort(key=lambda r: (r.slack_ps is None, r.slack_ps or 0, r.component))
    return records


def component_records(
    comp: Component, analysis: WindowAnalysis, constraints=None
) -> list[SlackRecord]:
    """Every record one component files: its checker record, recovery/
    removal records under a ``set_recovery``/``set_removal`` spec, and a
    latch's borrow record."""
    prim = comp.prim.name
    records: list[SlackRecord] = []
    if prim in _CHECKERS:
        mods = (
            constraints.mods_for(comp.name)
            if constraints is not None
            else None
        )
        records.append(_checker_slack(comp, analysis, mods))
    if prim in ("REG_RS", "LATCH_RS") and constraints is not None:
        spec = constraints.rs_for(comp.name)
        if spec is not None:
            records.extend(_rs_slack(comp, analysis, spec))
    if prim in ("LATCH", "LATCH_RS"):
        borrow_cap = (
            constraints.borrow_for(comp.name)
            if constraints is not None
            else None
        )
        records.append(_borrow_slack(comp, analysis, borrow_cap))
    return records


def _checker_slack(
    comp: Component, analysis: WindowAnalysis, mods=None
) -> SlackRecord:
    period = analysis.period
    i_conn, ck_conn = comp.pins["I"], comp.pins["CK"]
    setup = int(comp.params["setup"])
    hold = int(comp.params["hold"])

    clk_rise, clk_fall = analysis.edge_runs(*analysis.prepared(ck_conn))
    if ck_conn.invert:
        clk_rise, clk_fall = clk_fall, clk_rise
    data_rise, data_fall = analysis.prepared(i_conn)
    changes = data_rise.union(data_fall)

    s_eff = h_eff = None
    if mods is not None and not mods.waived:
        s_eff, h_eff = mods.effective(setup, hold, period)
        if mods.clock_shift_ps:
            # set_clock_latency: this checker sees its clock edges later
            # (mirrors Engine rotating the clock before materializing).
            shift = mods.clock_shift_ps
            clk_rise = clk_rise.shift(shift, shift)
            clk_fall = clk_fall.shift(shift, shift)

    def record(slack: int | None, *, no_edge: bool = False,
               overflow: bool = False, waived: bool = False) -> SlackRecord:
        return SlackRecord(
            component=comp.name,
            prim=comp.prim.name,
            signal=i_conn.net.name,
            clock=("-" if ck_conn.invert else "") + ck_conn.net.name,
            setup_ps=setup,
            hold_ps=hold,
            slack_ps=slack,
            no_edge=no_edge,
            overflow=overflow,
            origin=comp.origin,
            waived=waived,
            setup_eff_ps=s_eff,
            hold_eff_ps=h_eff,
        )

    if mods is not None and mods.waived:
        # set_false_path: the engine skips this checker; record the waiver
        # (pruned at the checker boundary — stored windows are untouched).
        return record(None, waived=True)

    if clk_rise.is_empty:
        # Mirrors the engine's NO_CLOCK_EDGE violation: nothing to guard.
        return record(None, no_edge=True)
    if clk_rise.is_full or changes.is_full:
        # A feedback cut (or unconstrained input) widened something to the
        # whole period; any slack number would be meaningless pessimism.
        return record(None, overflow=True)

    if comp.prim.name == "SETUP_HOLD_CHK":
        if s_eff is None:
            guards = [(r0 - setup, r1 + hold) for r0, r1 in clk_rise.spans]
        else:
            # Constrained: the two sides become independent guards exactly
            # as in check_setup_hold_windows — a non-positive effective
            # setup waives the setup side; a deeply negative effective hold
            # can empty the hold side per span.
            guards = []
            for r0, r1 in clk_rise.spans:
                if s_eff > 0:
                    guards.append((r0 - s_eff, r1))
                if r1 + h_eff > r0:
                    guards.append((r0, r1 + h_eff))
            if not guards:
                return record(None, waived=True)
    else:
        # SETUP RISE HOLD FALL: the guard runs from setup-before-rise to
        # hold-after the *following* fall (checks.py pairs them circularly).
        # Constrained extents are clamped at zero, mirroring the engine's
        # dispatch of the clamped values into the nominal checker.
        g_setup = setup if s_eff is None else max(0, s_eff)
        g_hold = hold if h_eff is None else max(0, h_eff)
        guards = []
        falls = clk_fall.spans
        for r0, r1 in clk_rise.spans:
            if falls:
                f0, f1 = min(
                    falls, key=lambda s, _r0=r0: (s[0] - _r0) % period
                )
                f1 = r0 + ((f1 - r0) % period)
            else:
                f1 = r1  # no fall window: degrade to the plain guard
            guards.append((r0 - g_setup, max(r1, f1) + g_hold))

    if changes.is_empty:
        # Statically stable data: slack is the full distance to the guard,
        # bounded by what the period can express.
        return record(max(0, period - max(g1 - g0 for g0, g1 in guards)))

    slack = _interval_slack(guards, changes.spans, period)
    return record(slack)


def _rs_slack(comp: Component, analysis: WindowAnalysis, spec) -> list[SlackRecord]:
    """Static recovery/removal slack on a REG_RS / LATCH_RS (per control pin).

    Mirror of ``check_recovery_removal``: guard windows ``[r0 - R, r1]``
    and ``[r0, r1 + M]`` around each clock/enable rise span, compared
    against the control pin's change windows.
    """
    period = analysis.period
    clock_conn = comp.pins["CLOCK" if comp.prim.name == "REG_RS" else "ENABLE"]
    clk_rise, _clk_fall = analysis.edge_runs(*analysis.prepared(clock_conn))
    records: list[SlackRecord] = []
    for pin in ("SET", "RESET"):
        conn = comp.pins.get(pin)
        if conn is None:
            continue
        ctl_rise, ctl_fall = analysis.prepared(conn)
        changes = ctl_rise.union(ctl_fall)
        for kind, margin in (
            ("recovery", spec.recovery_ps),
            ("removal", spec.removal_ps),
        ):
            if margin is None:
                continue

            def record(slack, *, no_edge=False, overflow=False):
                return SlackRecord(
                    component=comp.name,
                    prim=comp.prim.name,
                    signal=conn.net.name,
                    clock=clock_conn.net.name,
                    setup_ps=margin if kind == "recovery" else 0,
                    hold_ps=margin if kind == "removal" else 0,
                    slack_ps=slack,
                    no_edge=no_edge,
                    overflow=overflow,
                    origin=comp.origin,
                    kind=kind,
                )

            if clk_rise.is_empty:
                records.append(record(None, no_edge=True))
                continue
            if clk_rise.is_full or changes.is_full:
                records.append(record(None, overflow=True))
                continue
            if kind == "recovery":
                guards = [(r0 - margin, r1) for r0, r1 in clk_rise.spans]
            else:
                guards = [(r0, r1 + margin) for r0, r1 in clk_rise.spans]
            guards = [(g0, g1) for g0, g1 in guards if g1 > g0]
            if not guards:
                records.append(record(None, no_edge=True))
                continue
            if changes.is_empty:
                records.append(
                    record(max(0, period - max(g1 - g0 for g0, g1 in guards)))
                )
                continue
            records.append(record(_interval_slack(guards, changes.spans, period)))
    return records


def _borrow_slack(
    comp: Component, analysis: WindowAnalysis, borrow_cap: int | None
) -> SlackRecord:
    """Latch time-borrowing: how deep data arrivals reach into transparency.

    ``borrow_ps`` is the worst-case settle time of the data input after the
    latch opens (0 when data is quiet before every opening).  Without a
    ``set_max_time_borrow`` cap the record is informational
    (``slack_ps=None``); with a cap it mirrors ``check_max_time_borrow``:
    guard ``[r1 + cap, f0]`` over each transparency window.
    """
    period = analysis.period
    enable_conn = comp.pins["ENABLE"]
    data_conn = comp.pins["DATA"]
    en_rise, en_fall = analysis.edge_runs(*analysis.prepared(enable_conn))
    data_rise, data_fall = analysis.prepared(data_conn)
    changes = data_rise.union(data_fall)

    def record(slack, *, borrow=None, no_edge=False, overflow=False):
        return SlackRecord(
            component=comp.name,
            prim=comp.prim.name,
            signal=data_conn.net.name,
            clock=enable_conn.net.name,
            setup_ps=borrow_cap or 0,
            hold_ps=0,
            slack_ps=slack,
            no_edge=no_edge,
            overflow=overflow,
            origin=comp.origin,
            kind="borrow",
            borrow_ps=borrow,
        )

    if en_rise.is_empty or en_fall.is_empty:
        return record(None, no_edge=True)
    if en_rise.is_full or en_fall.is_full or changes.is_full:
        return record(None, overflow=True)

    falls = en_fall.spans
    transparency: list[tuple[int, int]] = []
    for r0, r1 in en_rise.spans:
        f0, _f1 = min(falls, key=lambda s, _r0=r0: (s[0] - _r0) % period)
        f0 = r0 + ((f0 - r0) % period)
        if f0 > r1:
            transparency.append((r1, f0))

    borrow = 0
    for t0, t1 in transparency:
        for c0, c1 in changes.spans:
            for d in (-period, 0, period):
                lo, hi = max(t0, c0 + d), min(t1, c1 + d)
                if hi >= lo:
                    borrow = max(borrow, hi - t0)

    if borrow_cap is None:
        return record(None, borrow=borrow)
    guards = [(t0 + borrow_cap, t1) for t0, t1 in transparency if t1 > t0 + borrow_cap]
    if not guards:
        return record(None, borrow=borrow, no_edge=not transparency)
    if changes.is_empty:
        return record(
            max(0, period - max(g1 - g0 for g0, g1 in guards)), borrow=borrow
        )
    return record(
        _interval_slack(guards, changes.spans, period), borrow=borrow
    )


def _output_slack_all(spec, analysis: WindowAnalysis) -> list[SlackRecord]:
    """Every record of one ``set_output_delay`` spec.

    One record normally; on a bit-blasted circuit (the port name resolves
    only as per-bit clones) one record per clone, matching the engine's
    per-bit fallback in ``_check_output_delay``.
    """
    circuit = analysis.circuit
    if circuit.nets.get(spec.net) is not None:
        rec = _output_slack(spec, analysis)
        return [rec] if rec is not None else []
    out: list[SlackRecord] = []
    i = 0
    while True:
        n = circuit.nets.get(f"{spec.net} [{i}]")
        if n is None:
            break
        rec = _output_slack(spec, analysis, net_name=n.name)
        if rec is not None:
            out.append(rec)
        i += 1
    return out


def _output_slack(
    spec, analysis: WindowAnalysis, net_name: str | None = None
) -> SlackRecord | None:
    """Static twin of the engine's virtual ``set_output_delay`` check.

    Uses the *stored* net windows (no wire delay), matching the engine's
    use of the raw converged value, and the reference clock's own source
    windows for the capture edges.
    """
    period = analysis.period
    circuit = analysis.circuit
    net_name = net_name or spec.net
    net = circuit.nets.get(net_name)
    clock_net = circuit.nets.get(spec.clock)
    if net is None or clock_net is None:
        return None
    clk_rise, _clk_fall = analysis.edge_runs(*analysis.of(clock_net))
    data_rise, data_fall = analysis.of(net)
    changes = data_rise.union(data_fall)

    def record(slack, *, no_edge=False, overflow=False):
        return SlackRecord(
            component=f"sdc@{spec.net}",
            prim="SETUP_HOLD_CHK",
            signal=net_name,
            clock=spec.clock,
            setup_ps=spec.setup_ps,
            hold_ps=spec.hold_ps,
            slack_ps=slack,
            no_edge=no_edge,
            overflow=overflow,
            origin=None,
            kind="output",
        )

    if clk_rise.is_empty:
        return record(None, no_edge=True)
    if clk_rise.is_full or changes.is_full:
        return record(None, overflow=True)
    guards = [
        (r0 - spec.setup_ps, r1 + spec.hold_ps) for r0, r1 in clk_rise.spans
    ]
    guards = [(g0, g1) for g0, g1 in guards if g1 > g0]
    if not guards:
        return record(None, no_edge=True)
    if changes.is_empty:
        return record(max(0, period - max(g1 - g0 for g0, g1 in guards)))
    return record(_interval_slack(guards, changes.spans, period))


def _interval_slack(
    guards: list[tuple[int, int]],
    changes: tuple[tuple[int, int], ...],
    period: int,
) -> int:
    """Signed circular distance between change windows and guard windows.

    Positive: the smallest gap from any change span to any guard.
    Negative: minus the deepest penetration of a change span into a guard.
    """
    worst_overlap: int | None = None
    best_gap: int | None = None
    for g0, g1 in guards:
        for c0, c1 in changes:
            # Compare on an unrolled axis: the change span shifted by one
            # period either way covers every circular alignment, since both
            # spans are shorter than the period here.
            for d in (-period, 0, period):
                lo = max(g0, c0 + d)
                hi = min(g1, c1 + d)
                if hi >= lo:  # hi == lo is a boundary touch: zero slack
                    if worst_overlap is None or hi - lo > worst_overlap:
                        worst_overlap = hi - lo
                else:
                    gap = lo - hi
                    best_gap = gap if best_gap is None else min(best_gap, gap)
    if worst_overlap is not None:
        return -worst_overlap
    return best_gap if best_gap is not None else 0
