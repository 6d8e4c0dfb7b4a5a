"""Constraint checkers (sections 2.4.4, 2.4.5 and 2.6).

Checkers run after the evaluation fixed point (section 2.9): they read the
final signal values and report violations; they never drive outputs.

All functions here operate on prepared waveforms (interconnection delay
applied, complements taken) and absolute picosecond parameters.

The setup, hold and minimum-pulse-width checkers also measure a signed
*margin* when handed a ``margins`` dict: by how much the check passed, or
(negative, uncapped) by how much it failed, filed under
``(component, kind, signal, case_index)`` — the fields that name the
check's violations.  A margin is negative exactly when the check reports
a violation.  The measurement reuses the scan that finds the violations:

* setup — the window's opening minus the end of the last instability
  before it;
* hold — the start of the first instability after the window's close,
  minus that close;
* pulse width — the narrowest high (or low) run minus its minimum.

A clock with several edges files the smallest margin over its windows.
Data that never changes, and a signal with no pulse, have nothing to
measure and file no margin.
"""

from __future__ import annotations

from .values import ONE, STABLE_VALUES, UNKNOWN, ZERO, Value
from .violations import MarginKey, Violation, ViolationKind
from .waveform import Waveform


def note_margin(margins: dict[MarginKey, int], key: MarginKey, value: int) -> None:
    """File ``value`` under ``key`` unless a smaller margin is already there."""
    old = margins.get(key)
    if old is None or value < old:
        margins[key] = value


def _window_margin(
    kind: ViolationKind,
    bad: list[tuple[int, int, Value]],
    lo: int,
    hi: int,
    before: int | None,
    after: int | None,
) -> int | None:
    """Signed margin of one setup or hold window from its instability scan.

    ``bad`` is the instability inside ``[lo, hi]`` charged to this side;
    ``before``/``after`` are the scan's clear distances.  None for other
    window kinds and for data that never changes.
    """
    if before is None:
        return None
    if kind is ViolationKind.SETUP:
        return lo - max(h for _l, h, _v in bad) if bad else before
    if kind is ViolationKind.HOLD:
        return min(l for l, _h, _v in bad) - hi if bad else after
    return None


def check_setup_hold(
    component: str,
    signal_name: str,
    data: Waveform,
    clock_name: str,
    clock: Waveform,
    setup_ps: int,
    hold_ps: int,
    case_index: int = 0,
    margins: dict[MarginKey, int] | None = None,
) -> list[Violation]:
    """The SETUP HOLD CHK primitive (Figure 2-3, upper).

    The input must be stable for ``setup`` before the rising edge of the
    clock and remain stable for ``hold`` after it.  With clock skew the
    edge is a window ``[r0, r1]`` and the stable requirement spans
    ``[r0 - setup, r1 + hold]``.
    """
    out: list[Violation] = []
    if data.is_fully_unknown or clock.is_fully_unknown:
        return out  # undefined signals are reported via the cross-reference
    clockm = clock.materialized()
    edges = clockm.rising_windows()
    if not edges:
        out.append(
            Violation(
                kind=ViolationKind.NO_CLOCK_EDGE,
                component=component,
                signal=signal_name,
                clock=clock_name,
                case_index=case_index,
                clock_waveform=clockm,
            )
        )
        return out
    datam = data.materialized()
    for edge in edges:
        out.extend(
            _check_edge_window(
                component,
                signal_name,
                datam,
                clock_name,
                clockm,
                edge=edge,
                setup_ps=setup_ps,
                hold_ps=hold_ps,
                case_index=case_index,
                margins=margins,
            )
        )
    return out


def check_setup_rise_hold_fall(
    component: str,
    signal_name: str,
    data: Waveform,
    clock_name: str,
    clock: Waveform,
    setup_ps: int,
    hold_ps: int,
    case_index: int = 0,
    margins: dict[MarginKey, int] | None = None,
) -> list[Violation]:
    """The SETUP RISE HOLD FALL CHK primitive (Figure 2-3, lower).

    Checks the setup interval before the *rising* edge, the hold interval
    after the *falling* edge, and that the input is stable for the entire
    time the clock is true — the constraint shape of write-enable pulses on
    memory parts (Figure 3-5 uses it for the RAM address lines).
    """
    out: list[Violation] = []
    if data.is_fully_unknown or clock.is_fully_unknown:
        return out
    clockm = clock.materialized()
    rises = clockm.rising_windows()
    falls = clockm.falling_windows()
    if not rises or not falls:
        out.append(
            Violation(
                kind=ViolationKind.NO_CLOCK_EDGE,
                component=component,
                signal=signal_name,
                clock=clock_name,
                case_index=case_index,
                clock_waveform=clockm,
            )
        )
        return out
    datam = data.materialized()
    period = clock.period
    for r0, r1 in rises:
        # Pair this rise with the first fall that begins at or after the
        # rise window starts (circularly) — the end of this assertion pulse.
        def fall_key(fw: tuple[int, int]) -> int:
            return (fw[0] - r0) % period
        f0, f1 = min(falls, key=fall_key)
        f0 = r0 + ((f0 - r0) % period)
        f1 = f0 + (f1 - f0 if f1 >= f0 else 0)
        span_setup = (r0 - setup_ps, r1)
        span_high = (r1, f0)
        span_hold = (f0, f1 + hold_ps)
        for window, kind, required in (
            (span_setup, ViolationKind.SETUP, setup_ps),
            (span_high, ViolationKind.STABLE_WHILE_TRUE, None),
            (span_hold, ViolationKind.HOLD, hold_ps),
        ):
            lo, hi = window
            if hi <= lo:
                continue
            bad, before, after = datam.instability_scan(lo, hi)
            margin = _window_margin(kind, bad, lo, hi, before, after)
            if margins is not None and margin is not None:
                note_margin(
                    margins, (component, kind, signal_name, case_index), margin
                )
            if not bad:
                continue
            out.append(
                Violation(
                    kind=kind,
                    component=component,
                    signal=signal_name,
                    clock=clock_name,
                    required_ps=required,
                    missed_by_ps=None if margin is None else -margin,
                    window=window,
                    case_index=case_index,
                    signal_waveform=datam,
                    clock_waveform=clockm,
                )
            )
    return out


def _check_edge_window(
    component: str,
    signal_name: str,
    datam: Waveform,
    clock_name: str,
    clockm: Waveform,
    edge: tuple[int, int],
    setup_ps: int,
    hold_ps: int,
    case_index: int,
    margins: dict[MarginKey, int] | None = None,
) -> list[Violation]:
    """Check one clock-edge window ``edge = (r0, r1)``.

    The input must be stable throughout ``[r0 - setup, r1 + hold]``.  The
    hold time may be negative (Figure 3-5 checks -1.0 ns on the register
    file's data inputs), shrinking the window from the right.  Instability
    that begins before the edge window ends is attributed to setup;
    instability that persists past the edge window start is attributed to
    hold — instability right at the edge therefore reports as both.
    """
    r0, r1 = edge
    w_lo, w_hi = r0 - setup_ps, r1 + hold_ps
    if w_hi <= w_lo:
        return []
    bad, before, after = datam.instability_scan(w_lo, w_hi)
    setup_side = [iv for iv in bad if iv[0] < r1 or iv[0] == iv[1] == r1]
    hold_side = [iv for iv in bad if iv[1] > r0 or iv[0] == iv[1] == r0]
    if margins is not None:
        for kind, side, checked in (
            (ViolationKind.SETUP, setup_side, setup_ps > 0),
            (ViolationKind.HOLD, hold_side, w_hi > r0),
        ):
            margin = _window_margin(kind, side, w_lo, w_hi, before, after)
            if checked and margin is not None:
                note_margin(
                    margins, (component, kind, signal_name, case_index), margin
                )
    if not bad:
        return []
    out: list[Violation] = []
    if setup_side and setup_ps > 0:
        # "The data didn't go stable until 47.5 ns into the cycle and the
        # clock starts rising at 49.0, thereby missing the specified setup
        # interval of 2.5 ns by 1.0 ns" (Figure 3-11).  Data that is not
        # stable at all before the edge misses "by the full" setup time.
        missed = min(max(hi for _lo, hi, _v in setup_side) - w_lo, setup_ps)
        out.append(
            Violation(
                kind=ViolationKind.SETUP,
                component=component,
                signal=signal_name,
                clock=clock_name,
                required_ps=setup_ps,
                missed_by_ps=missed,
                window=(w_lo, r1),
                case_index=case_index,
                signal_waveform=datam,
                clock_waveform=clockm,
            )
        )
    if hold_side and w_hi > r0:
        missed = w_hi - min(lo for lo, _hi, _v in hold_side)
        if hold_ps > 0:
            missed = min(missed, hold_ps)
        out.append(
            Violation(
                kind=ViolationKind.HOLD,
                component=component,
                signal=signal_name,
                clock=clock_name,
                required_ps=hold_ps,
                missed_by_ps=missed,
                window=(r0, w_hi),
                case_index=case_index,
                signal_waveform=datam,
                clock_waveform=clockm,
            )
        )
    return out


def check_setup_hold_windows(
    component: str,
    signal_name: str,
    data: Waveform,
    clock_name: str,
    clock: Waveform,
    setup_eff_ps: int,
    hold_eff_ps: int,
    setup_req_ps: int,
    hold_req_ps: int,
    case_index: int = 0,
    clock_shift_ps: int = 0,
    margins: dict[MarginKey, int] | None = None,
) -> list[Violation]:
    """Setup/hold check with *independent* effective guard windows.

    The constrained form of :func:`check_setup_hold`: effective extents
    come from :meth:`CheckerMods.effective` and may differ wildly from the
    nominal values (a multicycle setup relaxation makes ``setup_eff``
    deeply negative on the folded axis).  The two sides are therefore
    checked as separate windows rather than one merged span:

    * setup window ``[r0 - setup_eff, r1]`` — only when ``setup_eff > 0``
      (a non-positive effective setup means the side is waived);
    * hold window ``[r0, r1 + hold_eff]`` — only when it has extent.

    ``clock_shift_ps`` (clock latency) moves the checker's view of the
    clock edges without touching the circuit fixed point.  The *reported*
    required times are the nominal ``setup_req``/``hold_req`` so messages
    stay meaningful to the designer.
    """
    out: list[Violation] = []
    if data.is_fully_unknown or clock.is_fully_unknown:
        return out
    clockm = clock.rotated(clock_shift_ps).materialized()
    edges = clockm.rising_windows()
    if not edges:
        out.append(
            Violation(
                kind=ViolationKind.NO_CLOCK_EDGE,
                component=component,
                signal=signal_name,
                clock=clock_name,
                case_index=case_index,
                clock_waveform=clockm,
            )
        )
        return out
    datam = data.materialized()
    for r0, r1 in edges:
        for lo, hi, kind, required in (
            (r0 - setup_eff_ps, r1, ViolationKind.SETUP, setup_req_ps),
            (r0, r1 + hold_eff_ps, ViolationKind.HOLD, hold_req_ps),
        ):
            if kind is ViolationKind.SETUP and setup_eff_ps <= 0:
                continue
            if hi <= lo:
                continue
            bad, before, after = datam.instability_scan(lo, hi)
            margin = _window_margin(kind, bad, lo, hi, before, after)
            if margins is not None and margin is not None:
                note_margin(
                    margins, (component, kind, signal_name, case_index), margin
                )
            if not bad:
                continue
            missed = min(-margin, hi - lo)
            out.append(
                Violation(
                    kind=kind,
                    component=component,
                    signal=signal_name,
                    clock=clock_name,
                    required_ps=required,
                    missed_by_ps=missed,
                    window=(lo, hi),
                    case_index=case_index,
                    signal_waveform=datam,
                    clock_waveform=clockm,
                )
            )
    return out


def check_recovery_removal(
    component: str,
    control_name: str,
    control: Waveform,
    clock_name: str,
    clock: Waveform,
    recovery_ps: int | None,
    removal_ps: int | None,
    case_index: int = 0,
) -> list[Violation]:
    """Recovery/removal check on an asynchronous SET/RESET overlay.

    The deasserting edge of an asynchronous control must not race the
    active clock edge: the control must be stable for ``recovery`` before
    each clock-edge window and stay stable for ``removal`` after it —
    exactly the setup/hold shape, applied to the control pin instead of
    the data pin.  The thesis's set/reset overlays (section 2.4.5) predate
    this vocabulary; the check is driven entirely by ``set_recovery`` /
    ``set_removal`` constraints.
    """
    out: list[Violation] = []
    if control.is_fully_unknown or clock.is_fully_unknown:
        return out
    clockm = clock.materialized()
    edges = clockm.rising_windows()
    if not edges:
        return out  # no-edge reporting belongs to the main setup/hold check
    controlm = control.materialized()
    for r0, r1 in edges:
        for lo, hi, kind, required in (
            (
                None if recovery_ps is None else r0 - recovery_ps,
                r1,
                ViolationKind.RECOVERY,
                recovery_ps,
            ),
            (
                r0,
                None if removal_ps is None else r1 + removal_ps,
                ViolationKind.REMOVAL,
                removal_ps,
            ),
        ):
            if lo is None or hi is None or required is None or hi <= lo:
                continue
            bad = controlm.instability_in(lo, hi)
            if not bad:
                continue
            if kind is ViolationKind.RECOVERY:
                missed = max(h for _l, h, _v in bad) - lo
            else:
                missed = hi - min(l for l, _h, _v in bad)
            out.append(
                Violation(
                    kind=kind,
                    component=component,
                    signal=control_name,
                    clock=clock_name,
                    required_ps=required,
                    missed_by_ps=min(missed, required),
                    window=(lo, hi),
                    case_index=case_index,
                    signal_waveform=controlm,
                    clock_waveform=clockm,
                )
            )
    return out


def check_max_time_borrow(
    component: str,
    signal_name: str,
    data: Waveform,
    clock_name: str,
    enable: Waveform,
    max_borrow_ps: int,
    case_index: int = 0,
) -> list[Violation]:
    """The ``set_max_time_borrow`` check on a transparent latch.

    While the latch is open (between the enable's rise and the next fall)
    late-arriving data "borrows" time from the transparency window.  The
    constraint caps that: data must settle within ``max_borrow`` of the
    latch opening, i.e. it must be stable throughout
    ``[r1 + max_borrow, f0]`` (from the worst-case end of the opening edge
    to the earliest start of the closing edge).
    """
    out: list[Violation] = []
    if data.is_fully_unknown or enable.is_fully_unknown:
        return out
    enablem = enable.materialized()
    rises = enablem.rising_windows()
    falls = enablem.falling_windows()
    if not rises or not falls:
        return out
    datam = data.materialized()
    period = enable.period
    for r0, r1 in rises:
        # Pair with the first fall at or after this rise, circularly — the
        # same pulse-pairing rule as check_setup_rise_hold_fall.
        def fall_key(fw: tuple[int, int]) -> int:
            return (fw[0] - r0) % period

        f0, _f1 = min(falls, key=fall_key)
        f0 = r0 + ((f0 - r0) % period)
        lo, hi = r1 + max_borrow_ps, f0
        if hi <= lo:
            continue
        bad = datam.instability_in(lo, hi)
        if not bad:
            continue
        borrowed = max(h for _l, h, _v in bad) - r1
        out.append(
            Violation(
                kind=ViolationKind.BORROW,
                component=component,
                signal=signal_name,
                clock=clock_name,
                required_ps=max_borrow_ps,
                actual_ps=borrowed,
                missed_by_ps=borrowed - max_borrow_ps,
                window=(lo, hi),
                case_index=case_index,
                signal_waveform=datam,
                clock_waveform=enablem,
            )
        )
    return out


def check_min_pulse_width(
    component: str,
    signal_name: str,
    signal: Waveform,
    min_high_ps: int | None,
    min_low_ps: int | None,
    case_index: int = 0,
    glitch_warnings: bool = True,
    margins: dict[MarginKey, int] | None = None,
) -> list[Violation]:
    """The MIN PULSE WIDTH checker (Figure 2-4).

    Works on the *nominal* waveform: separately-carried skew delays both
    pulse edges equally and must not narrow the pulse (the entire reason
    the skew field exists, section 2.8).  Skew already folded into
    RISE/FALL values *does* narrow the guaranteed level runs — exactly the
    pessimism the thesis describes for combined signals.

    Additionally flags level runs of CHANGE bounded by the same level on
    both sides as possible glitches (the Figure 1-5 hazard, when the runt
    pulse is entirely uncertain).
    """
    out: list[Violation] = []
    if signal.is_fully_unknown:
        return out
    for level, minimum, kind in (
        (ONE, min_high_ps, ViolationKind.MIN_PULSE_WIDTH_HIGH),
        (ZERO, min_low_ps, ViolationKind.MIN_PULSE_WIDTH_LOW),
    ):
        if minimum is None:
            continue
        for start, end in signal.level_runs(level):
            width = end - start
            if width >= signal.period:
                continue  # constant level: not a pulse
            if margins is not None:
                note_margin(
                    margins,
                    (component, kind, signal_name, case_index),
                    width - minimum,
                )
            if width < minimum:
                out.append(
                    Violation(
                        kind=kind,
                        component=component,
                        signal=signal_name,
                        required_ps=minimum,
                        actual_ps=width,
                        window=(start, end),
                        case_index=case_index,
                        signal_waveform=signal,
                    )
                )
    if glitch_warnings and (min_high_ps is not None or min_low_ps is not None):
        for start, end, vals, before, after in signal.materialized()._circular_runs(
            lambda v: v not in STABLE_VALUES and v is not UNKNOWN
        ):
            if before == after and before in (ZERO, ONE) and end > start:
                out.append(
                    Violation(
                        kind=ViolationKind.POSSIBLE_GLITCH,
                        component=component,
                        signal=signal_name,
                        window=(start, end),
                        case_index=case_index,
                        signal_waveform=signal,
                        note=(
                            "signal may pulse away from its resting level "
                            "within this window; pulse width cannot be "
                            "guaranteed"
                        ),
                    )
                )
    return out


def check_gating_stability(
    component: str,
    control_name: str,
    control: Waveform,
    clock_name: str,
    clock: Waveform,
    case_index: int = 0,
) -> list[Violation]:
    """The ``&A``/``&H`` directive check (section 2.6).

    Every control signal gated with a clock must be stable during the
    entire interval in which the clock is asserted, so that the gate output
    is either a clean clock pulse or no pulse at all — never a runt pulse
    clocking a register unexpectedly (the Figure 1-5 hazard).
    """
    out: list[Violation] = []
    if control.is_fully_unknown or clock.is_fully_unknown:
        return out
    clockm = clock.materialized()
    controlm = control.materialized()
    from .values import CHANGING_VALUES

    # The asserted window is everywhere the clock *may* be high: each
    # guaranteed-high run together with the transition windows flanking it
    # (the clock may already be high during its rise window).
    maybe_high = clockm._circular_runs(
        lambda v: v is ONE or v in CHANGING_VALUES
    )
    for lo, hi, vals, _before, _after in maybe_high:
        if ONE not in vals or hi - lo >= clock.period:
            continue
        bad = controlm.instability_in(lo, hi)
        if bad:
            out.append(
                Violation(
                    kind=ViolationKind.GATING_STABILITY,
                    component=component,
                    signal=control_name,
                    clock=clock_name,
                    window=(lo, hi),
                    case_index=case_index,
                    signal_waveform=controlm,
                    clock_waveform=clockm,
                )
            )
    return out


def check_stable_assertion(
    signal_name: str,
    computed: Waveform,
    asserted: Waveform,
    case_index: int = 0,
) -> list[Violation]:
    """Check a generated signal against its designer stable assertion.

    Section 2.5.2: "the designer's initial timing assertion is checked
    against the timing of the actual signal, and an error is given if the
    assertion is violated."  The computed signal must be stable throughout
    every STABLE range of the assertion.
    """
    out: list[Violation] = []
    if computed.is_fully_unknown:
        return out
    from .values import STABLE

    for start, end in asserted.level_runs(STABLE):
        bad = computed.instability_in(start, end)
        if bad:
            out.append(
                Violation(
                    kind=ViolationKind.ASSERTION_MISMATCH,
                    component="assertion",
                    signal=signal_name,
                    window=(bad[0][0], bad[-1][1]),
                    case_index=case_index,
                    signal_waveform=computed.materialized(),
                    note=(
                        "asserted stable "
                        f"{start / 1000:.1f}..{end / 1000:.1f} ns but may change"
                    ),
                )
            )
    return out
