"""Different rising and falling delays (section 4.2.2 — future work).

nMOS-style technologies have greatly differing rising and falling delays,
and "it is overly pessimistic to just use the longer of the two delays".
The thesis sketches the solution implemented here:

* where the signal's *level* is known (clocks and case-mapped controls),
  each edge is delayed by its own range — a rising edge by the rise delay,
  a falling edge by the fall delay;
* where it is not (STABLE/CHANGE signals), the conservative combined range
  ``(min(rise, fall), max(rise, fall))`` applies — "in all cases except for
  multiple inverting levels of logic, merely using the maximum of the
  rising and falling delays is the correct choice";
* inverting gates swap the roles: an input rise causes an output *fall*,
  so the engine applies the fall delay to it — the "recognize multiple
  inverting levels and adjust" rule.

Gates take the optional ``rise_delay``/``fall_delay`` parameters; when
present they replace the symmetric ``delay``.
"""

from __future__ import annotations

from .values import (
    CHANGE,
    FALL,
    RISE,
    UNKNOWN,
    Value,
)
from .waveform import Waveform

Delay = tuple[int, int]


def combined_range(rise: Delay, fall: Delay) -> Delay:
    """The value-independent fallback range."""
    return (min(rise[0], fall[0]), max(rise[1], fall[1]))


def rise_fall_delayed(wf: Waveform, rise: Delay, fall: Delay) -> Waveform:
    """Propagate a waveform through an element with per-edge delay ranges.

    Known-level waveforms get each boundary delayed by its own range; each
    boundary becomes an explicit transition window (like folded skew), so
    the result carries no separate skew field.  Waveforms containing
    STABLE/CHANGE/UNKNOWN fall back to the symmetric combined range with
    the ordinary skew-field treatment.

    Edge windows that cross (a short pulse whose slow leading edge may
    overtake its fast trailing edge) merge into CHANGE — the pulse may
    vanish, which is exactly what a worst-case analysis must report.
    """
    if rise == fall:
        return wf.delayed(*rise)
    if wf.is_constant:
        return wf
    known = all(
        v in (Value.ZERO, Value.ONE, RISE, FALL) for v, _w in wf.segments
    )
    if not known or wf.has_skew:
        return wf.delayed(*combined_range(rise, fall))

    # Each edge *window* (an instantaneous boundary or an R/F segment)
    # moves as a unit: its start by the direction's minimum delay and its
    # end by the maximum.
    events = []
    for a, b in wf.rising_windows():
        events.append((a + rise[0], b + rise[1], RISE, Value.ONE))
    for a, b in wf.falling_windows():
        events.append((a + fall[0], b + fall[1], FALL, Value.ZERO))
    if not events:
        return wf
    events.sort()
    period = wf.period
    intervals: list[tuple[int, int, Value]] = []
    n = len(events)
    for k, (e_lo, e_hi, tv, after) in enumerate(events):
        nxt_lo = events[(k + 1) % n][0]
        while nxt_lo <= e_hi:
            nxt_lo += period
        # Level segment after this edge settles, then the next edge window.
        intervals.append((e_hi, nxt_lo, after))
    for e_lo, e_hi, tv, _after in events:
        span = max(e_hi - e_lo, 1)
        intervals.append((e_lo, e_lo + min(span, period), tv))
    out = Waveform.from_intervals(period, events[-1][3], intervals)
    # Crossed windows: when the next edge's window opens before this one
    # closes, the order of the edges is uncertain and the pulse between
    # them may vanish — mark the overlap CHANGE.
    crossings: list[tuple[int, int, Value]] = []
    for k in range(n):
        e_lo, e_hi = events[k][0], events[k][1]
        nxt_lo = events[(k + 1) % n][0]
        while nxt_lo <= e_lo:
            nxt_lo += period
        if nxt_lo < e_hi:
            crossings.append((nxt_lo, e_hi, CHANGE))
    if crossings:
        out = out.overlaid(crossings)
    return out


def invert_roles(rise: Delay, fall: Delay) -> tuple[Delay, Delay]:
    """Delay roles through an inverting gate: input rise -> output fall."""
    return fall, rise
