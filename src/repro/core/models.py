"""Behavioural models of the Timing Verifier primitives (section 2.4).

Each model maps full-period input waveforms to full-period output waveforms.
Models receive inputs that the engine has already prepared (interconnection
delay applied, complements taken, evaluation directives consumed) and apply
the component's own propagation delay themselves.

The register and latch models follow Figures 2-1 and 2-2: the output is set
to CHANGE during the interval after the clock edge determined by the
component's minimum and maximum delays, and to the captured data value — or
STABLE when the data is not a known constant at the edge — for the rest of
the cycle.  Capturing STABLE rather than UNKNOWN is what lets the fixed
point converge from the all-UNKNOWN initial state without ever learning
signal values (section 2.9).
"""

from __future__ import annotations

from typing import Callable, Sequence

from .algebra import combine, pointwise, wave_and, wave_chg, wave_or, wave_xor
from .values import (
    CHANGE,
    CONSTANT_VALUES,
    FALL,
    ONE,
    RISE,
    STABLE,
    UNKNOWN,
    ZERO,
    Value,
    is_changing,
    is_constant,
    is_stable,
    value_either,
    value_not,
)
from .waveform import Waveform

GateFn = Callable[[Sequence[Waveform]], Waveform]

GATE_FUNCTIONS: dict[str, GateFn] = {
    "AND": wave_and,
    "NAND": wave_and,
    "OR": wave_or,
    "NOR": wave_or,
    "XOR": wave_xor,
    "XNOR": wave_xor,
    "CHG": wave_chg,
    "BUF": lambda wfs: wfs[0],
    "NOT": lambda wfs: wfs[0],
    "DELAY": lambda wfs: wfs[0],
}

#: The input level that makes a gate transparent to its remaining input —
#: assumed for the other inputs under the ``&A``/``&H`` directives
#: (section 2.6: "assume that the other inputs are enabling the gate").
ENABLING_LEVEL: dict[str, Value] = {
    "AND": ONE,
    "NAND": ONE,
    "OR": ZERO,
    "NOR": ZERO,
    "XOR": ZERO,
    "XNOR": ZERO,
}


def eval_gate(
    prim_name: str,
    inputs: Sequence[Waveform],
    delay: tuple[int, int],
    inverting: bool,
) -> Waveform:
    """Evaluate a combinational gate or the CHG function.

    ``inputs`` are the prepared input waveforms; ``delay`` is the effective
    gate delay in picoseconds (already zeroed by a ``Z``/``H`` directive if
    one applied); ``inverting`` complements the result (NAND/NOR/XNOR/NOT).
    """
    fn = GATE_FUNCTIONS[prim_name]
    out = fn(list(inputs))
    if inverting:
        out = out.mapped(value_not)
    return out.delayed(*delay)


def mux_value(sel: Sequence[Value], data: Sequence[Value]) -> Value:
    """The multiplexer output value for one time instant.

    With constant select lines the addressed input passes through.  With
    stable-but-unknown selects the output is *some* fixed input —
    ``value_either`` over the candidates.  A changing select may switch the
    output between inputs, which is only harmless when every input carries
    the same known constant.
    """
    if any(v is UNKNOWN for v in sel):
        return UNKNOWN
    if all(is_constant(v) for v in sel):
        index = 0
        for bit, v in enumerate(sel):
            if v is ONE:
                index |= 1 << bit
        return data[index]
    candidates = list(data)
    folded = candidates[0]
    for v in candidates[1:]:
        folded = value_either(folded, v)
    if all(is_stable(v) or is_constant(v) for v in sel):
        # Selection is frozen for the whole cycle; output is one input.
        return folded
    # Select lines are moving: the output can hop between inputs.
    if all(is_constant(v) for v in candidates) and len(set(candidates)) == 1:
        return candidates[0]
    if folded is UNKNOWN:
        return UNKNOWN
    return CHANGE


def eval_mux(
    selects: Sequence[Waveform],
    data: Sequence[Waveform],
    delay: tuple[int, int],
    select_delay: tuple[int, int],
) -> Waveform:
    """Evaluate an N-way multiplexer (Figure 3-6).

    The select input may carry an additional delay on top of the data-path
    delay, as in the 2-input multiplexer chip definition (0.3/1.2 ns extra
    on ``S``).
    """
    n_sel = len(selects)
    shifted_sel = [s.delayed(*select_delay) for s in selects]

    def fn(vals: Sequence[Value]) -> Value:
        return mux_value(vals[:n_sel], vals[n_sel:])

    out = combine(fn, [*shifted_sel, *data])
    return out.delayed(*delay)


# ---------------------------------------------------------------------------
# storage elements
# ---------------------------------------------------------------------------


def _captured_value(data: Waveform, window: tuple[int, int]) -> Value:
    """The value a storage element captures over a clock-edge window.

    A known constant throughout the window is captured exactly; anything
    else — STABLE, changing data (a separate checker reports the setup
    violation), or UNKNOWN — captures STABLE (Figure 2-1: "unless the DATA
    input is a true or false during the rising edge of CLOCK, the output
    will be set to the STABLE value for the rest of the cycle").
    """
    lo, hi = window
    seen = data.materialized().values_in_window(lo, hi)
    if len(seen) == 1:
        v = seen.pop()
        if v in CONSTANT_VALUES:
            return v
    return STABLE


def _paint_clocked_output(
    period: int,
    edges: list[tuple[int, int]],
    captured: list[Value],
    delay: tuple[int, int],
) -> Waveform:
    """Build the output waveform of an edge-triggered element.

    ``edges`` are the clock's rising windows; each produces a CHANGE
    interval ``[window_start + dmin, window_end + dmax]`` and the matching
    captured value holds from there until the next edge's CHANGE interval
    begins (wrapping around the period).
    """
    dmin, dmax = delay
    if not edges:
        return Waveform.constant(period, STABLE)
    starts = [lo + dmin for lo, _hi in edges]
    ends = [hi + dmax for _lo, hi in edges]
    intervals: list[tuple[int, int, Value]] = []
    n = len(edges)
    for k in range(n):
        next_start = starts[(k + 1) % n]
        while next_start <= ends[k]:
            next_start += period
        intervals.append((ends[k], next_start, captured[k]))
    for k in range(n):
        # Keep the change observable even with a sharp clock and a fixed
        # delay: an instantaneous S-to-S transition would otherwise vanish
        # from the canonical representation.
        span = min(max(ends[k] - starts[k], 1), period)
        intervals.append((starts[k], starts[k] + span, CHANGE))
    return Waveform.from_intervals(period, captured[-1], intervals)


def _sr_inactive(ctl: Waveform | None) -> bool:
    """True when an asynchronous SET/RESET control is tied inactive.

    A constant-ZERO control stays constant ZERO through the delay and the
    skew fold, and ``_sr_overlay_value(base, ZERO, ZERO)`` is ``base``, so
    the whole overlay is the identity and may be skipped.  Any control that
    could ever leave ZERO takes the full overlay path — worst-case is
    always safe; optimism is a bug.
    """
    return ctl is None or (ctl.is_constant and ctl.segments[0][0] is ZERO)


def _sr_overlay_value(base: Value, s: Value, r: Value) -> Value:
    """Apply the asynchronous SET/RESET behaviour of Figure 2-1 at an instant.

    Both inactive: clocked behaviour.  SET alone forces 1; RESET alone
    forces 0; both asserted give UNDEFINED; changing controls give CHANGE;
    stable-but-unknown controls leave the output possibly overridden.
    """
    if s is UNKNOWN or r is UNKNOWN:
        return UNKNOWN
    if s is ZERO and r is ZERO:
        return base
    if s is ONE and r is ONE:
        return UNKNOWN
    if s is ONE and r is ZERO:
        return ONE
    if r is ONE and s is ZERO:
        return ZERO
    if is_changing(s) or is_changing(r):
        return CHANGE
    # At least one control is STABLE: it may or may not be asserted.
    out = base
    if s in (STABLE, ONE):
        out = value_either(out, ONE)
    if r in (STABLE, ONE):
        out = value_either(out, ZERO)
    return out


def eval_register(
    clock: Waveform,
    data: Waveform,
    delay: tuple[int, int],
    set_: Waveform | None = None,
    reset: Waveform | None = None,
) -> Waveform:
    """Evaluate the edge-triggered register models of Figure 2-1."""
    period = clock.period
    if clock.is_fully_unknown:
        base = Waveform.constant(period, UNKNOWN)
    else:
        clkm = clock.materialized()
        edges = clkm.rising_windows()
        captured = [_captured_value(data, window) for window in edges]
        base = _paint_clocked_output(period, edges, captured, delay)
    if _sr_inactive(set_) and _sr_inactive(reset):
        return base
    setm = (set_ or Waveform.constant(period, ZERO)).delayed(*delay).materialized()
    resetm = (reset or Waveform.constant(period, ZERO)).delayed(*delay).materialized()
    return pointwise(
        lambda vals: _sr_overlay_value(vals[0], vals[1], vals[2]),
        [base.with_skew((0, 0)), setm, resetm],
    )


def _latch_value(en: Value, d: Value, held: Value) -> Value:
    """The transparent-latch output at one instant (Figure 2-2).

    ``en`` is the (materialized, delayed) enable, ``d`` the delayed data,
    ``held`` the value captured at the most recent enable falling edge.
    """
    if en is UNKNOWN:
        return UNKNOWN
    if en is ONE:
        return d
    if en is ZERO:
        return held
    if en is RISE or en is CHANGE:
        # The latch may be opening: output may step to the new data value.
        if d is UNKNOWN or held is UNKNOWN:
            return UNKNOWN
        if is_constant(d) and d == held:
            return d
        return CHANGE
    if en is FALL:
        # Closing: the output was already following the data; latching a
        # stable value causes no output transition.
        if d is UNKNOWN:
            return UNKNOWN
        return d if is_stable(d) else CHANGE
    # en is STABLE: the latch is frozen open or closed, we don't know which,
    # but the enable is not moving within the cycle.
    if d is UNKNOWN or held is UNKNOWN:
        return UNKNOWN
    if is_stable(d) and is_stable(held):
        return d if (is_constant(d) and d == held) else STABLE
    return CHANGE


def eval_latch(
    enable: Waveform,
    data: Waveform,
    delay: tuple[int, int],
    set_: Waveform | None = None,
    reset: Waveform | None = None,
) -> Waveform:
    """Evaluate the latch models of Figure 2-2."""
    period = enable.period
    if enable.is_fully_unknown:
        base = Waveform.constant(period, UNKNOWN)
    else:
        enm = enable.delayed(*delay).materialized()
        dm = data.delayed(*delay).materialized()
        falls = enm.falling_windows()
        if falls:
            captured = [_captured_value(dm, window) for window in falls]
            intervals: list[tuple[int, int, Value]] = []
            n = len(falls)
            for k in range(n):
                start = falls[k][1]
                end = falls[(k + 1) % n][1]
                while end <= start:
                    end += period
                intervals.append((start, end, captured[k]))
            held_wf = Waveform.from_intervals(period, captured[-1], intervals)
        else:
            held_wf = Waveform.constant(period, STABLE)
        base = pointwise(
            lambda vals: _latch_value(vals[0], vals[1], vals[2]),
            [enm, dm, held_wf],
        )
        # Opening transitions at sharp enable edges are instantaneous and
        # would vanish from the canonical segment list; paint an explicit
        # (at least 1 ps) CHANGE window unless data and held value are the
        # same known constant.
        paints: list[tuple[int, int, Value]] = []
        for r0, r1 in enm.rising_windows():
            if r1 > r0:
                continue  # a widened window: the sweep already saw RISE
            d_vals = dm.values_in_window(r0, r1)
            h_vals = held_wf.values_in_window(r0, r1)
            if (
                d_vals == h_vals
                and len(d_vals) == 1
                and next(iter(d_vals)) in CONSTANT_VALUES
            ):
                continue
            value = (
                UNKNOWN if UNKNOWN in (d_vals | h_vals) else CHANGE
            )
            paints.append((r0, r0 + 1, value))
        base = base.overlaid(paints)
    if _sr_inactive(set_) and _sr_inactive(reset):
        return base
    setm = (set_ or Waveform.constant(period, ZERO)).delayed(*delay).materialized()
    resetm = (reset or Waveform.constant(period, ZERO)).delayed(*delay).materialized()
    return pointwise(
        lambda vals: _sr_overlay_value(vals[0], vals[1], vals[2]),
        [base.with_skew((0, 0)), setm, resetm],
    )
