"""Periodic signal-value waveforms (sections 2.8 and 2.9, Figure 2-7).

The Timing Verifier represents the value of each signal over one circuit
clock period as a linked list of ``(value, width)`` records whose widths sum
exactly to the period.  This module implements that representation as an
immutable :class:`Waveform`, together with the two companion fields the
thesis stores in the ``VALUE BASE`` record:

* the **skew** field — when a signal is merely *delayed* by a variable
  amount (a gate with distinct min and max delays), the uncertainty is kept
  in a separate field rather than being folded into RISE/FALL values, so
  that pulse *widths* are preserved (Figure 2-8).  Only when two or more
  changing signals are combined is the skew folded into the value list using
  the RISE/FALL/CHANGE values (Figure 2-9); and

* the **evaluation string pointer** — the remaining evaluation-directive
  letters (section 2.6) that ride along with a signal value, one letter per
  subsequent level of gating.

All times are integer picoseconds; all interval arithmetic is modulo the
period.  Waveforms are canonical (no zero-width or mergeable adjacent
segments), so the evaluation engine can detect convergence with ``==``.
"""

from __future__ import annotations

import heapq
import weakref
from bisect import bisect_right
from typing import Callable, Iterable, Iterator, Sequence

from .timeline import wrap_interval
from .values import (
    CHANGE,
    CHANGING_VALUES,
    FALL,
    RISE,
    STABLE,
    STABLE_VALUES,
    UNKNOWN,
    Value,
    transition_value,
)

Segment = tuple[Value, int]
Skew = tuple[int, int]

#: Values that may conceal a rising edge / a falling edge.
_MAY_RISE = frozenset({RISE, CHANGE})
_MAY_FALL = frozenset({FALL, CHANGE})


def _canonicalize(period: int, segments: Iterable[Segment]) -> tuple[Segment, ...]:
    """Drop zero-width segments and merge adjacent equal values.

    The result is the unique minimal representation anchored at time zero;
    note that the first and last segments may legitimately share a value
    (the anchor at ``t = 0`` keeps the representation unambiguous).
    """
    merged: list[list] = []
    total = 0
    for value, width in segments:
        if width < 0:
            raise ValueError(f"negative segment width {width}")
        if width == 0:
            continue
        total += width
        if merged and merged[-1][0] == value:
            merged[-1][1] += width
        else:
            merged.append([value, width])
    if total != period:
        raise ValueError(
            f"segment widths sum to {total} ps but the period is {period} ps"
        )
    return tuple((v, w) for v, w in merged)


def _sweep_max_rank(
    cuts: Sequence[int],
    pieces: Sequence[tuple[int, int, int, Value]],
    base_value_at: Callable[[int], Value],
) -> list[Segment]:
    """Paint rank-prioritized ``(lo, hi, rank, value)`` pieces over a base.

    One sorted sweep over ``cuts`` with a max-rank heap (lazy deletion)
    replaces the former O(cuts x pieces) scan: at each cut the covering
    piece with the highest rank wins, exactly as "later intervals override
    earlier ones".  ``cuts`` must be sorted and include every piece
    endpoint plus 0 and the period.
    """
    starts: dict[int, list[tuple[int, int, int, Value]]] = {}
    for seq, (lo, hi, rank, value) in enumerate(pieces):
        # (-rank, hi, seq) orders the heap by descending rank; seq breaks
        # ties so Value (which has no ordering) is never compared.
        starts.setdefault(lo, []).append((-rank, hi, seq, value))
    heap: list[tuple[int, int, int, Value]] = []
    segs: list[Segment] = []
    for lo, hi in zip(cuts, cuts[1:]):
        for entry in starts.get(lo, ()):
            heapq.heappush(heap, entry)
        while heap and heap[0][1] <= lo:
            heapq.heappop(heap)
        value = heap[0][3] if heap else base_value_at(lo)
        segs.append((value, hi - lo))
    return segs


class InternTable:
    """A hash-cons table for waveforms, owned by one verification session.

    Each :class:`~repro.core.engine.Engine` (and therefore each
    :class:`repro.session.Session`) owns its own table, so cross-run
    interning within a session is deterministic: waveforms stay shared
    exactly as long as the session keeps them alive, instead of depending
    on whether the garbage collector has emptied a process-global table
    between back-to-back API runs.  The table holds weak references only,
    so interning never leaks retired values.

    The engine's hot path reads :attr:`table` directly (one dict probe,
    the counters living in :class:`~repro.core.engine.EngineStats`);
    :meth:`intern` is the convenience entry point for everything else.
    """

    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table: "weakref.WeakValueDictionary[tuple, Waveform]" = (
            weakref.WeakValueDictionary()
        )

    def intern(self, wf: "Waveform") -> "Waveform":
        """The canonical shared instance equal to ``wf`` in this table."""
        key = wf.canonical_key
        existing = self.table.get(key)
        if existing is not None:
            return existing
        self.table[key] = wf
        return wf

    def __len__(self) -> int:
        return len(self.table)


#: The process-global weak-value intern table.  Kept for
#: :meth:`Waveform.intern` (the pickle-restore path must intern into a
#: table shared by every engine in the process) — run-scoped interning
#: goes through a session-owned :class:`InternTable` instead.
_INTERN_TABLE: "weakref.WeakValueDictionary[tuple, Waveform]" = (
    weakref.WeakValueDictionary()
)


def _restore_waveform(
    period: int, segments: tuple, skew: "Skew", eval_str: str
) -> "Waveform":
    """Unpickle hook: rebuild through the constructor, then intern.

    The constructor cannot be pickle's state-restore path (the
    ``__slots__`` + ``__setattr__`` immutability guard rejects the default
    per-slot ``setattr`` walk), and the rebuilt instance must re-enter the
    intern table so that a waveform unpickled into a process that already
    holds an equal value shares that value's identity — the engine's
    identity-first convergence test and the cached derived forms stay
    sound across process boundaries.
    """
    return Waveform(period, segments, skew=skew, eval_str=eval_str).intern()


class Waveform:
    """The value of one signal over one clock period.

    Instances are immutable; all transforming methods return new waveforms.

    Attributes:
        period: the circuit clock period in picoseconds.
        segments: canonical ``(value, width_ps)`` tuple summing to ``period``.
        skew: ``(early, late)`` correlated shift uncertainty in picoseconds,
            with ``early <= 0 <= late``.  Every transition in the nominal
            segment list actually occurs somewhere in
            ``[t + early, t + late]``; the *whole waveform shifts together*,
            which is what preserves pulse widths.
        eval_str: remaining evaluation-directive letters (section 2.6).
    """

    __slots__ = (
        "period",
        "segments",
        "skew",
        "eval_str",
        "_starts",
        "_boundaries",
        "_materialized",
        "_hash",
        "__weakref__",
    )

    def __init__(
        self,
        period: int,
        segments: Iterable[Segment],
        skew: Skew = (0, 0),
        eval_str: str = "",
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        early, late = skew
        if early > 0 or late < 0:
            raise ValueError(f"skew must satisfy early <= 0 <= late, got {skew}")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "segments", _canonicalize(period, segments))
        object.__setattr__(self, "skew", (early, late))
        object.__setattr__(self, "eval_str", eval_str)
        starts = []
        t = 0
        for _, width in self.segments:
            starts.append(t)
            t += width
        object.__setattr__(self, "_starts", tuple(starts))
        # Lazily computed derived forms, cached on the immutable instance
        # (and therefore shared between every user of an interned waveform).
        object.__setattr__(self, "_boundaries", None)
        object.__setattr__(self, "_materialized", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Waveform is immutable")

    @property
    def canonical_key(self) -> tuple:
        """The four canonical fields as an intern/dedup key.

        Two waveforms are equal exactly when their keys are; the intern
        tables and the parallel pool's digest codec both key on it.  (The
        engine's hottest store path still inlines the tuple.)
        """
        return (self.period, self.segments, self.skew, self.eval_str)

    def __reduce__(self):
        # The four canonical fields fully determine the value; the lazily
        # cached derived forms are recomputed (or inherited from an equal
        # interned instance) on the other side.
        return _restore_waveform, (
            self.period, self.segments, self.skew, self.eval_str
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, period: int, value: Value, eval_str: str = "") -> "Waveform":
        """A waveform holding ``value`` for the whole period."""
        return cls(period, [(value, period)], eval_str=eval_str)

    def intern(self) -> "Waveform":
        """The canonical shared instance equal to this waveform.

        Hash-consing: equal waveforms intern to one instance, so converged-
        value comparison degenerates to an identity check and the cached
        derived forms (:meth:`materialized`, :meth:`boundaries`, the hash)
        are computed once per distinct value instead of once per copy.  The
        table holds weak references only, so interning never leaks retired
        values.
        """
        key = (self.period, self.segments, self.skew, self.eval_str)
        existing = _INTERN_TABLE.get(key)
        if existing is not None:
            return existing
        _INTERN_TABLE[key] = self
        return self

    @classmethod
    def from_intervals(
        cls,
        period: int,
        base: Value,
        intervals: Sequence[tuple[int, int, Value]],
        skew: Skew = (0, 0),
        eval_str: str = "",
    ) -> "Waveform":
        """Paint ``(start, end, value)`` intervals over a ``base`` value.

        Interval times may lie outside ``[0, period)`` and may wrap; later
        intervals override earlier ones where they overlap.  ``end`` must
        not precede ``start``.
        """
        pieces: list[tuple[int, int, int, Value]] = []
        for rank, (start, end, value) in enumerate(intervals):
            for lo, hi in wrap_interval(start, end, period):
                pieces.append((lo, hi, rank, value))
        cuts = sorted({0, period, *(p[0] for p in pieces), *(p[1] for p in pieces)})
        segs = _sweep_max_rank(cuts, pieces, lambda _t: base)
        return cls(period, segs, skew=skew, eval_str=eval_str)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def has_skew(self) -> bool:
        return self.skew != (0, 0)

    @property
    def is_constant(self) -> bool:
        """True when the signal never changes over the period."""
        return len(self.segments) == 1

    def value_at(self, t: int) -> Value:
        """The nominal value at time ``t`` (taken modulo the period)."""
        t %= self.period
        # _starts[0] is always 0, so the bisect index is always >= 1.
        return self.segments[bisect_right(self._starts, t) - 1][0]

    def iter_segments(self) -> Iterator[tuple[int, int, Value]]:
        """Yield ``(start, end, value)`` for each canonical segment."""
        for start, (value, width) in zip(self._starts, self.segments):
            yield start, start + width, value

    def boundaries(self) -> tuple[tuple[int, Value, Value], ...]:
        """All value-change boundaries as ``(time, before, after)``.

        Includes the wrap boundary at time zero when the last and first
        segments differ (signals are periodic, section 2.1).  Computed once
        and cached on the immutable instance.
        """
        cached = self._boundaries
        if cached is not None:
            return cached
        out: list[tuple[int, Value, Value]] = []
        n = len(self.segments)
        if n > 1:
            last_value = self.segments[-1][0]
            first_value = self.segments[0][0]
            if last_value != first_value:
                out.append((0, last_value, first_value))
            for i in range(n - 1):
                t = self._starts[i + 1]
                out.append((t, self.segments[i][0], self.segments[i + 1][0]))
        result = tuple(out)
        object.__setattr__(self, "_boundaries", result)
        return result

    def next_boundary_after(self, t: int) -> int | None:
        """The first absolute time strictly after ``t`` at which the value
        changes, or None for a constant waveform.  Boundaries repeat every
        period, so the result is at most ``t + period``."""
        times = [b for b, _before, _after in self.boundaries()]
        if not times:
            return None
        best = None
        for b in times:
            delta = (b - t) % self.period
            if delta == 0:
                delta = self.period
            if best is None or delta < best:
                best = delta
        return t + best  # type: ignore[operator]

    def values_in_window(self, lo: int, hi: int) -> set[Value]:
        """All values the signal takes in the closed interval ``[lo, hi]``."""
        if hi < lo:
            raise ValueError("window end precedes start")
        if hi - lo >= self.period:
            return {v for v, _ in self.segments}
        seen: set[Value] = set()
        t = lo
        while True:
            seen.add(self.value_at(t))
            nxt = self.next_boundary_after(t)
            if nxt is None or nxt > hi:
                break
            t = nxt
        return seen

    def values_present(self) -> frozenset[Value]:
        """The set of values appearing anywhere in the period."""
        return frozenset(v for v, _ in self.segments)

    def contains(self, value: Value) -> bool:
        return any(v == value for v, _ in self.segments)

    @property
    def is_fully_unknown(self) -> bool:
        """True when the signal is UNKNOWN for the entire period."""
        return self.is_constant and self.segments[0][0] is UNKNOWN

    def duration_of(self, value: Value) -> int:
        """Total picoseconds spent at ``value`` over one period."""
        return sum(w for v, w in self.segments if v == value)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------

    def _replace(
        self,
        segments: Iterable[Segment] | None = None,
        skew: Skew | None = None,
        eval_str: str | None = None,
    ) -> "Waveform":
        return Waveform(
            self.period,
            list(segments) if segments is not None else list(self.segments),
            skew=skew if skew is not None else self.skew,
            eval_str=eval_str if eval_str is not None else self.eval_str,
        )

    def with_eval_str(self, eval_str: str) -> "Waveform":
        if eval_str == self.eval_str:
            return self
        return self._replace(eval_str=eval_str)

    def with_skew(self, skew: Skew) -> "Waveform":
        if tuple(skew) == self.skew:
            return self
        return self._replace(skew=skew)

    def rotated(self, dt: int) -> "Waveform":
        """Shift the waveform later in time by ``dt`` ps (modulo the period).

        ``result.value_at(t) == self.value_at(t - dt)``.
        """
        dt %= self.period
        if dt == 0 or self.is_constant:
            return self
        # Rebuild the segment list so that it is anchored at the new time 0.
        events = sorted(
            ((start + dt) % self.period, value)
            for start, _, value in self.iter_segments()
        )
        segs: list[Segment] = []
        head_value: Value | None = None
        if events[0][0] != 0:
            # The segment containing the new time 0 started before it.
            head_value = self.value_at(-dt % self.period)
            segs.append((head_value, events[0][0]))
        for (start, value), nxt in zip(events, events[1:] + [(self.period, None)]):
            segs.append((value, nxt[0] - start))
        return self._replace(segments=segs)

    def delayed(self, dmin: int, dmax: int) -> "Waveform":
        """Propagate through an element with delay in ``[dmin, dmax]`` ps.

        Per section 2.8 (Figure 2-8): the value list is shifted by the
        *minimum* delay and the difference ``dmax - dmin`` is added to the
        skew field, preserving pulse-width information.
        """
        if dmin < 0 or dmax < dmin:
            raise ValueError(f"bad delay range [{dmin}, {dmax}]")
        early, late = self.skew
        return self.rotated(dmin).with_skew((early, late + (dmax - dmin)))

    def mapped(self, fn: Callable[[Value], Value]) -> "Waveform":
        """Apply a per-value function (e.g. NOT) pointwise."""
        return self._replace(segments=[(fn(v), w) for v, w in self.segments])

    def overlaid(self, intervals: Sequence[tuple[int, int, Value]]) -> "Waveform":
        """Paint ``(start, end, value)`` intervals over this waveform.

        Later intervals win where they overlap, and all of them override
        the underlying values.  Times may wrap; skew and eval string are
        preserved.
        """
        if not intervals:
            return self
        pieces: list[tuple[int, int, int, Value]] = []
        for rank, (start, end, value) in enumerate(intervals):
            for lo, hi in wrap_interval(start, end, self.period):
                pieces.append((lo, hi, rank, value))
        cuts = sorted(
            {0, self.period, *self._starts,
             *(p[0] for p in pieces), *(p[1] for p in pieces)}
        )
        segs = _sweep_max_rank(cuts, pieces, self.value_at)
        return self._replace(segments=segs)

    # ------------------------------------------------------------------
    # skew folding (Figures 2-8 / 2-9)
    # ------------------------------------------------------------------

    def materialized(self) -> "Waveform":
        """Fold the skew field into the value list.

        Every nominal boundary at time ``t`` is widened into the interval
        ``[t + early, t + late]`` holding the boundary's transition value
        (RISE, FALL, CHANGE or UNKNOWN); overlapping widened boundaries
        combine worst-case.  The result carries zero skew.  This is the
        representation shown in Figure 2-9 for the output signal Z.
        """
        cached = self._materialized
        if cached is not None:
            return cached
        if not self.has_skew:
            object.__setattr__(self, "_materialized", self)
            return self
        if self.is_constant:
            # A constant shifted by any amount is still the same constant.
            out = self.with_skew((0, 0))
        else:
            out = self._materialize_sweep()
        object.__setattr__(self, "_materialized", out)
        # The folded form is its own fixed point; share the cache slot.
        if out._materialized is None:
            object.__setattr__(out, "_materialized", out)
        return out

    def _materialize_sweep(self) -> "Waveform":
        """One sorted-event sweep computing the skew-folded value list.

        Replaces the former O(cuts x overlays) covering scan.  The fold of
        overlapping overlays (``merge_overlay``) is commutative and
        associative — any UNKNOWN dominates, identical overlays merge, and
        any other mixture is CHANGE — so a multiset of the currently active
        overlay values is enough to produce the identical result.
        """
        early, late = self.skew
        overlays: list[tuple[int, int, Value]] = []  # non-wrapping pieces
        for t, before, after in self.boundaries():
            ov = transition_value(before, after)
            for lo, hi in wrap_interval(t + early, t + late, self.period):
                overlays.append((lo, hi, ov))
        cuts = sorted(
            {
                0,
                self.period,
                *self._starts,
                *(o[0] for o in overlays),
                *(o[1] for o in overlays),
            }
        )
        starts: dict[int, list[Value]] = {}
        ends: dict[int, list[Value]] = {}
        for lo, hi, ov in overlays:
            starts.setdefault(lo, []).append(ov)
            ends.setdefault(hi, []).append(ov)
        active: dict[Value, int] = {}
        segs: list[Segment] = []
        for lo, hi in zip(cuts, cuts[1:]):
            for ov in ends.get(lo, ()):
                count = active[ov] - 1
                if count:
                    active[ov] = count
                else:
                    del active[ov]
            for ov in starts.get(lo, ()):
                active[ov] = active.get(ov, 0) + 1
            if not active:
                value = self.value_at(lo)
            elif UNKNOWN in active:
                value = UNKNOWN
            elif len(active) == 1:
                value = next(iter(active))
            else:
                value = CHANGE
            segs.append((value, hi - lo))
        return Waveform(self.period, segs, skew=(0, 0), eval_str=self.eval_str)

    # ------------------------------------------------------------------
    # edge and stability queries (used by the checkers, section 2.4.4/2.4.5)
    # ------------------------------------------------------------------

    def _circular_runs(self, match: Callable[[Value], bool]) -> list[
        tuple[int, int, set[Value], Value, Value]
    ]:
        """Maximal circular runs of segments whose value satisfies ``match``.

        Returns ``(start, end, values_in_run, value_before, value_after)``
        with ``0 <= start < period`` and ``end`` exceeding the period for a
        run that wraps past time zero.  When *every* segment matches, one
        run ``(0, period, values, UNKNOWN, UNKNOWN)`` is returned.
        """
        segs = list(self.iter_segments())
        n = len(segs)
        if all(match(v) for _, _, v in segs):
            return [(0, self.period, {v for _, _, v in segs}, UNKNOWN, UNKNOWN)]
        # Anchor the scan at a non-matching segment so no run is split by
        # the wrap at time zero.
        anchor = next(i for i, (_, _, v) in enumerate(segs) if not match(v))
        runs: list[tuple[int, int, set[Value], Value, Value]] = []
        k = 0
        while k < n:
            i = (anchor + k) % n
            if not match(segs[i][2]):
                k += 1
                continue
            vals: set[Value] = set()
            start = segs[i][0]
            length = 0
            while match(segs[(i + length) % n][2]):
                vals.add(segs[(i + length) % n][2])
                length += 1
            last = (i + length - 1) % n
            end = segs[last][1]
            if end <= start:
                end += self.period
            before = segs[(i - 1) % n][2]
            after = segs[(i + length) % n][2]
            runs.append((start, end, vals, before, after))
            k += length
        runs.sort()
        return runs

    def _transition_runs(self) -> list[tuple[int, int, set[Value], Value, Value]]:
        """Maximal circular runs of changing values on the materialized form.

        Runs of UNKNOWN are not included (an undefined signal is reported
        through the cross-reference listing instead, section 2.5).
        """
        return self.materialized()._circular_runs(lambda v: v in CHANGING_VALUES)

    def _edge_windows(self, direction: str) -> list[tuple[int, int]]:
        """Windows during which a rising ('rise') or falling edge may occur.

        A window ``(t0, t1)`` means the edge happens at some instant in that
        closed interval; ``t1 >= t0`` and ``t1`` may exceed the period for a
        wrapping window.  Instantaneous boundaries produce ``t0 == t1``.
        """
        wf = self.materialized()
        want = _MAY_RISE if direction == "rise" else _MAY_FALL
        windows: list[tuple[int, int]] = []
        for start, end, vals, _before, _after in wf._transition_runs():
            if vals & want:
                windows.append((start, end))
        for t, before, after in wf.boundaries():
            if before in CHANGING_VALUES or after in CHANGING_VALUES:
                continue  # already covered by a run
            tv = transition_value(before, after)
            if tv in want:
                windows.append((t, t))
        windows.sort()
        return windows

    def rising_windows(self) -> list[tuple[int, int]]:
        """Windows containing a potential 0-to-1 transition."""
        return self._edge_windows("rise")

    def falling_windows(self) -> list[tuple[int, int]]:
        """Windows containing a potential 1-to-0 transition."""
        return self._edge_windows("fall")

    def level_runs(self, value: Value) -> list[tuple[int, int]]:
        """Maximal circular runs at exactly ``value`` on the nominal form.

        Used by the minimum-pulse-width checker, which deliberately works on
        the *nominal* waveform: the separately-carried skew delays both
        edges of a pulse equally and therefore does not narrow it
        (section 2.8).  For an empty result on a constant waveform at
        ``value``, the run covers the whole period and is not a pulse; such
        waveforms return ``[(0, period)]`` and callers treat a full-period
        run as unbounded.
        """
        return [
            (start, end)
            for start, end, _vals, _b, _a in self._circular_runs(lambda v: v == value)
        ]

    def instability_in(self, start: int, end: int) -> list[tuple[int, int, Value]]:
        """Intervals within ``[start, end]`` where the signal may be changing.

        ``start``/``end`` are absolute picosecond times with ``end >= start``;
        the window is interpreted modulo the period and saturates at one full
        period.  The waveform is materialized first, so skew counts against
        stability.  Returns ``(lo, hi, value)`` pieces in window-relative
        absolute coordinates (``start <= lo <= hi <= end``); instantaneous
        transitions strictly inside the window appear as zero-width entries.
        """
        return self.instability_scan(start, end)[0]

    def instability_scan(
        self, start: int, end: int
    ) -> tuple[list[tuple[int, int, Value]], int | None, int | None]:
        """:meth:`instability_in` plus the clear distance on either side.

        Returns ``(pieces, before, after)``: ``pieces`` exactly as
        :meth:`instability_in` reports them; ``before`` is how far back
        from ``start`` the nearest instability ends and ``after`` how far
        past ``end`` the next one begins, both measured circularly (an
        instability inside the window counts through its copy one period
        away), and both None for a signal that never changes.  A checker's
        margin on a clean side is that distance (Figure 3-11's "missed
        by", read the other way round).
        """
        if end < start:
            raise ValueError("window end precedes start")
        period = self.period
        if end - start > period:
            end = start + period
        wf = self.materialized()
        out: list[tuple[int, int, Value]] = []
        clear_before: int | None = None
        clear_after: int | None = None
        for seg_start, seg_end, value in wf.iter_segments():
            if value in STABLE_VALUES:
                continue
            back, ahead = (start - seg_end) % period, (seg_start - end) % period
            if clear_before is None or back < clear_before:
                clear_before = back
            if clear_after is None or ahead < clear_after:
                clear_after = ahead
            # Each unstable segment may intersect the window in up to two
            # places once both are unrolled onto the absolute time axis.
            base = (seg_start - start) % period + start
            for occ_start in (base - period, base, base + period):
                occ_end = occ_start + (seg_end - seg_start)
                lo = max(start, occ_start)
                hi = min(end, occ_end)
                if hi > lo:
                    out.append((lo, hi, value))
        for t, before, after in wf.boundaries():
            if before not in STABLE_VALUES or after not in STABLE_VALUES:
                continue
            tv = transition_value(before, after)
            if tv in STABLE_VALUES:
                continue
            back, ahead = (start - t) % period, (t - end) % period
            if clear_before is None or back < clear_before:
                clear_before = back
            if clear_after is None or ahead < clear_after:
                clear_after = ahead
            base = (t - start) % period + start
            for occ in (base - period, base, base + period):
                if start < occ < end:
                    out.append((occ, occ, tv))
        out.sort()
        return out, clear_before, clear_after

    def is_stable_in(self, start: int, end: int) -> bool:
        """True when the signal cannot change anywhere in ``[start, end]``."""
        return not self.instability_in(start, end)

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Render in the style of the Figure 3-10 summary listing.

        Example: ``S 0.5 C 5.5 S 25.5 C 30.5 S`` — the signal is stable at
        the start of the cycle, changing from 0.5 ns to 5.5 ns, stable to
        25.5 ns, changing to 30.5 ns, then stable for the rest of the cycle.
        """
        from .timeline import format_ns

        parts = [str(self.segments[0][0])]
        for start, _end, value in list(self.iter_segments())[1:]:
            parts.append(format_ns(start))
            parts.append(str(value))
        if self.has_skew:
            early, late = self.skew
            parts.append(f"(skew {format_ns(early)}/{format_ns(late)})")
        return " ".join(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Waveform):
            return NotImplemented
        return (
            self.period == other.period
            and self.segments == other.segments
            and self.skew == other.skew
            and self.eval_str == other.eval_str
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.period, self.segments, self.skew, self.eval_str))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        body = " ".join(f"{v}:{w}" for v, w in self.segments)
        skew = f" skew={self.skew}" if self.has_skew else ""
        ev = f" eval={self.eval_str!r}" if self.eval_str else ""
        return f"<Waveform {body}{skew}{ev} period={self.period}>"
