"""Static arrival-window propagation (no event loop).

Where the engine computes exact seven-value waveforms by fixed-point
iteration, this pass computes, for every net, a *superset* of the times at
which the signal may rise and may fall — closed interval sets on the
circular time axis ``[0, period)`` in integer picoseconds.  One topological
sweep over the expanded circuit suffices because the dependency graph is cut
exactly where the engine's models are insensitive to an input's timing (a
register's output windows depend on its CLOCK and SET/RESET, never on when
DATA moves), and every remaining cycle is conservatively widened to the
full period.

Soundness contract (checked by ``repro.sta.crosscheck``): for every
converged engine waveform, every CHANGE/RISE/FALL/UNKNOWN instant lies
inside the static window of the matching direction.  Worst-case is always
safe; optimism is a bug — every transfer function here is a documented
superset of the corresponding model in ``core/models.py``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.config import VerifyConfig
from ..core.engine import _SUPPLY, _strongly_connected
from ..core.values import (
    CHANGE,
    FALL,
    ONE,
    RISE,
    STABLE,
    UNKNOWN,
    ZERO,
    Value,
    transition_value,
)
from ..core.waveform import Waveform
from ..netlist.circuit import Circuit, Component, Connection, Net, parse_lane_ref

#: Directive letters, mirrored from the engine (section 2.6).
_ZERO_WIRE = frozenset("WZH")
_ZERO_GATE = frozenset("ZH")
_ASSUME = frozenset("AH")

#: Values that may be (or hide) a rising / falling transition.  UNKNOWN is
#: counted on both sides: statically it only arises where the analysis has
#: already widened to the full period, and on the engine side it must be
#: covered like any other possible change.
_RISEISH = frozenset({RISE, CHANGE, UNKNOWN})
_FALLISH = frozenset({FALL, CHANGE, UNKNOWN})

#: Gate families whose output transition direction follows the input's
#: (AND/OR keep a rising input rising; the inverting flag swaps afterward).
_DIRECTIONAL = frozenset({"AND", "NAND", "OR", "NOR", "BUF", "NOT", "DELAY"})


#: Interned empty sets, one per period — the overwhelmingly common window.
_EMPTY_SETS: dict[int, "IntervalSet"] = {}


class IntervalSet:
    """An immutable set of closed intervals on the circular axis [0, period).

    Stored spans are normalized: start in ``[0, period)``, ``start <= end <
    start + period`` (an interval may wrap past the period), sorted,
    non-overlapping, and merged when touching.  A set covering the whole
    circle collapses to the canonical *full* set.  All arithmetic is integer
    picoseconds — never floats.
    """

    __slots__ = ("period", "spans", "is_full", "_hash")

    def __init__(
        self,
        period: int,
        raw_spans: Iterable[tuple[int, int]] = (),
        full: bool = False,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period
        spans: list[list[int]] = []
        if not full:
            for lo, hi in raw_spans:
                if hi < lo:
                    raise ValueError(f"interval end {hi} before start {lo}")
                if hi - lo >= period:
                    full = True
                    break
                shifted = lo % period
                spans.append([shifted, hi + (shifted - lo)])
        merged: list[list[int]] = []
        if not full and spans:
            spans.sort()
            for span in spans:
                if merged and span[0] <= merged[-1][1]:
                    if span[1] > merged[-1][1]:
                        merged[-1][1] = span[1]
                else:
                    merged.append(span)
            # The last span may wrap past the period and touch the front.
            while not full and len(merged) > 1 and merged[-1][1] >= period:
                if merged[0][0] <= merged[-1][1] - period:
                    if merged[0][1] + period > merged[-1][1]:
                        merged[-1][1] = merged[0][1] + period
                    merged.pop(0)
                    if merged[-1][1] - merged[-1][0] >= period:
                        full = True
                else:
                    break
            if not full and len(merged) == 1 and merged[0][1] - merged[0][0] >= period:
                full = True
        self.is_full = full
        self.spans = () if full else tuple(map(tuple, merged))
        self._hash = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, period: int) -> "IntervalSet":
        cached = _EMPTY_SETS.get(period)
        if cached is None:
            cached = _EMPTY_SETS[period] = cls(period)
        return cached

    @classmethod
    def everywhere(cls, period: int) -> "IntervalSet":
        return cls(period, full=True)

    # -- predicates -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.is_full and not self.spans

    def covers(self, lo: int, hi: int) -> bool:
        """True when the closed interval ``[lo, hi]`` lies inside the set."""
        if hi < lo:
            raise ValueError(f"interval end {hi} before start {lo}")
        if self.is_full:
            return True
        if hi - lo >= self.period:
            return False
        length = hi - lo
        lo = lo % self.period
        hi = lo + length
        for a, b in self.spans:
            if a <= lo and hi <= b:
                return True
            if a <= lo + self.period and hi + self.period <= b:
                return True
        return False

    def contains_set(self, other: "IntervalSet") -> bool:
        """True when every point of ``other`` lies inside this set."""
        if other.period != self.period:
            raise ValueError("interval sets have different periods")
        if other.is_full:
            return self.is_full
        return all(self.covers(lo, hi) for lo, hi in other.spans)

    def uncovered(self, other: "IntervalSet") -> list[tuple[int, int]]:
        """The spans of ``other`` not fully inside this set."""
        if other.is_full:
            return [] if self.is_full else [(0, self.period)]
        return [(lo, hi) for lo, hi in other.spans if not self.covers(lo, hi)]

    # -- algebra --------------------------------------------------------

    def union(self, *others: "IntervalSet") -> "IntervalSet":
        if self.is_full or any(o.is_full for o in others):
            return IntervalSet.everywhere(self.period)
        raw = list(self.spans)
        for o in others:
            if o.period != self.period:
                raise ValueError("interval sets have different periods")
            raw.extend(o.spans)
        if len(raw) == len(self.spans):
            return self
        if not self.spans and len(others) == 1:
            return others[0]
        return IntervalSet(self.period, raw)

    def shift(self, dmin: int, dmax: int) -> "IntervalSet":
        """Widen every span by a ``[dmin, dmax]`` delay range."""
        if dmax < dmin:
            raise ValueError(f"delay range inverted: {dmin}:{dmax}")
        if self.is_full or not self.spans or (dmin == 0 and dmax == 0):
            return self
        return IntervalSet(
            self.period, [(lo + dmin, hi + dmax) for lo, hi in self.spans]
        )

    def measure(self) -> int:
        """Total covered time in picoseconds."""
        if self.is_full:
            return self.period
        return sum(hi - lo for lo, hi in self.spans)

    # -- plumbing -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (
            self.period == other.period
            and self.is_full == other.is_full
            and self.spans == other.spans
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.period, self.is_full, self.spans))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_full:
            return f"IntervalSet(full, period={self.period})"
        body = ", ".join(f"[{lo},{hi}]" for lo, hi in self.spans)
        return f"IntervalSet({{{body}}}, period={self.period})"


def waveform_windows(wf: Waveform) -> tuple[IntervalSet, IntervalSet]:
    """The (may-rise, may-fall) window sets of one waveform.

    Skew is folded in first (``materialized``), so the windows measure real
    time.  Segments carrying a changing value contribute their full extent;
    every boundary additionally contributes the instant of its own
    transition value — this is what makes an instantaneous stable-to-STABLE
    step (which the engine's checkers also treat as a change) visible.
    """
    m = wf.materialized()
    period = m.period
    rise: list[tuple[int, int]] = []
    fall: list[tuple[int, int]] = []
    for start, end, value in m.iter_segments():
        if value in _RISEISH:
            rise.append((start, end))
        if value in _FALLISH:
            fall.append((start, end))
    for t, before, after in m.boundaries():
        tv = transition_value(before, after)
        if tv in _RISEISH:
            rise.append((t, t))
        if tv in _FALLISH:
            fall.append((t, t))
    return IntervalSet(period, rise), IntervalSet(period, fall)


def edge_runs(
    rise: IntervalSet, fall: IntervalSet
) -> tuple[IntervalSet, IntervalSet]:
    """The windows in which a clocked reader sees a rise and a fall.

    The engine's readers (``Waveform.rising_windows``/``falling_windows``)
    take each maximal run of changing values on the materialized clock as
    one edge window: where skew makes a rise and a fall window touch or
    overlap, the run holds CHANGE and reads as both edges.  Statically:
    the runs of ``rise | fall`` that hold a rise window, and those that
    hold a fall window.  Every clocked read of the static passes goes here.
    """
    if rise.is_empty or fall.is_empty:
        return rise, fall
    runs = rise.union(fall)
    if runs.is_full:
        return runs, runs
    spans = runs.spans
    if len(spans) == len(rise.spans) + len(fall.spans):
        return rise, fall  # no window merges: each run is one edge window
    period = runs.period

    def holding(part: IntervalSet) -> IntervalSet:
        held = [
            (lo, hi)
            for lo, hi in spans
            if any(lo <= t <= hi or lo <= t + period <= hi for t, _ in part.spans)
        ]
        return runs if len(held) == len(spans) else IntervalSet(period, held)

    return holding(rise), holding(fall)


@dataclass(frozen=True)
class FeedbackCut:
    """A net conservatively widened to the full period at a feedback cycle."""

    component: str
    net: str
    prim: str
    origin: tuple[str, int] | None = None


@dataclass(eq=False)
class _Sweep:
    """The indexed structure of one sweep, kept for :meth:`WindowAnalysis.update`.

    Lists are indexed by component (checkers excluded, iteration order);
    ``order`` is the topological sweep order and ``multi`` lists every
    driver of a net that has more than one.  ``outs`` holds each
    component's last transfer result, so a multi-driven net can be
    re-unioned when one of its drivers changes.
    """

    comps: list[Component]
    inputs: list[list[Connection]]
    out_reps: list[list[Net]]
    kinds: list[int]
    letters: list[list[tuple[str, bool]] | None]
    succ: list[list[int]]
    order: list[int]
    widened: set[int]
    fixed: set[Net]
    drivers: dict[Net, tuple[Component, str]]
    case_values: dict[Net, set[Value]]
    multi: dict[Net, list[int]]
    outs: list
    #: Built on first use by ``WindowAnalysis.readers``: the sweep
    #: position of each component, component name -> index, and
    #: representative -> its readers.
    pos: list[int] | None = None
    index: dict[str, int] | None = None
    readers: dict[Net, list[tuple[Connection, Component, int]]] | None = None


@dataclass
class WindowAnalysis:
    """Per-net static arrival windows for one circuit."""

    circuit: Circuit
    config: VerifyConfig
    period: int
    windows: dict[Net, tuple[IntervalSet, IntervalSet]]
    feedback: list[FeedbackCut] = field(default_factory=list)
    #: Resolved SDC constraints the sweep honoured (input-delay sources).
    #: False paths never narrow stored windows — they are pruned at the
    #: checker boundary (``slack.py``) so this enclosure stays intact.
    constraints: object | None = None

    def of(self, net: Net) -> tuple[IntervalSet, IntervalSet]:
        return self.windows[self.circuit.find(net)]

    def by_name(self, name: str) -> tuple[IntervalSet, IntervalSet]:
        net = self.circuit.nets.get(name)
        if net is None:
            raise KeyError(f"no signal named {name!r}")
        return self.of(net)

    def edge_runs(self, rise, fall) -> tuple[IntervalSet, IntervalSet]:
        """:func:`edge_runs`, memoized for this analysis alone (a
        parametric pass must record its own guided decisions)."""
        hit = self._edge_runs.get((rise, fall))
        if hit is None:
            hit = self._edge_runs[rise, fall] = edge_runs(rise, fall)
        return hit

    def prepared(
        self, conn: Connection, zero_wire: bool = False
    ) -> tuple[IntervalSet, IntervalSet]:
        """Windows as seen at a component input (invert + wire delay).

        Memoized per connection: the sweep only asks for a net's windows
        after its driver has been processed, so the entry never goes stale.
        """
        cache = self._prepared_zero if zero_wire else self._prepared_cache
        key = id(conn)
        entry = cache.get(key)
        if entry is not None:
            return entry
        rep = self._rep_of.get(key)
        if rep is None:
            rep = self.circuit.find(conn.net)
        if zero_wire or conn.wire_delay_ps is not None:
            rise, fall = self.windows[rep]
            if not zero_wire and not (rise.is_empty and fall.is_empty):
                dmin, dmax = conn.wire_delay_ps
                if dmin or dmax:
                    rise = rise.shift(dmin, dmax)
                    fall = fall.shift(dmin, dmax)
        else:
            # Without a per-connection override the wire delay depends only
            # on the net, so the shifted windows are shared per net.
            pair = self._rep_prepared.get(id(rep))
            if pair is None:
                rise, fall = self.windows[rep]
                if not (rise.is_empty and fall.is_empty):
                    dmin, dmax = self._wire_delay(conn, rep)
                    if dmin or dmax:
                        rise = rise.shift(dmin, dmax)
                        fall = fall.shift(dmin, dmax)
                pair = (rise, fall)
                self._rep_prepared[id(rep)] = pair
            rise, fall = pair
        if conn.invert:
            rise, fall = fall, rise
        cache[key] = (rise, fall)
        return rise, fall

    # Populated by compute_windows; declared here for the helpers above.
    _loads: dict[Net, int] = field(default_factory=dict, repr=False)
    _prepared_cache: dict = field(default_factory=dict, repr=False)
    _prepared_zero: dict = field(default_factory=dict, repr=False)
    _rep_prepared: dict = field(default_factory=dict, repr=False)
    _rep_of: dict = field(default_factory=dict, repr=False)
    _edge_runs: dict = field(default_factory=dict, repr=False)
    _default_wire: tuple[int, int] | None = field(default=None, repr=False)
    _per_load: int | None = field(default=None, repr=False)
    _sweep: _Sweep | None = field(default=None, repr=False)

    def _step(self, i: int, memo: dict) -> list[Net]:
        """Transfer component ``i`` and store its outputs.

        The one loop body of the full sweep and of :meth:`update`.
        Returns the nets whose stored windows changed.
        """
        sweep = self._sweep
        out = _transfer(
            sweep.comps[i], sweep.kinds[i], sweep.inputs[i], sweep.letters[i],
            self, self.circuit, sweep.case_values, sweep.drivers, self.period,
            memo,
        )
        sweep.outs[i] = out
        windows = self.windows
        changed = []
        for rep in sweep.out_reps[i]:
            if rep in sweep.fixed:
                continue
            new = out
            group = sweep.multi.get(rep)
            if group is not None:
                # Multiple drivers (a lint error in itself): keep the union.
                rises, falls = zip(
                    *(sweep.outs[k] for k in group if sweep.outs[k] is not None)
                )
                new = (rises[0].union(*rises[1:]), falls[0].union(*falls[1:]))
            if windows.get(rep) != new:
                windows[rep] = new
                changed.append(rep)
        return changed

    def update(
        self, nets: Iterable[Net], components: Iterable[Component]
    ) -> set[Net]:
        """Bring the windows up to date after timing edits to the circuit.

        ``nets`` are representatives whose wire delay changed and
        ``components`` those whose parameters changed; the topology,
        assertions, cases and constraints must be the ones this analysis
        was built on.  Only the cone re-sweeps, in topological order, and a
        component's readers are revisited only when one of its outputs
        really changed — the engine's rule for stored waveforms.  The
        result equals a fresh :func:`compute_windows` on the edited
        circuit.  Returns the nets whose stored windows changed.
        """
        sweep = self._sweep
        readers = self.readers()
        heap: list[int] = []
        queued: set[int] = set()

        def push(j: int) -> None:
            p = sweep.pos[j]
            if p not in queued:
                queued.add(p)
                heapq.heappush(heap, p)

        def purge(rep: Net) -> None:
            self._rep_prepared.pop(id(rep), None)
            for conn, _comp, _j in readers.get(rep, ()):
                self._prepared_cache.pop(id(conn), None)
                self._prepared_zero.pop(id(conn), None)

        for rep in nets:
            purge(rep)
            for _conn, _comp, j in readers.get(rep, ()):
                if j >= 0:
                    push(j)
        for comp in components:
            j = sweep.index.get(comp.name)
            if j is not None:
                push(j)

        changed: set[Net] = set()
        memo: dict = {}  # per update, so a long session never grows it
        while heap:
            i = sweep.order[heapq.heappop(heap)]
            if i in sweep.widened or sweep.kinds[i] < 0:
                continue
            moved = self._step(i, memo)
            if moved:
                for rep in moved:
                    changed.add(rep)
                    purge(rep)
                for j in sweep.succ[i]:
                    push(j)
        return changed

    def readers(self) -> dict[Net, list[tuple[Connection, Component, int]]]:
        """Each representative's readers as ``(connection, component, sweep
        index or -1)``; built on first use, with the rest of the update
        index, so a one-off analysis never pays for it."""
        sweep = self._sweep
        if sweep.readers is None:
            sweep.pos = [0] * len(sweep.order)
            for p, i in enumerate(sweep.order):
                sweep.pos[i] = p
            sweep.index = {comp.name: j for j, comp in enumerate(sweep.comps)}
            readers: dict[Net, list[tuple[Connection, Component, int]]] = {}
            find = self.circuit.find
            for comp in self.circuit.iter_components():
                j = sweep.index.get(comp.name, -1)
                for _pin, conn in comp.input_pins():
                    readers.setdefault(find(conn.net), []).append((conn, comp, j))
            sweep.readers = readers
        return sweep.readers

    def _wire_delay(self, conn: Connection, rep: Net) -> tuple[int, int]:
        # Mirrors Engine._wire_delay exactly; the config-derived defaults
        # are snapshotted once (they go through Fraction conversions).
        if conn.wire_delay_ps is not None:
            return conn.wire_delay_ps
        if rep.wire_delay_ps is not None:
            return rep.wire_delay_ps
        if conn.net.wire_delay_ps is not None:
            return conn.net.wire_delay_ps
        lo, hi = self._default_wire
        if self._per_load:
            extra_loads = self._loads.get(rep, 1) - 1
            if extra_loads > 0:
                hi += self._per_load * extra_loads
        return lo, hi


# ---------------------------------------------------------------------------
# sources (mirror of Engine._initial_value)
# ---------------------------------------------------------------------------


def _is_fixed_source(rep: Net, driven: bool) -> bool:
    """True when the net's converged value never depends on a driver."""
    if rep.base_name.upper() in _SUPPLY:
        return True
    assertion = rep.assertion
    if assertion is not None and assertion.kind.is_clock:
        return True  # a clock assertion pins the net even against a driver
    return not driven


def _asserted(assertion, timebase) -> IntervalSet:
    """The union of an assertion's ranges; a zero-width range paints
    nothing."""
    bounds = [r.bounds_ps(timebase) for r in assertion.ranges]
    return IntervalSet(
        timebase.period_ps, [(lo, hi) for lo, hi in bounds if hi > lo]
    )


def _clock_edges(assertion, timebase, config: VerifyConfig):
    """The (rise, fall) edge windows of a clock assertion, as raw spans.

    Each edge of the asserted level is widened by the skew to ``[t +
    early, t + late]``, as ``Waveform.materialized`` folds it; a constant
    level has no edges.
    """
    level = _asserted(assertion, timebase)
    if level.is_full or level.is_empty:
        return [], []
    early, late = assertion.skew_ps(
        config.clock_skew_ns(assertion.kind.name == "PRECISION_CLOCK")
    )
    ups = [(lo + early, lo + late) for lo, _hi in level.spans]
    downs = [(hi + early, hi + late) for _lo, hi in level.spans]
    return (downs, ups) if assertion.low else (ups, downs)


def assertion_windows(
    assertion, timebase, config: VerifyConfig
) -> tuple[IntervalSet, IntervalSet]:
    """The (may-rise, may-fall) windows of a net an assertion pins.

    Equal to ``waveform_windows(assertion.waveform(timebase, skew))``, but
    built from the asserted spans with interval arithmetic alone, so the
    same code serves a concrete timebase and the parametric one (bounds
    affine in the period).  A clock's windows are its skewed edges: where
    a rise and a fall window overlap the waveform holds CHANGE, which lies
    inside both.  A stable assertion may change outside its ranges, the
    boundary instants included.
    """
    period = timebase.period_ps
    empty = IntervalSet.empty(period)
    if assertion.kind.is_clock:
        rises, falls = _clock_edges(assertion, timebase, config)
        if not rises:
            return empty, empty
        return IntervalSet(period, rises), IntervalSet(period, falls)
    stable = _asserted(assertion, timebase)
    if stable.is_full:
        return empty, empty
    if stable.is_empty:
        win = IntervalSet.everywhere(period)
    else:
        spans = stable.spans
        nxt = [lo for lo, _hi in spans[1:]] + [spans[0][0] + period]
        win = IntervalSet(period, [(hi, n) for (_lo, hi), n in zip(spans, nxt)])
    return win, win


def rising_runs(assertion, timebase, config: VerifyConfig) -> list[tuple]:
    """The windows that may hold a rise of a clock assertion.

    Equal to ``assertion.waveform(timebase, skew).rising_windows()``: the
    rise windows :func:`edge_runs` reads off the skewed edges (a run
    covering the whole period is ``(0, period)``).  ``set_input_delay``
    launches from these.
    """
    runs, _falls = edge_runs(*assertion_windows(assertion, timebase, config))
    return [(0, timebase.period_ps)] if runs.is_full else list(runs.spans)


def _source_windows(
    circuit: Circuit,
    config: VerifyConfig,
    rep: Net,
    timebase,
    constraints=None,
) -> tuple[IntervalSet, IntervalSet]:
    """Windows of a fixed-source net (supply, assertion, assumed stable)."""
    period = timebase.period_ps
    empty = IntervalSet.empty(period)
    if rep.base_name.upper() in _SUPPLY:
        return empty, empty
    if rep.assertion is not None:
        return assertion_windows(rep.assertion, timebase, config)
    if constraints is not None:
        spec = constraints.input_delay_for(rep.name)
        if spec is not None:
            # set_input_delay: the port changes inside the declared spans.
            # The engine paints CHANGE over the *same* spans
            # (Engine._initial_value uses input_delay_spans too), so the
            # windows enclose it by construction.
            from ..constraints import input_delay_spans

            spans = input_delay_spans(spec, circuit, config, timebase)
            if spans:
                win = IntervalSet(period, spans)
                return win, win
    # Assumed stable (section 2.5); the case mapping replaces STABLE with a
    # constant, which has no transitions either.
    return empty, empty


def _case_values(circuit: Circuit) -> dict[Net, set[Value]]:
    """The constants each net can be case-mapped to, across all cases."""
    out: dict[Net, set[Value]] = {}
    for case in circuit.cases:
        for name, bit in case.items():
            net = circuit.nets.get(name)
            if net is None:
                # Per-lane case key ("NAME [i]"): fold the lane's constant
                # into the whole net's possible values — conservative for
                # the only consumer (_may_hold_value).
                ref = parse_lane_ref(circuit, name)
                if ref is None:
                    continue
                net = ref[0]
            out.setdefault(circuit.find(net), set()).add(ONE if bit else ZERO)
    return out


def _may_hold_value(
    rep: Net,
    target: Value,
    driven: bool,
    case_values: dict[Net, set[Value]],
    circuit: Circuit,
) -> bool:
    """Could the net's converged waveform ever equal ``target`` (0 or 1)?

    Used only to decide whether an asynchronous SET/RESET pair can be
    simultaneously asserted (which the model turns into UNKNOWN).  Driven
    nets answer True — worst-case is always safe.
    """
    name = rep.base_name.upper()
    if name in _SUPPLY:
        return _SUPPLY[name] is target
    assertion = rep.assertion
    if assertion is not None and assertion.kind.is_clock:
        return True  # a clock takes both levels
    if driven:
        return True
    # Undriven: assertion waveform (STABLE/CHANGE) or assumed stable, with
    # STABLE case-mapped to a constant for case-analysis signals.
    return target in case_values.get(rep, set())


# ---------------------------------------------------------------------------
# directive-letter certainty (mirror of Engine._directive_letter)
# ---------------------------------------------------------------------------


def _may_carry_eval_str(
    circuit: Circuit,
    comps: Sequence[Component],
    gate_prims: frozenset[str],
) -> dict[Net, bool]:
    """Which nets may carry a riding evaluation string (section 2.8).

    Only gate outputs propagate eval strings; a connection-level directive
    of two or more letters starts one, and a directive-free input forwards
    whatever its net carries.  Monotone boolean fixpoint, conservative
    (True means *may* carry).
    """
    carry: dict[Net, bool] = {}
    changed = True
    while changed:
        changed = False
        for comp in comps:
            if comp.prim.name not in gate_prims:
                continue
            out = False
            for _pin, conn in comp.input_pins():
                if len(conn.directives) >= 2:
                    out = True
                elif not conn.directives and carry.get(circuit.find(conn.net)):
                    out = True
            if out:
                for _pin, conn in comp.output_pins():
                    rep = circuit.find(conn.net)
                    if not carry.get(rep):
                        carry[rep] = True
                        changed = True
    return carry


# ---------------------------------------------------------------------------
# the topological sweep
# ---------------------------------------------------------------------------


def _used_input_conns(
    comp: Component,
    inputs: Sequence[Connection],
    letters: Sequence[tuple[str, bool]] | None,
) -> Sequence[Connection]:
    """The inputs whose *timing* the component's output windows depend on.

    Registers capture DATA only as a held constant between clock edges
    (``_captured_value`` never yields a changing value), so DATA is not a
    timing dependency — this is the cut that makes pipelined feedback
    (counters, shift registers) acyclic without any widening.  A gate whose
    directives certainly select an assume input depends only on that input;
    everything else depends on all inputs.
    """
    prim = comp.prim.name
    if prim in ("REG", "REG_RS"):
        conns = [comp.pins["CLOCK"]]
        for pin in ("SET", "RESET"):
            conn = comp.pins.get(pin)
            if conn is not None:
                conns.append(conn)
        return conns
    if letters is not None and all(certain for _l, certain in letters):
        for (letter, _c), conn in zip(letters, inputs):
            if letter in _ASSUME:
                return [conn]  # other inputs are assumed enabling
    return inputs


def compute_windows(
    circuit: Circuit,
    config: VerifyConfig | None = None,
    constraints=None,
    *,
    timebase=None,
) -> WindowAnalysis:
    """One-pass static arrival-window analysis of an expanded circuit.

    ``timebase`` runs the pass at another clock period (the circuit's own
    by default).  The parametric Fmax pass (``repro.sta.parametric``)
    passes a timebase whose period is the symbol ``T``: the fixed-source
    windows (:func:`assertion_windows`, ``input_delay_spans``) then come
    out with bounds affine in the period, and everything downstream of
    the sources — transfers, feedback widening, slack — is plain interval
    arithmetic and works unchanged over either bound type.
    """
    config = config or VerifyConfig()
    timebase = timebase or circuit.timebase
    period = timebase.period_ps
    gate_prims = _gate_prims()

    # One pass over every component builds all the indexed structure the
    # sweep needs: alias representatives per connection, drivers/loads,
    # per-component input lists and output representatives.
    drivers: dict[Net, tuple[Component, str]] = {}
    driver_idx: dict[Net, int] = {}
    multi: dict[Net, list[int]] = {}
    loads: dict[Net, int] = {}
    rep_of: dict[int, Net] = {}
    find = circuit.find
    comps: list[Component] = []
    comp_inputs: list[list[Connection]] = []
    comp_out_reps: list[list[Net]] = []
    comp_has_dir: list[bool] = []
    comp_kind: list[int] = []  # 0 gate, 1 register, 2 latch, 3 mux, -1 other
    has_multi_letter = False
    loads_get = loads.get
    for comp in circuit.iter_components():
        prim = comp.prim
        pins = comp.pins
        checker = prim.is_checker
        if not checker:
            j = len(comps)
            comps.append(comp)
            name = prim.name
            if name in gate_prims:
                comp_kind.append(0)
            elif name in ("REG", "REG_RS"):
                comp_kind.append(1)
            elif name in ("LATCH", "LATCH_RS"):
                comp_kind.append(2)
            elif name.startswith("MUX"):
                comp_kind.append(3)
            else:
                comp_kind.append(-1)
        out_reps = []
        for pin in prim.outputs:
            conn = pins.get(pin)
            if conn is None:
                continue
            rep = find(conn.net)
            rep_of[id(conn)] = rep
            drivers[rep] = (comp, pin)
            if not checker:
                if rep in driver_idx:
                    multi.setdefault(rep, [driver_idx[rep]]).append(j)
                driver_idx[rep] = j
                out_reps.append(rep)
        inputs = []
        has_dir = False
        # Fixed input pins first, then the variadic family in order —
        # the same order input_pins() yields.
        pin_names = [p for p in prim.inputs if p in pins]
        if prim.variadic_input:
            prefix = prim.variadic_input
            k = 1
            while f"{prefix}{k}" in pins:
                pin_names.append(f"{prefix}{k}")
                k += 1
        for pin in pin_names:
            conn = pins[pin]
            rep = find(conn.net)
            rep_of[id(conn)] = rep
            loads[rep] = loads_get(rep, 0) + 1
            if conn.directives:
                has_dir = True
                if len(conn.directives) >= 2:
                    has_multi_letter = True
            inputs.append(conn)
        if not checker:
            comp_inputs.append(inputs)
            comp_out_reps.append(out_reps)
            comp_has_dir.append(has_dir)
    n = len(comps)

    analysis = WindowAnalysis(
        circuit=circuit,
        config=config,
        period=period,
        windows={},
        constraints=constraints,
        _loads=loads,
        _rep_of=rep_of,
    )
    # Snapshot the config-derived defaults once; they go through Fraction
    # conversions that are far too slow for a per-connection call.
    analysis._default_wire = config.default_wire_delay_ps
    analysis._per_load = config.wire_delay_per_load_ps

    # Uncertainty only originates at multi-letter directive strings; when
    # none exist, nothing can carry a letter on its waveform.
    carry = (
        _may_carry_eval_str(circuit, comps, gate_prims)
        if has_multi_letter
        else {}
    )
    case_values = _case_values(circuit)

    reps = circuit.representatives()
    fixed: set[Net] = set()
    for rep in reps:
        driven = rep in drivers
        if _is_fixed_source(rep, driven):
            fixed.add(rep)
            analysis.windows[rep] = _source_windows(
                circuit, config, rep, timebase, constraints
            )

    # Directive letters per gate input (None when certainly absent).
    comp_letters: list[list[tuple[str, bool]] | None] = [None] * n
    for j in range(n):
        if not (comp_has_dir[j] or carry):
            continue
        if comps[j].prim.name not in gate_prims:
            continue
        letters = []
        for conn in comp_inputs[j]:
            if conn.directives:
                letters.append((conn.directives[0], True))
            elif carry.get(rep_of[id(conn)]):
                letters.append(("", False))  # a letter may ride in
            else:
                letters.append(("", True))
        comp_letters[j] = letters

    # Dependency graph between components, cut where timing cannot flow.
    # A reader depends on every driver of its net, so a multi-driven net
    # is read only after all of its drivers have stored.
    succ: list[list[int]] = [[] for _ in range(n)]
    for j, comp in enumerate(comps):
        letters = comp_letters[j]
        if letters is None and comp_kind[j] != 1:
            conns = comp_inputs[j]
        else:
            conns = _used_input_conns(comp, comp_inputs[j], letters)
        for conn in conns:
            rep = rep_of[id(conn)]
            if rep in fixed:
                continue
            i = driver_idx.get(rep)
            if i is None:
                continue
            if multi and rep in multi:
                for i in multi[rep]:
                    if j not in succ[i]:
                        succ[i].append(j)
            elif j not in succ[i]:
                succ[i].append(j)

    # Kahn's toposort doubles as the cycle detector: on an acyclic graph
    # (the overwhelmingly common case once registers cut their DATA edges)
    # it orders every node and Tarjan never runs.  Any leftover nodes sit
    # in or downstream of a cycle; only then are SCCs computed to find the
    # exact members to widen.
    indegree = [0] * n
    for row in succ:
        for j in row:
            indegree[j] += 1
    ready = deque(i for i in range(n) if indegree[i] == 0)
    order: list[int] = []
    while ready:
        i = ready.popleft()
        order.append(i)
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)

    widened: set[int] = set()
    outs: list = [None] * n
    if len(order) < n:
        scc = _strongly_connected(succ)
        scc_sizes: dict[int, int] = {}
        for cid in scc:
            scc_sizes[cid] = scc_sizes.get(cid, 0) + 1
        for i in range(n):
            if scc_sizes[scc[i]] > 1 or i in succ[i]:
                widened.add(i)
        for i in sorted(widened):
            comp = comps[i]
            full = IntervalSet.everywhere(period)
            outs[i] = (full, full)
            for rep in comp_out_reps[i]:
                if rep in fixed:
                    continue
                analysis.windows[rep] = (full, full)
                analysis.feedback.append(
                    FeedbackCut(
                        component=comp.name,
                        net=rep.name,
                        prim=comp.prim.name,
                        origin=comp.origin,
                    )
                )
        # Re-run Kahn over the condensation (intra-SCC edges dropped) so
        # nodes beyond the widened cycles still get swept in order.
        indegree = [0] * n
        for i in range(n):
            for j in succ[i]:
                if scc[i] != scc[j]:
                    indegree[j] += 1
        ready = deque(i for i in range(n) if indegree[i] == 0)
        order = []
        while ready:
            i = ready.popleft()
            order.append(i)
            for j in succ[i]:
                if scc[i] != scc[j]:
                    indegree[j] -= 1
                    if indegree[j] == 0:
                        ready.append(j)

    # The sweep.  Identical macro instances fed by identical windows are
    # everywhere in a synchronous design, so transfers are memoized on
    # (primitive, delays, input windows) — the static counterpart of the
    # engine's evaluation memo.
    analysis._sweep = _Sweep(
        comps=comps,
        inputs=comp_inputs,
        out_reps=comp_out_reps,
        kinds=comp_kind,
        letters=comp_letters,
        succ=succ,
        order=order,
        widened=widened,
        fixed=fixed,
        drivers=drivers,
        case_values=case_values,
        multi=multi,
        outs=outs,
    )
    memo: dict = {}
    step = analysis._step
    for i in order:
        if i in widened or comp_kind[i] < 0:
            continue
        step(i, memo)

    # Stay total even for nets no path above reached.
    empty = IntervalSet.empty(period)
    pair = (empty, empty)
    windows = analysis.windows
    for rep in reps:
        if rep not in windows:
            windows[rep] = pair
    return analysis


def _gate_prims() -> frozenset[str]:
    from ..core.models import GATE_FUNCTIONS

    return frozenset(GATE_FUNCTIONS)


# ---------------------------------------------------------------------------
# transfer functions (supersets of core/models.py)
# ---------------------------------------------------------------------------


def _shifted_union(
    period: int, parts: Sequence[IntervalSet], dmin: int, dmax: int
) -> IntervalSet:
    """Union of ``parts`` widened by ``[dmin, dmax]``, built in one pass.

    Equivalent to chaining ``union`` and ``shift`` but normalizes once,
    which keeps the sweep linear in the number of component inputs.
    """
    raw: list[tuple[int, int]] = []
    for part in parts:
        if part.is_full:
            return IntervalSet.everywhere(period)
        raw.extend((lo + dmin, hi + dmax) for lo, hi in part.spans)
    if not raw:
        return IntervalSet.empty(period)
    return IntervalSet(period, raw)


def _transfer(
    comp: Component,
    kind: int,
    inputs: Sequence[Connection],
    letters: Sequence[tuple[str, bool]] | None,
    analysis: WindowAnalysis,
    circuit: Circuit,
    case_values: dict[Net, set[Value]],
    drivers: dict[Net, tuple[Component, str]],
    period: int,
    memo: dict,
) -> tuple[IntervalSet, IntervalSet]:
    """Static output windows of one component.

    Every result is padded by one extra picosecond of maximum delay: the
    models keep instantaneous transitions observable with explicit 1 ps
    change markers (``pointwise`` boundary markers, ``_paint_clocked_output``,
    the latch's opening paints), and the pad covers their width.
    """
    if kind == 0:
        return _transfer_gate(comp, inputs, letters, analysis, period, memo)
    if kind == 1:
        return _transfer_register(
            comp, analysis, circuit, case_values, drivers, period
        )
    if kind == 2:
        return _transfer_latch(
            comp, analysis, circuit, case_values, drivers, period
        )
    return _transfer_mux(comp, analysis, period, memo)


def _transfer_gate(
    comp: Component,
    inputs: Sequence[Connection],
    letters: Sequence[tuple[str, bool]] | None,
    analysis: WindowAnalysis,
    period: int,
    memo: dict,
) -> tuple[IntervalSet, IntervalSet]:
    """Superset of ``Engine._evaluate_gate`` + ``eval_gate``.

    Direction rule, from the value tables: AND/OR pass a changing input's
    direction through (``S OR R = R``); mixing distinct directions yields
    CHANGE, which lands in both output sets — covered because each input
    contributes to the set of its own direction and CHANGE instants lie in
    the intersection of the contributing inputs' windows.  XOR/XNOR/CHG can
    redirect an edge (``1 XOR RISE = FALL``), so every input feeds both
    output sets.  The inverting flag swaps the sets afterward, mirroring
    ``mapped(value_not)``.
    """
    prim = comp.prim
    if letters is None:
        gate_zeroed = False
        maybe_zeroed = False
        prepared = [analysis.prepared(conn) for conn in inputs]
        # Empty windows are interned, so "every input is statically
        # quiet" reduces to identity checks — and a quiet gate is quiet.
        empty = IntervalSet.empty(period)
        for in_r, in_f in prepared:
            if in_r is not empty or in_f is not empty:
                break
        else:
            return empty, empty
    else:
        all_certain = all(certain for _l, certain in letters)
        gate_zeroed = any(
            certain and letter in _ZERO_GATE for letter, certain in letters
        )
        maybe_zeroed = gate_zeroed or not all_certain
        assume_idx = None
        if all_certain:
            for k, (letter, _c) in enumerate(letters):
                if letter in _ASSUME:
                    assume_idx = k  # other inputs are assumed enabling
                    break
        chosen = range(len(inputs)) if assume_idx is None else (assume_idx,)
        prepared = []
        for k in chosen:
            letter, certain = letters[k]
            zero_wire = certain and letter in _ZERO_WIRE
            in_r, in_f = analysis.prepared(inputs[k], zero_wire=zero_wire)
            if not certain:
                # The letter may also zero this wire; widen the early bound.
                zr, zf = analysis.prepared(inputs[k], zero_wire=True)
                in_r = in_r.union(zr)
                in_f = in_f.union(zf)
            prepared.append((in_r, in_f))

    delay = (0, 0) if gate_zeroed else comp.delay_ps()
    rise_p = comp.params.get("rise_delay")
    fall_p = comp.params.get("fall_delay")
    if (rise_p or fall_p) and not gate_zeroed:
        # Asymmetric edges: crossed rise/fall windows overlay CHANGE in
        # either direction (core/risefall.py), so both directions take the
        # combined range rather than per-edge routing.
        rise_p = rise_p or delay
        fall_p = fall_p or delay
        dmin = min(rise_p[0], fall_p[0])
        dmax = max(rise_p[1], fall_p[1])
    else:
        dmin, dmax = delay
    if maybe_zeroed:
        dmin = 0

    key = (prim.name, prim.inverting, dmin, dmax, tuple(prepared))
    hit = memo.get(key)
    if hit is not None:
        return hit
    if prim.name in _DIRECTIONAL:
        rise_parts = [pair[0] for pair in prepared]
        fall_parts = [pair[1] for pair in prepared]
        if prim.inverting:
            rise_parts, fall_parts = fall_parts, rise_parts
        out = (
            _shifted_union(period, rise_parts, dmin, dmax + 1),
            _shifted_union(period, fall_parts, dmin, dmax + 1),
        )
    else:  # XOR / XNOR / CHG: an edge may come out either way
        parts = [s for pair in prepared for s in pair]
        both = _shifted_union(period, parts, dmin, dmax + 1)
        out = (both, both)
    memo[key] = out
    return out


def _sr_windows(
    comp: Component,
    analysis: WindowAnalysis,
    circuit: Circuit,
    case_values: dict[Net, set[Value]],
    drivers: dict[Net, tuple[Component, str]],
    delay: tuple[int, int],
    period: int,
) -> tuple[IntervalSet, IntervalSet | None]:
    """The asynchronous SET/RESET contribution to a storage element.

    Returns ``(windows, full_or_none)``: the change windows contributed by
    moving controls, and a full set when both controls may simultaneously
    sit at ONE — ``_sr_overlay_value`` then yields UNKNOWN over stretches no
    change window describes.
    """
    set_conn = comp.pins.get("SET")
    reset_conn = comp.pins.get("RESET")
    parts: list[IntervalSet] = []
    for conn in (set_conn, reset_conn):
        if conn is not None:
            parts.extend(analysis.prepared(conn))
    contribution = _shifted_union(period, parts, delay[0], delay[1] + 1)

    def may_be_one(conn: Connection | None) -> bool:
        if conn is None:
            return False
        rep = circuit.find(conn.net)
        target = ZERO if conn.invert else ONE
        return _may_hold_value(rep, target, rep in drivers, case_values, circuit)

    if may_be_one(set_conn) and may_be_one(reset_conn):
        return contribution, IntervalSet.everywhere(period)
    return contribution, None


def _transfer_register(
    comp: Component,
    analysis: WindowAnalysis,
    circuit: Circuit,
    case_values: dict[Net, set[Value]],
    drivers: dict[Net, tuple[Component, str]],
    period: int,
) -> tuple[IntervalSet, IntervalSet]:
    """Superset of ``eval_register``.

    The output changes only inside the delayed clock rising windows
    (``_paint_clocked_output``); between edges it holds a captured constant
    or STABLE, never a changing value — which is why DATA contributes
    nothing here and the dependency cut in ``_used_input_conns`` is sound.
    """
    delay = comp.delay_ps()
    clk_r, _clk_f = analysis.edge_runs(*analysis.prepared(comp.pins["CLOCK"]))
    sr, full = _sr_windows(
        comp, analysis, circuit, case_values, drivers, delay, period
    )
    if full is not None:
        return full, full
    out = clk_r.shift(delay[0], delay[1] + 1).union(sr)
    return out, out


def _transfer_latch(
    comp: Component,
    analysis: WindowAnalysis,
    circuit: Circuit,
    case_values: dict[Net, set[Value]],
    drivers: dict[Net, tuple[Component, str]],
    period: int,
) -> tuple[IntervalSet, IntervalSet]:
    """Superset of ``eval_latch``.

    A transparent latch can move whenever its (delayed) enable moves — the
    opening/closing cases of ``_latch_value``, including the 1 ps opening
    paints — or whenever the delayed data moves (transparency, and the
    ``en is STABLE`` case still answers CHANGE for changing data).  Held
    values are captured constants, whose boundaries coincide with enable
    fall ends.  Both directions are kept: the latch output direction is the
    data's value step, not the enable's edge direction.
    """
    delay = comp.delay_ps()
    sr, full = _sr_windows(
        comp, analysis, circuit, case_values, drivers, delay, period
    )
    if full is not None:
        return full, full
    parts = [
        *analysis.prepared(comp.pins["ENABLE"]),
        *analysis.prepared(comp.pins["DATA"]),
    ]
    out = _shifted_union(period, parts, delay[0], delay[1] + 1).union(sr)
    return out, out


def _transfer_mux(
    comp: Component, analysis: WindowAnalysis, period: int, memo: dict
) -> tuple[IntervalSet, IntervalSet]:
    """Superset of ``eval_mux``.

    Data inputs pass through with their directions (constant selects index
    one input; stable selects fold with ``value_either``, which preserves a
    single mover's direction).  A moving select can switch the output
    between inputs in either direction, so select windows land in both sets
    after the extra select delay.
    """
    n = int(comp.prim.name[3:])
    n_sel = max(1, n.bit_length() - 1)
    delay = comp.delay_ps()
    select_delay = comp.delay_ps("select_delay")

    sels = tuple(analysis.prepared(comp.pins[f"S{k}"]) for k in range(n_sel))
    datas = tuple(analysis.prepared(comp.pins[f"I{k}"]) for k in range(n))
    key = ("MUX", n, delay, select_delay, sels, datas)
    hit = memo.get(key)
    if hit is not None:
        return hit

    sel_parts = [s for pair in sels for s in pair]
    sel_both = _shifted_union(period, sel_parts, *select_delay)
    rise_parts = [sel_both]
    fall_parts = [sel_both]
    for in_r, in_f in datas:
        rise_parts.append(in_r)
        fall_parts.append(in_f)
    out = (
        _shifted_union(period, rise_parts, delay[0], delay[1] + 1),
        _shifted_union(period, fall_parts, delay[0], delay[1] + 1),
    )
    memo[key] = out
    return out
