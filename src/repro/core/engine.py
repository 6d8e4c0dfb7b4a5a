"""The event-driven evaluation engine (section 2.9).

The verification technique: initialize every signal from its assertion (or
to UNKNOWN), then repeatedly evaluate primitives whose inputs changed until
every signal's full-period waveform stops changing.  An *event* is an output
acquiring a new value, which schedules every primitive reading that output
for re-evaluation — the thesis processed 20 052 such events for the 6 357
chip example at about 20 ms each.

Case analysis (section 2.7) re-enters the same fixed point incrementally:
between cases only the signals whose case mapping changed are disturbed, so
"only those parts of the circuit that are affected by the case analysis are
reevaluated".
"""

from __future__ import annotations

import heapq
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace as _dc_replace
from functools import partial
from typing import Callable, Iterable, Iterator, TypeVar

from ..netlist.circuit import Circuit, Component, Connection, Net, parse_lane_ref
from .checks import (
    check_gating_stability,
    check_max_time_borrow,
    check_min_pulse_width,
    check_recovery_removal,
    check_setup_hold,
    check_setup_hold_windows,
    check_setup_rise_hold_fall,
    check_stable_assertion,
    note_margin,
)
from .config import VerifyConfig
from .models import (
    ENABLING_LEVEL,
    GATE_FUNCTIONS,
    eval_gate,
    eval_latch,
    eval_mux,
    eval_register,
)
from .values import CHANGE, ONE, STABLE, UNKNOWN, ZERO, Value, value_not
from .violations import CheckReport, MarginKey, Violation
from .waveform import InternTable, Waveform
from .wordwave import WordWave

#: Net names treated as supply rails.
_SUPPLY = {"GND": ZERO, "VSS": ZERO, "VCC": ONE, "VDD": ONE}

#: Directive letters that zero the interconnection delay at their input.
_ZERO_WIRE = frozenset("WZH")
#: Directive letters that zero the gate's own delay.
_ZERO_GATE = frozenset("ZH")
#: Directive letters that trigger the stability check / enabling assumption.
_ASSUME = frozenset("AH")

_GATE_PRIMS = frozenset(GATE_FUNCTIONS)

_T = TypeVar("_T")

#: Primitives whose output breaks a combinational cycle when ranking the
#: evaluation order (every legal feedback path runs through one of these,
#: section 1.2.2).
_SEQUENTIAL_PRIMS = frozenset({"REG", "REG_RS", "LATCH", "LATCH_RS"})

#: Maximum entries in each LRU memo (primitive evaluation, checker
#: verdicts).
_MEMO_SIZE = 8192


class OscillationError(RuntimeError):
    """The fixed point failed to converge — an unbroken feedback loop.

    Synchronous sequential systems must contain a clocked element in every
    feedback path (section 1.2.2); a combinational loop violates that and
    makes the waveforms oscillate between passes.
    """

    def __init__(self, component: Component, evals: int) -> None:
        self.component = component
        super().__init__(
            f"evaluation did not converge: {component.prim.name} "
            f"{component.name!r} re-evaluated {evals} times — the design "
            "likely contains a feedback path with no register or latch"
        )


@dataclass
class EngineStats:
    """Counters in the shape of the section 3.3.2 discussion.

    Beyond the thesis's event/evaluation counts, the optimisation layers
    record their own effectiveness: intern-table hits (a value that already
    existed as a shared instance), evaluation-memo hits (a primitive whose
    model run was skipped entirely), prepared-input cache hits, and the
    wall time spent computing the levelized schedule.
    """

    events: int = 0
    evaluations: int = 0
    #: Events on nets of width > 1 — one such event covers the whole word.
    vector_events: int = 0
    #: Stores that left a net with diverged lanes (per-bit overrides).
    lane_splits: int = 0
    events_by_case: list[int] = field(default_factory=list)
    intern_hits: int = 0
    intern_misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    prepared_hits: int = 0
    prepared_misses: int = 0
    levelize_seconds: float = 0.0
    max_rank: int = 0
    #: Incremental re-verification counters (``repro.session``): runs that
    #: re-entered the fixed point via :meth:`Engine.incremental_begin`, the
    #: size of the dirty cone those runs seeded (transitive fanout of the
    #: edited primitives), and stored waveforms carried over unchanged.
    incremental_runs: int = 0
    dirty_primitives: int = 0
    reused_waveforms: int = 0

    @property
    def evaluations_saved(self) -> int:
        """Primitive evaluations answered from the memo instead of a model run."""
        return self.memo_hits

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0

    @property
    def intern_hit_rate(self) -> float:
        total = self.intern_hits + self.intern_misses
        return self.intern_hits / total if total else 0.0

    @property
    def prepared_hit_rate(self) -> float:
        total = self.prepared_hits + self.prepared_misses
        return self.prepared_hits / total if total else 0.0

    @classmethod
    def merged(cls, parts: "Iterable[EngineStats]") -> "EngineStats":
        """Combine per-worker stats into one run's counters.

        Work counters (events, evaluations, cache hits/misses) are summed;
        ``events_by_case`` is concatenated in the order given, so callers
        must pass the parts in case order; ``levelize_seconds`` is
        max-reduced because the workers levelize concurrently, and
        ``max_rank`` is the same schedule everywhere (max for safety).
        """
        out = cls()
        for s in parts:
            out.events += s.events
            out.evaluations += s.evaluations
            out.vector_events += s.vector_events
            out.lane_splits += s.lane_splits
            out.events_by_case.extend(s.events_by_case)
            out.intern_hits += s.intern_hits
            out.intern_misses += s.intern_misses
            out.memo_hits += s.memo_hits
            out.memo_misses += s.memo_misses
            out.prepared_hits += s.prepared_hits
            out.prepared_misses += s.prepared_misses
            out.incremental_runs += s.incremental_runs
            out.dirty_primitives += s.dirty_primitives
            out.reused_waveforms += s.reused_waveforms
            out.levelize_seconds = max(out.levelize_seconds, s.levelize_seconds)
            out.max_rank = max(out.max_rank, s.max_rank)
        return out


def _strongly_connected(succ: list[list[int]]) -> list[int]:
    """Tarjan's strongly-connected-components, iteratively.

    Returns an SCC id per node.  Iterative because the combinational depth
    of a full-scale design (6 357 chips) comfortably exceeds Python's
    recursion limit.
    """
    n = len(succ)
    order = [-1] * n  # visitation index
    low = [0] * n
    on_stack = [False] * n
    scc_id = [-1] * n
    stack: list[int] = []
    counter = 0
    n_sccs = 0
    for root in range(n):
        if order[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]  # (node, next-child index)
        while work:
            v, child = work[-1]
            if child == 0:
                order[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for k in range(child, len(succ[v])):
                w = succ[v][k]
                if order[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], order[w])
            if descended:
                continue
            work.pop()
            if low[v] == order[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc_id[w] = n_sccs
                    if w == v:
                        break
                n_sccs += 1
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return scc_id


class Engine:
    """Evaluates one circuit to a fixed point and runs its checkers."""

    def __init__(
        self,
        circuit: Circuit,
        config: VerifyConfig | None = None,
        constraints=None,
        intern_table: InternTable | None = None,
    ) -> None:
        self.circuit = circuit
        self.config = config or VerifyConfig()
        #: Optional resolved SDC :class:`~repro.constraints.ConstraintSet`.
        #: With ``None`` the engine's behaviour is byte-identical to the
        #: unconstrained thesis verifier.
        self.constraints = constraints
        #: Monotonic token bumped by :meth:`set_constraints`; part of the
        #: checker-memo key so a swapped constraint set invalidates every
        #: cached checker verdict without an ``id()`` reuse hazard.
        self._constraints_token = 0
        #: The hash-cons table for this engine's waveforms.  A caller that
        #: wants deterministic cross-run sharing (``repro.session``) passes
        #: its own; the default is a fresh per-engine table, so interning
        #: no longer depends on what the process-global table happens to
        #: still hold between back-to-back API runs.
        self._intern_table = intern_table if intern_table is not None else InternTable()
        #: The run's timebase and period: the circuit's own unless
        #: :meth:`initialize` was given another (an Fmax trial period).
        self.timebase, self.period = circuit.timebase, circuit.period_ps
        self.values: dict[Net, Waveform] = {}
        self.stats = EngineStats()
        self.xref_assumed_stable: list[str] = []
        self._case_map: dict[Net, Value] = {}
        #: Word-level divergence state (section "Word-level evaluation" in
        #: DESIGN.md).  A vector net normally carries ONE waveform shared by
        #: all of its lanes; a per-lane case directive ("NAME [i]") is the
        #: only source of per-lane divergence, recorded sparsely here as
        #: overrides against the base value in :attr:`values`.
        self._lanes: dict[Net, dict[int, Waveform]] = {}
        self._lane_case: dict[Net, dict[int, Value]] = {}
        #: True when any per-lane state exists; False keeps every hot path
        #: on the scalar fast path.
        self._word_needed = False
        self._fixed: set[Net] = set()
        self._gating: dict[str, str] = {}  # component name -> directive pin
        self._eval_counts: dict[str, int] = {}
        #: Worklist: a FIFO deque in the naive engine, a rank-keyed heap of
        #: ``(rank, seq, component)`` under levelized scheduling.
        self._queue: deque[Component] = deque()
        self._heap: list[tuple[int, int, Component]] = []
        self._seq = 0
        self._queued: set[str] = set()
        # Static topology maps.
        self._drivers: dict[Net, tuple[Component, str]] = {}
        self._loads: dict[Net, list[Component]] = {}
        # Evaluation caches (section "Performance architecture" in DESIGN.md).
        self._prepared_cache: dict[tuple, tuple[Waveform, Waveform]] = {}
        self._eval_memo: OrderedDict[tuple, Waveform] = OrderedDict()
        #: Content-keyed checker-verdict memo: the violations of one checker
        #: are a pure function of its raw inputs, connection fields, wire
        #: delays, parameters and constraints, so an incremental re-verify
        #: skips the (dominant) re-checking of untouched checkers entirely.
        self._check_memo: OrderedDict[
            tuple, tuple[list[Violation], dict[MarginKey, int]]
        ] = OrderedDict()
        # Levelized schedule: topological rank per component over the
        # combinational graph, computed once per engine (and again only
        # after a topology edit, via rebuild_topology).
        self._ranks: dict[str, int] = {}
        self._levelize_seconds = 0.0
        self._max_rank = 0
        self.rebuild_topology()

    def rebuild_topology(self) -> None:
        """(Re)compute the driver/load maps and the levelized schedule.

        Called once from the constructor and again by the incremental
        layer after an edit that rewires a pin: the maps and ranks are
        pure functions of the circuit's connectivity, so recomputing them
        is always sound (ranks are a drain *order*, never a gate).
        """
        self._drivers.clear()
        self._loads.clear()
        for comp in self.circuit.iter_components():
            for pin, conn in comp.output_pins():
                self._drivers[self.circuit.find(conn.net)] = (comp, pin)
            for pin, conn in comp.input_pins():
                self._loads.setdefault(self.circuit.find(conn.net), []).append(comp)
        if self.config.optimized:
            t0 = time.perf_counter()
            self._ranks = self._compute_ranks()
            self._levelize_seconds += time.perf_counter() - t0
            self._max_rank = max(self._ranks.values(), default=0)

    def set_constraints(self, constraints) -> None:
        """Swap the resolved constraint set, invalidating cached verdicts."""
        self.constraints = constraints
        self._constraints_token += 1

    def _compute_ranks(self) -> dict[str, int]:
        """Topological depth of every non-checker component.

        Edges run from a net's driver to its loads — through registers as
        well as gates, because a downstream pipeline stage cannot settle
        before its upstream register has — except across nets pinned by a
        clock assertion, whose value never depends on the driver.  Cycles
        are broken precisely at the feedback edges: an edge is feedback
        when it stays inside a strongly connected component and leaves a
        sequential element (every feedback path in a legal synchronous
        design runs through a register or latch, section 1.2.2).  A cycle
        with no sequential member — an illegal combinational loop — is
        ranked after everything else.  Ranks are a drain *order*, never a
        gate on evaluation, so correctness is unaffected either way.
        """
        comps = [c for c in self.circuit.iter_components() if not c.prim.is_checker]
        n = len(comps)
        index = {c.name: i for i, c in enumerate(comps)}
        succ: list[list[int]] = [[] for _ in range(n)]
        for i, comp in enumerate(comps):
            for _pin, conn in comp.output_pins():
                rep = self.circuit.find(conn.net)
                assertion = rep.assertion
                if assertion is not None and assertion.kind.is_clock:
                    continue  # the assertion pins this net; no propagation
                for load in self._loads.get(rep, ()):
                    j = index.get(load.name)
                    if j is not None:
                        succ[i].append(j)
        scc = _strongly_connected(succ)
        is_seq = [c.prim.name in _SEQUENTIAL_PRIMS for c in comps]
        indegree = [0] * n
        forward: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            for j in succ[i]:
                if scc[i] == scc[j] and is_seq[i]:
                    continue  # feedback edge: cut
                forward[i].append(j)
                indegree[j] += 1
        rank = [0] * n
        ready = deque(i for i in range(n) if indegree[i] == 0)
        popped = 0
        while ready:
            i = ready.popleft()
            popped += 1
            for j in forward[i]:
                if rank[j] < rank[i] + 1:
                    rank[j] = rank[i] + 1
                indegree[j] -= 1
                if indegree[j] == 0:
                    ready.append(j)
        if popped != n:
            # Combinational loop: schedule its members last (the
            # oscillation valve reports them if they never converge).
            done = [i for i in range(n) if indegree[i] == 0]
            tail = 1 + max((rank[i] for i in done), default=0)
            for i in range(n):
                if indegree[i] > 0:
                    rank[i] = tail
        return {comp.name: rank[i] for i, comp in enumerate(comps)}

    # ------------------------------------------------------------------
    # preparation of input waveforms
    # ------------------------------------------------------------------

    def _wire_delay(self, conn: Connection) -> tuple[int, int]:
        if conn.wire_delay_ps is not None:
            return conn.wire_delay_ps
        rep = self.circuit.find(conn.net)
        if rep.wire_delay_ps is not None:
            return rep.wire_delay_ps
        if conn.net.wire_delay_ps is not None:
            return conn.net.wire_delay_ps
        lo, hi = self.config.default_wire_delay_ps
        per_load = self.config.wire_delay_per_load_ps
        if per_load:
            # Section 3.3's refined rule: a heavily loaded run is slower.
            extra_loads = max(0, len(self._loads.get(rep, ())) - 1)
            hi += per_load * extra_loads
        return lo, hi

    def raw_value(self, net: Net) -> Waveform:
        rep = self.circuit.find(net)
        wf = self.values.get(rep)
        if wf is None:
            wf = Waveform.constant(self.period, UNKNOWN)
        return wf

    def prepared_input(
        self, conn: Connection, zero_wire: bool = False
    ) -> Waveform:
        """The signal as seen at a component input pin.

        Applies the complement marker and the interconnection delay
        (section 2.5.3) unless a ``W``/``Z``/``H`` directive zeroed the
        wire at this input.

        Memoized per ``(connection, zero_wire)`` against the identity of
        the stored net value: a store to the net replaces the value
        instance, which invalidates the entry automatically.  The
        connection fixes the remaining inputs of the computation (invert
        flag and wire delay), so the key is complete.
        """
        raw = self.raw_value(conn.net)
        if not self.config.optimized:
            return self._prepare(conn, raw, zero_wire)
        key = (id(conn), zero_wire)
        entry = self._prepared_cache.get(key)
        if entry is not None and entry[0] is raw:
            self.stats.prepared_hits += 1
            return entry[1]
        self.stats.prepared_misses += 1
        prepared = self._intern(self._prepare(conn, raw, zero_wire))
        self._prepared_cache[key] = (raw, prepared)
        return prepared

    def _prepare(
        self, conn: Connection, raw: Waveform, zero_wire: bool
    ) -> Waveform:
        wf = raw
        if conn.invert:
            wf = wf.mapped(value_not)
        if not zero_wire:
            dmin, dmax = self._wire_delay(conn)
            if (dmin, dmax) != (0, 0):
                wf = wf.delayed(dmin, dmax)
        return wf

    def _intern(self, wf: Waveform) -> Waveform:
        """Hash-cons ``wf`` when interning is enabled, counting hits.

        Goes through the engine's (session-owned) :class:`InternTable`,
        not the process-global table, so cross-run sharing is scoped to
        the session's lifetime and deterministic.
        """
        if not self.config.optimized:
            return wf
        key = (wf.period, wf.segments, wf.skew, wf.eval_str)
        table = self._intern_table.table
        out = table.get(key)
        if out is not None:
            self.stats.intern_hits += 1
            return out
        table[key] = wf
        self.stats.intern_misses += 1
        return wf

    def _directive_letter(self, conn: Connection, raw: Waveform) -> tuple[str, str]:
        """The directive letter governing this gate input, plus the rest.

        A string written at the connection starts a fresh directive string;
        otherwise one riding on the incoming waveform continues an earlier
        one, each gate consuming one letter (section 2.8's EVAL STR PTR).
        """
        if conn.directives:
            return conn.directives[0], conn.directives[1:]
        if raw.eval_str:
            return raw.eval_str[0], raw.eval_str[1:]
        return "", ""

    # ------------------------------------------------------------------
    # initialization (section 2.9, first step)
    # ------------------------------------------------------------------

    def initialize(self, case: dict[str, int] | None = None, timebase=None) -> None:
        """Set every signal to its starting value and queue all primitives.

        A pinned net starts at its :meth:`_source` under ``case``, a
        driven net at UNKNOWN; no store counts as an event.  ``timebase``
        runs the circuit at another clock period (an Fmax probe's); by
        default the run uses the circuit's own.
        """
        timebase = timebase or self.circuit.timebase
        self.timebase, self.period = timebase, timebase.period_ps
        self.values.clear()
        self._eval_counts.clear()
        self._gating.clear()
        self._queue.clear()
        self._heap.clear()
        self._queued.clear()
        self._prepared_cache.clear()
        self._eval_memo.clear()
        self._check_memo.clear()
        self.stats = EngineStats(
            levelize_seconds=self._levelize_seconds, max_rank=self._max_rank
        )
        self._lanes.clear()
        self._case_map, self._lane_case = self._build_case_map(case or {})
        self._word_needed = bool(self._lane_case)
        self._pin_sources(fresh=True)
        for comp in self.circuit.iter_components():
            if not comp.prim.is_checker:
                self._enqueue(comp)

    def _build_case_map(
        self, case: dict[str, int]
    ) -> tuple[dict[Net, Value], dict[Net, dict[int, Value]]]:
        out: dict[Net, Value] = {}
        lanes: dict[Net, dict[int, Value]] = {}
        for name, bit in case.items():
            value = ONE if bit else ZERO
            net = self.circuit.nets.get(name)
            if net is not None:
                out[self.circuit.find(net)] = value
                continue
            ref = parse_lane_ref(self.circuit, name)
            if ref is None:
                raise KeyError(f"case references unknown signal {name!r}")
            rep, lane = ref
            lanes.setdefault(rep, {})[lane] = value
        return out, lanes

    def _apply_case(self, rep: Net, wf: Waveform) -> Waveform:
        """Map STABLE to the case constant for case-analysis signals.

        Section 2.7: the Verifier sets the signal to the case value
        "whenever the circuit would normally set it to the value STABLE".
        """
        target = self._case_map.get(rep)
        if target is None:
            return wf
        return wf.mapped(lambda v: target if v is STABLE else v)

    def _lane_target(self, rep: Net, lane: int) -> Value | None:
        """The case constant governing one lane: lane key beats whole-net."""
        lc = self._lane_case.get(rep)
        if lc is not None:
            target = lc.get(lane)
            if target is not None:
                return target
        return self._case_map.get(rep)

    def _apply_lane_case(self, rep: Net, lane: int, wf: Waveform) -> Waveform:
        target = self._lane_target(rep, lane)
        if target is None:
            return wf
        return wf.mapped(lambda v: target if v is STABLE else v)

    def _source(self, rep: Net) -> tuple[Waveform, bool, bool] | None:
        """Where a net's value comes from when it is not its driver's.

        None for a driven net.  Otherwise the pinned raw waveform, whether
        case analysis maps it, and whether the net is assumed stable.  A
        pure function of the net, the timebase and the constraints, so a
        fresh run, a case switch and an incremental re-entry all start a
        pinned net from the same value.
        """
        name = rep.base_name.upper()
        if name in _SUPPLY:
            return Waveform.constant(self.period, _SUPPLY[name]), False, False
        assertion = rep.assertion
        if assertion is not None and assertion.kind.is_clock:
            # Clock assertions pin the signal for the whole run.
            skew = self.config.clock_skew_ns(
                assertion.kind.name == "PRECISION_CLOCK"
            )
            return assertion.waveform(self.timebase, skew), False, False
        if rep in self._drivers:
            return None
        if assertion is not None:
            # Interface signal: the designer's assertion drives it until
            # hardware generates it (section 2.5.2).
            return assertion.waveform(self.timebase), True, False
        if self.constraints is not None:
            spec = self.constraints.input_delay_for(rep.name)
            if spec is not None:
                # set_input_delay: the port changes inside the declared
                # windows around its reference clock edge and is stable
                # elsewhere.  The static analysis synthesizes its arrival
                # windows from the very same spans (input_delay_spans), so
                # enclosure holds by construction.
                from ..constraints import input_delay_spans

                spans = input_delay_spans(
                    spec, self.circuit, self.config, self.timebase
                )
                if spans:
                    wf = Waveform.from_intervals(
                        self.period,
                        STABLE,
                        [(lo, hi, CHANGE) for lo, hi in spans],
                    )
                    return wf, True, False
        # Undefined signal with no assertion: taken to be always stable and
        # put on a special cross-reference listing (section 2.5).
        return Waveform.constant(self.period, STABLE), True, True

    def _cased(
        self, rep: Net, raw: Waveform, caseable: bool
    ) -> tuple[Waveform, dict[int, Waveform]]:
        """A pinned net's interned word under the current case: the base,
        and the lanes whose lane case key sets them apart from it."""
        if not caseable:
            return self._intern(raw), {}
        base = self._intern(self._apply_case(rep, raw))
        over: dict[int, Waveform] = {}
        for lane in sorted(self._lane_case.get(rep, ())):
            wf = self._intern(self._apply_lane_case(rep, lane, raw))
            if wf != base:
                over[lane] = wf
        return base, over

    def _pin_sources(self, fresh: bool) -> int:
        """Classify every net and give each pinned net its start value.

        Rebuilds the pinned set and the assumed-stable cross-reference.  A
        ``fresh`` run sets the values silently and starts driven nets at
        UNKNOWN; otherwise driven nets keep their converged values and a
        pinned net whose word changed is committed as an event.  Returns
        the number of nets whose stored word was kept.
        """
        self._fixed.clear()
        self.xref_assumed_stable.clear()
        kept = 0
        for rep in self.circuit.representatives():
            source = self._source(rep)
            if source is None:
                if fresh:
                    unknown = Waveform.constant(self.period, UNKNOWN)
                    self.values[rep] = self._intern(unknown)
                else:
                    kept += 1
                continue
            raw, caseable, assumed = source
            self._fixed.add(rep)
            if assumed:
                self.xref_assumed_stable.append(rep.name)
            base, over = self._cased(rep, raw, caseable)
            if fresh:
                self.values[rep] = base
                if over:
                    self._lanes[rep] = over
            elif not self._commit(rep, base, over):
                kept += 1
        return kept

    # ------------------------------------------------------------------
    # fixed point
    # ------------------------------------------------------------------

    def _enqueue(self, comp: Component) -> None:
        if comp.prim.is_checker or comp.name in self._queued:
            return
        if self.config.optimized:
            heapq.heappush(
                self._heap, (self._ranks.get(comp.name, 0), self._seq, comp)
            )
            self._seq += 1
        else:
            self._queue.append(comp)
        self._queued.add(comp.name)

    def _pop(self) -> Component | None:
        if self.config.optimized:
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[2]
        return self._queue.popleft() if self._queue else None

    def _store(self, conn: Connection, wf: Waveform) -> None:
        rep = self.circuit.find(conn.net)
        if rep in self._fixed:
            return  # assertion or supply wins over the driver
        wf = self._intern(self._apply_case(rep, wf))
        prev = self.values.get(rep)
        # With interning, equal values share one instance, so convergence
        # detection is an identity check first and an ``==`` walk only for
        # non-interned values.
        if prev is wf or prev == wf:
            return
        self.values[rep] = wf
        self.stats.events += 1
        if rep.width > 1:
            self.stats.vector_events += 1
        for load in self._loads.get(rep, ()):
            self._enqueue(load)

    def _store_word(self, conn: Connection, lane_out: list[Waveform]) -> None:
        """Store a per-lane evaluation result as base + sparse overrides."""
        rep = self.circuit.find(conn.net)
        if rep in self._fixed:
            return  # assertion or supply wins over the driver
        n = len(lane_out)
        word = WordWave.from_lanes(
            [
                self._intern(self._apply_lane_case(rep, lane, lane_out[lane % n]))
                for lane in range(rep.width)
            ]
        )
        self._commit(rep, word.base, word.overrides)

    def _commit(
        self, rep: Net, base: Waveform, over: dict[int, Waveform]
    ) -> bool:
        """Store a net's word (base plus lane overrides) if it changed.

        A change is one event, whatever the net's width, and queues the
        net's loads; returns whether the word changed.
        """
        prev = self.values.get(rep)
        if (prev is base or prev == base) and self._lanes.get(rep, {}) == over:
            return False
        self.values[rep] = base
        if over:
            self._lanes[rep] = dict(over)
            self.stats.lane_splits += 1
        else:
            self._lanes.pop(rep, None)
        self.stats.events += 1
        if rep.width > 1:
            self.stats.vector_events += 1
        for load in self._loads.get(rep, ()):
            self._enqueue(load)
        return True

    def run(self) -> int:
        """Drain the worklist to a fixed point; returns events processed."""
        start_events = self.stats.events
        limit = self.config.max_evals_per_component
        while True:
            comp = self._pop()
            if comp is None:
                break
            self._queued.discard(comp.name)
            count = self._eval_counts.get(comp.name, 0) + 1
            self._eval_counts[comp.name] = count
            if count > limit:
                raise OscillationError(comp, count)
            self.stats.evaluations += 1
            self._evaluate(comp)
        events = self.stats.events - start_events
        self.stats.events_by_case.append(events)
        return events

    def run_cases(
        self, cases: list[dict[str, int]], first: int = 0
    ) -> Iterator[tuple[int, int, CheckReport]]:
        """Run and check each case in turn from the state :meth:`initialize`
        or :meth:`incremental_begin` left at ``cases[0]`` (section 2.7).

        Yields ``(index, events, report)`` per case, numbered from
        ``first``, while the engine holds that case's converged state.
        """
        for index, case in enumerate(cases, first):
            if index > first:
                self.apply_case(case)
            events = self.run()
            yield index, events, self.check(case_index=index)

    def apply_case(self, case: dict[str, int]) -> None:
        """Switch to the next case, disturbing only affected signals.

        A driven net whose case keys changed has its driver re-evaluated,
        which re-stores the value through the new case mapping (the word
        path also refreshes any stale lane overrides at that store).  An
        undriven one is re-pinned from :meth:`_source` exactly as
        :meth:`initialize` pins it, so the case switch converges to what a
        fresh run of ``case`` converges to.
        """
        new_map, new_lanes = self._build_case_map(case)
        affected = {
            rep
            for rep in (
                set(new_map)
                | set(self._case_map)
                | set(new_lanes)
                | set(self._lane_case)
            )
            if new_map.get(rep) is not self._case_map.get(rep)
            or new_lanes.get(rep) != self._lane_case.get(rep)
        }
        self._case_map = new_map
        self._lane_case = new_lanes
        for rep in affected:
            if rep in self._drivers:
                self._enqueue(self._drivers[rep][0])
            else:
                raw, caseable, _assumed = self._source(rep)
                self._commit(rep, *self._cased(rep, raw, caseable))
        # The scalar store never clears lane overrides, so a word an earlier
        # case split keeps the word path on until its driver merges it.
        self._word_needed = bool(self._lane_case or self._lanes)

    # ------------------------------------------------------------------
    # incremental re-verification (repro.session / repro.incremental)
    # ------------------------------------------------------------------

    def forget_connections(self, conns: Iterable[Connection]) -> None:
        """Drop prepared-input cache entries for retired/edited connections.

        The prepared cache validates by identity of the stored *raw*
        waveform only, so an edit that changes a connection's effective
        wire delay without disturbing the raw value (or that replaces the
        Connection object entirely, freeing its ``id()`` for reuse) must
        purge its entries explicitly.
        """
        ids = {id(c) for c in conns}
        if not ids:
            return
        stale = [key for key in self._prepared_cache if key[0] in ids]
        for key in stale:
            del self._prepared_cache[key]

    def _dirty_cone(self, seeds: Iterable[Component]) -> set[str]:
        """Names of every evaluated primitive in the seeds' transitive fanout.

        This is reporting/pre-screen scoping only — the worklist is seeded
        with the *directly* dirty components and the event propagation IS
        the cone traversal — so the walk follows the same edges the
        levelizer does: fanout stops at nets pinned by a clock assertion,
        whose value never depends on the driver.
        """
        seen: set[str] = set()
        stack = [c for c in seeds if not c.prim.is_checker]
        while stack:
            comp = stack.pop()
            if comp.name in seen:
                continue
            seen.add(comp.name)
            for _pin, conn in comp.output_pins():
                rep = self.circuit.find(conn.net)
                assertion = rep.assertion
                if assertion is not None and assertion.kind.is_clock:
                    continue
                for load in self._loads.get(rep, ()):
                    if not load.prim.is_checker and load.name not in seen:
                        stack.append(load)
        return seen

    def incremental_begin(
        self, case: dict[str, int] | None, dirty: Iterable[Component]
    ) -> None:
        """Re-enter the fixed point after circuit edits, reusing state.

        The alternative to :meth:`initialize` for a circuit already
        verified by this engine: stored waveforms, the intern table, the
        evaluation memo and the prepared-input cache all survive; only
        the ``dirty`` components (plus anything the reclassification scan
        below disturbs) are enqueued.  Correctness rests on the same
        argument as :meth:`apply_case` and the parallel case blocks: for
        a legal synchronous design the fixed point is unique, so any
        starting state converges to the same waveforms provided every
        component whose inputs differ from the converged state is queued.

        Three steps:

        1. ``apply_case`` switches from the last run's final case mapping
           back to ``case`` (normally ``cases[0]``), disturbing exactly
           the case-affected signals.
        2. The reclassification scan, the same one :meth:`initialize`
           runs, re-reads every net's :meth:`_source` (edits can move
           nets between classes), committing each pinned net whose word
           changed and rebuilding the assumed-stable cross-reference.
           Driven nets keep their stored waveforms (counted as
           ``reused_waveforms``).
        3. The ``dirty`` components are enqueued to seed the worklist.
        """
        if not self.values:
            raise RuntimeError(
                "incremental_begin needs a previously converged run; "
                "call initialize() + run() first"
            )
        dirty = list(dirty)
        self._eval_counts.clear()
        self._queue.clear()
        self._heap.clear()
        self._queued.clear()
        self.stats = EngineStats(
            levelize_seconds=self._levelize_seconds,
            max_rank=self._max_rank,
            incremental_runs=1,
        )
        self.apply_case(case or {})
        self.stats.reused_waveforms = self._pin_sources(fresh=False)
        for comp in dirty:
            self._enqueue(comp)
        self.stats.dirty_primitives = len(self._dirty_cone(dirty))

    # ------------------------------------------------------------------
    # primitive evaluation
    # ------------------------------------------------------------------

    def _memoized(self, key: tuple, thunk) -> Waveform:
        """LRU-memoize one primitive model evaluation.

        Soundness rule: ``key`` must include *everything* that can affect
        the model's output — the primitive identity, every (interned)
        input waveform (whose equality covers segments, skew and eval
        string), and every delay parameter.  The models themselves are
        pure functions of those inputs.
        """
        if not self.config.optimized:
            return thunk()
        memo = self._eval_memo
        out = memo.get(key)
        if out is not None:
            self.stats.memo_hits += 1
            memo.move_to_end(key)
            return out
        self.stats.memo_misses += 1
        out = self._intern(thunk())
        memo[key] = out
        if len(memo) > _MEMO_SIZE:
            memo.popitem(last=False)
        return out

    def _raw_of(self, conn: Connection) -> Waveform:
        return self.raw_value(conn.net)

    def _comp_diverged(self, comp: Component) -> bool:
        """Does any pin of ``comp`` touch a net with per-lane state?"""
        lanes = self._lanes
        lane_case = self._lane_case
        for conn in comp.pins.values():
            rep = self.circuit.find(conn.net)
            if rep in lanes or rep in lane_case:
                return True
        return False

    def _input_conns(self, comp: Component) -> list[Connection]:
        """Every non-output connection, in pin declaration order."""
        out_pins = {pin for pin, _conn in comp.output_pins()}
        return [conn for pin, conn in comp.pins.items() if pin not in out_pins]

    def _lane_raw(self, conn: Connection, lane: int) -> Waveform:
        return self._net_lane_value(conn.net, lane)

    def _net_lane_value(self, net: Net, lane: int) -> Waveform:
        """One lane of a net: the sparse override if present, else the base."""
        rep = self.circuit.find(net)
        over = self._lanes.get(rep)
        if over:
            wf = over.get(lane % rep.width)
            if wf is not None:
                return wf
        return self.raw_value(net)

    def _lane_prepared(
        self, conn: Connection, lane: int, zero_wire: bool = False
    ) -> Waveform:
        """Per-lane :meth:`prepared_input`, sharing the scalar cache.

        A lane whose raw value is the net's base waveform prepares through
        the ordinary per-connection cache; only overridden lanes pay for a
        lane-keyed entry.
        """
        rep = self.circuit.find(conn.net)
        idx = lane % rep.width
        over = self._lanes.get(rep)
        raw = over.get(idx) if over else None
        if raw is None:
            return self.prepared_input(conn, zero_wire)
        if not self.config.optimized:
            return self._prepare(conn, raw, zero_wire)
        key = (id(conn), zero_wire, idx)
        entry = self._prepared_cache.get(key)
        if entry is not None and entry[0] is raw:
            self.stats.prepared_hits += 1
            return entry[1]
        self.stats.prepared_misses += 1
        prepared = self._intern(self._prepare(conn, raw, zero_wire))
        self._prepared_cache[key] = (raw, prepared)
        return prepared

    def _evaluate(self, comp: Component) -> None:
        if self._word_needed and self._comp_diverged(comp):
            self._evaluate_word(comp)
            return
        out = self._model_output(comp, self._raw_of, self.prepared_input)
        self._store(comp.pins["OUT"], out)

    def _evaluate_word(self, comp: Component) -> None:
        """Per-lane evaluation of a primitive with diverged inputs (the runs
        share the content-addressed memo with the scalar path)."""
        lane_out, _groups = self._per_lane(comp, partial(self._model_output, comp))
        self._store_word(comp.pins["OUT"], lane_out)

    def _per_lane(
        self, comp: Component, run: Callable[..., _T]
    ) -> tuple[list[_T], int]:
        """Call ``run(raw_of, prepared_of)`` once per group of lanes whose
        raw inputs agree; return each lane's result and the group count.

        So a word primitive or checker costs one run per *divergence
        group*, not one per bit.
        """
        in_conns = self._input_conns(comp)
        groups: dict[tuple[Waveform, ...], _T] = {}
        results: list[_T] = []
        for lane in range(comp.width):
            key = tuple(self._lane_raw(conn, lane) for conn in in_conns)
            if key not in groups:
                groups[key] = run(
                    partial(self._lane_raw, lane=lane),
                    partial(self._lane_prepared, lane=lane),
                )
            results.append(groups[key])
        return results, len(groups)

    def _model_output(
        self,
        comp: Component,
        raw_of: Callable[[Connection], Waveform],
        prepared_of: Callable[..., Waveform],
    ) -> Waveform:
        prim = comp.prim.name
        if prim in _GATE_PRIMS:
            return self._evaluate_gate(comp, raw_of, prepared_of)
        if prim in ("REG", "REG_RS"):
            clock = prepared_of(comp.pins["CLOCK"])
            data = prepared_of(comp.pins["DATA"])
            delay = comp.delay_ps()
            set_ = self._optional_input(comp, "SET", prepared_of)
            reset = self._optional_input(comp, "RESET", prepared_of)
            return self._memoized(
                ("REG", clock, data, delay, set_, reset),
                lambda: eval_register(
                    clock=clock, data=data, delay=delay, set_=set_, reset=reset
                ),
            )
        if prim in ("LATCH", "LATCH_RS"):
            enable = prepared_of(comp.pins["ENABLE"])
            data = prepared_of(comp.pins["DATA"])
            delay = comp.delay_ps()
            set_ = self._optional_input(comp, "SET", prepared_of)
            reset = self._optional_input(comp, "RESET", prepared_of)
            return self._memoized(
                ("LATCH", enable, data, delay, set_, reset),
                lambda: eval_latch(
                    enable=enable, data=data, delay=delay, set_=set_, reset=reset
                ),
            )
        if prim.startswith("MUX"):
            n = int(prim[3:])
            n_sel = max(1, n.bit_length() - 1)
            selects = tuple(
                prepared_of(comp.pins[f"S{i}"]) for i in range(n_sel)
            )
            data = tuple(prepared_of(comp.pins[f"I{i}"]) for i in range(n))
            delay = comp.delay_ps()
            select_delay = comp.delay_ps("select_delay")
            return self._memoized(
                ("MUX", selects, data, delay, select_delay),
                lambda: eval_mux(
                    selects, data, delay=delay, select_delay=select_delay
                ),
            )
        # pragma: no cover - registry covers everything else
        raise AssertionError(f"no model for primitive {prim}")

    def _optional_input(
        self, comp: Component, pin: str, prepared_of: Callable[..., Waveform]
    ) -> Waveform | None:
        conn = comp.pins.get(pin)
        return prepared_of(conn) if conn is not None else None

    def _evaluate_gate(
        self,
        comp: Component,
        raw_of: Callable[[Connection], Waveform],
        prepared_of: Callable[..., Waveform],
    ) -> Waveform:
        """Gate evaluation with directive handling (section 2.6)."""
        conns = [conn for _pin, conn in comp.input_pins()]
        pins = [pin for pin, _conn in comp.input_pins()]
        raws = [raw_of(c) for c in conns]
        letters: list[str] = []
        rests: list[str] = []
        for conn, raw in zip(conns, raws):
            letter, rest = self._directive_letter(conn, raw)
            letters.append(letter)
            rests.append(rest)
        prepared = [
            prepared_of(conn, zero_wire=(letter in _ZERO_WIRE))
            for conn, letter in zip(conns, letters)
        ]
        delay = comp.delay_ps()
        gate_zeroed = any(letter in _ZERO_GATE for letter in letters)
        if gate_zeroed:
            delay = (0, 0)
        assume_idx = next(
            (i for i, letter in enumerate(letters) if letter in _ASSUME), None
        )
        if assume_idx is not None:
            self._gating[comp.name] = pins[assume_idx]
            enabling = ENABLING_LEVEL.get(comp.prim.name, STABLE)
            enabling_wf = Waveform.constant(self.period, enabling)
            prepared = [
                wf if i == assume_idx else enabling_wf
                for i, wf in enumerate(prepared)
            ]
        else:
            self._gating.pop(comp.name, None)
        rise = comp.params.get("rise_delay")
        fall = comp.params.get("fall_delay")
        inputs = tuple(wf.with_eval_str("") for wf in prepared)
        if (rise or fall) and not gate_zeroed:
            # Asymmetric technology (section 4.2.2): combine at zero delay,
            # then apply the per-edge ranges to the *output* transitions.
            # Inversions need no special handling — the zero-delay output
            # already carries the inverted edge directions, so alternating
            # rise/fall roles through multiple inverting levels (the
            # thesis's adjustment) falls out automatically.
            from .risefall import rise_fall_delayed

            rise = rise or delay
            fall = fall or delay
            out = self._memoized(
                ("GATE_RF", comp.prim.name, inputs, rise, fall),
                lambda: rise_fall_delayed(
                    eval_gate(
                        comp.prim.name, inputs, (0, 0), comp.prim.inverting
                    ),
                    rise,
                    fall,
                ),
            )
        else:
            out = self._memoized(
                ("GATE", comp.prim.name, inputs, delay),
                lambda: eval_gate(
                    comp.prim.name, inputs, delay, comp.prim.inverting
                ),
            )
        remaining = next((r for r in rests if r), "")
        return out.with_eval_str(remaining)

    # ------------------------------------------------------------------
    # checking phase (section 2.9, third step)
    # ------------------------------------------------------------------

    def check(self, case_index: int = 0) -> CheckReport:
        """Evaluate every checker against the converged signal values.

        The report carries the case's violations and the margin of each
        setup, hold and minimum-pulse-width check.
        """
        report = CheckReport()
        violations, margins = report.violations, report.margins
        for comp in self.circuit.iter_components():
            if not comp.prim.is_checker:
                continue
            violations.extend(self._check_one(comp, case_index, margins))
        violations.extend(self._check_gating(case_index, margins))
        if self.config.check_assertions:
            violations.extend(self._check_assertions(case_index))
        if self.constraints is not None:
            violations.extend(self._check_constraints(case_index, margins))
        return report

    def _suffix_name(self, name: str, lane: int) -> str:
        """Lane-qualify a signal name when its net is a vector.

        Matches the :func:`~repro.netlist.bitblast.bit_blast` naming
        contract — ``"NAME [i]"`` with ``i`` modulo the net's width, scalar
        nets untouched, a clock's ``-`` prefix preserved.
        """
        invert = name.startswith("-")
        bare = name[1:] if invert else name
        net = self.circuit.nets.get(bare)
        if net is None:
            return name
        rep = self.circuit.find(net)
        if rep.width == 1:
            return name
        return ("-" if invert else "") + f"{bare} [{lane % rep.width}]"

    def _relabel(self, comp: Component, v: Violation, lane: int) -> Violation:
        fields: dict[str, str] = {"signal": self._suffix_name(v.signal, lane)}
        if comp.width > 1:
            fields["component"] = f"{comp.name} [{lane}]"
        if v.clock is not None:
            fields["clock"] = self._suffix_name(v.clock, lane)
        return _dc_replace(v, **fields)

    def _relabel_margin(
        self, comp: Component, key: MarginKey, lane: int
    ) -> MarginKey:
        """The lane's name for a margin, exactly as :meth:`_relabel` names
        the same check's violations."""
        component, kind, signal, case_index = key
        if comp.width > 1:
            component = f"{comp.name} [{lane}]"
        return (component, kind, self._suffix_name(signal, lane), case_index)

    def _run_check(
        self,
        comp: Component,
        case_index: int,
        impl,
        margins: dict[MarginKey, int],
    ) -> list[Violation]:
        """Run one checker body on ``comp``, per lane group if it diverged.

        ``impl(comp, case_index, raw_of, prepared_of, margins)`` must
        produce records and margins with unsuffixed names.  When every
        lane lands in the same group the word has not really diverged at
        this checker, and the single run's records come back unsuffixed —
        byte-identical to the scalar path (the per-bit comparison expands
        an unsuffixed record over the full width, so blast parity holds).
        """
        if not (self._word_needed and self._comp_diverged(comp)):
            return impl(comp, case_index, self._raw_of, self.prepared_input, margins)

        def run(raw_of, prepared_of):
            found: dict[MarginKey, int] = {}
            return impl(comp, case_index, raw_of, prepared_of, found), found

        lanes, groups = self._per_lane(comp, run)
        if groups == 1:
            records, found = lanes[0]
            margins.update(found)
            return records
        out: list[Violation] = []
        for lane, (records, found) in enumerate(lanes):
            out.extend(self._relabel(comp, v, lane) for v in records)
            for key, margin in found.items():
                margins[self._relabel_margin(comp, key, lane)] = margin
        return out

    def _checker_key(self, comp: Component, case_index: int) -> tuple:
        """A content key covering everything a checker's verdict depends on.

        Soundness rule (as for :meth:`_memoized`): the key must include
        *everything* that can change the records — the checker identity
        and parameters, per-pin the net name (records embed it), invert
        flag, directives, effective wire delay and raw waveform, the case
        index (records embed it too), and the constraints token (checker
        mods are looked up live).  ``period``, ``glitch_warnings`` and
        ``check_assertions`` are fixed per engine.
        """
        inputs = tuple(
            (
                pin,
                conn.net.name,
                conn.invert,
                conn.directives,
                self._wire_delay(conn),
                self.raw_value(conn.net),
            )
            for pin, conn in sorted(comp.pins.items())
        )
        return (
            comp.name,
            case_index,
            self._constraints_token,
            tuple(sorted(comp.params.items())),
            inputs,
        )

    def _check_one(
        self, comp: Component, case_index: int, margins: dict[MarginKey, int]
    ) -> list[Violation]:
        if not self.config.optimized or (
            self._word_needed and self._comp_diverged(comp)
        ):
            return self._run_check(comp, case_index, self._check_one_impl, margins)
        key = self._checker_key(comp, case_index)
        memo = self._check_memo
        cached = memo.get(key)
        if cached is None:
            found: dict[MarginKey, int] = {}
            cached = memo[key] = (
                self._check_one_impl(
                    comp, case_index, self._raw_of, self.prepared_input, found
                ),
                found,
            )
            if len(memo) > _MEMO_SIZE:
                memo.popitem(last=False)
        else:
            memo.move_to_end(key)
        records, found = cached
        margins.update(found)
        return list(records)

    def _check_one_impl(
        self, comp: Component, case_index: int, raw_of, prepared_of, margins
    ) -> list[Violation]:
        prim = comp.prim.name
        if prim == "MIN_PULSE_WIDTH":
            conn = comp.pins["I"]
            return check_min_pulse_width(
                comp.name,
                conn.net.name,
                prepared_of(conn),
                comp.params.get("min_high"),
                comp.params.get("min_low"),
                case_index=case_index,
                glitch_warnings=self.config.glitch_warnings,
                margins=margins,
            )
        i_conn, ck_conn = comp.pins["I"], comp.pins["CK"]
        data = prepared_of(i_conn)
        clock = prepared_of(ck_conn)
        clock_name = ("-" if ck_conn.invert else "") + ck_conn.net.name
        mods = (
            self.constraints.mods_for(comp.name)
            if self.constraints is not None
            else None
        )
        if mods is not None:
            if mods.waived:
                return []  # false path: pruned at the checker boundary
            s_eff, h_eff = mods.effective(
                comp.params["setup"], comp.params["hold"], self.period
            )
            if prim == "SETUP_HOLD_CHK":
                return check_setup_hold_windows(
                    comp.name,
                    i_conn.net.name,
                    data,
                    clock_name,
                    clock,
                    setup_eff_ps=s_eff,
                    hold_eff_ps=h_eff,
                    setup_req_ps=comp.params["setup"],
                    hold_req_ps=comp.params["hold"],
                    case_index=case_index,
                    clock_shift_ps=mods.clock_shift_ps,
                    margins=margins,
                )
            # Rise/fall checker: the three windows anchor on different
            # edges, so the effective extents are clamped at zero (a waived
            # side checks nothing) and fed to the nominal checker against
            # the latency-shifted clock.  The static side mirrors this
            # clamped construction exactly.
            return check_setup_rise_hold_fall(
                comp.name,
                i_conn.net.name,
                data,
                clock_name,
                clock.rotated(mods.clock_shift_ps),
                max(0, s_eff),
                max(0, h_eff),
                case_index=case_index,
                margins=margins,
            )
        checker = (
            check_setup_hold
            if prim == "SETUP_HOLD_CHK"
            else check_setup_rise_hold_fall
        )
        return checker(
            comp.name,
            i_conn.net.name,
            data,
            clock_name,
            clock,
            comp.params["setup"],
            comp.params["hold"],
            case_index=case_index,
            margins=margins,
        )

    def _check_constraints(
        self, case_index: int, margins: dict[MarginKey, int]
    ) -> list[Violation]:
        """Checks that exist only when an SDC constraint demands them.

        Each has a static twin in ``sta/slack.py`` producing the same-keyed
        record, so ``crosscheck.check_encloses`` can compare verdicts
        per (component, kind, signal).
        """
        cs = self.constraints
        out: list[Violation] = []
        for comp in self.circuit.iter_components():
            prim = comp.prim.name
            if prim in ("REG_RS", "LATCH_RS") and cs.rs_for(comp.name) is not None:
                out.extend(
                    self._run_check(comp, case_index, self._check_rs_impl, margins)
                )
            if prim in ("LATCH", "LATCH_RS") and cs.borrow_for(comp.name) is not None:
                out.extend(
                    self._run_check(comp, case_index, self._check_borrow_impl, margins)
                )
        for spec in cs.output_delays:
            out.extend(self._check_output_delay(spec, case_index, margins))
        return out

    # Recovery, removal, borrow and gating checks file no margins; their
    # bodies take ``margins`` only to share _run_check's signature.

    def _check_rs_impl(
        self, comp: Component, case_index: int, raw_of, prepared_of, margins
    ) -> list[Violation]:
        spec = self.constraints.rs_for(comp.name)
        prim = comp.prim.name
        clock_pin = "CLOCK" if prim == "REG_RS" else "ENABLE"
        clock_conn = comp.pins[clock_pin]
        clock = prepared_of(clock_conn)
        out: list[Violation] = []
        for pin in ("SET", "RESET"):
            conn = comp.pins.get(pin)
            if conn is None:
                continue
            out.extend(
                check_recovery_removal(
                    comp.name,
                    conn.net.name,
                    prepared_of(conn),
                    clock_conn.net.name,
                    clock,
                    spec.recovery_ps,
                    spec.removal_ps,
                    case_index=case_index,
                )
            )
        return out

    def _check_borrow_impl(
        self, comp: Component, case_index: int, raw_of, prepared_of, margins
    ) -> list[Violation]:
        borrow = self.constraints.borrow_for(comp.name)
        enable_conn = comp.pins["ENABLE"]
        data_conn = comp.pins["DATA"]
        return check_max_time_borrow(
            comp.name,
            data_conn.net.name,
            prepared_of(data_conn),
            enable_conn.net.name,
            prepared_of(enable_conn),
            borrow,
            case_index=case_index,
        )

    def _check_output_delay(
        self, spec, case_index: int, margins: dict[MarginKey, int]
    ) -> list[Violation]:
        """set_output_delay as a setup/hold check on the port's raw value.

        Resolves per-bit clones (``"NET [i]"``) when the exact name is
        absent — the bit-blasted twin of a vector port — and expands by
        lane when the word-level run diverged the port or its clock.
        """
        out: list[Violation] = []
        net = self.circuit.nets.get(spec.net)
        clock_net = self.circuit.nets.get(spec.clock)
        if net is None:
            # Bit-blasted circuit: check each per-bit clone of the port.
            i = 0
            while True:
                n = self.circuit.nets.get(f"{spec.net} [{i}]")
                if n is None:
                    break
                cn = clock_net or self.circuit.nets.get(f"{spec.clock} [{i}]")
                if cn is not None:
                    out.extend(
                        check_setup_hold(
                            f"sdc@{spec.net}",
                            n.name,
                            self.raw_value(n),
                            cn.name,
                            self.raw_value(cn),
                            spec.setup_ps,
                            spec.hold_ps,
                            case_index=case_index,
                            margins=margins,
                        )
                    )
                i += 1
            return out
        if clock_net is None:
            return out
        rep = self.circuit.find(net)
        crep = self.circuit.find(clock_net)
        if self._lanes.get(rep) or self._lanes.get(crep):
            cache: dict[
                tuple[Waveform, Waveform],
                tuple[list[Violation], dict[MarginKey, int]],
            ] = {}
            for lane in range(rep.width):
                data = self._net_lane_value(net, lane)
                clock = self._net_lane_value(clock_net, lane)
                entry = cache.get((data, clock))
                if entry is None:
                    found: dict[MarginKey, int] = {}
                    records = check_setup_hold(
                        f"sdc@{spec.net}",
                        spec.net,
                        data,
                        spec.clock,
                        clock,
                        spec.setup_ps,
                        spec.hold_ps,
                        case_index=case_index,
                        margins=found,
                    )
                    entry = cache[(data, clock)] = (records, found)
                records, found = entry
                for (component, kind, signal, ci), margin in found.items():
                    note_margin(
                        margins,
                        (component, kind, self._suffix_name(signal, lane), ci),
                        margin,
                    )
                out.extend(
                    _dc_replace(
                        v,
                        signal=self._suffix_name(v.signal, lane),
                        clock=self._suffix_name(v.clock, lane)
                        if v.clock is not None
                        else None,
                    )
                    for v in records
                )
            return out
        return check_setup_hold(
            f"sdc@{spec.net}",
            spec.net,
            self.raw_value(net),
            spec.clock,
            self.raw_value(clock_net),
            spec.setup_ps,
            spec.hold_ps,
            case_index=case_index,
            margins=margins,
        )

    def _check_gating(
        self, case_index: int, margins: dict[MarginKey, int]
    ) -> list[Violation]:
        """The ``&A``/``&H`` stability checks recorded during evaluation."""
        out: list[Violation] = []
        for comp_name in sorted(self._gating):
            comp = self.circuit.components[comp_name]
            out.extend(
                self._run_check(comp, case_index, self._check_gating_impl, margins)
            )
        return out

    def _check_gating_impl(
        self, comp: Component, case_index: int, raw_of, prepared_of, margins
    ) -> list[Violation]:
        out: list[Violation] = []
        directive_pin = self._gating[comp.name]
        clock_conn = comp.pins[directive_pin]
        raw = raw_of(clock_conn)
        letter, _rest = self._directive_letter(clock_conn, raw)
        clock = prepared_of(clock_conn, zero_wire=(letter in _ZERO_WIRE))
        for pin, conn in comp.input_pins():
            if pin == directive_pin:
                continue
            control = prepared_of(conn)
            out.extend(
                check_gating_stability(
                    comp.name,
                    conn.net.name,
                    control,
                    clock_conn.net.name,
                    clock,
                    case_index=case_index,
                )
            )
        return out

    def _check_assertions(self, case_index: int) -> list[Violation]:
        """Generated signals must honour their stable assertions."""
        out: list[Violation] = []
        for rep in self.circuit.representatives():
            assertion = rep.assertion
            if (
                assertion is None
                or assertion.kind.is_clock
                or rep not in self._drivers
            ):
                continue
            asserted = assertion.waveform(self.timebase)
            over = self._lanes.get(rep)
            if over:
                cache: dict[Waveform, list[Violation]] = {}
                for lane in range(rep.width):
                    wf = over.get(lane, self.values[rep])
                    records = cache.get(wf)
                    if records is None:
                        records = cache[wf] = check_stable_assertion(
                            rep.name, wf, asserted, case_index=case_index
                        )
                    out.extend(
                        _dc_replace(v, signal=self._suffix_name(v.signal, lane))
                        for v in records
                    )
            else:
                out.extend(
                    check_stable_assertion(
                        rep.name, self.values[rep], asserted, case_index=case_index
                    )
                )
        return out

    # ------------------------------------------------------------------
    # results access
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Waveform]:
        """The converged waveform of every representative signal, by name."""
        return {rep.name: self.values[rep] for rep in self.circuit.representatives()}

    def waveform_of(self, name: str) -> Waveform:
        net = self.circuit.nets.get(name)
        if net is None:
            raise KeyError(f"no signal named {name!r}")
        return self.raw_value(net)

    def word_value(self, name: str) -> WordWave:
        """The full word on a net: base waveform plus per-lane overrides."""
        net = self.circuit.nets.get(name)
        if net is None:
            raise KeyError(f"no signal named {name!r}")
        rep = self.circuit.find(net)
        return WordWave(rep.width, self.raw_value(net), self._lanes.get(rep, {}))
