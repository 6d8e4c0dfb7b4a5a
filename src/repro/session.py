"""Long-lived verification sessions with incremental re-verify.

The thesis's usage model is a designer iterating edit → verify → edit on
one large design; the engine, however, historically rebuilt every run
from scratch — intern table, memo caches, levelized ranks and stored
waveforms all died with the call.  A :class:`Session` owns that run-scoped
state explicitly and keeps it alive across runs:

* one expanded :class:`~repro.netlist.Circuit` (edited in place through
  the typed :mod:`repro.incremental` API),
* one persistent :class:`~repro.core.engine.Engine` holding the stored
  waveforms, the evaluation/prepared/checker memos and the levelized
  schedule,
* one session-owned :class:`~repro.core.waveform.InternTable`, so
  cross-run hash-consing is deterministic instead of riding on the
  garbage collector's treatment of a process-global weak table,
* once the first prescreen has run, one held
  :class:`~repro.sta.StaAnalysis` (windows, domains, slack), brought up
  to date from each later batch of timing edits.

:meth:`Session.verify` is a full run (and :class:`TimingVerifier` is now
a thin wrapper that makes a one-shot session); :meth:`Session.reverify`
re-enters the fixed point from the converged state, seeding the worklist
from the edits' dirty cone and reusing every unchanged stored waveform.
By default it first runs the static prescreen, an instant conservative
verdict ahead of the engine's authoritative one; the held analysis
re-sweeps only the cone of nets whose windows the edits actually change.
Byte-identity with a from-scratch run is the correctness gate for the
engine, and equality with a fresh :func:`repro.sta.analyze` the gate for
the held analysis; ``repro.oracle``'s reverify and pooled modes check
both after every edit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core.config import VerifyConfig
from .core.engine import Engine
from .core.verifier import (
    CaseResult,
    PhaseTimes,
    VerificationResult,
)
from .core.violations import CheckReport
from .core.waveform import InternTable
from .incremental import (
    ConstraintsEdit,
    Edit,
    ParamEdit,
    PendingDirty,
    WireDelayEdit,
)
from .netlist.circuit import Circuit
from .netlist.validate import check as check_structure

__all__ = ["IncrementalResult", "Prescreen", "Session"]


@dataclass
class Prescreen:
    """The STA pre-screen's instant verdict, ahead of engine authority.

    ``ok`` is advisory (static analysis is conservative: positive static
    slack implies an engine-clean check, not the reverse); the engine
    result carried alongside is always the authority.  A check whose
    static window overflowed the period (or whose clock has no static
    edge) yields no slack claim at all, and some engine checks have no
    static twin (``StaAnalysis.indeterminate``); any such
    ``indeterminate`` check forces ``ok=False`` — declaring "clean" on no
    evidence would be the optimism the value algebra forbids.
    """

    ok: bool
    worst_slack_ps: int | None
    cdc_errors: int
    indeterminate: int
    seconds: float

    @classmethod
    def of(cls, analysis, seconds: float) -> "Prescreen":
        """The verdict of one :class:`repro.sta.StaAnalysis`."""
        worst = min(
            (r.slack_ps for r in analysis.slack if r.slack_ps is not None),
            default=None,
        )
        cdc = len(analysis.cdc_errors)
        indeterminate = analysis.indeterminate()
        return cls(
            ok=analysis.ok and not cdc and not indeterminate,
            worst_slack_ps=worst,
            cdc_errors=cdc,
            indeterminate=indeterminate,
            seconds=seconds,
        )


@dataclass
class IncrementalResult:
    """One re-verification: the authoritative result plus reuse metadata."""

    result: VerificationResult
    #: False when the session fell back to a full run (a re-verify
    #: requested before any verification).
    incremental: bool
    prescreen: Prescreen | None = None

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def violations(self):
        return self.result.violations

    @property
    def stats(self):
        return self.result.stats


class Session:
    """One designer's edit-verify loop over one expanded circuit.

    Usage::

        session = Session.from_file("design.scald")
        first = session.verify()
        session.edit(WireDelayEdit("RF ADRS", (0.0, 6.0)))
        second = session.reverify()          # dirty cone only
        assert second.result.ok

    The session is not thread-safe; ``scald-serve`` wraps each one in a
    lock.
    """

    def __init__(
        self,
        circuit: Circuit,
        config: VerifyConfig | None = None,
        constraints=None,
        jobs: int = 1,
    ) -> None:
        self.circuit = circuit
        self.config = config or VerifyConfig()
        self.constraints = constraints
        self.intern_table = InternTable()
        self._engine: Engine | None = None
        self._dirty = PendingDirty()
        self._warnings: list | None = None
        #: The prescreen's held static analysis and the timing edits made
        #: since it was last brought up to date (see :meth:`_note_static`).
        self._static = None
        self._static_nets: set = set()
        self._static_params: dict = {}
        #: Total verification runs (full + incremental) this session served.
        self.runs = 0
        #: Requested parallelism.  With more than one case block to shard
        #: (``jobs > 1`` and several cases) the session owns a persistent
        #: :class:`repro.parallel.WorkerPool`: workers are forked lazily
        #: on the first pooled run and reused across verify/reverify
        #: calls, with edits and waveform digests (not circuits and
        #: snapshots) crossing the pipes.  A single-case design is one
        #: fixed point and always runs serially here.
        self.jobs = max(1, int(jobs or 1))
        self._pool = None
        if self.jobs > 1 and len(circuit.cases) > 1:
            from .parallel import WorkerPool

            self._pool = WorkerPool(self, self.jobs)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_file(
        cls,
        path: str,
        config: VerifyConfig | None = None,
        sdc: str | None = None,
        jobs: int = 1,
    ) -> "Session":
        """Expand a ``.scald`` source file into a fresh session."""
        from .hdl.expander import MacroExpander

        circuit = MacroExpander.from_file(path).expand()
        constraints = None
        if sdc is not None:
            from .constraints import load_constraints

            constraints = load_constraints(sdc, circuit)
        return cls(circuit, config, constraints=constraints, jobs=jobs)

    @classmethod
    def from_source(
        cls,
        source: str,
        config: VerifyConfig | None = None,
        sdc_source: str | None = None,
        name: str = "<session>",
        jobs: int = 1,
    ) -> "Session":
        """Expand ``.scald`` source text into a fresh session."""
        from .hdl.expander import MacroExpander

        circuit = MacroExpander.from_source(source, filename=name).expand()
        constraints = None
        if sdc_source is not None:
            from .constraints import parse_sdc, resolve

            commands, findings = parse_sdc(sdc_source, filename="<sdc>")
            constraints = resolve(
                commands, circuit, filename="<sdc>", parse_findings=findings
            )
        return cls(circuit, config, constraints=constraints, jobs=jobs)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def engine(self) -> Engine:
        """The persistent engine, built on first use."""
        if self._engine is None:
            self._engine = Engine(
                self.circuit,
                self.config,
                constraints=self.constraints,
                intern_table=self.intern_table,
            )
        return self._engine

    def edit(self, *edits: Edit) -> "Session":
        """Apply typed edits to the circuit, accumulating their dirt.

        Edits take effect immediately (``sta()``/``fmax()`` see them at
        once); the engine state is reconciled lazily by the next
        :meth:`reverify` or :meth:`verify`.  Returns the session for
        chaining.
        """
        applied = 0
        try:
            for e in edits:
                if isinstance(e, ConstraintsEdit):
                    self.constraints = e.load(self.circuit)
                    if self._engine is not None:
                        self._engine.set_constraints(self.constraints)
                else:
                    e.apply(self.circuit, self._dirty)
                applied += 1
                self._note_static(e)
        finally:
            if self._pool is not None and applied:
                # Workers reconcile lazily too: the typed edits travel over
                # the pipes at the next pooled run (a ConstraintsEdit
                # re-resolves against the worker's own circuit copy).  The
                # applied prefix goes even when a later edit raised, so
                # the workers' circuits stay the parent's.
                self._pool.queue_edits(edits[:applied])
        return self

    def _note_static(self, edit: Edit) -> None:
        """Record one applied edit's dirt for the held static analysis.

        Taken from the edit itself, not from :class:`PendingDirty`, which
        drops checkers and is cleared by every engine run.  A wire-delay
        edit records its net and a parameter edit its component; any
        other edit changes topology, fixed sources or constraints, so the
        held analysis is dropped and the next prescreen rebuilds it.
        Nothing is recorded while no analysis is held.
        """
        if self._static is None:
            return
        if isinstance(edit, WireDelayEdit):
            self._static_nets.add(self.circuit.find(self.circuit.nets[edit.net]))
        elif isinstance(edit, ParamEdit):
            self._static_params[edit.component] = self.circuit.components[
                edit.component
            ]
        else:
            self._static = None
            self._static_nets.clear()
            self._static_params.clear()

    def close(self) -> None:
        """Release the worker pool, if any; the session stays usable.

        Outstanding lazy snapshots are materialized first, so results
        already returned remain complete.  A later pooled run restarts
        the pool transparently.
        """
        if self._pool is not None:
            self._pool.close()

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------

    def verify(self) -> VerificationResult:
        """A full verification: serial, or over the warm worker pool.

        With ``jobs > 1`` and several cases the case axis is sharded into
        contiguous blocks over the session's persistent pool, and the
        merged result is byte-identical to the serial run (unique fixed
        point; see ``repro.parallel``).  A single-case design runs
        serially in-process whatever ``jobs`` says.
        """
        if self._pool is not None:
            return self._verify_pooled()
        return self._verify_serial(incremental=False)

    def reverify(self, prescreen: bool = True) -> IncrementalResult:
        """Re-verify after edits, re-entering the fixed point incrementally.

        Reuses every stored waveform outside the edits' dirty cone; the
        worklist starts from the directly dirtied primitives and event
        propagation walks the rest.  With ``prescreen=True`` the static
        passes run first and their verdict is attached to the result (the
        engine remains the authority either way).  The first prescreen
        runs :func:`repro.sta.analyze`; later ones update the held
        analysis from the wire-delay and parameter edits made since, and
        rebuild it after a reconnect, assertion or constraints edit.  A
        reverify without the prescreen, or a :meth:`verify`, keeps those
        edits for the next prescreen.  Falls back to a full :meth:`verify`
        when the session has not verified yet.
        """
        if self.runs == 0:
            return IncrementalResult(result=self.verify(), incremental=False)

        pre = self._run_prescreen() if prescreen else None
        # A warm pool reconciles the shipped edits on each worker's engine
        # through the same incremental path, so it is the incremental run.
        if self._pool is not None:
            result = self._verify_pooled()
        else:
            result = self._verify_serial(incremental=True)
        return IncrementalResult(result=result, incremental=True, prescreen=pre)

    def _begin(self, case: dict[str, int], incremental: bool) -> None:
        """Fold the pending edits into the engine and start a run at ``case``.

        The edits' nets resolve to components through the engine's load
        and driver maps, after any topology rebuild; the readers'
        default-delay connections on those nets lose their prepared
        inputs.  ``incremental`` re-enters the fixed point from the
        converged state (:meth:`Engine.incremental_begin`, seeded with the
        dirtied primitives); otherwise every signal starts over.
        """
        engine = self.engine
        pending = self._dirty
        if pending.topology:
            engine.rebuild_topology()
        find = self.circuit.find
        for rep in pending.reader_nets:
            for comp in engine._loads.get(rep, ()):
                pending.merge_component(comp)
                pending.stale_connections.extend(
                    conn
                    for _pin, conn in comp.input_pins()
                    if conn.wire_delay_ps is None and find(conn.net) is rep
                )
        for rep in pending.driver_nets:
            driver = engine._drivers.get(rep)
            if driver is not None:
                pending.merge_component(driver[0])
        engine.forget_connections(pending.stale_connections)
        dirty = list(pending.components.values())
        pending.clear()
        if incremental:
            engine.incremental_begin(case, dirty)
        else:
            engine.initialize(case)

    def _verify_serial(self, incremental: bool) -> VerificationResult:
        """One verification on the persistent engine, from scratch or from
        the converged state of the last run."""
        phases = PhaseTimes()

        t0 = time.perf_counter()
        if incremental:
            warnings = self._structure_warnings()
        else:
            warnings = self._warnings = check_structure(self.circuit)
        cases = self.circuit.cases or [{}]
        self._begin(cases[0], incremental)
        engine = self.engine
        phases.build = time.perf_counter() - t0

        # Cross-reference generation: in the thesis this lists where every
        # signal is used; the part that matters to verification is the list
        # of signals assumed stable for lack of an assertion (section 2.5).
        t0 = time.perf_counter()
        xref = list(engine.xref_assumed_stable)
        phases.cross_reference = time.perf_counter() - t0

        t0 = time.perf_counter()
        report = CheckReport()
        case_results: list[CaseResult] = []
        for index, events, case_report in engine.run_cases(cases):
            report.merge(case_report)
            case_results.append(
                CaseResult(
                    index=index,
                    assignments=dict(cases[index]),
                    waveforms=engine.snapshot(),
                    events=events,
                )
            )
        phases.verify = time.perf_counter() - t0

        result = self._package(report, case_results, xref, warnings, phases)
        self.runs += 1
        return result

    def _structure_warnings(self) -> list:
        """Cached structural validation for re-verifies.

        It inspects only pins/connections and assertions; delay and
        parameter edits cannot change its verdict, so the cached warnings
        stand unless an edit said otherwise.
        """
        if (
            self._warnings is None
            or self._dirty.topology
            or self._dirty.structure
        ):
            self._warnings = check_structure(self.circuit)
        return self._warnings

    def _run_prescreen(self) -> Prescreen:
        """The static passes as an instant advisory verdict.

        The first prescreen runs :func:`repro.sta.analyze` and the session
        keeps the result; each later one brings it up to date from the
        static dirt :meth:`edit` recorded since (:meth:`StaAnalysis.update`
        re-sweeps only the edits' cone).
        """
        t0 = time.perf_counter()
        if self._static is None:
            from .sta import analyze

            self._static = analyze(
                self.circuit, self.config, constraints=self.constraints
            )
        else:
            held, self._static = self._static, None  # dropped if it raises
            held.update(self._static_nets, self._static_params.values())
            self._static = held
        self._static_nets.clear()
        self._static_params.clear()
        return Prescreen.of(self._static, time.perf_counter() - t0)

    def _package(
        self,
        report,
        case_results,
        xref,
        warnings,
        phases,
        stats=None,
        phases_cpu=None,
        pool=None,
    ):
        result = VerificationResult(
            circuit_name=self.circuit.name,
            report=report,
            cases=case_results,
            stats=stats if stats is not None else self._engine.stats,
            phases=phases,
            xref_assumed_stable=xref,
            structure_warnings=warnings,
            primitive_count=sum(
                1
                for c in self.circuit.iter_components()
                if not c.prim.is_checker
            ),
            config=self.config,
            phases_cpu=phases_cpu,
        )
        t0, c0 = time.perf_counter(), time.process_time()
        result.summary_listing()
        phases.summary = time.perf_counter() - t0
        if phases_cpu is not None:
            phases_cpu.summary = time.process_time() - c0
        if pool is not None:
            # Copied *after* the summary listing so a lazily fetched
            # case-0 snapshot shows up in the counters.
            result.pool = pool.stats.copy()
        return result

    # ------------------------------------------------------------------
    # pooled verification (repro.parallel)
    # ------------------------------------------------------------------

    def _verify_pooled(self) -> VerificationResult:
        """Contiguous case blocks, one per warm worker (§2.7 case axis)."""
        from .core.engine import EngineStats
        from .parallel import LazySnapshot, case_blocks

        pool = self._pool
        cases = self.circuit.cases
        blocks = case_blocks(len(cases), self.jobs)
        phases, cpu = PhaseTimes(), PhaseTimes()
        t0, c0 = time.perf_counter(), time.process_time()
        warnings = self._structure_warnings()
        self._dirty.clear()  # the workers reconcile their own copies
        parent_build_wall = time.perf_counter() - t0
        parent_build_cpu = time.process_time() - c0

        parts = pool.run_blocks(cases, blocks)
        parts.sort(key=lambda p: p.start)

        phases.build = parent_build_wall + max(p.build_wall for p in parts)
        cpu.build = parent_build_cpu + sum(p.build_cpu for p in parts)
        phases.verify = max(p.verify_wall for p in parts)
        cpu.verify = sum(p.verify_cpu for p in parts)
        # The cross-reference is a property of initialization, not of any
        # case, so every worker computed the same list; take block 0's.
        xref = parts[0].xref_assumed_stable

        report = CheckReport()
        case_results: list[CaseResult] = []
        for k, part in enumerate(parts):
            for i, per_case in enumerate(part.reports):
                report.merge(per_case)
                index = part.start + i
                snap = LazySnapshot(
                    lambda k=k, index=index: pool.fetch_case(k, index)
                )
                pool.watch(snap)
                case_results.append(
                    CaseResult(
                        index=index,
                        assignments=part.assignments[i],
                        waveforms=snap,
                        events=part.events[i],
                    )
                )

        result = self._package(
            report,
            case_results,
            xref,
            warnings,
            phases,
            stats=EngineStats.merged(p.stats for p in parts),
            phases_cpu=cpu,
            pool=pool,
        )
        self.runs += 1
        return result

    # ------------------------------------------------------------------
    # static analyses over the session's (edited) circuit
    # ------------------------------------------------------------------

    def sta(self):
        """Static windows/domains/slack over the current circuit state."""
        from .sta import analyze

        return analyze(self.circuit, self.config, constraints=self.constraints)

    def fmax(self):
        """Analytic Fmax (period-affine windows) for the current state.

        It probes on an engine of its own; the session's stays as it is."""
        from .sta.parametric import solve_fmax

        return solve_fmax(
            self.circuit, self.config, constraints=self.constraints
        )
