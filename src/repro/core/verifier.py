"""The Timing Verifier façade.

Orchestrates a complete verification (section 2.9): structural validation,
initialization from assertions, the evaluation fixed point, case-by-case
incremental re-evaluation (section 2.7), the checking pass, and result
collection.  Phase wall-times are recorded in the shape of Table 3-1 so the
benchmarks can print the same rows the thesis reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netlist.circuit import Circuit
from ..netlist.validate import ValidationIssue
from .config import VerifyConfig
from .engine import EngineStats
from .violations import CheckReport, MarginKey, Violation
from .waveform import Waveform


@dataclass
class CaseResult:
    """The converged state of one simulated case (section 2.7)."""

    index: int
    assignments: dict[str, int]
    waveforms: dict[str, Waveform]
    events: int


@dataclass
class PhaseTimes:
    """Wall-clock seconds per verification phase (Table 3-1's categories)."""

    build: float = 0.0
    cross_reference: float = 0.0
    verify: float = 0.0
    summary: float = 0.0

    @property
    def total(self) -> float:
        return self.build + self.cross_reference + self.verify + self.summary


@dataclass
class PoolStats:
    """Lifetime counters of one warm worker pool (``repro.parallel``).

    The pool owns the counters and keeps them across runs; each
    :class:`VerificationResult` carries a point-in-time copy, so two
    consecutive results from the same session show the warm reuse
    (``runs`` grows, ``pool_starts`` does not).
    """

    #: Worker processes in the pool.
    workers: int = 0
    #: Times the pool (re)forked its workers — 1 for a warm session.
    pool_starts: int = 0
    #: Pooled verification runs served.
    runs: int = 0
    #: Runs served from converged worker state via the incremental path.
    warm_runs: int = 0
    #: Typed edits shipped to workers instead of re-pickling the circuit.
    edits_shipped: int = 0
    #: Distinct waveforms serialized across the pipe (codec misses).
    waveforms_shipped: int = 0
    #: Waveform references sent as bare integers (codec hits).
    waveform_refs: int = 0
    #: Full per-case snapshots fetched lazily because a listing needed one.
    snapshots_fetched: int = 0

    def copy(self) -> "PoolStats":
        return PoolStats(**self.__dict__)


@dataclass
class VerificationResult:
    """Everything a verification run produced."""

    circuit_name: str
    report: CheckReport
    cases: list[CaseResult]
    stats: EngineStats
    phases: PhaseTimes
    xref_assumed_stable: list[str] = field(default_factory=list)
    structure_warnings: list[ValidationIssue] = field(default_factory=list)
    #: Evaluated (non-checker) primitives — the denominator of the
    #: thesis's ~2.4 events/primitive figure (section 3.3.2).
    primitive_count: int = 0
    #: The configuration the run used (reporters need it to tell a cache
    #: that was disabled apart from one that never hit).
    config: VerifyConfig | None = None
    #: CPU seconds per phase, summed across worker processes when the run
    #: was parallel (``repro.parallel``); None for serial runs, whose
    #: wall times already equal their CPU spend.
    phases_cpu: PhaseTimes | None = None
    #: Warm-pool counters at the end of this run; None for serial runs.
    pool: "PoolStats | None" = None
    #: Summary listings already rendered, by case.
    _summaries: dict[int, str] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def violations(self) -> list[Violation]:
        return self.report.violations

    @property
    def margins(self) -> dict[MarginKey, int]:
        """Signed margin of every setup, hold and pulse-width check."""
        return self.report.margins

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def events_per_primitive(self) -> float:
        return self.stats.events / self.primitive_count if self.primitive_count else 0.0

    def waveform(self, signal: str, case: int = 0) -> Waveform:
        """The converged waveform of ``signal`` in the given case."""
        return self.cases[case].waveforms[signal]

    def summary_listing(self, case: int = 0) -> str:
        """The Figure 3-10 style signal-value listing (rendered once per case)."""
        text = self._summaries.get(case)
        if text is None:
            from ..reporting.listing import timing_summary

            text = self._summaries[case] = timing_summary(self, case=case)
        return text

    def error_listing(self) -> str:
        """The Figure 3-11 style violation listing."""
        from ..reporting.listing import violation_listing

        return violation_listing(self)


class TimingVerifier:
    """Verify all timing constraints of a synchronous sequential circuit.

    Usage::

        verifier = TimingVerifier(circuit)
        result = verifier.verify()
        for violation in result.violations:
            print(violation.message())
    """

    def __init__(
        self,
        circuit: Circuit,
        config: VerifyConfig | None = None,
        constraints=None,
    ) -> None:
        self.circuit = circuit
        self.config = config or VerifyConfig()
        self.constraints = constraints

    def verify(self) -> VerificationResult:
        """Run the full verification and return the collected results.

        A one-shot :class:`repro.session.Session`: the session object owns
        every piece of run-scoped state (stored waveforms, intern table,
        memo caches, levelized ranks), and this façade simply makes a
        fresh one per call — callers who want that state to survive
        across runs (incremental re-verify) hold a Session instead.
        """
        from ..session import Session

        return Session(
            self.circuit, self.config, constraints=self.constraints
        ).verify()


def verify(
    circuit: Circuit,
    config: VerifyConfig | None = None,
    constraints=None,
) -> VerificationResult:
    """Convenience one-shot verification."""
    return TimingVerifier(circuit, config, constraints=constraints).verify()
