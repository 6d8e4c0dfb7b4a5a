"""Static arrival-window and clock-domain analysis (no event loop).

The `sta` package is the block-oriented counterpart to the event-driven
verifier: a handful of dataflow passes over the expanded circuit graph
that bound every net's behaviour without running the fixed point.

* :mod:`repro.sta.windows` — per-net may-rise/may-fall arrival intervals,
  integer picoseconds on the circular clock-period axis.
* :mod:`repro.sta.domains` — clock trees traced from the asserted periodic
  inputs; every register/latch gets a domain, crossings are reported.
* :mod:`repro.sta.slack` — setup/hold slack bounds at every checker.
* :mod:`repro.sta.crosscheck` — enclosure check against engine waveforms,
  the machine-checked soundness contract between the two analyses.
* :mod:`repro.sta.parametric` — window bounds affine in the clock period;
  solves min-slack(T) = 0 for Fmax in closed form, anchored by engine
  confirmation, with an independent engine-bisection oracle.

:func:`analyze` bundles the three static passes into one result, sharing
the window computation they all feed from; :meth:`StaAnalysis.update`
brings that result up to date after timing edits by re-sweeping only
the edits' cone (the session's prescreen keeps one across edits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..core.config import VerifyConfig
from ..netlist.circuit import Circuit, Component, Net
from .crosscheck import (
    CrosscheckResult,
    EnclosureFailure,
    VerdictFailure,
    check_encloses,
)
from .domains import ClockRoot, Crossing, DomainAnalysis, StorageDomain, infer_domains
from .parametric import (
    FmaxResult,
    StaticFmax,
    WitnessHop,
    bisect_fmax,
    solve_fmax,
    solve_static_fmax,
)
from .slack import (
    SlackRecord,
    _output_slack_all,
    component_records,
    compute_slack,
    record_slots,
    sorted_records,
    twinless_sites,
)
from .windows import (
    FeedbackCut,
    IntervalSet,
    WindowAnalysis,
    compute_windows,
    waveform_windows,
)

__all__ = [
    "ClockRoot",
    "Crossing",
    "CrosscheckResult",
    "DomainAnalysis",
    "EnclosureFailure",
    "FeedbackCut",
    "FmaxResult",
    "IntervalSet",
    "SlackRecord",
    "StaAnalysis",
    "StaticFmax",
    "StorageDomain",
    "VerdictFailure",
    "WindowAnalysis",
    "WitnessHop",
    "analyze",
    "bisect_fmax",
    "check_encloses",
    "compute_slack",
    "compute_windows",
    "infer_domains",
    "solve_fmax",
    "solve_static_fmax",
    "waveform_windows",
]


@dataclass
class StaAnalysis:
    """All three static passes over one circuit."""

    circuit: Circuit
    windows: WindowAnalysis
    domains: DomainAnalysis
    slack: list[SlackRecord] = field(default_factory=list)
    #: Resolved SDC constraints the passes honoured (None = unconstrained).
    constraints: object | None = None
    #: The records of ``slack`` grouped by filer (``slack.record_slots``).
    _slots: list = field(default_factory=list, repr=False)
    _twinless: tuple | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """No negative static slack anywhere."""
        return all(r.ok for r in self.slack)

    @property
    def cdc_errors(self) -> list[Crossing]:
        """Clock-domain crossings that do not look synchronized."""
        return [c for c in self.domains.crossings if not c.synchronized]

    def indeterminate(self) -> int:
        """Engine checks on which the static passes make no claim.

        A record whose clock has no static edge, or whose windows
        overflowed the period, claims no slack.  (A waived record and a
        latch's borrow report without a ``set_max_time_borrow`` cap are
        not checks the engine makes.)  Nor does a record whose engine
        check may file no-clock-edge instead, and every other site of a
        check with no static twin counts as well
        (:func:`repro.sta.slack.twinless_sites`); those depend on topology
        only and are found once.
        """
        if self._twinless is None:
            self._twinless = twinless_sites(self.windows)
        count, edgeless = self._twinless
        cons = self.constraints
        for r in self.slack:
            uncapped = r.kind == "borrow" and (
                cons is None or cons.borrow_for(r.component) is None
            )
            if not (r.waived or uncapped) and (
                r.no_edge or r.overflow or r.component in edgeless
            ):
                count += 1
        return count

    def update(
        self, nets: Iterable[Net], components: Iterable[Component]
    ) -> set[Net]:
        """Bring all three passes up to date after timing edits.

        ``nets`` are representatives whose wire delay changed and
        ``components`` those whose parameters changed; the windows
        re-sweep only their cone (:meth:`WindowAnalysis.update`).  Slack
        records are rebuilt for every component that reads a net whose
        windows or wire delay moved, every edited component, and every
        output-delay spec whose net or clock changed, then re-sorted with
        :func:`compute_slack`'s stable key.  Domain inference reads the
        windows only for storage without a clock root, so it re-runs only
        when such a clock net changed.  The result equals a fresh
        :func:`analyze` of the edited circuit.  Returns the nets whose
        windows changed.
        """
        nets = set(nets)
        components = list(components)
        windows = self.windows
        changed = windows.update(nets, components)
        readers = windows.readers()
        dirty = {comp.name for comp in components}
        for rep in changed | nets:
            dirty.update(comp.name for _conn, comp, _j in readers.get(rep, ()))
        find, named = self.circuit.find, self.circuit.nets
        rebuilt = False
        for slot in self._slots:
            key, records = slot
            if isinstance(key, Component):
                if key.name not in dirty:
                    continue
                slot[1] = component_records(key, windows, self.constraints)
            elif any(
                find(named[name]) in changed
                for r in records
                for name in (r.signal, r.clock)
            ):
                slot[1] = _output_slack_all(key, windows)
            else:
                continue
            rebuilt = True
        if rebuilt:
            self.slack = sorted_records(self._slots)
        rootless = {
            find(named[s.clock_net])
            for s in self.domains.storage
            if not s.roots
        }
        if rootless & changed:
            self.domains = infer_domains(self.circuit, windows)
        return changed


def analyze(
    circuit: Circuit,
    config: VerifyConfig | None = None,
    constraints=None,
) -> StaAnalysis:
    """Run window propagation, domain inference and slack in one pass."""
    windows = compute_windows(circuit, config, constraints=constraints)
    slots = record_slots(circuit, windows, constraints)
    return StaAnalysis(
        circuit=circuit,
        windows=windows,
        domains=infer_domains(circuit, windows),
        slack=sorted_records(slots),
        constraints=constraints,
        _slots=slots,
    )
