"""Engine-vs-static soundness cross-check.

The static windows claim "this net can only rise/fall inside these
intervals".  The engine computes what actually happens in each case.  If
the engine ever observes a transition outside the static windows, one of
the two is broken: either the static transfer functions dropped a possible
change (an optimism bug — the cardinal sin of the value algebra) or the
optimized engine manufactured an event the design cannot produce.  Either
way the enclosure failure localizes the bug to a net and an instant, which
is why `scald-tv --crosscheck` runs this after every verification.

The check is one-directional by design: static windows wider than the
engine's behaviour are expected (they fold all cases, worst-case delays
and feedback widening into one answer), so only engine-outside-static is
an error.

With a slack list the check extends to per-check *verdicts*: a static
record with strictly positive slack promises the engine cannot violate
the matching check, so any engine violation at the same
(component, kind, signal) is a contract failure.  Strictly positive —
not merely non-negative — because static zero slack means a change
window touches the closed guard boundary, where the engine's closed
``instability_in`` windows legitimately report a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .slack import TWINS
from .windows import WindowAnalysis, waveform_windows


@dataclass(frozen=True)
class EnclosureFailure:
    """One engine transition interval not covered by the static windows."""

    case_index: int
    net: str
    direction: str               #: ``"rise"`` or ``"fall"``
    span: tuple[int, int]        #: uncovered interval, ps within the period


@dataclass(frozen=True)
class VerdictFailure:
    """An engine violation on a check the static analysis cleared."""

    component: str
    kind: str                    #: the static record's kind
    signal: str
    case_index: int
    slack_ps: int                #: the (positive) static slack that lied


@dataclass
class CrosscheckResult:
    """Outcome of :func:`check_encloses`."""

    failures: list[EnclosureFailure] = field(default_factory=list)
    nets_checked: int = 0
    cases_checked: int = 0
    verdict_failures: list[VerdictFailure] = field(default_factory=list)
    verdicts_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and not self.verdict_failures


def check_encloses(
    result, analysis: WindowAnalysis, slack=None
) -> CrosscheckResult:
    """Assert every engine transition lies inside the static windows.

    ``result`` is a :class:`repro.core.verifier.VerificationResult`;
    ``analysis`` the :class:`WindowAnalysis` for the same circuit.  Returns
    a :class:`CrosscheckResult` whose ``failures`` list every uncovered
    rise/fall interval with case and net provenance.

    With ``slack`` (a :func:`repro.sta.slack.compute_slack` list, which
    must have been computed with the *same* constraints as the engine run)
    the per-check verdict pass also runs: every record with strictly
    positive slack must correspond to zero engine violations at the same
    (component, signal) of the checks its kind bounds (``slack.TWINS``).
    """
    out = CrosscheckResult(cases_checked=len(result.cases))
    seen: set[str] = set()
    for case in result.cases:
        for name, wf in case.waveforms.items():
            try:
                static_rise, static_fall = analysis.by_name(name)
            except KeyError:
                # Net exists only in the engine's view (e.g. a supply rail
                # synthesized during verification); nothing static to check.
                continue
            seen.add(name)
            engine_rise, engine_fall = waveform_windows(wf)
            for direction, engine, static in (
                ("rise", engine_rise, static_rise),
                ("fall", engine_fall, static_fall),
            ):
                for span in static.uncovered(engine):
                    out.failures.append(
                        EnclosureFailure(
                            case_index=case.index,
                            net=name,
                            direction=direction,
                            span=span,
                        )
                    )
    out.nets_checked = len(seen)

    if slack:
        # Engine violations indexed by (component, signal) -> kinds seen.
        index: dict[tuple[str, str], list] = {}
        for v in result.violations:
            index.setdefault((v.component, v.signal), []).append(v)
        for rec in slack:
            if rec.slack_ps is None or rec.slack_ps <= 0 or rec.waived:
                continue
            out.verdicts_checked += 1
            for v in index.get((rec.component, rec.signal), ()):
                if rec.kind in TWINS[v.kind]:
                    out.verdict_failures.append(
                        VerdictFailure(
                            component=rec.component,
                            kind=rec.kind,
                            signal=rec.signal,
                            case_index=v.case_index,
                            slack_ps=rec.slack_ps,
                        )
                    )
    return out
