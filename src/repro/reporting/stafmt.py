"""Reporters for the static timing analysis: text and machine JSON.

Renders a :class:`repro.sta.StaAnalysis` the way the lint reporters render
diagnostics — `repro.sta` itself produces plain data and knows nothing
about formatting.  Times print in nanoseconds (the API-boundary unit) but
the JSON carries raw integer picoseconds so tooling never re-parses a
rounded number.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..sta import StaAnalysis


def _ns(ps: int) -> str:
    return f"{ps / 1000:.1f}"


def sta_text(analysis: "StaAnalysis") -> str:
    """Human-readable static analysis report."""
    lines: list[str] = []
    period = analysis.windows.period
    lines.append(
        f"STATIC TIMING ANALYSIS — {analysis.circuit.name} "
        f"(period {_ns(period)} ns)"
    )

    lines.append("")
    lines.append("clock domains:")
    if analysis.domains.roots:
        for root in analysis.domains.roots:
            kind = "precision" if root.precision else "clock"
            lines.append(f"  {root.net}  [{kind} {root.phase}]")
    else:
        lines.append("  (no asserted clocks)")

    storage = analysis.domains.storage
    if storage:
        lines.append("")
        lines.append(f"storage elements ({len(storage)}):")
        for entry in storage:
            flags = [
                name
                for name, on in (
                    ("gated", entry.gated),
                    ("convergent", entry.convergent),
                    ("UNCLOCKED", entry.unclocked),
                )
                if on
            ]
            domain = ", ".join(sorted(entry.roots)) or "-"
            suffix = f"  ({', '.join(flags)})" if flags else ""
            lines.append(
                f"  {entry.component:<20} {entry.prim:<8} "
                f"clock={entry.clock_net}  domain={domain}{suffix}"
            )

    for crossing in analysis.domains.crossings:
        tag = "synchronized" if crossing.synchronized else "NO SYNCHRONIZER"
        lines.append(
            f"  crossing: {', '.join(sorted(crossing.foreign_roots))} -> "
            f"{crossing.clock_net} at {crossing.component} [{tag}]"
        )

    if analysis.windows.feedback:
        lines.append("")
        lines.append("feedback cuts (windows widened to the full period):")
        for cut in analysis.windows.feedback:
            lines.append(f"  {cut.component} ({cut.prim}) -> {cut.net}")

    if analysis.constraints is not None:
        cs = analysis.constraints
        parts = []
        if getattr(cs, "clock_nets", None):
            parts.append(f"{len(set(cs.clock_nets.values()))} clock(s)")
        if getattr(cs, "checker_mods", None):
            parts.append(f"{len(cs.checker_mods)} checker mod(s)")
        if getattr(cs, "input_delays", None):
            parts.append(f"{len(cs.input_delays)} input delay(s)")
        if getattr(cs, "output_delays", None):
            parts.append(f"{len(cs.output_delays)} output delay(s)")
        if getattr(cs, "rs_checks", None):
            parts.append(f"{len(cs.rs_checks)} recovery/removal spec(s)")
        if getattr(cs, "max_borrow", None):
            parts.append(f"{len(cs.max_borrow)} borrow cap(s)")
        lines.append("")
        lines.append(
            f"constraints: {cs.path} ({', '.join(parts) if parts else 'empty'})"
        )
        if cs.errors:
            lines.append(f"  {len(cs.errors)} constraint error(s) — see findings.")

    lines.append("")
    if analysis.slack:
        lines.append("static slack (worst first):")
        for rec in analysis.slack:
            if rec.waived:
                verdict = "waived (false path)"
            elif rec.no_edge:
                verdict = "no clock edge"
            elif rec.overflow:
                verdict = "indeterminate (window overflow)"
            elif rec.slack_ps is None:
                verdict = "indeterminate"
            else:
                verdict = f"{'+' if rec.slack_ps >= 0 else ''}{_ns(rec.slack_ps)} ns"
            tag = "" if rec.kind == "setup-hold" else f" [{rec.kind}]"
            if rec.borrow_ps is not None:
                verdict += f" (borrow {_ns(rec.borrow_ps)} ns)"
            lines.append(
                f"  {rec.component:<20} {rec.signal} vs {rec.clock}:{tag} {verdict}"
            )
    else:
        lines.append("static slack: no checker components.")

    worst = [r.slack_ps for r in analysis.slack if r.slack_ps is not None]
    lines.append("")
    if analysis.ok:
        summary = "statically clean"
        if worst:
            summary += f"; worst slack {_ns(min(worst))} ns"
        lines.append(f"{summary}.")
    else:
        failing = sum(1 for r in analysis.slack if not r.ok)
        # Name the binding check the way scald-tv violations do
        # ("rf/su addr ... on 'ADR'") so the two reports cross-reference.
        bad = [r for r in analysis.slack if not r.ok and r.slack_ps is not None]
        summary = (
            f"{failing} checker(s) with negative static slack; "
            f"worst {_ns(min(worst))} ns"
        )
        if bad:
            rec = min(bad, key=lambda r: r.slack_ps)
            summary += f" at {rec.component} on {rec.signal!r}"
        lines.append(summary + ".")
    return "\n".join(lines)


def fmax_text(res) -> str:
    """Human-readable Fmax report with the binding check and its path.

    ``res`` is a :class:`repro.sta.parametric.FmaxResult`.
    """
    lines: list[str] = []
    if not res.period_limited:
        lines.append(
            "fmax: not period-limited — the design verifies at every "
            "probed clock period."
        )
    elif res.period_ps is None:
        lines.append(
            "fmax: no clean period — the engine reports violations at "
            "every probed period (period-independent failure)."
        )
    else:
        lines.append(
            f"fmax: {res.fmax_mhz:.3f} MHz "
            f"(min period {res.period_ps} ps = {_ns(res.period_ps)} ns) "
            f"[{res.method}]"
        )
        t_s = res.static_period_ps
        if t_s is not None and res.period_ps <= t_s:
            lines.append(
                f"  static root {t_s} ps; engine "
                f"confirmed down to {res.period_ps} ps"
            )
        elif t_s is not None:
            lines.append(
                f"  static root {t_s} ps; the engine violates there on a "
                f"check the static pass does not model, and is clean from "
                f"{res.period_ps} ps"
            )
    if res.binding is not None:
        rec = res.binding
        tag = "" if rec.kind == "setup-hold" else f" [{rec.kind}]"
        line = f"  binding check: {rec.component} on {rec.signal!r}{tag}"
        if res.slope is not None:
            line += f"  (slack slope {res.slope} ps per ps of period)"
        lines.append(line)
        if res.witness:
            lines.append(f"  critical path (backward from {rec.signal!r}):")
            for hop in res.witness:
                lo, hi = hop.delay
                lines.append(
                    f"    {hop.component:<20} {hop.prim:<8} -> {hop.net}"
                    f"  [{_ns(lo)}..{_ns(hi)} ns]"
                )
        if res.witness_terminal:
            lines.append(f"    <- {res.witness_terminal}")
    lines.append(
        f"  cost: {res.engine_runs} engine run(s), "
        f"{res.parametric_passes} parametric pass(es), "
        f"{res.static_evals} static eval(s)"
    )
    return "\n".join(lines)


def fmax_doc(res) -> dict:
    """An :class:`FmaxResult` as a plain dict for the ``--json`` envelope."""
    doc = {
        "period_limited": res.period_limited,
        "min_period_ps": res.period_ps,
        "fmax_mhz": res.fmax_mhz,
        "method": res.method,
        "static_period_ps": res.static_period_ps,
        "binding": None,
        "witness": [
            {
                "component": hop.component,
                "prim": hop.prim,
                "net": hop.net,
                "delay_ps": list(hop.delay),
            }
            for hop in res.witness
        ],
        "witness_terminal": res.witness_terminal,
        "cost": {
            "engine_runs": res.engine_runs,
            "parametric_passes": res.parametric_passes,
            "static_evals": res.static_evals,
        },
    }
    if res.binding is not None:
        doc["binding"] = {
            "component": res.binding.component,
            "signal": res.binding.signal,
            "clock": res.binding.clock,
            "kind": res.binding.kind,
            "slack_slope": None if res.slope is None else str(res.slope),
        }
    return doc


def sta_doc(analysis: "StaAnalysis") -> dict:
    """The analysis as a plain dict (what :func:`sta_json` serializes)."""
    doc = {
        "circuit": analysis.circuit.name,
        "period_ps": analysis.windows.period,
        "ok": analysis.ok,
        "clocks": [
            {"net": r.net, "phase": r.phase, "precision": r.precision}
            for r in analysis.domains.roots
        ],
        "storage": [
            {
                "component": s.component,
                "prim": s.prim,
                "clock": s.clock_net,
                "domain": sorted(s.roots),
                "gated": s.gated,
                "convergent": s.convergent,
                "unclocked": s.unclocked,
            }
            for s in analysis.domains.storage
        ],
        "crossings": [
            {
                "component": c.component,
                "data_net": c.data_net,
                "clock": c.clock_net,
                "launch": sorted(c.launch_roots),
                "capture": sorted(c.capture_roots),
                "synchronized": c.synchronized,
            }
            for c in analysis.domains.crossings
        ],
        "feedback_cuts": [
            {"component": f.component, "net": f.net, "prim": f.prim}
            for f in analysis.windows.feedback
        ],
        "slack": [
            {
                "component": r.component,
                "signal": r.signal,
                "clock": r.clock,
                "kind": r.kind,
                "setup_ps": r.setup_ps,
                "hold_ps": r.hold_ps,
                "setup_eff_ps": r.setup_eff_ps,
                "hold_eff_ps": r.hold_eff_ps,
                "slack_ps": r.slack_ps,
                "borrow_ps": r.borrow_ps,
                "waived": r.waived,
                "no_edge": r.no_edge,
                "overflow": r.overflow,
            }
            for r in analysis.slack
        ],
    }
    if analysis.constraints is not None:
        cs = analysis.constraints
        doc["constraints"] = {
            "path": cs.path,
            "clocks": sorted(set(cs.clock_nets.values())),
            "checker_mods": len(cs.checker_mods),
            "input_delays": len(cs.input_delays),
            "output_delays": len(cs.output_delays),
            "rs_checks": len(cs.rs_checks),
            "max_borrow_ps": dict(cs.max_borrow),
            "findings": [
                {
                    "rule": f.rule,
                    "severity": f.severity,
                    "message": f.message,
                    "line": f.line,
                }
                for f in cs.findings
            ],
        }
    return doc


def sta_json(analysis: "StaAnalysis") -> str:
    """The analysis as a JSON document (stable key order, integer ps)."""
    return json.dumps(sta_doc(analysis), indent=2, sort_keys=True)
