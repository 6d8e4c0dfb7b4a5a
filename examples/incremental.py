#!/usr/bin/env python3
"""Incremental sessions: the edit-verify loop without the from-scratch tax.

Opens the shipped shifter design in a long-lived Session, verifies it
once in full, then walks the day-by-day loop of section 3.3.1 as typed
edits: slow a net down until the design breaks, watch the incremental
re-verification report the identical violations a from-scratch run
would, then fix it and re-verify clean.  Along the way it prints how
little of the design each re-verification actually touched, and checks
every incremental answer against the from-scratch oracle.

Run with:  python examples/incremental.py
"""

from repro import Session, WireDelayEdit, ParamEdit, oracle

DESIGN = "examples/designs/shifter.scald"


def show(tag, inc):
    s = inc.stats
    print(
        f"  {tag:<28} ok={str(inc.ok):<5} "
        f"dirty={s.dirty_primitives:<3} reused={s.reused_waveforms:<3} "
        f"violations={len(inc.violations)}"
    )


def main() -> int:
    session = Session.from_file(DESIGN)
    # Each checked step re-verifies and compares the answer with a
    # from-scratch run of the edited design, raising on any difference.
    checked = oracle.Reverify(session)

    first = session.verify()
    assert first.ok
    print(f"full verification: ok={first.ok}, "
          f"{first.primitive_count} primitives, {first.stats.events} events")

    # 1. A routing change makes the inter-stage bus slow: the design now
    #    misses setup at the output register.  The incremental run pays
    #    only for the cone behind the edited net — and byte-identity with
    #    a from-scratch run is asserted, not assumed.
    broken = checked.step(WireDelayEdit("AFTER 1", (0.0, 25.0)))
    show("slow bus (25 ns):", broken)
    assert not broken.ok
    print(broken.result.error_listing().splitlines()[0])

    # 2. The prescreen: the static windows pass renders an instant (and
    #    conservative) verdict before the engine confirms it.
    session.edit(WireDelayEdit("AFTER 1", (0.0, 20.0)))
    screened = session.reverify(prescreen=True)
    print(f"  prescreen: ok={screened.prescreen.ok} "
          f"worst_slack={screened.prescreen.worst_slack_ps} ps "
          f"({screened.prescreen.seconds * 1000:.1f} ms)")

    # 3. Fix the routing and relax the barrel slice that was marginal:
    #    one batched re-verification, clean again.
    fixed = checked.step(
        WireDelayEdit("AFTER 1", None),
        ParamEdit("s2/rot", {"delay": (2.2, 6.0)}),
    )
    show("rerouted + faster slice:", fixed)
    assert fixed.ok

    print(f"session served {session.runs} runs on one engine; "
          f"{len(session.intern_table)} waveforms interned")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
