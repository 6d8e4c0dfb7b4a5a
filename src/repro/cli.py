"""Command-line entry point: ``scald-tv design.scald``.

Runs the full pipeline of section 3.3.1 on a textual SCALD design: Macro
Expansion (read, Pass 1, Pass 2), timing verification, and the output
listings (timing summary, error listing, cross-reference, execution
statistics).
"""

from __future__ import annotations

import argparse
import sys

from .core.verifier import TimingVerifier
from .core.config import VerifyConfig
from .hdl.expander import MacroExpander
from .reporting.listing import phase_table, violation_listing, xref_listing


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scald-tv",
        description="SCALD Timing Verifier (McWilliams 1980, reproduced)",
    )
    parser.add_argument("design", help="a .scald design source file")
    parser.add_argument(
        "--summary", action="store_true",
        help="print the Figure 3-10 signal-value summary listing",
    )
    parser.add_argument(
        "--xref", action="store_true",
        help="print the cross-reference of signals assumed stable",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print Table 3-1 style execution statistics",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the execution profile: per-phase wall times, events, "
        "evaluations, events/primitive, and engine cache-hit counters",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the execution profile as JSON on stdout (implies "
        "--profile); all human-readable output moves to stderr so the "
        "stream stays machine-parseable",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="verify in N parallel worker processes, cases sharded into "
        "contiguous blocks; a single-case design runs serially "
        "(default 1: serial in-process)",
    )
    parser.add_argument(
        "--wire-delay", metavar="MIN:MAX", default=None,
        help="default interconnection delay in ns (default 0.0:2.0)",
    )
    parser.add_argument(
        "--case", type=int, default=None, metavar="N",
        help="which case's summary to print (default 0)",
    )
    parser.add_argument(
        "--storage", action="store_true",
        help="print Table 3-3 style storage accounting",
    )
    parser.add_argument(
        "--diagram", action="store_true",
        help="draw ASCII timing diagrams of all signals",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="trace the critical contribution to each violation's signal",
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="run the static design-rule analyzer first and report findings",
    )
    parser.add_argument(
        "--crosscheck", action="store_true",
        help="assert that the static arrival windows (repro.sta) enclose "
        "every engine transition — a soundness self-test of both analyses; "
        "with --sdc it also compares per-check verdicts",
    )
    parser.add_argument(
        "--sdc", metavar="FILE", default=None,
        help="apply an SDC-subset constraint file (create_clock, "
        "set_multicycle_path, set_false_path, set_clock_uncertainty, "
        "set_clock_latency, set_input_delay/set_output_delay, "
        "set_recovery/set_removal, set_max_time_borrow)",
    )
    parser.add_argument(
        "--bit-blast", action="store_true",
        help="expand every vector primitive and net to per-bit scalars "
        "before verifying — the legacy Table 3-2 representation, kept as "
        "the word-level engine's differential oracle",
    )
    parser.add_argument(
        "--fmax", action="store_true",
        help="after verifying at the design period, bisect over the clock "
        "period with full engine runs to find the fastest clean period "
        "(the independent oracle for scald-sta --fmax)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)

    # With --json the only bytes on stdout are the JSON object itself;
    # every human-readable line moves to stderr (scald-sta's envelope).
    if args.json:
        args.profile = True
    human = sys.stderr if args.json else sys.stdout

    def say(*parts: object) -> None:
        print(*parts, file=human)

    # Contradictory flag combinations die with one line and exit 2, the
    # documented usage-error status, before any work starts.
    if args.jobs < 1:
        print(f"bad --jobs {args.jobs}; need at least 1", file=sys.stderr)
        return 2
    if args.fmax and args.case is not None:
        print("bad flags: --fmax sweeps the clock period across every case; "
              "it cannot be combined with --case", file=sys.stderr)
        return 2
    if args.bit_blast and args.jobs > 1:
        print("bad flags: --bit-blast verifies the per-bit expansion "
              "in-process; it cannot be combined with --jobs", file=sys.stderr)
        return 2
    if args.fmax and args.jobs > 1:
        print("bad flags: --fmax bisects over the clock period with serial "
              "engine runs (the pool workers would hold the stale period); "
              "it cannot be combined with --jobs", file=sys.stderr)
        return 2
    if args.case is None:
        args.case = 0

    config = VerifyConfig()
    if args.wire_delay:
        try:
            lo, hi = (float(x) for x in args.wire_delay.split(":"))
        except ValueError:
            print(f"bad --wire-delay {args.wire_delay!r}; use MIN:MAX",
                  file=sys.stderr)
            return 2
        if lo < 0 or hi < 0:
            print(f"bad --wire-delay {args.wire_delay!r}; "
                  "delays must be non-negative", file=sys.stderr)
            return 2
        if lo > hi:
            print(f"bad --wire-delay {args.wire_delay!r}; "
                  "MIN must not exceed MAX", file=sys.stderr)
            return 2
        config = VerifyConfig(default_wire_delay_ns=(lo, hi))

    lint_errors = 0
    if args.lint:
        from .lint import lint_path
        from .reporting.lintfmt import lint_text

        try:
            lint_result = lint_path(args.design)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        say(lint_text(lint_result))
        say()
        lint_errors = len(lint_result.errors)

    try:
        expander = MacroExpander.from_file(args.design)
        circuit = expander.expand()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    constraints = None
    sdc_errors = 0
    if args.sdc:
        from .constraints import load_constraints

        try:
            constraints = load_constraints(args.sdc, circuit)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for finding in constraints.findings:
            say(str(finding))
        if constraints.findings:
            say()
        sdc_errors = len(constraints.errors)

    if args.bit_blast:
        # Constraints are resolved against the vector circuit first; the
        # lookup fallbacks map them onto the per-bit clone names.
        from .netlist import bit_blast

        circuit = bit_blast(circuit)

    if args.jobs > 1:
        from .parallel import WorkerCrash, verify_parallel

        try:
            result = verify_parallel(
                circuit, config, jobs=args.jobs, constraints=constraints
            )
        except WorkerCrash as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        result = TimingVerifier(
            circuit, config, constraints=constraints
        ).verify()

    if not 0 <= args.case < len(result.cases):
        last = len(result.cases) - 1
        print(
            f"bad --case {args.case}; the design has {len(result.cases)} "
            f"case(s) (use 0..{last})",
            file=sys.stderr,
        )
        return 2

    for issue in result.structure_warnings:
        say(f"structure: {issue}")
    if result.structure_warnings:
        say()

    if args.summary:
        say(result.summary_listing(case=args.case))
        say()
    if args.xref:
        say(xref_listing(result))
        say()
    if args.diagram:
        from .reporting.diagram import timing_diagram

        say(timing_diagram(result, case=args.case))
        say()
    say(violation_listing(result))
    fmax = None
    if args.fmax:
        from .reporting.stafmt import fmax_text
        from .sta.parametric import bisect_fmax

        fmax = bisect_fmax(circuit, config, constraints=constraints)
        say()
        say(fmax_text(fmax))
    if args.explain and result.violations:
        from .reporting.explain import explain_violation

        say()
        for violation in result.violations:
            say(explain_violation(circuit, result, violation, config))
            say()
    if args.stats:
        say()
        say(expander.stats.table())
        say()
        say(phase_table(result))
    if args.profile:
        from .reporting.stats import profile_json, profile_report

        if args.json:
            import json

            doc = profile_json(result, expander.stats)
            if fmax is not None:
                from .reporting.stafmt import fmax_doc

                doc["fmax"] = fmax_doc(fmax)
            print(json.dumps(doc, indent=2))
        else:
            say()
            say(profile_report(result, expander.stats))
    if args.storage:
        from .core.engine import Engine
        from .reporting.stats import measure_storage

        engine = Engine(circuit, config, constraints=constraints)
        engine.initialize(circuit.cases[0] if circuit.cases else {})
        engine.run()
        say()
        say(measure_storage(engine).table())
    crosscheck_failed = False
    if args.crosscheck:
        from .sta import check_encloses, compute_windows
        from .sta.slack import compute_slack

        analysis = compute_windows(circuit, config, constraints=constraints)
        slack = compute_slack(circuit, analysis, constraints=constraints)
        cc = check_encloses(result, analysis, slack=slack)
        say()
        if cc.ok:
            say(
                f"crosscheck: static windows enclose all engine transitions "
                f"({cc.nets_checked} nets x {cc.cases_checked} cases)."
            )
            say(
                f"crosscheck: {cc.verdicts_checked} statically-positive "
                "check(s) confirmed clean in the engine."
            )
        else:
            crosscheck_failed = True
            if cc.failures:
                say(
                    f"crosscheck FAILED: {len(cc.failures)} engine transition "
                    "interval(s) outside the static windows:"
                )
                for f in cc.failures[:20]:
                    say(
                        f"  case {f.case_index}: {f.net} {f.direction} "
                        f"at {f.span[0]}..{f.span[1]} ps"
                    )
                if len(cc.failures) > 20:
                    say(f"  ... and {len(cc.failures) - 20} more")
            if cc.verdict_failures:
                say(
                    f"crosscheck FAILED: {len(cc.verdict_failures)} engine "
                    "violation(s) on checks the static analysis cleared:"
                )
                for v in cc.verdict_failures[:20]:
                    say(
                        f"  case {v.case_index}: {v.component} {v.kind} on "
                        f"{v.signal} (static slack {v.slack_ps} ps)"
                    )
    return (
        0
        if result.ok and not lint_errors and not crosscheck_failed
        and not sdc_errors
        else 1
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
