"""scald-tv with the benchmark's spans installed: the traced oneshot op.

Usage: ``python traced_cli.py TRACE.json DESIGN [scald-tv flags...]``

Imports ``repro.cli`` under a span, wraps the public functions of each
layer it calls, runs ``repro.cli.main`` with the remaining arguments and
writes the spans plus the counters the program returned to TRACE.json.
Standard output and the exit status are exactly those of
``python -m repro.cli DESIGN ...``, so traced and untraced ops run the
same code path and are checked the same way.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from spans import Spans


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    spans = Spans()
    counters: dict = {}
    with spans.span("import repro.cli", "cli"):
        import repro.cli
    from repro.core.verifier import TimingVerifier
    from repro.hdl.expander import MacroExpander
    from repro.reporting import listing

    def expanded(args, _circuit):
        counters["expander"] = dataclasses.asdict(args[0].stats)

    def verified(_args, result):
        counters["phases"] = dataclasses.asdict(result.phases)
        counters["engine"] = dataclasses.asdict(result.stats)

    spans.patch(MacroExpander, "from_file", "hdl")
    spans.patch(MacroExpander, "expand", "hdl", expanded)
    spans.patch(TimingVerifier, "verify", "core", verified)
    for name in ("timing_summary", "violation_listing", "xref_listing"):
        spans.patch(listing, name, "reporting")
    for name in ("violation_listing", "xref_listing"):
        spans.patch(repro.cli, name, "reporting")
    try:
        code = repro.cli.main(cli_args)
    finally:
        spans.unpatch()
        sys.stdout.flush()
        with open(trace_path, "w") as fh:
            json.dump({"spans": spans.records, "counters": counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
