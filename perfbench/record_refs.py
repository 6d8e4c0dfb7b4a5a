#!/usr/bin/env python3
"""Record the answers every benchmark op is checked against (refs.json).

References come from the serial from-scratch path, never from the code
paths the workloads time: ``TimingVerifier`` on a freshly expanded
circuit with the same edits applied.  Fmax references are the analytic
answer on such a circuit and must equal engine bisection
(``bisect_fmax``).  Each oneshot reference is also checked once against
a real ``scald-tv`` run.

Run from the root of a checkout (several minutes)::

    python3 perfbench/record_refs.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import digest  # noqa: E402
from inputs import (  # noqa: E402
    POOL,
    SERVE_DESIGN,
    design_source,
    fmax_cycle,
    serve_cycle,
)
from repro.core.verifier import TimingVerifier  # noqa: E402
from repro.hdl.expander import MacroExpander  # noqa: E402
from repro.incremental import PendingDirty, apply_edit, edit_from_doc  # noqa: E402
from repro.reporting.listing import violation_listing  # noqa: E402
from repro.sta.parametric import bisect_fmax, solve_fmax  # noqa: E402

import fmax  # noqa: E402
import oneshot  # noqa: E402
import serve  # noqa: E402


def _fresh(source: str, filename: str):
    return MacroExpander.from_source(source, filename=filename).expand()


def _cli_stdout(result) -> str:
    """What ``scald-tv --summary`` prints for a verified design."""
    lines = [f"structure: {w}" for w in result.structure_warnings]
    if lines:
        lines.append("")
    lines += [result.summary_listing(case=0), "", violation_listing(result)]
    return "\n".join(lines) + "\n"


def oneshot_refs(dseed: int) -> dict:
    name = f"oneshot-{dseed}.scald"
    source = design_source(oneshot.CHIPS, dseed, True)
    result = TimingVerifier(_fresh(source, name)).verify()
    assert result.ok, f"design {dseed} is not clean"
    expected = digest(_cli_stdout(result))
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, name).write_text(source)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", name, "--summary"],
            cwd=tmp, env=env, capture_output=True, text=True, check=True,
        ).stdout
    assert digest(out) == expected, f"scald-tv output differs on design {dseed}"
    return {"stdout_sha256": expected}


def _answer(result) -> dict:
    """The checked part of a result, shaped like scald-serve's response."""
    return serve.answer({
        "ok": result.ok,
        "violations": [v.message() for v in result.violations],
        "error_listing": result.error_listing(),
        "summary_listing": result.summary_listing(),
    })


def serve_refs() -> dict:
    """The first verify, and every position of each seed's edit cycle."""
    source = design_source(serve.CHIPS, SERVE_DESIGN, True)
    start = _answer(TimingVerifier(_fresh(source, "<source>")).verify())
    cycles = {}
    for cseed in range(1, POOL + 1):
        circuit = _fresh(source, "<source>")
        cycle = []
        for doc in serve_cycle(source, cseed):
            apply_edit(circuit, edit_from_doc(doc), PendingDirty())
            cycle.append(_answer(TimingVerifier(circuit).verify()))
        assert not all(a["ok"] for a in cycle), f"cycle {cseed}: no violation"
        assert cycle[-1] == start, f"cycle {cseed}: does not close"
        cycles[str(cseed)] = cycle
        print(f"{serve.NAME}: cycle {cseed} recorded", file=sys.stderr)
    return {"start": start, "cycle": cycles}


def fmax_refs(dseed: int) -> list[int]:
    source = design_source(fmax.CHIPS, dseed, False)
    circuit = _fresh(source, "<session>")
    periods = []
    for doc in fmax_cycle(source, dseed):
        apply_edit(circuit, edit_from_doc(doc), PendingDirty())
        answer = solve_fmax(circuit)
        oracle = bisect_fmax(circuit)
        assert answer.period_limited and oracle.period_limited
        assert answer.period_ps == oracle.period_ps, (
            f"design {dseed}: analytic {answer.period_ps} ps, "
            f"bisection {oracle.period_ps} ps")
        periods.append(answer.period_ps)
    return periods


def main() -> int:
    refs = {serve.NAME: serve_refs()}
    for name, record in ((oneshot.NAME, oneshot_refs), (fmax.NAME, fmax_refs)):
        refs[name] = {}
        for dseed in range(1, POOL + 1):
            refs[name][str(dseed)] = record(dseed)
            print(f"{name}: design {dseed} recorded", file=sys.stderr)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
