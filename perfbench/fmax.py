"""fmax-250: an edit that moves the binding path, then ``Session.fmax()``.

In process through the Session API on a 250-chip design.  The engine is
used a third way here: each query makes 14 to 16 from-scratch runs at
re-timed periods around the closed-form static root.
``repro.sta.parametric`` runs only in this workload, so a change to the
Fmax searches has a workload it must not slow down.  250 chips keeps ops
near one second, so a run holds enough of them for a steady median.
"""

from __future__ import annotations

import dataclasses
import resource
import time

from harness import Context, Outcome, engine_layers, expander_layers
from inputs import design_seeds, design_source, fmax_cycle
from spans import Spans, self_times

NAME = "fmax-250"
WHY = ("an edit that moves the binding path, then Session.fmax() in "
       "process on a 250-chip design: the period-sweeping engine use")
CHIPS = 250
#: Ops in one pass of the edit cycle (see inputs.fmax_cycle).
CYCLE = 6
OP_SECONDS = 1.0


def run(ctx: Context) -> Outcome:
    from repro.incremental import edit_from_doc
    from repro.session import Session
    import repro.sta.parametric  # noqa: F401 - imported before any timing

    result = Outcome()
    dseed = design_seeds(ctx.seed, 1)[0]
    source = design_source(CHIPS, dseed, False)
    edits = [edit_from_doc(doc) for doc in fmax_cycle(source, dseed)]
    refs = ctx.refs[str(dseed)]

    # Set-up: expand into a session and finish the first verify.
    tracer = _Tracer() if ctx.trace else None
    if tracer is not None:
        tracer.watch_setup()
    session = first = None
    for _ in range(ctx.setup_reps):
        session = first = None  # free the previous set-up untimed
        start = time.perf_counter()
        session = Session.from_source(source)
        first = session.verify()
        result.setup_s.append(time.perf_counter() - start)
        if not first.ok:
            result.fail("first verify is not clean")
    first = None
    if tracer is not None:
        tracer.setup.unpatch()

    for i in range(ctx.ops):
        if time.perf_counter() > ctx.deadline:
            break
        pos = i % CYCLE
        traced = tracer is not None and (i // CYCLE) % 2 == 1
        if traced:
            tracer.install(i)
        answer = error = None
        start, cpu0 = time.perf_counter(), time.process_time()
        try:
            session.edit(edits[pos])
            answer = session.fmax()
        except Exception as exc:  # a crashed op counts as failed; go on
            error = exc
        end, cpu1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.finish(start, end)
        result.attempted += 1

        if error is not None:
            result.fail(f"op {i}: {type(error).__name__}: {error}")
        elif not answer.period_limited or answer.period_ps != refs[pos]:
            result.fail(f"op {i}: cycle position {pos} period "
                        f"{answer.period_ps} != {refs[pos]}")
        if traced:
            result.traced.append(end - start)
        else:
            result.latencies.append(end - start)
            result.cpu_s += cpu1 - cpu0
            result.cpu_ops += 1
    # The program runs in this process, so its peak includes the
    # benchmark's own few megabytes (run.py runs this workload first).
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and tracer.ops:
        tracer.layers(result)
    return result


class _Tracer:
    """Spans around the layers one Fmax op calls, installed per traced op."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.setup = Spans()
        self.expansions: list[dict] = []
        self.runs: list[dict] = []
        self.answers: list[dict] = []
        self.ops = 0

    def watch_setup(self) -> None:
        """Keep the ExpanderStats of every set-up expansion, for ``hdl.*``.

        Set-up spans go to their own list, outside the ops' split.
        """
        from repro.hdl.expander import MacroExpander

        def expanded(args, _circuit):
            self.expansions.append(expander_layers(vars(args[0].stats)))

        self.setup.patch(MacroExpander, "expand", "hdl", expanded)

    def install(self, op: int) -> None:
        from repro.core.verifier import TimingVerifier
        from repro.reporting import listing
        from repro.session import Session
        from repro.sta import parametric

        def verified(_args, result):
            self.runs.append(dict(dataclasses.asdict(result.phases),
                                  **dataclasses.asdict(result.stats)))

        spans = self.spans
        spans.op = op
        spans.patch(Session, "edit", "session")
        spans.patch(Session, "fmax", "parametric", self._answered)
        spans.patch(parametric, "solve_static_fmax", "parametric")
        spans.patch(TimingVerifier, "verify", "core", verified)
        spans.patch(listing, "timing_summary", "reporting")
        self.root = spans.open("op", "unattributed")

    def _answered(self, _args, answer) -> None:
        self.answers.append({key: getattr(answer, key) for key in
                             ("engine_runs", "parametric_passes", "static_evals")})

    def finish(self, start: float, end: float) -> None:
        """Close the op's span on the op timer's own start and end."""
        self.spans.close(self.root)
        self.spans.unpatch()
        self.root["start"], self.root["end"] = start, end
        self.ops += 1

    def layers(self, result: Outcome) -> None:
        ops, records = self.ops, self.spans.records
        layers = result.layers
        for key in self.expansions[0]:
            layers[key] = (sum(e[key] for e in self.expansions)
                           / len(self.expansions))
        layers.update(engine_layers(self.runs, ops))

        def total(suffix: str) -> float:
            return sum(r["end"] - r["start"] for r in records
                       if r["name"].endswith(suffix))

        static = total(".solve_static_fmax")
        layers["session.edit_ms"] = total("Session.edit") * 1e3 / ops
        layers["fmax.static_ms"] = static * 1e3 / ops
        layers["fmax.engine_ms"] = (total("Session.fmax") - static) * 1e3 / ops
        layers["reporting.listing_ms"] = total(".timing_summary") * 1e3 / ops
        for key in ("engine_runs", "parametric_passes", "static_evals"):
            layers[f"fmax.{key}"] = sum(a[key] for a in self.answers) / ops
        for layer, seconds in self_times(records).items():
            layers[f"self.{layer}_ms"] = seconds * 1e3 / ops
        result.spans = records
