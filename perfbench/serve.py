"""serve-edit-1k: edit → reverify round trips against a scald-serve process.

The interactive use.  One session holds a 1000-chip four-case design on a
warm two-worker pool; each op posts one edit from a seeded cycle and then
a reverify with the default static prescreen.  No expansion happens per
op: the time goes to server transport, edit bookkeeping, the prescreen,
pool transfer, incremental re-entry in the workers and the listings
shipped in every response.  It is the workload that bypasses
``repro.hdl`` and the only one for ``repro.server`` and
``repro.parallel``.  Every seed serves the same design; the seed picks
the edit cycle (see ``inputs``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from http.client import HTTPException

from harness import (
    Context,
    Outcome,
    alive,
    descendants,
    digest,
    engine_layers,
    expander_layers,
    median,
    tree_cpu,
    tree_peak_rss_mb,
)
from inputs import SERVE_DESIGN, design_seeds, design_source, serve_cycle
from repro.server import ServerError, SessionClient
from spans import Spans, self_times

NAME = "serve-edit-1k"
WHY = ("edit then reverify round trips to scald-serve holding a 1000-chip "
       "four-case design on a warm two-worker pool: interactive use")
CHIPS = 1000
JOBS = 2
#: Ops in one pass of the edit cycle (see inputs.serve_cycle).
CYCLE = 12
OP_SECONDS = 0.3
#: GET /healthz round trips before and after the op loop.
HEALTH_PINGS = 10
#: What a failed request raises: a transport error, a reply that is not
#: JSON, or an error status.
REQUEST_ERRORS = (OSError, HTTPException, ValueError, ServerError)


def answer(doc: dict) -> dict:
    """The checked part of a verify/reverify response."""
    return {
        "ok": doc["ok"],
        "violations": len(doc["violations"]),
        "violations_sha256": digest("\n".join(doc["violations"])),
        "error_sha256": digest(doc["error_listing"]),
        "summary_sha256": digest(doc["summary_listing"]),
    }


class Server:
    """One ``python -m repro.server --port 0`` process and its session."""

    def __init__(self, ctx: Context, errlog) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0"],
            env=ctx.env, cwd=ctx.out, stdout=subprocess.PIPE, stderr=errlog,
        )
        self.sid: str | None = None
        self.client: SessionClient | None = None
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("scald-serve exited before printing its port")
            self.client = SessionClient("127.0.0.1", json.loads(line)["port"])
        except BaseException:
            self.stop()
            raise

    def open_session(self, source: str) -> dict:
        self.sid = self.client.create(source=source, jobs=JOBS)
        return self.client.verify(self.sid)

    def ping(self) -> float:
        start = time.perf_counter()
        self.client.health()
        return time.perf_counter() - start

    def stop(self) -> None:
        """Close the session's pool, stop the server, wait for every process."""
        kids = descendants(self.proc.pid)
        if self.sid is not None:
            try:
                self.client.delete(self.sid)
            except REQUEST_ERRORS:
                pass
        if self.client is not None:
            self.client.close()
        if self.proc.poll() is None:
            # SIGTERM, not SIGINT: a shell that starts a job in the
            # background makes it ignore SIGINT, and children inherit that.
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        deadline = time.perf_counter() + 10
        for pid in kids:
            while alive(pid) and time.perf_counter() < deadline:
                time.sleep(0.01)
            if alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def run(ctx: Context) -> Outcome:
    result = Outcome()
    cseed = design_seeds(ctx.seed, 1)[0]
    source = design_source(CHIPS, SERVE_DESIGN, True)
    cycle = serve_cycle(source, cseed)

    server = None
    with open(ctx.out / "serve-stderr.log", "wb") as errlog:
        try:
            # Set-up: launch, create the session, finish the first verify.
            for _ in range(ctx.setup_reps):
                if server is not None:
                    server.stop()
                    server = None
                start = time.perf_counter()
                server = Server(ctx, errlog)
                first = server.open_session(source)
                result.setup_s.append(time.perf_counter() - start)
                if answer(first) != ctx.refs["start"]:
                    result.fail("first verify differs from reference")
            _loop(ctx, server, cycle, ctx.refs["cycle"][str(cseed)], result)
        finally:
            if server is not None:
                server.stop()
    if ctx.trace:
        # The server expands the design at set-up and is not patched, so
        # hdl.* come from the same expansion repeated in this process.
        from repro.hdl.expander import MacroExpander

        expander = MacroExpander.from_source(source, filename="<source>")
        expander.expand()
        result.layers.update(expander_layers(vars(expander.stats)))
    return result


def _loop(ctx, server, cycle, refs, result) -> None:
    pings = [server.ping() for _ in range(HEALTH_PINGS)]
    spans = Spans()
    traced_docs: list[dict] = []
    pool_before = None
    client, sid = server.client, server.sid
    pid = server.proc.pid
    own0, kids0 = tree_cpu(pid)
    for i in range(ctx.ops):
        if time.perf_counter() > ctx.deadline:
            break
        pos = i % CYCLE
        traced = ctx.trace and (i // CYCLE) % 2 == 1
        error = None
        start = time.perf_counter()
        try:
            edit_doc = client.edit(sid, cycle[pos])
            mid = time.perf_counter()
            reverify = client.reverify(sid)
        except REQUEST_ERRORS as exc:
            error = exc
        end = time.perf_counter()
        result.attempted += 1

        if error is not None:
            result.fail(f"op {i}: {type(error).__name__}: {error}")
            continue
        if edit_doc.get("applied") != 1:
            result.fail(f"op {i}: edit answered {edit_doc}")
        elif answer(reverify) != refs[pos]:
            result.fail(f"op {i}: cycle position {pos} differs from reference")

        (result.traced if traced else result.latencies).append(end - start)
        pool = reverify.get("profile", {}).get("pool")
        if traced and pool is not None:
            spans.op = i
            root = spans.add("op", "unattributed", start, end, None)
            spans.add("POST edit", "server", start, mid, root)
            rt = spans.add("POST reverify", "server", mid, end, root)
            _server_side(spans, reverify, mid, rt)
            traced_docs.append({"doc": reverify, "edit_rt": mid - start,
                                "reverify_rt": end - mid,
                                "pool_before": pool_before})
        pool_before = pool
    own1, kids1 = tree_cpu(pid)
    pings += [server.ping() for _ in range(HEALTH_PINGS)]
    result.peak_rss_mb = tree_peak_rss_mb(pid)

    # Spans live in this client process, so the server's CPU is the same
    # for traced and untraced ops: count it over all of them.
    done = len(result.latencies) + len(result.traced)
    result.cpu_s, result.cpu_ops = (own1 + kids1) - (own0 + kids0), done
    result.notes["server.empty_rt_ms"] = median(pings) * 1e3
    if ctx.trace and traced_docs:
        result.layers["server.empty_rt_ms"] = result.notes["server.empty_rt_ms"]
        _layers(result, spans, traced_docs)
        result.layers["pool.worker_cpu_ms"] = (kids1 - kids0) * 1e3 / done


def _server_side(spans: Spans, doc: dict, start: float, parent: int) -> None:
    """Child spans of a reverify round trip, from the response's counters.

    The server is not patched, so these carry durations only; the round
    trip's remaining self time is server transport.
    """
    phases = doc["profile"]["phases_seconds"]
    parts = [
        ("prescreen", "sta", (doc.get("prescreen") or {}).get("seconds", 0.0)),
        ("engine", "core",
         phases["build"] + phases["cross_reference"] + phases["verify"]),
        ("summary", "reporting", phases["summary"]),
    ]
    for name, layer, seconds in parts:
        spans.add(name, layer, start, start + seconds, parent)
        start += seconds


def _layers(result: Outcome, spans: Spans, traced: list[dict]) -> None:
    ops = len(traced)
    runs = []
    for t in traced:
        p = t["doc"]["profile"]
        runs.append(dict(
            p["phases_seconds"],
            levelize_seconds=p["phases_seconds"]["levelize"],
            events=p["events"],
            evaluations=p["evaluations"],
            **{k: v for k, v in p["caches"].items() if k.endswith(("_hits", "_misses"))},
        ))
    layers = result.layers
    layers.update(engine_layers(runs, ops))

    def mean(fn) -> float:
        return sum(fn(t) for t in traced) / ops

    layers["incremental.dirty_primitives"] = mean(
        lambda t: t["doc"]["profile"]["incremental"]["dirty_primitives"])
    layers["incremental.reused_waveforms"] = mean(
        lambda t: t["doc"]["profile"]["incremental"]["reused_waveforms"])
    layers["sta.prescreen_ms"] = mean(
        lambda t: t["doc"]["prescreen"]["seconds"]) * 1e3
    for key in ("waveforms_shipped", "waveform_refs", "snapshots_fetched"):
        layers[f"pool.{key}"] = mean(
            lambda t: t["doc"]["profile"]["pool"][key]
            - (t["pool_before"] or {}).get(key, 0))
    layers["server.edit_rt_ms"] = mean(lambda t: t["edit_rt"]) * 1e3
    # The server is not patched: edit handling is what the edit round
    # trip takes beyond an empty one.
    layers["session.edit_ms"] = (
        layers["server.edit_rt_ms"] - layers["server.empty_rt_ms"])
    layers["server.reverify_rt_ms"] = mean(lambda t: t["reverify_rt"]) * 1e3
    layers["server.transport_ms"] = mean(
        lambda t: t["reverify_rt"] - t["doc"]["profile"]["phases_seconds"]["total"]
        - t["doc"]["prescreen"]["seconds"]) * 1e3
    # The server sends json.dumps of the document, so this is the body size.
    layers["server.response_kb"] = mean(
        lambda t: len(json.dumps(t["doc"]).encode())) / 1024
    for layer, seconds in self_times(spans.records).items():
        layers[f"self.{layer}_ms"] = seconds * 1e3 / ops
    result.spans = spans.records

