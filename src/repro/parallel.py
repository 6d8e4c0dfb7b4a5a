"""Process-parallel verification: a warm worker pool sharding §2.7 cases.

Every §2.7 case is an independent fixed-point problem over the same
circuit, so the case axis of a verification is embarrassingly parallel.
This module's reason to exist after the fork-per-run pool *lost* to
serial (``BENCH_parallel.json``) is that the transfer costs dominate
unless the pool is persistent and the traffic is deltas:

* **Pool lifetime.**  A :class:`WorkerPool` is owned by a
  :class:`repro.session.Session` and forks its workers once, lazily, on
  the first pooled run; the circuit crosses the process boundary exactly
  once (by fork copy-on-write where available).  The workers survive
  across ``verify``/``reverify``/CLI calls — each holds its own Session,
  so consecutive runs on a warm worker re-enter the fixed point through
  :meth:`Engine.incremental_begin` instead of re-initializing, and
  typed :mod:`repro.incremental` edits are shipped over the pipe instead
  of re-pickling the circuit.

* **Digest transfer.**  Waveforms come back over each pipe through a
  codec (:class:`_WaveEncoder` on the worker, :class:`_WaveDecoder` in
  the parent): the first shipment of a value is ``(id, Waveform)``,
  every repeat is a bare integer — the receiving side appends to its
  table in lockstep, so no handshake is needed and a converged value
  that appears in every case costs one pickle total.  Per-case
  snapshots stay on the worker; the parent's :class:`CaseResult` holds a
  :class:`LazySnapshot` that fetches the full listing only when
  something reads it.

A single-case design has no case axis to shard: it is one fixed point,
and a Session with one case block runs it serially in-process (no pool,
no fork), incremental re-verify included.

Merging stays deterministic: blocks are keyed by their start index,
per-case violations are concatenated in case order, stats are summed via
:meth:`EngineStats.merged`, and wall/CPU phase times are max-/sum-reduced
as before.  A worker death is reported as :class:`WorkerCrash` naming the
unit of work that was outstanding, not a raw traceback.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from dataclasses import dataclass

from .core.config import VerifyConfig
from .core.engine import EngineStats
from .core.verifier import PoolStats, VerificationResult
from .core.violations import CheckReport
from .core.waveform import Waveform
from .netlist.circuit import Circuit

__all__ = [
    "LazySnapshot",
    "WorkerCrash",
    "WorkerPool",
    "case_blocks",
    "verify_parallel",
]


def _pool_context():
    """Prefer ``fork`` (cheap, payload shared at COW speed); fall back to
    the platform default where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def case_blocks(n_cases: int, jobs: int) -> list[tuple[int, int]]:
    """Partition ``range(n_cases)`` into at most ``jobs`` contiguous blocks.

    A pure function of its arguments, so the sharding — and therefore the
    merged output — is reproducible for a given (cases, jobs) pair.
    """
    jobs = max(1, min(jobs, n_cases))
    base, extra = divmod(n_cases, jobs)
    blocks: list[tuple[int, int]] = []
    start = 0
    for k in range(jobs):
        size = base + (1 if k < extra else 0)
        blocks.append((start, start + size))
        start += size
    return blocks


class WorkerCrash(RuntimeError):
    """A pool worker died mid-run (OOM kill, hard crash, broken pipe).

    ``what`` names the unit of work that was outstanding — the CLI prints
    it on stderr and exits 2 instead of surfacing a raw traceback.
    """

    def __init__(self, what: str, detail: str = "") -> None:
        self.what = what
        self.detail = detail
        msg = f"parallel worker died while running {what}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


# ----------------------------------------------------------------------
# waveform digest codec
# ----------------------------------------------------------------------


class _WaveEncoder:
    """One direction of one pipe's waveform digest codec.

    Ids are dense and monotonic in first-shipment order; the peer
    :class:`_WaveDecoder` appends to its table in the same order, so both
    sides stay in lockstep without a handshake.  Keyed on
    :attr:`Waveform.canonical_key` (value equality), so two equal
    waveforms — even from different cases — cross the pipe once.
    """

    __slots__ = ("ids",)

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}

    def encode(self, wf: Waveform):
        key = wf.canonical_key
        ref = self.ids.get(key)
        if ref is not None:
            return ref
        ref = len(self.ids)
        self.ids[key] = ref
        return (ref, wf)


class _WaveDecoder:
    """The receiving end of :class:`_WaveEncoder` (same pipe, same order),
    counting shipments and references into the pool's stats."""

    __slots__ = ("store", "stats")

    def __init__(self, stats: PoolStats) -> None:
        self.store: list[Waveform] = []
        self.stats = stats

    def decode(self, enc) -> Waveform:
        if type(enc) is int:
            self.stats.waveform_refs += 1
            return self.store[enc]
        _ref, wf = enc  # unpickling already interned it (_restore_waveform)
        self.store.append(wf)
        self.stats.waveforms_shipped += 1
        return wf


class LazySnapshot(dict):
    """A per-case waveform listing fetched from its worker on first read.

    Quacks exactly like the plain ``{name: Waveform}`` dict the serial
    verifier stores in :class:`CaseResult.waveforms`; the fetch happens on
    the first read access (listings, crosscheck, ``result.waveform()``),
    so a run whose snapshots nobody reads ships no waveforms at all.
    Pickling materializes to a plain dict, so results stay portable after
    the pool is gone.
    """

    __slots__ = ("_fetch", "__weakref__")

    def __init__(self, fetch) -> None:
        super().__init__()
        self._fetch = fetch

    @property
    def loaded(self) -> bool:
        return self._fetch is None

    def _load(self) -> None:
        if self._fetch is not None:
            fetch, self._fetch = self._fetch, None
            super().update(fetch())

    def __getitem__(self, key):
        self._load()
        return super().__getitem__(key)

    def __contains__(self, key):
        self._load()
        return super().__contains__(key)

    def __iter__(self):
        self._load()
        return super().__iter__()

    def __len__(self):
        self._load()
        return super().__len__()

    def get(self, key, default=None):
        self._load()
        return super().get(key, default)

    def keys(self):
        self._load()
        return super().keys()

    def values(self):
        self._load()
        return super().values()

    def items(self):
        self._load()
        return super().items()

    def copy(self):
        self._load()
        return dict(self)

    def __eq__(self, other):
        self._load()
        if isinstance(other, LazySnapshot):
            other._load()
        return dict.__eq__(self, other)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __repr__(self):
        self._load()
        return dict.__repr__(self)

    def __reduce__(self):
        self._load()
        return (dict, (dict(self),))


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------


@dataclass
class _BlockResult:
    """What one worker hands back for its contiguous case block.

    Waveform snapshots deliberately stay on the worker — the parent holds
    a :class:`LazySnapshot` per case and fetches on demand.
    """

    start: int
    reports: list[CheckReport]  # violations and margins per case, in order
    assignments: list[dict[str, int]]
    events: list[int]
    xref_assumed_stable: list[str]
    stats: EngineStats
    warm: bool
    build_wall: float
    build_cpu: float
    verify_wall: float
    verify_cpu: float


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------


class _Worker:
    """One pool worker: a Session plus the pipe protocol around it.

    Strict request/reply: the parent never pipelines two requests to the
    same worker, so the per-pipe codecs stay in lockstep by construction.
    """

    def __init__(self, conn, circuit, config, constraints) -> None:
        from .session import Session

        self.conn = conn
        self.session = Session(circuit, config, constraints=constraints)
        self.enc = _WaveEncoder()  # worker -> parent
        #: The worker engine holds a converged block state usable by
        #: incremental_begin; a block run that raised midway clears it.
        self.converged = False
        self.snapshots: dict[int, dict[str, Waveform]] = {}
        self.sent_names: tuple | None = None

    def serve(self) -> None:
        handlers = {
            "edits": self._do_edits,
            "block": self._do_block,
            "fetch": self._do_fetch,
        }
        # The pid this worker was forked from: a worker whose parent died
        # (SIGKILL sends no "quit", and sibling workers hold its pipe open)
        # sees another parent and exits.  The poll still wakes at once on a
        # request.
        parent = multiprocessing.parent_process().pid
        while True:
            if not self.conn.poll(1.0):
                if os.getppid() != parent:
                    break
                continue
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "quit":
                break
            handler = handlers.get(msg[0])
            try:
                if handler is None:
                    raise ValueError(f"unknown pool command {msg[0]!r}")
                self.conn.send(("ok", handler(*msg[1:])))
            except Exception as exc:  # reply, don't die: the parent reports
                import traceback

                self.conn.send(
                    ("err", f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
                )

    # -- commands -------------------------------------------------------

    def _do_edits(self, edits):
        self.session.edit(*edits)
        return None

    def _do_block(self, start, block_cases):
        t0, c0 = time.perf_counter(), time.process_time()
        # Fold the shipped edits into the engine, like Session.reverify:
        # unique fixed point, so the incremental restart converges to
        # byte-identical waveforms.
        session = self.session
        engine = session.engine
        warm = self.converged and bool(engine.values)
        session._begin(block_cases[0], warm)
        self.converged = False
        xref = list(engine.xref_assumed_stable)
        build_wall = time.perf_counter() - t0
        build_cpu = time.process_time() - c0

        t0, c0 = time.perf_counter(), time.process_time()
        reports: list[CheckReport] = []
        events: list[int] = []
        store: dict[int, dict[str, Waveform]] = {}
        for index, case_events, report in engine.run_cases(block_cases, start):
            events.append(case_events)
            reports.append(report)
            store[index] = engine.snapshot()
        self.snapshots = store
        self.converged = True
        return _BlockResult(
            start=start,
            reports=reports,
            assignments=[dict(case) for case in block_cases],
            events=events,
            xref_assumed_stable=xref,
            stats=engine.stats,
            warm=warm,
            build_wall=build_wall,
            build_cpu=build_cpu,
            verify_wall=time.perf_counter() - t0,
            verify_cpu=time.process_time() - c0,
        )

    def _do_fetch(self, index):
        snap = self.snapshots[index]
        names = tuple(snap)
        header = None
        if names != self.sent_names:
            self.sent_names = names
            header = names
        return header, [self.enc.encode(snap[name]) for name in names]


def _worker_main(conn, circuit, config, constraints) -> None:
    worker = _Worker(conn, circuit, config, constraints)
    try:
        worker.serve()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# the parent-side pool
# ----------------------------------------------------------------------


def _shutdown_workers(procs, conns) -> None:
    for conn in conns:
        try:
            conn.send(("quit",))
        except (OSError, ValueError):
            pass
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=2.0)
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class WorkerPool:
    """A persistent warm pool of verification worker processes.

    Owned by one :class:`repro.session.Session`; forked lazily on the
    first pooled run and reused across ``verify``/``reverify`` calls (and
    therefore across ``scald-serve`` requests on the same session).  The
    circuit crosses once at fork time; afterwards only case assignments,
    typed edits and waveform digests travel.  Results keep the pool alive
    through their unfetched :class:`LazySnapshot` closures, so a one-shot
    :func:`verify_parallel` result stays readable after the session is
    gone; when the last reference drops, a finalizer reaps the workers
    (they are daemons besides, so they can never outlive the parent).
    """

    def __init__(self, session, jobs: int) -> None:
        self.session = session
        self.jobs = max(1, jobs)
        self.stats = PoolStats()
        self._procs: list = []
        self._conns: list = []
        self._decoders: list[_WaveDecoder] = []
        self._names: list[tuple | None] = []
        self._outbox: list = []
        self._watched: list[weakref.ref] = []
        self._finalizer = None

    # -- lifecycle ------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def _start(self) -> None:
        ctx = _pool_context()
        # The forked children inherit the *current* (already-edited)
        # circuit, so anything still in the outbox is already applied.
        self._outbox.clear()
        self._procs, self._conns = [], []
        self._decoders, self._names = [], []
        # One worker per case block: a worker with no block would idle
        # and still take every edit shipment.
        workers = len(case_blocks(len(self.session.circuit.cases), self.jobs))
        for k in range(workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    self.session.circuit,
                    self.session.config,
                    self.session.constraints,
                ),
                daemon=True,
                name=f"scald-pool-{k}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            self._decoders.append(_WaveDecoder(self.stats))
            self._names.append(None)
        self.stats.workers = workers
        self.stats.pool_starts += 1
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, list(self._procs), list(self._conns)
        )

    def shutdown(self) -> None:
        """Reap the workers; a later run transparently restarts the pool."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._procs, self._conns = [], []
        self._decoders, self._names = [], []

    def close(self) -> None:
        """Materialize outstanding lazy snapshots, then reap the workers."""
        self._materialize_pending()
        self.shutdown()

    # -- plumbing -------------------------------------------------------

    def queue_edits(self, edits) -> None:
        self._outbox.extend(edits)

    def _die(self, k: int, what: str):
        detail = f"worker {k} (pid {self._procs[k].pid}) exited"
        self.shutdown()
        raise WorkerCrash(what, detail)

    def _send(self, k: int, msg, what: str) -> None:
        try:
            self._conns[k].send(msg)
        except (OSError, ValueError):
            self._die(k, what)

    def _recv(self, k: int, what: str):
        """Wait for worker *k*'s reply, watching for its death.

        Polling (not a blocking recv) because under fork each child
        inherits the previously created pipe fds, so EOF on a dead
        worker's pipe is not delivered until its siblings exit too.
        """
        conn, proc = self._conns[k], self._procs[k]
        while True:
            if conn.poll(0.05):
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    self._die(k, what)
                if kind == "err":
                    raise RuntimeError(f"pool worker {k} failed in {what}:\n{payload}")
                return payload
            if not proc.is_alive():
                if conn.poll(0):
                    continue  # final reply raced the exit; drain it
                self._die(k, what)

    def _materialize_pending(self) -> None:
        """Fetch snapshots still owed to older results before a new run
        overwrites the workers' snapshot stores."""
        watched, self._watched = self._watched, []
        for ref in watched:
            snap = ref()
            if snap is not None and not snap.loaded:
                snap._load()

    def watch(self, snap: LazySnapshot) -> None:
        self._watched.append(weakref.ref(snap))

    def _ensure_ready(self, what: str) -> None:
        self._materialize_pending()
        if not self.started:
            self._start()
        if self._outbox:
            edits, self._outbox = self._outbox, []
            for k in range(len(self._conns)):
                self._send(k, ("edits", edits), what)
            for k in range(len(self._conns)):
                self._recv(k, what)
            self.stats.edits_shipped += len(edits)

    # -- case blocks ----------------------------------------------------

    def run_blocks(self, cases, blocks) -> list[_BlockResult]:
        """Scatter contiguous case blocks, one per worker; gather in order."""
        self._ensure_ready("edit shipment")
        names = [f"case block {a}..{b - 1}" for a, b in blocks]
        for k, (a, b) in enumerate(blocks):
            self._send(k, ("block", a, cases[a:b]), names[k])
        parts = [self._recv(k, names[k]) for k in range(len(blocks))]
        self.stats.runs += 1
        if parts and all(p.warm for p in parts):
            self.stats.warm_runs += 1
        return parts

    def fetch_case(self, k: int, index: int) -> dict[str, Waveform]:
        what = f"snapshot fetch (case {index})"
        self._send(k, ("fetch", index), what)
        header, encs = self._recv(k, what)
        if header is not None:
            self._names[k] = header
        names = self._names[k]
        dec = self._decoders[k]
        self.stats.snapshots_fetched += 1
        return {name: dec.decode(enc) for name, enc in zip(names, encs)}


# ----------------------------------------------------------------------
# one-shot entry points
# ----------------------------------------------------------------------


def verify_parallel(
    circuit: Circuit,
    config: VerifyConfig | None = None,
    jobs: int | None = None,
    constraints=None,
) -> VerificationResult:
    """Verify ``circuit`` with the work sharded over ``jobs`` processes.

    A one-shot wrapper over a pooled :class:`repro.session.Session`: with
    several cases the case axis is sharded into contiguous blocks; a
    single-case design runs serially in-process (no pool, no fork; its
    result has ``pool`` None).  Violations, waveforms and listings are
    byte-identical to ``TimingVerifier(circuit, config).verify()``;
    ``result.phases`` holds max-reduced wall times, ``result.phases_cpu``
    summed worker CPU times and ``result.pool`` the pool counters.  The
    result's lazy snapshots keep the pool alive until they are read or
    dropped.  Raises :class:`WorkerCrash` when a worker dies mid-run.
    """
    from .session import Session

    if jobs is None:
        jobs = os.cpu_count() or 1
    return Session(
        circuit, config, constraints=constraints, jobs=jobs
    ).verify()
