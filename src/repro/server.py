"""Verification-as-a-service: a long-lived session server (``scald-serve``).

The thesis's Timing Verifier was a batch program: read the design, verify,
print listings, exit.  The :class:`~repro.session.Session` object makes
the expensive state (expanded circuit, stored waveforms, memo caches,
levelized ranks, intern table) survive across runs — this module puts a
wire protocol in front of it so an editor, a CI hook, or a cockpit UI can
hold a design open and iterate edit → re-verify without paying the
from-scratch cost each time.

Stdlib only (``http.server`` + JSON), matching the library's no-dependency
rule.  The protocol:

========  ==============================  ========================================
method    path                            body / effect
========  ==============================  ========================================
GET       /healthz                        liveness + session count
GET       /sessions                       list open sessions
POST      /sessions                       {"source"|"path", "sdc_source"|"sdc_path",
                                          "name", "jobs"} → {"id"}
DELETE    /sessions/{id}                  drop the session
POST      /sessions/{id}/verify           full run → verdict + listings + profile
POST      /sessions/{id}/edit             {"edits": [edit docs]} (see
                                          :func:`repro.incremental.edit_from_doc`)
POST      /sessions/{id}/reverify         {"prescreen": bool} → incremental run
POST      /sessions/{id}/sta              static windows/domains/slack report
POST      /sessions/{id}/fmax             analytic Fmax report
========  ==============================  ========================================

Every response is a JSON object; errors are ``{"error": ...}`` with an
HTTP 4xx status.  Sessions are not thread-safe, so each one carries a
lock and requests against the same session serialize; requests against
different sessions run concurrently (:class:`ThreadingHTTPServer`).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .incremental import edit_from_doc
from .netlist.circuit import NetlistError
from .reporting.stafmt import fmax_doc, sta_doc
from .reporting.stats import profile_json
from .session import Session

__all__ = ["SessionClient", "SessionServer", "main"]


class ServerError(Exception):
    """A request-level failure carrying its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Entry:
    """One open session plus the lock that serializes access to it."""

    __slots__ = ("session", "lock", "name")

    def __init__(self, session: Session, name: str) -> None:
        self.session = session
        self.lock = threading.Lock()
        self.name = name


class SessionStore:
    """The server's table of open sessions, itself thread-safe."""

    def __init__(self) -> None:
        self._entries: dict[str, _Entry] = {}
        self._lock = threading.Lock()
        self._counter = 0

    def create(self, session: Session, name: str) -> str:
        with self._lock:
            self._counter += 1
            sid = f"s{self._counter}"
            self._entries[sid] = _Entry(session, name)
            return sid

    def get(self, sid: str) -> _Entry:
        with self._lock:
            entry = self._entries.get(sid)
        if entry is None:
            raise ServerError(404, f"no such session: {sid}")
        return entry

    def drop(self, sid: str) -> None:
        with self._lock:
            entry = self._entries.pop(sid, None)
        if entry is None:
            raise ServerError(404, f"no such session: {sid}")
        with entry.lock:
            entry.session.close()  # reap the session's worker pool, if any

    def close_all(self) -> None:
        """Close every open session, reaping their worker pools."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            with entry.lock:
                entry.session.close()

    def listing(self) -> list[dict]:
        with self._lock:
            items = list(self._entries.items())
        return [
            {
                "id": sid,
                "name": entry.name,
                "circuit": entry.session.circuit.name,
                "runs": entry.session.runs,
            }
            for sid, entry in items
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _verify_doc(result) -> dict:
    """A :class:`VerificationResult` as wire data (verdict + listings)."""
    return {
        "ok": result.ok,
        "violations": [v.message() for v in result.violations],
        "error_listing": result.error_listing(),
        "summary_listing": result.summary_listing(),
        "xref_assumed_stable": list(result.xref_assumed_stable),
        "profile": profile_json(result),
    }


def _reverify_doc(inc) -> dict:
    """An :class:`IncrementalResult` as wire data."""
    doc = _verify_doc(inc.result)
    doc["incremental"] = inc.incremental
    doc["prescreen"] = None
    if inc.prescreen is not None:
        doc["prescreen"] = {
            "ok": inc.prescreen.ok,
            "worst_slack_ps": inc.prescreen.worst_slack_ps,
            "cdc_errors": inc.prescreen.cdc_errors,
            "indeterminate": inc.prescreen.indeterminate,
            "seconds": inc.prescreen.seconds,
        }
    return doc


class _Handler(BaseHTTPRequestHandler):
    """Route one request.  The store rides on the server object."""

    server_version = "scald-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm on, the
    # body waits for the client's delayed ACK of the headers (~40 ms).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            # Checked before any read: read(-1) would wait for end of
            # stream.  The body's extent is unknown, so the connection
            # cannot carry another request either.
            self.close_connection = True
            raise ServerError(400, f"bad Content-Length header: {header!r}")
        length = int(header)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            raise ServerError(400, f"bad JSON body: {exc}") from exc
        if not isinstance(doc, dict):
            raise ServerError(400, "request body must be a JSON object")
        return doc

    def _reply(self, doc: dict, status: int = 200) -> None:
        payload = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _dispatch(self, method: str) -> None:
        try:
            doc = self._route(method)
        except ServerError as exc:
            self._reply({"error": str(exc)}, status=exc.status)
        except (NetlistError, ValueError) as exc:
            # Design/edit errors are the client's problem, not a crash.
            self._reply({"error": str(exc)}, status=400)
        except Exception as exc:  # pragma: no cover - defensive
            self._reply({"error": f"internal error: {exc}"}, status=500)
        else:
            self._reply(doc)

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def _route(self, method: str) -> dict:
        store: SessionStore = self.server.store  # type: ignore[attr-defined]
        parts = [p for p in self.path.split("?")[0].split("/") if p]

        if method == "GET" and parts == ["healthz"]:
            return {"ok": True, "sessions": len(store)}
        if method == "GET" and parts == ["sessions"]:
            return {"sessions": store.listing()}
        if method == "POST" and parts == ["sessions"]:
            return self._create(store)
        if len(parts) == 2 and parts[0] == "sessions" and method == "DELETE":
            store.drop(parts[1])
            return {"ok": True}
        if len(parts) == 3 and parts[0] == "sessions" and method == "POST":
            entry = store.get(parts[1])
            with entry.lock:
                return self._session_op(entry.session, parts[2])
        raise ServerError(404, f"no route: {method} {self.path}")

    def _create(self, store: SessionStore) -> dict:
        body = self._body()
        source = body.get("source")
        path = body.get("path")
        if (source is None) == (path is None):
            raise ServerError(
                400, "provide exactly one of 'source' or 'path'"
            )
        sdc_source = body.get("sdc_source")
        sdc_path = body.get("sdc_path")
        if sdc_source is not None and sdc_path is not None:
            raise ServerError(
                400, "provide at most one of 'sdc_source' or 'sdc_path'"
            )
        jobs = body.get("jobs", 1)
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ServerError(400, "'jobs' must be a positive integer")
        if path is not None:
            session = Session.from_file(path, sdc=sdc_path, jobs=jobs)
            if sdc_source is not None:
                from .constraints import parse_sdc, resolve

                commands, findings = parse_sdc(sdc_source, filename="<sdc>")
                session.constraints = resolve(
                    commands,
                    session.circuit,
                    filename="<sdc>",
                    parse_findings=findings,
                )
            name = body.get("name") or path
        else:
            if sdc_path is not None:
                raise ServerError(
                    400, "'sdc_path' requires 'path' (use 'sdc_source')"
                )
            name = body.get("name") or "<source>"
            session = Session.from_source(
                source, sdc_source=sdc_source, name=name, jobs=jobs
            )
        sid = store.create(session, name)
        return {"id": sid, "circuit": session.circuit.name}

    def _session_op(self, session: Session, op: str) -> dict:
        if op == "verify":
            return _verify_doc(session.verify())
        if op == "edit":
            body = self._body()
            docs = body.get("edits")
            if not isinstance(docs, list):
                raise ServerError(400, "'edits' must be a list of edit docs")
            session.edit(*[edit_from_doc(d) for d in docs])
            return {"ok": True, "applied": len(docs)}
        if op == "reverify":
            body = self._body()
            prescreen = bool(body.get("prescreen", True))
            return _reverify_doc(session.reverify(prescreen=prescreen))
        if op == "sta":
            return sta_doc(session.sta())
        if op == "fmax":
            return fmax_doc(session.fmax())
        raise ServerError(404, f"no such operation: {op}")


class SessionServer(ThreadingHTTPServer):
    """The listening server; ``.store`` holds the open sessions."""

    daemon_threads = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__((host, port), _Handler)
        self.store = SessionStore()
        self.verbose = False

    @property
    def port(self) -> int:
        return self.server_address[1]


class SessionClient:
    """A thin blocking client for tests, scripts and ``tools/check.sh``.

    Each method returns the decoded JSON body; non-2xx responses raise
    :class:`ServerError` with the server's message.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.conn = HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self.conn.close()

    def _request(self, method: str, path: str, body: dict | None = None):
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        resp = self.conn.getresponse()
        doc = json.loads(resp.read())
        if resp.status >= 400:
            raise ServerError(resp.status, doc.get("error", "request failed"))
        return doc

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def sessions(self) -> list[dict]:
        return self._request("GET", "/sessions")["sessions"]

    def create(self, **body) -> str:
        return self._request("POST", "/sessions", body)["id"]

    def delete(self, sid: str) -> None:
        self._request("DELETE", f"/sessions/{sid}")

    def verify(self, sid: str) -> dict:
        return self._request("POST", f"/sessions/{sid}/verify")

    def edit(self, sid: str, *edit_docs: dict) -> dict:
        return self._request(
            "POST", f"/sessions/{sid}/edit", {"edits": list(edit_docs)}
        )

    def reverify(self, sid: str, prescreen: bool = True) -> dict:
        return self._request(
            "POST", f"/sessions/{sid}/reverify", {"prescreen": prescreen}
        )

    def sta(self, sid: str) -> dict:
        return self._request("POST", f"/sessions/{sid}/sta")

    def fmax(self, sid: str) -> dict:
        return self._request("POST", f"/sessions/{sid}/fmax")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scald-serve",
        description="Serve timing-verification sessions over HTTP/JSON.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8041,
        help="TCP port; 0 picks an ephemeral port (printed as JSON)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )
    args = parser.parse_args(argv)

    server = SessionServer(args.host, args.port)
    server.verbose = args.verbose
    # One machine-readable line so wrappers (check.sh, tests) can discover
    # an ephemeral port without parsing log text.
    print(
        json.dumps({"host": args.host, "port": server.port}),
        flush=True,
    )
    # SIGTERM exits like Ctrl-C, so the sessions' worker pools are reaped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.store.close_all()
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
