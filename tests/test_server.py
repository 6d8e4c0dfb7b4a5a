"""Tests for the session server (repro.server, ``scald-serve``).

The server runs in-process on an ephemeral loopback port; every wire
answer is checked against a fresh reference verification of the same
design (``repro.oracle.Served``), so the HTTP layer can only ever be a
transport, never a second implementation.
"""

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import pytest

from repro import Session, oracle
from repro.incremental import ParamEdit, WireDelayEdit
from repro.reporting.stafmt import fmax_doc, sta_doc
from repro.server import ServerError, SessionClient, SessionServer

SHIFTER = "examples/designs/shifter.scald"
MULTICYCLE = "examples/designs/multicycle.scald"
MULTICYCLE_SDC = "examples/designs/multicycle.sdc"


@pytest.fixture(scope="module")
def server():
    srv = SessionServer(port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture
def client(server):
    cli = SessionClient("127.0.0.1", server.port)
    yield cli
    for entry in cli.sessions():
        cli.delete(entry["id"])
    cli.close()


class TestLifecycle:
    def test_health(self, client):
        doc = client.health()
        assert doc["ok"] and doc["sessions"] == 0

    def test_create_list_delete(self, client):
        sid = client.create(path=SHIFTER)
        listing = client.sessions()
        assert [s["id"] for s in listing] == [sid]
        assert listing[0]["circuit"] == "SHIFTER"
        client.delete(sid)
        assert client.sessions() == []

    def test_create_from_source(self, client):
        sid = client.create(source=open(SHIFTER).read(), name="inline")
        assert client.verify(sid)["ok"]

    def test_unknown_session_404(self, client):
        with pytest.raises(ServerError) as exc:
            client.verify("s999")
        assert exc.value.status == 404

    def test_create_needs_exactly_one_input(self, client):
        with pytest.raises(ServerError) as exc:
            client.create(name="nothing")
        assert exc.value.status == 400
        with pytest.raises(ServerError) as exc:
            client.create(path=SHIFTER, source="design X;")
        assert exc.value.status == 400

    def test_bad_route_404(self, client):
        with pytest.raises(ServerError) as exc:
            client._request("POST", "/frobnicate")
        assert exc.value.status == 404


class TestTransport:
    def test_small_responses_do_not_stall(self, client):
        """Headers and body go out in two writes.  With Nagle's algorithm
        on, the body waits for the client's delayed ACK (a 40 ms kernel
        timer), so the bound below has a 2x margin over the stall."""
        client.health()
        times = []
        for _ in range(20):
            t0 = time.perf_counter()
            client.health()
            times.append(time.perf_counter() - t0)
        assert statistics.median(times) < 0.020

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_is_a_400(self, server, length):
        request = (
            "POST /sessions HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        with socket.create_connection(("127.0.0.1", server.port), timeout=3) as sock:
            sock.sendall(request.encode())
            reply = b""
            while chunk := sock.recv(4096):  # the server closes after replying
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body) == {
            "error": f"bad Content-Length header: '{length}'"
        }


class TestVerifyOverHttp:
    def test_verify_matches_direct_api(self, client):
        doc = oracle.Served(client, SHIFTER).verify()
        direct = Session.from_file(SHIFTER).verify()
        assert doc["profile"]["primitives"] == direct.primitive_count

    def test_edit_reverify_matches_direct_api(self, client):
        edits = [
            WireDelayEdit("AFTER 1", (0.0, 1.0)),
            ParamEdit("s1/rot", {"delay": (2.0, 5.5)}),
        ]
        served = oracle.Served(client, SHIFTER)
        served.verify()
        assert served.edit(*edits) == {"ok": True, "applied": 2}
        doc = served.check(client.reverify(served.sid, prescreen=False))

        direct = Session.from_file(SHIFTER)
        direct.verify()
        inc = direct.edit(*edits).reverify(prescreen=False)
        assert doc["incremental"] is True
        assert doc["prescreen"] is None
        assert (
            doc["profile"]["incremental"]["dirty_primitives"]
            == inc.stats.dirty_primitives
        )

    def test_reverify_renders_the_summary_once(self, client, monkeypatch):
        from repro.reporting import listing

        render = listing.timing_summary
        calls = []

        def counted(result, case=0):
            calls.append(case)
            return render(result, case=case)

        served = oracle.Served(client, SHIFTER)
        served.verify()
        served.edit(WireDelayEdit("AFTER 1", (0.0, 1.0)))
        monkeypatch.setattr(listing, "timing_summary", counted)
        doc = client.reverify(served.sid, prescreen=False)
        assert calls == [0]
        monkeypatch.undo()
        served.check(doc)

    def test_reverify_prescreen_on_wire(self, client):
        sid = client.create(path=SHIFTER)
        client.verify(sid)
        doc = client.reverify(sid, prescreen=True)
        assert doc["prescreen"] is not None
        assert doc["prescreen"]["ok"] is True

    def test_bad_edit_is_a_400(self, client):
        sid = client.create(path=SHIFTER)
        with pytest.raises(ServerError) as exc:
            client.edit(sid, {"kind": "wire_delay", "net": "NO SUCH NET",
                              "delay_ns": [0.0, 1.0]})
        assert exc.value.status == 400
        # The session survives a rejected edit.
        assert client.verify(sid)["ok"]

    def test_sdc_path_rides_along(self, client):
        sid = client.create(path=MULTICYCLE, sdc_path=MULTICYCLE_SDC)
        assert client.verify(sid)["ok"]
        bare = client.create(path=MULTICYCLE)
        assert not client.verify(bare)["ok"]


class TestPooledOverHttp:
    """A session created with "jobs" holds a warm worker pool behind the
    HTTP API; its listings stay byte-identical to the serial ones."""

    def test_jobs_session_matches_serial_and_reuses_pool(self, client):
        served = oracle.Served(client, SHIFTER, jobs=2)
        pool = served.verify()["profile"]["pool"]
        assert pool["workers"] == 2 and pool["pool_starts"] == 1

        # A second verify reuses the same workers, warm.
        pool2 = served.verify()["profile"]["pool"]
        assert pool2["pool_starts"] == 1
        assert pool2["runs"] == 2 and pool2["warm_runs"] >= 1

    def test_pooled_edit_reverify_matches_serial(self, client):
        served = oracle.Served(client, SHIFTER, jobs=2)
        served.verify()
        served.edit(WireDelayEdit("AFTER 1", (0.0, 1.0)))
        doc = served.check(client.reverify(served.sid, prescreen=False))
        assert doc["incremental"] is True
        assert doc["profile"]["pool"]["edits_shipped"] == 1

    def test_bad_jobs_rejected(self, client):
        for bad in (0, -1, "two", True):
            with pytest.raises(ServerError) as exc:
                client.create(path=SHIFTER, jobs=bad)
            assert exc.value.status == 400


def _descendants(pid: int) -> list[int]:
    """Every descendant of ``pid``, through all of its threads."""
    out, todo = [], [pid]
    while todo:
        parent = todo.pop()
        for tid in os.listdir(f"/proc/{parent}/task"):
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except FileNotFoundError:  # the thread has ended
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


def _alive(pid: int) -> bool:
    """Is ``pid`` still running?  A zombie has ended."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except FileNotFoundError:
        return False
    return text[text.rindex(")") + 2] != "Z"


class TestServeProcess:
    def test_scald_serve_round_trip(self):
        """``python -m repro.server --port 0`` prints its port and serves:
        load, verify, an edit that breaks the design and a reverify, then
        a pooled session whose second run reuses its workers."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            port = json.loads(proc.stdout.readline())["port"]
            client = SessionClient("127.0.0.1", port)
            assert client.health()["ok"]
            edit = WireDelayEdit("AFTER 1", (0.0, 25.0))
            served = oracle.Served(client, SHIFTER)
            assert served.verify()["ok"]
            doc = served.step(edit)
            assert doc["incremental"] and not doc["ok"]

            pooled = oracle.Served(client, SHIFTER, jobs=2)
            pooled.verify()
            pool = pooled.verify()["profile"]["pool"]
            assert pool["workers"] == 2 and pool["pool_starts"] == 1
            assert pool["runs"] == 2 and pool["warm_runs"] >= 1
            client.delete(served.sid)
            client.delete(pooled.sid)
            client.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="reads /proc"
    )
    @pytest.mark.parametrize(
        "sig", [signal.SIGTERM, signal.SIGKILL], ids=["sigterm", "sigkill"]
    )
    def test_no_pool_worker_outlives_the_server(self, sig):
        """A pooled session is still open when the server gets the signal.
        On SIGTERM the server closes every session before it exits; on
        SIGKILL nothing runs, and each worker leaves its request loop
        once its parent is gone.  Either way every descendant process
        exits within 5 s."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            port = json.loads(proc.stdout.readline())["port"]
            client = SessionClient("127.0.0.1", port)
            pooled = oracle.Served(client, SHIFTER, jobs=2)
            assert pooled.verify()["profile"]["pool"]["workers"] == 2
            client.close()
            workers = _descendants(proc.pid)
            assert len(workers) >= 2

            deadline = time.monotonic() + 5
            proc.send_signal(sig)
            proc.wait(timeout=5)
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if _alive(pid)] == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class TestStaticOverHttp:
    def test_sta_matches_direct_doc(self, client):
        sid = client.create(path=SHIFTER)
        assert client.sta(sid) == sta_doc(Session.from_file(SHIFTER).sta())

    def test_fmax_matches_direct_doc(self, client):
        sid = client.create(path=SHIFTER)
        assert client.fmax(sid) == fmax_doc(Session.from_file(SHIFTER).fmax())
