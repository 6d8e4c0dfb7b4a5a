"""The differential oracle has teeth.

Each mode's comparison must cover every field of the observation that
the mode carries: changing any one of them makes the oracle raise,
naming the mode and the field.  A reverify that silently drops a dirty
component must be caught too.
"""

import dataclasses
import threading

import pytest

from repro import Session, oracle
from repro.hdl.expander import MacroExpander
from repro.incremental import ParamEdit
from repro.server import SessionClient, SessionServer
from repro.workloads.figures import fig_2_5_register_file

SHIFTER = "examples/designs/shifter.scald"

ALL = [f.name for f in dataclasses.fields(oracle.Observation)]
BITS = ["ok", "bit_violations", "bit_xref"]
WIRE = ["ok", "messages", "errors", "summaries", "xref"]


def _shifter():
    return MacroExpander.from_file(SHIFTER).expand()


def _pooled(_client):
    with oracle.Pooled(_shifter()) as mode:  # three cases: a real pool
        mode.verify()


MODES = {
    "naive": (lambda _client: oracle.naive(_shifter()), ALL),
    "bit-blast": (lambda _client: oracle.bitblast(fig_2_5_register_file()), BITS),
    "reverify": (
        lambda _client: oracle.Reverify(Session.from_file(SHIFTER)).verify(),
        ALL,
    ),
    "pooled": (_pooled, ALL),
    "served": (lambda client: oracle.Served(client, SHIFTER).verify(), WIRE),
}


@pytest.fixture(scope="module")
def client():
    server = SessionServer(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    cli = SessionClient("127.0.0.1", server.port)
    yield cli
    cli.close()
    server.shutdown()
    server.server_close()


def _tamper(value):
    """A changed copy of one field's value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "\ntampered"
    return value[:-1] if value else ("tampered",)


@pytest.mark.parametrize(
    "mode,field",
    [(mode, field) for mode, (_run, carried) in MODES.items() for field in carried],
)
def test_every_carried_field_is_compared(mode, field, client, monkeypatch):
    compare = oracle.compare

    def tampered(name, want, got):
        value = getattr(got, field)
        assert value is not None, f"{name} does not carry {field}"
        compare(name, want, dataclasses.replace(got, **{field: _tamper(value)}))

    monkeypatch.setattr(oracle, "compare", tampered)
    run, _carried = MODES[mode]
    with pytest.raises(oracle.Divergence) as excinfo:
        run(client)
    assert (excinfo.value.mode, excinfo.value.field) == (mode, field)
    assert mode in str(excinfo.value) and field in str(excinfo.value)


def test_divergence_names_the_first_line_that_differs():
    want = oracle.Observation(ok=True, errors="a\nb\nc")
    got = oracle.Observation(ok=True, errors="a\nB\nc")
    with pytest.raises(oracle.Divergence) as excinfo:
        oracle.compare("served", want, got)
    text = str(excinfo.value)
    assert "served diverges from the reference in errors" in text
    assert "line 2" in text and "'b'" in text and "'B'" in text


def test_reverify_that_drops_a_dirty_component_is_caught(monkeypatch):
    begin = Session._begin

    def lossy(self, case, incremental):
        self._dirty.components.pop("s2/rot", None)
        begin(self, case, incremental)

    mode = oracle.Reverify(Session.from_file(SHIFTER))
    mode.verify()
    monkeypatch.setattr(Session, "_begin", lossy)
    with pytest.raises(oracle.Divergence) as excinfo:
        mode.step(ParamEdit("s2/rot", {"delay": (2.0, 30.0)}))
    assert excinfo.value.mode == "reverify"
