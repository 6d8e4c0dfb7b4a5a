"""Typed circuit edits and the dirt they leave for re-verify.

The thesis pitches the Timing Verifier as a designer-facing tool used
across many edit-verify iterations of a large design; this module is the
edit half of that loop.  Each edit class below mutates the expanded
:class:`~repro.netlist.Circuit` *in place* — so a from-scratch run on the
same circuit object is always available as the correctness oracle — and
records what it dirtied in a :class:`PendingDirty` accumulator:

* ``components`` — primitives whose next evaluation may produce a new
  output; :meth:`Engine.incremental_begin` seeds the worklist with them
  and lets event propagation walk the rest of the cone.
* ``reader_nets`` / ``driver_nets`` — nets whose readers (their
  effective wire delay changed) or whose driver must re-evaluate.  The
  session resolves them through its engine's load and driver maps when
  the next run begins, so an edit never scans the circuit.
* ``stale_connections`` — connections whose prepared-input cache entries
  must be purged because the Connection object itself was retired
  (``id()`` reuse hazard); the readers' default-delay connections on the
  ``reader_nets`` join them at resolution.
* ``topology`` — the driver/load maps and levelized ranks need a rebuild.

Everything outside the dirty cone keeps its stored waveform verbatim; the
uniqueness of the fixed point (the same argument behind §2.7 case
analysis and the parallel case blocks) makes the incremental result
byte-identical to a from-scratch run, which ``repro.oracle``'s reverify
and pooled modes check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .hdl import parse_signal_name
from .netlist.circuit import (
    Circuit,
    Component,
    Connection,
    Net,
    NetlistError,
    normalize_param,
)
from .core.timeline import ns_to_ps

__all__ = [
    "AssertionEdit",
    "ConstraintsEdit",
    "Edit",
    "ParamEdit",
    "PendingDirty",
    "ReconnectEdit",
    "WireDelayEdit",
    "apply_edit",
    "edit_from_doc",
    "edit_to_doc",
]


@dataclass
class PendingDirty:
    """What the edits since the last (re)verification have dirtied."""

    components: dict[str, Component] = field(default_factory=dict)
    stale_connections: list[Connection] = field(default_factory=list)
    #: Nets whose readers, and nets whose driver, must re-evaluate (dicts
    #: as insertion-ordered sets, so the worklist order is reproducible).
    reader_nets: dict[Net, None] = field(default_factory=dict)
    driver_nets: dict[Net, None] = field(default_factory=dict)
    topology: bool = False
    #: Structural validation must re-run: set by edits that touch what the
    #: structural lint rules inspect (pins/connections and assertions).
    #: Wire-delay and timing-parameter edits never affect those rules, so
    #: the session reuses its cached warnings for them.
    structure: bool = False

    def clear(self) -> None:
        self.components.clear()
        self.stale_connections.clear()
        self.reader_nets.clear()
        self.driver_nets.clear()
        self.topology = False
        self.structure = False

    def merge_component(self, comp: Component) -> None:
        if not comp.prim.is_checker:
            self.components[comp.name] = comp


def _require_net(circuit: Circuit, name: str) -> Net:
    net = circuit.nets.get(name)
    if net is None:
        raise NetlistError(f"unknown net {name!r}")
    return circuit.find(net)


def _require_component(circuit: Circuit, name: str) -> Component:
    comp = circuit.components.get(name)
    if comp is None:
        raise NetlistError(f"unknown component {name!r}")
    return comp


@dataclass(frozen=True)
class WireDelayEdit:
    """Override (or restore the default of) one net's interconnection delay.

    ``delay_ns`` is an ``(early, late)`` range in nanoseconds — the API
    boundary unit, converted to integer picoseconds on apply — or None to
    fall back to the config default (section 2.5.3's per-signal override,
    e.g. the thesis setting the register-file address lines to 0.0/6.0).
    """

    net: str
    delay_ns: tuple[float, float] | None

    def apply(self, circuit: Circuit, pending: PendingDirty) -> None:
        rep = _require_net(circuit, self.net)
        if self.delay_ns is None:
            rep.wire_delay_ps = None
        else:
            lo, hi = self.delay_ns
            lo_ps, hi_ps = ns_to_ps(float(lo)), ns_to_ps(float(hi))
            if lo_ps < 0 or hi_ps < lo_ps:
                raise NetlistError(
                    f"bad wire delay range {self.delay_ns!r} for {self.net!r}"
                )
            rep.wire_delay_ps = (lo_ps, hi_ps)
        pending.reader_nets[rep] = None


@dataclass(frozen=True)
class ParamEdit:
    """Swap one or more of a primitive's (timing) parameters.

    Values use the builder's nanosecond surface and are normalized by the
    same :func:`~repro.netlist.circuit.normalize_param` path, so the edit
    is indistinguishable from having built the circuit this way.  Editing
    a checker's setup/hold re-runs only that checker (the checker-verdict
    memo keys on parameters); editing a model delay dirties the primitive
    itself (the evaluation memo keys on every delay parameter, so stale
    hits are impossible).  ``width`` is structural, not timing, and is
    rejected.
    """

    component: str
    params: Mapping[str, object]

    def apply(self, circuit: Circuit, pending: PendingDirty) -> None:
        comp = _require_component(circuit, self.component)
        specs = {p.name: p for p in comp.prim.params}
        # Check and normalize every key before writing any, so a rejected
        # edit leaves the component exactly as it was.
        updates = {}
        for name, value in self.params.items():
            spec = specs.get(name)
            if spec is None:
                raise NetlistError(
                    f"{comp.prim.name} does not accept parameter {name!r}"
                )
            if name == "width":
                raise NetlistError(
                    "width is structural; rebuild the circuit instead of "
                    "editing it"
                )
            updates[name] = normalize_param(comp.prim, spec, value)
        comp.params.update(updates)
        pending.merge_component(comp)


@dataclass(frozen=True)
class ReconnectEdit:
    """Rewire one pin of a component to a different net.

    ``target`` uses the builder's string form ``[-]NAME[ &DIRECTIVES]``,
    so inversion and evaluation directives ride along.  Rewiring is a
    topology change: the driver/load maps and levelized ranks are rebuilt
    at the next re-verify, and the readers of both the old and new nets
    are dirtied (under the per-load wire-delay rule their effective
    delays change with the load count).
    """

    component: str
    pin: str
    target: str

    def apply(self, circuit: Circuit, pending: PendingDirty) -> None:
        comp = _require_component(circuit, self.component)
        prim = comp.prim
        valid = set(prim.all_fixed_pins())
        if self.pin not in valid and not (
            prim.variadic_input
            and self.pin.startswith(prim.variadic_input)
            and self.pin[len(prim.variadic_input):].isdigit()
        ):
            raise NetlistError(f"{prim.name} has no pin {self.pin!r}")
        old = comp.pins.get(self.pin)
        conn = circuit._as_connection(self.target, width=comp.width)
        comp.pins[self.pin] = conn
        pending.topology = True
        pending.structure = True
        pending.merge_component(comp)
        reps = {circuit.find(conn.net)}
        if old is not None:
            pending.stale_connections.append(old)
            reps.add(circuit.find(old.net))
        for rep in reps:
            pending.reader_nets[rep] = None
            pending.driver_nets[rep] = None


@dataclass(frozen=True)
class AssertionEdit:
    """Replace (or remove, with None) the timing assertion on a net.

    ``assertion`` is the bare spec suffix as it would appear in the
    signal name — ``".P2-3"``, ``".S0-6"``, ``".C4 P0-1"`` — parsed by
    the same grammar.  The net's *name* keeps its original spelling (it
    is the lookup key everywhere); only the parsed assertion changes,
    exactly as if the design had been entered with the new spec.
    """

    net: str
    assertion: str | None

    def apply(self, circuit: Circuit, pending: PendingDirty) -> None:
        rep = _require_net(circuit, self.net)
        old = rep.assertion
        if self.assertion is None:
            new = None
        else:
            _base, new = parse_signal_name(f"{rep.base_name} {self.assertion}")
            if new is None:
                raise NetlistError(
                    f"{self.assertion!r} is not a timing assertion"
                )
        rep.assertion = new
        pending.structure = True
        old_clock = old is not None and old.kind.is_clock
        new_clock = new is not None and new.kind.is_clock
        if old_clock != new_clock:
            # Clock-ness gates both rank edges and the fixed/driven
            # classification; ranks need a rebuild (classes are re-derived
            # by the reclassification scan regardless).
            pending.topology = True
        # A formerly pinned net handed back to its driver holds a stale
        # asserted waveform until the driver re-stores.
        pending.driver_nets[rep] = None


@dataclass(frozen=True)
class ConstraintsEdit:
    """Swap the run's SDC constraint set (or clear it entirely).

    Applied by the session, not the circuit: the new set is parsed and
    resolved against the expanded circuit, the engine's constraints token
    is bumped (invalidating every cached checker verdict), and the
    reclassification scan re-derives ``set_input_delay`` port waveforms.
    """

    source: str | None = None
    path: str | None = None
    clear: bool = False

    def load(self, circuit: Circuit):
        given = sum(x is not None for x in (self.source, self.path)) + bool(
            self.clear
        )
        if given != 1:
            raise NetlistError(
                "ConstraintsEdit needs exactly one of source=, path= or "
                "clear=True"
            )
        if self.clear:
            return None
        if self.path is not None:
            from .constraints import load_constraints

            return load_constraints(self.path, circuit)
        from .constraints import parse_sdc, resolve

        commands, findings = parse_sdc(self.source, filename="<edit>")
        return resolve(
            commands, circuit, filename="<edit>", parse_findings=findings
        )


Edit = (
    WireDelayEdit | ParamEdit | ReconnectEdit | AssertionEdit | ConstraintsEdit
)


def apply_edit(circuit: Circuit, edit: Edit, pending: PendingDirty) -> None:
    """Apply one circuit edit, folding its dirt into ``pending``.

    :class:`ConstraintsEdit` is session-scoped (it owns no circuit state)
    and must go through :meth:`repro.session.Session.edit` instead.
    """
    if isinstance(edit, ConstraintsEdit):
        raise NetlistError(
            "ConstraintsEdit applies to a session, not a circuit; use "
            "Session.edit()"
        )
    edit.apply(circuit, pending)


# ----------------------------------------------------------------------
# wire format (the scald-serve JSON edit documents)
# ----------------------------------------------------------------------

def edit_to_doc(edit: Edit) -> dict:
    """One edit as a plain-JSON document (the server's wire format)."""
    if isinstance(edit, WireDelayEdit):
        return {
            "kind": "wire_delay",
            "net": edit.net,
            "delay_ns": list(edit.delay_ns) if edit.delay_ns else None,
        }
    if isinstance(edit, ParamEdit):
        return {
            "kind": "param",
            "component": edit.component,
            "params": dict(edit.params),
        }
    if isinstance(edit, ReconnectEdit):
        return {
            "kind": "reconnect",
            "component": edit.component,
            "pin": edit.pin,
            "target": edit.target,
        }
    if isinstance(edit, AssertionEdit):
        return {"kind": "assertion", "net": edit.net, "assertion": edit.assertion}
    if isinstance(edit, ConstraintsEdit):
        if edit.clear:
            return {"kind": "sdc", "clear": True}
        return {"kind": "sdc", "source": edit.source, "path": edit.path}
    raise NetlistError(f"cannot serialize edit {edit!r}")


_DOC_KEYS = {
    "wire_delay": {"kind", "net", "delay_ns"},
    "param": {"kind", "component", "params"},
    "reconnect": {"kind", "component", "pin", "target"},
    "assertion": {"kind", "net", "assertion"},
    "sdc": {"kind", "clear", "source", "path"},
}


def edit_from_doc(doc: Mapping[str, object]) -> Edit:
    """Rebuild a typed edit from its JSON document.

    Unknown keys are rejected: a misspelled field (``delay`` for
    ``delay_ns``) would otherwise be silently dropped and the edit
    applied as something else — over HTTP that reads as success.
    """
    kind = doc.get("kind")
    allowed = _DOC_KEYS.get(str(kind))
    if allowed is not None:
        extra = set(doc) - allowed
        if extra:
            raise NetlistError(
                f"unknown key(s) {sorted(extra)} in {kind!r} edit "
                f"(allowed: {sorted(allowed)})"
            )
    if kind == "wire_delay":
        delay = doc.get("delay_ns")
        return WireDelayEdit(
            net=str(doc["net"]),
            delay_ns=tuple(delay) if delay is not None else None,  # type: ignore[arg-type]
        )
    if kind == "param":
        params = doc["params"]
        if not isinstance(params, Mapping):
            raise NetlistError("param edit needs a params object")
        return ParamEdit(
            component=str(doc["component"]),
            params={
                k: tuple(v) if isinstance(v, list) else v
                for k, v in params.items()
            },
        )
    if kind == "reconnect":
        return ReconnectEdit(
            component=str(doc["component"]),
            pin=str(doc["pin"]),
            target=str(doc["target"]),
        )
    if kind == "assertion":
        assertion = doc.get("assertion")
        return AssertionEdit(
            net=str(doc["net"]),
            assertion=str(assertion) if assertion is not None else None,
        )
    if kind == "sdc":
        if doc.get("clear"):
            return ConstraintsEdit(clear=True)
        source = doc.get("source")
        path = doc.get("path")
        return ConstraintsEdit(
            source=str(source) if source is not None else None,
            path=str(path) if path is not None else None,
        )
    raise NetlistError(f"unknown edit kind {kind!r}")
