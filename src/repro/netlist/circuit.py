"""Circuit graph: nets, components, and the design container.

This is the data structure the Macro Expander emits and the Timing Verifier
consumes — the "circuit description" that accounted for 37.8 % of the
thesis implementation's storage (Table 3-3).  A :class:`Circuit` is a flat
collection of primitive :class:`Component` instances connected by
:class:`Net` objects; synonyms between signal names (created by macro
parameter binding) are kept in a union-find and resolved the way Pass 1 of
the Macro Expander resolves them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..core.timeline import Timebase, ns_to_ps
from ..hdl.assertions import Assertion, parse_signal_name
from .primitives import PrimitiveType, lookup

#: Letters accepted in an evaluation-directive string (section 2.6).
DIRECTIVE_LETTERS = frozenset("EWZAH")


class NetlistError(ValueError):
    """Raised for structural errors while building a circuit."""


#: A per-lane signal reference: ``"NAME [i]"`` names bit ``i`` of the
#: vector net ``NAME`` (the same suffix the bit-blast transform uses for
#: its per-bit net clones).
_LANE_REF_RE = re.compile(r"\A(?P<base>.+) \[(?P<lane>\d+)\]\Z")


def parse_lane_ref(circuit: "Circuit", name: str) -> "tuple[Net, int] | None":
    """Resolve ``"NAME [i]"`` to ``(net, i)`` when it names a vector lane.

    Returns None unless the suffix parses, the base net already exists,
    and the lane index is inside the net's declared width.  A name that is
    itself a registered net (a bit-blasted circuit's per-bit clone) is
    *not* a lane reference — the whole-net meaning wins.
    """
    if name in circuit.nets:
        return None
    m = _LANE_REF_RE.match(name)
    if m is None:
        return None
    base = circuit.nets.get(m.group("base"))
    if base is None:
        return None
    lane = int(m.group("lane"))
    rep = circuit.find(base)
    if lane >= rep.width:
        return None
    return rep, lane


@dataclass(eq=False)  # identity equality/hashing, at C speed
class Net:
    """One signal in the design.

    The full ``name`` may embed a timing assertion (section 2.5); the
    parsed assertion and the assertion-free ``base_name`` are stored
    alongside.  ``wire_delay_ps`` overrides the verifier's default
    interconnection delay for this signal (section 2.5.3 — the thesis's
    example sets the register-file address lines to 0.0/6.0 ns).
    """

    name: str
    width: int = 1
    base_name: str = ""
    assertion: Assertion | None = None
    wire_delay_ps: tuple[int, int] | None = None
    is_case_signal: bool = False
    #: ``(source_file, line)`` of the statement that first referenced the
    #: net, when it came from a ``.scald`` source; None for API-built nets.
    origin: tuple[str, int] | None = None

    def __post_init__(self) -> None:
        if not self.base_name:
            base, assertion = parse_signal_name(self.name)
            self.base_name = base
            if self.assertion is None:
                self.assertion = assertion
        if self.width < 1:
            raise NetlistError(f"net {self.name!r} has width {self.width}")

    def __repr__(self) -> str:
        return f"<Net {self.name!r} w={self.width}>"


@dataclass(frozen=True)
class Connection:
    """A net attached to a component pin.

    Attributes:
        net: the attached signal.
        invert: use the complement of the signal (the leading ``-`` of
            ``- WE`` in Figure 3-5).
        directives: evaluation-directive string applied *at this input*
            (the ``&H`` of Figure 2-5); one letter per level of gating.
        wire_delay_ps: per-connection interconnection delay override.
    """

    net: Net
    invert: bool = False
    directives: str = ""
    wire_delay_ps: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        bad = set(self.directives.upper()) - DIRECTIVE_LETTERS
        if bad:
            raise NetlistError(
                f"unknown evaluation directive letters {sorted(bad)} on "
                f"net {self.net.name!r} (allowed: E W Z A H)"
            )
        object.__setattr__(self, "directives", self.directives.upper())


@dataclass
class Component:
    """One primitive instance."""

    name: str
    prim: PrimitiveType
    pins: dict[str, Connection] = field(default_factory=dict)
    params: dict[str, object] = field(default_factory=dict)
    #: ``(source_file, line)`` of the ``prim`` statement this instance was
    #: expanded from, when known; None for API-built components.
    origin: tuple[str, int] | None = None

    def input_pins(self) -> list[tuple[str, Connection]]:
        """Connected input pins, fixed pins first then variadic in order."""
        out = []
        for pin in self.prim.inputs:
            if pin in self.pins:
                out.append((pin, self.pins[pin]))
        if self.prim.variadic_input:
            i = 1
            prefix = self.prim.variadic_input
            while f"{prefix}{i}" in self.pins:
                out.append((f"{prefix}{i}", self.pins[f"{prefix}{i}"]))
                i += 1
        return out

    def output_pins(self) -> list[tuple[str, Connection]]:
        return [(p, self.pins[p]) for p in self.prim.outputs if p in self.pins]

    @property
    def width(self) -> int:
        return int(self.params.get("width", 1))

    def delay_ps(self, param: str = "delay") -> tuple[int, int]:
        return self.params.get(param, (0, 0))  # type: ignore[return-value]

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"<{self.prim.name} {self.name!r}>"


def normalize_param(prim: PrimitiveType, spec, value: object) -> object:
    """Normalize one parameter value against its spec; convert ns to ps.

    Shared between construction-time :func:`_normalize_params` and the
    incremental edit API (:class:`repro.incremental.ParamEdit`), so an
    edited parameter lands in the component in exactly the form the
    builder would have produced.
    """
    if value is None:
        return None
    if spec.kind == "delay":
        if isinstance(value, (int, float)):
            value = (value, value)  # a fixed delay
        dmin, dmax = value  # type: ignore[misc]
        lo, hi = ns_to_ps(float(dmin)), ns_to_ps(float(dmax))
        if lo < 0 or hi < lo:
            raise NetlistError(
                f"{prim.name}.{spec.name}: bad delay range {value!r}"
            )
        return (lo, hi)
    if spec.kind == "time":
        # Hold times may legitimately be negative (Figure 3-5 checks a
        # hold of -1.0 ns on the register-file data inputs).
        return ns_to_ps(float(value))  # type: ignore[arg-type]
    if spec.kind == "int":
        return int(value)  # type: ignore[arg-type]
    # pragma: no cover - registry bug
    raise AssertionError(f"unknown param kind {spec.kind}")


def _normalize_params(prim: PrimitiveType, raw: dict[str, object]) -> dict[str, object]:
    """Validate parameters against the primitive's spec; convert ns to ps."""
    specs = {p.name: p for p in prim.params}
    unknown = set(raw) - set(specs)
    if unknown:
        raise NetlistError(
            f"{prim.name} does not accept parameter(s) {sorted(unknown)}"
        )
    out: dict[str, object] = {}
    for spec in prim.params:
        if spec.name in raw:
            value = raw[spec.name]
        elif spec.required:
            raise NetlistError(f"{prim.name} requires parameter {spec.name!r}")
        else:
            value = spec.default
        out[spec.name] = normalize_param(prim, spec, value)
    return out


NetLike = "Net | str"  # forward-reference alias used in annotations only


class Circuit:
    """A flat design ready for timing verification.

    Nets are created on first reference by name; names carry assertions.
    The convenience builders (:meth:`gate`, :meth:`reg`, ...) cover the
    primitive vocabulary of section 3.1.

    A net name passed as a string may carry a leading ``-`` to denote the
    complement of the signal at that connection, and a trailing
    ``&<letters>`` evaluation-directive annotation, e.g. ``"CLK .P2-3 &H"``
    — matching the drawings in Figures 2-5 and 3-5.
    """

    def __init__(
        self,
        name: str,
        period_ns: float,
        clock_unit_ns: float | None = None,
    ) -> None:
        self.name = name
        self.timebase = Timebase.from_ns(period_ns, clock_unit_ns)
        self.nets: dict[str, Net] = {}
        self.components: dict[str, Component] = {}
        self.cases: list[dict[str, int]] = []
        self._alias_parent: dict[Net, Net] = {}

    def __getstate__(self) -> dict:
        """Pickle hook: flatten the union-find first.

        ``find`` compresses paths lazily, so the alias table's internal
        shape depends on query history.  Compressing every chain before
        pickling makes the serialized form canonical — workers unpickling
        the same circuit see the same representative for every net (the
        pickle memo preserves the ``Net`` identity topology, which is what
        ``eq=False`` hashing keys on).
        """
        for net in list(self._alias_parent):
            self.find(net)
        return self.__dict__

    # ------------------------------------------------------------------
    # nets and aliases
    # ------------------------------------------------------------------

    @property
    def period_ps(self) -> int:
        return self.timebase.period_ps

    def net(self, name: str, width: int = 1) -> Net:
        """Get or create the net called ``name``.

        Re-referencing an existing net with a larger width widens it (macro
        expansion discovers vector widths incrementally).
        """
        existing = self.nets.get(name)
        if existing is not None:
            if width > existing.width:
                existing.width = width
            return existing
        net = Net(name=name, width=width)
        self.nets[name] = net
        return net

    def alias(self, a: NetLike, b: NetLike) -> None:
        """Declare two names to be the same signal (Pass-1 synonyms)."""
        na, nb = self._as_net(a), self._as_net(b)
        ra, rb = self.find(na), self.find(nb)
        if ra is rb:
            return
        # Keep the asserted (or first-created) net as representative so
        # assertions survive resolution.
        if rb.assertion is not None and ra.assertion is None:
            ra, rb = rb, ra
        self._alias_parent[rb] = ra
        if rb.width > ra.width:
            ra.width = rb.width

    def find(self, net: Net) -> Net:
        """The representative net of an alias class (path-compressed)."""
        root = net
        while root in self._alias_parent:
            root = self._alias_parent[root]
        while net in self._alias_parent:
            self._alias_parent[net], net = root, self._alias_parent[net]
        return root

    def representatives(self) -> list[Net]:
        """All distinct signals after synonym resolution."""
        seen: dict[Net, None] = {}
        for net in self.nets.values():
            seen.setdefault(self.find(net), None)
        return list(seen)

    def _as_net(self, ref: NetLike, width: int = 1) -> Net:
        if isinstance(ref, Net):
            return ref
        return self.net(ref, width=width)

    def _as_connection(self, ref, width: int = 1) -> Connection:
        """Coerce a net/str/Connection into a Connection.

        String form: ``[-]NAME[ &DIRECTIVES]``.
        """
        if isinstance(ref, Connection):
            return ref
        if isinstance(ref, Net):
            return Connection(net=ref)
        if not isinstance(ref, str):
            raise NetlistError(f"cannot connect {ref!r}")
        text = ref.strip()
        invert = False
        if text.startswith("-"):
            invert = True
            text = text[1:].strip()
        directives = ""
        if "&" in text:
            text, _, directives = text.rpartition("&")
            text = text.strip()
            directives = directives.strip()
        return Connection(
            net=self._as_net(text, width=width), invert=invert, directives=directives
        )

    # ------------------------------------------------------------------
    # components
    # ------------------------------------------------------------------

    def add(
        self,
        name: str,
        prim_name: str,
        pins: dict[str, object],
        origin: tuple[str, int] | None = None,
        **params: object,
    ) -> Component:
        """Add a primitive instance with explicit pin connections."""
        if name in self.components:
            raise NetlistError(f"duplicate component name {name!r}")
        prim = lookup(prim_name)
        norm = _normalize_params(prim, params)
        width = int(norm.get("width") or 1)
        comp = Component(name=name, prim=prim, params=norm, origin=origin)
        valid = set(prim.all_fixed_pins())
        for pin, ref in pins.items():
            if pin not in valid and not (
                prim.variadic_input
                and pin.startswith(prim.variadic_input)
                and pin[len(prim.variadic_input):].isdigit()
            ):
                raise NetlistError(f"{prim.name} has no pin {pin!r}")
            comp.pins[pin] = self._as_connection(ref, width=width)
        self.components[name] = comp
        return comp

    def _auto_name(self, prefix: str) -> str:
        i = len(self.components) + 1
        while f"{prefix}{i}" in self.components:
            i += 1
        return f"{prefix}{i}"

    def gate(
        self,
        prim_name: str,
        output: NetLike,
        inputs: Sequence[object],
        delay: tuple[float, float] = (0.0, 0.0),
        name: str | None = None,
        width: int = 1,
        rise_delay: tuple[float, float] | None = None,
        fall_delay: tuple[float, float] | None = None,
    ) -> Component:
        """Add a gate/CHG with variadic inputs ``I1..In``.

        ``rise_delay``/``fall_delay`` give per-edge delay ranges for
        asymmetric (nMOS-style) technologies (section 4.2.2); either
        defaults to the symmetric ``delay`` when only one is given.
        """
        prim = lookup(prim_name)
        if prim.variadic_input is None and prim.name not in ("NOT", "BUF", "DELAY"):
            raise NetlistError(f"{prim.name} is not a gate")
        pins: dict[str, object] = {}
        if prim.variadic_input:
            if len(inputs) < prim.min_variadic:
                raise NetlistError(f"{prim.name} needs at least one input")
            for i, ref in enumerate(inputs, start=1):
                pins[f"{prim.variadic_input}{i}"] = ref
        else:
            if len(inputs) != 1:
                raise NetlistError(f"{prim.name} takes exactly one input")
            pins["I"] = inputs[0]
        pins["OUT"] = output
        params: dict[str, object] = {"delay": delay, "width": width}
        if rise_delay is not None:
            params["rise_delay"] = rise_delay
        if fall_delay is not None:
            params["fall_delay"] = fall_delay
        return self.add(
            name or self._auto_name(prim.name.lower()),
            prim.name,
            pins,
            **params,
        )

    def chg(self, output, inputs, delay=(0.0, 0.0), name=None, width=1) -> Component:
        """The CHANGE function (section 2.4.2)."""
        return self.gate("CHG", output, inputs, delay=delay, name=name, width=width)

    def buf(self, output, input_, delay=(0.0, 0.0), name=None, width=1) -> Component:
        """A buffer / explicit delay element."""
        return self.gate("BUF", output, [input_], delay=delay, name=name, width=width)

    def mux(
        self,
        output,
        selects: Sequence[object],
        inputs: Sequence[object],
        delay=(0.0, 0.0),
        select_delay=(0.0, 0.0),
        name=None,
        width=1,
    ) -> Component:
        """An N-way multiplexer (Figure 3-6's ``2 MUX``)."""
        n = len(inputs)
        if n not in (2, 4, 8):
            raise NetlistError(f"mux must have 2, 4 or 8 inputs, got {n}")
        if len(selects) != max(1, n.bit_length() - 1):
            raise NetlistError(
                f"mux with {n} inputs needs {max(1, n.bit_length() - 1)} selects"
            )
        pins: dict[str, object] = {"OUT": output}
        for i, s in enumerate(selects):
            pins[f"S{i}"] = s
        for i, d in enumerate(inputs):
            pins[f"I{i}"] = d
        return self.add(
            name or self._auto_name(f"mux{n}_"),
            f"MUX{n}",
            pins,
            delay=delay,
            select_delay=select_delay,
            width=width,
        )

    def reg(
        self,
        output,
        clock,
        data,
        delay=(0.0, 0.0),
        set_=None,
        reset=None,
        name=None,
        width=1,
    ) -> Component:
        """An edge-triggered register (Figure 2-1)."""
        pins: dict[str, object] = {"OUT": output, "CLOCK": clock, "DATA": data}
        prim = "REG"
        if set_ is not None or reset is not None:
            prim = "REG_RS"
            pins["SET"] = set_ if set_ is not None else "GND"
            pins["RESET"] = reset if reset is not None else "GND"
        return self.add(
            name or self._auto_name("reg"), prim, pins, delay=delay, width=width
        )

    def latch(
        self,
        output,
        enable,
        data,
        delay=(0.0, 0.0),
        set_=None,
        reset=None,
        name=None,
        width=1,
    ) -> Component:
        """A transparent latch (Figure 2-2)."""
        pins: dict[str, object] = {"OUT": output, "ENABLE": enable, "DATA": data}
        prim = "LATCH"
        if set_ is not None or reset is not None:
            prim = "LATCH_RS"
            pins["SET"] = set_ if set_ is not None else "GND"
            pins["RESET"] = reset if reset is not None else "GND"
        return self.add(
            name or self._auto_name("latch"), prim, pins, delay=delay, width=width
        )

    def setup_hold(
        self, input_, clock, setup: float, hold: float, name=None, width=1
    ) -> Component:
        """A SETUP HOLD CHK primitive (Figure 2-3, upper)."""
        return self.add(
            name or self._auto_name("shchk"),
            "SETUP_HOLD_CHK",
            {"I": input_, "CK": clock},
            setup=setup,
            hold=hold,
            width=width,
        )

    def setup_rise_hold_fall(
        self, input_, clock, setup: float, hold: float, name=None, width=1
    ) -> Component:
        """A SETUP RISE HOLD FALL CHK primitive (Figure 2-3, lower)."""
        return self.add(
            name or self._auto_name("srhfchk"),
            "SETUP_RISE_HOLD_FALL_CHK",
            {"I": input_, "CK": clock},
            setup=setup,
            hold=hold,
            width=width,
        )

    def min_pulse_width(
        self,
        input_,
        min_high: float | None = None,
        min_low: float | None = None,
        name=None,
        width=1,
    ) -> Component:
        """A MIN PULSE WIDTH checker (Figure 2-4)."""
        if min_high is None and min_low is None:
            raise NetlistError("min_pulse_width needs min_high and/or min_low")
        return self.add(
            name or self._auto_name("mpwchk"),
            "MIN_PULSE_WIDTH",
            {"I": input_},
            min_high=min_high,
            min_low=min_low,
            width=width,
        )

    # ------------------------------------------------------------------
    # case analysis (section 2.7)
    # ------------------------------------------------------------------

    def add_case(self, **assignments: int) -> None:
        """Add one case: keyword form, net names with ``_`` for spaces not
        supported — prefer :meth:`add_case_by_name` for real names."""
        self.add_case_by_name({k: v for k, v in assignments.items()})

    def add_case_by_name(self, assignments: dict[str, int]) -> None:
        """Add one simulated case (section 2.7.1).

        Each entry maps a signal name to 0 or 1; during that case the
        signal's STABLE values are replaced by the given constant.  A key
        of the form ``"NAME [i]"`` where ``NAME`` is an existing vector
        net addresses bit ``i`` alone — the word-level engine diverges
        just that lane, and a lane key always overrides a whole-net key
        for the same net.  (A registered net whose *name* carries the
        suffix — a bit-blasted clone — keeps its whole-net meaning.)
        """
        case: dict[str, int] = {}
        for name, value in assignments.items():
            if value not in (0, 1):
                raise NetlistError(f"case value for {name!r} must be 0 or 1")
            lane_ref = parse_lane_ref(self, name)
            if lane_ref is not None:
                lane_ref[0].is_case_signal = True
            else:
                net = self.net(name)
                net.is_case_signal = True
            case[name] = value
        self.cases.append(case)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def iter_components(self) -> Iterator[Component]:
        return iter(self.components.values())

    def stats(self) -> dict[str, object]:
        """Primitive statistics in the shape of Table 3-2."""
        by_type: dict[str, int] = {}
        total_width = 0
        for comp in self.components.values():
            by_type[comp.prim.display] = by_type.get(comp.prim.display, 0) + 1
            total_width += comp.width
        n = len(self.components)
        return {
            "primitive_count": n,
            "primitive_types": len(by_type),
            "by_type": dict(sorted(by_type.items(), key=lambda kv: -kv[1])),
            "mean_width": (total_width / n) if n else 0.0,
            "bit_blasted_count": total_width,
            "net_count": len(self.representatives()),
        }

    def __repr__(self) -> str:
        return (
            f"<Circuit {self.name!r}: {len(self.components)} primitives, "
            f"{len(self.nets)} nets, period {self.timebase.period_ns} ns>"
        )
