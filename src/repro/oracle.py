"""One definition of "same answer" for every execution mode.

The verifier is trusted through its listings, and this package produces
them six ways: the optimized engine, the naive engine, the bit-blasted
circuit, an incrementally re-verified session, a pooled session and a
``scald-serve`` session.  Each mode is held to the *reference*, a fresh
one-shot :class:`~repro.core.verifier.TimingVerifier` over the same,
possibly edited, circuit: an :class:`Observation` records everything a
user can see of a run, :func:`compare` compares every field two records
both carry and raises :class:`Divergence` naming the mode, the field and
the first line that differs, and each mode is one small function or
class (:func:`naive`, :func:`bitblast`, :class:`Reverify`,
:class:`Pooled`, :class:`Served`).

Tests, benchmarks and examples import this module; the library does not.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import zip_longest

from .constraints.resolve import strip_lane_suffix
from .core.config import VerifyConfig
from .core.verifier import TimingVerifier, VerificationResult
from .core.violations import Violation
from .incremental import edit_to_doc
from .netlist.bitblast import bit_blast, blast_width
from .netlist.circuit import Circuit
from .session import IncrementalResult, Prescreen, Session
from .sta import analyze


@dataclass(frozen=True)
class Observation:
    """What a user can see of one verification.  None: not carried."""

    ok: bool
    #: ``v.message()`` of every violation, in report order.
    messages: tuple[str, ...] | None = None
    errors: str | None = None
    #: One summary listing per case.
    summaries: tuple[str, ...] | None = None
    xref: tuple[str, ...] | None = None
    #: ``(case index, assignments)`` per case.
    assignments: tuple[tuple[int, dict], ...] | None = None
    #: ``(case index, net, waveform)`` for every net of every case.
    waveforms: tuple[tuple, ...] | None = None
    #: The engine's ``(check, margin)`` items, in report order.
    margins: tuple[tuple, ...] | None = None
    #: Sorted per-bit violation headlines and cross-reference.
    bit_violations: tuple[str, ...] | None = None
    bit_xref: tuple[str, ...] | None = None


class Divergence(AssertionError):
    """A mode's answer differs from the reference's in one field."""

    def __init__(self, mode: str, field: str, detail: str) -> None:
        self.mode = mode
        self.field = field
        super().__init__(f"{mode} diverges from the reference in {field}: {detail}")


def observe(result: VerificationResult, circuit: Circuit) -> Observation:
    """Every field of ``result``; ``circuit`` is the word-level circuit the
    per-bit forms resolve widths and representative names against."""
    return replace(
        observe_bits(result, circuit),
        messages=tuple(v.message() for v in result.violations),
        errors=result.error_listing(),
        summaries=tuple(
            result.summary_listing(case=i) for i in range(len(result.cases))
        ),
        xref=tuple(result.xref_assumed_stable),
        assignments=tuple((c.index, c.assignments) for c in result.cases),
        waveforms=tuple(
            (c.index, net, wf)
            for c in result.cases
            for net, wf in sorted(c.waveforms.items())
        ),
        margins=tuple(result.margins.items()),
    )


def observe_bits(result: VerificationResult, circuit: Circuit) -> Observation:
    """The verdict and the per-bit forms: all the bit-blast mode compares."""
    lines = (str(x) for v in result.violations for x in _expand_one(circuit, v))
    return Observation(
        ok=result.ok,
        bit_violations=tuple(sorted(lines)),
        bit_xref=_bit_xref(result, circuit),
    )


def compare(mode: str, want: Observation, got: Observation) -> None:
    """Raise :class:`Divergence` unless ``got`` matches the reference
    ``want`` in every field both carry."""
    for f in fields(Observation):
        a, b = getattr(want, f.name), getattr(got, f.name)
        if a is not None and b is not None and a != b:
            _diverge(mode, f.name, _lines(a), _lines(b))


def _lines(value) -> list[str]:
    """A field as the lines a divergence report points into."""
    items = value if isinstance(value, tuple) else (value,)
    return [
        line
        for item in items
        for line in (item.splitlines() if isinstance(item, str) else [repr(item)])
    ]


def _diverge(mode: str, field: str, want: list, got: list) -> None:
    for i, (x, y) in enumerate(zip_longest(want, got)):
        if x != y:
            raise Divergence(
                mode, field, f"line {i + 1}\n  reference: {x!r}\n  {mode}: {y!r}"
            )
    raise Divergence(mode, field, "the values differ but render the same lines")


# ----------------------------------------------------------------------
# the modes
# ----------------------------------------------------------------------


def reference(
    circuit: Circuit, constraints=None, config: VerifyConfig | None = None
) -> VerificationResult:
    """The answer every mode must reproduce: a fresh one-shot verifier."""
    return TimingVerifier(circuit, config, constraints=constraints).verify()


def naive(circuit: Circuit, constraints=None):
    """The naive engine (FIFO worklist, no interning, no memo) against the
    reference; returns the ``(reference, naive)`` results."""
    want = reference(circuit, constraints)
    got = reference(circuit, constraints, VerifyConfig().naive())
    compare("naive", observe(want, circuit), observe(got, circuit))
    return want, got


def bitblast(circuit: Circuit, constraints=None):
    """The per-bit scalar circuit against the word-level reference.

    Names differ by construction, so only the per-bit forms and the
    verdict are compared.  ``constraints`` are resolved against the
    word-level circuit, as ``scald-tv --bit-blast`` does.  Returns the
    ``(reference, bit-blasted)`` results.
    """
    want = reference(circuit, constraints)
    got = reference(bit_blast(circuit), constraints)
    compare("bit-blast", observe_bits(want, circuit), observe_bits(got, circuit))
    return want, got


class Reverify:
    """A session driven by ``edit(*edits)`` and ``reverify(prescreen=True)``.

    Each result is compared with a fresh reference over the session's
    edited circuit, and after each step the prescreen's held static
    analysis with a fresh :func:`repro.sta.analyze`.
    """

    name = "reverify"

    def __init__(self, session: Session) -> None:
        self.session = session

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.session.close()

    def verify(self) -> VerificationResult:
        """A full run of the session, compared with the reference."""
        result = self.session.verify()
        self._compare(result)
        return result

    def step(self, *edits) -> IncrementalResult:
        """Apply ``edits`` (none is a no-op reverify) and re-verify."""
        s = self.session
        inc = s.edit(*edits).reverify(prescreen=True)
        self._compare(inc.result)
        if inc.prescreen is None:
            raise AssertionError(f"{self.name}: the session had not verified")
        fresh = analyze(s.circuit, s.config, constraints=s.constraints)
        compare_static(self.name, s._static, fresh)
        want = Prescreen.of(fresh, inc.prescreen.seconds)
        if inc.prescreen != want:
            _diverge(self.name, "prescreen", [want], [inc.prescreen])
        return inc

    def _compare(self, result: VerificationResult) -> None:
        s = self.session
        want = reference(s.circuit, s.constraints, s.config)
        compare(self.name, observe(want, s.circuit), observe(result, s.circuit))


def compare_static(mode: str, held, fresh) -> None:
    """Raise :class:`Divergence` unless a held static analysis equals a
    fresh :func:`repro.sta.analyze` of the same circuit: every net's
    windows, the feedback cuts, the clock domains and the slack list."""
    domains = ("roots", "storage", "crossings", "net_roots", "net_launch")
    pairs = [
        ("windows", held.windows.windows, fresh.windows.windows),
        ("feedback cuts", held.windows.feedback, fresh.windows.feedback),
        *(
            (f"domains.{a}", getattr(held.domains, a), getattr(fresh.domains, a))
            for a in domains
        ),
        ("slack", held.slack, fresh.slack),
    ]
    for label, got, want in pairs:
        if got != want:
            _diverge(mode, f"held static {label}", _rows(want), _rows(got))


def _rows(value) -> list:
    """A static analysis part as rows; a per-net map sorted by net name."""
    if isinstance(value, dict):
        return sorted(((rep.name, v) for rep, v in value.items()), key=lambda r: r[0])
    return list(value)


class Pooled(Reverify):
    """``Session(jobs=2)``: the cases sharded over a warm worker pool.

    A pool exists exactly when the design has more than one case; a
    one-case design is the serial session.
    """

    name = "pooled"

    def __init__(self, circuit: Circuit, constraints=None) -> None:
        super().__init__(Session(circuit, constraints=constraints, jobs=2))
        if (self.session._pool is not None) != (len(circuit.cases) > 1):
            raise AssertionError(
                f"pooled: {len(circuit.cases)} cases, pool {self.session._pool}"
            )


class Served:
    """A ``scald-serve`` session, through a :class:`~repro.server.SessionClient`.

    The server expands its own circuit from ``path``.  A local twin
    session, never verified, takes the same edits, so each response is
    compared with a fresh reference over the twin's circuit.  The wire
    carries the verdict, the violation messages, the error listing,
    case 0's summary and the cross-reference; only those are compared.
    """

    name = "served"

    def __init__(self, client, path: str, sdc: str | None = None, jobs: int = 1):
        self.client = client
        self.sid = client.create(path=path, sdc_path=sdc, jobs=jobs)
        self.twin = Session.from_file(path, sdc=sdc)

    def verify(self) -> dict:
        return self.check(self.client.verify(self.sid))

    def edit(self, *edits) -> dict:
        """Send ``edits`` to the server and the twin; the server's reply."""
        reply = self.client.edit(self.sid, *(edit_to_doc(e) for e in edits))
        self.twin.edit(*edits)
        return reply

    def step(self, *edits) -> dict:
        self.edit(*edits)
        return self.check(self.client.reverify(self.sid))

    def check(self, doc: dict) -> dict:
        """Compare one verify or reverify response with the reference."""
        twin = self.twin
        want = observe(reference(twin.circuit, twin.constraints), twin.circuit)
        got = Observation(
            ok=doc["ok"],
            messages=tuple(doc["violations"]),
            errors=doc["error_listing"],
            summaries=(doc["summary_listing"],),
            xref=tuple(doc["xref_assumed_stable"]),
        )
        compare(self.name, replace(want, summaries=want.summaries[:1]), got)
        return doc


# ----------------------------------------------------------------------
# per-bit forms: a bit-blasted run names every bit "NAME [i]" where the
# word-level engine names a uniform vector once, so an unsuffixed record
# from a width-N checker expands to N lane records, a lane-suffixed one
# passes through, and every name becomes its representative net's
# ----------------------------------------------------------------------


def _rep_width(circuit: Circuit, name: str) -> int:
    net = circuit.nets.get(name)
    return 1 if net is None else circuit.find(net).width


def _normalize_name(circuit: Circuit, name: str | None) -> str | None:
    """Alias -> representative name, keeping a lane suffix and '-' prefix."""
    if name is None:
        return None
    bare = name.removeprefix("-")
    base = strip_lane_suffix(bare)
    net = circuit.nets.get(base)
    rep = base if net is None else circuit.find(net).name
    return name[: len(name) - len(bare)] + rep + bare[len(base):]


def _suffixed(circuit: Circuit, name: str, lane: int) -> str:
    """Lane-qualify ``name`` when its net is a vector (modulo the width)."""
    width = _rep_width(circuit, name.removeprefix("-"))
    return _normalize_name(circuit, name if width == 1 else f"{name} [{lane % width}]")


def _is_lane_suffixed(name: str | None) -> bool:
    """Textually: a blasted clone's own name counts as suffixed too."""
    bare = (name or "").removeprefix("-")
    return strip_lane_suffix(bare) != bare


def _expand_one(circuit: Circuit, v: Violation) -> list[Violation]:
    """One record -> its per-bit records."""
    names = (v.component, v.signal, v.clock)
    if any(_is_lane_suffixed(n) for n in names):
        # Already per lane (the word engine's diverged path, a blasted
        # run, or a suffixed component clone): normalize names only.
        component, signal, clock = (_normalize_name(circuit, n) for n in names)
        return [replace(v, component=component, signal=signal, clock=clock)]
    comp = circuit.components.get(v.component)
    if comp is not None:
        width = blast_width(circuit, comp)
        comp_vector = width > 1
    else:
        # "assertion", "sdc@NET" and other synthetic components: the
        # record covers every lane of the signal's net.
        width = _rep_width(circuit, v.signal.removeprefix("-"))
        comp_vector = False
    return [
        replace(
            v,
            component=f"{v.component} [{lane}]" if comp_vector else v.component,
            signal=_suffixed(circuit, v.signal, lane),
            clock=None if v.clock is None else _suffixed(circuit, v.clock, lane),
        )
        for lane in range(width)
    ]


def _bit_xref(result: VerificationResult, circuit: Circuit) -> tuple[str, ...]:
    """The assumed-stable cross-reference, expanded to per-bit names."""
    out: list[str] = []
    for name in result.xref_assumed_stable:
        rep = _normalize_name(circuit, name)
        width = 1 if strip_lane_suffix(name) != name else _rep_width(circuit, name)
        out.extend([rep] if width == 1 else (f"{rep} [{i}]" for i in range(width)))
    return tuple(sorted(out))
