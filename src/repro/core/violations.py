"""Typed timing-violation records (the Figure 3-11 error report).

Every checker produces :class:`Violation` records carrying enough detail to
reconstruct the thesis's error messages: which constraint, by how much it
was missed, and the value behaviour of the signals the checker saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .timeline import format_ns
from .waveform import Waveform


class ViolationKind(Enum):
    """The classes of logic-level timing error of section 1.3.2."""

    SETUP = "setup"
    HOLD = "hold"
    STABLE_WHILE_TRUE = "stable-while-true"
    MIN_PULSE_WIDTH_HIGH = "min-pulse-width-high"
    MIN_PULSE_WIDTH_LOW = "min-pulse-width-low"
    POSSIBLE_GLITCH = "possible-glitch"
    GATING_STABILITY = "gating-stability"
    ASSERTION_MISMATCH = "assertion-mismatch"
    NO_CLOCK_EDGE = "no-clock-edge"
    RECOVERY = "recovery"
    REMOVAL = "removal"
    BORROW = "borrow"


@dataclass(frozen=True)
class Violation:
    """One detected timing error.

    Attributes:
        kind: the constraint class that failed.
        component: name of the checker or gate that detected it.
        signal: the offending signal's name.
        clock: the reference clock signal's name, when applicable.
        required_ps: the constraint interval (setup time, hold time, or
            minimum width) in picoseconds.
        actual_ps: what the circuit achieved (negative slack is
            ``required_ps - actual_ps``).
        missed_by_ps: how much the constraint was missed by.
        window: the time window checked, in absolute picoseconds.
        case_index: which case analysis cycle detected it (section 2.7).
        signal_waveform / clock_waveform: the values the checker saw, for
            the two-line detail of the Figure 3-11 messages.
        note: extra human-readable context.
    """

    kind: ViolationKind
    component: str
    signal: str
    clock: str | None = None
    required_ps: int | None = None
    actual_ps: int | None = None
    missed_by_ps: int | None = None
    window: tuple[int, int] | None = None
    case_index: int = 0
    signal_waveform: Waveform | None = None
    clock_waveform: Waveform | None = None
    note: str = ""

    def message(self) -> str:
        """Render in the style of the Figure 3-11 listing."""
        lines = [self.headline()]
        if self.signal_waveform is not None:
            lines.append(f"  DATA INPUT  = {self.signal}: {self.signal_waveform.describe()}")
        if self.clock_waveform is not None and self.clock is not None:
            lines.append(f"  CLOCK INPUT = {self.clock}: {self.clock_waveform.describe()}")
        if self.note:
            lines.append(f"  {self.note}")
        return "\n".join(lines)

    def headline(self) -> str:
        k = self.kind
        parts = [f"{self.component}:"]
        if k in (ViolationKind.SETUP, ViolationKind.HOLD):
            parts.append(f"{k.value.upper()} time violated on {self.signal!r}")
            if self.required_ps is not None:
                parts.append(f"(required {format_ns(self.required_ps)} ns")
                if self.missed_by_ps is not None:
                    parts.append(f"missed by {format_ns(self.missed_by_ps)} ns)")
                else:
                    parts.append(")")
        elif k is ViolationKind.STABLE_WHILE_TRUE:
            parts.append(
                f"{self.signal!r} must be stable while {self.clock!r} is asserted"
            )
        elif k in (
            ViolationKind.MIN_PULSE_WIDTH_HIGH,
            ViolationKind.MIN_PULSE_WIDTH_LOW,
        ):
            level = "high" if k is ViolationKind.MIN_PULSE_WIDTH_HIGH else "low"
            parts.append(
                f"minimum {level} pulse width violated on {self.signal!r}: "
                f"{format_ns(self.actual_ps or 0)} ns < "
                f"{format_ns(self.required_ps or 0)} ns required"
            )
        elif k is ViolationKind.POSSIBLE_GLITCH:
            parts.append(f"possible glitch (hazard) on {self.signal!r}")
        elif k is ViolationKind.GATING_STABILITY:
            parts.append(
                f"control {self.signal!r} may change while clock "
                f"{self.clock!r} is asserted (possible false clocking)"
            )
        elif k is ViolationKind.ASSERTION_MISMATCH:
            parts.append(
                f"signal {self.signal!r} violates its stable assertion"
            )
        elif k is ViolationKind.NO_CLOCK_EDGE:
            parts.append(
                f"checker never saw a rising edge on clock {self.clock!r}"
            )
        elif k in (ViolationKind.RECOVERY, ViolationKind.REMOVAL):
            side = "before" if k is ViolationKind.RECOVERY else "after"
            parts.append(
                f"{k.value.upper()} time violated on {self.signal!r}: "
                f"control must be stable "
                f"{format_ns(self.required_ps or 0)} ns {side} the "
                f"{self.clock!r} edge"
            )
            if self.missed_by_ps is not None:
                parts.append(f"(missed by {format_ns(self.missed_by_ps)} ns)")
        elif k is ViolationKind.BORROW:
            parts.append(
                f"latch time borrowing on {self.signal!r} exceeds "
                f"{format_ns(self.required_ps or 0)} ns"
            )
            if self.actual_ps is not None:
                parts.append(f"(borrowed {format_ns(self.actual_ps)} ns)")
        if self.window is not None:
            lo, hi = self.window
            parts.append(f"[window {format_ns(lo)}..{format_ns(hi)} ns]")
        if self.case_index:
            parts.append(f"(case {self.case_index})")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.headline()


#: ``(component, kind, signal, case_index)``: where a check files its
#: margin — the same fields, lane labels included, that name its violations.
MarginKey = tuple[str, ViolationKind, str, int]


@dataclass
class CheckReport:
    """All violations and informational notes from one verification run.

    ``margins`` holds the signed margin in picoseconds of every setup,
    hold and minimum-pulse-width check (see :mod:`repro.core.checks`),
    in report order: negative exactly when the check is violated, and
    then by the full amount (``missed_by_ps`` caps what it prints).
    """

    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    margins: dict[MarginKey, int] = field(default_factory=dict)

    def add(self, violation: Violation) -> None:
        self.violations.append(violation)

    def extend(self, violations: list[Violation]) -> None:
        self.violations.extend(violations)

    def merge(self, other: "CheckReport") -> None:
        """Append another report (the next case's) to this one."""
        self.violations.extend(other.violations)
        self.notes.extend(other.notes)
        self.margins.update(other.margins)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def by_kind(self, kind: ViolationKind) -> list[Violation]:
        return [v for v in self.violations if v.kind is kind]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __len__(self) -> int:
        return len(self.violations)

    def __iter__(self):
        return iter(self.violations)
