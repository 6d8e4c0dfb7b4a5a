"""Resolve parsed SDC commands against an expanded circuit.

The output is a :class:`ConstraintSet`: plain, picklable data keyed by
component and net *names* (never object identity), precomputed so the
event-driven engine and the static analysis consume the very same numbers.
That single-source-of-truth discipline is what keeps the two sides of the
``scald-tv --crosscheck --sdc`` contract honest — a constraint can tighten
or waive a check, but it always does so identically in both analyses.

Per-check semantics (also tabulated in DESIGN.md):

* ``set_multicycle_path N -setup`` relaxes the effective setup of every
  matched checker by ``(N-1)`` periods.  On the verifier's folded circular
  axis all cycles are one period, so any ``N >= 2`` waives the setup side
  entirely (the data net is sampled only every N cycles by logic the
  verifier cannot see); the hold side still runs.  ``-hold M`` relaxes the
  hold side by ``M`` periods the same way.
* ``set_clock_uncertainty U`` widens both guard sides of matched checkers
  by ``U`` — added pessimism, always sound.
* ``set_clock_latency L`` shifts the matched checkers' view of their clock
  edges by ``L``.  It is applied check-locally in both analyses and never
  perturbs the circuit fixed point (a documented limitation).
* ``set_false_path`` waives matched checks in both analyses.  Stored
  arrival windows are never narrowed — pruning happens at the checker
  boundary, preserving the enclosure invariant.
* ``set_input_delay -clock C D`` declares that an otherwise-unasserted
  input port changes within ``[edge+min, edge+max]`` of C's rising edge;
  both analyses synthesize the same change windows from it.
* ``set_output_delay -clock C D`` adds a virtual boundary check: the net
  must be stable ``D`` before (``-max``, setup-like) and ``-min D`` after
  (hold-like) C's rising edge.
* ``set_recovery R -to X`` / ``set_removal M -to X`` guard the SET/RESET
  overlays of matched ``REG_RS``/``LATCH_RS`` elements: no control change
  inside ``[edge-R, edge]`` / ``[edge, edge+M]``.
* ``set_max_time_borrow B`` turns the latch time-borrowing report (always
  computed in ``scald-sta``) into a pass/fail check: data must settle
  within ``B`` of the latch opening.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase

from ..core.timeline import ns_to_ps
from .sdc import Finding, SdcCommand

_CHECKER_PRIMS = frozenset({"SETUP_HOLD_CHK", "SETUP_RISE_HOLD_FALL_CHK"})
_RS_PRIMS = frozenset({"REG_RS", "LATCH_RS"})
_LATCH_PRIMS = frozenset({"LATCH", "LATCH_RS"})


@dataclass(frozen=True)
class CheckerMods:
    """Constraint adjustments applied to one checker component.

    Consumed by both ``core/checks.py`` and ``sta/slack.py`` through
    :meth:`effective`, so the effective-guard arithmetic exists in exactly
    one place.
    """

    setup_cycles: int = 1          #: multicycle setup factor (N >= 1)
    hold_cycles: int = 0           #: multicycle hold factor (M >= 0)
    uncertainty_ps: int = 0        #: widens both guard sides
    clock_shift_ps: int = 0        #: clock latency seen by this checker
    waived: bool = False           #: false path: skip the check entirely

    def effective(
        self, setup_ps: int, hold_ps: int, period: int
    ) -> tuple[int, int]:
        """The (setup, hold) guard extents after constraints.

        A non-positive effective setup means the setup side is waived
        (fully relaxed by multicycle); an effective hold that pulls the
        guard end at or before the edge-window start waives the hold side.

        ``period`` may be an affine form ``a + b*T`` rather than an int:
        the parametric Fmax pass (``repro.sta.parametric``) evaluates this
        same arithmetic symbolically in the clock period, so multicycle
        relaxation correctly scales with ``T`` when solving
        min-slack(T) = 0.  Keep the body to ``+``/``-``/``*`` on
        ``period`` — int-only operations would break that duck typing.
        """
        s = setup_ps - (self.setup_cycles - 1) * period + self.uncertainty_ps
        h = hold_ps - self.hold_cycles * period + self.uncertainty_ps
        return s, h

    @property
    def is_default(self) -> bool:
        return self == CheckerMods()


@dataclass(frozen=True)
class InputDelay:
    """``set_input_delay`` resolved to one input-port net."""

    net: str                       #: representative net name
    clock: str                     #: clock net name (carries the assertion)
    min_ps: int = 0
    max_ps: int = 0


@dataclass(frozen=True)
class OutputDelay:
    """``set_output_delay`` resolved to one output net."""

    net: str
    clock: str
    setup_ps: int = 0              #: ``-max``: stable this long before the edge
    hold_ps: int = 0               #: ``-min``: stable this long after the edge


@dataclass(frozen=True)
class RsCheck:
    """Recovery/removal margins for one REG_RS / LATCH_RS component."""

    component: str
    recovery_ps: int | None = None
    removal_ps: int | None = None


@dataclass
class ConstraintSet:
    """Every constraint of one ``.sdc`` file, resolved against a circuit.

    Plain data keyed by names — picklable, so ``repro.parallel`` can ship
    it to worker processes unchanged.
    """

    path: str = ""
    period_ps: int = 0
    clock_nets: dict[str, str] = field(default_factory=dict)  #: name -> net
    generated_clocks: list[tuple[str, str, int]] = field(default_factory=list)
    checker_mods: dict[str, CheckerMods] = field(default_factory=dict)
    input_delays: dict[str, InputDelay] = field(default_factory=dict)
    output_delays: list[OutputDelay] = field(default_factory=list)
    rs_checks: dict[str, RsCheck] = field(default_factory=dict)
    max_borrow: dict[str, int] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def mods_for(self, component_name: str) -> CheckerMods | None:
        """The non-default mods of a checker, or None when unconstrained.

        Falls back to the lane-stripped base name so a constraint set
        resolved against the original vector circuit applies unchanged to
        its bit-blasted twin (per-bit components are named ``"name [i]"``).
        """
        return _lane_lookup(self.checker_mods, component_name)

    def rs_for(self, component_name: str) -> "RsCheck | None":
        """Recovery/removal spec for a component, lane-suffix tolerant."""
        return _lane_lookup(self.rs_checks, component_name)

    def borrow_for(self, component_name: str) -> int | None:
        """Max-time-borrow cap for a latch, lane-suffix tolerant."""
        return _lane_lookup(self.max_borrow, component_name)

    def input_delay_for(self, net_name: str) -> "InputDelay | None":
        """Input-delay spec for a net, lane-suffix tolerant."""
        return _lane_lookup(self.input_delays, net_name)


_LANE_SUFFIX_RE = re.compile(r"\A(?P<base>.+) \[\d+\]\Z")


def strip_lane_suffix(name: str) -> str:
    """``"name [i]"`` -> ``"name"``; other names pass through unchanged."""
    m = _LANE_SUFFIX_RE.match(name)
    return m.group("base") if m is not None else name


def _lane_lookup(table: dict, name: str):
    """Exact-name lookup with a bit-blast lane-suffix fallback."""
    hit = table.get(name)
    if hit is not None:
        return hit
    base = strip_lane_suffix(name)
    if base != name:
        return table.get(base)
    return None


def input_delay_spans(
    spec: InputDelay, circuit, config, timebase
) -> list[tuple[int, int]]:
    """The change windows an input-delay constraint declares, in ps: from
    ``min`` after the start to ``max`` after the end of each window that
    may hold a rise of the clock (``repro.sta.windows.rising_runs``).

    Shared by the engine (which paints CHANGE over these spans), the
    static pass and the parametric pass (which use them as the net's
    rise/fall windows), so all three see the same intervals at the run's
    ``timebase``.
    """
    net = circuit.nets.get(spec.clock)
    if net is None:
        return []
    assertion = circuit.find(net).assertion
    if assertion is None or not assertion.kind.is_clock:
        return []
    # Imported here: a run without input delays never loads repro.sta.
    from ..sta.windows import rising_runs

    return [
        (r0 + spec.min_ps, r1 + spec.max_ps)
        for r0, r1 in rising_runs(assertion, timebase, config)
    ]


# ---------------------------------------------------------------------------
# the resolver
# ---------------------------------------------------------------------------


class _Resolver:
    def __init__(self, circuit, filename: str) -> None:
        self.circuit = circuit
        self.out = ConstraintSet(path=filename, period_ps=circuit.period_ps)
        # Name index: every net is reachable by its full name, its
        # representative's name, and its assertion-free base name.
        self.net_names: dict[str, str] = {}
        for name, net in circuit.nets.items():
            rep = circuit.find(net)
            for alias in (name, net.base_name, rep.name, rep.base_name):
                self.net_names.setdefault(alias.upper(), rep.name)
        self.driven: set[str] = set()
        self.checkers: list = []
        self.rs_comps: list = []
        self.latches: list = []
        for comp in circuit.iter_components():
            prim = comp.prim.name
            if prim in _CHECKER_PRIMS:
                self.checkers.append(comp)
            if prim in _RS_PRIMS:
                self.rs_comps.append(comp)
            if prim in _LATCH_PRIMS:
                self.latches.append(comp)
            for _pin, conn in comp.output_pins():
                self.driven.add(circuit.find(conn.net).name)

    # -- helpers --------------------------------------------------------

    def finding(
        self,
        rule: str,
        severity: str,
        message: str,
        cmd: SdcCommand,
        *,
        net: str | None = None,
        component: str | None = None,
    ) -> None:
        self.out.findings.append(
            Finding(
                rule=rule,
                severity=severity,
                message=message,
                file=cmd.file,
                line=cmd.line,
                net=net,
                component=component,
            )
        )

    def match_nets(self, pattern: str) -> list[str]:
        """Representative net names matching a (glob) pattern."""
        pat = pattern.upper()
        out: list[str] = []
        seen: set[str] = set()
        if pat in self.net_names:
            return [self.net_names[pat]]
        for alias, rep_name in self.net_names.items():
            if fnmatchcase(alias, pat) and rep_name not in seen:
                seen.add(rep_name)
                out.append(rep_name)
        return sorted(out)

    def resolve_clock_net(self, name: str, cmd: SdcCommand) -> str | None:
        """A clock reference: a declared clock name or a clock net."""
        declared = self.out.clock_nets.get(name) or self.out.clock_nets.get(
            name.upper()
        )
        if declared is not None:
            return declared
        matches = self.match_nets(name)
        if not matches:
            self.finding(
                "sdc.unresolved-pin",
                "error",
                f"clock {name!r} matches no declared clock or net",
                cmd,
                net=name,
            )
            return None
        return matches[0]

    def match_checkers(self, cmd: SdcCommand) -> list:
        """Checkers selected by a path command's -from/-to/-through flags.

        ``-to``/``-through`` match the checker's component name or its
        guarded data net; ``-from`` matches the data net or the capture
        clock net.  A command with no path flags selects every checker.
        Patterns that select nothing are ``sdc.unresolved-pin`` errors.
        """
        froms = cmd.flag_names("-from")
        tos = cmd.flag_names("-to")
        throughs = cmd.flag_names("-through")
        if not (froms or tos or throughs):
            return list(self.checkers)

        def names_of(comp) -> dict[str, set[str]]:
            i_conn, ck_conn = comp.pins["I"], comp.pins["CK"]
            data = {
                i_conn.net.name.upper(),
                i_conn.net.base_name.upper(),
                self.circuit.find(i_conn.net).name.upper(),
            }
            clock = {
                ck_conn.net.name.upper(),
                ck_conn.net.base_name.upper(),
                self.circuit.find(ck_conn.net).name.upper(),
            }
            return {"comp": {comp.name.upper()}, "data": data, "clock": clock}

        selected = []
        matched_patterns: set[str] = set()
        for comp in self.checkers:
            names = names_of(comp)

            def hits(patterns: tuple[str, ...], keys: tuple[str, ...]) -> bool:
                if not patterns:
                    return True
                ok = False
                for pat in patterns:
                    p = pat.upper()
                    if any(
                        fnmatchcase(n, p) for k in keys for n in names[k]
                    ):
                        matched_patterns.add(pat)
                        ok = True
                return ok

            if (
                hits(tos, ("comp", "data"))
                and hits(throughs, ("data",))
                and hits(froms, ("data", "clock"))
            ):
                selected.append(comp)
        for pat in (*froms, *tos, *throughs):
            if pat not in matched_patterns:
                self.finding(
                    "sdc.unresolved-pin",
                    "error",
                    f"path pattern {pat!r} matches no checker, net or clock",
                    cmd,
                    net=pat,
                )
        return selected

    def update_mods(self, comp_name: str, **changes) -> None:
        mods = self.out.checker_mods.get(comp_name, CheckerMods())
        self.out.checker_mods[comp_name] = replace(mods, **changes)

    def value_ps(self, cmd: SdcCommand, *, flag: str | None = None) -> int | None:
        """The command's numeric operand (first positional, in ns)."""
        source = None
        if flag is not None:
            source = cmd.flags.get(flag)
        elif cmd.args:
            source = cmd.args[0]
        if source is None:
            self.finding(
                "sdc.syntax-error",
                "error",
                f"{cmd.name} is missing its value",
                cmd,
            )
            return None
        try:
            names = (source,) if isinstance(source, str) else tuple(source)
            # The conversion .scald times get: exact, and NaN/inf rejected.
            return ns_to_ps(float(names[0]))
        except (TypeError, ValueError, IndexError):
            self.finding(
                "sdc.syntax-error",
                "error",
                f"{cmd.name}: expected a number, got {source!r}",
                cmd,
            )
            return None

    # -- per-command handlers -------------------------------------------

    def handle(self, cmd: SdcCommand) -> None:
        getattr(self, "_cmd_" + cmd.name)(cmd)

    def _cmd_create_clock(self, cmd: SdcCommand) -> None:
        period = self.value_ps(cmd, flag="-period")
        if period is None:
            return
        targets = [n for arg in cmd.args for n in ((arg,) if isinstance(arg, str) else arg)]
        if not targets:
            self.finding(
                "sdc.unresolved-pin", "error",
                "create_clock names no target port", cmd,
            )
            return
        name = cmd.flags.get("-name")
        for target in targets:
            matches = self.match_nets(str(target))
            if not matches:
                self.finding(
                    "sdc.unresolved-pin",
                    "error",
                    f"create_clock target {target!r} matches no net",
                    cmd,
                    net=str(target),
                )
                continue
            for rep_name in matches:
                net = self.circuit.nets.get(rep_name)
                assertion = net.assertion if net is not None else None
                if assertion is None or not assertion.kind.is_clock:
                    self.finding(
                        "sdc.not-a-clock",
                        "warning",
                        f"create_clock target {rep_name!r} carries no clock "
                        "assertion; the engine's clocks come from signal-name "
                        "assertions",
                        cmd,
                        net=rep_name,
                    )
                if period != self.out.period_ps:
                    self.finding(
                        "sdc.period-mismatch",
                        "warning",
                        f"create_clock period {period} ps differs from the "
                        f"design period {self.out.period_ps} ps (the verifier "
                        "folds all clocks onto one period)",
                        cmd,
                        net=rep_name,
                    )
                key = str(name) if isinstance(name, str) else rep_name
                self.out.clock_nets[key] = rep_name
                self.out.clock_nets[key.upper()] = rep_name
                self.out.clock_nets[rep_name] = rep_name

    def _cmd_create_generated_clock(self, cmd: SdcCommand) -> None:
        sources = cmd.flag_names("-source")
        source_rep = None
        if sources:
            matches = self.match_nets(sources[0])
            if matches:
                source_rep = matches[0]
            else:
                self.finding(
                    "sdc.unresolved-pin",
                    "error",
                    f"generated-clock source {sources[0]!r} matches no net",
                    cmd,
                    net=sources[0],
                )
        factor = 1
        for flag, sign in (("-divide_by", 1), ("-multiply_by", -1)):
            raw = cmd.flags.get(flag)
            if raw is not None:
                try:
                    factor = sign * int(str(raw if isinstance(raw, str) else raw[0]))
                except (TypeError, ValueError):
                    self.finding(
                        "sdc.syntax-error", "error",
                        f"bad {flag} value {raw!r}", cmd,
                    )
        for target in cmd.target_names():
            matches = self.match_nets(target)
            if not matches:
                self.finding(
                    "sdc.unresolved-pin",
                    "error",
                    f"generated-clock target {target!r} matches no net",
                    cmd,
                    net=target,
                )
                continue
            for rep_name in matches:
                name = cmd.flags.get("-name")
                key = str(name) if isinstance(name, str) else rep_name
                self.out.generated_clocks.append(
                    (key, source_rep or "", factor)
                )
                # A generated clock counts as a constrained root.
                self.out.clock_nets.setdefault(rep_name, rep_name)

    def _io_delay(self, cmd: SdcCommand, output: bool) -> None:
        clock_names = cmd.flag_names("-clock")
        if not clock_names:
            self.finding(
                "sdc.syntax-error", "error",
                f"{cmd.name} requires -clock", cmd,
            )
            return
        clock_rep = self.resolve_clock_net(clock_names[0], cmd)
        if clock_rep is None:
            return
        clock_net = self.circuit.nets.get(clock_rep)
        if clock_net is None or clock_net.assertion is None or (
            not clock_net.assertion.kind.is_clock
        ):
            self.finding(
                "sdc.not-a-clock",
                "warning",
                f"{cmd.name} clock {clock_rep!r} carries no clock assertion; "
                "the constraint has no edges to anchor to and is ignored",
                cmd,
                net=clock_rep,
            )
            return
        value = self.value_ps(cmd)
        if value is None:
            return
        is_min = bool(cmd.flags.get("-min"))
        is_max = bool(cmd.flags.get("-max")) or not is_min
        targets = cmd.target_names()[1:]  # first positional is the value
        if not targets:
            self.finding(
                "sdc.unresolved-pin", "error",
                f"{cmd.name} names no target port", cmd,
            )
            return
        for target in targets:
            matches = self.match_nets(target)
            if not matches:
                self.finding(
                    "sdc.unresolved-pin",
                    "error",
                    f"{cmd.name} target {target!r} matches no net",
                    cmd,
                    net=target,
                )
                continue
            for rep_name in matches:
                if output:
                    self._merge_output_delay(
                        rep_name, clock_rep, value, is_min, is_max
                    )
                else:
                    self._merge_input_delay(
                        cmd, rep_name, clock_rep, value, is_min, is_max
                    )

    def _merge_input_delay(
        self, cmd, rep_name, clock_rep, value, is_min, is_max
    ) -> None:
        net = self.circuit.nets.get(rep_name)
        if rep_name in self.driven or (
            net is not None and net.assertion is not None
        ):
            self.finding(
                "sdc.conflicting-path",
                "warning",
                f"set_input_delay on {rep_name!r} is ignored: the net is "
                "driven or already carries a timing assertion",
                cmd,
                net=rep_name,
            )
            return
        spec = self.out.input_delays.get(
            rep_name, InputDelay(net=rep_name, clock=clock_rep)
        )
        if is_min:
            spec = replace(spec, min_ps=value)
        if is_max:
            spec = replace(
                spec, max_ps=value, min_ps=min(spec.min_ps, value)
            )
        self.out.input_delays[rep_name] = replace(spec, clock=clock_rep)

    def _merge_output_delay(
        self, rep_name, clock_rep, value, is_min, is_max
    ) -> None:
        for i, spec in enumerate(self.out.output_delays):
            if spec.net == rep_name and spec.clock == clock_rep:
                if is_min:
                    spec = replace(spec, hold_ps=value)
                if is_max:
                    spec = replace(spec, setup_ps=value)
                self.out.output_delays[i] = spec
                return
        self.out.output_delays.append(
            OutputDelay(
                net=rep_name,
                clock=clock_rep,
                setup_ps=value if is_max else 0,
                hold_ps=value if is_min else 0,
            )
        )

    def _cmd_set_input_delay(self, cmd: SdcCommand) -> None:
        self._io_delay(cmd, output=False)

    def _cmd_set_output_delay(self, cmd: SdcCommand) -> None:
        self._io_delay(cmd, output=True)

    def _cmd_set_multicycle_path(self, cmd: SdcCommand) -> None:
        if not cmd.args:
            self.finding(
                "sdc.syntax-error", "error",
                "set_multicycle_path is missing its cycle count", cmd,
            )
            return
        try:
            cycles = int(str(cmd.args[0]))
        except (TypeError, ValueError):
            self.finding(
                "sdc.syntax-error", "error",
                f"bad multicycle count {cmd.args[0]!r}", cmd,
            )
            return
        if cycles < 1:
            self.finding(
                "sdc.syntax-error", "error",
                f"multicycle count must be >= 1, got {cycles}", cmd,
            )
            return
        is_hold = bool(cmd.flags.get("-hold"))
        for comp in self.match_checkers(cmd):
            mods = self.out.checker_mods.get(comp.name, CheckerMods())
            if mods.waived:
                self.finding(
                    "sdc.conflicting-path",
                    "warning",
                    f"multicycle on {comp.name!r} conflicts with an earlier "
                    "false path; the false path wins",
                    cmd,
                    component=comp.name,
                )
                continue
            if is_hold:
                self.update_mods(comp.name, hold_cycles=cycles)
            else:
                self.update_mods(comp.name, setup_cycles=cycles)

    def _cmd_set_false_path(self, cmd: SdcCommand) -> None:
        for comp in self.match_checkers(cmd):
            mods = self.out.checker_mods.get(comp.name, CheckerMods())
            if mods.setup_cycles != 1 or mods.hold_cycles != 0:
                self.finding(
                    "sdc.conflicting-path",
                    "warning",
                    f"false path on {comp.name!r} conflicts with an earlier "
                    "multicycle path; the false path wins",
                    cmd,
                    component=comp.name,
                )
            self.update_mods(comp.name, waived=True)

    def _clock_scope(self, cmd: SdcCommand) -> list:
        """Checkers whose capture clock matches the command's targets.

        With no targets the command applies to every checker.
        """
        targets = [
            *cmd.target_names()[1:],
            *cmd.flag_names("-from"),
            *cmd.flag_names("-to"),
        ]
        if not targets:
            return list(self.checkers)
        reps: set[str] = set()
        for name in targets:
            rep = self.resolve_clock_net(name, cmd)
            if rep is not None:
                reps.add(rep)
        out = []
        for comp in self.checkers:
            ck_rep = self.circuit.find(comp.pins["CK"].net).name
            if ck_rep in reps:
                out.append(comp)
        return out

    def _cmd_set_clock_uncertainty(self, cmd: SdcCommand) -> None:
        value = self.value_ps(cmd)
        if value is None:
            return
        if value >= self.out.period_ps:
            self.finding(
                "sdc.uncertainty-exceeds-period",
                "error",
                f"clock uncertainty {value} ps is not smaller than the "
                f"period {self.out.period_ps} ps; every check would fail",
                cmd,
            )
        for comp in self._clock_scope(cmd):
            mods = self.out.checker_mods.get(comp.name, CheckerMods())
            self.update_mods(
                comp.name, uncertainty_ps=mods.uncertainty_ps + value
            )

    def _cmd_set_clock_latency(self, cmd: SdcCommand) -> None:
        value = self.value_ps(cmd)
        if value is None:
            return
        for comp in self._clock_scope(cmd):
            self.update_mods(comp.name, clock_shift_ps=value)

    def _rs_targets(self, cmd: SdcCommand) -> list:
        """REG_RS/LATCH_RS components matched by -to (or all of them)."""
        tos = cmd.flag_names("-to") or cmd.target_names()[1:]
        if not tos:
            return list(self.rs_comps)
        out = []
        matched: set[str] = set()
        for comp in self.rs_comps:
            names = {comp.name.upper()}
            for pin in ("SET", "RESET"):
                conn = comp.pins.get(pin)
                if conn is not None:
                    names.add(conn.net.name.upper())
                    names.add(conn.net.base_name.upper())
                    names.add(self.circuit.find(conn.net).name.upper())
            for pat in tos:
                if any(fnmatchcase(n, pat.upper()) for n in names):
                    matched.add(pat)
                    out.append(comp)
                    break
        for pat in tos:
            if pat not in matched:
                self.finding(
                    "sdc.unresolved-pin",
                    "error",
                    f"{cmd.name} target {pat!r} matches no set/reset element",
                    cmd,
                    net=pat,
                )
        return out

    def _rs_margin(self, cmd: SdcCommand, kind: str) -> None:
        value = self.value_ps(cmd)
        if value is None:
            return
        for comp in self._rs_targets(cmd):
            spec = self.out.rs_checks.get(comp.name, RsCheck(component=comp.name))
            self.out.rs_checks[comp.name] = replace(spec, **{kind: value})

    def _cmd_set_recovery(self, cmd: SdcCommand) -> None:
        self._rs_margin(cmd, "recovery_ps")

    def _cmd_set_removal(self, cmd: SdcCommand) -> None:
        self._rs_margin(cmd, "removal_ps")

    def _cmd_set_max_time_borrow(self, cmd: SdcCommand) -> None:
        value = self.value_ps(cmd)
        if value is None:
            return
        targets = cmd.target_names()[1:]
        if not targets:
            for comp in self.latches:
                self.out.max_borrow[comp.name] = value
            return
        for pat in targets:
            hit = False
            for comp in self.latches:
                names = {
                    comp.name.upper(),
                    comp.pins["OUT"].net.name.upper(),
                    comp.pins["DATA"].net.name.upper(),
                }
                if any(fnmatchcase(n, pat.upper()) for n in names):
                    self.out.max_borrow[comp.name] = value
                    hit = True
            if not hit:
                self.finding(
                    "sdc.unresolved-pin",
                    "error",
                    f"set_max_time_borrow target {pat!r} matches no latch",
                    cmd,
                    net=pat,
                )


def resolve(
    commands: list[SdcCommand],
    circuit,
    filename: str = "",
    parse_findings: list[Finding] | None = None,
) -> ConstraintSet:
    """Resolve parsed commands against ``circuit`` into a ConstraintSet."""
    r = _Resolver(circuit, filename)
    if parse_findings:
        r.out.findings.extend(parse_findings)
    for cmd in commands:
        r.handle(cmd)
    # Default-valued mods carry no information; drop them so both
    # consumers can treat "present in the dict" as "constrained".
    r.out.checker_mods = {
        name: mods
        for name, mods in r.out.checker_mods.items()
        if not mods.is_default
    }
    return r.out
