"""Parametric static timing: window bounds affine in the clock period.

The window dataflow (``sta/windows.py``) and slack pass (``sta/slack.py``)
compute with integer-picosecond bounds through ``+ - % < <= min max sort``.
Nothing in that arithmetic cares that a bound is an *integer* — only that
the operations are exact and totally ordered.  This module re-runs the very
same passes with every bound an affine form ``a + b*T`` (:class:`Aff`,
exact :class:`~fractions.Fraction` coefficients, never floats) where ``T``
is the clock period in picoseconds.  One pass then yields every checker's
slack as an affine function of ``T``, valid over a *region* of periods
around the sample point — intersecting ``min-slack(T) = 0`` gives the
static Fmax in closed form (:func:`solve_static_fmax`).

Guided evaluation
-----------------
Branch decisions inside the passes (span ordering, guard emptiness,
``% period`` folding) are resolved at a concrete sample period ``T0``, and
every decision records the affine sign constraint it relied on, narrowing
the validity region (:class:`_Region`).  Inside the region the propagated
forms are exact; outside it another pass is taken at a new sample — the
Newton-style region walk of :func:`solve_static_fmax`.

Soundness
---------
Static slack is a lower bound on the engine margin (the crosscheck
contract), and the pessimism — the 1 ps change-marker pads, skew
materialization — is constant in ``T``: it perturbs only the ``a``
coefficients, never the ``b*T`` slopes, so the static root ``T_s`` can
only sit *above* the true engine boundary.  Reported Fmax is therefore
conservative by construction.  :func:`solve_fmax` runs one engine search
from ``T_s`` — from the design period when there is none — doubling the
period while it violates (checks with no static twin may fail at
``T_s``), giving the exact engine boundary that :func:`bisect_fmax` — the
independent pure-bisection oracle behind ``scald-tv --fmax`` — must
reproduce to within the rounding wobble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from ..core.config import VerifyConfig
from ..core.engine import _SUPPLY, Engine
from ..core.timeline import Timebase, scaled_timebase
from ..core.violations import CheckReport
from ..netlist.circuit import Circuit, Component, Connection, Net
from .slack import TWINS, SlackRecord, compute_slack
from .windows import IntervalSet, WindowAnalysis, compute_windows, _used_input_conns

__all__ = [
    "Aff",
    "FmaxResult",
    "ParametricRun",
    "StaticFmax",
    "WitnessHop",
    "bisect_fmax",
    "run_parametric",
    "solve_fmax",
    "solve_static_fmax",
    "trace_witness",
]


# ---------------------------------------------------------------------------
# the affine form and its guided evaluation context
# ---------------------------------------------------------------------------


class _Region:
    """The period region where every guided decision so far stays valid.

    ``t0`` is the concrete sample period; ``lo``/``hi`` are exact rational
    bounds narrowed by each recorded sign constraint (``hi`` None = +inf).
    Strictness at the boundary is deliberately ignored — the solvers
    confirm candidate roots with concrete integer passes, so a region edge
    being off by the open/closed distinction costs at most one extra pass.
    """

    __slots__ = ("t0", "lo", "hi")

    def __init__(self, t0: int) -> None:
        self.t0 = t0
        self.lo = Fraction(1)
        self.hi: Fraction | None = None

    def require_nonneg(self, d: "Aff") -> None:
        """Record that ``d(T) >= 0`` must keep holding (it holds at t0)."""
        if not d.b:
            return
        # Coefficients may be plain ints; force exact rational division.
        root = Fraction(-d.a) / d.b
        if d.b > 0:  # d >= 0 for T >= root
            if root > self.lo:
                self.lo = root
        else:  # d >= 0 for T <= root
            if self.hi is None or root < self.hi:
                self.hi = root

    @property
    def lo_int(self) -> int:
        return max(1, math.ceil(self.lo))

    @property
    def hi_int(self) -> int | None:
        return None if self.hi is None else math.floor(self.hi)


#: The active guided-evaluation context; set only inside run_parametric.
_CTX: _Region | None = None


def _ctx() -> _Region:
    if _CTX is None:
        raise RuntimeError(
            "Aff used outside a parametric context (run_parametric)"
        )
    return _CTX


def _decide_pos(d: "Aff") -> bool:
    """Guided ``d(T) > 0``: answer at t0, constrain the region to match."""
    if not d.b:
        return d.a > 0
    ctx = _ctx()
    if d.a + d.b * ctx.t0 > 0:
        ctx.require_nonneg(d)
        return True
    ctx.require_nonneg(-d)
    return False


class Aff:
    """An exact affine form ``a + b*T`` of the clock period ``T``.

    Equality and hashing are *structural* (coefficient equality) so interval
    sets and transfer memos never conflate forms with different slopes.
    Ordering, truthiness and ``%`` are *guided*: evaluated at the active
    region's sample period, recording the sign constraint that keeps the
    answer stable (see module docstring).  ``round``/``int``/``float``
    raise — a silent collapse to a number would hide period dependence.

    Coefficients are exact ints or :class:`~fractions.Fraction`s; the
    arithmetic keeps plain ints plain (most bounds in the dataflow are
    integer delays riding on a handful of sloped clock terms, and Fraction
    normalization is ~30x the cost of an int add), with every division
    site forcing a Fraction so int/int can never decay to float.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=0) -> None:
        self.a = a if isinstance(a, (int, Fraction)) else Fraction(a)
        self.b = b if isinstance(b, (int, Fraction)) else Fraction(b)

    def at(self, period) -> Fraction:
        """Exact value at a concrete period."""
        return self.a + self.b * period

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if type(other) is int:
            return Aff(self.a + other, self.b)
        o = _as_aff(other)
        if o is None:
            return NotImplemented
        sb, ob = self.b, o.b
        return Aff(self.a + o.a, sb + ob if sb and ob else (sb or ob))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            return Aff(self.a - other, self.b)
        o = _as_aff(other)
        if o is None:
            return NotImplemented
        sb, ob = self.b, o.b
        return Aff(self.a - o.a, sb - ob if ob else sb)

    def __rsub__(self, other):
        if type(other) is int:
            return Aff(other - self.a, -self.b)
        o = _as_aff(other)
        if o is None:
            return NotImplemented
        sb, ob = self.b, o.b
        return Aff(o.a - self.a, ob - sb if sb else ob)

    def __neg__(self):
        return Aff(-self.a, -self.b)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, Aff):
            if other.b:
                return NotImplemented  # quadratic: never needed, never safe
            other = other.a
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Aff(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __mod__(self, other):
        o = _as_aff(other)
        if o is None:
            return NotImplemented
        if not self.b and not o.b:
            return Aff(self.a % o.a)
        ctx = _ctx()
        k = self.at(ctx.t0) // o.at(ctx.t0)
        r = self - k * o
        # Valid while the quotient stays k: 0 <= r < o.
        ctx.require_nonneg(r)
        ctx.require_nonneg(o - r)
        return r

    def __rmod__(self, other):
        o = _as_aff(other)
        if o is None:
            return NotImplemented
        return o % self

    # -- ordering (guided) ----------------------------------------------

    # Equal-slope comparisons (the common case: two plain delays) reduce
    # to the constant terms for every T — no allocation, no region update.

    def __lt__(self, other):
        if type(other) is int:
            if not self.b:
                return self.a < other
            o = Aff(other)
        else:
            o = _as_aff(other)
            if o is None:
                return NotImplemented
            if self.b == o.b:
                return self.a < o.a
        return _decide_pos(o - self)

    def __gt__(self, other):
        if type(other) is int:
            if not self.b:
                return self.a > other
            o = Aff(other)
        else:
            o = _as_aff(other)
            if o is None:
                return NotImplemented
            if self.b == o.b:
                return self.a > o.a
        return _decide_pos(self - o)

    def __le__(self, other):
        if type(other) is int:
            if not self.b:
                return self.a <= other
            o = Aff(other)
        else:
            o = _as_aff(other)
            if o is None:
                return NotImplemented
            if self.b == o.b:
                return self.a <= o.a
        return not _decide_pos(self - o)

    def __ge__(self, other):
        if type(other) is int:
            if not self.b:
                return self.a >= other
            o = Aff(other)
        else:
            o = _as_aff(other)
            if o is None:
                return NotImplemented
            if self.b == o.b:
                return self.a >= o.a
        return not _decide_pos(o - self)

    # -- identity (structural) ------------------------------------------

    def __eq__(self, other):
        o = _as_aff(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        if not self.b:
            return bool(self.a)
        ctx = _ctx()
        v = self.at(ctx.t0)
        if v > 0:
            ctx.require_nonneg(self)
            return True
        if v < 0:
            ctx.require_nonneg(-self)
            return True
        # Zero exactly at t0 with nonzero slope: truthiness is only stable
        # at the sample itself; pin the region rather than guess.
        ctx.require_nonneg(self)
        ctx.require_nonneg(-self)
        return False

    def __round__(self, ndigits=None):
        raise TypeError("rounding an Aff would hide its period dependence")

    __int__ = __float__ = __index__ = __round__

    def __repr__(self) -> str:
        if not self.b:
            return f"Aff({self.a})"
        return f"Aff({self.a} + {self.b}*T)"


def _as_aff(x) -> Aff | None:
    if isinstance(x, Aff):
        return x
    if isinstance(x, (int, Fraction)):
        return Aff(x)
    return None


# ---------------------------------------------------------------------------
# the parametric timebase
# ---------------------------------------------------------------------------


class ParamTimebase:
    """Duck-typed :class:`Timebase` whose period is the symbol ``T``.

    Clock units are a fixed fraction of the period (``scaled_timebase``
    keeps the same ratio at every concrete period), so a clock-unit time
    becomes a pure slope ``(units * unit/period) * T`` — exact, unrounded.
    The concrete timebase rounds each derived time to an integer picosecond;
    that rounding is a step function of ``T``, so the parametric pass keeps
    the exact rational form and leaves integer truth to the concrete
    confirmation passes of the solvers.  The fixed-source windows
    (``windows.assertion_windows``, ``input_delay_spans``) read only
    ``period_ps`` and ``units_to_ps``, so the builder the concrete pass
    uses yields affine bounds over this timebase.
    """

    __slots__ = ("period_ps", "_unit_slope")

    def __init__(self, base: Timebase) -> None:
        self.period_ps = Aff(0, 1)
        self._unit_slope = Fraction(base.clock_unit_ps) / base.period_ps

    def units_to_ps(self, units) -> Aff:
        return Aff(0, Fraction(str(units)) * self._unit_slope)


# ---------------------------------------------------------------------------
# one parametric pass
# ---------------------------------------------------------------------------


@dataclass
class ParametricRun:
    """One guided pass: affine slack records valid over a period region."""

    t0: int                      #: sample period the decisions were taken at
    lo: int                      #: region floor (inclusive, integer ps)
    hi: int | None               #: region ceiling (inclusive; None = open)
    records: list[SlackRecord]   #: slack_ps fields are Aff (or int) forms
    analysis: WindowAnalysis


def run_parametric(
    circuit: Circuit,
    config: VerifyConfig | None = None,
    constraints=None,
    t0: int | None = None,
) -> ParametricRun:
    """Run the window + slack passes with bounds affine in the period.

    The concrete passes run unmodified over a :class:`ParamTimebase`, the
    circuit's timebase with the period as the symbol ``T``; the circuit
    itself is left alone.  At the sample period every window equals the
    concrete pass's there.  Not reentrant — module-level context — which
    matches every caller (the solvers run passes sequentially).
    """
    global _CTX
    config = config or VerifyConfig()
    base = circuit.timebase
    sample = int(t0) if t0 is not None else base.period_ps
    if sample < 1:
        raise ValueError(f"sample period must be positive, got {sample}")
    region = _Region(sample)
    prev = _CTX
    _CTX = region
    try:
        analysis = compute_windows(
            circuit, config, constraints, timebase=ParamTimebase(base)
        )
        records = compute_slack(circuit, analysis, constraints)
    finally:
        _CTX = prev
    hi = region.hi_int
    lo = region.lo_int
    if hi is not None and hi < lo:
        # Degenerate region (a decision sat exactly on its boundary at t0):
        # still valid at the sample itself.
        lo = hi = sample
    return ParametricRun(t0=sample, lo=lo, hi=hi, records=records, analysis=analysis)


def _slack_form(value) -> Aff | None:
    if value is None:
        return None
    return value if isinstance(value, Aff) else Aff(value)


def _record_key(rec: SlackRecord) -> tuple[str, str, str]:
    return (rec.component, rec.kind, rec.signal)


# ---------------------------------------------------------------------------
# concrete passes at a trial period
# ---------------------------------------------------------------------------


def _static_records(circuit, config, constraints, period_ps):
    timebase = scaled_timebase(circuit.timebase, period_ps)
    analysis = compute_windows(circuit, config, constraints, timebase=timebase)
    return compute_slack(circuit, analysis, constraints)


def _static_ok(records, baseline_overflow) -> bool:
    """Is a concrete static pass clean at this period?

    Records that overflow (windows widened to the full period) carry no
    slack number.  Overflow already present at the *design* period is
    structural (feedback cuts) and stays indeterminate at every period;
    overflow that only appears at the trial period is period-driven (a
    clock window wrapped) and conservatively blocks the period.
    """
    for r in records:
        if r.slack_ps is None:
            if r.overflow and _record_key(r) not in baseline_overflow:
                return False
            continue
        if r.slack_ps < 0:
            return False
    return True


def _engine_probe(circuit, config, constraints):
    """One engine for a whole search: ``probe(period_ps)`` re-initializes
    it at that period, runs every case and returns ``(clean, margins,
    violations)``: the verdict, every check's signed margin
    (:attr:`CheckReport.margins`) and each violation in report order,
    keyed like the margins.  Building and levelizing the engine do not
    depend on the period, so a search pays for them once."""
    engine = Engine(circuit, config, constraints=constraints)
    base = circuit.timebase
    cases = circuit.cases or [{}]

    def probe(period_ps: int):
        engine.initialize(cases[0], scaled_timebase(base, period_ps))
        report = CheckReport()
        for _index, _events, case_report in engine.run_cases(cases):
            report.merge(case_report)
        violations = [
            (v.component, v.kind, v.signal, v.case_index)
            for v in report.violations
        ]
        return report.ok, report.margins, violations

    return probe


# ---------------------------------------------------------------------------
# the analytic solver
# ---------------------------------------------------------------------------


@dataclass
class StaticFmax:
    """Closed-form static Fmax: the smallest statically-clean period."""

    period_limited: bool
    period_ps: int | None        #: smallest T with static-clean(T); None if
                                 #: every period fails (or none binds)
    binding: SlackRecord | None  #: concrete binding record at period_ps - 1
    slope: Fraction | None       #: d(slack)/dT of the binding check
    passes: int = 0              #: parametric passes taken
    static_evals: int = 0        #: concrete static confirmations taken
    baseline_overflow: frozenset = frozenset()
    #: Every concrete record at period_ps - 1 (binding is the worst).
    records: list[SlackRecord] = field(default_factory=list)
    #: The affine records of the pass that gave ``slope``.
    forms: list[SlackRecord] = field(default_factory=list)

    @property
    def fmax_mhz(self) -> float | None:
        if self.period_ps is None or not self.period_limited:
            return None
        return 1e6 / self.period_ps


def _region_candidate(run: ParametricRun, baseline_overflow):
    """The smallest clean period suggested by one region's affine forms.

    Returns ``(candidate, binding_form, feasible)``: the smallest T where
    every applicable record's form is >= 0 (records needing T >= root push
    the candidate up; a constant-negative or contradictory region is
    infeasible and the walk must leave it upward).
    """
    need = Fraction(1)
    cap: Fraction | None = None
    binding = None
    binding_root = None
    feasible = True
    for rec in run.records:
        if rec.slack_ps is None:
            if rec.overflow and _record_key(rec) not in baseline_overflow:
                feasible = False  # period-driven overflow blocks this region
            continue
        form = _slack_form(rec.slack_ps)
        if not form.b:
            if form.a < 0:
                feasible = False
            continue
        root = Fraction(-form.a) / form.b
        if form.b > 0:  # clean for T >= root
            if root > need:
                need = root
                binding, binding_root = rec, root
        else:  # clean for T <= root
            if cap is None or root < cap:
                cap = root
    if cap is not None and need > cap:
        feasible = False
    candidate = max(1, math.ceil(need))
    if candidate == need:  # root exactly integer: T = root has slack 0, ok
        candidate = int(need)
    return candidate, binding, feasible


#: Parametric passes the static region walk takes before it settles.
_MAX_PASSES = 24
#: Doublings of a violating period while looking for a clean ceiling, in
#: both engine searches, and of the static search's step up from a
#: violating guess.
_MAX_DOUBLINGS = 16


def solve_static_fmax(
    circuit: Circuit,
    config: VerifyConfig | None = None,
    constraints=None,
) -> StaticFmax:
    """Closed-form static Fmax via the guided region walk.

    Newton-style: a parametric pass at a sample period yields every check's
    affine slack over a validity region; the intersection of their roots
    proposes the next sample.  When the proposal falls inside the region it
    is the static root up to rounding (the concrete timebase rounds each
    derived time, the affine forms do not) — concrete passes galloping
    away from it to a bracket, then bisecting it, pin the exact boundary:
    static-clean(T_s) and not static-clean(T_s - 1), in a number of passes
    logarithmic in the distance from the guess.
    """
    config = config or VerifyConfig()
    design_period = circuit.timebase.period_ps
    evals = 0
    clean_memo: dict[int, bool] = {}
    records_memo: dict[int, list[SlackRecord]] = {}

    def records_at(t: int) -> list[SlackRecord]:
        nonlocal evals
        recs = records_memo.get(t)
        if recs is None:
            evals += 1
            recs = records_memo[t] = _static_records(
                circuit, config, constraints, t
            )
        return recs

    baseline = records_at(design_period)
    baseline_overflow = frozenset(
        _record_key(r) for r in baseline if r.slack_ps is None and r.overflow
    )

    def clean(t: int) -> bool:
        if t < 1:
            return False
        hit = clean_memo.get(t)
        if hit is None:
            hit = clean_memo[t] = _static_ok(records_at(t), baseline_overflow)
        return hit

    clean_memo[design_period] = _static_ok(baseline, baseline_overflow)

    # Phase 1: region walk to a candidate root.
    passes = 0
    t = design_period
    guess = design_period
    binding_slope: Fraction | None = None
    binding_forms: list[SlackRecord] = []
    visited: set[int] = set()
    while passes < _MAX_PASSES:
        run = run_parametric(circuit, config, constraints, t0=t)
        passes += 1
        candidate, binding, feasible = _region_candidate(run, baseline_overflow)
        if not feasible:
            # Nothing in this region verifies; the root is above it.
            if run.hi is None:
                guess = t
                break
            nxt = run.hi + 1
            if nxt in visited or nxt <= t:
                guess = max(t, nxt)
                break
            visited.add(nxt)
            t = nxt
            continue
        if binding is None:
            # No check bounds the period from below in this region: it is
            # clean down to the region floor, and the gallop goes on below.
            guess = run.lo
            break
        binding_slope = _slack_form(binding.slack_ps).b
        binding_forms = run.records
        guess = candidate
        in_region = run.lo <= candidate and (
            run.hi is None or candidate <= run.hi + 1
        )
        # One or two concrete evals (each a small fraction of a parametric
        # pass) pin the boundary when the affine root lands on or next to
        # it — the usual outcome, since only clock-edge rounding separates
        # the exact root from the concrete one.
        if in_region and candidate > 1 and clean(candidate - 1):
            guess = candidate - 1  # boundary is lower; phase 2 gallops down
            break
        if candidate > 1 and clean(candidate) and not clean(candidate - 1):
            break
        if in_region or candidate == t or candidate in visited:
            break
        visited.add(candidate)
        t = candidate

    # Phase 2: gallop from the guess to a bracket, probing 1, 2, 4, ... ps
    # away (a boundary next to the guess costs a probe or two, a far one a
    # logarithmic number), then bisect it down to static-clean(t) and not
    # static-clean(t - 1).  Clean all the way down ends at 1 ps: not
    # period-limited (below).  1 ps alone decides nothing: recovery.scald
    # is static-clean there, violating at 2 ps and clean again from
    # 21,998 ps.
    t = max(1, guess)
    step = 1
    if clean(t):
        lo_v, hi_c = 0, t  # clean(0) is False
        while hi_c > 1:
            probe = max(1, t - step)
            if not clean(probe):
                lo_v = probe
                break
            hi_c, step = probe, 2 * step
    else:
        lo_v = t
        for _ in range(_MAX_DOUBLINGS + 1):
            if clean(t + step):
                hi_c = t + step
                break
            lo_v, step = t + step, 2 * step
        else:
            return StaticFmax(
                period_limited=True,
                period_ps=None,
                binding=None,
                slope=binding_slope,
                passes=passes,
                static_evals=evals,
                baseline_overflow=baseline_overflow,
            )
    while hi_c - lo_v > 1:
        mid = (lo_v + hi_c) // 2
        if clean(mid):
            hi_c = mid
        else:
            lo_v = mid
    t = hi_c

    if t <= 1 and clean(1):
        return StaticFmax(
            period_limited=False,
            period_ps=None,
            binding=None,
            slope=None,
            passes=passes,
            static_evals=evals,
            baseline_overflow=baseline_overflow,
        )

    # The binding check: the worst concrete record one picosecond below
    # (already computed — pinning the boundary evaluated t - 1).
    below = records_at(t - 1)
    worst = None
    for rec in below:
        if rec.slack_ps is not None and rec.slack_ps < 0:
            if worst is None or rec.slack_ps < worst.slack_ps:
                worst = rec
    if worst is None:
        for rec in below:
            if rec.slack_ps is None and rec.overflow and (
                _record_key(rec) not in baseline_overflow
            ):
                worst = rec
                break

    return StaticFmax(
        period_limited=True,
        period_ps=t,
        binding=worst,
        slope=binding_slope,
        passes=passes,
        static_evals=evals,
        baseline_overflow=baseline_overflow,
        records=below,
        forms=binding_forms,
    )

# ---------------------------------------------------------------------------
# engine anchoring and the independent bisection oracle
# ---------------------------------------------------------------------------


@dataclass
class WitnessHop:
    """One component on the critical path behind the binding check."""

    component: str
    prim: str
    net: str                     #: the output net the hop contributes
    delay: tuple[int, int]
    origin: tuple[str, int] | None = None


@dataclass
class FmaxResult:
    """An Fmax answer: the smallest clean period and how it was found."""

    period_limited: bool
    period_ps: int | None        #: smallest engine-clean period (exact)
    method: str                  #: "anchored" (solve_fmax) or "bisect"
                                 #: (bisect_fmax's pure engine bisection)
    static_period_ps: int | None = None   #: conservative static root T_s
    #: The check that limits Fmax: the engine check with the most negative
    #: margin one picosecond below it, as its static record (the static
    #: binding record when no violated check there carries a margin, and
    #: without one the first engine violation there).
    binding: SlackRecord | None = None
    slope: Fraction | None = None         #: d(slack)/dT of ``binding``
    witness: list[WitnessHop] = field(default_factory=list)
    witness_terminal: str = ""   #: what the backward trace ended on
    engine_runs: int = 0
    parametric_passes: int = 0
    static_evals: int = 0

    @property
    def fmax_mhz(self) -> float | None:
        if self.period_ps is None or not self.period_limited:
            return None
        return 1e6 / self.period_ps


#: How far below a found boundary both oracles re-probe: the engine's
#: slack-vs-T curve is a step function of interleaved roundings and can be
#: locally non-monotone by a picosecond or two; scanning a small window
#: makes "smallest clean period" deterministic across search strategies.
_POLISH_WINDOW = 4


def _polish_boundary(ok, t: int) -> tuple[int, int]:
    """Lower ``t`` to the smallest clean period reachable through wobble.

    ``ok(T)`` must already hold at ``t``.  Returns (boundary, probes).
    """
    probes = 0
    while t > 1:
        lower = None
        for d in range(1, _POLISH_WINDOW + 1):
            cand = t - d
            if cand < 1:
                break
            probes += 1
            if ok(cand):
                lower = cand
                break
        if lower is None:
            return t, probes
        t = lower
    return t, probes


def _secant_step(probes, slope: Fraction | None) -> int | None:
    """Where the check margins put the engine boundary: the next probe.

    ``probes`` maps each period probed so far, in probe order, to its
    :func:`_engine_probe` ``probe`` result.  Within a region slack is affine
    in the period, so each check's margins at the last two probes put a
    secant through its zero; after a single probe the static binding
    slope stands in for every check's.  Margins are whole picoseconds: a
    check whose slope is a fraction reads the same margin over several
    adjacent periods, so its secant reaches back to the latest probe where
    its margin differed, and a margin ``a`` is taken as the slack anywhere
    in ``[a, a + 1)`` — the root is aimed at ``a + 1/2``.  Checks whose
    margin does not shrink with the period predict nothing.  Returns the
    smallest integer period at or above the highest predicted root, or
    None when no check predicts one.
    """
    trail = [(t, margins) for t, (_clean, margins, _v) in probes.items()]
    t1, m1 = trail[-1]
    if len(trail) == 1:
        if slope is None or not m1:
            return None
        return t1 - math.floor(Fraction(2 * min(m1.values()) + 1, 2) / slope)
    earlier = trail[-2::-1]
    best = None
    for key, a in m1.items():
        for t2, m2 in earlier:
            b = m2.get(key)
            if b is not None and b != a:
                break
        else:
            continue
        dt = t1 - t2
        if (a - b) * dt <= 0:
            continue
        # ceil(t1 - (a + 1/2) / slope), slope = (a - b) / dt
        root = t1 - ((2 * a + 1) * dt) // (2 * (a - b))
        if best is None or root > best:
            best = root
    return best


def _limiting_check(
    static: StaticFmax, margins, violations=()
) -> tuple[SlackRecord | None, Fraction | None]:
    """The static record and slope of the engine check that limits Fmax.

    ``margins`` are the engine's at one picosecond below the boundary; the
    check with the most negative one (the first in report order on a tie)
    is named through its static record, which also supplies the slope.
    Falls back to the static binding record when no violated check there
    carries a margin, and without one to the first of the engine's
    ``violations`` there (keyed like the margins), named the same way.
    Only a record of a kind that bounds the check (``TWINS``) names it.
    """
    key = min(margins, key=margins.__getitem__, default=None)
    if key is None or margins[key] >= 0:
        if static.binding is not None or not violations:
            return static.binding, static.slope
        key = violations[0]
    component, kind, signal, _case = key
    base = component.split(" [", 1)[0]  # a diverged lane's label
    twins = [r for r in static.records if r.kind in TWINS[kind]]
    record = next(
        (r for r in twins if r.component == component and r.signal == signal),
        None,
    ) or next((r for r in twins if r.component == base), None)
    if record is None:
        # No static twin (a pulse-width or assertion check): name the
        # engine's check.
        record = SlackRecord(
            component=component,
            prim="",
            signal=signal,
            clock="",
            setup_ps=0,
            hold_ps=0,
            slack_ps=None,
            no_edge=False,
            overflow=False,
            origin=None,
            kind=kind.value,
        )
        return record, None
    form = next(
        (
            _slack_form(r.slack_ps)
            for r in static.forms
            if _record_key(r) == _record_key(record) and r.slack_ps is not None
        ),
        None,
    )
    return record, None if form is None else form.b


def _descend(ok, probes, start: int, slope: Fraction | None) -> int | None:
    """The engine boundary below a clean ceiling found from ``start``.

    ``ok`` is the memoized engine verdict that fills ``probes`` (see
    :func:`_secant_step`).  ``start`` doubles while it violates, at most
    :data:`_MAX_DOUBLINGS` times; None when no doubled period is clean.
    Returns the smallest clean period below the ceiling, polished.
    """
    hi_c, doublings = start, 0
    while not ok(hi_c) and doublings < _MAX_DOUBLINGS:
        hi_c *= 2
        doublings += 1
    if not ok(hi_c):
        return None
    # Descend to the engine boundary inside the bracket (lo_v, hi_c]:
    # each probe goes where the margins predict the first check reaches
    # zero.  A prediction at or above the clean end means the boundary is
    # within a margin quantum below it, so the probe drops a polish
    # window; one at or below the violating end (a violation no margin
    # explains) bisects, and so does any step once two probes have failed
    # to halve a finite bracket (a margin that jumps rather than slides,
    # as where a path wraps the folded period), so the search is never
    # more than twice bisection's length.  Once the bracket fits in the
    # polish window, every period left is one _polish_boundary probes
    # anyway, so the search climbs from the violating end.  Margins only
    # choose the probes — every bracket move is an engine verdict.
    lo_v = max(  # 0 when nothing below violated: "below 1" violates
        (t for t, (clean, *_) in probes.items() if t < hi_c and not clean),
        default=0,
    )
    slope = slope if slope and slope > 0 else None
    widths: list[int] = []  # bracket width after each probe, once finite
    while hi_c - lo_v > 1:
        if hi_c - lo_v <= _POLISH_WINDOW + 1:
            mid = lo_v + 1
        else:
            mid = _secant_step(probes, slope)
            if mid is not None and mid >= hi_c:
                mid = hi_c - _POLISH_WINDOW
            stalled = len(widths) >= 3 and 2 * widths[-1] > widths[-3]
            if mid is None or mid <= lo_v or stalled:
                mid = (lo_v + hi_c) // 2
        if ok(mid):
            hi_c = mid
        else:
            lo_v = mid
        if lo_v:
            widths.append(hi_c - lo_v)
    return _polish_boundary(ok, hi_c)[0]


def solve_fmax(
    circuit: Circuit,
    config: VerifyConfig | None = None,
    constraints=None,
) -> FmaxResult:
    """Analytic Fmax: one engine search started from the static closed form.

    The parametric pass gives the conservative static root ``T_s``: on
    every check the static slack families bound, the engine is guaranteed
    clean there (static-positive implies engine-clean).  The search starts
    at ``T_s`` — at the design period when the static pass gives none —
    and doubles the period while the start violates.  Below that clean
    ceiling a secant descent steered by the engine's check margins
    (:func:`_descend`) finds the boundary, and the engine's verdicts alone
    pin it: engine-clean(T*) and engine-violating(T* - 1).
    """
    config = config or VerifyConfig()
    static = solve_static_fmax(circuit, config, constraints)
    t_s = static.period_ps
    runs = 0
    probe = _engine_probe(circuit, config, constraints)
    probes: dict[int, tuple] = {}  # period -> probe(period), probe order

    def ok(t: int) -> bool:
        """Engine verdict at T=t (memoized; below 1 counts as violating)."""
        nonlocal runs
        if t < 1:
            return False
        if t not in probes:
            runs += 1
            probes[t] = probe(t)
        return probes[t][0]

    design = circuit.timebase.period_ps
    # A design static-clean at every period is engine-confirmed: the slack
    # families are sound, but the engine also runs checks with no static
    # twin (gated-clock glitches among them), so it must be clean at the
    # design period and at 1 ps.
    limited = static.period_limited or not (ok(design) and ok(1))
    boundary = None
    if limited:
        if t_s is not None and not ok(t_s) and any(
            TWINS[kind] for _c, kind, _s, _i in probes[t_s][2]
        ):
            raise AssertionError(
                f"engine violates at static-clean period {t_s}: the static "
                "pass lost its soundness contract — run scald-tv --crosscheck"
            )
        boundary = _descend(
            ok, probes, design if t_s is None else t_s, static.slope
        )
        if boundary == 1:
            # Clean down to the smallest expressible period: not limited.
            limited, boundary = False, None

    binding = slope = None
    witness, terminal = [], ""
    if boundary is not None:
        # The polish step has already probed boundary - 1.
        _clean, margins, violations = probes[boundary - 1]
        if t_s is None:
            # No static root to name records below: one static pass there.
            static = replace(
                static,
                records=_static_records(
                    circuit, config, constraints, boundary - 1
                ),
                static_evals=static.static_evals + 1,
            )
        binding, slope = _limiting_check(static, margins, violations)
        if binding is not None:
            witness, terminal = trace_witness(
                circuit, config, constraints, boundary, binding
            )
    return FmaxResult(
        period_limited=limited,
        period_ps=boundary,
        method="anchored",
        static_period_ps=t_s,
        binding=binding,
        slope=slope,
        witness=witness,
        witness_terminal=terminal,
        engine_runs=runs,
        parametric_passes=static.passes,
        static_evals=static.static_evals,
    )


def bisect_fmax(
    circuit: Circuit,
    config: VerifyConfig | None = None,
    constraints=None,
) -> FmaxResult:
    """Independent Fmax oracle: pure bisection over full engine runs.

    No static information is used.  Starts at the design period; searches
    up (doubling) when the design violates as-is, down (halving) when it is
    clean, then bisects the bracket to the exact boundary — the same
    fixed-point condition :func:`solve_fmax` anchors to, so the two must
    agree to within the rounding wobble the polish step absorbs.
    """
    config = config or VerifyConfig()
    runs = 0
    probe = _engine_probe(circuit, config, constraints)
    ok_memo: dict[int, bool] = {}

    def ok(t: int) -> bool:
        nonlocal runs
        if t < 1:
            return False
        hit = ok_memo.get(t)
        if hit is None:
            runs += 1
            hit = ok_memo[t] = probe(t)[0]
        return hit

    t0 = circuit.timebase.period_ps
    if ok(t0):
        hi_c = t0
    else:
        hi_c = t0
        for _ in range(_MAX_DOUBLINGS):
            hi_c *= 2
            if ok(hi_c):
                break
        else:
            return FmaxResult(
                period_limited=True,
                period_ps=None,
                method="bisect",
                engine_runs=runs,
            )

    # Halve down to find a violating floor (or discover T=1 is clean).
    lo_v = None
    t = hi_c
    while t > 1:
        t //= 2
        if t < 1:
            t = 1
        if ok(t):
            hi_c = t
        else:
            lo_v = t
            break
    if lo_v is None:
        # Clean all the way down to T=1: the design is not period-limited.
        return FmaxResult(
            period_limited=False,
            period_ps=None,
            method="bisect",
            engine_runs=runs,
        )

    while hi_c - lo_v > 1:
        mid = (lo_v + hi_c) // 2
        if ok(mid):
            hi_c = mid
        else:
            lo_v = mid
    boundary, _ = _polish_boundary(ok, hi_c)
    return FmaxResult(
        period_limited=True,
        period_ps=boundary,
        method="bisect",
        engine_runs=runs,
    )


# ---------------------------------------------------------------------------
# critical-path witness
# ---------------------------------------------------------------------------


def _overlap_measure(a: IntervalSet, b: IntervalSet, period: int) -> int:
    """Total circular overlap between two concrete interval sets."""
    if a.is_empty or b.is_empty:
        return 0
    if a.is_full:
        return b.measure() if not b.is_full else period
    if b.is_full:
        return a.measure()
    total = 0
    for g0, g1 in a.spans:
        for c0, c1 in b.spans:
            for d in (-period, 0, period):
                lo = max(g0, c0 + d)
                hi = min(g1, c1 + d)
                if hi > lo:
                    total += hi - lo
    return total


def trace_witness(
    circuit: Circuit,
    config: VerifyConfig | None,
    constraints,
    period_ps: int,
    binding: SlackRecord,
    max_depth: int = 64,
) -> tuple[list[WitnessHop], str]:
    """Greedy backward trace of the binding check's critical path.

    From the binding record's data net, walk driver-to-input choosing at
    each component the timing input whose (delay-shifted) change windows
    overlap the output's change windows the most — the path the window
    dataflow itself propagated.  Stops at a fixed source (classified), a
    feedback cut, or the depth cap.  Returns ``(hops, terminal)`` with
    terminal one of ``clock-assertion``, ``stable-assertion``,
    ``input-delay``, ``supply``, ``unconstrained``, ``feedback-cut``,
    ``cycle`` or ``depth-limit``.
    """
    config = config or VerifyConfig()
    timebase = scaled_timebase(circuit.timebase, period_ps)
    analysis = compute_windows(circuit, config, constraints, timebase=timebase)
    period = analysis.period

    drivers: dict[Net, tuple[Component, list[Connection]]] = {}
    for comp in circuit.iter_components():
        if comp.prim.is_checker:
            continue
        inputs = [conn for _pin, conn in comp.input_pins()]
        for _pin, conn in comp.output_pins():
            drivers[circuit.find(conn.net)] = (comp, inputs)

    feedback_nets = {cut.net for cut in analysis.feedback}

    start = circuit.nets.get(binding.signal)
    if start is None:
        return [], "unconstrained"
    rep = circuit.find(start)
    hops: list[WitnessHop] = []
    visited: set[int] = set()
    terminal = "depth-limit"
    for _ in range(max_depth):
        if id(rep) in visited:
            terminal = "cycle"
            break
        visited.add(id(rep))
        if rep.name in feedback_nets:
            terminal = "feedback-cut"
            break
        entry = drivers.get(rep)
        if entry is None:
            # A source: classify how (whether) it is constrained.
            if rep.base_name.upper() in _SUPPLY:
                terminal = "supply"
            elif rep.assertion is not None:
                terminal = (
                    "clock-assertion"
                    if rep.assertion.kind.is_clock
                    else "stable-assertion"
                )
            elif constraints is not None and (
                constraints.input_delay_for(rep.name) is not None
            ):
                terminal = "input-delay"
            else:
                terminal = "unconstrained"
            break
        comp, inputs = entry
        if rep.assertion is not None and rep.assertion.kind.is_clock:
            terminal = "clock-assertion"  # pinned even against a driver
            break
        hops.append(
            WitnessHop(
                component=comp.name,
                prim=comp.prim.name,
                net=rep.name,
                delay=comp.delay_ps(),
                origin=comp.origin,
            )
        )
        out_r, out_f = analysis.of(rep)
        out_changes = out_r.union(out_f)
        dmin, dmax = comp.delay_ps()
        candidates = _used_input_conns(comp, inputs, None)
        best = None
        best_score = -1
        for conn in candidates:
            in_r, in_f = analysis.prepared(conn)
            shifted = in_r.union(in_f).shift(dmin, dmax + 1)
            score = _overlap_measure(shifted, out_changes, period)
            if score > best_score:
                best_score = score
                best = conn
        if best is None:
            terminal = "unconstrained"
            break
        rep = circuit.find(best.net)
    return hops, terminal
