"""Storage accounting in the shape of Table 3-3.

The thesis breaks the Timing Verifier's working storage into categories:
circuit description (37.8 %, 260 bytes/primitive), signal values (33 152
value lists averaging 2.97 value records, 56 bytes/signal), signal names
(11.6 %), string space (10.6 %), the call-list array mapping signals to the
primitives they feed (6.9 %), and miscellany (0.7 %).  This module measures
our implementation's equivalents with recursive ``sys.getsizeof`` so the
Table 3-3 benchmark can print the same rows.

Objects shared between categories are counted once, in the first category
that reaches them (measured in the paper's order), exactly as a single
allocation would have been owned by one data structure in the PASCAL
implementation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from ..core.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from ..core.verifier import VerificationResult
    from ..hdl.expander import ExpanderStats


def deep_size(obj: Any, seen: set[int]) -> int:
    """Recursive ``getsizeof`` that skips already-counted objects."""
    oid = id(obj)
    if oid in seen:
        return 0
    seen.add(oid)
    if isinstance(obj, (type, type(deep_size), type(sys))):
        return 0  # classes, functions and modules are code, not data
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += deep_size(key, seen)
            size += deep_size(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += deep_size(item, seen)
    elif hasattr(obj, "__dict__"):
        size += deep_size(obj.__dict__, seen)
    if hasattr(obj, "__slots__"):
        for slot in obj.__slots__:  # type: ignore[union-attr]
            if hasattr(obj, slot):
                size += deep_size(getattr(obj, slot), seen)
    return size


@dataclass
class StorageCategory:
    name: str
    bytes: int
    percent: float = 0.0


@dataclass
class StorageReport:
    """The measured equivalent of Table 3-3."""

    categories: list[StorageCategory] = field(default_factory=list)
    total_bytes: int = 0
    primitives: int = 0
    signals: int = 0
    bytes_per_primitive: float = 0.0
    bytes_per_signal_value: float = 0.0
    value_records_per_signal: float = 0.0

    def table(self) -> str:
        lines = [
            "STORAGE REQUIRED (Table 3-3 categories)",
            "",
            f"  {'category':<28} {'bytes':>12} {'percent':>9}",
        ]
        for cat in self.categories:
            lines.append(f"  {cat.name:<28} {cat.bytes:>12,} {cat.percent:>8.1f}%")
        lines.append(f"  {'TOTAL':<28} {self.total_bytes:>12,} {100.0:>8.1f}%")
        lines.append("")
        lines.append(
            f"  {self.bytes_per_primitive:.0f} bytes/primitive circuit "
            f"description ({self.primitives} primitives)"
        )
        lines.append(
            f"  {self.bytes_per_signal_value:.0f} bytes/signal value, "
            f"{self.value_records_per_signal:.2f} value records/signal "
            f"({self.signals} signal value lists)"
        )
        return "\n".join(lines)


def profile_json(
    result: "VerificationResult", expander: "ExpanderStats | None" = None
) -> dict:
    """The execution profile of one verification run, as plain data.

    Per-phase wall times in the shape of Table 3-1, the event/evaluation
    counters of section 3.3.2, and the effectiveness counters of the
    engine's optimisation layers (levelized scheduling, waveform
    interning, evaluation memoisation).  Given the statistics of the
    expansion that produced the circuit, Table 3-1's Expander half rides
    along as an ``"expander"`` block.
    """
    s = result.stats
    p = result.phases
    verify_s = p.verify
    out = {
        "circuit": result.circuit_name,
        "phases_seconds": {
            "build": p.build,
            "cross_reference": p.cross_reference,
            "verify": verify_s,
            "summary": p.summary,
            "levelize": s.levelize_seconds,
            "total": p.total,
        },
        "primitives": result.primitive_count,
        "cases": len(result.cases),
        "events": s.events,
        "evaluations": s.evaluations,
        "vector_events": s.vector_events,
        "lane_splits": s.lane_splits,
        "events_per_primitive": result.events_per_primitive,
        "events_per_second": s.events / verify_s if verify_s > 0 else 0.0,
        "max_rank": s.max_rank,
        "caches": _cache_stats(result),
        "incremental": {
            "runs": s.incremental_runs,
            "dirty_primitives": s.dirty_primitives,
            "reused_waveforms": s.reused_waveforms,
        },
        "violations": len(result.violations),
    }
    if expander is not None:
        out["expander"] = {
            "phases_seconds": {
                "read": expander.read_seconds,
                "pass1": expander.pass1_seconds,
                "pass2": expander.pass2_seconds,
                "total": expander.total_seconds,
            },
            "macro_calls": expander.macro_calls,
        }
    if result.phases_cpu is not None:
        # Parallel runs: wall times above are max-reduced across workers;
        # this block carries the summed CPU seconds actually spent.
        c = result.phases_cpu
        out["phases_cpu_seconds"] = {
            "build": c.build,
            "cross_reference": c.cross_reference,
            "verify": c.verify,
            "summary": c.summary,
            "total": c.total,
        }
    if result.pool is not None:
        # Pooled runs: the warm worker pool's lifetime and transfer
        # counters (see repro.parallel).
        pl = result.pool
        out["pool"] = {
            "workers": pl.workers,
            "pool_starts": pl.pool_starts,
            "runs": pl.runs,
            "warm_runs": pl.warm_runs,
            "edits_shipped": pl.edits_shipped,
            "waveforms_shipped": pl.waveforms_shipped,
            "waveform_refs": pl.waveform_refs,
            "snapshots_fetched": pl.snapshots_fetched,
        }
    return out


def _cache_disabled(result: "VerificationResult") -> bool:
    """Did the run's config switch the engine's caches off?

    A cache a :class:`VerifyConfig` switched off never counts a hit, and
    reporting that as a 0% hit rate reads as a cache that failed; the
    reporters show ``"disabled"`` instead.  Results from before the config
    was recorded (``result.config is None``) keep the numeric rendering.
    """
    return result.config is not None and not result.config.optimized


def _cache_stats(result: "VerificationResult") -> dict[str, object]:
    s = result.stats
    off = _cache_disabled(result)
    out: dict[str, object] = {
        "memo_hits": s.memo_hits,
        "memo_misses": s.memo_misses,
        "memo_hit_rate": "disabled" if off else s.memo_hit_rate,
        "intern_hits": s.intern_hits,
        "intern_misses": s.intern_misses,
        "intern_hit_rate": "disabled" if off else s.intern_hit_rate,
        "prepared_hits": s.prepared_hits,
        "prepared_misses": s.prepared_misses,
        "prepared_hit_rate": "disabled" if off else s.prepared_hit_rate,
        "evaluations_saved": s.evaluations_saved,
    }
    return out


def profile_report(
    result: "VerificationResult", expander: "ExpanderStats | None" = None
) -> str:
    """Human-readable rendering of :func:`profile_json`.

    With ``expander`` the Expander's three phases lead the table and the
    Total covers both halves, as in Table 3-1.
    """
    data = profile_json(result, expander)
    s = result.stats
    off = _cache_disabled(result)
    ph = data["phases_seconds"]
    rows: list[tuple[str, float]] = []
    total = ph["total"]
    counts = f"primitives: {data['primitives']}, cases: {data['cases']}"
    if expander is not None:
        ex = data["expander"]["phases_seconds"]
        rows += [
            ("Macro Expander: reading input files", ex["read"]),
            ("Macro Expander: Pass 1", ex["pass1"]),
            ("Macro Expander: Pass 2", ex["pass2"]),
        ]
        total += ex["total"]
        counts = f"macro calls: {expander.macro_calls}, {counts}"
    rows += [
        ("Reading input files and building data structures", ph["build"]),
        ("  of which: computing the levelized schedule", ph["levelize"]),
        ("Generating cross reference listings", ph["cross_reference"]),
        ("Verifying circuit", ph["verify"]),
        ("Generating timing summary listing", ph["summary"]),
        ("Total", total),
    ]
    lines = [f"EXECUTION PROFILE — {data['circuit']}", ""]
    for label, seconds in rows:
        lines.append(f"  {label:<52} {seconds * 1000:10.2f} ms")
    lines += [
        "",
        f"  {counts}",
        f"  events: {data['events']}, evaluations: {data['evaluations']}, "
        f"events/primitive: {data['events_per_primitive']:.2f} "
        "(thesis: ~2.4)",
        f"  events/second: {data['events_per_second']:,.0f}, "
        f"max schedule rank: {data['max_rank']}",
        f"  word-level: {data['vector_events']} vector events "
        f"(one per word, any width), {data['lane_splits']} per-bit "
        "divergence splits",
        "",
        _cache_line(
            "evaluation memo:", s.memo_hits, s.memo_misses, off,
            s.memo_hit_rate, f" — {s.evaluations_saved} model runs saved",
        ),
        _cache_line(
            "intern table:   ", s.intern_hits, s.intern_misses, off,
            s.intern_hit_rate,
        ),
        _cache_line(
            "prepared inputs:", s.prepared_hits, s.prepared_misses, off,
            s.prepared_hit_rate,
        ),
    ]
    if s.incremental_runs:
        lines += [
            "",
            f"  incremental: {s.incremental_runs} re-verification(s), "
            f"{s.dirty_primitives} primitives in the dirty cone, "
            f"{s.reused_waveforms} stored waveforms reused",
        ]
    if result.pool is not None:
        pl = result.pool
        total_refs = pl.waveforms_shipped + pl.waveform_refs
        lines += [
            "",
            f"  worker pool: {pl.workers} worker(s), "
            f"{pl.pool_starts} start(s), {pl.runs} run(s) "
            f"({pl.warm_runs} warm), {pl.edits_shipped} edit(s) shipped",
            f"  digest transfer: {pl.waveforms_shipped}/{total_refs} "
            f"waveform(s) shipped (rest sent by reference), "
            f"{pl.snapshots_fetched} snapshot(s) fetched",
        ]
    return "\n".join(lines)


def _cache_line(
    label: str, hits: int, misses: int, disabled: bool,
    rate: float, extra: str = "",
) -> str:
    if disabled:
        return f"  {label} disabled"
    return f"  {label} {hits}/{hits + misses} hits ({rate:.0%}){extra}"


def measure_storage(engine: Engine) -> StorageReport:
    """Measure a (run) engine's working storage by Table 3-3 category."""
    circuit = engine.circuit
    seen: set[int] = set()

    # Strings first would claim the names out from under the other
    # categories; the paper's order puts the circuit description first.
    components = list(circuit.iter_components())
    circuit_description = 0
    strings: list[str] = []
    for comp in components:
        strings.append(comp.name)
        circuit_description += deep_size(comp.pins, seen)
        circuit_description += deep_size(comp.params, seen)
        circuit_description += sys.getsizeof(comp)

    reps = circuit.representatives()
    signal_values = deep_size(engine.values, seen)

    signal_names = 0
    for net in circuit.nets.values():
        strings.append(net.name)
        strings.append(net.base_name)
        signal_names += sys.getsizeof(net)
        signal_names += deep_size(net.assertion, seen)
    signal_names += sys.getsizeof(circuit.nets)

    string_space = sum(deep_size(s, seen) for s in set(strings))

    call_list = deep_size(engine._loads, seen) + deep_size(engine._drivers, seen)

    misc = (
        deep_size(engine._case_map, seen)
        + deep_size(engine.xref_assumed_stable, seen)
        + deep_size(circuit.cases, seen)
        + deep_size(circuit._alias_parent, seen)
    )

    categories = [
        StorageCategory("circuit description", circuit_description),
        StorageCategory("signal values", signal_values),
        StorageCategory("signal names", signal_names),
        StorageCategory("string space", string_space),
        StorageCategory("call list array", call_list),
        StorageCategory("miscellaneous", misc),
    ]
    total = sum(c.bytes for c in categories)
    for cat in categories:
        cat.percent = 100.0 * cat.bytes / total if total else 0.0

    n_prims = len(components)
    n_signals = len(reps)
    segment_count = sum(len(wf.segments) for wf in engine.values.values())
    return StorageReport(
        categories=categories,
        total_bytes=total,
        primitives=n_prims,
        signals=n_signals,
        bytes_per_primitive=circuit_description / n_prims if n_prims else 0.0,
        bytes_per_signal_value=signal_values / n_signals if n_signals else 0.0,
        value_records_per_signal=segment_count / n_signals if n_signals else 0.0,
    )
