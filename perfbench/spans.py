"""Spans recorded by benchmark code around calls into the program's layers.

A span is one call: a name, the layer (module) it belongs to, start and
end on the monotonic clock, the span that was open when it started, and
the op it belongs to.  Spans stay in memory and are written out when the
run ends.  The program itself is not changed: :meth:`Spans.patch` wraps
a public function or method from outside and :meth:`Spans.unpatch`
puts the originals back.

``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, so spans recorded
in a child process line up with the parent's.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Spans:
    """An in-memory span list with a stack of open spans."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []
        self.op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, layer: str) -> dict:
        """Start a span; spans started before :meth:`close` nest in it."""
        rec = {
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
        }
        self._open.append(len(self.records))
        self.records.append(rec)
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        rec = self.open(name, layer)
        try:
            yield rec
        finally:
            self.close(rec)

    def add(self, name: str, layer: str, start: float, end: float,
            parent: int | None) -> int:
        """Record a finished span (from a child process or a counter)."""
        self.records.append({"name": name, "layer": layer, "start": start,
                             "end": end, "parent": parent, "op": self.op})
        return len(self.records) - 1

    def adopt(self, child_records: list[dict], parent: int) -> None:
        """Nest a child process's spans under the span ``parent``."""
        base = len(self.records)
        for rec in child_records:
            rec = dict(rec, op=self.op)
            rec["parent"] = parent if rec["parent"] is None else base + rec["parent"]
            self.records.append(rec)

    def patch(self, owner, attr: str, layer: str, on_result=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``owner`` is a module or a class; class methods, plain methods
        and module functions are all wrapped so callers see no
        difference.  ``on_result(args, result)`` sees each call's
        arguments and result.  :meth:`unpatch` puts the originals back.
        """
        raw = vars(owner)[attr]
        target = getattr(owner, attr)
        name = f"{owner.__name__}.{attr}"

        def wrapper(*args, **kwargs):
            with self.span(name, layer):
                result = target(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr,
                staticmethod(wrapper) if isinstance(raw, classmethod)
                else wrapper)
        self._patched.append((owner, attr, raw))

    def unpatch(self) -> None:
        """Restore every function :meth:`patch` replaced, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)


def self_times(records: list[dict]) -> dict[str, float]:
    """Seconds of self time per layer.

    A span's self time is its duration minus the part its child spans
    cover.  Children of one span run one after another, so the covered
    part is the sum of their durations, capped at the span's own.  The
    self times of all spans under a root add up to the root's duration.
    """
    covered = [0.0] * len(records)
    for rec in records:
        if rec["parent"] is not None:
            covered[rec["parent"]] += rec["end"] - rec["start"]
    out: dict[str, float] = {}
    for rec, kids in zip(records, covered):
        duration = rec["end"] - rec["start"]
        out[rec["layer"]] = out.get(rec["layer"], 0.0) + max(
            0.0, duration - min(kids, duration)
        )
    return out
