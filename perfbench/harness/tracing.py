"""Spans recorded from the benchmark's side of each layer boundary.

Nothing here touches ``src/``: a traced run wraps the public functions it
calls (or that the program calls through a module attribute) for the
duration of the run and restores them afterwards.  Spans live in memory
as ``[id, name, start_ns, end_ns, parent, root, attrs]`` and are written
out once, when the run ends.

A span's *self* time is its duration minus the time its child spans
cover; the self time of a root span (one workload item) is the time no
layer span accounts for.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from statistics import fmean
from time import perf_counter_ns

_ID, _NAME, _START, _END, _PARENT, _ROOT, _ATTRS = range(7)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> list:
        self.record[_START] = perf_counter_ns()
        return self.record

    def __exit__(self, *exc) -> None:
        self.record[_END] = perf_counter_ns()
        self.tracer._stack.pop()


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs) -> _Span:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else sid
        record = [sid, name, 0, 0, parent, root, attrs]
        self.spans.append(record)
        self._stack.append(sid)
        return _Span(self, record)

    def record(self, name: str, start_ns: int, end_ns: int, parent: list) -> None:
        """Add a finished child of *parent* measured by the program itself
        (the prio phases come back in ``PrioResult.phase_seconds``)."""
        sid = len(self.spans)
        self.spans.append(
            [sid, name, start_ns, end_ns, parent[_ID], parent[_ROOT], {}]
        )

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Replace ``owner.attr`` by a traced wrapper for each
        ``(owner, attr, name_or_wrapper_factory)``; restore on exit."""
        saved = []
        try:
            for owner, attr, how in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                wrapper = (
                    self.wrap(original, how)
                    if isinstance(how, str)
                    else how(original)
                )
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------

    def roots(self) -> list[dict]:
        """Per root span: its attrs, wall time, and per-name inclusive
        and self nanoseconds of every span below it."""
        covered: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s[_PARENT] is not None:
                covered[s[_PARENT]] += s[_END] - s[_START]
        out: dict[int, dict] = {}
        for s in self.spans:
            duration = s[_END] - s[_START]
            if s[_PARENT] is None:
                out[s[_ID]] = {
                    "name": s[_NAME],
                    "attrs": s[_ATTRS],
                    "wall": duration,
                    "unaccounted": duration - covered[s[_ID]],
                    "total": defaultdict(int),
                    "self": defaultdict(int),
                }
                continue
            root = out[s[_ROOT]]
            root["total"][s[_NAME]] += duration
            root["self"][s[_NAME]] += duration - covered[s[_ID]]
        return list(out.values())

    def child_names(self) -> list[str]:
        """Names of the spans below the roots (the layer spans)."""
        return sorted({s[_NAME] for s in self.spans if s[_PARENT] is not None})

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, root, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "root": root,
                            **({"attrs": attrs} if attrs else {}),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


class NullTracer:
    """The untraced run: same call structure, nothing recorded."""

    def span(self, name: str, **attrs):
        return nullcontext()

    def record(self, *args, **kwargs) -> None:
        pass

    @contextmanager
    def patched(self, targets):
        yield self


class PassTotals:
    """Span seconds of one pass over a workload's items.

    An item is a root span's name plus its ``item`` attribute (an input,
    a swept dag); each item counts at the mean of its repetitions, so a
    pass is comparable however many repetitions the window held.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.items: dict[tuple, list[dict]] = {}
        for root in tracer.roots():
            self.items.setdefault((root["name"], root["attrs"].get("item")), []).append(root)

    def seconds(self, kind: str, span: str, item: str | None = None) -> float:
        """Inclusive (``kind="total"``) or self seconds of *span* per pass,
        over every item or only *item*."""
        return sum(
            fmean([r[kind].get(span, 0) for r in roots]) / 1e9
            for (_, name), roots in self.items.items()
            if item is None or name == item
        )

    def unaccounted(self) -> tuple[float, float]:
        """(seconds no layer span covers, wall seconds) per pass."""
        loose = sum(fmean([r["unaccounted"] for r in rs]) for rs in self.items.values())
        wall = sum(fmean([r["wall"] for r in rs]) for rs in self.items.values())
        return loose / 1e9, wall / 1e9

    def self_seconds(self) -> dict[str, float]:
        out = {name: self.seconds("self", name) for name in self.tracer.child_names()}
        out["(unaccounted)"] = self.unaccounted()[0]
        return out


def traced_prio(tracer: Tracer):
    """Wrapper factory for ``prio_schedule``: one ``core.prio`` span with
    the program's own phase timings recorded as its children."""

    def factory(original):
        def prio_schedule(*args, **kwargs):
            with tracer.span("core.prio") as span:
                result = original(*args, **kwargs)
            at = span[_START]
            for phase in ("transitive_reduction", "decompose", "recurse", "combine"):
                length = int(result.phase_seconds.get(phase, 0.0) * 1e9)
                tracer.record(f"core.{phase}", at, at + length, span)
                at += length
            return result

        prio_schedule.__wrapped__ = original
        return prio_schedule

    return factory
