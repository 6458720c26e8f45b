"""Outside-in trace of anchorguard's layers.

The benchmark records spans without editing the package: each hook
replaces a module attribute under the name its caller looks it up by
(``harness.deploy`` is what ``run_trial`` calls, ``deployment.neighbor_groups``
is what ``build_references`` calls), and restores it afterwards.

Span hooks open a span around the call.  Counter hooks only count calls
and attribute the count to the enclosing span, because functions such as
``trilaterate`` run tens of thousands of times per trial.  Spans and
counts stay in memory; ``write_spans`` puts them on disk at the end.

A hook whose target is gone is skipped and listed in ``Tracer.missing``,
and any metric built on a hook that is missing or never fired is
reported as absent (``Aggregate`` raises ``Absent``) rather than as a
misleading zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

PACKAGE = "anchorguard"


class Absent(LookupError):
    """A metric's spans or counters were never recorded."""


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    path: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part of it the direct children cover.

        Children run one after another on the one thread, so their
        durations add up without overlap.
        """
        return self.duration_s - self.child_s


class Tracer:
    """In-memory span tree with per-span counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            name=name,
            path=f"{parent.path}/{name}" if parent else name,
            start=self.clock(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.duration_s

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        opened = self.open(name)
        try:
            yield opened
        finally:
            self.close(opened)

    def count(self, name: str, n: int = 1, span: Span | None = None) -> None:
        """Add to a counter of ``span``, by default the innermost open one.

        Counts made outside any span are dropped: every traced call runs
        under the benchmark's root span.
        """
        target = span if span is not None else (self._stack[-1] if self._stack else None)
        if target is not None:
            target.counts[name] = target.counts.get(name, 0) + n


# Observers turn a hooked call's arguments and result into counts on its
# own span.  They read attributes defensively: a later version of the
# package may return something else, and then the count is simply absent.


def _observe_deploy(tracer: Tracer, span: Span, args, kwargs, result) -> None:
    m_cross = getattr(getattr(result, "references", None), "m_cross", None)
    if m_cross is not None:
        tracer.count("m_cross_built", len(m_cross), span)


def _observe_group_check(tracer: Tracer, span: Span, args, kwargs, result) -> None:
    tracer.count("failed", 0 if getattr(result, "passed", True) else 1, span)
    tracer.count("degenerate", 1 if getattr(result, "degenerate", False) else 0, span)


def _observe_detection(tracer: Tracer, span: Span, args, kwargs, result) -> None:
    tracer.count("suspects", len(getattr(result, "suspects", ())), span)
    tracer.count("unresolved", len(getattr(result, "groups_unresolved", ())), span)


def _observe_confirm(tracer: Tracer, span: Span, args, kwargs, result) -> None:
    suspects = args[0] if args else kwargs.get("suspects", ())
    tracer.count("scored", len(suspects), span)
    tracer.count("outliers", sum(1 for s in result if getattr(s, "outlier", False)), span)


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    spans: bool = True
    observe: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"

    def wrap(self, tracer: Tracer, target: Callable) -> Callable:
        name = self.name
        if not self.spans:

            @functools.wraps(target)
            def counted(*args, **kwargs):
                tracer.count(name)
                return target(*args, **kwargs)

            return counted

        observe = self.observe

        @functools.wraps(target)
        def spanned(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = target(*args, **kwargs)
            except Exception:
                tracer.count("raised", 1, span)
                raise
            finally:
                tracer.close(span)
            if observe is not None:
                observe(tracer, span, args, kwargs, result)
            return result

        return spanned


HOOKS = (
    Hook("harness", "run_trial"),
    Hook("harness", "deploy", observe=_observe_deploy),
    Hook("deployment", "build_references"),
    Hook("deployment", "neighbor_groups"),
    Hook("harness", "compromise"),
    Hook("harness", "run_detection", observe=_observe_detection),
    Hook("detection", "group_check", observe=_observe_group_check),
    Hook("detection", "isolate_suspects"),
    Hook("detection", "neighbor_groups"),
    Hook("harness", "relocalization_cloud"),
    Hook("harness", "confirm_outliers", observe=_observe_confirm),
    Hook("harness", "emit_csv"),
    Hook("deployment", "trilaterate", spans=False),
    Hook("deployment", "measure", spans=False),
    Hook("detection", "trilaterate", spans=False),
    Hook("detection", "measure", spans=False),
)


@contextmanager
def hooked(tracer: Tracer, hooks: tuple[Hook, ...] = HOOKS) -> Iterator[Tracer]:
    """Install ``hooks`` for the duration of the block, then restore."""
    installed = []
    try:
        for hook in hooks:
            try:
                module = importlib.import_module(f"{PACKAGE}.{hook.module}")
            except ImportError:
                module = None
            target = getattr(module, hook.attr, None)
            if not callable(target):
                if hook.name not in tracer.missing:
                    tracer.missing.append(hook.name)
                continue
            setattr(module, hook.attr, hook.wrap(tracer, target))
            installed.append((module, hook.attr, target))
        yield tracer
    finally:
        for module, attr, target in reversed(installed):
            setattr(module, attr, target)


@dataclass
class PathTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Aggregate:
    """Span totals and counts grouped by span path (``a/b/c``).

    Every query raises ``Absent`` when nothing it asks about was recorded.
    """

    def __init__(self, tracer: Tracer):
        self.missing = frozenset(tracer.missing)
        self.by_path: dict[str, PathTotals] = {}
        self.counter_names: set[str] = set()
        for span in tracer.spans:
            totals = self.by_path.setdefault(span.path, PathTotals())
            totals.calls += 1
            totals.total_s += span.duration_s
            totals.self_s += span.self_s
            for key, n in span.counts.items():
                totals.counts[key] = totals.counts.get(key, 0) + n
                self.counter_names.add(key)

    def _paths(self, name: str, parent: str | None = None) -> list[PathTotals]:
        found = []
        for path, totals in self.by_path.items():
            segments = path.split("/")
            if segments[-1] != name:
                continue
            if parent is not None and (len(segments) < 2 or segments[-2] != parent):
                continue
            found.append(totals)
        if not found:
            raise Absent(name if parent is None else f"{parent}/{name}")
        return found

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(t.calls for t in self._paths(name, parent))

    def total_ms(self, name: str, parent: str | None = None) -> float:
        return 1e3 * sum(t.total_s for t in self._paths(name, parent))

    def self_ms(self, name: str, parent: str | None = None) -> float:
        return 1e3 * sum(t.self_s for t in self._paths(name, parent))

    def count(self, counter: str, name: str, parent: str | None = None) -> int:
        """A counter kept on the spans called ``name`` themselves."""
        return sum(t.counts.get(counter, 0) for t in self._paths(name, parent))

    def count_under(self, hook_name: str, under: str) -> int:
        """Calls of a counter hook made anywhere inside spans called ``under``."""
        if hook_name in self.missing or hook_name not in self.counter_names:
            raise Absent(hook_name)
        found = False
        n = 0
        for path, totals in self.by_path.items():
            if under in path.split("/"):
                found = True
                n += totals.counts.get(hook_name, 0)
        if not found:
            raise Absent(under)
        return n

    def self_table_ms(self) -> dict[str, float]:
        """Self time per span name; the values add up to the root spans' time."""
        table: dict[str, float] = {}
        for path, totals in self.by_path.items():
            name = path.rsplit("/", 1)[-1]
            table[name] = table.get(name, 0.0) + 1e3 * totals.self_s
        return table


def write_spans(tracer: Tracer, path) -> None:
    """Write every span as one JSON line, times in ms from the first span."""
    origin = tracer.spans[0].start if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as out:
        for s in tracer.spans:
            out.write(
                json.dumps(
                    {
                        "id": s.id,
                        "parent": s.parent,
                        "name": s.name,
                        "start_ms": round(1e3 * (s.start - origin), 4),
                        "dur_ms": round(1e3 * s.duration_s, 4),
                        "self_ms": round(1e3 * s.self_s, 4),
                        "counts": s.counts,
                    }
                )
                + "\n"
            )
