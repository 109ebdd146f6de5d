"""Wall-time spans and reversible attribute patches for the benchmark.

`Spans` records named spans with their parent in memory; a disabled recorder
hands out a no-op context and records nothing.  `Patches` replaces attributes
on modules or instances and puts every original back on `restore()`.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict
from time import perf_counter

_MISSING = object()


class _Span:
    __slots__ = ("_spans", "_name", "_index", "seconds")

    def __init__(self, spans: "Spans", name: str):
        self._spans = spans
        self._name = name

    def __enter__(self):
        spans = self._spans
        self._index = len(spans.names)
        spans.names.append(self._name)
        spans.parents.append(spans._open[-1] if spans._open else -1)
        spans.ends.append(0.0)
        spans._open.append(self._index)
        spans.starts.append(perf_counter())
        return self

    def __exit__(self, *exc):
        spans = self._spans
        spans.ends[self._index] = end = perf_counter()
        spans._open.pop()
        self.seconds = end - spans.starts[self._index]
        return False


class Spans:
    """In-memory span recorder: name, start, end and parent of every span."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return _Span(self, name)

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Durations of the spans called `name`, optionally only those whose
        parent span is called `parent`."""
        return [self.ends[i] - self.starts[i]
                for i, n in enumerate(self.names)
                if n == name and (parent is None or (
                    self.parents[i] >= 0
                    and self.names[self.parents[i]] == parent))]

    def self_times(self, name: str) -> list[float]:
        """Duration minus the time covered by direct child spans."""
        children = defaultdict(float)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - children[i]
                for i, n in enumerate(self.names) if n == name]

    def median(self, name: str, scale: float = 1.0) -> float:
        values = self.durations(name)
        return statistics.median(values) * scale if values else 0.0


class Patches:
    """Attribute replacements that are undone, newest first, by restore()."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr with make_wrapper(current value)."""
        self.set(owner, attr, make_wrapper(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
