"""In-memory span tracer for the benchmark's traced runs.

A span is ``(run, id, parent, name, start, end)``: ``run`` is shared by every
span of one traced iteration, ``parent`` is the span that was open on the
same thread when this one began.  Spans stay in memory and are written out
once, when the benchmark ends (:meth:`Tracer.dump`).

The benchmark records spans from outside the program: :func:`patched`
temporarily replaces module attributes the public entry points look up
(``repro.parallel.solve.source_fingerprint``, ``FlowTimeEngine.run``, ...)
with wrappers that open a span around the original call, and restores them
afterwards.  The wrapped code is the same code, so a traced iteration must
produce byte-identical output to an untraced one; the runner checks that.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

#: Reusable no-op context for untraced code paths.
NO_SPAN = nullcontext()

_MISSING = object()


class Tracer:
    """Collects spans of one benchmark process, grouped by run id."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, "int | None", str, float, float]] = []
        self.run_id = ""
        self._local = threading.local()
        #: ``next()`` on a count is atomic under the interpreter lock.
        self._ids = itertools.count()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> "_Span":
        """Context manager recording one span named ``name``."""
        return _Span(self, name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_iter(self, name: str, iterable: Iterable) -> Iterator:
        """Yield from ``iterable`` with one span around each ``next()``."""
        iterator = iter(iterable)
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    def wrap_generator_fn(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.wrap_iter(name, fn(*args, **kwargs))

        return traced

    def run_spans(self, run_id: str) -> list[tuple]:
        return [span for span in self.spans if span[0] == run_id]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"run": run, "id": sid, "parent": parent, "name": name, "start": start, "end": end}
            for run, sid, parent, name, start, end in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


class _Span:
    """One open span; a plain class because it is entered thousands of times
    per traced iteration and a generator-based context costs several times
    more."""

    __slots__ = ("tracer", "name", "span_id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        stack = tracer._stack()
        self.span_id = next(tracer._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.span_id)
        self.start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        tracer.spans.append(
            (tracer.run_id, self.span_id, self.parent, self.name, self.start, end)
        )


def self_times(spans: Sequence[tuple]) -> dict[str, float]:
    """Per span name: summed duration minus the time its child spans cover.

    Children of one span run on the span's own thread, one after another,
    so the covered time is the sum of their durations.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for _, span_id, _, name, start, end in spans:
        totals[name] += (end - start) - child_time[span_id]
    return dict(totals)


@contextmanager
def patched(targets: Sequence[tuple[object, str, Callable]]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` for each target, then restore."""
    saved = []
    try:
        for owner, attr, make in targets:
            own = vars(owner).get(attr, _MISSING)
            saved.append((owner, attr, own))
            setattr(owner, attr, make(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
