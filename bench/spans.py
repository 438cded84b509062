"""In-memory span recording around functions the benchmark wraps.

A :class:`Tracer` replaces module attributes (the binding a caller looks up
at call time) with wrappers that record one span per call and otherwise
pass arguments, return values and exceptions through unchanged.  Spans stay
in memory until :meth:`Tracer.dump` writes them once, at the end of the run.

A span is ``(id, parent, name, start, end, peak_rss_start_kb,
peak_rss_end_kb)`` with times from ``time.perf_counter``.  The parent is the
innermost open span on the calling thread; a thread with no open span (a
worker of the program's pool) takes the innermost open span of the thread
that created the tracer, which is blocked waiting for that work.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import resource
import threading
import time
from typing import Callable, Iterator


def peak_rss_kb() -> int:
    """Peak resident memory of this process so far, in KiB.

    ``VmHWM`` belongs to the process's own address space.  ``ru_maxrss`` is
    the fallback only: Linux carries it over from the parent through fork
    and exec, so a job started by a large parent would report the parent.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, rss: bool) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = [len(self.spans), parent, name, time.perf_counter(), None, peak_rss_kb() if rss else None, None]
        self.spans.append(span)
        stack.append(span[0])
        return span

    def _close(self, span: list, rss: bool) -> None:
        span[4] = time.perf_counter()
        if rss:
            span[6] = peak_rss_kb()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        span = self._open(name, False)
        try:
            yield
        finally:
            self._close(span, False)

    def wrap(self, name: str, fn: Callable, rss: bool = False) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, rss)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span, rss)

        return wrapper

    def install(self, targets: list[tuple[str, str, bool]]) -> None:
        """Wrap ``module.attr`` for each ``(module, attr, rss)`` target.

        A target whose module or attribute no longer exists is recorded in
        :attr:`absent` and skipped.
        """
        for module_name, attr, rss in targets:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            setattr(module, attr, self.wrap(name, fn, rss))

    def dump(self, path: str) -> None:
        # One dumps() call: json.dump writes chunk by chunk and is several times slower.
        record = {"run_id": self.run_id, "absent": self.absent,
                  "spans": [[self.run_id, *s] for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record))


class SpanSet:
    """Read-only queries over the spans of one traced run."""

    def __init__(self, spans: list[list]):
        # Stored rows are (run_id, id, parent, name, start, end, rss0, rss1).
        self.rows = spans
        self.children: dict[int, list[list]] = {}
        for row in spans:
            if row[2] is not None:
                self.children.setdefault(row[2], []).append(row)

    def named(self, name: str) -> list[list]:
        return [row for row in self.rows if row[3] == name]

    def under(self, ancestor: list, name: str) -> list[list]:
        """Spans called ``name`` anywhere below ``ancestor``."""
        found, todo = [], list(self.children.get(ancestor[1], []))
        while todo:
            row = todo.pop()
            if row[3] == name:
                found.append(row)
            todo.extend(self.children.get(row[1], []))
        return sorted(found, key=lambda r: r[4])

    def roots(self) -> list[list]:
        return [row for row in self.rows if row[2] is None]

    def self_time(self, row: list) -> float:
        """Duration minus the part of it covered by child spans."""
        covered, cursor = 0.0, row[4]
        for child in sorted(self.children.get(row[1], []), key=lambda r: r[4]):
            start, end = max(child[4], cursor), min(child[5], row[5])
            if end > start:
                covered += end - start
                cursor = end
        return (row[5] - row[4]) - covered


def duration(row: list) -> float:
    return row[5] - row[4]


def rss_growth_mb(row: list) -> float:
    return (row[7] - row[6]) / 1024.0
