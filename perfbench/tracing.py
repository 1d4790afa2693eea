"""Span tracing from outside the program.

A :class:`Tracer` wraps public functions and methods of the program
(registered with :meth:`Tracer.target`) so every call records a span: name, start, end and
the span that was open around it on the same thread.  Spans stay in
memory while the benchmark runs and are written out at the end
(:meth:`Tracer.dump`).  A layer's *self* time is its span duration
minus the part of that interval its child spans cover.

Wrappers are installed only inside :meth:`Tracer.active`; outside it
the program runs its own, unwrapped functions.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: (name, start, end, parent index or -1, thread id)
Span = Tuple[str, float, float, int, int]


def covered(start: float, end: float, children: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of child intervals."""
    total = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        lo = max(c_start, reach)
        hi = min(c_end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span: duration minus child coverage."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        out.append((end - start) - covered(start, end, children.get(index, ())))
    return out


class Tracer:
    """In-memory span recorder with install/restore of wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._targets: List[Tuple[object, str, str]] = []
        self._installed: List[Tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> callback(result) -> number, summed into
        #: ``counts[name]`` after each call: a counter taken at the
        #: same boundary as the span (bytes per frame, frames per read).
        self._observers: Dict[str, object] = {}
        self.counts: Dict[str, float] = {}

    def target(self, owner: object, attr: str, name: str, observe=None) -> None:
        """Register ``owner.attr`` to be traced as span ``name``."""
        self._targets.append((owner, attr, name))
        if observe is not None:
            self._observers[name] = observe

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, func, name: str):
        observe = self._observers.get(name)
        spans = self.spans
        counts = self.counts
        lock = self._lock
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            with lock:
                index = len(spans)
                spans.append((name, 0.0, 0.0, parent, threading.get_ident()))
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, spans[index][4])
            if observe is not None:
                amount = observe(result)
                with lock:
                    counts[name] = counts.get(name, 0) + amount
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        """Install every registered wrapper for the duration."""
        for owner, attr, name in self._targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            func = original.__func__ if isinstance(original, staticmethod) else original
            wrapped = self._wrapper(func, name)
            if isinstance(original, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))
        try:
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds, observed count."""
        out: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(
                span[0], {"count": 0, "total_s": 0.0, "self_s": 0.0, "observed": 0}
            )
            row["count"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += own
        for name, amount in self.counts.items():
            if name in out:
                out[name]["observed"] = amount
        return out

    def self_s(self, *names: str) -> float:
        """Summed self seconds of the named spans."""
        summary = self.summary()
        return sum(summary.get(name, {}).get("self_s", 0.0) for name in names)

    def dump(self, path: Path, meta: Optional[dict] = None) -> None:
        """Write every span as compact JSON (name table + rows)."""
        names: Dict[str, int] = {}
        rows = []
        for name, start, end, parent, thread in self.spans:
            key = names.setdefault(name, len(names))
            rows.append([key, round(start, 9), round(end, 9), parent, thread])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "meta": meta or {},
                    "names": list(names),
                    "fields": ["name", "start_s", "end_s", "parent", "thread"],
                    "spans": rows,
                },
                separators=(",", ":"),
            )
        )
