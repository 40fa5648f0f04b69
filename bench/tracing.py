"""In-memory span tracer used by the benchmark's traced run.

Spans are recorded from the benchmark's own code: :meth:`Tracer.wrap`
replaces a function in the module namespace it is looked up from with a
wrapper that opens a span around each call.  Nothing in ``nss_lab`` is
edited.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional


@dataclass
class Span:
    trace: str
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on the main thread and counters from any thread."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[Span] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def open(self, name: str) -> Optional[Span]:
        if threading.get_ident() != self._main:
            return None
        parent = self._stack[-1].id if self._stack else None
        span = Span(self.trace_id, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Optional[Span]) -> None:
        if span is not None:
            span.end = time.perf_counter()
            self._stack.pop()

    def traced(self, name: str, fn: Callable,
               on_return: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``on_return(result, *args, **kwargs)``
        may record counts and returns the value handed to the caller."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_return is not None:
                result = on_return(result, *args, **kwargs)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str,
             on_return: Optional[Callable] = None) -> None:
        setattr(owner, attr, self.traced(name, getattr(owner, attr), on_return))

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped with a call counter and no span (for hot callables)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # --- queries ------------------------------------------------------------

    def named(self, prefix: str) -> List[Span]:
        return [s for s in self.spans if s.name == prefix or s.name.startswith(prefix + ".")]

    def total(self, prefix: str) -> float:
        """Summed duration of the spans named ``prefix`` or ``prefix.*``."""
        return sum(s.duration for s in self.named(prefix))

    def self_time(self, span: Span) -> float:
        """Span duration minus the part of it that its child spans cover."""
        kids = sorted((c.start, c.end) for c in self.spans if c.parent == span.id)
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in kids:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return span.duration - covered

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"trace": self.trace_id,
                       "spans": [asdict(s) for s in self.spans],
                       "counts": dict(self.counts)}, fh, indent=1)
