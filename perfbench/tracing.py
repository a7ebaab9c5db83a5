"""In-memory span tracer that wraps the program's public entry points.

The traced run patches timing wrappers around the methods each layer
exposes (the program itself records nothing): every call becomes a
span with a name, start, end and the span that was open when it began.
Spans of one served request carry that request's id; a poll span
carries the ids of the requests it answered.  Spans stay in memory and
are written out once, when the run ends.  :meth:`Tracer.restore` puts
every original attribute back, so the untraced run executes the
program's unmodified code.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "args")

    def __init__(self, sid: int, name: str, start: float, parent: Optional[int]):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.args: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables; one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), name, 0.0, stack[-1] if stack else None)
            self.spans.append(span)
        stack.append(span.id)
        span.start = self.clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def traced(self, fn: Callable, name: str,
               describe: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``describe(args, kwargs, result)``
        returns extra span fields (row counts, request ids, bytes)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if describe is not None:
                span.args = describe(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str,
              describe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a class or module attribute defined on
        ``owner`` itself) with a traced wrapper until :meth:`restore`."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, name, describe))

    def replace(self, owner, attr: str, value) -> None:
        """Swap ``owner.attr`` for ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis --------------------------------------------------------
    def named(self, *names: str) -> List[Span]:
        wanted = set(names)
        return [s for s in self.spans if s.name in wanted]

    def self_times(self) -> Dict[int, float]:
        """Span id → its duration minus the time its child spans cover."""
        children = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.duration
        return {s.id: s.duration - children[s.id] for s in self.spans}

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, **s.args,
                }) + "\n")
