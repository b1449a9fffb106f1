"""In-memory span tracer that wraps the program's public functions from
outside.

:meth:`Tracer.wrap` replaces a class attribute or a module-level name
with a timing wrapper; :meth:`Tracer.restore` puts every original back.
A span is ``[name, start_ns, end_ns, parent, request_id]``; ``parent``
is the span that was open on the same thread when this one began, so a
layer's self time is its duration minus its direct children's.  Spans of
one request share the id of their root span.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

from perfbench.common import BenchError

NAME, START, END, PARENT, RID = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, *,
             rid: Callable[[tuple, dict, Any], str | None] | None = None,
             keep: Callable[[Any], bool] | None = None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``rid(args, kwargs, result)`` names the request a root span
        belongs to; ``keep(result)`` drops spans whose call did no work
        (a queue poll that timed out).  A target that no longer exists
        raises :class:`BenchError`: a layer that a refactor renamed away
        must stop the traced run, not read as a layer that costs nothing.
        """
        if isinstance(owner, ModuleType):
            original = getattr(owner, attr, None)
            raw = original
        else:
            original = owner.__dict__.get(attr)
            raw = original.__func__ if isinstance(
                original, (classmethod, staticmethod)) else original
        if raw is None:
            raise BenchError(f"trace target not found: "
                             f"{getattr(owner, '__name__', owner)}.{attr}")
        wrapper = self._wrapper(raw, name, rid, keep)
        if isinstance(original, classmethod):
            wrapper = classmethod(wrapper)
        elif isinstance(original, staticmethod):
            wrapper = staticmethod(wrapper)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, func: Callable, name: str, rid, keep) -> Callable:
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span = [name, clock(), 0, stack[-1] if stack else None, None]
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep is None or keep(result):
                if rid is not None:
                    span[RID] = rid(args, kwargs, result)
                spans.append(span)
            return result

        traced.__wrapped__ = func
        return traced

    # ------------------------------------------------------------------
    # Reading the spans
    # ------------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Inclusive seconds of every ``name`` span."""
        return [(s[END] - s[START]) / 1e9 for s in self.spans
                if s[NAME] == name]

    def self_times(self, name: str) -> list[float]:
        """Seconds of every ``name`` span minus its direct children."""
        children: dict[int, int] = defaultdict(int)
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                children[id(parent)] += span[END] - span[START]
        return [(s[END] - s[START] - children[id(s)]) / 1e9
                for s in self.spans if s[NAME] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)

    def request_id(self, span: list[Any]) -> str | None:
        """The id of the root span above ``span``."""
        while span[PARENT] is not None and span[RID] is None:
            span = span[PARENT]
        return span[RID]

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start/end ns, parent
        index, request id."""
        index = {id(span): position
                 for position, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = span[PARENT]
                handle.write(json.dumps({
                    "name": span[NAME], "start_ns": span[START],
                    "end_ns": span[END],
                    "parent": None if parent is None
                    else index.get(id(parent)),
                    "request": self.request_id(span),
                }) + "\n")
