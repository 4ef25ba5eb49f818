"""Spans around the calls into fhtp's layers, recorded from outside the package.

A span is (id, parent id, name, start, end, request id, count). Names are
``<layer>.<function>``, with layers named after fhtp's modules, so a span's
layer is the text before the first dot. ``count`` carries a size taken from
the call's result where one is registered (vectors enumerated, refined
vectors kept).

`Tracer.patched` swaps each traced function for a recording wrapper wherever
an fhtp module binds it, and restores the originals on exit. Spans stay in
memory until `Tracer.write` is called.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    request: int | None
    count: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.request: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                self._stack.pop()
                size = count(result) if count is not None and result is not None else None
                self.spans[sid] = Span(sid, parent, name, start, end, self.request, size)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self, targets: dict[str, tuple[object, str, Callable | None]]):
        """Trace ``targets``: span name -> (owner, attribute, result counter).

        A module-level function is replaced in every loaded ``fhtp`` module
        that binds it; a method is replaced on its class.
        """
        undo: list[tuple[object, str, object]] = []
        try:
            for name, (owner, attr, count) in targets.items():
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, count)
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    holders = [
                        mod
                        for key, mod in list(sys.modules.items())
                        if (key == "fhtp" or key.startswith("fhtp.")) and getattr(mod, attr, None) is original
                    ]
                for holder in holders:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.finished():
                fh.write(json.dumps(s._asdict()) + "\n")
