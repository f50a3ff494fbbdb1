"""Span-stack tracer for the stage objects of a staircase chain.

Every operator closure in the package looks up ``f.fn`` on its operand at
call time, so replacing the ``fn`` attribute of a stage object puts a timer
around every call into that stage, from whichever caller it comes.  Spans
nest on one stack: a span's self time is its duration minus the time of the
wrapped spans opened inside it, which stays right when a stage has two
callers (``ic`` is called by both ``p`` and ``lic``).

The tracer assumes one evaluating thread; the benchmark runs with
STAIRCASE_THREADS unset, so ``eval_rows`` never splits a batch.
"""

from __future__ import annotations

import time

FIELDS = ("calls", "rows", "incl_s", "self_s")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, rows, incl_s, self_s]
        self._stack: list[float] = []      # wrapped child time of each open span
        self._wrapped: list = []           # (object, original fn)

    def wrap(self, name: str, obj) -> None:
        """Time every call of ``obj.fn`` under ``name`` until ``unwrap_all``."""
        inner = obj.fn
        stat = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        stack = self._stack

        def fn(th):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return inner(th)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat[0] += 1
                stat[1] += th.shape[0]
                stat[2] += dt
                stat[3] += dt - child

        obj.fn = fn
        self._wrapped.append((obj, inner))

    def unwrap_all(self) -> None:
        for obj, inner in reversed(self._wrapped):
            obj.fn = inner
        self._wrapped.clear()

    def take(self) -> dict:
        """Return the counts gathered since the last ``take`` and reset them."""
        out = {name: dict(zip(FIELDS, stat)) for name, stat in self.stats.items()}
        for stat in self.stats.values():
            stat[:] = [0, 0, 0.0, 0.0]
        return out

