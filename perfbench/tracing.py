"""In-memory spans around the harness's calls into the library.

A span is ``(name, start_ns, end_ns, op)``.  Library calls are recorded by
wrapping the functions the harness calls; the harness adds its own spans
for each operation (``bench.op``) and each leg of it.  Parents are found
after the run from interval containment within one operation, so the hot
path only appends a tuple.  Nothing inside the library is instrumented:
a library span has no children and its self time is its duration.

Spans keep raw clock readings.  :meth:`Tracer.mark_slowdown` marks the
slowdown factor measured right after the spans added since the previous
mark, and :meth:`Tracer.summary` divides their durations by it, like the
untraced metrics.
"""

from __future__ import annotations

import collections
import statistics
import time

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self.errors: collections.Counter = collections.Counter()
        self.library: set[str] = set()
        self.op = -1
        self._marks: list[tuple[int, float]] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span per call under ``name``."""
        spans = self.spans
        clock = time.perf_counter_ns
        self.library.add(name)

        def traced(*args):
            start = clock()
            try:
                return fn(*args)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                spans.append((name, start, clock(), self.op))

        return traced

    def add(self, name: str, start: int, end: int) -> None:
        self.spans.append((name, start, end, self.op))

    def mark_slowdown(self, factor: float) -> None:
        """Spans added since the last mark ran at ``factor`` times the nominal time."""
        self._marks.append((len(self.spans), factor))

    def _factors(self) -> list[float]:
        factors = [1.0] * len(self.spans)
        begin = 0
        for end, factor in self._marks:
            factors[begin:end] = [factor] * (end - begin)
            begin = end
        return factors

    def _rank(self, name: str) -> int:
        # orders spans that start together: operation, then leg, then library call
        if name == ROOT_SPAN:
            return 0
        return 2 if name in self.library else 1

    def resolve(self) -> tuple[list[int], list[int]]:
        """Parent index and self time of every span, by interval containment."""
        spans = self.spans
        order = sorted(
            range(len(spans)),
            key=lambda i: (spans[i][3], spans[i][1], -spans[i][2], self._rank(spans[i][0])),
        )
        parent = [-1] * len(spans)
        child_ns = [0] * len(spans)
        stack: list[int] = []
        current_op = None
        for i in order:
            _, start, end, op = spans[i]
            if op != current_op:
                stack.clear()
                current_op = op
            while stack and not (spans[stack[-1]][1] <= start and end <= spans[stack[-1]][2]):
                stack.pop()
            if stack:
                parent[i] = stack[-1]
                child_ns[stack[-1]] += end - start
            stack.append(i)
        self_ns = [s[2] - s[1] - c for s, c in zip(spans, child_ns)]
        return parent, self_ns

    def summary(self) -> dict:
        """Per span name: calls, busy and median time; per layer: self time.

        Times are in nanoseconds at the nominal machine speed.
        """
        parent, self_ns = self.resolve()
        durations: dict[str, list[float]] = collections.defaultdict(list)
        layer_self: collections.Counter = collections.Counter()
        for (name, start, end, _), own, factor in zip(self.spans, self_ns, self._factors()):
            durations[name].append((end - start) / factor)
            layer_self[name.split(".", 1)[0]] += own / factor
        names = {
            name: {
                "calls": len(d),
                "busy_ns": sum(d),
                "p50_ns": statistics.median(d),
                "errors": self.errors[name],
            }
            for name, d in durations.items()
        }
        return {"names": names, "layer_self_ns": dict(layer_self), "parent": parent}

    def write(self, path, parent: list[int]) -> None:
        """Write every span, with its parent and slowdown factor, as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\tslowdown\n")
            for i, ((name, start, end, op), factor) in enumerate(zip(self.spans, self._factors())):
                fh.write(f"{i}\t{parent[i]}\t{op}\t{name}\t{start}\t{end}\t{factor:.6f}\n")
