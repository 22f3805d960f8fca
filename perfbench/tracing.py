"""Spans and counters recorded from outside the program.

A traced run replaces the names one module uses to call another (for
example ``lexicon.encode`` or ``cli.is_ethiopic``) with wrappers, and
puts the originals back afterwards.  No program file changes.

Three kinds of wrapper keep the cost in proportion to how often a name
is called:

* span: records (name, start, end, parent, op id) for calls made once
  per operation or per word;
* timed: per-character or per-candidate calls only add their count and
  inclusive time, and charge that time to the enclosing span so its
  self time stays right;
* counted: the cheapest calls are only counted.

Spans are kept in flat arrays and written out when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_hidden = array("q")   # time of timed calls directly inside
        self.counts: Counter = Counter()
        self.timed_ns: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self._timed_depth = 0
        self.op = -1        # id of the operation being traced; spans share it

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_hidden.append(0)
            self.span_end.append(0)
            stack.append(sid)
            self.span_start.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[sid] = _now()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def timed(self, name: str, fn):
        counts = self.counts
        totals = self.timed_ns
        stack = self._stack

        def wrapper(*args, **kwargs):
            counts[name] += 1
            self._timed_depth += 1
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                took = _now() - start
                self._timed_depth -= 1
                totals[name] += took
                if self._timed_depth == 0 and stack:
                    self.span_hidden[stack[-1]] += took

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def reset_counts(self) -> None:
        self.counts.clear()
        self.timed_ns.clear()

    # -- derived figures -------------------------------------------------

    def totals(self, min_op: int = 0) -> dict[str, tuple[int, int, int]]:
        """name -> (spans, inclusive ns, self ns) over operations >= min_op."""
        child = [0] * len(self.span_name)
        for sid, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[sid] - self.span_start[sid]
        out: dict[str, list[int]] = {}
        for sid, nid in enumerate(self.span_name):
            if self.span_op[sid] < min_op:
                continue
            took = self.span_end[sid] - self.span_start[sid]
            row = out.setdefault(self.names[nid], [0, 0, 0])
            row[0] += 1
            row[1] += took
            row[2] += took - child[sid] - self.span_hidden[sid]
        return {k: tuple(v) for k, v in out.items()}

    def durations(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        return [self.span_end[s] - self.span_start[s]
                for s, n in enumerate(self.span_name) if n == nid]

    def write(self, path) -> None:
        """Spans as TSV, then the counters and timed totals."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tname\tstart_ns\tend_ns\tparent\top\ttimed_inside_ns\n")
            for sid in range(len(self.span_name)):
                f.write(f"{sid}\t{self.names[self.span_name[sid]]}\t"
                        f"{self.span_start[sid]}\t{self.span_end[sid]}\t"
                        f"{self.span_parent[sid]}\t{self.span_op[sid]}\t"
                        f"{self.span_hidden[sid]}\n")
            for name in sorted(self.counts):
                f.write(f"# count\t{name}\t{self.counts[name]}\t"
                        f"{self.timed_ns.get(name, 0)}\n")


@contextmanager
def patched(replacements):
    """Set ``(module, attribute, value)`` triples, restoring them on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)
