"""In-memory spans around calls into the ``cptk`` modules.

The benchmark traces the program from its own files: :func:`install`
replaces public functions and methods with timing wrappers, leaving the
program's source untouched.  Each wrapped call pushes a frame on one
stack, so a span's self time is its duration minus the durations of the
wrapped calls made directly inside it.  Times are integer nanoseconds
from one monotonic clock, so no self time can come out negative.

Very hot callees (scalar membership, ranking, pairing, the DFA kernel,
family expression lookup and canonical keys) keep no span record per
call; their calls and time are aggregated per parent edge instead, which
keeps memory bounded.  Every other call is kept as a span record up to
``SPAN_CAP`` records and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

SPAN_CAP = 200_000


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``attr`` is ``"func"`` or ``"Class.method"``."""

    module: str
    attr: str
    name: str
    hot: bool = False
    hook: object = None


class Tracer:
    """Span stack, per-name aggregates and per-edge call counts."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.outer_ns: list[int] = []     # time not nested in the same name
        self._depth: list[int] = []
        self.edges: dict[tuple[int, int], list[int]] = {}  # (parent, child) -> [calls, ns]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []      # (id, parent id, name index, start, end)
        self.dropped = 0
        self.installed: list[str] = []
        self.absent: list[str] = []
        self._stack: list[list] = []      # frames [name index, child ns, span id]
        self._next_id = 1
        self._undo: list[tuple] = []

    # -- bookkeeping -------------------------------------------------------

    def name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self.names)
            self._index[name] = idx
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.outer_ns.append(0)
            self._depth.append(0)
        return idx

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def parent_name(self) -> str | None:
        return self.names[self._stack[-1][0]] if self._stack else None

    def wrap(self, name: str, fn, hot: bool = False, hook=None):
        idx = self.name_index(name)
        stack, depth, edges = self._stack, self._depth, self.edges
        calls, self_ns, outer_ns = self.calls, self.self_ns, self.outer_ns
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if hot:   # children link to the nearest recorded ancestor
                span_id = stack[-1][2] if stack else 0
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [idx, 0, span_id]
            depth[idx] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[idx] -= 1
                dur = end - start
                calls[idx] += 1
                self_ns[idx] += dur - frame[1]
                if depth[idx] == 0:
                    outer_ns[idx] += dur
                parent_id = 0
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent_id = parent[2]
                    edge = edges.get((parent[0], idx))
                    if edge is None:
                        edges[(parent[0], idx)] = [1, dur]
                    else:
                        edge[0] += 1
                        edge[1] += dur
                if not hot:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((span_id, parent_id, idx, start, end))
                    else:
                        tracer.dropped += 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def run(self, name: str, fn):
        """Call ``fn()`` inside a span the benchmark itself opens."""
        return self.wrap(name, fn)()

    # -- installing wrappers ---------------------------------------------

    def install(self, targets, package: str = "cptk") -> None:
        """Wrap every target that exists; record which ones do not."""
        for t in targets:
            try:
                module = importlib.import_module(t.module)
            except ImportError:
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            if "." in t.attr:
                cls_name, meth = t.attr.split(".", 1)
                cls = getattr(module, cls_name, None)
                if cls is None or not callable(getattr(cls, meth, None)):
                    self.absent.append(f"{t.module}.{t.attr}")
                    continue
                self._wrap_method(cls, meth, t)
            else:
                original = getattr(module, t.attr, None)
                if original is None or not callable(original):
                    self.absent.append(f"{t.module}.{t.attr}")
                    continue
                wrapped = self.wrap(t.name, original, t.hot, t.hook)
                # replace the name in every module that bound it, so that
                # ``from .langs import member`` call sites are traced too
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == package
                                           or mod_name.startswith(package + ".")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            self._undo.append((mod, key, original))
            self.installed.append(f"{t.module}.{t.attr}")

    def _wrap_method(self, cls, meth, target) -> None:
        # the class and every subclass that overrides the method
        todo, seen = [cls], set()
        while todo:
            c = todo.pop()
            if c in seen:
                continue
            seen.add(c)
            todo.extend(c.__subclasses__())
            if meth in vars(c):
                original = vars(c)[meth]
                setattr(c, meth, self.wrap(target.name, original, target.hot,
                                           target.hook))
                self._undo.append((c, meth, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- reading the aggregates ------------------------------------------

    def calls_of(self, name: str) -> int:
        idx = self._index.get(name)
        return 0 if idx is None else self.calls[idx]

    def outer_s(self, name: str) -> float:
        idx = self._index.get(name)
        return 0.0 if idx is None else self.outer_ns[idx] / 1e9

    def self_s(self, name: str) -> float:
        idx = self._index.get(name)
        return 0.0 if idx is None else self.self_ns[idx] / 1e9

    def edge_calls(self, parent: str, child: str) -> int:
        p, c = self._index.get(parent), self._index.get(child)
        if p is None or c is None:
            return 0
        edge = self.edges.get((p, c))
        return 0 if edge is None else edge[0]

    def dump(self, fh) -> None:
        """Write span records, then per-edge aggregates, as JSON lines."""
        import json

        names = self.names
        for span_id, parent_id, idx, start, end in self.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent_id,
                                 "name": names[idx], "start_ns": start,
                                 "end_ns": end}) + "\n")
        for (p, c), (n, ns) in sorted(self.edges.items()):
            fh.write(json.dumps({"edge": [names[p], names[c]], "calls": n,
                                 "ns": ns}) + "\n")

