"""In-memory span tracer that wraps a package's public functions from outside.

`Tracer.patch_package` replaces every public function, and every public
method of every public class, defined in the package's modules with a
wrapper that records one span per call: name, start, end and the span that
was open when it started. A function imported into several modules is
rebound in each of them, so every lookup sees the wrapper. `restore`
puts every original object back; untraced runs therefore measure the
unpatched code.

Spans stay in parallel lists until the run ends. The tracer assumes one
thread: the open-span stack is shared, so a wrapped call made on another
thread would get a wrong parent. Such calls are counted in
`foreign_calls`, and a run that has any is not reported.
"""
from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict

_WRAPPED = "__perfbench_wrapped__"


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict = defaultdict(float)   # (span name, counter) -> sum
        self.keys: dict = defaultdict(set)       # span name -> distinct call keys
        self.foreign_calls = 0                   # wrapped calls off the owning thread
        self._owner = threading.get_ident()
        self._stack: list[int] = []
        self._patches: list = []                 # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (used by tests and synthetic spans)."""
        self.names.append(name)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.names) - 1

    def wrap(self, name: str, fn, count=None, key=None):
        """Wrap fn so each call records a span named `name`.

        count(args, kwargs, result) returns {counter: amount} to add;
        key(args, kwargs) returns a hashable key whose distinct values
        are kept per span name.
        """
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)
        clock, get_ident, owner = time.perf_counter, threading.get_ident, self._owner

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != owner:
                self.foreign_calls += 1
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                for counter, amount in count(args, kwargs, result).items():
                    self.counts[name, counter] += amount
            if key is not None:
                self.keys[name].add(key(args, kwargs))
            return result

        setattr(traced, _WRAPPED, True)
        return traced

    # -- patching --------------------------------------------------------------

    def patch_package(self, modules, counters=None, keys=None, properties=()) -> None:
        """Wrap every public function and public method defined in `modules`.

        Span names are "<module tail>.<function>" and
        "<module tail>.<Class>.<method>"; `__post_init__` counts as public
        because dataclass construction work lives there. Properties are
        wrapped only when their span name is in `properties`. counters and
        keys map span names to the count/key callbacks of `wrap`.
        """
        counters, keys = counters or {}, keys or {}
        prefix = modules[0].__name__.split(".")[0] + "."
        wrappers = {}
        for mod in modules:
            tail = mod.__name__[len(prefix):]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    span = f"{tail}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(span, obj, counters.get(span),
                                                        keys.get(span)))
                elif inspect.isclass(obj):
                    self._patch_class(obj, f"{tail}.{attr}", counters, keys, properties)
        # rebind at every place the original is looked up
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _patch_class(self, cls, span_prefix: str, counters, keys, properties) -> None:
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or attr == "__post_init__"
            if not public:
                continue
            span = f"{span_prefix}.{attr}"
            wrap = functools.partial(self.wrap, span, count=counters.get(span),
                                     key=keys.get(span))
            if inspect.isfunction(raw):
                new = wrap(raw)
            elif isinstance(raw, classmethod):
                new = classmethod(wrap(raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(wrap(raw.__func__))
            elif isinstance(raw, property) and span in properties:
                new = property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def restore(self) -> None:
        """Put back every object patch_package replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.names]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                kids[parent].append(sid)
        return kids

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        kids = self.children()
        out = []
        for sid, (start, end) in enumerate(zip(self.starts, self.ends)):
            inner = covered((self.starts[c], self.ends[c]) for c in kids[sid])
            out.append(end - start - inner)
        return out

    def has_ancestor(self, sid: int, match) -> bool:
        parent = self.parents[sid]
        while parent >= 0:
            if match(self.names[parent]):
                return True
            parent = self.parents[parent]
        return False

    def dump(self, path, extra: dict) -> None:
        """Write spans as [id, parent, name, start, end] rows plus `extra`."""
        rows = [[i, p, n, s, e] for i, (p, n, s, e) in
                enumerate(zip(self.parents, self.names, self.starts, self.ends))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=rows), fh)


def is_wrapper(obj) -> bool:
    """True for a tracer wrapper, or a method descriptor holding one."""
    inner = getattr(obj, "__func__", None) or getattr(obj, "fget", None)
    return bool(getattr(obj, _WRAPPED, False) or getattr(inner, _WRAPPED, False))
