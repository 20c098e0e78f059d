"""Spans around the library's public functions, recorded from outside.

A ``Tracer`` replaces each traced function at every place it is bound:
module attributes (``gw.validate`` as well as ``spaces.validate``) and
module-level dicts such as ``cli._BOUND_FNS``.  Spans are kept in memory
as ``(name, start, end, parent, thread id)`` and summarised at the end.

Rules:
  * A nested call of a function that already has an open span on the same
    thread (recursion, direct or through another traced function) gets no
    span of its own, so its time counts only in the outermost span.
  * A span opened on a worker thread with no open span of its own takes
    the main thread's outermost open span as parent, so the thread pool of
    ``matrix`` does not show up as CLI self time.
  * Self time is a span's duration minus the union of its children's
    intervals (children on two threads may overlap).
"""

from __future__ import annotations

import functools
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._root = None
        self._patched = []
        self._lock = threading.Lock()

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.active = set()
        return st

    def wrap(self, fn, name):
        """Return a traced stand-in for fn.  `name` is the span name or a
        callable mapping the call's (args, kwargs) to one."""
        tracer = self
        key = id(fn)
        namer = name if callable(name) else (lambda args, kwargs: name)
        main = threading.main_thread()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            if key in st.active:
                return fn(*args, **kwargs)
            is_root = not st.stack and threading.current_thread() is main
            parent = st.stack[-1] if st.stack else tracer._root
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            if is_root:
                tracer._root = idx
            st.stack.append(idx)
            st.active.add(key)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.stack.pop()
                st.active.discard(key)
                if is_root:
                    tracer._root = None
                tracer.spans[idx] = (namer(args, kwargs), t0, t1, parent,
                                     threading.get_ident())

        return traced

    def install(self, targets, package):
        """Patch every binding of each target function inside `package`.

        targets: iterable of (function, span name or namer)."""
        wrappers = {id(fn): self.wrap(fn, name) for fn, name in targets}
        originals = {id(fn): fn for fn, _ in targets}
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is originals[id(value)]:
                    setattr(mod, attr, wrappers[id(value)])
                    self._patched.append((vars(mod), attr, value))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers and v is originals[id(v)]:
                            value[k] = wrappers[id(v)]
                            self._patched.append((value, k, v))

    def uninstall(self):
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched = []


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarise(spans):
    """Per span name: inclusive seconds, self seconds and call count."""
    kids = {}
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            kids.setdefault(parent, []).append((t0, t1))
    out = {}
    for idx, (name, t0, t1, _, _) in enumerate(spans):
        rec = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        rec["s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - _covered(kids.get(idx, ()), t0, t1)
        rec["calls"] += 1
    return out


def count_children(spans, child, parent):
    """Number of spans named `child` whose parent span is named `parent`."""
    return sum(1 for name, _, _, p, _ in spans
               if name == child and p is not None and spans[p][0] == parent)
