"""In-memory spans around calls into bundletk's public functions.

``Tracer.patch`` replaces each traced function, wherever a bundletk module
holds a reference to it, by a wrapper that records a span, and puts the
originals back on exit; nothing in ``src`` changes.  A span is (name, start,
end, parent, op id, error, main thread).  Spans opened in a worker thread
without a parent of their own take the innermost open span of the main
thread, so fuzz trials run by the thread pool hang under the ``fuzz`` call
that started them.  Worker spans overlap one another and include waiting
for the interpreter lock, so self times and layer sums use main-thread
spans only; a thread-pool call counts whole as its caller's self time.
Counts are likewise taken on the main thread only.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
import tracemalloc
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, op, error, main]
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()  # name -> max value
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        main = threading.current_thread() is self._main
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            self.spans.append([name, time.perf_counter(), None, parent, self.op, None, main])
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, error) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = error
        self._stack().pop()

    def count(self, key: str, value=1) -> None:
        with self._lock:
            self.counts[key] += value

    def peak(self, key: str, value) -> None:
        with self._lock:
            self.peaks[key] = max(self.peaks[key], value)

    def in_main_thread(self) -> bool:
        return threading.current_thread() is self._main

    def wrap(self, name: str, fn, hook=None, memory: bool = False):
        """``fn`` inside a span named ``name``, or ``name(args, kwargs)``.

        ``hook(tracer, args, kwargs, result)`` records counts, on the main
        thread only, so counts match the times they are divided by.
        ``memory`` also records the tracemalloc peak, also on the main
        thread only, since tracemalloc is process-wide.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            measure = memory and self.in_main_thread() and not tracemalloc.is_tracing()
            index = self.open(name(args, kwargs) if callable(name) else name)
            error = None
            if measure:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak(self.spans[index][0] + ".peak_bytes", peak)
                self.close(index, error)
            if hook is not None and self.in_main_thread():
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self, namespaces, targets):
        """Replace every reference to each target function in ``namespaces``.

        ``targets`` maps (owner, attribute) to a function that builds the
        replacement from the original found there; the same replacement is
        put wherever else the original is referenced.
        """
        replacements = {}
        for (owner, attr), build in targets.items():
            fn = getattr(owner, attr)
            replacements[id(fn)] = (fn, build(fn))
        saved = []
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    saved.append((ns, attr, value))
                    setattr(ns, attr, replacements[id(value)][1])
        try:
            yield
        finally:
            for ns, attr, value in saved:
                setattr(ns, attr, value)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list:
    """(span, duration minus the part of it its children cover) for every
    main-thread span, counting main-thread children only."""
    children: dict = {}
    for index, span in enumerate(spans):
        if span[3] is not None and span[6]:
            children.setdefault(span[3], []).append(index)
    out = []
    for index, (name, start, end, *_rest) in enumerate(spans):
        if not spans[index][6]:
            continue
        covered, reach = 0.0, start
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((spans[index], (end - start) - covered))
    return out


def outermost(spans, names) -> list:
    """Main-thread spans named in ``names`` whose ancestors carry none of
    those names."""
    names = set(names)
    picked = []
    for span in spans:
        if span[0] not in names or not span[6]:
            continue
        parent, inside = span[3], False
        while parent is not None:
            if spans[parent][0] in names:
                inside = True
                break
            parent = spans[parent][3]
        if not inside:
            picked.append(span)
    return picked
