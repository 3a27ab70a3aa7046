"""Out-of-process-boundary tracing for the benchmark.

Nothing under ``src/`` is edited.  The tracer replaces public functions of
the freshly imported ``jacspectra`` modules with wrappers, under the name the
*caller* looks up (``jacspectra.cli.density`` is what ``cmd_theory_spectrum``
calls, ``jacspectra.master.probe_atom`` is what ``master.density`` calls), so
that every call crossing a module boundary is seen.

Two kinds of wrapper:

* span -- records (name, start, end, parent, op id, thread) in memory;
  used for functions called at most a few thousand times per pass;
* counter -- increments a count only; used for functions called ~1e4-1e6
  times per pass (``phi_sq_mean``, ``norm_cdf``, ``smooth_G``), where a span
  per call would cost more than the call.

Self time is a span's duration minus the union of the intervals its child
spans cover.  Spans started on a pool thread whose own stack is empty take
the innermost open span of the main thread as parent (``run_trials`` blocks
in its pool while its trials run).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    thread: int
    info: dict | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self.enabled = True
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter(), 0.0, parent, self.op, threading.get_ident())
            )
        stack.append(idx)
        return idx

    def close(self, idx: int, info: dict | None = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.info = info
        self._stack().pop()

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[(name, self.op)] += 1

    def totals(self) -> Counter:
        """Counts summed over ops."""
        out: Counter = Counter()
        for (name, _), n in self.counts.items():
            out[name] += n
        return out

    # -- wrapping ------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    info = hook(tracer, args, kwargs, result)
                return result
            finally:
                tracer.close(idx, info)

        return wrapper

    def _counter_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, target: object, attr: str, name: str, *, kind: str = "span", hook=None):
        """Replace ``target.attr`` by a tracing wrapper named ``name``."""
        fn = getattr(target, attr)
        if kind == "span":
            wrapped = self._span_wrapper(name, fn, hook)
        elif kind == "counter":
            wrapped = self._counter_wrapper(name, fn)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        self._patched.append((target, attr, fn))
        setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._patched):
            setattr(target, attr, fn)
        self._patched.clear()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = []
        for idx, span in enumerate(self.spans):
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(idx, ())):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append(span.end - span.start - covered)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                rec = {
                    "id": idx,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "op": span.op,
                    "thread": span.thread,
                }
                if span.info:
                    rec["info"] = span.info
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            counts = [{"name": n, "op": op, "count": c} for (n, op), c in sorted(self.counts.items())]
            fh.write(json.dumps({"counts": counts}, sort_keys=True) + "\n")
