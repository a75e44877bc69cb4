"""In-memory spans recorded around seqplace's public functions.

The benchmark never edits the package: it swaps each traced function for a
wrapper in every seqplace module namespace that holds it (modules import
names from each other, so patching only the defining module would miss
calls such as ``cli`` -> ``load_descriptor_file``) and restores the
originals afterwards. Spans are kept in memory; nothing is written until
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    thread: int
    run_id: str
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while a section is open.

    A span opened on a thread with no open span of its own (a pool worker)
    is parented to the innermost span open on the thread that created the
    tracer, so cells run by ``ds_sweep``'s workers hang under the sweep.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.wall = 0.0
        self._enabled = False
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def section(self):
        """Trace the enclosed code and add its wall time to ``wall``."""
        self._enabled = True
        tick = time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - tick
            self._enabled = False

    def open(self, name: str) -> int | None:
        if not self._enabled:
            return None
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        span = Span(name, time.perf_counter(), 0.0, parent, threading.get_ident(), self.run_id)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int | None, counters: dict) -> None:
        if index is None:
            return
        span = self.spans[index]
        span.end = time.perf_counter()
        span.counters.update(counters)
        self._stack().pop()


Cost = Callable[[dict, object], dict]
Namer = Callable[[dict], str]


def wrap(tracer: Tracer, fn, name: str | Namer, cost: Cost | None = None):
    """Wrapper that records one span per call of ``fn``.

    ``cost`` maps the bound arguments and the result to counters stored on
    the span; ``name`` may depend on the arguments (``cli.main`` is named
    per command).
    """
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = None
        if callable(name) or cost is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
        label = name(bound.arguments) if callable(name) else name
        index = tracer.open(label)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index, {"failed": 1})
            raise
        tracer.close(index, cost(bound.arguments, result) if cost is not None and index is not None else {})
        return result

    return traced


@contextmanager
def patched(modules, replacements: dict):
    """Swap ``original -> wrapper`` everywhere in ``modules``; restore on exit."""
    saved = []
    for module in modules:
        for key, value in list(vars(module).items()):
            for original, wrapper in replacements.items():
                if value is original:
                    saved.append((module, key, value))
                    setattr(module, key, wrapper)
    try:
        yield
    finally:
        for module, key, value in reversed(saved):
            setattr(module, key, value)


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            out.setdefault(span.parent, []).append(index)
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children on worker threads may overlap one another; the union of their
    intervals (clipped to the parent) is what is subtracted, so a parent
    whose children ran in parallel is not charged negative time.
    """
    kids = children_of(spans)
    out = []
    for index, span in enumerate(spans):
        covered = union_length(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in kids.get(index, ())
        )
        out.append(span.duration - covered)
    return out


def accounting(spans: list[Span], wall: float) -> dict[str, float]:
    """How the traced wall time splits between layers and everything else.

    ``wall == self_sum - overlap + untraced`` holds exactly: ``untraced``
    is the wall time outside every top-level span (the benchmark's own
    code), and ``overlap`` is the self time counted twice because worker
    threads ran at the same time.
    """
    covered = union_length((s.start, s.end) for s in spans if s.parent is None)
    self_sum = sum(self_times(spans))
    return {"self_sum": self_sum, "overlap": self_sum - covered, "untraced": wall - covered}


def busy_over_wall(spans: list[Span], parent: int) -> tuple[float, int]:
    """Busy time of a span's children per thread, over the span's duration.

    Returns the ratio and the number of threads that ran children. Each
    thread's busy time is the union of its child intervals, so a value near
    the thread count means the pool kept every worker busy, and near 1 means
    it ran no faster than one thread would.
    """
    per_thread: dict[int, list] = {}
    for child in children_of(spans).get(parent, ()):
        span = spans[child]
        per_thread.setdefault(span.thread, []).append((span.start, span.end))
    busy = sum(union_length(iv) for iv in per_thread.values())
    duration = spans[parent].duration
    return (busy / duration if duration > 0 else 0.0), len(per_thread)
