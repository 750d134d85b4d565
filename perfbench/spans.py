"""In-memory spans for the traced benchmark run, and wall-time attribution.

A span is one call into a layer: its name, its layer, start and end on the
``perf_counter`` clock, the thread that ran it, the span that caused it and
the trace id of the benchmark operation it served.  Spans stay in memory
and are written out when the run ends.

Wrappers are installed from the benchmark's own files at the name each
caller looks up (``repro.plan.execute.layer_trial_batch_ragged``, not only
``repro.core.kernels``), so the program in ``src/`` runs unmodified;
:meth:`Tracer.uninstall` puts the originals back, which lets a traced run
interleave traced and untraced rounds to measure the tracing overhead.

Self time is attributed on the wall clock (:func:`attribute_wall_time`):
every instant inside a benchmark operation is charged to the innermost
span running then, split evenly between threads when several worker
threads are inside traced calls at once.  The charges therefore add up to
the operations' wall time instead of to thread-seconds.  An instant no
layer wrapper covers is charged to the operation span itself, the
benchmark's ``bench`` layer, and the reconcile check counts it as
unattributed.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

clock = time.perf_counter


@dataclass(eq=False)
class Span:
    """One traced call."""

    name: str
    layer: str
    start: float
    thread: int
    parent: Optional[int]
    trace: Optional[str]
    #: True when no enclosing span on the same call chain has this layer
    #: (counts are taken from outermost calls only, so a tiered store's
    #: inner tier reads are not counted twice).
    outer: bool
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    index: int = -1

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; installs and removes layer wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._installed: List[Tuple[Any, str, Any]] = []
        self._trace_ids = itertools.count()
        #: the main thread's current operation span: the parent of spans
        #: opened on worker threads that inherit no span context.
        self.operation: Optional[Span] = None
        #: hand-off table for work that crosses into a thread pool: a key
        #: derived from the call's arguments -> the trace id it serves.
        self.trace_of: Dict[Any, str] = {}
        self.main_thread = threading.get_ident()

    # -- spans -----------------------------------------------------------
    def new_trace_id(self, prefix: str = "op") -> str:
        return f"{prefix}-{next(self._trace_ids)}"

    def open(
        self,
        name: str,
        layer: str,
        trace: Optional[str] = None,
        parent: Optional[Span] = None,
        **attrs,
    ) -> Tuple[Span, contextvars.Token]:
        if parent is None:
            parent = self._current.get()
        if parent is None:
            parent = self.operation
        if trace is None and parent is not None:
            trace = parent.trace
        outer = True
        node = parent
        while node is not None:
            if node.layer == layer:
                outer = False
                break
            node = self.spans[node.parent] if node.parent is not None else None
        span = Span(
            name=name,
            layer=layer,
            start=clock(),
            thread=threading.get_ident(),
            parent=parent.index if parent is not None else None,
            trace=trace,
            outer=outer,
            attrs=attrs,
        )
        with self._lock:
            span.index = len(self.spans)
            self.spans.append(span)
        return span, self._current.set(span)

    def close(self, span: Span, token: contextvars.Token) -> None:
        span.end = clock()
        self._current.reset(token)

    @property
    def current(self) -> Optional[Span]:
        return self._current.get()

    @contextlib.contextmanager
    def span(
        self, name: str, layer: str = "bench", trace=None, parent=None, **attrs
    ):
        span, token = self.open(name, layer, trace=trace, parent=parent, **attrs)
        try:
            yield span
        finally:
            self.close(span, token)

    @contextlib.contextmanager
    def operation_span(self, name: str):
        """A benchmark operation on the main thread: the root its
        worker-thread spans hang from."""
        with self.span(name, "bench", trace=self.new_trace_id()) as op:
            previous, self.operation = self.operation, op
            try:
                yield op
            finally:
                self.operation = previous

    # -- wrappers --------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        on_exit: Optional[Callable[[Span, tuple, dict, Any], None]] = None,
        trace_key: Optional[Callable[[tuple, dict], Any]] = None,
    ) -> Callable:
        """A traced version of ``fn`` (sync or coroutine function).

        ``on_exit(span, args, kwargs, result)`` records attributes of a
        successful call; ``trace_key(args, kwargs)`` looks the call's
        trace id up in :attr:`trace_of` (for work handed to a pool).
        """

        def trace_for(args, kwargs):
            if trace_key is None:
                return None
            return self.trace_of.get(trace_key(args, kwargs))

        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span, token = self.open(name, layer, trace=trace_for(args, kwargs))
                try:
                    result = await fn(*args, **kwargs)
                except BaseException as exc:
                    span.attrs["error"] = type(exc).__name__
                    raise
                finally:
                    self.close(span, token)
                if on_exit is not None:
                    on_exit(span, args, kwargs, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = self.open(name, layer, trace=trace_for(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self.close(span, token)
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result

        return traced

    def install(
        self, owner: Any, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``owner.attr`` (a module global, or a method defined on
        the class itself) with ``make(original)`` until :meth:`uninstall`."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]  # KeyError: inherited, not defined here
        else:
            original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- export ----------------------------------------------------------
    def dump(self, path, extra: Dict[str, Any]) -> None:
        """Write every span (one JSON object per line) after a header."""
        base = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as out:
            out.write(json.dumps(extra, sort_keys=True) + "\n")
            for span in self.spans:
                row = asdict(span)
                row["start"] = round(span.start - base, 7)
                row["end"] = round(span.end - base, 7)
                out.write(json.dumps(row, default=str) + "\n")


def attribute_wall_time(
    spans: Iterable[Span], main_thread: int
) -> Dict[int, float]:
    """Charge wall time to spans; returns ``{span index: seconds}``.

    Only instants at which the main thread is inside a span count (the
    benchmark's operation spans bound the measured windows).  At each
    instant, if worker threads are inside traced calls, their innermost
    spans share the instant evenly: the main thread is then only waiting on
    them.  Otherwise the main thread's innermost span takes it.  On one
    thread the innermost span is the most recently started active one,
    which also covers overlapping coroutine spans on an event loop.
    """
    events: List[Tuple[float, int, Span]] = []
    for span in spans:
        if span.end <= span.start:
            continue
        events.append((span.start, 1, span))
        events.append((span.end, 0, span))
    # ends before starts at equal times: a span never overlaps a
    # successor that starts exactly when it ends
    events.sort(key=lambda e: (e[0], e[1]))
    active: Dict[int, List[Span]] = {}
    charged: Dict[int, float] = {}
    previous = None
    for when, is_start, span in events:
        if previous is not None and when > previous:
            dt = when - previous
            main = active.get(main_thread)
            if main:
                workers = [
                    stack[-1]
                    for thread, stack in active.items()
                    if thread != main_thread and stack
                ]
                if workers:
                    share = dt / len(workers)
                    for worker in workers:
                        charged[worker.index] = charged.get(worker.index, 0.0) + share
                else:
                    innermost = main[-1]
                    charged[innermost.index] = charged.get(innermost.index, 0.0) + dt
        previous = when
        stack = active.setdefault(span.thread, [])
        if is_start:
            stack.append(span)
        else:
            stack.remove(span)
    return charged
