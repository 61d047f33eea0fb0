"""Hierarchical span tracing with attached counter deltas.

A :class:`Tracer` produces nested :class:`Span` objects through a
context manager::

    with tracer.span("flush", series="root.sg.speed"):
        with tracer.span("flush.seal_chunk", points=1000):
            ...

Every span records wall-clock duration *and* the delta of the engine's
:class:`~repro.storage.iostats.IoStats` counters over its lifetime —
the substrate-independent cost signal the paper's figures are built
from.  The most recent completed root span is kept on
``tracer.last_root`` so callers (``repro query --explain``, tests) can
inspect the tree after the fact.

Span durations also feed the registry histogram
``repro_span_seconds{span=...}``, which is how ``repro stats`` shows
p50/p95/p99 per operation without any extra bookkeeping at call sites.

Cross-thread propagation
------------------------

The open-span stack is a *module-level* thread-local, so a span started
on one thread can be re-rooted onto another: the admission worker pool
wraps each job in :func:`activate` with the request's root span, and
every engine span the job produces lands in that request's tree instead
of dying at the thread boundary.

Three helpers keep the cost of that machinery off the fast path:

* :func:`current_span` — the innermost open span on this thread;
* :func:`activate` — context manager installing a span as the thread's
  current one (how worker threads join a request's tree);
* :func:`ambient_span` — a child of the current span *only when the
  trace asked for detail* (request-scoped traces do; plain engine
  spans do not), so per-chunk / per-tile instrumentation is free for
  ordinary queries;
* :func:`attach_timed` — attach an already-measured interval (lock
  waits, queue waits) to the current trace without a context manager.

The generalization story: the M4-LSM-only
:class:`repro.core.m4lsm.tracing.QueryTrace` records *per-span-of-w*
solver detail; this tracer records *per-operation* structure for every
engine code path (writes, flushes, WAL, compaction, recovery, both
operators).  The two compose — an EXPLAIN prints both.
"""

from __future__ import annotations

import threading
import time

# The open-span stack: one `current` span per thread, shared by every
# tracer in the process so spans can hop threads (admission workers)
# via activate().
_local = threading.local()


def current_span():
    """The innermost span open on this thread (any tracer), or None."""
    return getattr(_local, "current", None)


class Span:
    """One node of a trace tree (also its own context manager)."""

    __slots__ = ("name", "attrs", "parent", "children", "started",
                 "ended", "counters", "thread", "detailed", "_tracer",
                 "_io_before", "_prev")

    def __init__(self, tracer, name, attrs, detailed=False):
        self.name = name
        self.attrs = attrs
        self.parent = None
        self.children = []
        self.started = None
        self.ended = None
        self.counters = {}
        self.thread = None
        self.detailed = detailed
        self._tracer = tracer
        self._io_before = None
        self._prev = None

    # -- context manager ----------------------------------------------------------

    def __enter__(self):
        tracer = self._tracer
        current = getattr(_local, "current", None)
        # Only nest under a span of the *same* tracer; a span from
        # another engine's tracer is invisible (each engine keeps its
        # own trees, even when interleaved on one thread).
        if current is not None and current._tracer is tracer:
            self.parent = current
            self.parent.children.append(self)
            self.detailed = self.detailed or current.detailed
        self._prev = current
        _local.current = self
        self.thread = threading.current_thread().name
        if tracer._stats is not None:
            self._io_before = tracer._stats.snapshot()
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.ended = time.perf_counter()
        tracer = self._tracer
        if self._io_before is not None:
            diff = tracer._stats.diff(self._io_before)
            self.counters = {k: v for k, v in diff.as_dict().items() if v}
            self._io_before = None
        _local.current = self._prev
        self._prev = None
        if self.parent is None:
            tracer.last_root = self
        tracer._registry.histogram("repro_span_seconds",
                                   span=self.name).observe(self.duration)
        return False

    # -- inspection ---------------------------------------------------------------

    @property
    def duration(self):
        """Wall-clock seconds (0.0 while still open)."""
        if self.started is None or self.ended is None:
            return 0.0
        return self.ended - self.started

    def walk(self):
        """Yield this span then every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name):
        """First span named ``name`` in this subtree, or None."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name):
        """Every span named ``name`` in this subtree."""
        return [span for span in self.walk() if span.name == name]

    def to_dict(self):
        """JSON-able recursive dump (perf_counter timestamps included,
        so exporters can reconstruct the timeline)."""
        return {
            "name": self.name,
            "seconds": self.duration,
            "started": self.started,
            "ended": self.ended,
            "thread": self.thread,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent=0):
        """Human-readable tree, one line per span."""
        parts = ["%s%s  %.3f ms" % ("  " * indent, self.name,
                                    self.duration * 1e3)]
        if self.attrs:
            parts.append(" ".join("%s=%s" % (k, v)
                                  for k, v in sorted(self.attrs.items())))
        if self.counters:
            parts.append("[%s]" % " ".join(
                "%s=%d" % (k, v) for k, v in sorted(self.counters.items())))
        lines = ["  ".join(parts)]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


class _NoopSpan:
    """Shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()
    name = ""
    parent = None
    children = ()
    counters = {}
    duration = 0.0
    started = None
    ended = None
    thread = None
    detailed = False

    @property
    def attrs(self):
        # A throwaway dict: callers may annotate, nothing is kept.
        return {}

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def walk(self):
        return iter(())

    def find(self, name):
        return None

    def find_all(self, name):
        return []

    def to_dict(self):
        return {}

    def render(self, indent=0):
        return ""


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Factory and stack for :class:`Span` trees.

    Args:
        stats: an :class:`~repro.storage.iostats.IoStats` whose deltas
            are attached to every span (None disables counter capture).
        registry: a :class:`~repro.obs.metrics.MetricsRegistry` that
            receives per-span-name duration histograms.
        enabled: a disabled tracer hands out a shared no-op span, so
            instrumented code pays one attribute check and nothing else.
    """

    def __init__(self, stats=None, registry=None, enabled=True):
        from .metrics import NULL_REGISTRY
        self.enabled = enabled
        self._stats = stats
        self._registry = registry if registry is not None else NULL_REGISTRY
        self.last_root = None

    def span(self, name, **attrs):
        """A new child span of the currently open one (context manager)."""
        if not self.enabled:
            return _NOOP_SPAN
        return Span(self, name, attrs)

    def root_span(self, name, **attrs):
        """A *detailed* span for a request-scoped trace.

        Detail propagates to every descendant: :func:`ambient_span`
        call sites (per-tile lookups) emit
        real spans only inside a detailed tree, so request traces get
        full depth while ordinary engine spans stay phase-granular.
        """
        if not self.enabled:
            return _NOOP_SPAN
        return Span(self, name, attrs, detailed=True)

    def timed_span(self, name, started, ended, parent=None, **attrs):
        """Attach an already-measured interval as a completed span.

        For costs measured across threads (admission queue wait, worker
        hand-off, lock waits) where enter/exit context management is
        impossible.  ``parent`` defaults to the thread's current span;
        with no parent the span is recorded in the duration histogram
        but belongs to no tree.
        """
        if not self.enabled:
            return _NOOP_SPAN
        span = Span(self, name, attrs)
        span.started = float(started)
        span.ended = float(ended)
        span.thread = threading.current_thread().name
        if parent is None:
            parent = self.current()
        if parent is not None and parent is not _NOOP_SPAN:
            span.parent = parent
            parent.children.append(span)
            span.detailed = parent.detailed
        self._registry.histogram("repro_span_seconds",
                                 span=name).observe(span.duration)
        return span

    def current(self):
        """The innermost span of *this tracer* open on this thread."""
        span = getattr(_local, "current", None)
        if span is not None and span._tracer is self:
            return span
        return None


class activate:
    """Context manager: make ``span`` the calling thread's current span.

    The cross-thread half of request tracing: a worker thread that
    executes on behalf of a request activates the request's root span,
    so every span the work produces nests under it.  ``None`` (or a
    no-op span) deactivates nothing and costs nothing.
    """

    __slots__ = ("_span", "_prev")

    def __init__(self, span):
        self._span = None if span is _NOOP_SPAN else span
        self._prev = None

    def __enter__(self):
        self._prev = getattr(_local, "current", None)
        if self._span is not None:
            _local.current = self._span
        return self._span

    def __exit__(self, *exc_info):
        _local.current = self._prev
        return False


def ambient_span(name, **attrs):
    """A child span of the thread's current span — detailed trees only.

    The hook for per-item instrumentation (tile lookups): inside a request-scoped (:meth:`Tracer.root_span`) tree
    it creates a real span; under an ordinary engine span, or no span,
    it returns the shared no-op — one thread-local read and a flag
    check, nothing else.
    """
    current = getattr(_local, "current", None)
    if current is None or not current.detailed:
        return _NOOP_SPAN
    tracer = current._tracer
    if not tracer.enabled:
        return _NOOP_SPAN
    return Span(tracer, name, attrs)


def attach_timed(name, started, ended, **attrs):
    """Attach a measured interval to the thread's current trace, if any.

    Used by instrumentation that measures unconditionally (lock waits)
    but should only materialize spans when a trace is actually open.
    Returns the span, or None when no trace was active.
    """
    current = getattr(_local, "current", None)
    if current is None:
        return None
    tracer = current._tracer
    if not tracer.enabled:
        return None
    return tracer.timed_span(name, started, ended, parent=current, **attrs)


#: A tracer that records nothing; safe default for optional hooks.
NULL_TRACER = Tracer(enabled=False)


def tracer_of(engine):
    """``engine.tracer`` when present, else the no-op tracer.

    Lets operators instrument unconditionally while still accepting
    engine stand-ins (tests, ablation harnesses) that predate obs.
    """
    tracer = getattr(engine, "tracer", None)
    return tracer if tracer is not None else NULL_TRACER
