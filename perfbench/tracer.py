"""Span tracer that wraps a package's functions and methods from outside.

``Tracer.installed`` replaces every public function and method of the given
modules with a wrapper that opens a span (name, start, end, parent) around the
call, and puts the originals back on exit.  A function imported by name into
another module is also replaced there, because the caller looks it up in its
own namespace.  Nothing in the traced package is edited.

A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.  Per-name
totals are kept exactly; raw spans are kept up to ``Tracer.MAX_SPANS``.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class _Frame:
    id: int
    name: str
    start: float
    child_s: float = 0.0


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0


class Tracer:
    """Records spans and counts; see the module docstring.

    ``hooks`` maps a span name to ``hook(tracer, arguments, result)``, called
    after a successful call with the bound arguments, to add work counts.
    Hooks run with tracing paused, so what they call records no spans.
    """

    MAX_SPANS = 100_000

    def __init__(self, hooks: dict | None = None, clock=time.perf_counter):
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.spans: list = []
        self.dropped_spans = 0
        self.stats: dict = {}
        self.counts: Counter = Counter()
        self._stack: list = []
        self._next_id = 0
        self._paused = False
        self._restore: list = []

    # spans -------------------------------------------------------------------
    def open_names(self) -> list:
        """Names of the spans currently open, outermost first."""
        return [frame.name for frame in self._stack]

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(self._next_id, name, self.clock())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, failed: bool) -> None:
        end = self.clock()
        self._stack.pop()
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += duration
        stat = self.stats.setdefault(frame.name, Stat())
        stat.calls += 1
        stat.self_s += duration - frame.child_s
        stat.errors += failed
        if len(self.spans) < self.MAX_SPANS:
            self.spans.append(Span(frame.id, frame.name, frame.start, end,
                                   parent.id if parent is not None else None))
        else:
            self.dropped_spans += 1

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each call.

        A call made while the innermost open span already has this name (a
        method reaching its base-class version through ``super()``) runs
        inside that span instead of opening a new one.
        """
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused or (tracer._stack and tracer._stack[-1].name == name):
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer._exit(frame, failed)
            if hook is not None:
                tracer._paused = True
                try:
                    hook(tracer, signature.bind(*args, **kwargs).arguments, result)
                finally:
                    tracer._paused = False
            return result

        return traced

    # installing wrappers -------------------------------------------------------
    @contextlib.contextmanager
    def installed(self, modules, callers=(), exclude=()):
        """Wrap the public functions and methods of ``modules`` for the block.

        Span names are ``<module>.<function>``, with ``<module>`` the last
        component of the defining module's name; methods drop their class, so
        overrides of one method share a name.  Names imported into any module
        of ``modules`` or ``callers`` are replaced there too.  Method names in
        ``exclude`` stay unwrapped.
        """
        traced_modules = {m.__name__ for m in modules}
        wrappers = {}

        def wrapper_for(fn):
            if fn not in wrappers:
                short = fn.__module__.rsplit(".", 1)[-1]
                wrappers[fn] = self.wrap(f"{short}.{fn.__name__}", fn)
            return wrappers[fn]

        try:
            for namespace in list(modules) + list(callers):
                for attr, obj in list(vars(namespace).items()):
                    if (inspect.isfunction(obj) and not attr.startswith("_")
                            and obj.__module__ in traced_modules):
                        self._replace(namespace, attr, wrapper_for(obj))
            for module in modules:
                for cls in list(vars(module).values()):
                    if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                        continue
                    for attr, obj in list(vars(cls).items()):
                        if (inspect.isfunction(obj) and not attr.startswith("_")
                                and attr not in exclude):
                            self._replace(cls, attr, wrapper_for(obj))
            yield self
        finally:
            self.uninstall()

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original replaced by ``installed``."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # reporting ---------------------------------------------------------------
    def self_seconds_by_prefix(self) -> dict:
        """Self time summed over span names sharing the part before the first dot."""
        out = Counter()
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self_s
        return dict(out)

    @staticmethod
    def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
        """Seconds one span adds to a call: a wrapped no-op minus a bare one.

        The median over ``repeats`` fresh tracers; hooks are not included.
        """
        def noop():
            return None

        samples = []
        for _ in range(repeats):
            traced = Tracer().wrap("cost.noop", noop)
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                traced()
            samples.append((time.perf_counter() - start - bare) / calls)
        return statistics.median(samples)

    def traced_seconds(self) -> float:
        """Sum of all self times, which equals the time covered by root spans."""
        return sum(stat.self_s for stat in self.stats.values())
