"""Outside-in layer tracer: spans around the program's public functions.

A :class:`Site` names one function by the module attribute its caller
looks it up through, e.g. ``repro.apps.streaming:split_superkmers_flat``
or ``repro.lsm.store:LsmStore.ingest``.  :class:`Tracer` swaps each
site for a timing wrapper on entry and puts every original back on exit,
so the program's code is never edited and untraced runs pay nothing.

Spans nest: a span's self time is its duration minus the time covered
by traced spans that ran inside it.  A site whose module or attribute
no longer exists is recorded in :attr:`Tracer.absent` instead of
failing, so a refactor that renames a function shows up as an absent
span in the report.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

_clock = time.perf_counter


@dataclass(frozen=True)
class Site:
    """One traced function.

    *measure* ``(args, kwargs, result, before) -> {counter: amount}``
    adds work counts to the span after each call; *before* ``(args,
    kwargs)`` captures state it needs from before the call.  *generator*
    marks a function returning an iterator whose ``next`` calls are the
    work (e.g. a lazy file reader).
    """

    span: str
    target: str
    measure: Callable[..., dict] | None = None
    before: Callable[..., Any] | None = None
    generator: bool = False


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Context manager that wraps every :class:`Site` and restores it after."""

    def __init__(self, sites: list[Site]):
        self.sites = sites
        self.spans: dict[str, SpanStats] = {s.span: SpanStats() for s in sites}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []   # [start, child time] per open span
        self._saved: list[tuple[Any, str, Any]] = []

    # -- install / restore ---------------------------------------------

    def _resolve(self, target: str):
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if not callable(original):
            return None
        return owner, attr, original

    def __enter__(self) -> "Tracer":
        """Install every site; spans keep accumulating across repeated entries."""
        self.absent = []
        for site in self.sites:
            found = self._resolve(site.target)
            if found is None:
                self.absent.append(site.target)
                continue
            owner, attr, original = found
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(site, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- spans ----------------------------------------------------------

    def _open(self) -> None:
        self._stack.append([_clock(), 0.0])

    def _close(self, stats: SpanStats) -> None:
        start, child = self._stack.pop()
        dur = _clock() - start
        stats.calls += 1
        stats.busy_s += dur
        stats.self_s += dur - child
        stats.max_s = max(stats.max_s, dur)
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, site: Site, original: Callable) -> Callable:
        stats = self.spans[site.span]

        def count(args, kwargs, result, before) -> None:
            if site.measure is not None:
                for name, amount in site.measure(args, kwargs, result, before).items():
                    stats.counters[name] = stats.counters.get(name, 0) + amount

        if site.generator:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                it = iter(original(*args, **kwargs))
                while True:
                    self._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(stats)
                    yield item
            return wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = site.before(args, kwargs) if site.before is not None else None
            self._open()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(stats)
            count(args, kwargs, result, before)
            return result
        return wrapper
