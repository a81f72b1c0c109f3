"""Hierarchical spans over the simulated clock.

A :class:`Span` is one timed region of execution -- the whole run, one
iteration, one phase group (its shards as columns, not child spans) --
with free-form attributes and child spans. The :class:`Observer` records
them through a context-manager API::

    obs = Observer(clock=lambda: sim.now)
    with obs.span("iteration", category="iteration", index=3) as sp:
        ...
        sp.set(frontier=frontier.size)

Spans nest by dynamic scope: a span opened while another is active
becomes its child, so the runtime's ``run -> iteration -> phase``
hierarchy falls out of plain ``with`` statements.

When observability is disabled the runtime uses :data:`NULL_OBSERVER`,
whose ``span``/``event``/``add``/``observe`` all return shared
singletons and touch no state -- the instrumented hot paths cost a
method call and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.obs.metrics import MetricsRegistry


@dataclass
class Span:
    """One timed region; ``end`` is None while the span is open."""

    name: str
    category: str = "span"
    start: float = 0.0
    end: float | None = None
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = ()  # a list from the first child on

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def set(self, **attrs) -> "Span":
        """Attach or update attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator["Span"]:
        """Depth-first over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, category: str | None = None, name: str | None = None):
        """Descendants (and self) matching category and/or name."""
        for sp in self.walk():
            if category is not None and sp.category != category:
                continue
            if name is not None and sp.name != name:
                continue
            yield sp

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d


class _OpenSpan:
    """Context manager binding one Span to the observer's stack."""

    __slots__ = ("_obs", "span")

    def __init__(self, obs: "Observer", span: Span):
        self._obs = obs
        self.span = span

    def __enter__(self) -> Span:
        self._obs._push(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._obs._pop(self.span)
        return False


class Observer:
    """Span recorder + metrics registry over one clock.

    ``clock`` is any zero-argument callable returning monotone seconds;
    the runtime passes the simulator's ``lambda: sim.now`` so spans line
    up with the device trace on the same timeline.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock or (lambda: 0.0)
        self.roots: list[Span] = []
        self.metrics = MetricsRegistry()
        self._stack: list[Span] = []

    # -- spans ----------------------------------------------------------
    def span(self, name: str, category: str = "span", **attrs) -> _OpenSpan:
        return _OpenSpan(self, Span(name, category, attrs=attrs))

    def event(self, name: str, category: str = "event", **attrs) -> Span:
        """A zero-duration span attached at the current position."""
        now = self.clock()
        sp = Span(name, category, start=now, end=now, attrs=attrs)
        self._attach(sp)
        return sp

    def _attach(self, span: Span) -> None:
        if not self._stack:
            self.roots.append(span)
        elif self._stack[-1].children:
            self._stack[-1].children.append(span)
        else:
            self._stack[-1].children = [span]

    def _push(self, span: Span) -> None:
        span.start = self.clock()
        self._attach(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        span.end = self.clock()
        # Tolerate exits out of order (exceptions unwinding): pop
        # everything above the span too, closing it at the same instant.
        while self._stack:
            top = self._stack.pop()
            if top.end is None:
                top.end = span.end
            if top is span:
                break

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # -- metrics pass-through -------------------------------------------
    def add(self, name: str, n: float = 1.0) -> None:
        (self.metrics.counters.get(name) or self.metrics.counter(name)).add(n)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    # -- queries --------------------------------------------------------
    def iter_spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def find(self, category: str | None = None, name: str | None = None):
        for root in self.roots:
            yield from root.find(category, name)


class _NoopSpan:
    """Shared do-nothing span: context manager + attribute sink."""

    __slots__ = ()
    name = ""
    category = "noop"
    start = 0.0
    end = 0.0
    duration = 0.0
    attrs: dict = {}
    children: list = []

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def walk(self):
        return iter(())

    def find(self, category=None, name=None):
        return iter(())


_NOOP_SPAN = _NoopSpan()


class NoopObserver:
    """Zero-overhead recorder: every call is a constant-time no-op."""

    enabled = False
    roots: list = []

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()  # stays empty; kept for duck typing

    def span(self, name: str, category: str = "span", **attrs) -> _NoopSpan:
        return _NOOP_SPAN

    def event(self, name: str, category: str = "event", **attrs) -> _NoopSpan:
        return _NOOP_SPAN

    def add(self, name: str, n: float = 1.0) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def iter_spans(self):
        return iter(())

    def find(self, category=None, name=None):
        return iter(())

    @property
    def current(self):
        return None


#: The shared disabled recorder; instrumented code defaults to it.
NULL_OBSERVER = NoopObserver()
