"""Spans recorded from outside the program, around its public entry points.

A :class:`Tracer` replaces attributes of ``repro`` modules and classes
with thin wrappers.  Each wrapped call is one span — name, start, end
and the span that was open when it started (its parent) — and the
tracer folds spans into per-name statistics as they close, so a run of
millions of calls keeps constant memory:

* ``calls`` — spans closed under the name;
* ``total_ns`` — summed span durations;
* ``self_ns`` — summed durations minus the time covered by child spans;
* ``weight`` — a per-call quantity the wrapper extracts (lanes in a
  lane-parallel tick, a predicate on the return value, ...).

``span=False`` wrappers only count (calls and weight) and open no span,
so they neither add a child to their caller nor pay for the clock.

A wrapped method that calls the same span name again while it is open
(a subclass delegating to its wrapped parent) is folded into the outer
span, so one logical call counts once.

:meth:`Tracer.uninstall` puts every original attribute back, in
reverse order; :meth:`Tracer.installed` is the ``with`` form.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Stat", "Tracer", "ShardStats", "ACTIVE"]


@dataclass
class Stat:
    """Folded statistics of every span (or counted call) of one name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    weight: float = 0.0

    def merge(self, other: "Stat") -> None:
        self.calls += other.calls
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns
        self.weight += other.weight


class Tracer:
    """Installs span wrappers and folds the spans they record."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        # Open spans, innermost last: [name, start, child_ns].  The
        # span below an open one on the stack is its parent.
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])

    def exit(self, weight: float = 0.0) -> None:
        name, start, child_ns = self._stack.pop()
        dur = self.clock() - start
        st = self.stat(name)
        st.calls += 1
        st.total_ns += dur
        st.self_ns += dur - child_ns
        st.weight += weight
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, name: str, weight: float = 0.0) -> None:
        st = self.stat(name)
        st.calls += 1
        st.weight += weight

    def reset(self) -> None:
        """Forget every statistic and open span (wrappers stay)."""
        self.stats = {}
        self._stack.clear()

    def merge(self, stats: dict[str, Stat]) -> None:
        for name, st in stats.items():
            self.stat(name).merge(st)

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        key: str,
        name: str,
        *,
        weigh: Callable[[tuple, Any], float] | None = None,
        span: bool = True,
    ) -> None:
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) by a wrapper.

        ``weigh(args, result)`` supplies the call's weight.  Only plain
        functions are wrapped; class attributes must be the class's own
        (``vars(owner)``), so restoring never shadows an inherited one.
        """
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else vars(owner)[key]
        if not callable(original) or isinstance(
            original, (staticmethod, classmethod)
        ):
            raise TypeError(f"cannot wrap {owner!r}.{key}: {original!r}")
        self.replace(owner, key, self._wrapper(original, name, weigh, span))

    def replace(self, owner: Any, key: str, new: Any) -> None:
        """Set ``owner.key`` (or ``owner[key]``) to ``new`` until uninstall."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, new)

    def _wrapper(self, fn, name, weigh, span):
        tracer = self
        stack = self._stack

        if not span:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer.count(name, weigh(args, result) if weigh else 0.0)
                return result

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            tracer.enter(name)
            weight = 0.0
            try:
                result = fn(*args, **kwargs)
                if weigh is not None:
                    weight = weigh(args, result)
                return result
            finally:
                tracer.exit(weight)

        return spanned

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    @contextlib.contextmanager
    def installed(self, install: Callable[["Tracer"], None]):
        """``install(self)``, then restore everything on exit."""
        try:
            install(self)
            yield self
        finally:
            self.uninstall()


#: The tracer a traced run has installed, or ``None``.  Shard results
#: unpickled in the parent merge their worker-side statistics into it.
ACTIVE: list[Tracer] = []


def _merge_shard(stats: dict[str, Stat], value: tuple) -> tuple:
    if ACTIVE:
        ACTIVE[-1].merge(stats)
    return value


class ShardStats(tuple):
    """A shard result that carries its worker's span statistics home.

    Unpickling it in the parent merges the statistics into the active
    tracer and yields the plain tuple, so the scheduler receives
    exactly the value the shard returned.
    """

    stats: dict[str, Stat]

    def __reduce__(self):
        return _merge_shard, (self.stats, tuple(self))
