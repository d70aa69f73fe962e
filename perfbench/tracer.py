"""Span tracer that wraps supergrid's public functions from the outside.

Each wrapped function gets a span around every call: its duration, the part
of that duration covered by nested spans (which gives the self time), and
counters taken from the return value.  Functions are wrapped under the name
their caller looks them up by (for example ``supergrid.hamiltonian.extend_cycle``
or an entry of ``supergrid.enumeration.PREDICATES``), so the program itself
is never edited.  ``Tracer.restore`` puts every original back.

Spans are aggregated as they close rather than stored one by one: a 4x4
sweep makes about a million calls, and only per-name totals are reported.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


class Patches:
    """Attribute (or dict entry) replacements that can all be undone."""

    def __init__(self):
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, key: str, new: Any) -> None:
        is_dict = isinstance(owner, dict)
        self._saved.append((owner, key, owner[key] if is_dict else getattr(owner, key)))
        if is_dict:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def restore(self) -> None:
        """Put back every original, last replaced first."""
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


@dataclass
class SpanStats:
    """Totals for one span name."""

    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    clock: Callable[[], float] = perf_counter
    stats: dict[str, SpanStats] = field(default_factory=dict)
    counters: defaultdict[str, float] = field(default_factory=lambda: defaultdict(float))
    layer_self_s: defaultdict[str, float] = field(default_factory=lambda: defaultdict(float))
    top_level_s: float = 0.0
    _stack: list[list[float]] = field(default_factory=list)
    _patches: Patches = field(default_factory=Patches)

    def _open(self) -> list[float]:
        frame = [0.0]  # time covered by child spans
        self._stack.append(frame)
        return frame

    def _close(self, name: str, layer: str, frame: list[float], duration: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += duration
        else:
            self.top_level_s += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStats(layer)
        stat.calls += 1
        stat.total_s += duration
        own = duration - frame[0]
        stat.self_s += own
        self.layer_self_s[layer] += own

    def _make_wrapper(
        self,
        original: Callable,
        name: str,
        layer: str,
        on_result: Callable[[Any, "Tracer"], None] | None,
        also: tuple[str, ...],
    ) -> Callable:
        def wrapper(*args, **kwargs):
            frame = self._open()
            start = self.clock()
            try:
                out = original(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self._close(name, layer, frame, duration)
                for extra in also:
                    self.counters[extra] += duration
            if on_result is not None:
                on_result(out, self)
            return out

        return wrapper

    def _make_generator_wrapper(self, original: Callable, name: str, layer: str) -> Callable:
        """Spans around each ``next()`` of the generator, not around its lifetime."""

        def wrapper(*args, **kwargs):
            it = original(*args, **kwargs)
            while True:
                frame = self._open()
                start = self.clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, layer, frame, self.clock() - start)
                self.counters[name + ".yielded"] += 1
                yield item

        return wrapper

    def wrap(
        self,
        owner: Any,
        key: str,
        name: str,
        layer: str,
        *,
        on_result: Callable[[Any, "Tracer"], None] | None = None,
        also: tuple[str, ...] = (),
        generator: bool = False,
    ) -> None:
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) with a traced wrapper.

        ``also`` names extra counters that accumulate the span's duration, for
        time that belongs to two metrics (a predicate called as a solver's
        precheck, say).
        """
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        if generator:
            wrapper = self._make_generator_wrapper(original, name, layer)
        else:
            wrapper = self._make_wrapper(original, name, layer, on_result, also)
        self._patches.replace(owner, key, wrapper)

    def restore(self) -> None:
        """Put back every original, last wrapped first."""
        self._patches.restore()

    def total(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.total_s if stat else 0.0

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0
