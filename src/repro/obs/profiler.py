"""Kernel profiler: per-event-type dispatch counts and wall time.

A :class:`KernelProfiler` is the simulator's dispatch observer
(``sim.observer``): the dispatch loop calls it with each fired callback,
and it attributes that dispatch to the callback's qualified name —
``DDRChannel._respond``, ``Core._advance``, ... Each dispatch is charged
the ``perf_counter`` interval since the previous one ended (or since
:meth:`reset`), so the rows add up to the dispatch loop's wall time, heap
pops and cancelled-entry skips included. The counts are deterministic;
only the wall times vary run to run.

One simulator has one observer slot. :meth:`install` shares an already
installed profiler, so the obs collector's ``"profile"`` mode and the span
tracer's ``"kernel"`` mode read one instance when both are on. The
profiler is opt-in: with ``sim.observer is None`` the kernel pays one
compare per event.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

__all__ = ["KernelProfiler"]


class KernelProfiler:
    """Accumulates ``{event-type: [count, wall_seconds]}``."""

    __slots__ = ("data", "_last")

    def __init__(self) -> None:
        self.data: Dict[str, List] = {}
        self._last = perf_counter()

    def __call__(self, fn) -> None:
        """Charge one dispatch of ``fn`` (called by the dispatch loop)."""
        now = perf_counter()
        key = getattr(fn, "__qualname__", None) or repr(fn)
        ent = self.data.get(key)
        if ent is None:
            self.data[key] = [1, now - self._last]
        else:
            ent[0] += 1
            ent[1] += now - self._last
        self._last = now

    def install(self, sim) -> "KernelProfiler":
        """Make this profiler ``sim``'s observer; returns the one in use.

        If a :class:`KernelProfiler` is already installed, that instance is
        returned instead, so two consumers share the single slot.
        """
        current = sim.observer
        if isinstance(current, KernelProfiler):
            return current
        if current is not None:
            raise RuntimeError(f"simulator already has observer {current!r}")
        sim.observer = self
        return self

    def reset(self) -> None:
        """Drop all rows; the next dispatch is charged from now."""
        self.data.clear()
        self._last = perf_counter()

    @property
    def total_events(self) -> int:
        return sum(int(v[0]) for v in self.data.values())

    @property
    def total_wall_s(self) -> float:
        return sum(float(v[1]) for v in self.data.values())

    def counts(self) -> Dict[str, int]:
        """Deterministic ``{event-type: dispatches}``, sorted by name."""
        return {k: int(c) for k, (c, _w) in sorted(self.data.items())}

    def rows(self) -> List[Dict]:
        """Per-event-type records, heaviest wall time first."""
        total = self.total_wall_s
        out = []
        for key, (count, wall) in sorted(self.data.items(),
                                         key=lambda kv: -kv[1][1]):
            out.append({
                "event": key,
                "count": int(count),
                "wall_s": float(wall),
                "wall_frac": float(wall) / total if total > 0 else 0.0,
                "mean_us": 1e6 * float(wall) / count if count else 0.0,
            })
        return out

    def to_dict(self, with_wall: bool = True) -> Dict:
        """JSON-safe form; ``with_wall=False`` keeps only the
        deterministic dispatch counts (wall time varies run to run)."""
        if with_wall:
            return {k: {"count": int(c), "wall_s": float(w)}
                    for k, (c, w) in sorted(self.data.items())}
        return {k: {"count": int(c)} for k, (c, _w) in sorted(self.data.items())}
