"""Event wheel: the cycle engine's timing queue.

An :class:`EventWheel` maps future cycles to lists of scheduled items
(execution completions; any future per-cycle event fits).  It replaces
a ``defaultdict(list)`` keyed by cycle with a calendar-queue layout:

* a fixed-size ring of per-cycle buckets covers the near future (all
  pipeline latencies and ordinary memory fills land here),
* an overflow map catches the rare event scheduled beyond the ring
  horizon (e.g. a line fill pushed far out by bus contention).

The wheel assumes cycles are consumed one at a time in order (``pop``
is called with the simulator's ``now`` on every cycle, so an idle cycle
costs one slot check), which the pipeline guarantees.  Two distinct
live cycles can never collide in one ring slot: ring entries are only
created within ``horizon`` cycles of the current base, so live ring
cycles always span less than one full revolution.
"""

from __future__ import annotations


class EventWheel:
    """Calendar queue over simulation cycles."""

    __slots__ = ("_horizon", "_ring", "_overflow", "_base", "pending")

    def __init__(self, horizon=128):
        if horizon < 2:
            raise ValueError("the wheel needs at least two slots")
        self._horizon = horizon
        self._ring = [None] * horizon  # slot -> [cycle, items] or None
        self._overflow = {}  # cycle -> items, for cycles >= base + horizon
        self._base = 0  # last cycle handed to pop()
        self.pending = 0  # scheduled-but-unpopped items (cheap emptiness test)

    def push(self, cycle, item):
        """Schedule ``item`` for ``cycle`` (must not precede the base)."""
        self.pending += 1
        if cycle - self._base < self._horizon:
            slot = cycle % self._horizon
            entry = self._ring[slot]
            if entry is not None:
                # Live ring cycles span < horizon, so a populated slot
                # can only belong to the same cycle.
                entry[1].append(item)
                return
            self._ring[slot] = [cycle, [item]]
        else:
            items = self._overflow.get(cycle)
            if items is not None:
                items.append(item)
                return
            self._overflow[cycle] = [item]

    def pop(self, now):
        """All items scheduled for cycle ``now`` (empty tuple when none)."""
        self._base = now
        items = ()
        slot = now % self._horizon
        entry = self._ring[slot]
        if entry is not None and entry[0] == now:
            self._ring[slot] = None
            items = entry[1]
        if self._overflow:
            extra = self._overflow.pop(now, None)
            if extra is not None:
                items = items + extra if items else extra
        if items:
            self.pending -= len(items)
        return items

    def __bool__(self):
        return self.pending > 0
