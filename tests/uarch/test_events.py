"""EventWheel edge cases: ring wraparound, overflow promotion, and the
bulk idle-skip interactions the calendar-queue layout must survive.

The wheel holds the interpreter's completion events (the native C loop
keeps an equivalent time-ordered heap), so these pins are about the
data structure's corners rather than pipeline behaviour: a cycle that
lands in the overflow map and is then popped after a multi-revolution
idle skip, same-cycle scheduling after the drain, and slot collisions
across ring revolutions.
"""

import pytest

from repro.uarch.events import EventWheel


def test_rejects_degenerate_horizon():
    with pytest.raises(ValueError):
        EventWheel(horizon=1)


def test_push_pop_within_ring():
    wheel = EventWheel(horizon=8)
    wheel.push(3, "a")
    wheel.push(3, "b")
    wheel.push(5, "c")
    assert wheel.pending == 3
    assert wheel.pop(2) == ()
    assert wheel.pop(3) == ["a", "b"]
    assert wheel.pop(4) == ()
    assert wheel.pop(5) == ["c"]
    assert wheel.pending == 0
    assert not wheel


def test_ring_slot_reuse_across_revolutions():
    """The same slot serves cycle c and c + horizon once c is consumed."""
    wheel = EventWheel(horizon=8)
    wheel.push(3, "first")
    assert wheel.pop(3) == ["first"]
    wheel.push(11, "second")  # 11 % 8 == 3: same slot, next revolution
    assert wheel.pop(11) == ["second"]
    assert wheel.pending == 0


def test_overflow_ring_wraparound():
    """An event past the horizon lives in the overflow map; consuming
    it after several full ring revolutions must find it exactly once,
    even when a ring event shares its slot index en route."""
    wheel = EventWheel(horizon=8)
    far = 8 * 3 + 2  # slot 2, three revolutions out
    wheel.push(far, "far")
    wheel.push(2, "near")  # same slot index 2, in the ring
    assert wheel.pop(2) == ["near"]
    for now in range(3, far):
        assert wheel.pop(now) == ()
    assert wheel.pop(far) == ["far"]
    assert wheel.pending == 0
    assert wheel.pop(far) == ()


def test_overflow_and_ring_merge_on_same_cycle():
    """A cycle can hold ring items and overflow items (scheduled at
    different base offsets); pop must return both, ring first."""
    wheel = EventWheel(horizon=4)
    target = 6
    wheel.push(target, "early-far")  # base 0: lands in overflow
    wheel.pop(3)  # advance the base so target is within the ring
    wheel.push(target, "late-near")  # base 3: lands in the ring
    assert wheel.pop(target) == ["late-near", "early-far"]


def test_same_cycle_schedule_after_drain():
    """Pushing for cycle *now* after pop(now) already drained it: the
    items must surface on the next pop that reaches them, not vanish.

    (The pipeline does this when write-back defers an event by one
    cycle — push(now + 1) — while the wheel's base already sits at
    now; the deferred entry shares the adjacent ring slot.)
    """
    wheel = EventWheel(horizon=8)
    assert wheel.pop(10) == ()
    wheel.push(10, "rescheduled-now")
    wheel.push(11, "deferred")
    # The wheel contract consumes cycles in non-decreasing order; a
    # same-cycle push after the drain is visible to a re-pop of now.
    assert wheel.pop(10) == ["rescheduled-now"]
    assert wheel.pop(11) == ["deferred"]
    assert wheel.pending == 0


def test_bulk_idle_skip_crossing_ring_boundary():
    """next_time() steers the idle skip: jumping the base straight to a
    far event (skipping more than one ring revolution) must preserve
    every scheduled bucket and keep due()/next_time() coherent."""
    wheel = EventWheel(horizon=8)
    wheel.push(5, "a")
    wheel.push(21, "b")  # beyond one revolution from base 0
    wheel.push(100, "c")  # deep overflow
    assert wheel.next_time() == 5
    assert wheel.pop(5) == ["a"]
    # Idle skip: nothing scheduled between 6 and 20.
    assert wheel.next_time() == 21
    assert not wheel.due(20)
    assert wheel.due(21)
    assert wheel.pop(21) == ["b"]
    # Second skip crosses many revolutions into the overflow map.
    assert wheel.next_time() == 100
    assert wheel.pop(100) == ["c"]
    assert wheel.next_time() is None
    assert wheel.pending == 0


def test_due_is_nondestructive():
    wheel = EventWheel(horizon=8)
    wheel.push(4, "x")
    assert wheel.due(4)
    assert wheel.due(4)  # repeated probes must not consume anything
    assert wheel.pop(4) == ["x"]
    assert not wheel.due(4)


def test_bool_tracks_remaining_events():
    wheel = EventWheel(horizon=4)
    assert not wheel
    wheel.push(2, "x")
    assert wheel
    wheel.pop(2)
    assert not wheel
