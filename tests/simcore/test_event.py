"""Tests for the event primitives."""

import pytest

from repro.errors import SimulationError
from repro.simcore.event import Event, EventQueue


class TestEvent:
    def test_starts_pending(self):
        event = Event("e")
        assert not event.triggered

    def test_succeed_carries_value(self):
        event = Event("e")
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_fail_carries_exception(self):
        event = Event("e")
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_double_trigger_is_error(self):
        event = Event("e")
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_value_before_trigger_is_error(self):
        event = Event("e")
        with pytest.raises(SimulationError):
            _ = event.value

    def test_ok_before_trigger_is_error(self):
        event = Event("e")
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_callbacks_fire_on_trigger(self):
        event = Event("e")
        seen = []
        event.callbacks.append(lambda evt: seen.append(evt.value))
        event.succeed("payload")
        assert seen == ["payload"]

    def test_callbacks_cleared_after_trigger(self):
        event = Event("e")
        event.callbacks.append(lambda evt: None)
        event.succeed()
        assert event.callbacks == []


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while (entry := queue.pop()) is not None:
            entry.callback()
        assert order == ["a", "b", "c"]

    def test_fifo_tiebreak_at_same_time(self):
        queue = EventQueue()
        order = []
        for name in "abcde":
            queue.push(1.0, lambda n=name: order.append(n))
        while (entry := queue.pop()) is not None:
            entry.callback()
        assert order == list("abcde")

    def test_len_counts_pending(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2

    def test_peek_time_returns_earliest(self):
        queue = EventQueue()
        queue.push(5.0, lambda: None)
        queue.push(3.0, lambda: None)
        assert queue.peek_time() == 3.0

    def test_peek_time_empty_is_none(self):
        assert EventQueue().peek_time() is None

    def test_nan_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.push(float("nan"), lambda: None)
