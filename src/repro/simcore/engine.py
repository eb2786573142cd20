"""The discrete-event simulator and its process model.

A *process* is a Python generator. It communicates with the simulator by
yielding command objects:

* ``Timeout(delay)``            — sleep for ``delay`` seconds of virtual time;
* ``Wait(event)``               — suspend until the event triggers; the
  ``yield`` expression evaluates to the event's payload;
* another :class:`Process`      — wait for a child process to finish; the
  ``yield`` evaluates to the child's return value;
* an :class:`~repro.simcore.event.Event` directly (shorthand for ``Wait``).

The simulator is single-threaded and fully deterministic: simultaneous
events run in scheduling order.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.simcore.event import Event, EventQueue

__all__ = ["Timeout", "Wait", "Process", "Simulator"]


class Timeout:
    """Command: suspend the yielding process for ``delay`` virtual seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        self.delay = float(delay)
        self.value = value


class Wait:
    """Command: suspend the yielding process until ``event`` triggers."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event


class Process:
    """A running generator coroutine inside the simulator.

    ``Process`` is itself awaitable by other processes: waiting on it
    completes when the generator returns (its ``StopIteration`` value is the
    payload) or re-raises the generator's unhandled exception.
    """

    __slots__ = ("simulator", "generator", "name", "done_event", "_started")

    def __init__(self, simulator: "Simulator", generator: Generator, name: str) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(f"process body must be a generator, got {generator!r}")
        self.simulator = simulator
        self.generator = generator
        self.name = name
        self.done_event = Event(f"done:{name}")
        self._started = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done_event.triggered else "running"
        return f"Process({self.name!r}, {state})"

    @property
    def finished(self) -> bool:
        """Whether the process body has returned or raised."""
        return self.done_event.triggered

    @property
    def result(self) -> Any:
        """The generator's return value (raises if the process failed)."""
        if not self.done_event.triggered:
            raise SimulationError(f"process {self.name!r} still running")
        if not self.done_event.ok:
            raise self.done_event._value  # noqa: SLF001 - deliberate re-raise
        return self.done_event.value

    # --- stepping (driven by the Simulator) ---------------------------------

    def _resume(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        try:
            if error is not None:
                command = self.generator.throw(error)
            else:
                command = self.generator.send(value)
        except StopIteration as stop:
            self.done_event.succeed(stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - propagate via event
            self.done_event.fail(exc)
            return
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        simulator = self.simulator
        if isinstance(command, Timeout):
            simulator._queue.push(
                simulator.now + command.delay, lambda: self._resume(command.value)
            )
        elif isinstance(command, Wait):
            self._wait_on(command.event)
        elif isinstance(command, Event):
            self._wait_on(command)
        elif isinstance(command, Process):
            self._wait_on(command.done_event)
        else:
            self._resume(
                error=SimulationError(
                    f"process {self.name!r} yielded an unknown command: {command!r}"
                )
            )

    def _wait_on(self, event: Event) -> None:
        def _on_trigger(evt: Event) -> None:
            # Resume on the simulator agenda (same timestamp) rather than
            # synchronously, to keep resumption order deterministic.
            if evt.ok:
                self.simulator._queue.push(self.simulator.now, lambda: self._resume(evt.value))
            else:
                self.simulator._queue.push(
                    self.simulator.now, lambda: self._resume(error=evt.value)
                )

        if event.triggered:
            _on_trigger(event)
        else:
            event.callbacks.append(_on_trigger)


class Simulator:
    """Owns the virtual clock and the event agenda.

    Typical use::

        sim = Simulator()
        proc = sim.spawn(boot_sequence(vm), name="boot")
        sim.run()
        elapsed = sim.now
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self.now: float = 0.0
        self._spawn_count = 0

    # --- process management --------------------------------------------------

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Register a generator as a process and start it at the current time."""
        self._spawn_count += 1
        process = Process(self, generator, name or f"proc-{self._spawn_count}")
        self._queue.push(self.now, lambda: process._resume())
        return process

    def event(self, name: str = "") -> Event:
        """Create a fresh event bound to no particular time."""
        return Event(name)

    def schedule(self, delay: float, callback) -> None:
        """Run a bare callback after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        self._queue.push(self.now + delay, callback)

    # --- execution ------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run until the agenda drains (or virtual time ``until``).

        Returns the final virtual time. ``max_events`` is a safety valve
        against accidental infinite event loops in model code.
        """
        processed = 0
        while True:
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                break
            entry = self._queue.pop()
            if entry.time < self.now - 1e-15:
                raise SimulationError(
                    f"time went backwards: {entry.time} < {self.now}"
                )
            self.now = max(self.now, entry.time)
            entry.callback()
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; possible infinite loop"
                )
        return self.now

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: spawn a process, run to completion, return its result."""
        process = self.spawn(generator, name)
        self.run()
        if not process.finished:
            raise SimulationError(
                f"agenda drained but process {process.name!r} never finished "
                "(deadlock: waiting on an event nobody triggers)"
            )
        return process.result
