"""Spans around the public calls into each layer, recorded from outside.

The traced run wraps methods and module-level names of the program with a
:class:`Tracer`. Every wrapped call records one span ``(id, parent, name,
start, end, tag, info)`` in memory; nothing is written until the run ends.
A span opened on a thread with no open span of its own takes the innermost
open span of the main thread as its parent, so the remote mapper's
per-worker threads hang under the dispatch that spawned them.

Rules the wrappers keep, because instrumentation must never change a
result:

* methods are wrapped on their class (``RepJob.run``), never the
  module-level ``run_rep_job``, which is pickled by reference;
* a name imported into another module is patched in the module that looks
  it up (``plan.materialize_streams`` and ``runner.materialize_streams``);
* :meth:`Patches.restore` puts back the exact objects it replaced.

``perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, a clock shared by
every process on the host, so worker spans line up with client spans.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable

#: One recorded span: (id, parent id, name, start, end, tag, info).
Span = tuple


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Set by the benchmark around each figure request: (pass, figure).
        self.tag: tuple | None = None
        #: Agenda entries pushed through ``EventQueue.push`` so far.
        self.pushes = 0
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._main_top: list | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable[[tuple], Any] | None = None,
        after: Callable[[tuple, Any], dict] | None = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``before(args)`` runs at span start and ``after(args, state)`` at
        its end; the dict ``after`` returns becomes the span's ``info``.
        A call nested directly in a span of the same name (``TieredStore.get``
        calling ``RemoteStore.get``) is part of that span, not a new one.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._main_top
            if parent is not None and parent[1] == name:
                return fn(*args, **kwargs)
            on_main = threading.current_thread() is threading.main_thread()
            # [id, name, storenet bytes moved beneath this span]
            frame = [next(tracer._ids), name, 0]
            stack.append(frame)
            if on_main:
                tracer._main_top = frame
            tag = tracer.tag
            state = before(args) if before is not None else None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if on_main:
                    tracer._main_top = stack[-1] if stack else None
                info = after(args, state) if after is not None else None
                if frame[2]:
                    info = dict(info or {}, bytes=frame[2])
                tracer.spans.append(
                    (frame[0], parent[0] if parent is not None else None,
                     name, start, end, tag, info)
                )

        return traced

    def count_frame_bytes(self, fn: Callable, wire_stats: type) -> Callable:
        """A storenet frame function that adds its on-wire bytes to the
        innermost open span (callers that pass their own ``stats`` keep it)."""
        tracer = self

        @functools.wraps(fn)
        def counted(sock: Any, *args: Any, stats: Any = None, **kwargs: Any) -> Any:
            if stats is not None:
                return fn(sock, *args, stats=stats, **kwargs)
            local = wire_stats()
            try:
                return fn(sock, *args, stats=local, **kwargs)
            finally:
                stack = tracer._stack()
                if stack:
                    stack[-1][2] += local.bytes_sent + local.bytes_received

        return counted

    def count_calls(self, fn: Callable) -> Callable:
        """``fn`` counting its calls into :attr:`pushes` (no span)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            tracer.pushes += 1
            return fn(*args, **kwargs)

        return counted


class Patches:
    """Attribute replacements that can be undone exactly."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Any]) -> None:
        """Replace ``owner.attr`` with ``make(current function)``.

        A classmethod is unwrapped for ``make`` and re-wrapped after, so
        ``FigureResult.from_dict`` stays one.
        """
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every original object back, newest replacement first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def patch_targets(role: str) -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped call of a role.

    ``client`` is the benchmark process; ``worker`` is a traced
    ``repro-bench worker`` process.
    """
    from repro.core import plan, remote, results, runner, scheduler, storenet
    from repro.simcore import engine

    if role == "worker":
        return [
            (runner.RepJob, "run", "worker.execute"),
            (engine.Simulator, "run", "simcore.run"),
            (storenet.RemoteStore, "cell_claim", "worker.lease"),
            (storenet.RemoteStore, "cell_put", "worker.lease"),
        ]
    return [
        (scheduler.ExperimentScheduler, "run", "scheduler"),
        (plan.FigurePlan, "lower", "plan.lower"),
        (plan.FigurePlan, "assemble", "plan.fold"),
        (plan, "cell_token", "plan.cell_token"),
        (plan, "materialize_streams", "rng.materialize"),
        (runner, "materialize_streams", "rng.materialize"),
        (runner.RepJob, "run", "workloads.execute"),
        (engine.Simulator, "run", "simcore.run"),
        (remote.RemoteMapper, "__call__", "remote.dispatch"),
        (remote, "send_frame", "remote.send"),
        (remote, "recv_frame", "remote.wait"),
        (storenet.TieredStore, "get", "store.get"),
        (storenet.TieredStore, "put", "store.put"),
        (storenet.RemoteStore, "get", "store.get"),
        (storenet.RemoteStore, "put", "store.put"),
        (results.FigureResult, "from_dict", "results.decode"),
        (results.FigureResult, "to_dict", "results.encode"),
    ]


def install(tracer: Tracer, role: str) -> Patches:
    """Wrap every target of ``role``; the caller must ``restore()`` after."""
    from repro.core import remote, storenet
    from repro.simcore import event

    def dispatch_info(args: tuple, bytes_before: int) -> dict:
        mapper, _fn, items = args
        return {
            "bytes": mapper.wire_stats.total_bytes - bytes_before,
            "cells": len(items),
            "chunk_size": mapper.last_chunk_size,
        }

    hooks: dict[str, tuple] = {
        "simcore.run": (lambda args: tracer.pushes,
                        lambda args, before: {"events": tracer.pushes - before}),
        "remote.dispatch": (lambda args: args[0].wire_stats.total_bytes, dispatch_info),
    }
    patches = Patches()
    try:
        for owner, attr, name in patch_targets(role):
            before, after = hooks.get(name, (None, None))
            patches.replace(
                owner, attr,
                lambda fn, name=name, before=before, after=after:
                    tracer.wrap(name, fn, before, after),
            )
        patches.replace(event.EventQueue, "push", tracer.count_calls)
        if role == "client":
            for attr in ("send_frame", "recv_frame"):
                patches.replace(
                    storenet, attr,
                    lambda fn: tracer.count_frame_bytes(fn, remote.WireStats),
                )
    except BaseException:
        patches.restore()
        raise
    return patches


# --- analysis ----------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> list[tuple[Span, float]]:
    """Each span with its self time: its duration minus the part of that
    interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[3], span[4]))
    return [
        (span, (span[4] - span[3]) - _covered(children.get(span[0], []), span[3], span[4]))
        for span in spans
    ]
