"""Shared fixtures for the core-layer tests.

The headline fixture is ``grid_backend``: one parametrized coordinate per
backend an :class:`~repro.core.scheduler.ExecutionPolicy` can derive, so
every bit-identity test written against it automatically covers serial,
process, *and* remote execution — the remote leg runs against an in-process
loopback :class:`~repro.core.remote.WorkerServer` on ``127.0.0.1`` (an
ephemeral port, two local worker processes), so the whole fleet path is
exercised in CI without a real fleet.
"""

from __future__ import annotations

import contextlib
import socket

import pytest

from repro.core.remote import WorkerServer
from repro.core.scheduler import (
    BACKEND_PROCESS,
    BACKEND_REMOTE,
    BACKEND_SERIAL,
    ExecutionPolicy,
)


@pytest.fixture(scope="session")
def loopback_worker():
    """One fleet member on 127.0.0.1: the remote backend's CI stand-in."""
    with WorkerServer(host="127.0.0.1", port=0, workers=2) as server:
        yield server


@pytest.fixture
def held_port():
    """A loopback port that a listening test socket holds while the test runs."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        yield holder.getsockname()[1]


@pytest.fixture
def corrupt_entries() -> tuple[bytes, ...]:
    """Store entry contents a get must read as a miss: malformed JSON,
    bytes that are not UTF-8, JSON that is not an object, and an object
    whose key is not one."""
    return (
        b"{not json",
        b"\xff\xfe\x00 not utf-8",
        b"[]",
        b'"x"',
        b'{"schema": 1, "key": [], "result": {}}',
    )


class GridBackendCase:
    """One grid backend plus the worker roster it needs (if any)."""

    def __init__(self, name: str, workers: tuple[str, ...] = ()) -> None:
        self.name = name
        self.workers = workers

    def policy(self, grid_jobs: int = 2) -> ExecutionPolicy:
        """The ExecutionPolicy that derives this backend.

        ``grid_jobs`` is the process pool's width; the serial case runs on
        one slot, and remote parallelism is the fleet's advertised slot
        count (the policy rejects ``grid_jobs`` with a roster).
        """
        if self.name == BACKEND_REMOTE:
            policy = ExecutionPolicy(workers=self.workers)
        else:
            policy = ExecutionPolicy(grid_jobs=grid_jobs if self.name == BACKEND_PROCESS else 1)
        assert policy.grid_backend == self.name
        return policy

    @contextlib.contextmanager
    def open_mapper(self, jobs: int = 2):
        """This backend's mapper, released on exit (serial has no pool)."""
        mapper = self.policy(jobs).mapper()
        try:
            yield mapper
        finally:
            close = getattr(mapper, "close", None)
            if close is not None:
                close()

    def __repr__(self) -> str:  # pragma: no cover - test-id cosmetics
        return f"GridBackendCase({self.name!r})"


@pytest.fixture(params=(BACKEND_SERIAL, BACKEND_PROCESS, BACKEND_REMOTE))
def grid_backend(request) -> GridBackendCase:
    """Every grid backend; ``remote`` points at the loopback fleet."""
    if request.param == BACKEND_REMOTE:
        server = request.getfixturevalue("loopback_worker")
        return GridBackendCase(BACKEND_REMOTE, (server.address_string,))
    return GridBackendCase(request.param)
