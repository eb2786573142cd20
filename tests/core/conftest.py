"""Shared fixtures for the core-layer tests.

The headline fixture is ``grid_backend``: one parametrized coordinate per
entry in :data:`repro.core.runner.GRID_BACKENDS`, so every bit-identity
test written against it automatically covers serial, process, *and*
remote execution — the remote leg runs against an in-process
loopback :class:`~repro.core.remote.WorkerServer` on ``127.0.0.1`` (an
ephemeral port, two local worker processes), so the whole fleet path is
exercised in CI without a real fleet.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core.remote import WorkerServer
from repro.core.runner import GRID_BACKENDS, grid_mapper
from repro.core.scheduler import ExecutionPolicy


@pytest.fixture(scope="session")
def loopback_worker():
    """One fleet member on 127.0.0.1: the remote backend's CI stand-in."""
    with WorkerServer(host="127.0.0.1", port=0, workers=2) as server:
        yield server


class GridBackendCase:
    """One grid backend plus the worker roster it needs (if any)."""

    def __init__(self, name: str, workers: tuple[str, ...] = ()) -> None:
        self.name = name
        self.workers = workers

    def policy(self, grid_jobs: int = 2, **kwargs) -> ExecutionPolicy:
        """An ExecutionPolicy selecting this backend.

        ``grid_jobs`` only applies to the local pool backends — remote
        parallelism is the fleet's advertised slot count, and the policy
        rejects the combination.
        """
        return ExecutionPolicy(
            grid_jobs=1 if self.workers else grid_jobs,
            grid_backend=self.name,
            workers=self.workers,
            **kwargs,
        )

    @contextlib.contextmanager
    def open_mapper(self, jobs: int = 2):
        """This backend's mapper, released on exit (serial has no pool)."""
        mapper = grid_mapper(self.name, jobs, workers=self.workers or None)
        try:
            yield mapper
        finally:
            close = getattr(mapper, "close", None)
            if close is not None:
                close()

    def __repr__(self) -> str:  # pragma: no cover - test-id cosmetics
        return f"GridBackendCase({self.name!r})"


@pytest.fixture(params=GRID_BACKENDS)
def grid_backend(request) -> GridBackendCase:
    """Every grid backend; ``remote`` points at the loopback fleet."""
    if request.param == "remote":
        server = request.getfixturevalue("loopback_worker")
        return GridBackendCase("remote", (server.address_string,))
    return GridBackendCase(request.param)
