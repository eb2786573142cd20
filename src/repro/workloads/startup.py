"""Startup-time probe (Figures 13, 14, 15).

Measures end-to-end process time — creation to termination — with the
payload patched to exit immediately (patched init for hypervisors/LXC, an
'exit' entry point for containers, a program-less invocation for OSv).
300 consecutive startups per platform feed the CDFs.

Two measurement methods reproduce the Finding 16 methodology check:

* ``END_TO_END``  — the full process lifetime, as measured with ``time``;
* ``STDOUT_GREP`` — stop when the platform prints its ready line, which
  skips process termination (1–2 % less).

The boot sequence runs as a discrete-event process: each
:class:`~repro.platforms.base.BootPhase` becomes a timed simulation step,
so boot samples come from the same engine as the protocol models.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.platforms.base import BootPhase, Platform
from repro.rng import RngStream, materialize_streams
from repro.simcore.engine import Simulator, Timeout
from repro.units import seconds_to_ms
from repro.workloads.base import Workload

__all__ = ["MeasurementMethod", "StartupWorkload", "StartupResult"]


class MeasurementMethod(enum.Enum):
    """How the stop timestamp is taken (Finding 16)."""

    END_TO_END = "end-to-end"
    STDOUT_GREP = "stdout-grep"


#: Phases counted as "after the ready line" for the stdout-grep method.
_TERMINATION_PHASES = frozenset(
    {
        "teardown",
        "vm-teardown",
        "process-exit",
        "systemd-shutdown",
        "immediate-shutdown",
    }
)


@dataclass(frozen=True)
class StartupResult:
    """The startup-time distribution of one platform."""

    platform: str
    method: MeasurementMethod
    samples_s: tuple[float, ...]

    def cdf(self) -> tuple[list[float], list[float]]:
        """(sorted sample ms, cumulative probability) for CDF plotting."""
        ordered = sorted(seconds_to_ms(s) for s in self.samples_s)
        count = len(ordered)
        return ordered, [(index + 1) / count for index in range(count)]


def _boot_process(phases: list[BootPhase], phase_streams: list[RngStream]):
    """DES process: run each boot phase in sequence.

    ``phase_streams`` holds one pre-derived stream per phase (the
    ``rng.child(phase.name)`` children, batch-derived by the caller so a
    whole run's streams can be seeded in one vectorized pass).
    """
    for phase, stream in zip(phases, phase_streams):
        yield Timeout(phase.sample(stream))
    return None


class StartupWorkload(Workload):
    """300 consecutive startups, as in Section 3.5."""

    name = "startup"

    def __init__(
        self,
        startups: int = 300,
        method: MeasurementMethod = MeasurementMethod.END_TO_END,
    ) -> None:
        if startups < 1:
            raise ConfigurationError("need at least one startup")
        self.startups = startups
        self.method = method

    def run(self, platform: Platform, rng: RngStream) -> StartupResult:
        phases = platform.boot_phases()
        if self.method is MeasurementMethod.STDOUT_GREP:
            phases = [p for p in phases if p.name not in _TERMINATION_PHASES]
        # Derive every (startup, phase) stream up front: the derivation is
        # pure hashing, so the order cannot change any draw, and handing the
        # full batch to materialize_streams seeds all ~startups x phases
        # generators in one vectorized pass instead of one by one.
        phase_names = [phase.name for phase in phases]
        run_streams = rng.children(
            [f"startup-{index}" for index in range(self.startups)]
        )
        phase_streams = [run.children(phase_names) for run in run_streams]
        materialize_streams([s for streams in phase_streams for s in streams])
        samples: list[float] = []
        for index in range(self.startups):
            simulator = Simulator()
            simulator.run_process(
                _boot_process(phases, phase_streams[index]), name=f"boot-{index}"
            )
            samples.append(simulator.now)
        return StartupResult(
            platform=platform.name,
            method=self.method,
            samples_s=tuple(samples),
        )
