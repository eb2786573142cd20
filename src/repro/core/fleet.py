"""Fleet membership: the coordinator workers register with.

The remote grid backend (:mod:`repro.core.remote`) historically took a
hand-named roster — ``run --workers host:port,...`` — which makes the
fleet a deployment *constant*: every scale-up means re-running the
client. This module turns membership into a service, the RAFDA position
applied to the roster itself: a :class:`FleetCoordinator` is a tiny
registry built on the same :class:`~repro.core.service.Service` skeleton
as the worker and store services, ``repro-bench worker --fleet
host:port`` registers on start / heartbeats on an interval / deregisters
on drain, and ``run --fleet host:port`` resolves the *live* roster at
dispatch time instead of baking one in. Which machines execute a grid is
then pure deployment policy — workers can join mid-run and are admitted,
workers that stop heartbeating are treated exactly like a dead socket
(their in-flight chunks re-queue to the survivors).

Membership is soft state (the Grapevine/anti-entropy lesson): the
coordinator holds it in memory only, loses nothing durable on restart
(workers re-register on their next heartbeat), and never touches the
result path — determinism is owned entirely by the pre-derived RNG
streams, so the roster can churn freely without perturbing a bit of
output.

Wire protocol (v1) — framed pickles, synchronous request/reply:

* the hello is ``("hello", {"service": "fleet", "protocol": 1})`` and
  the coordinator answers in kind — the ``service`` marker keeps a
  mis-pointed worker roster or store URL a clear error;
* requests are ``("register", {"address": str, "slots": int})`` →
  ``("ok", True)``, ``("heartbeat", address)`` → ``("ok", known)``
  (``known=False`` tells a worker the coordinator restarted and it must
  re-register), ``("deregister", address)`` → ``("ok", True)``,
  ``("roster",)`` → ``("ok", [{"address": ..., "slots": ...}, ...])``
  (live members only, sorted by address), and ``("stats",)`` →
  ``("ok", {...counters...})``;
* a request the server cannot honor answers ``("error", None, msg)``
  and drops the connection; clients reconnect lazily on next use.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any

from repro.core.service import (
    RemoteError,
    Service,
    ServiceClient,
    parse_worker_address,
    recv_frame,
    send_frame,
)

__all__ = [
    "FLEET_PROTOCOL_VERSION",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "FleetError",
    "FleetCoordinator",
    "FleetClient",
]

FLEET_PROTOCOL_VERSION = 1

#: A member that has not heartbeat for this long is pruned from the
#: roster. Three times the worker-side default interval (2s), so one
#: dropped beat never evicts a healthy worker.
DEFAULT_HEARTBEAT_TIMEOUT = 6.0


class FleetError(RemoteError):
    """The fleet coordinator could not be reached or violated the protocol.

    Loud by design on the *registration* path (a worker pointed at a
    dead coordinator is a misconfiguration); transient heartbeat and
    roster-refresh failures are retried by the callers instead.
    """


# --- coordinator ------------------------------------------------------------------


class FleetCoordinator(Service):
    """The membership registry one elastic fleet shares.

    Tracks ``address -> slots`` for every registered worker and prunes
    members whose last heartbeat is older than ``heartbeat_timeout``
    seconds. Liveness is measured on the monotonic clock — wall-clock
    steps must not mass-evict a healthy fleet. ``serve_forever()`` is the
    ``repro-bench fleet`` loop; the context-manager form is the loopback
    fixture::

        with FleetCoordinator(port=0) as coordinator:
            worker = WorkerServer(port=0, fleet_url=coordinator.address_string)
            ...
    """

    service = "fleet"
    protocol = FLEET_PROTOCOL_VERSION
    noun = "fleet coordinator"
    error = FleetError
    verbs = {
        "register": (1, "_register"),
        "heartbeat": (1, "_heartbeat"),
        "deregister": (1, "_deregister"),
        "roster": (0, "_roster"),
        "stats": (0, "_stats"),
    }

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    ) -> None:
        if not (math.isfinite(heartbeat_timeout) and heartbeat_timeout > 0):
            raise FleetError(
                f"heartbeat timeout must be positive, got {heartbeat_timeout}"
            )
        super().__init__(host, port)
        self.heartbeat_timeout = heartbeat_timeout
        #: address -> {"slots": int, "last_seen": monotonic seconds}
        self._members: dict[str, dict[str, Any]] = {}
        self._members_lock = threading.Lock()
        self._counters = {
            "registered": 0,
            "deregistered": 0,
            "expired": 0,
            "heartbeats": 0,
            "roster_reads": 0,
        }

    def members(self) -> list[dict[str, Any]]:
        """The live roster: ``[{"address": ..., "slots": ...}, ...]``.

        Prunes members past the heartbeat timeout first; sorted by
        address so every reader (and the mapper's driver-thread naming)
        sees one stable order.
        """
        now = time.monotonic()
        with self._members_lock:
            stale = [
                address
                for address, member in self._members.items()
                if now - member["last_seen"] > self.heartbeat_timeout
            ]
            for address in stale:
                del self._members[address]
                self._counters["expired"] += 1
            return [
                {"address": address, "slots": self._members[address]["slots"]}
                for address in sorted(self._members)
            ]

    # --- verbs -----------------------------------------------------------------

    def _register(self, member: dict[str, Any]) -> bool:
        address, slots = str(member["address"]), int(member["slots"])
        parse_worker_address(address)  # reject unroutable registrations early
        if slots < 1:
            raise FleetError(f"slots must be >= 1, got {slots}")
        with self._members_lock:
            self._members[address] = {"slots": slots, "last_seen": time.monotonic()}
            self._counters["registered"] += 1
        return True

    def _heartbeat(self, address: Any) -> bool:
        with self._members_lock:
            self._counters["heartbeats"] += 1
            member = self._members.get(str(address))
            if member is None:
                # Unknown: the coordinator restarted (or expired this
                # worker); False tells the worker to re-register.
                return False
            member["last_seen"] = time.monotonic()
            return True

    def _deregister(self, address: Any) -> bool:
        with self._members_lock:
            if self._members.pop(str(address), None) is not None:
                self._counters["deregistered"] += 1
        return True

    def _roster(self) -> list[dict[str, Any]]:
        with self._members_lock:
            self._counters["roster_reads"] += 1
        return self.members()

    def _stats(self) -> dict[str, Any]:
        live = self.members()  # prunes first, so "live" is truthful
        with self._members_lock:
            stats = dict(self._counters)
        stats["live"] = len(live)
        return stats


# --- client ----------------------------------------------------------------------


class FleetClient(ServiceClient):
    """Client stub for a :class:`FleetCoordinator`.

    Connects lazily on first use, redials lazily after a torn
    connection, and raises :class:`FleetError` on failure — the
    *callers* decide which failures are transient (a missed heartbeat, a
    roster refresh mid-dispatch) and which are fatal (registering
    against a dead coordinator at worker start).
    """

    service = "fleet"
    protocol = FLEET_PROTOCOL_VERSION
    noun = "fleet coordinator"
    error = FleetError

    def _request(self, message: tuple) -> Any:
        sock = self._connection()
        try:
            send_frame(sock, message)
            reply = recv_frame(sock)
        except (RemoteError, OSError, EOFError) as exc:
            self.close()
            raise FleetError(f"fleet coordinator {self.url} failed: {exc}") from exc
        return self._unwrap(reply)

    def register(self, address: str, slots: int) -> None:
        """Join the fleet as ``address`` with ``slots`` local workers."""
        self._request(("register", {"address": address, "slots": int(slots)}))

    def heartbeat(self, address: str) -> bool:
        """Refresh liveness; False means the coordinator forgot us
        (restart or expiry) and the worker must re-register."""
        return bool(self._request(("heartbeat", address)))

    def deregister(self, address: str) -> None:
        """Leave the roster (drain: new dispatches stop seeing us)."""
        self._request(("deregister", address))

    def roster(self) -> list[dict[str, Any]]:
        """The live members, sorted by address."""
        return list(self._request(("roster",)))

    def stats(self) -> dict[str, Any]:
        """The coordinator's membership counters."""
        return dict(self._request(("stats",)))
