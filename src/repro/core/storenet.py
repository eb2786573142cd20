"""Shared (network) result store: the fleet cache tier.

The local :class:`~repro.core.store.ResultStore` lets one machine skip
work it already did; this module lets a *fleet* skip work any member
already did. A :class:`StoreServer` exposes one cache directory as a
:class:`~repro.core.service.Service` — the same framed-pickle transport
and versioned hello the worker fleet speaks, the CERN-RDA device-server
split applied to the cache. A :class:`RemoteStore` is the client stub
implementing the ``ResultStore`` read/write surface, and a
:class:`TieredStore` composes the two: read-through local-LRU → remote →
execute, write-back to both tiers.

Where a cached result lives is deployment policy, never code — the
RAFDA position. ``ExecutionPolicy(store_url="host:port")`` (CLI:
``run --store host:port``) is the only difference between a private
cache and a shared one, and the results are bit-identical either way:
entries cross the wire as the same canonical JSON-ready dicts the local
store writes to disk, so a second client with a cold local cache
produces byte-for-byte the result a local run would.

Wire protocol — framed pickles, synchronous request/reply per client:

* the hello is ``("hello", {"service": "store", "protocol": 1})``; the
  server answers with its own hello, which advertises its ``verbs`` — the
  version number only moves for *incompatible* changes, additive verbs
  ride on the advertisement;
* requests are ``("get", key_dict)`` → ``("ok", result_dict | None)``,
  ``("put", key_dict, result_dict)`` → ``("ok", True)`` and
  ``("stats",)`` → ``("ok", {...})``; keys travel as their
  :meth:`~repro.core.store.StoreKey` fields and are validated against
  :attr:`~repro.core.store.StoreKey.digest` by the underlying store on
  both ends;
* store-aware workers dedupe at grid-cell granularity through the
  lease verbs: ``("cell_claim", token)`` → ``("ok", ("hit", payload) |
  ("run", None) | ("wait", None))`` — ``hit`` carries the finished
  cell, ``run`` grants this caller an execution lease, ``wait`` means
  another worker holds the lease (poll again; leases expire on the
  monotonic clock so a crashed holder cannot wedge the fleet) — and
  ``("cell_put", token, payload)`` → ``("ok", True)`` publishes a
  finished cell and releases its lease. The cell tier is a bounded
  in-memory map, not the result store: cells are an execution-time
  dedupe artifact, never provenance;
* a request the server cannot honor answers ``("error", None, msg)``
  and drops the connection; the client reconnects lazily on next use.
"""

from __future__ import annotations

import math
import pathlib
import threading
import time
from collections import OrderedDict
from typing import Any

from repro.core.results import FigureResult
from repro.core.service import (
    RemoteError,
    Service,
    ServiceClient,
    recv_frame,
    send_frame,
)
from repro.core.store import ResultStore, StoreKey

__all__ = [
    "STORE_PROTOCOL_VERSION",
    "RemoteStoreError",
    "StoreServer",
    "RemoteStore",
    "TieredStore",
]

STORE_PROTOCOL_VERSION = 1

#: Cell-dedupe defaults: how long one worker may hold an execution
#: lease before waiters reclaim it, and how many finished cells the
#: in-memory tier retains (oldest evicted first).
DEFAULT_CELL_LEASE_S = 30.0
DEFAULT_CELL_CAPACITY = 4096

#: Tier labels recorded in provenance (``cache: hit-local | hit-remote``).
TIER_LOCAL = "local"
TIER_REMOTE = "remote"


class RemoteStoreError(RemoteError):
    """The shared store could not be reached or violated the protocol.

    Deliberately loud: quietly degrading to a miss would falsify the
    recorded cache disposition and trigger the recompute storm the
    shared tier exists to prevent.
    """


def _key_to_wire(key: StoreKey) -> dict[str, Any]:
    return {
        "figure_id": key.figure_id,
        "seed": key.seed,
        "quick": key.quick,
        "overrides_json": key.overrides_json,
    }


def _key_from_wire(payload: dict[str, Any]) -> StoreKey:
    return StoreKey(
        figure_id=str(payload["figure_id"]),
        seed=int(payload["seed"]),
        quick=bool(payload["quick"]),
        overrides_json=str(payload["overrides_json"]),
    )


# --- server ----------------------------------------------------------------------


class StoreServer(Service):
    """Serves one shared cache directory to a fleet of clients.

    Backed by a :class:`~repro.core.store.ResultStore` on ``root``
    (optionally size-bounded via ``max_bytes`` — the LRU tier semantics
    are the local store's, unchanged). Every client connection gets a
    handler thread (see :class:`~repro.core.service.Service`); the store
    itself is thread-safe for concurrent get/put because every write
    lands under a writer-unique temp name and an atomic rename.
    """

    service = "store"
    protocol = STORE_PROTOCOL_VERSION
    noun = "result store"
    error = RemoteStoreError
    #: Advertised in the hello reply. Additive protocol growth rides on
    #: this advertisement — the version constant only moves for
    #: incompatible changes.
    verbs = {
        "get": (1, "_get"),
        "put": (2, "_put"),
        "stats": (0, "_stats"),
        "cell_claim": (1, "_cell_claim"),
        "cell_put": (2, "_cell_put"),
    }

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        root: str | pathlib.Path,
        max_bytes: int | None = None,
        cell_lease_timeout: float = DEFAULT_CELL_LEASE_S,
        cell_capacity: int = DEFAULT_CELL_CAPACITY,
    ) -> None:
        # A NaN lease never reads as live, so every claim of a token would
        # get "run"; an infinite one never expires, so a crashed holder
        # would park its waiters for good.
        if not (math.isfinite(cell_lease_timeout) and cell_lease_timeout > 0):
            raise RemoteStoreError(
                f"cell lease timeout must be finite and positive, got {cell_lease_timeout}"
            )
        if (
            isinstance(cell_capacity, bool)
            or not isinstance(cell_capacity, int)
            or cell_capacity < 1
        ):
            raise RemoteStoreError(
                f"cell capacity must be an int >= 1, got {cell_capacity!r}"
            )
        super().__init__(host, port)
        self.store = ResultStore(root, max_bytes=max_bytes)
        # The cell-dedupe tier: finished cells by token (insertion order
        # doubles as the eviction order) and outstanding execution
        # leases as monotonic-clock deadlines. In-memory on purpose —
        # cells dedupe concurrent *execution*, they are not provenance.
        self.cell_lease_timeout = cell_lease_timeout
        self.cell_capacity = cell_capacity
        self._cells: OrderedDict[str, bytes] = OrderedDict()
        self._cell_leases: dict[str, float] = {}
        self._cell_lock = threading.Lock()
        self._cell_counters = {
            "claims": 0,
            "hits": 0,
            "runs": 0,
            "waits": 0,
            "puts": 0,
            "put_repeats": 0,
            "evicted": 0,
        }

    # --- result verbs ----------------------------------------------------------

    def _get(self, key: Any) -> dict[str, Any] | None:
        result = self.store.get(_key_from_wire(key))
        return result.to_dict() if result is not None else None

    def _put(self, key: Any, result: Any) -> bool:
        self.store.put(_key_from_wire(key), FigureResult.from_dict(result))
        return True

    def _stats(self) -> dict[str, Any]:
        stats = dict(self.store.stats)
        stats["entries"] = sum(1 for _ in self.store.entries())
        stats["total_bytes"] = self.store.total_bytes()
        stats["cells"] = self.cell_stats()
        return stats

    # --- cell-dedupe tier ------------------------------------------------------

    def _cell_claim(self, token: Any) -> tuple[str, bytes | None]:
        """Atomic hit / lease-grant / wait decision for one cell token."""
        if not isinstance(token, str) or not token:
            raise RemoteStoreError(f"cell token must be a non-empty str, got {token!r}")
        with self._cell_lock:
            self._cell_counters["claims"] += 1
            payload = self._cells.get(token)
            if payload is not None:
                self._cell_counters["hits"] += 1
                return ("hit", payload)
            now = time.monotonic()
            deadline = self._cell_leases.get(token)
            if deadline is not None and now < deadline:
                self._cell_counters["waits"] += 1
                return ("wait", None)
            # No result and no live lease (never claimed, or the holder
            # crashed past its deadline): this caller executes.
            self._cell_leases[token] = now + self.cell_lease_timeout
            self._cell_counters["runs"] += 1
            return ("run", None)

    def _cell_put(self, token: Any, payload: Any) -> bool:
        if not isinstance(token, str) or not token:
            raise RemoteStoreError(f"cell token must be a non-empty str, got {token!r}")
        if not isinstance(payload, bytes):
            raise RemoteStoreError(
                f"cell payload must be bytes, got {type(payload).__name__}"
            )
        with self._cell_lock:
            self._cell_counters["puts"] += 1
            if token in self._cells:
                # The at-most-once assertion counter: a second put for
                # one token means two workers executed the same cell.
                self._cell_counters["put_repeats"] += 1
            self._cells[token] = payload
            self._cells.move_to_end(token)
            self._cell_leases.pop(token, None)
            while len(self._cells) > self.cell_capacity:
                self._cells.popitem(last=False)
                self._cell_counters["evicted"] += 1
        return True

    def cell_stats(self) -> dict[str, int]:
        """Cell-tier counters plus the current entry/lease population."""
        with self._cell_lock:
            stats = dict(self._cell_counters)
            stats["entries"] = len(self._cells)
            stats["leases"] = len(self._cell_leases)
        return stats


# --- client ----------------------------------------------------------------------


class RemoteStore(ServiceClient):
    """Client stub for a :class:`StoreServer`: the ``ResultStore`` surface.

    Connects lazily on first use — constructing one (or prescribing it in
    an :class:`~repro.core.scheduler.ExecutionPolicy`) never opens a
    socket, so a run fully satisfied by a warmer tier never dials. A torn
    connection is dropped and redialed on the next request. Failures
    raise :class:`RemoteStoreError` rather than degrading to misses.

    :attr:`last_source` mirrors :class:`TieredStore`: ``"remote"`` after
    a hit, ``None`` after a miss — the scheduler reads it to label cache
    provenance.
    """

    service = "store"
    protocol = STORE_PROTOCOL_VERSION
    noun = "result store"
    error = RemoteStoreError

    def __init__(
        self, address: str | tuple[str, int], *, connect_timeout: float = 10.0
    ) -> None:
        super().__init__(address, connect_timeout=connect_timeout)
        self._hits = 0
        self._misses = 0
        self.last_source: str | None = None

    def describe(self) -> str:
        """One-line location description (suite/CLI display)."""
        return f"store://{self.url}"

    def _request(self, message: tuple) -> Any:
        sock = self._connection()
        try:
            send_frame(sock, message)
            reply = recv_frame(sock)
        except (RemoteError, OSError, EOFError) as exc:
            self.close()
            raise RemoteStoreError(f"result store {self.url} failed: {exc}") from exc
        return self._unwrap(reply)

    # --- ResultStore surface ---------------------------------------------------

    def get(self, key: StoreKey) -> FigureResult | None:
        """Load a shared result, or None on miss."""
        payload = self._request(("get", _key_to_wire(key)))
        if payload is None:
            self._misses += 1
            self.last_source = None
            return None
        self._hits += 1
        self.last_source = TIER_REMOTE
        return FigureResult.from_dict(payload)

    def put(self, key: StoreKey, result: FigureResult) -> None:
        """Publish a result to the shared tier."""
        self._request(("put", _key_to_wire(key), result.to_dict()))

    # --- cell-dedupe surface ---------------------------------------------------

    def cell_claim(self, token: str) -> tuple[str, bytes | None]:
        """Claim one cell: ``("hit", payload)``, ``("run", None)``, or
        ``("wait", None)`` — see the module docstring's lease protocol."""
        status, payload = self._request(("cell_claim", token))
        return str(status), payload

    def cell_put(self, token: str, payload: bytes) -> None:
        """Publish one finished cell and release its lease."""
        self._request(("cell_put", token, payload))

    def server_stats(self) -> dict[str, Any]:
        """The server's own counters plus entry count and total bytes."""
        return self._request(("stats",))

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss counters as seen by this client."""
        return {"hits": self._hits, "misses": self._misses, "evicted": 0}


# --- tiering ---------------------------------------------------------------------


class TieredStore:
    """Local-LRU in front of the shared tier: the fleet client's store.

    Reads go local → remote → (caller executes); a remote hit is written
    back to the local tier so the next read is local. Writes land in both
    tiers, so every fleet member's work is published. ``local`` may be
    ``None`` for a client that reads the shared tier directly.

    :attr:`last_source` reports where the most recent :meth:`get` was
    satisfied (``"local"``, ``"remote"``, or ``None`` on miss) — the
    scheduler turns it into the ``cache: hit-local | hit-remote | miss``
    provenance label.
    """

    def __init__(self, local: ResultStore | None, remote: RemoteStore) -> None:
        self.local = local
        self.remote = remote
        self.last_source: str | None = None
        #: Non-fatal degradations (e.g. a failed local warm-back),
        #: newest last; mirrored by the ``write_back_failures`` counter
        #: in :attr:`stats`.
        self.warnings: list[str] = []
        self._write_back_failures = 0

    @property
    def url(self) -> str:
        """The shared tier's address (recorded in provenance)."""
        return self.remote.url

    def describe(self) -> str:
        """One-line location description (suite/CLI display)."""
        if self.local is None:
            return self.remote.describe()
        return f"{self.local.describe()} -> {self.remote.describe()}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TieredStore(local={self.local!r}, remote={self.remote!r})"

    def get(self, key: StoreKey) -> FigureResult | None:
        """Read through the tiers; a remote hit warms the local tier."""
        self.last_source = None
        if self.local is not None:
            result = self.local.get(key)
            if result is not None:
                self.last_source = TIER_LOCAL
                return result
        result = self.remote.get(key)
        if result is not None:
            self.last_source = TIER_REMOTE
            if self.local is not None:
                # Warming is best-effort: the result is already in hand,
                # so a full disk or a permissions slip on the *local*
                # tier must not fail the run — record it and move on.
                # (Real remote failures above stay loud; and an explicit
                # put() still raises, because there the write is the
                # point of the call.)
                try:
                    self.local.put(key, result)
                except Exception as exc:
                    self._write_back_failures += 1
                    self.warnings.append(
                        f"local-tier warm-back failed for {key.figure_id} "
                        f"({key.digest[:8]}): {type(exc).__name__}: {exc}"
                    )
            return result
        return None

    def put(self, key: StoreKey, result: FigureResult) -> None:
        """Write back to both tiers."""
        if self.local is not None:
            self.local.put(key, result)
        self.remote.put(key, result)

    def close(self) -> None:
        """Drop the shared tier's connection (idempotent)."""
        self.remote.close()

    def __enter__(self) -> "TieredStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def stats(self) -> dict[str, Any]:
        """Per-tier counters: ``{"local": {...} | None, "remote": {...}}``."""
        return {
            "local": dict(self.local.stats) if self.local is not None else None,
            "remote": dict(self.remote.stats),
            "write_back_failures": self._write_back_failures,
        }
