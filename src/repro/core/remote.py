"""Remote grid backend: ship lowered grid cells to a worker fleet.

The plan layer (:mod:`repro.core.plan`) lowers every figure to a flat
grid of picklable, self-contained :class:`~repro.core.runner.RepJob`s, so
dispatching a figure across machines needs nothing but a transport: this
module is that transport. It follows the client-stub / device-server
split of CERN's RDA middleware — a :class:`WorkerServer` is the device
server (a :class:`~repro.core.service.Service` that executes jobs,
``workers`` local worker processes each), a :class:`RemoteMapper` is the
client stub (the mapper
:meth:`~repro.core.scheduler.ExecutionPolicy.mapper` derives whenever a
policy names a roster or a fleet; it fans one grid over every connected
worker). Where the cells execute is deployment-time policy
(``--workers host:port,...`` or ``--fleet host:port``), never a code
change — the RAFDA position.

Wire protocol (v4) — the framed pickles of :mod:`repro.core.service`:

* the client opens with ``("hello", {"service": "worker", "protocol":
  4, "store": "host:port"-or-None})`` and the server answers
  ``("hello", {"service": "worker", "protocol": 4, "verbs": ("chunk",),
  "slots": S})`` — ``S`` is the worker's local process count, which the
  client uses as its pipelining window (counted in *chunks*), and
  ``store`` names the shared store this connection's cells dedupe
  through (see below). v4 added the ``service`` marker the store and
  fleet hellos already carried; v3 added the store address and the cell
  stats, v2 chunked frames. Earlier v4 peers also offered a zlib
  threshold in the hello; a worker ignores that field and answers
  without one, which such a client reads as "no compression", so every
  frame in both directions stays plain;
* work flows as ``("chunk", seq, fn, [item, ...])`` — one frame carries
  one contiguous slab of the lowered grid (``fn`` picklable by
  reference — :func:`~repro.core.runner.run_rep_job` for grid cells),
  so the framed-pickle round-trip is amortized over the slab — and
  comes back as ``("chunk_result", seq, [value, ...], cell_stats)`` or
  ``("error", seq, message)``, *in completion order* — the client
  reassembles by ``seq`` and slabs are contiguous, so the mapper stays
  order-preserving for every chunk size; ``cell_stats`` is
  ``{"executed": n, "store_hits": n}`` when the worker deduped the slab
  through a store, else ``None`` (clients also accept the v2-shaped
  3-tuple, so in-process test doubles stay simple);
* with a store in the hello, the worker consults the store's cell-lease
  tier (:mod:`repro.core.storenet`) around every *tokenized* cell of a
  chunk: claim before executing (a ``hit`` ships the finished cell, a
  ``wait`` polls a peer's in-flight execution, a ``run`` executes and
  writes back), so two clients racing the same figure through one store
  execute each cell at most once, fleet-wide. The dedupe is strictly
  best-effort: any store trouble drops back to direct execution —
  correctness never depends on the cache, and a cell's value is a pure
  function of its pre-derived stream either way;
* a protocol violation (including a version mismatch from an old fleet
  member) is answered with a seq-less ``("error", None, message)``
  naming both versions — a mixed-version fleet fails the handshake
  loudly instead of corrupting frames silently;
* a client closes its socket to finish; the server drains that
  connection's in-flight chunks first (graceful shutdown, both ways).

Determinism is untouched by all of this: every cell's RNG stream was
pre-derived during lowering, so remote results are bit-identical to
serial ones no matter which worker runs which chunk, in which order, or
how often a chunk is retried after a worker disconnect (re-running a
cell re-runs the same pure function of the same stream).
"""

from __future__ import annotations

import pickle
import signal
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence

from repro.core.chunking import auto_chunk_size, chunk_items
from repro.core.fleet import FleetClient, FleetError
from repro.core.service import (
    RemoteDispatchError,
    RemoteError,
    RemoteProtocolError,
    Service,
    ServiceClient,
    WireStats,
    _is_wait_timeout,
    check_addresses,
    parse_worker_address,
    recv_frame,
    send_frame,
)
from repro.core.storenet import RemoteStore
from repro.errors import ConfigurationError

__all__ = [
    "PROTOCOL_VERSION",
    "RemoteError",
    "RemoteProtocolError",
    "RemoteDispatchError",
    "RemoteJobError",
    "WireStats",
    "send_frame",
    "recv_frame",
    "parse_worker_address",
    "WorkerServer",
    "RemoteMapper",
]

#: v4: the hello carries the ``service`` marker. v3 added an optional
#: shared-store address in the hello and a cell-stats element on chunk
#: results (worker-side cell dedupe); v2 chunked job frames and
#: chunk-granular slot accounting. Older peers are refused at the
#: handshake.
PROTOCOL_VERSION = 4


class RemoteJobError(RemoteError):
    """A job raised inside a worker; carries the worker-side message.

    Not retried: jobs are pure functions of their pre-derived streams, so
    a failure is deterministic — re-running it elsewhere fails the same
    way.
    """


# --- server ----------------------------------------------------------------------

#: How long a worker waiting on a peer's in-flight cell sleeps between
#: lease polls. Small: cells are short relative to chunks, and the poll
#: only happens while a *different* worker is computing the same cell.
_CELL_WAIT_POLL_S = 0.05

#: Per-thread cache of cell-dedupe store clients, keyed by store URL.
#: Thread-local because a store connection is a synchronous
#: request/reply socket: the inline (``workers=1``) server executes
#: chunks on its connection-handler threads, which must not interleave
#: requests on one socket. Pool workers are single-threaded processes,
#: so they hold exactly one entry each. A URL maps to ``None`` once the
#: store proved unusable — dedupe is best-effort, so we stop redialing
#: and run cells directly.
_CELL_CLIENTS = threading.local()


def _cell_client(store_url: str) -> RemoteStore | None:
    """This thread's dedupe client for ``store_url`` (None = disabled)."""
    cache = getattr(_CELL_CLIENTS, "clients", None)
    if cache is None:
        cache = _CELL_CLIENTS.clients = {}
    if store_url in cache:
        return cache[store_url]
    client = None
    try:
        candidate = RemoteStore(store_url)
        if candidate.supports("cell_claim"):
            client = candidate
        else:
            candidate.close()  # a v1-original store: no cell tier to use
    except Exception:
        client = None
    cache[store_url] = client
    return client


def _disable_cell_client(store_url: str) -> None:
    """Stop using (and redialing) a store that just failed mid-chunk."""
    cache = getattr(_CELL_CLIENTS, "clients", None)
    if cache is not None:
        client = cache.get(store_url)
        if client is not None:
            try:
                client.close()
            except Exception:
                pass
        cache[store_url] = None


def _run_cell_deduped(
    fn: Callable[[Any], Any], item: Any, store_url: str, stats: dict[str, int]
) -> Any:
    """Run one cell through the store's lease protocol (best-effort).

    Tokenized cells claim before executing: a ``hit`` returns the
    peer-computed value, a ``run`` executes here and publishes, a
    ``wait`` polls a peer's in-flight execution (the server expires
    stale leases, so a crashed holder cannot wedge us — the next claim
    gets ``run``). Any store failure disables dedupe for this thread
    and falls back to executing directly: the store can save work, but
    it must never be able to fail work.
    """
    client = _cell_client(store_url)
    token = getattr(item, "token", None)
    claimed = False
    if client is not None and token is not None:
        try:
            while True:
                status, payload = client.cell_claim(token)
                if status == "hit":
                    value = pickle.loads(payload)
                    stats["store_hits"] += 1
                    return value
                if status == "run":
                    claimed = True
                    break
                time.sleep(_CELL_WAIT_POLL_S)
        except Exception:
            _disable_cell_client(store_url)
            client = None
    # fn may raise — that is a real workload failure and propagates as
    # the chunk's error; an unpublished claim simply expires server-side.
    value = fn(item)
    stats["executed"] += 1
    if claimed and client is not None:
        try:
            client.cell_put(token, pickle.dumps(value))
        except Exception:
            _disable_cell_client(store_url)
    return value


def _run_chunk_call(
    payload: tuple[Callable[[Any], Any], list[Any], str | None],
) -> tuple[list[Any], dict[str, int] | None]:
    """Local-pool entry point: run one shipped slab, cell by cell, in order.

    With a store URL (from the connection's hello) every cell goes
    through :func:`_run_cell_deduped`; the returned stats say how many
    cells this worker executed vs. fetched from a fleet peer.
    """
    fn, chunk, store_url = payload
    if store_url is None:
        return [fn(item) for item in chunk], None
    stats = {"executed": 0, "store_hits": 0}
    return [_run_cell_deduped(fn, item, store_url, stats) for item in chunk], stats


class WorkerServer(Service):
    """One fleet member: executes shipped jobs on local worker processes.

    Accepts any number of client connections and runs each connection's
    jobs on a pool of ``workers`` local processes shared across
    connections (``workers=1`` executes inline in the connection's
    handler thread — no fork, the CI loopback default). Results are sent
    back as they complete, tagged with the client's sequence number, so
    a multi-process worker naturally completes out of order and the
    client reassembles. ``stop()`` drains in-flight jobs, closes every
    connection, and releases the pool::

        with WorkerServer(port=0, workers=2) as server:
            mapper = RemoteMapper([server.address_string])
            ...

    With ``fleet_url`` the worker is an *elastic* fleet member: it
    registers with the named :class:`~repro.core.fleet.FleetCoordinator`
    once listening (loudly — a dead coordinator at start is a
    misconfiguration), heartbeats every ``heartbeat_interval`` seconds
    on a daemon thread (re-registering if the coordinator restarted,
    shrugging off transient outages), and deregisters on ``stop()`` —
    drain semantics: new dispatches stop seeing the worker immediately,
    while in-flight chunks still finish. ``advertise`` overrides the
    address registered (needed when the bind address — ``0.0.0.0``, a
    container-private IP — is not the address clients should dial).
    """

    service = "worker"
    protocol = PROTOCOL_VERSION
    noun = "worker"
    error = RemoteDispatchError
    #: Served by the pipelined :meth:`_session` rather than the default
    #: request/reply loop: chunk results go back in completion order.
    verbs = {"chunk": (3, "_dispatch")}

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 1,
        fleet_url: str | None = None,
        advertise: str | None = None,
        heartbeat_interval: float = 2.0,
    ) -> None:
        if workers < 1:
            raise RemoteDispatchError(f"workers must be >= 1, got {workers}")
        if not _is_wait_timeout(heartbeat_interval):
            raise RemoteDispatchError(
                f"heartbeat interval must be positive and at most "
                f"{threading.TIMEOUT_MAX:.0f} s, got {heartbeat_interval}"
            )
        # Reject undialable spellings before anything binds.
        check_addresses(("fleet", fleet_url), ("advertise", advertise))
        super().__init__(host, port)
        self.workers = workers
        self.fleet_url = fleet_url
        self.advertise = advertise
        self.heartbeat_interval = heartbeat_interval
        self._fleet_client: FleetClient | None = None
        self._heartbeat_thread: threading.Thread | None = None
        self._heartbeat_stop = threading.Event()
        self._executor: ProcessPoolExecutor | None = None

    @property
    def advertised_address(self) -> str:
        """The address this worker registers with its fleet coordinator."""
        return self.advertise if self.advertise is not None else self.address_string

    # --- lifecycle -------------------------------------------------------------

    def start(self) -> "WorkerServer":
        """Pre-fork the local pool, begin accepting clients, join the fleet."""
        if self._listener is not None:
            raise RemoteDispatchError("worker already started")
        if self.workers > 1:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_ignore_stop_signals
            )
            # Fork the pool's processes now, from the starting thread —
            # ProcessPoolExecutor forks lazily on first submit, which
            # would otherwise happen inside a connection handler thread.
            self._executor.submit(_noop).result()
        try:
            super().start()
        except BaseException:
            # A failed bind (a busy port): no pool process may outlive it.
            self._release_pool()
            raise
        if self.fleet_url is not None:
            try:
                self._join_fleet()
            except BaseException:
                # A worker pointed at a dead coordinator is misconfigured;
                # fail start() loudly, but leave no half-started server.
                self.stop()
                raise
        return self

    def stop(self) -> None:
        """Leave the fleet, drain every connection, then release the pool."""
        if self._listener is None:
            return
        self._leave_fleet()
        super().stop()
        self._release_pool()

    def _release_pool(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _join_fleet(self) -> None:
        assert self.fleet_url is not None
        self._fleet_client = FleetClient(self.fleet_url)
        self._fleet_client.register(self.advertised_address, self.workers)
        self._heartbeat_stop.clear()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-worker-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    def _heartbeat_loop(self) -> None:
        client = self._fleet_client
        assert client is not None
        while not self._heartbeat_stop.wait(timeout=self.heartbeat_interval):
            try:
                if not client.heartbeat(self.advertised_address):
                    # The coordinator forgot us (restart, or it expired
                    # us during a long GC pause): membership is soft
                    # state, so just re-register.
                    client.register(self.advertised_address, self.workers)
            except FleetError:
                continue  # transient coordinator outage: retry next beat

    def _leave_fleet(self) -> None:
        self._heartbeat_stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=5)
            self._heartbeat_thread = None
        if self._fleet_client is not None:
            try:
                # Drain semantics: leave the roster *before* the listener
                # closes, so new dispatches stop seeing us while in-flight
                # chunks finish. Best-effort — the heartbeat timeout
                # prunes us anyway if the coordinator is unreachable.
                self._fleet_client.deregister(self.advertised_address)
            except FleetError:
                pass
            self._fleet_client.close()
            self._fleet_client = None

    # --- connection handling ---------------------------------------------------

    def _check_hello(self, offer: dict[str, Any]) -> dict[str, Any]:
        store_url = offer.get("store")
        if store_url is not None and not isinstance(store_url, str):
            raise RemoteProtocolError(f"bad store address {store_url!r}")
        return {"slots": self.workers}

    def _session(self, conn: socket.socket, offer: dict[str, Any]) -> None:
        """The pipelined chunk loop: accept chunks while earlier ones run,
        reply as each completes, and drain before the connection closes."""
        send_lock = threading.Lock()
        in_flight: set[Future] = set()
        store_url = offer.get("store")
        try:
            while True:
                try:
                    message = recv_frame(conn)
                except (EOFError, RemoteProtocolError, OSError):
                    break  # client hung up (or stop() closed us)
                if not (
                    isinstance(message, tuple)
                    and len(message) == 4
                    and message[0] == "chunk"
                    and isinstance(message[3], list)
                ):
                    send_frame(conn, ("error", None, f"unexpected frame {message!r}"))
                    break
                _kind, seq, fn, chunk = message
                self._dispatch(conn, send_lock, in_flight, seq, fn, chunk, store_url)
        finally:
            # Graceful drain: finish (and deliver, best-effort) every chunk
            # this connection already accepted before closing it.
            for future in list(in_flight):  # repro: ignore[RB101] join-only drain; order unobservable
                try:
                    future.result()
                except Exception:
                    pass

    def _dispatch(
        self,
        conn: socket.socket,
        send_lock: threading.Lock,
        in_flight: set[Future],
        seq: int,
        fn: Callable[[Any], Any],
        chunk: list[Any],
        store_url: str | None,
    ) -> None:
        def deliver(reply: tuple) -> None:
            try:
                with send_lock:
                    send_frame(conn, reply)
            except OSError:
                pass  # client gone; it will re-queue the chunk elsewhere

        if self._executor is None:
            deliver(_execute_reply(seq, fn, chunk, store_url))
            return
        # One pool task per slab: the chunk is the unit of dispatch on
        # both sides of the wire, so slot accounting stays in chunks.
        future = self._executor.submit(_run_chunk_call, (fn, chunk, store_url))
        in_flight.add(future)

        def on_done(done: Future) -> None:
            in_flight.discard(done)
            try:
                values, cell_stats = done.result()
                deliver(("chunk_result", seq, values, cell_stats))
            except Exception as exc:
                deliver(("error", seq, f"{type(exc).__name__}: {exc}"))

        future.add_done_callback(on_done)


def _execute_reply(
    seq: int, fn: Callable[[Any], Any], chunk: list[Any], store_url: str | None
) -> tuple:
    try:
        values, cell_stats = _run_chunk_call((fn, chunk, store_url))
        return ("chunk_result", seq, values, cell_stats)
    except Exception as exc:
        return ("error", seq, f"{type(exc).__name__}: {exc}")


def _noop() -> None:
    """Pool warm-up payload (forks the workers at start() time)."""


def _ignore_stop_signals() -> None:
    """Pool initializer: leave SIGTERM and SIGINT to the parent's drain.

    A fork inherits the parent's handlers, so a signal sent to the whole
    process group (``pkill -f``, a supervisor stopping a control group)
    would otherwise raise in every idle child; :meth:`WorkerServer.stop`
    shuts the pool down either way.
    """
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


# --- client ----------------------------------------------------------------------


class _WorkerConnection(ServiceClient):
    """One live connection to a fleet member, with its pipelining window."""

    service = "worker"
    protocol = PROTOCOL_VERSION
    noun = "worker"
    error = RemoteProtocolError

    def __init__(
        self, address: tuple[str, int], timeout: float, *, store_url: str | None = None
    ) -> None:
        super().__init__(address, connect_timeout=timeout, store=store_url)
        # Dialed now, not lazily: the mapper connects its roster up front.
        self.sock = self._connection()
        self.slots = max(1, int(self.peer.get("slots", 1)))


class RemoteMapper:
    """Order-preserving grid mapper that fans items over a worker fleet.

    The mapper :meth:`~repro.core.scheduler.ExecutionPolicy.mapper`
    derives for a policy with a roster or a fleet. One mapper serves one
    client: connections are opened lazily on the first dispatch — so a
    policy can prescribe the remote backend and a warm
    :class:`~repro.core.store.ResultStore` still short-circuits the run
    without a single socket — and reused across dispatches until
    :meth:`close`.

    Dispatch is *chunked*: the grid is split into contiguous slabs sized
    by :func:`~repro.core.chunking.auto_chunk_size` over the fleet's
    total advertised slots, and one frame carries one slab, amortizing
    the framed-pickle round-trip per cell.
    One client thread drives each connected worker, keeping up to the
    worker's advertised ``slots`` *chunks* in flight. Replies carry the
    chunk's submission sequence number and land at that index; slabs are
    contiguous, so the flattened map is order-preserving regardless of
    which worker finishes what first. :attr:`last_chunk_size` records
    the slab size of the most recent dispatch (provenance);
    :attr:`wire_stats` accumulates on-wire byte counts across
    dispatches (perfbench's ``remote.bytes_per_cell`` source).

    Failure policy: with a static roster, the whole roster must be
    reachable while the mapper holds no connection (a member that is
    down before the run even starts is a misconfiguration, and
    tolerating it would falsify the recorded roster); each later
    dispatch redials members whose connection was dropped. A worker
    that disconnects mid-grid has its in-flight chunks re-queued to the
    surviving workers (at most ``retries`` times per chunk — cells are
    deterministic, so re-execution cannot change results, only recover
    them); a cell that *raises* inside a worker is a real workload
    failure and surfaces as :class:`RemoteJobError`; losing every
    worker raises :class:`RemoteDispatchError`.

    With ``fleet_url`` instead of a roster, membership is *elastic*:
    the live roster is resolved from the named
    :class:`~repro.core.fleet.FleetCoordinator` at dispatch time (at
    least one member must be reachable; individual members may be mid-
    crash, the coordinator just has not noticed yet), and during the
    dispatch the calling thread becomes a membership watcher — every
    ``poll_interval`` seconds it re-reads the roster, connects a driver
    thread for each *joining* worker (which immediately claims pending
    chunks through the condition-variable seam every driver shares),
    and closes the connection of each member that *left* the roster
    (drain or missed heartbeats), funneling its driver into exactly the
    dead-socket re-queue path above. :attr:`last_roster` records every
    member that participated in the most recent dispatch and
    :attr:`last_dedupe` the summed worker-side cell-dedupe counters —
    both land in :class:`~repro.core.scheduler.JobRecord` provenance.

    ``store_url`` (either mode) is handed to every worker in the hello:
    workers then dedupe tokenized cells through that store's lease tier
    fleet-wide — see the module docstring.
    """

    def __init__(
        self,
        workers: Sequence[str | tuple[str, int]] | None = None,
        *,
        retries: int = 3,
        connect_timeout: float = 10.0,
        fleet_url: str | None = None,
        store_url: str | None = None,
        poll_interval: float = 0.25,
    ) -> None:
        if workers and fleet_url is not None:
            raise ConfigurationError(
                "give the remote mapper either a static worker roster or a "
                "fleet coordinator (fleet_url), not both"
            )
        if not workers and fleet_url is None:
            raise RemoteDispatchError(
                "remote mapper needs at least one worker address (or a fleet "
                "coordinator via fleet_url)"
            )
        for label, seconds in (
            ("connect timeout", connect_timeout),
            ("poll interval", poll_interval),
        ):
            if not _is_wait_timeout(seconds):
                raise ConfigurationError(
                    f"{label} must be positive and at most "
                    f"{threading.TIMEOUT_MAX:.0f} s, got {seconds}"
                )
        self.addresses = [parse_worker_address(worker) for worker in workers or ()]
        self.retries = retries
        self.connect_timeout = connect_timeout
        self.fleet_url = fleet_url
        self.store_url = store_url
        self.poll_interval = poll_interval
        self.last_chunk_size: int | None = None
        #: Every worker that participated in the most recent dispatch
        #: (``host:port`` spellings) — for a fleet dispatch this is the
        #: dynamic roster that actually materialized, joiners included.
        self.last_roster: tuple[str, ...] | None = None
        #: Summed worker-side cell-dedupe counters of the most recent
        #: dispatch (``{"executed": n, "store_hits": n}``), or None when
        #: no worker reported any (no store, or v2-shaped test doubles).
        self.last_dedupe: dict[str, int] | None = None
        self.wire_stats = WireStats()
        self._connections: list[_WorkerConnection] = []
        self._fleet_client: Any = None

    def _fleet(self) -> Any:
        if self._fleet_client is None:
            self._fleet_client = FleetClient(self.fleet_url)
        return self._fleet_client

    # --- lifecycle -------------------------------------------------------------

    def connect(self) -> "RemoteMapper":
        """Open (and keep) the fleet connections now instead of lazily.

        Idempotent pre-warm for callers that time dispatches (perfbench
        connects here during set-up, so timed passes measure steady-state
        dispatch, not TCP connect plus handshake).
        """
        self._connect()
        return self

    def _dial(self, address: tuple[str, int]) -> _WorkerConnection:
        return _WorkerConnection(address, self.connect_timeout, store_url=self.store_url)

    def _fleet_roster(self) -> list[tuple[str, int]]:
        """The coordinator's live roster as parsed addresses, sorted."""
        members = self._fleet().roster()
        return sorted(parse_worker_address(member["address"]) for member in members)

    def _connect(self) -> list[_WorkerConnection]:
        """Connect the roster: reuse live connections, dial the rest.

        The roster is the static list, or the coordinator's live roster
        resolved now. Connections surviving a previous dispatch are
        reused while their member is on the roster and closed once it
        left; members with no connection (never dialed, or dropped after
        a failed chunk) are dialed.

        A static mapper holding no connection needs the whole roster: a
        member that is down before the run even starts is a
        misconfiguration (typo'd port, worker not started), and running
        quietly on a partial fleet would falsify the roster recorded in
        provenance. Otherwise a member that cannot be dialed is skipped —
        the coordinator's roster is eventually consistent (a member may
        die between its last heartbeat and our dial), and a static member
        lost mid-run is the tolerated, re-queued failure mode. No
        connection at all is an error in both modes.
        """
        if self.fleet_url is not None:
            try:
                roster = self._fleet_roster()
            except RemoteError as exc:
                raise RemoteDispatchError(
                    f"could not resolve the fleet roster from {self.fleet_url}: {exc}"
                ) from exc
        else:
            roster = self.addresses
        whole_roster = self.fleet_url is None and not self._connections
        kept = {connection.address: connection for connection in self._connections}
        connections: list[_WorkerConnection] = []
        failures: list[str] = []
        # dict.fromkeys: a member listed twice gets one connection.
        for address in dict.fromkeys(roster):
            connection = kept.pop(address, None)
            if connection is None:
                try:
                    connection = self._dial(address)
                except (OSError, RemoteError) as exc:
                    failures.append(f"{address[0]}:{address[1]}: {exc}")
                    continue
            connections.append(connection)
        for connection in kept.values():
            connection.close()  # left the roster between dispatches
        if whole_roster and failures:
            for connection in connections:
                connection.close()
            raise RemoteDispatchError(
                "could not reach the whole worker fleet: " + "; ".join(failures)
            )
        if not connections:
            detail = "; ".join(failures) if failures else "the roster is empty"
            raise RemoteDispatchError(
                f"no live fleet member reachable via coordinator "
                f"{self.fleet_url}: {detail} — start workers with "
                f"`repro-bench worker --fleet {self.fleet_url}`"
            )
        self._connections = connections
        return self._connections

    def close(self) -> None:
        """Drop every connection (idempotent; the mapper may be reused)."""
        for connection in self._connections:
            connection.close()
        self._connections = []
        if self._fleet_client is not None:
            self._fleet_client.close()
            self._fleet_client = None

    def __enter__(self) -> "RemoteMapper":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --- dispatch --------------------------------------------------------------

    def __call__(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        items = list(items)
        if not items:
            return []
        # Connect before chunking: slabs spread over the fleet's total
        # advertised slots, known only after the hello.
        connections = self._connect()
        slots = sum(connection.slots for connection in connections)
        size = auto_chunk_size(len(items), max(1, slots))
        self.last_chunk_size = size
        state = _DispatchState(fn, chunk_items(items, size), self.retries)
        active = {connection.address: connection for connection in connections}
        participated = [
            f"{host}:{port}" for host, port in sorted(active)
        ]
        threads = [self._spawn_driver(connection, state) for connection in connections]
        if self.fleet_url is not None:
            self._watch_fleet(state, active, participated, threads)
        for thread in threads:
            thread.join()
        # Dead connections were discarded by their driver threads (and
        # drained members were closed by the watcher); keep the
        # survivors for the next dispatch.
        self._connections = [
            c for c in active.values() if c not in state.dead
        ]
        # Ordered dedupe: a worker that drained and rejoined mid-dispatch
        # still counts once in the recorded roster.
        self.last_roster = tuple(dict.fromkeys(participated))
        self.last_dedupe = dict(state.dedupe) if state.dedupe else None
        results: list[Any] = []
        for chunk_result in state.finish():
            results.extend(chunk_result)
        return results

    def _spawn_driver(
        self, connection: _WorkerConnection, state: "_DispatchState"
    ) -> threading.Thread:
        thread = threading.Thread(
            target=self._drive_worker,
            args=(connection, state),
            name=f"repro-remote-{connection.address[1]}",
            daemon=True,
        )
        thread.start()
        return thread

    def _watch_fleet(
        self,
        state: "_DispatchState",
        active: dict[tuple[str, int], _WorkerConnection],
        participated: list[str],
        threads: list[threading.Thread],
    ) -> None:
        """Admit joiners and evict leavers until the dispatch settles.

        The calling thread is otherwise idle during a dispatch (the
        driver threads own the sockets), so in fleet mode it polls the
        coordinator between settled-waits. A joiner gets a connection
        and a driver — which immediately claims pending chunks via the
        shared condition variable. A leaver (drained, or pruned for
        missed heartbeats) gets its connection closed, which surfaces
        in its driver as a dead socket: exactly the established
        re-queue path, no second failure mode.
        """
        while not state.settled():
            state.wait_settled(self.poll_interval)
            if state.settled():
                return
            try:
                live = set(self._fleet_roster())
            except RemoteError:
                continue  # transient coordinator outage: keep driving as-is
            for address in sorted(live - set(active)):
                try:
                    connection = self._dial(address)
                except (OSError, RemoteError):
                    continue  # died right after joining; the roster will catch up
                active[address] = connection
                participated.append(f"{address[0]}:{address[1]}")
                threads.append(self._spawn_driver(connection, state))
            for address in sorted(set(active) - live):
                # Do NOT add to state.dead here: the driver owns that
                # transition when the closed socket surfaces, re-queuing
                # its in-flight chunks in the same motion.
                active.pop(address).close()
            if not any(thread.is_alive() for thread in threads):
                # Every driver is gone and the roster refresh connected
                # nobody new: the dispatch cannot progress — let
                # finish() raise the missing-chunks diagnosis.
                return

    def _drive_worker(self, connection: _WorkerConnection, state: "_DispatchState") -> None:
        in_flight: set[int] = set()
        stats = self.wire_stats
        try:
            while True:
                while len(in_flight) < connection.slots:
                    seq = state.claim()
                    if seq is None:
                        break
                    # In-flight BEFORE the send: if sendall raises (the
                    # worker died, or the payload failed to pickle), the
                    # except path below must re-queue this seq too — a
                    # claimed-but-untracked chunk would be lost and the
                    # surviving drivers would park forever waiting for it.
                    in_flight.add(seq)
                    send_frame(
                        connection.sock,
                        ("chunk", seq, state.fn, state.items[seq]),
                        stats=stats,
                    )
                if in_flight:
                    reply = recv_frame(connection.sock, stats=stats)
                    if not (isinstance(reply, tuple) and len(reply) >= 3):
                        raise RemoteProtocolError(f"unexpected reply frame {reply!r}")
                    # Index (not unpack): a v3 chunk_result carries a
                    # fourth cell-stats element, and plain 3-tuples from
                    # in-process test doubles must keep working.
                    kind, seq, payload = reply[0], reply[1], reply[2]
                    if kind == "error" and seq is None:
                        # A seq-less error is the server rejecting the
                        # dialogue itself (protocol mismatch, unexpected
                        # frame), not the outcome of any chunk — surfacing
                        # it as "chunk None failed" would misattribute it.
                        # Raising hands this driver's in-flight chunks to
                        # the survivors via the except path below.
                        raise RemoteProtocolError(
                            f"worker {connection.address[0]}:"
                            f"{connection.address[1]} rejected the "
                            f"dispatch: {payload}"
                        )
                    in_flight.discard(seq)
                    if kind == "chunk_result":
                        if len(reply) > 3 and reply[3]:
                            state.add_dedupe(reply[3])
                        state.complete(seq, payload)
                    elif kind == "error":
                        state.fail(RemoteJobError(
                            f"chunk {seq} failed on {connection.address[0]}:"
                            f"{connection.address[1]}: {payload}"))
                        # The socket may still carry replies for this
                        # driver's other in-flight chunks; a reused mapper
                        # must never read those stale frames as results
                        # of a *later* dispatch — drop the connection.
                        connection.close()
                        state.dead.add(connection)
                        return
                    else:
                        raise RemoteProtocolError(f"unexpected reply frame {kind!r}")
                    continue
                if state.settled():
                    return
                # Idle but the grid is not settled: other workers hold
                # in-flight chunks that may yet be re-queued our way if
                # their worker disconnects. Wait instead of exiting, or
                # those chunks would have no surviving driver to run them.
                state.wait_for_work()
        except Exception as exc:
            # This worker is gone (socket error, protocol violation, or a
            # send-side pickling failure): hand its in-flight chunks back
            # for the survivors and report the loss — fatal only if it
            # was the last worker or a chunk ran out of retry budget. A
            # bare `return` above never lands here, so a job-level error
            # (RemoteJobError) still fails the dispatch instead of
            # retrying deterministically-failing work.
            connection.close()
            state.dead.add(connection)
            state.requeue(in_flight, connection, exc)


class _UnsetType:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


_UNSET = _UnsetType()


class _DispatchState:
    """Shared bookkeeping for one RemoteMapper dispatch.

    All transitions happen under one condition variable so idle driver
    threads can sleep until a completion, a re-queue, or a failure makes
    progress (or ends the dispatch).
    """

    def __init__(self, fn: Callable[[Any], Any], items: list[Any], retries: int) -> None:
        self.fn = fn
        self.items = items
        self.retries = retries
        self.results: list[Any] = [_UNSET] * len(items)
        self.pending: deque[int] = deque(range(len(items)))
        self.attempts = [0] * len(items)
        self.dead: set[_WorkerConnection] = set()
        self.error: RemoteError | None = None
        self.last_failure: Exception | None = None
        self.completed = 0
        #: Summed worker-side cell-dedupe counters across every
        #: chunk_result of this dispatch (empty when no worker reported).
        self.dedupe: dict[str, int] = {}
        self._cv = threading.Condition()

    def claim(self) -> int | None:
        """Take the next unassigned chunk index (None when drained/failed)."""
        with self._cv:
            if self.error is not None:
                return None
            while self.pending:
                seq = self.pending.popleft()
                if self.results[seq] is _UNSET:
                    self.attempts[seq] += 1
                    return seq
            return None

    def complete(self, seq: int, value: Any) -> None:
        with self._cv:
            if self.results[seq] is _UNSET:
                self.results[seq] = value
                self.completed += 1
            self._cv.notify_all()

    def fail(self, error: RemoteError) -> None:
        with self._cv:
            if self.error is None:
                self.error = error
            self._cv.notify_all()

    def requeue(
        self, in_flight: set[int], connection: _WorkerConnection, cause: Exception
    ) -> None:
        with self._cv:
            self.last_failure = cause
            for seq in sorted(in_flight, reverse=True):
                if self.attempts[seq] > self.retries:
                    if self.error is None:
                        self.error = RemoteDispatchError(
                            f"chunk {seq} exhausted {self.retries} retries "
                            f"(last worker {connection.address[0]}:"
                            f"{connection.address[1]} failed: {cause})"
                        )
                    break
                self.pending.appendleft(seq)
            self._cv.notify_all()

    def add_dedupe(self, cell_stats: dict[str, int]) -> None:
        """Fold one chunk_result's cell-stats into the dispatch totals."""
        with self._cv:
            for key, value in cell_stats.items():
                self.dedupe[key] = self.dedupe.get(key, 0) + int(value)

    def settled(self) -> bool:
        """True once every chunk completed — or the dispatch failed."""
        with self._cv:
            return self.error is not None or self.completed == len(self.items)

    def wait_settled(self, timeout: float) -> None:
        """Park the fleet watcher until progress (or for one poll tick)."""
        with self._cv:
            if self.error is None and self.completed < len(self.items):
                self._cv.wait(timeout=timeout)

    def wait_for_work(self) -> None:
        """Park an idle driver until there is work, or the dispatch settles."""
        with self._cv:
            while (
                self.error is None
                and self.completed < len(self.items)
                and not self.pending
            ):
                # The timeout is defensive only (a missed-notify backstop);
                # every state transition notifies the condition.
                self._cv.wait(timeout=1.0)

    def finish(self) -> list[Any]:
        """Validate and return the reassembled, submission-ordered results."""
        if self.error is not None:
            raise self.error
        missing = [seq for seq, value in enumerate(self.results) if value is _UNSET]
        if missing:
            cause = f"; last worker failure: {self.last_failure}" if self.last_failure else ""
            raise RemoteDispatchError(
                f"{len(missing)} chunk(s) unassigned after every worker disconnected "
                f"(first missing: {missing[0]}){cause}"
            )
        return self.results
