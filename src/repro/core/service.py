"""The service skeleton: one server base and one client base for the fleet.

The worker (:mod:`repro.core.remote`), the shared result store
(:mod:`repro.core.storenet`) and the fleet coordinator
(:mod:`repro.core.fleet`) are one kind of thing — the device server of
CERN's RDA middleware, reached through a client stub — so they share one
transport and one lifecycle, written here once. A :class:`Service`
subclass keeps only its state, its handlers and a class-level verb table
``{verb: (arity, handler)}``; a :class:`ServiceClient` subclass keeps only
its request methods. The service describes itself in its hello reply
(name, protocol version and verbs), which is what lets a client that
dialed the wrong address say so, and lets a newer client degrade against
an older service instead of failing.

Wire — length-prefixed pickle frames over TCP:

* every frame is a 4-byte big-endian payload length followed by the
  pickle payload; a length above ``_MAX_FRAME_BYTES`` (1 GiB) is refused
  before any payload byte is read;
* a connection opens with ``("hello", {"service": S, "protocol": V,
  ...})``; the service answers ``("hello", {"service": S, "protocol": V,
  "verbs": (...), ...})`` or refuses with ``("error", None, "<S> protocol
  mismatch: ...")``, naming what the client reached and what to fix;
* a request/reply service then answers ``(verb, *args)`` with ``("ok",
  value)``, or with ``("error", None, message)`` after which it drops the
  connection (clients redial lazily on next use).

``TCP_NODELAY`` is set on every dialed and accepted socket: frames are
small and request/reply-shaped, so Nagle buffering only adds latency.
"""

from __future__ import annotations

import math
import pickle
import socket
import struct
import threading
from typing import Any

from repro.errors import ConfigurationError, ReproError

__all__ = [
    "HELLO_TIMEOUT_S",
    "RemoteError",
    "RemoteProtocolError",
    "RemoteDispatchError",
    "WireStats",
    "send_frame",
    "recv_frame",
    "parse_worker_address",
    "check_addresses",
    "Service",
    "ServiceClient",
]

#: Seconds a service waits for a new connection's hello (the clients'
#: default connect timeout): a peer that connects and never speaks must
#: not pin a handler thread until ``stop()``.
HELLO_TIMEOUT_S = 10.0

#: Frames above this size indicate a corrupt length prefix, not a figure.
_MAX_FRAME_BYTES = 1 << 30

_LENGTH = struct.Struct(">I")

#: The fix named by every wrong-service diagnosis, on either side.
_POINTING = (
    "point worker rosters (--workers) at workers, --store at stores, and "
    "--fleet at a coordinator"
)


class RemoteError(ReproError):
    """Base class for network service failures."""


class RemoteProtocolError(RemoteError):
    """A peer violated the framed-pickle protocol (or hung up mid-frame)."""


class RemoteDispatchError(RemoteError):
    """No worker could be reached (or all of them died mid-grid)."""


# --- framing ---------------------------------------------------------------------


class WireStats:
    """Thread-safe byte/frame counters for one peer's framed traffic.

    Feeds perfbench's ``remote.bytes_per_cell`` metric: pass an
    instance to :func:`send_frame`/:func:`recv_frame` (the remote mapper
    owns one per client) and read the totals after a dispatch. Counts
    bytes *on the wire*: length prefix plus payload.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0

    def add_sent(self, size: int) -> None:
        with self._lock:
            self.bytes_sent += size
            self.frames_sent += 1

    def add_received(self, size: int) -> None:
        with self._lock:
            self.bytes_received += size
            self.frames_received += 1

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self.bytes_sent + self.bytes_received


def send_frame(
    sock: socket.socket, message: Any, *, stats: WireStats | None = None
) -> None:
    """Pickle ``message`` and send it as one length-prefixed frame.

    ``stats`` (if given) counts the frame's on-wire bytes.
    """
    payload = pickle.dumps(message)
    frame = _LENGTH.pack(len(payload)) + payload
    sock.sendall(frame)
    if stats is not None:
        stats.add_sent(len(frame))


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks: list[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise RemoteProtocolError(
                f"connection closed mid-frame ({size - remaining}/{size} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, *, stats: WireStats | None = None) -> Any:
    """Receive one frame and unpickle it.

    Raises :class:`EOFError` on a clean close at a frame boundary and
    :class:`RemoteProtocolError` on a mid-frame close or a length prefix
    above ``_MAX_FRAME_BYTES`` — refused before any payload byte is read,
    so no peer can make this side allocate more. ``stats`` (if given)
    counts the frame's on-wire bytes.
    """
    header = b""
    while len(header) < _LENGTH.size:
        chunk = sock.recv(_LENGTH.size - len(header))
        if not chunk:
            if header:
                raise RemoteProtocolError("connection closed mid-length-prefix")
            raise EOFError("connection closed")
        header += chunk
    (size,) = _LENGTH.unpack(header)
    if size > _MAX_FRAME_BYTES:
        raise RemoteProtocolError(f"frame length {size} exceeds {_MAX_FRAME_BYTES}")
    payload = _recv_exact(sock, size)
    if stats is not None:
        stats.add_received(_LENGTH.size + size)
    return pickle.loads(payload)


def parse_worker_address(address: str | tuple[str, int]) -> tuple[str, int]:
    """``"host:port"`` (or an already-split pair) -> ``(host, port)``.

    IPv6 literals must be bracketed (``[::1]:7077`` -> ``("::1", 7077)``);
    the brackets are stripped. An unbracketed address with more than one
    colon is ambiguous — ``::1:7077`` could split anywhere — and is
    rejected with a :class:`~repro.errors.ConfigurationError` naming the
    bracketed spelling. Every service address goes through it (``--workers``,
    ``--store``, ``--fleet``, ``--advertise``, fleet registrations and
    :class:`ServiceClient`), so its messages name no service; callers that
    know which setting was wrong prefix it (``invalid store address: ...``).
    """
    if isinstance(address, tuple):
        host, port_text = str(address[0]), address[1]
    elif address.startswith("["):
        host, bracket, rest = address[1:].partition("]")
        if not host or not bracket or not rest.startswith(":"):
            raise RemoteDispatchError(
                f"{address!r} is not of the form [host]:port"
            )
        port_text = rest[1:]
    else:
        host, separator, port_text = address.rpartition(":")
        if not separator or not host:
            raise RemoteDispatchError(
                f"{address!r} is not of the form host:port"
            )
        if ":" in host:
            raise ConfigurationError(
                f"ambiguous IPv6 address {address!r}: bracket the "
                f"host as [{host}]:{port_text}"
            )
    try:
        port = int(port_text)
    except ValueError:
        raise RemoteDispatchError(
            f"{address!r} has a non-numeric port"
        ) from None
    if not 1 <= port <= 65535:
        raise RemoteDispatchError(
            f"{address!r} has port {port}, outside 1-65535"
        )
    return host, port


def check_addresses(*settings: tuple[str, str | None]) -> None:
    """Parse every ``(setting, address)`` pair whose address is given; a
    malformed one raises a :class:`~repro.errors.ConfigurationError` that
    names its setting (``invalid store address: 'x' is not of the form ...``)."""
    for setting, address in settings:
        if address is None:
            continue
        try:
            parse_worker_address(address)
        except ReproError as exc:
            raise ConfigurationError(f"invalid {setting} address: {exc}") from None


def _is_wait_timeout(seconds: float) -> bool:
    """Whether ``seconds`` is a usable ``threading`` wait or socket timeout:
    finite, positive, and at most ``threading.TIMEOUT_MAX`` (a longer one
    raises :class:`OverflowError` in the waiting thread or at the dial)."""
    return math.isfinite(seconds) and 0 < seconds <= threading.TIMEOUT_MAX


def _quietly_close(sock: socket.socket) -> None:
    # shutdown() before close(): close() alone does not wake a thread
    # blocked in accept(2) or recv(2) on the socket.
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _refusal(reply: Any) -> str | None:
    """The message of a seq-less ``("error", None, message)`` frame, else None."""
    if (
        isinstance(reply, tuple)
        and len(reply) == 3
        and reply[0] == "error"
        and reply[1] is None
        and isinstance(reply[2], str)
    ):
        return reply[2]
    return None


# --- server ----------------------------------------------------------------------


class Service:
    """A TCP service: lifecycle, accept loop, hello check, request loop.

    Listens on ``host:port`` (``port=0`` binds an ephemeral port — see
    :attr:`address`) and serves each client connection on its own
    handler thread (``repro-<service>-conn``; the listener runs on
    ``repro-<service>-accept``). A connection opens with the hello
    check; then the default :meth:`_session` answers requests from the
    class's :attr:`verbs` table until the client hangs up.

    ``start()`` returns once the socket is listening; ``stop()`` closes
    the listener and every connection and waits for the handlers to
    finish (graceful drain). Also a context manager — the in-process
    loopback fixture the tests and CI are built on, and the CLI's serve
    block (``repro-bench worker|store|fleet`` waits for a stop signal
    inside it)::

        with StoreServer(port=0, root=cache_dir) as server:
            store = RemoteStore(server.address_string)
            ...

    Subclasses set the class attributes below. The only hooks are
    :meth:`_check_hello` (vet the hello's service-specific fields) and
    :meth:`_session` (the post-hello conversation).
    """

    #: The hello's service marker and the thread-name stem.
    service: str
    #: The protocol version this service speaks (one named constant).
    protocol: int
    #: How diagnoses name the service ("result store").
    noun: str
    #: Raised for a bad listen port and for lifecycle misuse (starting
    #: twice, reading an unbound address).
    error: type[RemoteError] = RemoteError
    #: ``{verb: (arity, handler method name)}``: the default session's
    #: dispatch table, advertised in the hello reply.
    verbs: dict[str, tuple[int, str]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for verb, (_arity, handler) in cls.verbs.items():
            if not callable(getattr(cls, handler, None)):
                raise TypeError(f"{cls.__name__}: verb {verb!r} names no method {handler!r}")

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        if not 0 <= port <= 65535:
            raise self.error(f"{self.noun} port must be in 0-65535, got {port}")
        self.host = host
        self.port = port
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[threading.Thread] = []
        self._connections: list[socket.socket] = []
        self._lock = threading.Lock()
        self._stopping = threading.Event()

    # --- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` to the real port."""
        if self._listener is None:
            raise self.error(f"{self.noun} is not started")
        return self._listener.getsockname()[:2]

    @property
    def address_string(self) -> str:
        """The bound address as the CLI's ``host:port`` spelling."""
        host, port = self.address
        return f"{host}:{port}"

    def start(self) -> "Service":
        """Bind and begin accepting clients.

        An address that cannot be bound (a busy port, an unknown host)
        raises the service's :attr:`error`, naming the address.
        """
        if self._listener is not None:
            raise self.error(f"{self.noun} already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, self.port))
            listener.listen()
        except OSError as exc:
            listener.close()
            raise self.error(f"cannot listen on {self.host}:{self.port}: {exc}") from exc
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"repro-{self.service}-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Graceful drain: close the listener and every connection, then
        wait for each handler to finish what it already accepted."""
        if self._listener is None:
            return
        self._stopping.set()
        listener, self._listener = self._listener, None
        _quietly_close(listener)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        with self._lock:
            connections = list(self._connections)
            handlers = list(self._handlers)
        for conn in connections:
            # Waking blocked recv() calls lets handlers notice the stop.
            _quietly_close(conn)
        for handler in handlers:
            handler.join(timeout=10)
        with self._lock:
            self._handlers.clear()
        self._stopping.clear()

    def __enter__(self) -> "Service":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # --- connection handling ---------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        listener = self._listener
        while not self._stopping.is_set():
            try:
                conn, _peer = listener.accept()
            except OSError:
                return  # listener closed by stop()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._connections.append(conn)
                handler = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name=f"repro-{self.service}-conn",
                    daemon=True,
                )
                self._handlers.append(handler)
            handler.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(HELLO_TIMEOUT_S)
            hello = recv_frame(conn)
            conn.settimeout(None)
            reply = self._hello_reply(hello)
            send_frame(conn, reply)
            if reply[0] == "hello":
                self._session(conn, hello[1])
        except (RemoteError, OSError, EOFError):
            pass  # torn or silent connection: the client redials or re-queues
        finally:
            _quietly_close(conn)
            with self._lock:
                if conn in self._connections:
                    self._connections.remove(conn)
                # Self-prune: a long-lived service accepts unboundedly many
                # connections; finished handler threads must not pile up
                # until stop().
                self._handlers[:] = [t for t in self._handlers if t.is_alive()]

    def _hello_reply(self, hello: Any) -> tuple:
        """This service's hello, or the two-sided diagnosis of a bad one.

        Every refusal keeps the ``<service> protocol mismatch`` prefix
        (clients and operators grep for it) and then says *which* side is
        wrong and what to do about it.
        """
        prefix = f"{self.service} protocol mismatch"
        if not (
            isinstance(hello, tuple)
            and len(hello) == 2
            and hello[0] == "hello"
            and isinstance(hello[1], dict)
        ):
            return ("error", None, f"{prefix}: bad hello frame")
        # Worker clients before protocol v4 sent no service marker.
        offered = hello[1].get("service", "worker")
        if offered != self.service:
            return (
                "error",
                None,
                f"{prefix}: this is a repro-bench {self.noun}, client offered "
                f"service {offered!r} — {_POINTING}",
            )
        version = hello[1].get("protocol")
        if version != self.protocol:
            return (
                "error",
                None,
                f"{prefix}: this {self.noun} speaks v{self.protocol}, client "
                f"offered {version!r} — upgrade the older side",
            )
        try:
            extras = self._check_hello(hello[1])
        except RemoteProtocolError as exc:
            return ("error", None, f"{prefix}: {exc}")
        fields = {"service": self.service, "protocol": self.protocol, "verbs": tuple(self.verbs)}
        return ("hello", {**fields, **extras})

    def _check_hello(self, offer: dict[str, Any]) -> dict[str, Any]:
        """Vet the hello's service-specific fields; return the fields the
        hello reply adds. Raise :class:`RemoteProtocolError` to refuse."""
        return {}

    def _session(self, conn: socket.socket, offer: dict[str, Any]) -> None:
        """The post-hello conversation: one reply per request, in order."""
        while True:
            try:
                message = recv_frame(conn)
            except EOFError:
                return  # client done
            reply = self._handle(message)
            send_frame(conn, reply)
            if reply[0] == "error":
                return  # protocol is broken; make the client redial

    def _handle(self, message: Any) -> tuple:
        verb = message[0] if isinstance(message, tuple) and message else None
        entry = self.verbs.get(verb) if isinstance(verb, str) else None
        if entry is None or len(message) != 1 + entry[0]:
            return ("error", None, f"unexpected frame {message!r}")
        try:
            return ("ok", getattr(self, entry[1])(*message[1:]))
        except Exception as exc:
            return ("error", None, f"{type(exc).__name__}: {exc}")


# --- client ----------------------------------------------------------------------


class ServiceClient:
    """Client stub for one :class:`Service`: dial, hello, unwrap replies.

    Connects lazily on first use — constructing one never opens a socket
    — with the hello exchanged under ``connect_timeout``; after that the
    socket blocks freely. Extra keyword arguments ride in the hello.
    Failures raise the class's :attr:`error`; subclasses decide which of
    them are transient.
    """

    #: The service marker the hello offers and the reply must carry.
    service: str
    #: The protocol version the hello offers.
    protocol: int
    #: How diagnoses name the service ("result store").
    noun: str
    #: Raised for every failure of this client.
    error: type[RemoteError] = RemoteError
    #: The verbs assumed when the service's hello advertises none.
    legacy_verbs: frozenset[str] = frozenset()

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        connect_timeout: float = 10.0,
        **offer: Any,
    ) -> None:
        self.address = parse_worker_address(address)
        if not _is_wait_timeout(connect_timeout):
            raise ConfigurationError(
                f"connect timeout must be positive and at most "
                f"{threading.TIMEOUT_MAX:.0f} s, got {connect_timeout}"
            )
        self.connect_timeout = connect_timeout
        self.offer = offer
        #: The service's hello reply fields, once connected.
        self.peer: dict[str, Any] = {}
        self._sock: socket.socket | None = None

    @property
    def url(self) -> str:
        """The service address as the CLI's ``host:port`` spelling."""
        host, port = self.address
        return f"{host}:{port}" if ":" not in host else f"[{host}]:{port}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.url!r})"

    def _connection(self) -> socket.socket:
        """The live socket, dialing and saying hello first if needed."""
        if self._sock is not None:
            return self._sock
        try:
            sock = socket.create_connection(self.address, timeout=self.connect_timeout)
        except OSError as exc:
            raise self.error(f"could not reach {self.noun} {self.url}: {exc}") from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = {"service": self.service, "protocol": self.protocol, **self.offer}
            send_frame(sock, ("hello", hello))
            reply = recv_frame(sock)
            refusal = _refusal(reply)
            if refusal is not None and refusal.startswith(f"{self.service} protocol mismatch"):
                # The right kind of service refused and said why: surface
                # its diagnosis verbatim.
                raise self.error(f"{self.noun} {self.url} refused the handshake: {refusal}")
            if not (
                isinstance(reply, tuple)
                and len(reply) == 2
                and reply[0] == "hello"
                and isinstance(reply[1], dict)
                and reply[1].get("service") == self.service
            ):
                # Another service's refusal names that service and the fix.
                detail = refusal or f"handshake reply: {reply!r} — {_POINTING}"
                raise self.error(f"{self.url} is not a {self.noun} ({detail})")
            sock.settimeout(None)
        except self.error:
            _quietly_close(sock)
            raise
        except (RemoteError, OSError, EOFError) as exc:
            _quietly_close(sock)
            raise self.error(f"{self.noun} handshake with {self.url} failed: {exc}") from exc
        self.peer = reply[1]
        self._sock = sock
        return sock

    def supports(self, verb: str) -> bool:
        """Whether the service advertises ``verb`` (connects on first call)."""
        self._connection()
        return verb in (self.peer.get("verbs") or self.legacy_verbs)

    def _unwrap(self, reply: Any) -> Any:
        """A reply's ``ok`` value; anything else drops the connection and raises."""
        if isinstance(reply, tuple) and len(reply) == 2 and reply[0] == "ok":
            return reply[1]
        self.close()
        if isinstance(reply, tuple) and len(reply) == 3 and reply[0] == "error":
            raise self.error(f"{self.noun} {self.url} refused: {reply[2]}")
        raise self.error(f"{self.noun} {self.url} sent an unexpected frame: {reply!r}")

    def close(self) -> None:
        """Drop the connection (idempotent; the client may be reused)."""
        if self._sock is not None:
            _quietly_close(self._sock)
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
