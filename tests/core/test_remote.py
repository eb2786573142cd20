"""Tests for the remote grid backend (``repro.core.remote``).

Covers the framed-pickle protocol round-trip, the WorkerServer /
RemoteMapper pair (order-preserving reassembly under out-of-order
completion, per-job re-queue on worker disconnect, graceful drain), the
ExecutionPolicy / scheduler / provenance threading, the warm-cache
short-circuit (no socket is ever opened for a cache hit), and the CLI
acceptance path: ``repro-bench run fig05 --workers HOST:PORT`` against
a worker started with ``repro-bench worker`` is bit-identical to serial.
"""

from __future__ import annotations

import multiprocessing
import pickle
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.core.fleet import FleetClient
from repro.core.remote import (
    PROTOCOL_VERSION,
    RemoteDispatchError,
    RemoteJobError,
    RemoteMapper,
    RemoteProtocolError,
    WorkerServer,
    _WorkerConnection,
    parse_worker_address,
    recv_frame,
    send_frame,
)
from repro.core.runner import RepJob
from repro.core.scheduler import (
    BACKEND_REMOTE,
    ExecutionPolicy,
    ExperimentScheduler,
)
from repro.core.store import ResultStore
from repro.core.storenet import RemoteStore
from repro.core.suite import BenchmarkSuite
from repro.errors import ConfigurationError
from repro.platforms import get_platform
from repro.rng import RngStream
from repro.workloads.iperf import IperfWorkload

SEED = 42

#: An address nothing listens on (port 1 is privileged and unbound).
DEAD_ADDRESS = "127.0.0.1:1"


def _double(value):
    """Module-level so every transport can pickle it by reference."""
    return value * 2


def _sleepy_index(item):
    """Earlier items sleep longer, forcing out-of-order completion."""
    index, total = item
    time.sleep(0.03 * (total - index))
    return index


def _boom(value):
    raise RuntimeError(f"kaboom on {value}")


def _slow_or_boom(item):
    """'boom' fails fast; everything else answers slowly, tagged OLD."""
    if item == "boom":
        raise RuntimeError("kaboom")
    time.sleep(0.3)
    return ("OLD", item)


def _tag_new(item):
    return ("NEW", item)


class TestFraming:
    """The length-prefixed pickle protocol, frame by frame."""

    def _pair(self):
        return socket.socketpair()

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            0,
            "text",
            [1, 2, 3],
            {"nested": {"tuple": (1, "two")}},
            ("job", 7, _double, 21),
            b"\x00" * 100_000,
        ],
    )
    def test_round_trip(self, payload):
        left, right = self._pair()
        try:
            send_frame(left, payload)
            assert recv_frame(right) == payload
        finally:
            left.close()
            right.close()

    def test_rep_job_round_trips_as_a_frame(self):
        # The real cargo: a lowered grid cell crosses the wire intact and
        # reproduces the exact same draw on the other side.
        platform = get_platform("docker")
        stream = RngStream(SEED, "fig11").child("docker").child("rep-1")
        job = RepJob(IperfWorkload(), platform, stream)
        left, right = self._pair()
        try:
            send_frame(left, ("job", 0, job))
            _kind, _seq, clone = recv_frame(right)
        finally:
            left.close()
            right.close()
        assert clone.stream.path == job.stream.path
        assert clone.run().throughput_gbit_per_s == job.run().throughput_gbit_per_s

    def test_multiple_frames_preserve_boundaries(self):
        left, right = self._pair()
        try:
            for value in range(5):
                send_frame(left, value)
            assert [recv_frame(right) for _ in range(5)] == list(range(5))
        finally:
            left.close()
            right.close()

    def test_clean_close_raises_eof(self):
        left, right = self._pair()
        left.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(right)
        finally:
            right.close()

    def test_mid_length_close_is_a_protocol_error(self):
        left, right = self._pair()
        left.sendall(b"\x00\x00")  # half a length prefix, then hang up
        left.close()
        try:
            with pytest.raises(RemoteProtocolError, match="mid-length"):
                recv_frame(right)
        finally:
            right.close()

    def test_mid_payload_close_is_a_protocol_error(self):
        left, right = self._pair()
        payload = pickle.dumps("truncated")
        left.sendall(len(payload).to_bytes(4, "big") + payload[: len(payload) // 2])
        left.close()
        try:
            with pytest.raises(RemoteProtocolError, match="mid-frame"):
                recv_frame(right)
        finally:
            right.close()

    def test_absurd_length_prefix_rejected_before_allocation(self):
        left, right = self._pair()
        left.sendall(((1 << 30) + 1).to_bytes(4, "big"))
        try:
            with pytest.raises(RemoteProtocolError, match="exceeds"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_former_compression_bit_is_refused_before_the_payload(self):
        # The top header bit once flagged a zlib payload. The header is
        # now a plain 32-bit length, so a flagged header reads as a frame
        # past the 1 GiB limit and is refused before any payload byte is
        # read: nothing a peer sends makes this side allocate for it.
        left, right = self._pair()
        payload = pickle.dumps(b"\x00" * 100)
        left.sendall((len(payload) | (1 << 31)).to_bytes(4, "big") + payload)
        try:
            with pytest.raises(RemoteProtocolError, match="exceeds"):
                recv_frame(right)
            # The payload is still unread on the socket.
            assert right.recv(len(payload), socket.MSG_PEEK) == payload
        finally:
            left.close()
            right.close()

    def test_parse_worker_address(self):
        assert parse_worker_address("127.0.0.1:7077") == ("127.0.0.1", 7077)
        assert parse_worker_address(("host", 9)) == ("host", 9)
        with pytest.raises(RemoteDispatchError, match="host:port"):
            parse_worker_address("no-port-here")
        with pytest.raises(RemoteDispatchError, match="non-numeric"):
            parse_worker_address("host:seven")
        for bad in ("host:-1", "host:0", "host:65536", "[::1]:65536", ("host", 0)):
            with pytest.raises(RemoteDispatchError, match="outside 1-65535"):
                parse_worker_address(bad)
        assert parse_worker_address("host:65535") == ("host", 65535)

    def test_parse_bracketed_ipv6(self):
        # Regression: the brackets used to stay in the host part.
        assert parse_worker_address("[::1]:7077") == ("::1", 7077)
        assert parse_worker_address("[2001:db8::2]:9") == ("2001:db8::2", 9)

    def test_parse_unbracketed_ipv6_is_ambiguous(self):
        # Regression: ::1:7077 used to split silently at the last colon,
        # though it could equally be the portless v6 literal 0:...:1:7077
        # — now it demands the unambiguous bracketed spelling.
        with pytest.raises(ConfigurationError, match=r"bracket the host as \[::1\]:7077"):
            parse_worker_address("::1:7077")

    def test_parse_malformed_brackets_rejected(self):
        for bad in ("[::1]", "[::1]7077", "[]:7077"):
            with pytest.raises(RemoteDispatchError, match=r"\[host\]:port"):
                parse_worker_address(bad)
        with pytest.raises(RemoteDispatchError, match="non-numeric"):
            parse_worker_address("[::1]:seven")


class TestWorkerServer:
    def test_ephemeral_port_resolves_on_start(self):
        with WorkerServer(port=0) as server:
            host, port = server.address
            assert host == "127.0.0.1"
            assert port > 0
            assert server.address_string == f"{host}:{port}"

    def test_unstarted_server_has_no_address(self):
        with pytest.raises(RemoteDispatchError, match="not started"):
            WorkerServer(port=0).address

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(RemoteDispatchError, match=">= 1"):
            WorkerServer(workers=0)

    def test_protocol_mismatch_is_answered_not_ignored(self):
        with WorkerServer(port=0) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                send_frame(sock, ("hello", {"protocol": PROTOCOL_VERSION + 99}))
                kind, _seq, message = recv_frame(sock)
        assert kind == "error"
        assert "protocol" in message

    def test_handshake_advertises_local_worker_count(self):
        with WorkerServer(port=0, workers=1) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                send_frame(sock, ("hello", {"protocol": PROTOCOL_VERSION}))
                kind, info = recv_frame(sock)
        assert kind == "hello"
        assert info["slots"] == 1

    def test_stopped_server_refuses_connections(self):
        server = WorkerServer(port=0).start()
        address = server.address
        server.stop()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=1)

    def test_stop_is_idempotent(self):
        server = WorkerServer(port=0).start()
        server.stop()
        server.stop()  # no-op, no raise

    def test_busy_port_releases_the_pool(self, held_port):
        # The pool forks before the bind; a failed bind must not leave it.
        before = set(multiprocessing.active_children())
        server = WorkerServer(port=held_port, workers=2)
        with pytest.raises(RemoteDispatchError, match=f"cannot listen on 127.0.0.1:{held_port}"):
            server.start()
        assert server._executor is None
        assert set(multiprocessing.active_children()) <= before


class TestRemoteMapper:
    def test_empty_roster_rejected(self):
        with pytest.raises(RemoteDispatchError, match="at least one worker"):
            RemoteMapper([])

    def test_empty_dispatch_never_connects(self):
        # Also the warm-cache property in miniature: no items, no sockets —
        # a dead roster is only an error once something must execute.
        mapper = RemoteMapper([DEAD_ADDRESS])
        assert mapper(_double, []) == []

    def test_unreachable_fleet_raises_dispatch_error(self):
        mapper = RemoteMapper([DEAD_ADDRESS], connect_timeout=0.5)
        with pytest.raises(RemoteDispatchError, match="could not reach"):
            mapper(_double, [1, 2])

    def test_partially_unreachable_fleet_is_strict(self, loopback_worker):
        # One live worker + one typo'd address: refusing loudly beats
        # quietly running on half the fleet while provenance records the
        # full roster.
        mapper = RemoteMapper(
            [loopback_worker.address_string, DEAD_ADDRESS], connect_timeout=0.5
        )
        with pytest.raises(RemoteDispatchError, match="whole worker fleet"):
            mapper(_double, [1, 2])

    def test_maps_in_submission_order(self, loopback_worker):
        with RemoteMapper([loopback_worker.address_string]) as mapper:
            assert mapper(_double, list(range(40))) == [x * 2 for x in range(40)]

    def test_out_of_order_completion_reassembles(self, loopback_worker):
        # The loopback worker runs two local processes, and earlier items
        # sleep longer — completion order is reversed, results are not.
        total = 4
        with RemoteMapper([loopback_worker.address_string]) as mapper:
            result = mapper(_sleepy_index, [(i, total) for i in range(total)])
        assert result == list(range(total))

    def test_mapper_is_reusable_across_dispatches(self, loopback_worker):
        with RemoteMapper([loopback_worker.address_string]) as mapper:
            assert mapper(_double, [1]) == [2]
            assert mapper(_double, [2, 3]) == [4, 6]

    def test_job_exception_surfaces_with_worker_detail(self, loopback_worker):
        with RemoteMapper([loopback_worker.address_string]) as mapper:
            with pytest.raises(RemoteJobError, match="kaboom on 1"):
                mapper(_boom, [1])

    def test_reuse_after_job_error_never_reads_stale_frames(self, loopback_worker):
        # Regression: a job error used to leave the connection open with
        # the *other* in-flight job's reply unread; a reused mapper then
        # completed a later dispatch's slot with that stale result. The
        # erroring dispatch must drop the connection so the next dispatch
        # reconnects cleanly.
        with RemoteMapper([loopback_worker.address_string]) as mapper:
            with pytest.raises(RemoteJobError):
                mapper(_slow_or_boom, ["slow", "boom"])
            assert mapper(_tag_new, ["a", "b"]) == [("NEW", "a"), ("NEW", "b")]

    def test_job_error_does_not_lose_a_healthy_worker(self):
        # A job error drops the erroring worker's connection (it may carry
        # stale frames); the next dispatch must dial that worker again
        # instead of running on the survivor alone.
        with WorkerServer(port=0) as first, WorkerServer(port=0) as second:
            roster = [first.address_string, second.address_string]
            # Two single-slot workers and at most 8 cells: one cell per
            # chunk, so the slow cell and the failing one go to different
            # workers.
            with RemoteMapper(roster) as mapper:
                with pytest.raises(RemoteJobError):
                    mapper(_slow_or_boom, ["slow", "boom"])
                assert mapper(_double, list(range(8))) == [x * 2 for x in range(8)]
                assert sorted(mapper.last_roster) == sorted(roster)

    def test_two_worker_fleet_covers_all_items(self):
        with WorkerServer(port=0) as first, WorkerServer(port=0) as second:
            roster = [first.address_string, second.address_string]
            with RemoteMapper(roster) as mapper:
                assert mapper(_double, list(range(30))) == [x * 2 for x in range(30)]
                assert sorted(mapper.last_roster) == sorted(roster)

    def test_worker_disconnect_requeues_to_survivor(self, loopback_worker):
        # A fake fleet member that accepts one job and hangs up mid-grid:
        # its jobs must be re-queued to the healthy loopback worker and
        # the dispatch must still return every result, in order.
        flaky = _FlakyWorker(jobs_before_hangup=1)
        with flaky:
            roster = [flaky.address_string, loopback_worker.address_string]
            with RemoteMapper(roster) as mapper:
                assert mapper(_double, list(range(12))) == [x * 2 for x in range(12)]
        assert flaky.jobs_seen >= 1  # it really did accept (and drop) work

    def test_losing_every_worker_raises_dispatch_error(self):
        flaky = _FlakyWorker(jobs_before_hangup=2)
        with flaky:
            mapper = RemoteMapper([flaky.address_string], retries=2)
            with pytest.raises(RemoteDispatchError):
                mapper(_double, list(range(8)))

    def test_seqless_server_error_is_a_protocol_failure_not_job_none(self):
        # Regression: a seq-less ("error", None, msg) reply — the server
        # rejecting the dialogue, not a job outcome — used to surface as
        # a misleading RemoteJobError("job None failed ...") after
        # in_flight.discard(None). It must read as a protocol-level
        # failure naming the worker and the server's message.
        rejecting = _RejectingWorker("unexpected frame ('job', ...)")
        with rejecting:
            mapper = RemoteMapper([rejecting.address_string], retries=1)
            with pytest.raises(RemoteDispatchError, match="rejected the dispatch") as info:
                mapper(_double, [1, 2])
            assert "unexpected frame" in str(info.value)
            assert "job None" not in str(info.value)

    def test_seqless_error_requeues_to_a_healthy_survivor(self, loopback_worker):
        # With a healthy fleet member alongside, the rejecting worker's
        # in-flight jobs must be re-queued there and the dispatch still
        # complete — before the fix the whole dispatch failed.
        rejecting = _RejectingWorker("protocol mismatch")
        with rejecting:
            roster = [rejecting.address_string, loopback_worker.address_string]
            with RemoteMapper(roster) as mapper:
                assert mapper(_double, list(range(10))) == [x * 2 for x in range(10)]

    def test_unpicklable_payload_fails_cleanly_instead_of_hanging(self, loopback_worker):
        # A send-side pickling failure kills that worker's driver; the
        # dispatch must surface a RemoteError, not park forever waiting
        # for results that can never arrive.
        with RemoteMapper([loopback_worker.address_string]) as mapper:
            with pytest.raises(RemoteDispatchError):
                mapper(lambda x: x, [1, 2, 3])  # lambdas cannot cross the wire



class TestChunkedDispatch:
    """The v2 chunk frames: slab plumbing, bit-identity, and re-queue."""

    @pytest.mark.parametrize(
        "chunk_size, width",
        [
            pytest.param(1, 7, id="1"),
            pytest.param(3, 23, id="3"),
            pytest.param(7, 55, id="7"),
            pytest.param(40, 319, id="40"),
            pytest.param(45, 359, id="45"),
            pytest.param(64, 600, id="64"),
        ],
    )
    def test_bit_identical_across_chunk_sizes(self, loopback_worker, chunk_size, width):
        # The loopback fleet's 2 slots slab a grid into ceil(width / 8)
        # cells, capped at 64: unit slabs, slabs ending on a one-short
        # tail, and the cap (600 cells, a 24-cell tail) all flatten back
        # to the serial order.
        items = list(range(width))
        with RemoteMapper([loopback_worker.address_string]) as mapper:
            assert mapper(_double, items) == [item * 2 for item in items]
            assert mapper.last_chunk_size == chunk_size

    def test_auto_chunk_size_uses_fleet_slots(self, loopback_worker):
        # The loopback fleet advertises 2 slots: ceil(40 / (4 * 2)) = 5.
        with RemoteMapper([loopback_worker.address_string]) as mapper:
            assert mapper(_double, list(range(40))) == [x * 2 for x in range(40)]
            assert mapper.last_chunk_size == 5

    def test_invalid_poll_interval_rejected(self):
        # Past threading.TIMEOUT_MAX the fleet watcher's wait would raise
        # OverflowError mid-dispatch.
        for interval in (0, float("nan"), float("inf"), 1e10):
            with pytest.raises(ConfigurationError, match="positive"):
                RemoteMapper([DEAD_ADDRESS], poll_interval=interval)

    def test_invalid_connect_timeout_rejected(self):
        # At the first dial socket.create_connection would raise a bare
        # ValueError (NaN, negative) or OverflowError (inf, past
        # threading.TIMEOUT_MAX), which no dial handler catches.
        for timeout in (0, -1, float("nan"), float("inf"), 1e10):
            with pytest.raises(ConfigurationError, match="connect timeout"):
                RemoteMapper([DEAD_ADDRESS], connect_timeout=timeout)
            for client in (RemoteStore, FleetClient):
                with pytest.raises(ConfigurationError, match="connect timeout"):
                    client(DEAD_ADDRESS, connect_timeout=timeout)
            with pytest.raises(ConfigurationError, match="connect timeout"):
                _WorkerConnection(parse_worker_address(DEAD_ADDRESS), timeout)

    def test_mid_chunk_worker_death_requeues_the_whole_chunk(self, loopback_worker):
        # 44 cells over 3 slots (the flaky member's one, the loopback
        # worker's two) travel as 4-cell chunks; the flaky member hangs up
        # with a whole chunk in flight, and every cell must still arrive
        # exactly once, in order.
        flaky = _FlakyWorker(jobs_before_hangup=1)
        with flaky:
            roster = [flaky.address_string, loopback_worker.address_string]
            with RemoteMapper(roster) as mapper:
                assert mapper(_double, list(range(44))) == [x * 2 for x in range(44)]
                assert mapper.last_chunk_size == 4
        assert flaky.jobs_seen >= 1

    def test_chunk_error_names_the_chunk_and_worker(self, loopback_worker):
        with RemoteMapper([loopback_worker.address_string]) as mapper:
            with pytest.raises(RemoteJobError, match=r"chunk \d+ failed on"):
                mapper(_boom, [1, 2, 3])

    def test_wire_stats_accumulate_both_directions(self, loopback_worker):
        with RemoteMapper([loopback_worker.address_string]) as mapper:
            mapper(_double, list(range(10)))
            stats = mapper.wire_stats
            # ceil(10 / (4 * 2)) = 2: five 2-cell chunks, not 10 frames.
            assert mapper.last_chunk_size == 2
            assert stats.frames_sent == 5
            assert stats.frames_received == 5
            assert stats.bytes_sent > 0 and stats.bytes_received > 0
            assert stats.total_bytes == stats.bytes_sent + stats.bytes_received

    def test_connect_prewarm_is_idempotent(self, loopback_worker):
        # Benchmarks call connect() so the handshake never pollutes timed
        # dispatch samples; calling it twice must reuse the connections.
        with RemoteMapper([loopback_worker.address_string]) as mapper:
            assert mapper.connect() is mapper
            first = mapper._connections[0]
            mapper.connect()
            assert mapper._connections[0] is first
            assert mapper(_double, [21]) == [42]


class TestCompression:
    """What is left of the v4 compression negotiation: a v4 client from
    before its removal still offers a zlib threshold in the hello."""

    def test_hello_offering_compress_min_is_answered_without_it(self):
        # Such a client compresses only above the threshold the worker
        # echoes; with none echoed it sends plain frames, the only kind a
        # worker reads or writes.
        offer = {"service": "worker", "protocol": PROTOCOL_VERSION, "compress_min": 16384}
        with WorkerServer(port=0) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                send_frame(sock, ("hello", offer))
                kind, info = recv_frame(sock)
        assert kind == "hello"
        assert info["slots"] == 1
        assert "compress_min" not in info

    def test_version_mismatch_diagnosis_names_both_versions(self):
        # A mixed-version fleet must fail the handshake with a diagnosis,
        # not corrupt frames later (see docs/OPERATIONS.md).
        with WorkerServer(port=0) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                send_frame(sock, ("hello", {"protocol": PROTOCOL_VERSION - 1}))
                kind, _seq, message = recv_frame(sock)
        assert kind == "error"
        assert f"v{PROTOCOL_VERSION}" in message
        assert "upgrade" in message


class TestNoDelay:
    """Nagle is disabled on both ends of every worker connection."""

    def test_nodelay_set_on_dialed_and_accepted_sockets(self, monkeypatch):
        flagged = []
        real_setsockopt = socket.socket.setsockopt

        def recording(sock, *args):
            if tuple(args[:2]) == (socket.IPPROTO_TCP, socket.TCP_NODELAY):
                flagged.append(sock)
            return real_setsockopt(sock, *args)

        monkeypatch.setattr(socket.socket, "setsockopt", recording)
        with WorkerServer(port=0) as server:
            with RemoteMapper([server.address_string]) as mapper:
                assert mapper(_double, [1, 2, 3]) == [2, 4, 6]
                client_sock = mapper._connections[0].sock
                assert (
                    client_sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                    != 0
                )
                # The server's accepted socket set it too — a different
                # socket object from the dialed one.
                assert any(sock is not client_sock for sock in flagged)


class _FlakyWorker:
    """A protocol-correct fleet member that drops its connection mid-grid.

    Completes the handshake (advertising one slot), answers the first
    ``jobs_before_hangup - 1`` chunks, then closes the socket on the next
    one — the client must treat it as a disconnect and re-queue.
    """

    def __init__(self, jobs_before_hangup: int = 1) -> None:
        self.jobs_before_hangup = jobs_before_hangup
        self.jobs_seen = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def address_string(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def _serve(self) -> None:
        try:
            conn, _peer = self._listener.accept()
        except OSError:
            return
        with conn:
            try:
                recv_frame(conn)  # hello
                send_frame(conn, ("hello", {"service": "worker", "slots": 1}))
                while True:
                    message = recv_frame(conn)
                    self.jobs_seen += 1
                    if self.jobs_seen >= self.jobs_before_hangup:
                        return  # hang up with this chunk unanswered
                    _kind, seq, fn, items = message
                    send_frame(
                        conn, ("chunk_result", seq, [fn(item) for item in items])
                    )
            except (EOFError, RemoteProtocolError, OSError):
                return

    def __enter__(self) -> "_FlakyWorker":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._listener.close()
        self._thread.join(timeout=5)


class _RejectingWorker:
    """A fleet member that answers every job with a seq-less error.

    Completes the handshake, then replies ``("error", None, message)`` to
    the first job — what a real server sends on a protocol mismatch or an
    unexpected frame — and closes the connection.
    """

    def __init__(self, message: str) -> None:
        self.message = message
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def address_string(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def _serve(self) -> None:
        try:
            conn, _peer = self._listener.accept()
        except OSError:
            return
        with conn:
            try:
                recv_frame(conn)  # hello
                send_frame(conn, ("hello", {"service": "worker", "slots": 1}))
                recv_frame(conn)  # first job
                send_frame(conn, ("error", None, self.message))
            except (EOFError, RemoteProtocolError, OSError):
                return

    def __enter__(self) -> "_RejectingWorker":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._listener.close()
        self._thread.join(timeout=5)


class TestPolicyRemote:
    def test_remote_backend_requires_a_roster(self):
        # Only a roster or a fleet derives the remote backend; no pool
        # width does.
        for grid_jobs in (1, 2, 8):
            assert ExecutionPolicy(grid_jobs=grid_jobs).grid_backend != BACKEND_REMOTE

    def test_a_roster_auto_selects_remote(self):
        policy = ExecutionPolicy(workers=("127.0.0.1:7077",))
        assert policy.grid_backend == BACKEND_REMOTE

    def test_grid_jobs_with_a_roster_is_a_contradiction(self):
        # grid_jobs never applies to the remote backend; silently ignoring
        # it would record a grid width that never took effect.
        with pytest.raises(ConfigurationError, match="grid_jobs does not apply"):
            ExecutionPolicy(grid_jobs=4, workers=("127.0.0.1:7077",))

    def test_roster_normalizes_to_tuple(self):
        policy = ExecutionPolicy(workers=["a:1", "b:2"])
        assert policy.workers == ("a:1", "b:2")

    def test_policy_mapper_is_remote_with_the_roster(self):
        policy = ExecutionPolicy(workers=(DEAD_ADDRESS,))
        mapper = policy.mapper()
        assert isinstance(mapper, RemoteMapper)
        assert mapper.addresses == [("127.0.0.1", 1)]  # DEAD_ADDRESS, parsed

class TestSchedulerRemote:
    def test_remote_run_records_roster_and_width(self, loopback_worker):
        roster = (loopback_worker.address_string,)
        policy = ExecutionPolicy(workers=roster)
        report = ExperimentScheduler(SEED, quick=True, policy=policy).run(["fig11"])
        assert not report.errors
        record = report.records[0]
        assert record.grid_backend == BACKEND_REMOTE
        assert record.workers == roster
        assert record.grid_width == 30  # 10 network platforms x 3 quick reps
        provenance = report.results["fig11"].provenance
        assert provenance["grid_backend"] == BACKEND_REMOTE
        assert provenance["workers"] == list(roster)
        assert provenance["grid_width"] == 30

    def test_local_runs_record_no_roster(self):
        report = ExperimentScheduler(SEED, quick=True).run(["fig11"])
        record = report.records[0]
        assert record.workers is None
        assert report.results["fig11"].provenance["workers"] is None

    def test_warm_cache_short_circuits_before_any_dispatch(self, tmp_path):
        # Warm the store serially, then re-run with a remote policy whose
        # entire fleet is unreachable: the store must satisfy the run
        # without opening a single socket (lazy connect on first dispatch).
        store = ResultStore(tmp_path)
        ExperimentScheduler(SEED, quick=True, store=store).run(["fig12"])
        policy = ExecutionPolicy(workers=(DEAD_ADDRESS,))
        warm = ExperimentScheduler(
            SEED, quick=True, policy=policy, store=store
        ).run(["fig12"])
        assert not warm.errors
        record = warm.records[0]
        assert record.cache_hit
        assert record.workers is None  # nothing executed, no fleet involved

    def test_dead_fleet_is_a_captured_job_error(self):
        policy = ExecutionPolicy(workers=(DEAD_ADDRESS,))
        scheduler = ExperimentScheduler(SEED, quick=True, policy=policy)
        report = scheduler.run(["fig12"])
        assert "RemoteDispatchError" in report.errors["fig12"]

    def test_suite_layer_roster_in_manifest(self, loopback_worker, tmp_path):
        roster = (loopback_worker.address_string,)
        suite = BenchmarkSuite(seed=SEED, quick=True, workers=roster)
        suite.run_figure("fig12")
        suite.save_results(tmp_path)
        import json

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["grid_backend"] == BACKEND_REMOTE
        assert manifest["workers"] == list(roster)
        assert "workers=" in suite.describe()


class TestCliRemote:
    def test_run_remote_bit_identical_to_serial(self, loopback_worker, capsys):
        # The acceptance gate: identical stdout, figure for figure.
        assert main(["run", "fig05", "--quick"]) == 0
        serial_out = capsys.readouterr().out
        assert main([
            "run", "fig05", "--quick", "--workers", loopback_worker.address_string,
        ]) == 0
        assert capsys.readouterr().out == serial_out

    def test_workers_flag_alone_selects_remote(self, loopback_worker, capsys):
        assert main([
            "run", "fig12", "--quick",
            "--workers", loopback_worker.address_string,
            "--provenance",
        ]) == 0
        out = capsys.readouterr().out
        assert "grid=remote:1" in out
        assert f"workers={loopback_worker.address_string}" in out

    def test_dry_run_shows_the_fleet_roster(self, capsys):
        # The dry run reports the parallelism a real run would use; for
        # the remote backend that is the roster (or the coordinator that
        # resolves it), not a grid-jobs count.
        cases = [
            (["--workers", "127.0.0.1:7077,127.0.0.1:7078"],
             "workers=127.0.0.1:7077, 127.0.0.1:7078"),
            (["--fleet", "127.0.0.1:1"], "fleet=127.0.0.1:1"),
        ]
        for flags, shown in cases:
            assert main(["run", "fig05", "--quick", "--dry-run", *flags]) == 0
            out = capsys.readouterr().out
            assert "backend=remote" in out, flags
            assert shown in out, flags
            assert "grid-jobs" not in out, flags

    def test_unreachable_fleet_is_a_clean_error(self, capsys):
        assert main(["run", "fig12", "--quick", "--workers", DEAD_ADDRESS]) == 2
        err = capsys.readouterr().err
        assert "repro-bench: error:" in err
        assert "Traceback" not in err

    def test_worker_subcommand_serves_a_real_run(self):
        # Full fleet lifecycle through the installed entry points: spawn
        # `repro-bench worker`, parse its printed port, run a figure
        # against it, then SIGINT for the graceful drain.
        import os
        import pathlib

        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = worker.stdout.readline()
            address = re.search(r"listening on (\S+)", banner).group(1)
            run = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "run", "fig12", "--quick",
                    "--workers", address,
                ],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
            )
            assert run.returncode == 0, run.stderr
            assert "Netperf" in run.stdout
        finally:
            # SIGTERM mirrors the CI workflow's stop step (a nohup'd CI
            # worker runs with SIGINT ignored); the CLI drains on both.
            worker.send_signal(signal.SIGTERM)
            assert worker.wait(timeout=10) == 0
            assert "drained" in worker.stdout.read()

    def test_group_sigterm_drains_a_pool_worker_without_tracebacks(self):
        # A supervisor that stops the whole process group (`pkill -f`,
        # systemd's control-group kill) signals the pool's children too;
        # they must leave the drain to the parent instead of raising.
        import os
        import pathlib

        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker", "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            assert "listening on" in worker.stdout.readline()
            os.killpg(worker.pid, signal.SIGTERM)
            assert worker.wait(timeout=20) == 0
        finally:
            if worker.poll() is None:
                os.killpg(worker.pid, signal.SIGKILL)
                worker.wait()
        output = worker.stdout.read()
        assert "drained" in output
        assert "Traceback" not in output
