"""Tests for the remote grid backend (``repro.core.remote``).

Covers the framed-pickle protocol round-trip, the WorkerServer /
RemoteMapper pair (order-preserving reassembly under out-of-order
completion, per-job re-queue on worker disconnect, graceful drain), the
ExecutionPolicy / scheduler / provenance threading, the warm-cache
short-circuit (no socket is ever opened for a cache hit), and the CLI
acceptance path: ``repro-bench run fig05 --grid-backend remote`` against
a worker started with ``repro-bench worker`` is bit-identical to serial.
"""

from __future__ import annotations

import pickle
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib

import pytest

from repro.cli import main
from repro.core.remote import (
    PROTOCOL_VERSION,
    RemoteDispatchError,
    RemoteJobError,
    RemoteMapper,
    RemoteProtocolError,
    WorkerServer,
    parse_worker_address,
    recv_frame,
    send_frame,
)
from repro.core.runner import RepJob, Runner, grid_mapper
from repro.core.scheduler import (
    BACKEND_REMOTE,
    BACKEND_SERIAL,
    ExecutionPolicy,
    ExperimentScheduler,
)
from repro.core.store import ResultStore
from repro.core.suite import BenchmarkSuite
from repro.errors import ConfigurationError
from repro.platforms import get_platform
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
        runner = Runner(SEED, "fig11")
        platform = get_platform("docker")
        job = RepJob(IperfWorkload(), platform, runner.rep_streams(platform, 3)[1])
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
        # The top header bit is the compression flag, not part of the
        # length — the size check reads the low 31 bits only.
        left, right = self._pair()
        left.sendall(((1 << 30) + 1).to_bytes(4, "big"))
        try:
            with pytest.raises(RemoteProtocolError, match="exceeds"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_corrupt_compressed_payload_is_a_protocol_error(self):
        # Compressed flag set, but the payload is not valid zlib data.
        left, right = self._pair()
        junk = b"not zlib at all"
        left.sendall((len(junk) | (1 << 31)).to_bytes(4, "big") + junk)
        try:
            with pytest.raises(RemoteProtocolError, match="corrupt compressed"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_truncated_compressed_payload_is_a_protocol_error(self):
        left, right = self._pair()
        squeezed = zlib.compress(pickle.dumps(b"\x00" * 10_000))[:-8]
        left.sendall((len(squeezed) | (1 << 31)).to_bytes(4, "big") + squeezed)
        try:
            with pytest.raises(RemoteProtocolError, match="corrupt compressed"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_compressed_payload_may_not_inflate_past_the_frame_limit(
        self, monkeypatch
    ):
        # A small frame must not inflate to any size before pickle sees
        # it: the inflated size is held to the same limit as the wire size.
        from repro.core import service

        monkeypatch.setattr(service, "_MAX_FRAME_BYTES", 4096)
        left, right = self._pair()
        squeezed = zlib.compress(pickle.dumps(b"\x00" * 100_000))
        assert len(squeezed) < 4096
        left.sendall((len(squeezed) | (1 << 31)).to_bytes(4, "big") + squeezed)
        try:
            with pytest.raises(RemoteProtocolError, match="inflates past 4096"):
                recv_frame(right)
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
            with RemoteMapper(roster, chunk_size=1) as mapper:
                with pytest.raises(RemoteJobError):
                    mapper(_slow_or_boom, ["slow", "boom"])
                assert mapper(_double, list(range(8))) == [x * 2 for x in range(8)]
                assert sorted(mapper.last_roster) == sorted(roster)

    def test_two_worker_fleet_covers_all_items(self):
        with WorkerServer(port=0) as first, WorkerServer(port=0) as second:
            roster = [first.address_string, second.address_string]
            with RemoteMapper(roster) as mapper:
                assert mapper(_double, list(range(30))) == [x * 2 for x in range(30)]
                assert mapper.roster == tuple(roster)

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

    def test_grid_mapper_factory_builds_remote(self, loopback_worker):
        mapper = grid_mapper("remote", 1, workers=[loopback_worker.address_string])
        assert isinstance(mapper, RemoteMapper)
        with mapper:
            assert mapper(_double, [21]) == [42]

    def test_grid_mapper_remote_without_workers_is_a_config_error(self):
        with pytest.raises(ConfigurationError, match="repro-bench worker"):
            grid_mapper("remote", 1)


class TestChunkedDispatch:
    """The v2 chunk frames: slab plumbing, bit-identity, and re-queue."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 40, 45])
    def test_bit_identical_across_chunk_sizes(self, loopback_worker, chunk_size):
        # Non-dividing, unit, exact-width, and wider-than-grid sizes all
        # flatten back to the serial result order.
        items = list(range(40))
        with RemoteMapper(
            [loopback_worker.address_string], chunk_size=chunk_size
        ) as mapper:
            assert mapper(_double, items) == [item * 2 for item in items]
            assert mapper.last_chunk_size == chunk_size

    def test_auto_chunk_size_uses_fleet_slots(self, loopback_worker):
        # The loopback fleet advertises 2 slots: ceil(40 / (4 * 2)) = 5.
        with RemoteMapper([loopback_worker.address_string]) as mapper:
            assert mapper(_double, list(range(40))) == [x * 2 for x in range(40)]
            assert mapper.last_chunk_size == 5

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            RemoteMapper([DEAD_ADDRESS], chunk_size=0)

    def test_mid_chunk_worker_death_requeues_the_whole_chunk(self, loopback_worker):
        # The flaky member hangs up with a whole 4-cell chunk in flight;
        # every cell must still arrive exactly once, in order.
        flaky = _FlakyWorker(jobs_before_hangup=1)
        with flaky:
            roster = [flaky.address_string, loopback_worker.address_string]
            with RemoteMapper(roster, chunk_size=4) as mapper:
                assert mapper(_double, list(range(22))) == [x * 2 for x in range(22)]
        assert flaky.jobs_seen >= 1

    def test_chunk_error_names_the_chunk_and_worker(self, loopback_worker):
        with RemoteMapper([loopback_worker.address_string], chunk_size=2) as mapper:
            with pytest.raises(RemoteJobError, match=r"chunk \d+ failed on"):
                mapper(_boom, [1, 2, 3])

    def test_wire_stats_accumulate_both_directions(self, loopback_worker):
        with RemoteMapper([loopback_worker.address_string], chunk_size=5) as mapper:
            mapper(_double, list(range(10)))
            stats = mapper.wire_stats
            assert stats.frames_sent == 2  # two 5-cell chunks, not 10 frames
            assert stats.frames_received == 2
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
    """The negotiated zlib threshold: hello echo plus on-wire effect."""

    def test_hello_echoes_the_negotiated_threshold(self):
        with WorkerServer(port=0) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                send_frame(
                    sock,
                    ("hello", {"protocol": PROTOCOL_VERSION, "compress_min": 123}),
                )
                kind, info = recv_frame(sock)
        assert kind == "hello"
        assert info["compress_min"] == 123

    def test_bad_compress_min_is_refused(self):
        with WorkerServer(port=0) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                send_frame(
                    sock,
                    ("hello", {"protocol": PROTOCOL_VERSION, "compress_min": "lots"}),
                )
                kind, _seq, message = recv_frame(sock)
        assert kind == "error"
        assert "compress_min" in message

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

    def test_compressed_dispatch_is_bit_identical_and_smaller(self, loopback_worker):
        # Large, highly compressible cells: the compressed mapper must
        # produce the exact same results over far fewer wire bytes.
        items = [[index] * 3000 for index in range(12)]
        with RemoteMapper(
            [loopback_worker.address_string], chunk_size=6, compress_min=None
        ) as plain:
            expected = plain(_double, items)
        with RemoteMapper(
            [loopback_worker.address_string], chunk_size=6, compress_min=64
        ) as squeezed:
            assert squeezed(_double, items) == expected
        assert squeezed.wire_stats.total_bytes < plain.wire_stats.total_bytes / 5


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
        with pytest.raises(ConfigurationError, match="worker roster"):
            ExecutionPolicy(grid_backend=BACKEND_REMOTE)

    def test_a_roster_auto_selects_remote(self):
        policy = ExecutionPolicy(workers=("127.0.0.1:7077",))
        assert policy.resolved_grid_backend == BACKEND_REMOTE

    def test_roster_with_local_backend_is_a_contradiction(self):
        with pytest.raises(ConfigurationError, match="only applies"):
            ExecutionPolicy(grid_backend=BACKEND_SERIAL, workers=("127.0.0.1:7077",))

    def test_grid_jobs_with_a_roster_is_a_contradiction(self):
        # grid_jobs never applies to the remote backend; silently ignoring
        # it would record a grid width that never took effect.
        with pytest.raises(ConfigurationError, match="grid_jobs does not apply"):
            ExecutionPolicy(grid_jobs=4, workers=("127.0.0.1:7077",))

    def test_roster_normalizes_to_tuple(self):
        policy = ExecutionPolicy(workers=["a:1", "b:2"])
        assert policy.workers == ("a:1", "b:2")

    def test_policy_mapper_is_remote_with_the_roster(self):
        policy = ExecutionPolicy(grid_backend=BACKEND_REMOTE, workers=(DEAD_ADDRESS,))
        mapper = policy.mapper()
        assert isinstance(mapper, RemoteMapper)
        assert mapper.roster == (DEAD_ADDRESS,)

class TestSchedulerRemote:
    def test_remote_run_records_roster_and_width(self, loopback_worker):
        roster = (loopback_worker.address_string,)
        policy = ExecutionPolicy(grid_backend=BACKEND_REMOTE, workers=roster)
        report = ExperimentScheduler(SEED, quick=True, policy=policy).run(["fig11"])
        assert not report.errors
        record = report.record_for("fig11")
        assert record.grid_backend == BACKEND_REMOTE
        assert record.workers == roster
        assert record.grid_width == 30  # 10 network platforms x 3 quick reps
        assert record.to_dict()["workers"] == list(roster)
        provenance = report.results["fig11"].provenance
        assert provenance["grid_backend"] == BACKEND_REMOTE
        assert provenance["workers"] == list(roster)
        assert provenance["grid_width"] == 30

    def test_local_runs_record_no_roster(self):
        report = ExperimentScheduler(SEED, quick=True).run(["fig11"])
        record = report.record_for("fig11")
        assert record.workers is None
        assert report.results["fig11"].provenance["workers"] is None

    def test_warm_cache_short_circuits_before_any_dispatch(self, tmp_path):
        # Warm the store serially, then re-run with a remote policy whose
        # entire fleet is unreachable: the store must satisfy the run
        # without opening a single socket (lazy connect on first dispatch).
        store = ResultStore(tmp_path)
        ExperimentScheduler(SEED, quick=True, store=store).run(["fig12"])
        policy = ExecutionPolicy(grid_backend=BACKEND_REMOTE, workers=(DEAD_ADDRESS,))
        warm = ExperimentScheduler(
            SEED, quick=True, policy=policy, store=store
        ).run(["fig12"])
        assert not warm.errors
        record = warm.record_for("fig12")
        assert record.cache_hit
        assert record.workers is None  # nothing executed, no fleet involved

    def test_dead_fleet_is_a_captured_job_error(self):
        policy = ExecutionPolicy(grid_backend=BACKEND_REMOTE, workers=(DEAD_ADDRESS,))
        scheduler = ExperimentScheduler(SEED, quick=True, policy=policy)
        report = scheduler.run(["fig12"])
        assert "RemoteDispatchError" in report.errors["fig12"]

    def test_suite_layer_roster_in_manifest(self, loopback_worker, tmp_path):
        roster = (loopback_worker.address_string,)
        suite = BenchmarkSuite(
            seed=SEED, quick=True, grid_backend=BACKEND_REMOTE, workers=roster
        )
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
            "run", "fig05", "--quick",
            "--grid-backend", "remote",
            "--workers", loopback_worker.address_string,
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
        # the remote backend that is the roster, not a grid-jobs count.
        assert main([
            "run", "fig05", "--quick", "--dry-run",
            "--workers", "127.0.0.1:7077,127.0.0.1:7078",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend=remote" in out
        assert "workers=127.0.0.1:7077, 127.0.0.1:7078" in out
        assert "grid-jobs" not in out

    def test_unreachable_fleet_is_a_clean_error(self, capsys):
        assert main([
            "run", "fig12", "--quick", "--grid-backend", "remote",
            "--workers", DEAD_ADDRESS,
        ]) == 2
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
                    "--grid-backend", "remote", "--workers", address,
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
