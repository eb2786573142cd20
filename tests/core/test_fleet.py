"""Tests for elastic fleet membership (``repro.core.fleet``).

Covers the FleetCoordinator / FleetClient pair (register, heartbeat,
expiry, deregister, stats, the service-marker handshake), the
WorkerServer's self-registration lifecycle, and the elastic RemoteMapper
path: the roster resolved live at dispatch, a worker joining
mid-dispatch and receiving work, a worker missing heartbeats mid-chunk
with its in-flight cells re-queued exactly once, and two concurrent
clients racing one figure with every cell executed at most once
fleet-wide (asserted via the store server's cell counters).
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.cli import main
from repro.core.fleet import (
    FLEET_PROTOCOL_VERSION,
    FleetClient,
    FleetCoordinator,
    FleetError,
)
from repro.core.remote import (
    RemoteDispatchError,
    RemoteMapper,
    WorkerServer,
    recv_frame,
    send_frame,
)
from repro.core.scheduler import (
    BACKEND_REMOTE,
    ExecutionPolicy,
    ExperimentScheduler,
)
from repro.core.storenet import StoreServer
from repro.errors import ConfigurationError

SEED = 42

#: An address nothing listens on (port 1 is privileged and unbound).
DEAD_ADDRESS = "127.0.0.1:1"


def _double(value):
    """Module-level so every transport can pickle it by reference."""
    return value * 2


@pytest.fixture()
def coordinator():
    with FleetCoordinator(port=0) as coord:
        yield coord


class TestFleetCoordinator:
    def test_ephemeral_port_resolves_on_start(self, coordinator):
        host, port = coordinator.address
        assert host == "127.0.0.1"
        assert port > 0
        assert coordinator.address_string == f"{host}:{port}"

    def test_unstarted_coordinator_has_no_address(self):
        with pytest.raises(FleetError, match="not started"):
            FleetCoordinator(port=0).address

    def test_stop_is_idempotent(self):
        coord = FleetCoordinator(port=0).start()
        coord.stop()
        coord.stop()  # no-op, no raise

    def test_invalid_heartbeat_timeout_rejected(self):
        # NaN and inf pass a bare "<= 0" check; both would never prune.
        for timeout in (0, float("nan"), float("inf")):
            with pytest.raises(FleetError, match="positive"):
                FleetCoordinator(heartbeat_timeout=timeout)

    def test_register_roster_deregister_round_trip(self, coordinator):
        with FleetClient(coordinator.address_string) as client:
            client.register("127.0.0.1:7077", 2)
            client.register("127.0.0.1:7070", 1)
            assert client.roster() == [
                {"address": "127.0.0.1:7070", "slots": 1},
                {"address": "127.0.0.1:7077", "slots": 2},
            ]
            client.deregister("127.0.0.1:7070")
            assert client.roster() == [{"address": "127.0.0.1:7077", "slots": 2}]

    def test_reregistration_updates_slots_in_place(self, coordinator):
        with FleetClient(coordinator.address_string) as client:
            client.register("127.0.0.1:7077", 1)
            client.register("127.0.0.1:7077", 4)
            assert client.roster() == [{"address": "127.0.0.1:7077", "slots": 4}]

    def test_unroutable_registration_refused(self, coordinator):
        with FleetClient(coordinator.address_string) as client:
            with pytest.raises(FleetError, match="refused"):
                client.register("no-port-here", 1)

    def test_zero_slots_refused(self, coordinator):
        with FleetClient(coordinator.address_string) as client:
            with pytest.raises(FleetError, match=">= 1"):
                client.register("127.0.0.1:7077", 0)

    def test_heartbeat_for_unknown_member_says_reregister(self, coordinator):
        # False is the restart signal: the worker must register again.
        with FleetClient(coordinator.address_string) as client:
            assert client.heartbeat("127.0.0.1:7077") is False
            client.register("127.0.0.1:7077", 1)
            assert client.heartbeat("127.0.0.1:7077") is True

    def test_member_without_heartbeats_expires_from_the_roster(self):
        with FleetCoordinator(port=0, heartbeat_timeout=0.1) as coord:
            with FleetClient(coord.address_string) as client:
                client.register("127.0.0.1:7077", 1)
                assert len(client.roster()) == 1
                time.sleep(0.25)
                assert client.roster() == []
            stats = coord._stats()
            assert stats["expired"] == 1
            assert stats["live"] == 0

    def test_stats_counters(self, coordinator):
        with FleetClient(coordinator.address_string) as client:
            client.register("127.0.0.1:7077", 1)
            client.heartbeat("127.0.0.1:7077")
            client.roster()
            client.deregister("127.0.0.1:7077")
        stats = coordinator._stats()
        assert stats["registered"] == 1
        assert stats["heartbeats"] == 1
        assert stats["deregistered"] == 1
        assert stats["roster_reads"] == 1
        assert stats["live"] == 0

    def test_version_mismatch_diagnosis_names_both_versions(self, coordinator):
        with socket.create_connection(coordinator.address, timeout=5) as sock:
            send_frame(
                sock,
                ("hello", {"protocol": FLEET_PROTOCOL_VERSION + 1, "service": "fleet"}),
            )
            kind, _seq, message = recv_frame(sock)
        assert kind == "error"
        assert f"v{FLEET_PROTOCOL_VERSION}" in message
        assert f"{FLEET_PROTOCOL_VERSION + 1!r}" in message
        assert "upgrade" in message

    def test_wrong_service_hello_is_refused_with_direction(self, coordinator):
        # A store client dialing the coordinator must learn where to point.
        with socket.create_connection(coordinator.address, timeout=5) as sock:
            send_frame(
                sock,
                ("hello", {"protocol": FLEET_PROTOCOL_VERSION, "service": "store"}),
            )
            kind, _seq, message = recv_frame(sock)
        assert kind == "error"
        assert "'store'" in message
        assert "--fleet" in message

    def test_unexpected_frame_is_answered_then_dropped(self, coordinator):
        with socket.create_connection(coordinator.address, timeout=5) as sock:
            send_frame(
                sock,
                ("hello", {"protocol": FLEET_PROTOCOL_VERSION, "service": "fleet"}),
            )
            recv_frame(sock)  # hello reply
            send_frame(sock, ("frobnicate", 1))
            kind, _seq, message = recv_frame(sock)
            assert kind == "error"
            assert "frobnicate" in message
            with pytest.raises(EOFError):
                recv_frame(sock)  # server closed the connection


class TestFleetClient:
    def test_constructing_never_dials(self):
        FleetClient(DEAD_ADDRESS)

    def test_unreachable_coordinator_raises_loudly(self):
        client = FleetClient(DEAD_ADDRESS, connect_timeout=0.5)
        with pytest.raises(FleetError, match="could not reach"):
            client.roster()

    def test_dialing_a_worker_is_a_clear_error(self):
        with WorkerServer(port=0) as worker:
            client = FleetClient(worker.address_string)
            with pytest.raises(FleetError, match="not a fleet coordinator"):
                client.roster()


class TestWorkerMembership:
    def test_worker_registers_on_start_and_deregisters_on_drain(self, coordinator):
        with WorkerServer(
            port=0, workers=1, fleet_url=coordinator.address_string
        ) as worker:
            assert coordinator.members() == [
                {"address": worker.address_string, "slots": 1}
            ]
        assert coordinator.members() == []
        stats = coordinator._stats()
        assert stats["registered"] == 1
        assert stats["deregistered"] == 1

    def test_worker_heartbeats_keep_it_on_the_roster(self):
        # The heartbeat interval (0.05s) far outpaces the timeout (0.3s):
        # the worker must survive several pruning horizons.
        with FleetCoordinator(port=0, heartbeat_timeout=0.3) as coord:
            with WorkerServer(
                port=0,
                fleet_url=coord.address_string,
                heartbeat_interval=0.05,
            ) as worker:
                time.sleep(0.9)
                assert coord.members() == [
                    {"address": worker.address_string, "slots": 1}
                ]

    def test_worker_reregisters_after_coordinator_forgets_it(self):
        # The timeout (0.1s) undercuts the heartbeat interval (0.25s), so
        # the member expires between beats — and the next beat's False
        # reply must trigger a re-registration.
        with FleetCoordinator(port=0, heartbeat_timeout=0.1) as coord:
            with WorkerServer(
                port=0,
                fleet_url=coord.address_string,
                heartbeat_interval=0.25,
            ):
                deadline = time.monotonic() + 10
                while coord.members() and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert coord.members() == []  # expired between beats
                while not coord.members() and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert len(coord.members()) == 1  # re-registered
                assert coord._stats()["registered"] >= 2

    def test_dead_coordinator_fails_worker_start_loudly(self):
        # A worker pointed at a dead coordinator is a misconfiguration:
        # start() must raise (and release the listener), not serve
        # invisibly outside the fleet.
        worker = WorkerServer(port=0, fleet_url=DEAD_ADDRESS)
        with pytest.raises(FleetError, match="could not reach"):
            worker.start()
        with pytest.raises(RemoteDispatchError, match="not started"):
            worker.address

    def test_advertise_overrides_the_registered_address(self, coordinator):
        with WorkerServer(
            port=0,
            fleet_url=coordinator.address_string,
            advertise="127.0.0.1:7777",
        ):
            assert coordinator.members() == [
                {"address": "127.0.0.1:7777", "slots": 1}
            ]

    def test_invalid_heartbeat_interval_rejected(self):
        # NaN makes Event.wait return at once (a heartbeat spin); inf, or
        # anything past threading.TIMEOUT_MAX, makes it raise OverflowError
        # inside the heartbeat thread, and the worker is pruned in silence.
        for interval in (0, float("nan"), float("inf"), 1e10):
            with pytest.raises(RemoteDispatchError, match="positive"):
                WorkerServer(port=0, fleet_url=DEAD_ADDRESS, heartbeat_interval=interval)


class TestElasticDispatch:
    def test_fleet_mapper_resolves_the_roster_live(self, coordinator):
        with WorkerServer(port=0, fleet_url=coordinator.address_string) as worker:
            with RemoteMapper(fleet_url=coordinator.address_string) as mapper:
                assert mapper(_double, list(range(12))) == [x * 2 for x in range(12)]
                assert mapper.last_roster == (worker.address_string,)

    def test_roster_and_static_workers_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            RemoteMapper([DEAD_ADDRESS], fleet_url=DEAD_ADDRESS)

    def test_neither_roster_nor_fleet_is_an_error(self):
        with pytest.raises(RemoteDispatchError, match="fleet"):
            RemoteMapper()

    def test_empty_roster_is_a_dispatch_error_naming_the_fix(self, coordinator):
        mapper = RemoteMapper(fleet_url=coordinator.address_string)
        with pytest.raises(RemoteDispatchError, match="--fleet"):
            mapper(_double, [1, 2])

    def test_unreachable_coordinator_is_a_dispatch_error(self):
        mapper = RemoteMapper(fleet_url=DEAD_ADDRESS, connect_timeout=0.5)
        with pytest.raises(RemoteDispatchError, match="could not resolve"):
            mapper(_double, [1, 2])

    def test_mapper_reuses_connections_across_dispatches(self, coordinator):
        with WorkerServer(port=0, fleet_url=coordinator.address_string):
            with RemoteMapper(fleet_url=coordinator.address_string) as mapper:
                assert mapper(_double, [1]) == [2]
                first = mapper._connections[0]
                assert mapper(_double, [2, 3]) == [4, 6]
                assert mapper._connections[0] is first

    def test_drained_member_is_dropped_between_dispatches(self, coordinator):
        stable = WorkerServer(port=0, fleet_url=coordinator.address_string).start()
        ephemeral = WorkerServer(port=0, fleet_url=coordinator.address_string).start()
        try:
            with RemoteMapper(fleet_url=coordinator.address_string) as mapper:
                assert mapper(_double, list(range(8))) == [x * 2 for x in range(8)]
                assert len(mapper.last_roster) == 2
                ephemeral.stop()
                assert mapper(_double, list(range(8))) == [x * 2 for x in range(8)]
                assert mapper.last_roster == (stable.address_string,)
        finally:
            stable.stop()
            ephemeral.stop()


_JOIN_GATE = threading.Event()
_JOIN_STARTED = threading.Event()
_JOIN_LOCK = threading.Lock()
_JOIN_DONE = 0


def _gated_double(item):
    """Item 0 parks on the gate; the rest count completions as they land.

    Runs inline in the (in-process) worker's handler thread, so the
    module-level events observe exactly which worker made progress.
    """
    global _JOIN_DONE
    if item == 0:
        _JOIN_STARTED.set()
        _JOIN_GATE.wait(timeout=30)
    else:
        with _JOIN_LOCK:
            _JOIN_DONE += 1
    return item * 2


_CHURN_LOCK = threading.Lock()
_CHURN_COUNTS: dict[int, int] = {}
_CHURN_STARTED = threading.Event()
_CHURN_STALL = threading.Event()


def _stall_first_zero(item):
    """The first execution of item 0 parks until released; reruns pass."""
    with _CHURN_LOCK:
        _CHURN_COUNTS[item] = _CHURN_COUNTS.get(item, 0) + 1
        first = _CHURN_COUNTS[item] == 1
    if item == 0 and first:
        _CHURN_STARTED.set()
        _CHURN_STALL.wait(timeout=30)
    return item * 2


class TestMembershipChurn:
    def test_worker_joining_mid_dispatch_receives_work(self, coordinator):
        # Worker A (one slot; four items keep the chunks at one cell)
        # claims item 0 and parks on the gate; every other item can only
        # complete if the mid-run joiner B is admitted and driven. The
        # gate opens only after they all did.
        global _JOIN_DONE
        _JOIN_GATE.clear()
        _JOIN_STARTED.clear()
        _JOIN_DONE = 0
        items = list(range(4))
        first = WorkerServer(
            port=0, workers=1, fleet_url=coordinator.address_string
        ).start()
        joiner = None
        try:
            with RemoteMapper(
                fleet_url=coordinator.address_string, poll_interval=0.05
            ) as mapper:
                results: list = []

                def dispatch():
                    results.extend(mapper(_gated_double, items))

                thread = threading.Thread(target=dispatch)
                thread.start()
                assert _JOIN_STARTED.wait(timeout=10)
                joiner = WorkerServer(
                    port=0, workers=1, fleet_url=coordinator.address_string
                ).start()
                deadline = time.monotonic() + 10
                while _JOIN_DONE < len(items) - 1:
                    assert time.monotonic() < deadline, (
                        f"joiner never progressed the grid ({_JOIN_DONE} done)"
                    )
                    time.sleep(0.01)
                _JOIN_GATE.set()
                thread.join(timeout=10)
                assert not thread.is_alive()
                assert results == [item * 2 for item in items]
                assert mapper.last_chunk_size == 1
                assert set(mapper.last_roster) == {
                    first.address_string,
                    joiner.address_string,
                }
        finally:
            _JOIN_GATE.set()
            first.stop()
            if joiner is not None:
                joiner.stop()

    def test_missed_heartbeats_requeue_in_flight_cells_exactly_once(self):
        # Worker A registers and then never heartbeats (interval 30s vs a
        # 0.6s timeout) with item 0 stalled in flight; the watcher must
        # treat the pruned member like a dead socket — item 0 re-queues to
        # the healthy joiner B and runs again exactly once, everything
        # else exactly once in total. Four items over A's one slot keep the
        # chunks at one cell, so only item 0 is in flight on A.
        _CHURN_COUNTS.clear()
        _CHURN_STARTED.clear()
        _CHURN_STALL.clear()
        items = list(range(4))
        with FleetCoordinator(port=0, heartbeat_timeout=0.6) as coord:
            stale = WorkerServer(
                port=0, workers=1, fleet_url=coord.address_string,
                heartbeat_interval=30.0,
            ).start()
            healthy = None
            try:
                with RemoteMapper(
                    fleet_url=coord.address_string, poll_interval=0.05
                ) as mapper:
                    results: list = []

                    def dispatch():
                        results.extend(mapper(_stall_first_zero, items))

                    thread = threading.Thread(target=dispatch)
                    thread.start()
                    # Admit the healthy survivor while A stalls on item 0.
                    # Started any earlier, B can be on the roster the
                    # dispatch first reads and claim item 0 itself.
                    assert _CHURN_STARTED.wait(timeout=10)
                    healthy = WorkerServer(
                        port=0, workers=1, fleet_url=coord.address_string,
                        heartbeat_interval=0.1,
                    ).start()
                    thread.join(timeout=20)
                    assert not thread.is_alive()
                    assert results == [item * 2 for item in items]
                    assert mapper.last_chunk_size == 1
            finally:
                _CHURN_STALL.set()
                stale.stop()
                if healthy is not None:
                    healthy.stop()
        # Exactly-once re-queue: the stalled cell ran once on each side of
        # the eviction, every other cell exactly once fleet-wide.
        assert _CHURN_COUNTS[0] == 2
        assert all(_CHURN_COUNTS[item] == 1 for item in items[1:])


class TestTwoClientRace:
    def test_two_clients_racing_one_figure_execute_each_cell_at_most_once(
        self, tmp_path
    ):
        # The acceptance gate: two schedulers race the same figure through
        # one store-aware fleet; the store server's cell counters prove
        # every (platform, rep) cell executed at most once fleet-wide
        # (put_repeats would count a second execution's write-back), and
        # both clients still reassemble the full bit-identical figure.
        serial = ExperimentScheduler(SEED, quick=True).run(["fig12"])
        expected = serial.results["fig12"].comparable_dict()
        with StoreServer(port=0, root=tmp_path / "cells") as store:
            with FleetCoordinator(port=0) as coord:
                with WorkerServer(
                    port=0, workers=1, fleet_url=coord.address_string
                ):
                    policy = ExecutionPolicy(
                        fleet_url=coord.address_string,
                        store_url=store.address_string,
                    )
                    reports: dict[str, object] = {}
                    barrier = threading.Barrier(2)

                    def race(name: str) -> None:
                        scheduler = ExperimentScheduler(
                            SEED, quick=True, policy=policy
                        )
                        barrier.wait(timeout=10)
                        reports[name] = scheduler.run(["fig12"])

                    threads = [
                        threading.Thread(target=race, args=(name,))
                        for name in ("a", "b")
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=120)
                        assert not thread.is_alive()
            cells = store.cell_stats()
        for name in ("a", "b"):
            report = reports[name]
            assert not report.errors
            assert report.results["fig12"].comparable_dict() == expected
        # Every unique cell was written back exactly once: a cell that
        # executed twice would have produced a repeated put.
        assert cells["put_repeats"] == 0
        assert cells["puts"] == cells["runs"]
        assert cells["runs"] > 0
        # Both dispatches reported dedupe counters, and together they
        # executed each unique cell exactly once.
        dedupes = [
            reports[name].records[0].dedupe for name in ("a", "b")
        ]
        assert all(d is not None for d in dedupes)
        executed = sum(d["executed"] for d in dedupes)
        assert executed == cells["runs"]


class TestPolicyFleet:
    def test_fleet_url_auto_selects_remote(self):
        policy = ExecutionPolicy(fleet_url="127.0.0.1:7079")
        assert policy.grid_backend == BACKEND_REMOTE

    def test_fleet_url_and_workers_are_a_contradiction(self):
        with pytest.raises(ConfigurationError, match="not both"):
            ExecutionPolicy(
                fleet_url="127.0.0.1:7079", workers=("127.0.0.1:7077",)
            )

    def test_grid_jobs_with_fleet_url_is_a_contradiction(self):
        with pytest.raises(ConfigurationError, match="grid_jobs does not apply"):
            ExecutionPolicy(grid_jobs=4, fleet_url="127.0.0.1:7079")

    def test_invalid_fleet_address_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid fleet address"):
            ExecutionPolicy(fleet_url="no-port-here")

    def test_policy_mapper_is_remote_with_the_fleet_url(self):
        mapper = ExecutionPolicy(fleet_url=DEAD_ADDRESS).mapper()
        assert isinstance(mapper, RemoteMapper)
        assert mapper.fleet_url == DEAD_ADDRESS


class TestSchedulerFleet:
    def test_fleet_run_records_the_materialized_roster(self, coordinator):
        with WorkerServer(port=0, fleet_url=coordinator.address_string) as worker:
            address = worker.address_string
            policy = ExecutionPolicy(fleet_url=coordinator.address_string)
            report = ExperimentScheduler(SEED, quick=True, policy=policy).run(
                ["fig11"]
            )
        assert not report.errors
        record = report.records[0]
        assert record.grid_backend == BACKEND_REMOTE
        assert record.fleet == coordinator.address_string
        assert record.workers == (address,)
        provenance = report.results["fig11"].provenance
        assert provenance["fleet"] == coordinator.address_string
        assert provenance["workers"] == [address]

    def test_fleet_run_is_bit_identical_to_serial(self, coordinator):
        serial = ExperimentScheduler(SEED, quick=True).run(["fig12"])
        with WorkerServer(port=0, fleet_url=coordinator.address_string):
            policy = ExecutionPolicy(fleet_url=coordinator.address_string)
            fleet = ExperimentScheduler(SEED, quick=True, policy=policy).run(
                ["fig12"]
            )
        assert (
            fleet.results["fig12"].comparable_dict()
            == serial.results["fig12"].comparable_dict()
        )

    def test_local_runs_record_no_fleet(self):
        report = ExperimentScheduler(SEED, quick=True).run(["fig11"])
        record = report.records[0]
        assert record.fleet is None
        assert record.dedupe is None
        assert report.results["fig11"].provenance["fleet"] is None


class TestCliFleet:
    def test_run_fleet_flag_round_trip(self, coordinator, capsys):
        assert main(["run", "fig12", "--quick"]) == 0
        serial_out = capsys.readouterr().out
        with WorkerServer(port=0, fleet_url=coordinator.address_string):
            assert main([
                "run", "fig12", "--quick",
                "--fleet", coordinator.address_string,
            ]) == 0
        assert capsys.readouterr().out == serial_out

    def test_fleet_provenance_names_the_coordinator(self, coordinator, capsys):
        with WorkerServer(port=0, fleet_url=coordinator.address_string):
            assert main([
                "run", "fig12", "--quick",
                "--fleet", coordinator.address_string,
                "--provenance",
            ]) == 0
        out = capsys.readouterr().out
        assert f"fleet={coordinator.address_string}" in out
        assert "grid=remote" in out

    def test_fleet_and_workers_flags_are_a_clean_error(self, capsys):
        assert main([
            "run", "fig12", "--quick",
            "--fleet", "127.0.0.1:7079", "--workers", "127.0.0.1:7077",
        ]) == 2
        err = capsys.readouterr().err
        assert "repro-bench: error:" in err
        assert "Traceback" not in err

    def test_empty_fleet_is_a_clean_error(self, coordinator, capsys):
        assert main([
            "run", "fig12", "--quick", "--fleet", coordinator.address_string,
        ]) == 2
        err = capsys.readouterr().err
        assert "repro-bench worker --fleet" in err
        assert "Traceback" not in err
