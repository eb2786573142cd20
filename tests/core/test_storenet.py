"""Tests for the shared (network) result store (``repro.core.storenet``).

Covers the store protocol (hello handshake with the ``service`` marker,
get/put/stats), the StoreServer / RemoteStore pair (lazy connect, loud
failures, concurrent clients on one key), the TieredStore read-through /
write-back semantics, and the fleet acceptance path: a second client
with a cold local cache against a warm ``StoreServer`` executes zero
workloads, reports ``hit-remote`` provenance with the store address, and
produces bit-identical results.
"""

from __future__ import annotations

import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.core.figures import lower_figure
from repro.core.remote import RemoteMapper, WorkerServer, recv_frame, send_frame
from repro.core.results import FigureResult, ResultRow
from repro.core.runner import run_rep_job
from repro.core.scheduler import ExecutionPolicy, ExperimentScheduler
from repro.core.stats import summarize
from repro.core.store import ResultStore, StoreKey
from repro.core.storenet import (
    STORE_PROTOCOL_VERSION,
    RemoteStore,
    RemoteStoreError,
    StoreServer,
    TieredStore,
)
from repro.core.suite import BenchmarkSuite
from repro.errors import ConfigurationError

SEED = 42

#: An address nothing listens on (port 1 is privileged and unbound).
DEAD_ADDRESS = "127.0.0.1:1"


def sample_result(tag: str = "sample") -> FigureResult:
    result = FigureResult(figure_id="figX", title=tag, unit="ms", x_label="n")
    result.rows.append(ResultRow("native", "Native", summarize([1.0, 2.0, 3.0]), "ms"))
    return result


def key_for(seed: int = SEED) -> StoreKey:
    return StoreKey.for_run("figX", seed, False, None)


@pytest.fixture()
def store_server(tmp_path):
    with StoreServer(port=0, root=tmp_path / "server") as server:
        yield server


class TestStoreServer:
    def test_ephemeral_port_resolves_on_start(self, store_server):
        host, port = store_server.address
        assert host == "127.0.0.1"
        assert port > 0
        assert store_server.address_string == f"{host}:{port}"

    def test_unstarted_server_has_no_address(self, tmp_path):
        with pytest.raises(RemoteStoreError, match="not started"):
            StoreServer(port=0, root=tmp_path).address

    def test_stop_is_idempotent(self, tmp_path):
        server = StoreServer(port=0, root=tmp_path).start()
        server.stop()
        server.stop()  # no-op, no raise

    def test_busy_port_is_a_store_error_naming_the_address(self, tmp_path, held_port):
        server = StoreServer(port=held_port, root=tmp_path)
        with pytest.raises(RemoteStoreError, match=f"cannot listen on 127.0.0.1:{held_port}"):
            server.start()
        with pytest.raises(RemoteStoreError, match="not started"):
            server.address

    def test_non_store_hello_is_answered_with_an_error(self, store_server):
        # A worker-fleet client (no service marker) must get a clear
        # refusal, not a confusing frame mismatch.
        with socket.create_connection(store_server.address, timeout=5) as sock:
            send_frame(sock, ("hello", {"protocol": STORE_PROTOCOL_VERSION}))
            kind, _seq, message = recv_frame(sock)
        assert kind == "error"
        assert "store protocol" in message

    def test_unexpected_frame_is_answered_then_dropped(self, store_server):
        with socket.create_connection(store_server.address, timeout=5) as sock:
            send_frame(
                sock,
                ("hello", {"protocol": STORE_PROTOCOL_VERSION, "service": "store"}),
            )
            recv_frame(sock)  # hello reply
            send_frame(sock, ("frobnicate", 1, 2))
            kind, _seq, message = recv_frame(sock)
            assert kind == "error"
            assert "frobnicate" in message
            with pytest.raises(EOFError):
                recv_frame(sock)  # server closed the connection

    def test_corrupt_entry_is_a_miss_on_a_live_connection(
        self, store_server, corrupt_entries
    ):
        with RemoteStore(store_server.address_string) as store:
            store.put(key_for(), sample_result())
            assert store.get(key_for()) is not None
            connection = store._sock
            path = store_server.store.path_for(key_for())
            for content in corrupt_entries:
                path.write_bytes(content)
                assert store.get(key_for()) is None, content
                assert store._sock is connection  # no error frame, no redial
            store.put(key_for(), sample_result())
            assert store.get(key_for()).to_dict() == sample_result().to_dict()
            assert store._sock is connection

    def test_corrupt_shared_entry_is_recomputed(self, store_server):
        policy = ExecutionPolicy(store_url=store_server.address_string)
        expected = ExperimentScheduler(SEED, quick=True).run(["fig05"]).results["fig05"]
        scheduler = ExperimentScheduler(SEED, quick=True, policy=policy)
        store_server.store.path_for(scheduler.key_for("fig05")).write_text("[]")
        report = scheduler.run(["fig05"])
        report.raise_for_errors()
        assert report.records[0].cache == "miss"
        assert report.results["fig05"].comparable_dict() == expected.comparable_dict()
        assert store_server.store.get(scheduler.key_for("fig05")) is not None

    def test_threads_on_one_server_get_the_serial_replies(self, store_server):
        # Every put of a key writes the same result, as every run of one
        # figure does, so every reply must equal a serial read.
        keys = [key_for(seed) for seed in range(3)]
        with RemoteStore(store_server.address_string) as store:
            for key in keys:
                store.put(key, sample_result(f"seed-{key.seed}"))
        serial = {key.seed: ResultStore(store_server.store.root).get(key) for key in keys}
        replies: list[tuple[int, FigureResult | None]] = []
        errors: list[Exception] = []
        barrier = threading.Barrier(4)

        def read_and_write(index: int) -> None:
            try:
                with RemoteStore(store_server.address_string) as client:
                    barrier.wait(timeout=5)
                    for round_ in range(20):
                        key = keys[(index + round_) % len(keys)]
                        if round_ % 4 == index:
                            client.put(key, sample_result(f"seed-{key.seed}"))
                        replies.append((key.seed, client.get(key)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=read_and_write, args=(index,)) for index in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often inside the memo
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(replies) == 80
        for seed, reply in replies:
            assert reply is not None
            assert reply.to_dict() == serial[seed].to_dict()
        # A lost update under the memo's lock would lose a count.
        assert store_server.store.stats == {"hits": 80, "misses": 0, "evicted": 0}

    def test_wrong_arity_is_an_unexpected_frame(self, store_server):
        with socket.create_connection(store_server.address, timeout=5) as sock:
            send_frame(
                sock,
                ("hello", {"protocol": STORE_PROTOCOL_VERSION, "service": "store"}),
            )
            recv_frame(sock)  # hello reply
            send_frame(sock, ("get", 1, 2))  # get takes one argument
            kind, _seq, message = recv_frame(sock)
        assert kind == "error"
        assert "unexpected frame" in message


class TestRemoteStore:
    def test_constructing_never_dials(self):
        # Lazy connect: a dead address is only an error once a request
        # must actually cross the wire.
        RemoteStore(DEAD_ADDRESS)

    def test_unreachable_store_raises_loudly(self):
        store = RemoteStore(DEAD_ADDRESS, connect_timeout=0.5)
        with pytest.raises(RemoteStoreError, match="could not reach"):
            store.get(key_for())

    def test_dialing_a_worker_is_a_clear_error(self):
        with WorkerServer(port=0) as worker:
            store = RemoteStore(worker.address_string)
            with pytest.raises(RemoteStoreError, match="not a result store"):
                store.get(key_for())

    def test_get_miss_then_put_then_hit(self, store_server):
        with RemoteStore(store_server.address_string) as store:
            key = key_for()
            assert store.get(key) is None
            assert store.last_source is None
            store.put(key, sample_result())
            loaded = store.get(key)
            assert loaded is not None
            assert loaded.to_dict() == sample_result().to_dict()
            assert store.last_source == "remote"
            assert store.stats == {"hits": 1, "misses": 1, "evicted": 0}

    def test_server_stats_request(self, store_server):
        with RemoteStore(store_server.address_string) as store:
            store.put(key_for(), sample_result())
            stats = store.server_stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0

    def test_entries_survive_on_the_shared_directory(self, store_server, tmp_path):
        # The server's backing directory is a plain ResultStore: entries
        # written over the wire are bit-identical to local puts.
        with RemoteStore(store_server.address_string) as store:
            store.put(key_for(), sample_result())
        direct = ResultStore(store_server.store.root)
        loaded = direct.get(key_for())
        assert loaded is not None
        assert loaded.to_dict() == sample_result().to_dict()

    def test_ipv6_url_spelling_round_trips(self):
        store = RemoteStore("[::1]:7078")
        assert store.address == ("::1", 7078)
        assert store.url == "[::1]:7078"

    def test_two_concurrent_clients_interleaved_on_one_key(self, store_server):
        # Satellite coverage: two clients hammering get/put on the same
        # key must always observe either a miss or a complete, valid
        # entry — never a torn one (writer-unique temp names + atomic
        # rename on the server side).
        errors: list[Exception] = []
        barrier = threading.Barrier(2)

        def hammer(tag: str) -> None:
            try:
                with RemoteStore(store_server.address_string) as store:
                    barrier.wait(timeout=5)
                    for index in range(25):
                        store.put(key_for(), sample_result(f"{tag}-{index}"))
                        loaded = store.get(key_for())
                        assert loaded is not None
                        assert loaded.figure_id == "figX"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(tag,)) for tag in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        # Exactly one (valid) entry remains; no temp files leaked.
        assert store_server.store.usage()[0] == 1
        assert list(store_server.store.root.glob("*.tmp-*")) == []


class TestTieredStore:
    def test_local_hit_never_touches_the_remote_tier(self, tmp_path):
        # The remote tier is a dead address: a local hit must satisfy the
        # read without dialing at all.
        local = ResultStore(tmp_path)
        local.put(key_for(), sample_result())
        tiered = TieredStore(local, RemoteStore(DEAD_ADDRESS))
        loaded = tiered.get(key_for())
        assert loaded is not None
        assert tiered.last_source == "local"

    def test_remote_hit_writes_back_to_local(self, store_server, tmp_path):
        with RemoteStore(store_server.address_string) as warm:
            warm.put(key_for(), sample_result())
        local = ResultStore(tmp_path / "local")
        tiered = TieredStore(local, RemoteStore(store_server.address_string))
        assert tiered.get(key_for()) is not None
        assert tiered.last_source == "remote"
        # The write-back warmed the local tier: the next read is local.
        assert tiered.get(key_for()) is not None
        assert tiered.last_source == "local"
        tiered.close()

    def test_miss_resets_last_source(self, store_server, tmp_path):
        tiered = TieredStore(
            ResultStore(tmp_path / "local"), RemoteStore(store_server.address_string)
        )
        assert tiered.get(key_for()) is None
        assert tiered.last_source is None
        tiered.close()

    def test_put_lands_in_both_tiers(self, store_server, tmp_path):
        local = ResultStore(tmp_path / "local")
        tiered = TieredStore(local, RemoteStore(store_server.address_string))
        tiered.put(key_for(), sample_result())
        assert local.get(key_for()) is not None
        assert store_server.store.get(key_for()) is not None
        assert tiered.get(key_for()) is not None
        assert tiered.last_source == "local"
        tiered.close()

    def test_no_local_tier_reads_remote_directly(self, store_server):
        tiered = TieredStore(None, RemoteStore(store_server.address_string))
        tiered.put(key_for(), sample_result())
        assert tiered.get(key_for()) is not None
        assert tiered.last_source == "remote"
        assert tiered.stats["local"] is None
        assert tiered.stats["remote"]["hits"] == 1
        tiered.close()

    def test_describe_names_both_tiers(self, tmp_path):
        tiered = TieredStore(ResultStore(tmp_path), RemoteStore(DEAD_ADDRESS))
        assert str(tmp_path) in tiered.describe()
        assert "store://127.0.0.1:1" in tiered.describe()
        assert TieredStore(None, RemoteStore(DEAD_ADDRESS)).describe() == (
            "store://127.0.0.1:1"
        )
        assert tiered.url == "127.0.0.1:1"


class TestPolicyStoreUrl:
    def test_policy_validates_the_address(self):
        with pytest.raises(ConfigurationError, match="invalid store address"):
            ExecutionPolicy(store_url="no-port-here")

    def test_policy_rejects_ambiguous_ipv6(self):
        with pytest.raises(ConfigurationError, match="store address"):
            ExecutionPolicy(store_url="::1:7078")

    def test_policy_accepts_bracketed_ipv6(self):
        assert ExecutionPolicy(store_url="[::1]:7078").store_url == "[::1]:7078"

    def test_scheduler_builds_the_shared_store_from_the_policy(self):
        scheduler = ExperimentScheduler(
            SEED, policy=ExecutionPolicy(store_url=DEAD_ADDRESS)
        )
        assert isinstance(scheduler.store, TieredStore)
        assert scheduler.store_address == DEAD_ADDRESS


class TestFleetAcceptance:
    """The tentpole gate: a cold client against a warm server runs nothing."""

    SUBSET = ["fig11", "fig12"]

    def test_second_client_executes_nothing_bit_identically(
        self, store_server, tmp_path
    ):
        url = store_server.address_string
        # Client A (no local tier) computes and publishes to the fleet store.
        client_a = BenchmarkSuite(seed=SEED, quick=True, store_url=url)
        results_a = client_a.run_all(self.SUBSET)
        assert client_a.last_report.executed == len(self.SUBSET)
        for record in client_a.last_report.records:
            assert record.cache == "miss"
            assert record.store == url

        # Client B: cold local cache, warm server.
        client_b = BenchmarkSuite(
            seed=SEED, quick=True, store_url=url, cache_dir=tmp_path / "b-local"
        )
        results_b = client_b.run_all(self.SUBSET)
        assert client_b.last_report.executed == 0
        for record in client_b.last_report.records:
            assert record.cache == "hit-remote"
            assert record.cache_hit
            assert record.store == url
        for figure_id in self.SUBSET:
            assert (
                results_a[figure_id].comparable_dict()
                == results_b[figure_id].comparable_dict()
            )
            provenance = results_b[figure_id].provenance
            assert provenance["cache"] == "hit-remote"
            assert provenance["store"] == url

        # Client C reuses B's (now warm) local tier: hits never leave the
        # machine.
        client_c = BenchmarkSuite(
            seed=SEED, quick=True, store_url=url, cache_dir=tmp_path / "b-local"
        )
        results_c = client_c.run_all(self.SUBSET)
        assert client_c.last_report.executed == 0
        for record in client_c.last_report.records:
            assert record.cache == "hit-local"
        for figure_id in self.SUBSET:
            assert (
                results_a[figure_id].comparable_dict()
                == results_c[figure_id].comparable_dict()
            )

    def test_shared_results_are_byte_identical_json(self, store_server, tmp_path):
        url = store_server.address_string
        local = BenchmarkSuite(seed=SEED, quick=True)
        fleet = BenchmarkSuite(
            seed=SEED, quick=True, store_url=url, cache_dir=tmp_path / "cold"
        )
        warmer = BenchmarkSuite(seed=SEED, quick=True, store_url=url)
        warmer.run_figure("fig12")
        reference = json.dumps(
            local.run_figure("fig12").comparable_dict(), sort_keys=True
        )
        shared = json.dumps(
            fleet.run_figure("fig12").comparable_dict(), sort_keys=True
        )
        assert reference == shared

    def test_manifest_and_describe_record_the_store(self, store_server, tmp_path):
        url = store_server.address_string
        suite = BenchmarkSuite(seed=SEED, quick=True, store_url=url)
        suite.run_figure("fig12")
        suite.save_results(tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["store"] == url
        assert f"store://{url}" in suite.describe()

    def test_unreachable_store_fails_loudly_not_silently(self):
        # Degrading to a miss would falsify provenance and trigger the
        # recompute storm the shared tier exists to prevent.
        suite = BenchmarkSuite(seed=SEED, quick=True, store_url=DEAD_ADDRESS)
        with pytest.raises(RemoteStoreError, match="could not reach"):
            suite.run_figure("fig12")


class TestCliStore:
    def test_run_store_flag_round_trip(self, store_server, capsys):
        url = store_server.address_string
        # First invocation warms the server...
        assert main(["run", "fig12", "--quick", "--store", url, "--provenance"]) == 0
        out = capsys.readouterr().out
        assert "cache=miss" in out
        assert f"store={url}" in out
        # ... the second (fresh process-state, cold local) is all remote hits.
        assert main(["run", "fig12", "--quick", "--store", url, "--provenance"]) == 0
        out = capsys.readouterr().out
        assert "cache=hit-remote" in out
        assert f"store={url}" in out

    def test_unreachable_store_is_a_clean_error(self, capsys):
        assert main(["run", "fig12", "--quick", "--store", DEAD_ADDRESS]) == 2
        err = capsys.readouterr().err
        assert "repro-bench: error:" in err
        assert "Traceback" not in err

    def test_findings_with_unreachable_store_is_a_clean_error(self, capsys):
        assert main(["findings", "--store", DEAD_ADDRESS]) == 2
        err = capsys.readouterr().err
        assert "repro-bench: error:" in err

    def test_malformed_store_address_is_a_config_error(self, capsys):
        assert main(["run", "fig12", "--quick", "--store", "::1:7078"]) == 2
        err = capsys.readouterr().err
        assert "bracket" in err

    def test_store_subcommand_serves_real_clients(self, tmp_path):
        # Full lifecycle through the installed entry points: spawn
        # `repro-bench store`, warm it with client A, verify client B
        # reports remote hits, then SIGTERM for the graceful drain.
        import os
        import pathlib

        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "store", "--port", "0",
                "--dir", str(tmp_path / "fleet-store"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = server.stdout.readline()
            address = re.search(r"listening on (\S+)", banner).group(1)
            warm = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "run", "fig12", "--quick",
                    "--store", address,
                ],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert warm.returncode == 0, warm.stderr
            cold = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "run", "fig12", "--quick",
                    "--store", address, "--provenance",
                ],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert cold.returncode == 0, cold.stderr
            assert "cache=hit-remote" in cold.stdout
            # Bit-identical figures, straight off the wire.
            assert warm.stdout.splitlines()[0] == cold.stdout.splitlines()[0]
        finally:
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=10) == 0
            assert "drained" in server.stdout.read()


class _LegacyStoreServer:
    """A store double without a cell tier: no ``verbs`` in the hello,
    get/put only, and any other verb is refused and drops the connection.

    It serves one connection and records the verb of every request.
    """

    def __init__(self) -> None:
        self.entries: dict[str, dict] = {}
        self.requests: list[str] = []
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
                send_frame(
                    conn,
                    ("hello", {"service": "store", "protocol": STORE_PROTOCOL_VERSION}),
                )
                while True:
                    message = recv_frame(conn)
                    self.requests.append(message[0])
                    if message[0] == "get":
                        send_frame(
                            conn,
                            ("ok", self.entries.get(message[1]["overrides_json"])),
                        )
                    elif message[0] == "put":
                        self.entries[message[1]["overrides_json"]] = message[2]
                        send_frame(conn, ("ok", True))
                    else:
                        send_frame(conn, ("error", None, "unknown verb"))
                        return
            except (EOFError, OSError):
                return

    def __enter__(self) -> "_LegacyStoreServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._listener.close()
        self._thread.join(timeout=5)


class TestContainsVerb:
    """The store answers membership through ``get`` alone: no ``contains``
    verb, and a worker learns that a store lacks the cell tier from the
    refusal of its first claim."""

    def test_server_advertises_the_verb_set(self, store_server):
        with RemoteStore(store_server.address_string) as store:
            assert store.supports("cell_claim")
            assert not store.supports("contains")
            assert not store.supports("frobnicate")

    def test_cell_claim_answers_one_tuple_on_the_wire(self, store_server):
        # The raw protocol: a fresh token is a lease grant, with no payload.
        with socket.create_connection(store_server.address, timeout=5) as sock:
            send_frame(
                sock,
                ("hello", {"protocol": STORE_PROTOCOL_VERSION, "service": "store"}),
            )
            kind, info = recv_frame(sock)
            assert kind == "hello"
            assert "cell_claim" in info["verbs"]
            send_frame(sock, ("cell_claim", "cell-1"))
            assert recv_frame(sock) == ("ok", ("run", None))

    def test_worker_without_a_cell_tier_runs_cells_itself(self):
        # The store refuses the worker's first claim; the worker stops
        # using it and runs every cell itself, bit-identical to serial.
        def jobs():  # a fresh lowering: running a job advances its stream
            return [cell.job for cell in lower_figure("fig11", SEED, repetitions=2).cells]

        serial = [run_rep_job(job) for job in jobs()]
        with _LegacyStoreServer() as legacy, WorkerServer(port=0, workers=1) as worker:
            with RemoteMapper(
                [worker.address_string], store_url=legacy.address_string
            ) as mapper:
                remote = list(mapper(run_rep_job, jobs()))
        assert remote == serial
        assert mapper.last_dedupe == {"executed": len(serial), "store_hits": 0}
        assert legacy.requests == ["cell_claim"]


class TestHandshakeDiagnosis:
    """Satellite: the rejection names both versions and the upgrade path."""

    def test_version_mismatch_names_both_versions(self, store_server):
        offered = STORE_PROTOCOL_VERSION + 7
        with socket.create_connection(store_server.address, timeout=5) as sock:
            send_frame(sock, ("hello", {"protocol": offered, "service": "store"}))
            kind, _seq, message = recv_frame(sock)
        assert kind == "error"
        assert f"v{STORE_PROTOCOL_VERSION}" in message
        assert str(offered) in message
        assert "upgrade" in message

    def test_wrong_service_names_the_offered_service(self, store_server):
        with socket.create_connection(store_server.address, timeout=5) as sock:
            send_frame(
                sock,
                ("hello", {"protocol": STORE_PROTOCOL_VERSION, "service": "fleet"}),
            )
            kind, _seq, message = recv_frame(sock)
        assert kind == "error"
        assert "'fleet'" in message

    def test_client_surfaces_the_two_sided_diagnosis_verbatim(self):
        # A mixed-version fleet: the (older) server's rejection must reach
        # the client verbatim, not as a generic "not a result store".
        diagnosis = (
            "store protocol mismatch: this store speaks v0, client "
            f"offered {STORE_PROTOCOL_VERSION} — upgrade the older side"
        )
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        host, port = listener.getsockname()[:2]

        def reject() -> None:
            conn, _peer = listener.accept()
            with conn:
                recv_frame(conn)  # hello
                send_frame(conn, ("error", None, diagnosis))

        thread = threading.Thread(target=reject, daemon=True)
        thread.start()
        try:
            store = RemoteStore(f"{host}:{port}")
            with pytest.raises(
                RemoteStoreError, match="upgrade the older side"
            ) as info:
                store.get(key_for())
            assert "refused the handshake" in str(info.value)
        finally:
            listener.close()
            thread.join(timeout=5)


class TestCellLease:
    """The cell-granular dedupe protocol: claim, lease, publish."""

    def test_claim_run_then_wait_then_put_then_hit(self, store_server):
        with RemoteStore(store_server.address_string) as store:
            assert store.cell_claim("cell-1") == ("run", None)
            # The lease is live: a second claimant is told to wait.
            assert store.cell_claim("cell-1") == ("wait", None)
            store.cell_put("cell-1", b"payload")
            assert store.cell_claim("cell-1") == ("hit", b"payload")
        cells = store_server.cell_stats()
        assert cells["runs"] == 1
        assert cells["waits"] == 1
        assert cells["hits"] == 1
        assert cells["puts"] == 1
        assert cells["put_repeats"] == 0
        assert cells["leases"] == 0  # the put released it

    def test_expired_lease_regrants_and_counts_the_repeat(self, tmp_path):
        # A claimant that dies mid-cell must not block the token forever:
        # after the lease horizon the next claimant runs, and a late
        # double write-back is counted, not corrupted.
        with StoreServer(
            port=0, root=tmp_path, cell_lease_timeout=0.05
        ) as server:
            with RemoteStore(server.address_string) as store:
                assert store.cell_claim("cell-1") == ("run", None)
                time.sleep(0.1)
                assert store.cell_claim("cell-1") == ("run", None)
                store.cell_put("cell-1", b"first")
                store.cell_put("cell-1", b"second")
            assert server.cell_stats()["put_repeats"] == 1

    def test_cell_capacity_evicts_oldest_first(self, tmp_path):
        with StoreServer(port=0, root=tmp_path, cell_capacity=2) as server:
            with RemoteStore(server.address_string) as store:
                for index in range(3):
                    store.cell_put(f"cell-{index}", b"x")
                assert store.cell_claim("cell-0") == ("run", None)  # evicted
                assert store.cell_claim("cell-2") == ("hit", b"x")
            cells = server.cell_stats()
        assert cells["evicted"] == 1
        assert cells["entries"] == 2

    def test_empty_token_is_refused(self, store_server):
        with RemoteStore(store_server.address_string) as store:
            with pytest.raises(RemoteStoreError, match="refused"):
                store.cell_claim("")

    def test_invalid_lease_configuration_rejected(self, tmp_path):
        # A NaN lease never reads as live, so a second claim of a leased
        # token is granted "run" and two workers execute one cell; an
        # infinite lease never expires, so a crashed holder wedges its
        # waiters. A NaN capacity never evicts.
        for timeout in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(RemoteStoreError, match="finite and positive"):
                StoreServer(port=0, root=tmp_path, cell_lease_timeout=timeout)
        for capacity in (0, float("nan"), 2.5, True):
            with pytest.raises(RemoteStoreError, match="an int >= 1"):
                StoreServer(port=0, root=tmp_path, cell_capacity=capacity)

    def test_stats_reply_carries_the_cell_counters(self, store_server):
        with RemoteStore(store_server.address_string) as store:
            store.cell_claim("cell-1")
            stats = store.server_stats()
        assert stats["cells"]["runs"] == 1
        assert stats["cells"]["leases"] == 1


class _ExplodingLocalStore:
    """A local tier whose writes fail (full disk, permissions slip)."""

    stats: dict = {}

    def __init__(self) -> None:
        self.gets = 0

    def get(self, key):
        self.gets += 1
        return None

    def put(self, key, result):
        raise OSError("disk full")


class TestTieredWarmBack:
    """Satellite: local warming is best-effort; the result is already won."""

    def test_failed_warm_back_keeps_the_result_and_records_a_warning(
        self, store_server
    ):
        with RemoteStore(store_server.address_string) as warm:
            warm.put(key_for(), sample_result())
        local = _ExplodingLocalStore()
        tiered = TieredStore(local, RemoteStore(store_server.address_string))
        try:
            loaded = tiered.get(key_for())
            assert loaded is not None  # the run keeps its result
            assert tiered.last_source == "remote"
            assert tiered.stats["write_back_failures"] == 1
            assert len(tiered.warnings) == 1
            assert "warm-back failed" in tiered.warnings[0]
            assert "figX" in tiered.warnings[0]
            assert "OSError" in tiered.warnings[0]
        finally:
            tiered.close()

    def test_explicit_put_still_raises_on_local_failure(self, store_server):
        # Only the opportunistic warm-back is best-effort: when the write
        # is the point of the call, a failing tier must stay loud.
        tiered = TieredStore(
            _ExplodingLocalStore(), RemoteStore(store_server.address_string)
        )
        try:
            with pytest.raises(OSError, match="disk full"):
                tiered.put(key_for(), sample_result())
        finally:
            tiered.close()

    def test_remote_tier_failures_stay_loud(self, tmp_path):
        # The best-effort carve-out is local-only: a dead shared tier is
        # still a hard error on the read path.
        tiered = TieredStore(
            ResultStore(tmp_path), RemoteStore(DEAD_ADDRESS, connect_timeout=0.5)
        )
        with pytest.raises(RemoteStoreError, match="could not reach"):
            tiered.get(key_for())


class TestStoreNoDelay:
    """Nagle is disabled on both ends of every store connection."""

    def test_nodelay_set_on_dialed_and_accepted_sockets(
        self, store_server, monkeypatch
    ):
        flagged = []
        real_setsockopt = socket.socket.setsockopt

        def recording(sock, *args):
            if tuple(args[:2]) == (socket.IPPROTO_TCP, socket.TCP_NODELAY):
                flagged.append(sock)
            return real_setsockopt(sock, *args)

        monkeypatch.setattr(socket.socket, "setsockopt", recording)
        store = RemoteStore(store_server.address_string)
        try:
            assert store.get(key_for()) is None  # dials lazily on first use
            client_sock = store._sock
            assert (
                client_sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
            )
            # The server's accepted socket set it too — a different
            # socket object from the dialed one.
            assert any(sock is not client_sock for sock in flagged)
        finally:
            store.close()
