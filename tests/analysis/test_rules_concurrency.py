"""The concurrency-safety family (RB201..RB204) and its inference pass."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import AnalysisConfig, Analyzer, ModuleSource, RULE_REGISTRY
from repro.analysis.concurrency import build_class_tables


def dedent(text: str) -> str:
    return textwrap.dedent(text).lstrip()


def class_table(source: str, relpath: str = "scratch/module.py", config=None):
    module = ModuleSource.from_text(dedent(source), relpath=relpath)
    tables = build_class_tables(module, config or AnalysisConfig())
    assert len(tables) == 1
    return tables[0]


# ---------------------------------------------------------------------------
# The inference pass: thread roles and guarded dataflow.
# ---------------------------------------------------------------------------


class TestThreadRoleInference:
    def test_thread_name_kwarg_names_the_role(self):
        table = class_table(
            """
            import threading

            class Service:
                def start(self):
                    self._t = threading.Thread(
                        target=self._loop, name="svc-accept", daemon=True
                    )
                    self._t.start()

                def _loop(self):
                    pass
            """
        )
        assert "svc-accept" in table.roles_of("_loop")
        assert "main" in table.roles_of("start")
        # Private loop bodies run only where they are spawned.
        assert "main" not in table.roles_of("_loop")

    def test_roles_propagate_through_helper_calls(self):
        table = class_table(
            """
            import threading

            class Service:
                def start(self):
                    threading.Thread(target=self._loop, daemon=True).start()

                def _loop(self):
                    self._step()

                def _step(self):
                    pass
            """
        )
        assert table.roles_of("_step") == table.roles_of("_loop")

    def test_spawner_role_does_not_leak_into_target(self):
        # `target=self._loop` is a hand-off, not a call: _loop must not
        # inherit the spawner's "main" role through the spawn expression.
        table = class_table(
            """
            import threading

            class Service:
                def start(self):
                    threading.Thread(target=self._loop, daemon=True).start()

                def _loop(self):
                    pass
            """
        )
        assert "main" not in table.roles_of("_loop")

    def test_executor_submit_contributes_pool_role(self):
        table = class_table(
            """
            class Service:
                def kick(self, executor):
                    executor.submit(self._job, 1)

                def _job(self, n):
                    pass
            """
        )
        assert "pool" in table.roles_of("_job")

    def test_signal_handler_contributes_signal_role(self):
        table = class_table(
            """
            import signal

            class Service:
                def install(self):
                    signal.signal(signal.SIGTERM, self._on_term)

                def _on_term(self, signum, frame):
                    pass
            """
        )
        assert "signal" in table.roles_of("_on_term")

    def test_verb_handlers_and_session_hook_run_on_the_connection_thread(self):
        table = class_table(
            """
            class Store(Service):
                service = "store"
                verbs = {"get": (1, "_get")}

                def _get(self, key):
                    return self._lookup(key)

                def _lookup(self, key):
                    return key

                def _session(self, conn, offer):
                    pass

                def _unlisted(self):
                    pass
            """
        )
        for method in ("_get", "_lookup", "_session"):
            assert table.roles_of(method) == {"repro-store-conn"}, method
        assert table.roles_of("_unlisted") == frozenset()

    def test_config_declared_roles_apply(self):
        config = AnalysisConfig(
            thread_roles={
                "scratch/module.py": {"Store": {"get": "conn-handler"}}
            }
        )
        table = class_table(
            """
            class Store:
                def get(self, key):
                    return None
            """,
            config=config,
        )
        assert table.roles_of("get") == {"main", "conn-handler"}

    def test_guards_recorded_on_accesses(self):
        table = class_table(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, item):
                    with self._lock:
                        self._items.append(item)
            """
        )
        accesses = [
            a for a in table.attr_accesses()["_items"] if a.method == "add"
        ]
        assert accesses and all(a.guards == ("self._lock",) for a in accesses)
        assert table.lock_attrs == {"_lock": "Lock"}


# ---------------------------------------------------------------------------
# RB201: unguarded shared state.
# ---------------------------------------------------------------------------


class TestSharedStateRule:
    CODE = "RB201"

    # The CI seeded-regression shape: FleetCoordinator with its lock
    # dropped around a _members mutation on the accept thread.
    LOCK_DROP = """
        import threading

        class FleetCoordinator:
            def __init__(self):
                self._lock = threading.Lock()
                self._members = {}
                self._accept_thread = None

            def start(self):
                self._accept_thread = threading.Thread(
                    target=self._accept_loop, name="fleet-accept", daemon=True
                )
                self._accept_thread.start()

            def _accept_loop(self):
                self._members["worker"] = object()

            def members(self):
                with self._lock:
                    return dict(self._members)
        """

    def test_dropped_lock_around_members_mutation_is_flagged(
        self, lint_source, codes_of
    ):
        findings = lint_source(dedent(self.LOCK_DROP), rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]
        assert "FleetCoordinator._members" in findings[0].message
        assert "self._lock" in findings[0].message  # names the usual guard

    def test_guarded_twin_is_clean(self, lint_source):
        source = dedent(self.LOCK_DROP).replace(
            '        self._members["worker"] = object()',
            '        with self._lock:\n'
            '            self._members["worker"] = object()',
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_single_role_attribute_is_clean(self, lint_source):
        # No second thread context ever touches _items: no race.
        source = dedent(
            """
            class Bag:
                def __init__(self):
                    self._items = []

                def add(self, item):
                    self._items.append(item)
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_plain_rebind_is_exempt(self, lint_source):
        # A reference swap is atomic under the GIL — the repo's
        # sanctioned hand-off idiom (self._listener = None).
        source = dedent(
            """
            import threading

            class Service:
                def __init__(self):
                    self._listener = None

                def start(self):
                    self._listener = object()
                    threading.Thread(target=self._loop, daemon=True).start()

                def _loop(self):
                    while self._listener is not None:
                        pass
                    self._listener = None
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_sync_primitives_are_exempt(self, lint_source):
        # Event.set()/clear() are internally thread-safe; "clear" being a
        # mutator name must not flag them.
        source = dedent(
            """
            import threading

            class Service:
                def __init__(self):
                    self._stopping = threading.Event()

                def start(self):
                    threading.Thread(target=self._loop, daemon=True).start()

                def stop(self):
                    self._stopping.set()
                    self._stopping.clear()

                def _loop(self):
                    self._stopping.wait(timeout=0.1)
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_init_accesses_do_not_count(self, lint_source):
        # Construction happens-before publication: unguarded writes in
        # __init__ are fine even for attributes shared later.
        source = dedent(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []
                    self._items.append("seed")
                    threading.Thread(target=self._loop, daemon=True).start()

                def _loop(self):
                    with self._lock:
                        self._items.append("tick")

                def drain(self):
                    with self._lock:
                        self._items.clear()
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_config_declared_role_creates_the_second_context(self, codes_of):
        # A store-shaped class with no spawns of its own races only
        # because the threading-model table says handler threads drive it.
        source = dedent(
            """
            class Store:
                def __init__(self):
                    self._hits = 0

                def get(self, key):
                    self._hits += 1
                    return None
            """
        )
        module = ModuleSource.from_text(source, relpath="scratch/module.py")
        clean = Analyzer(rules=[self.CODE]).analyze_modules([module])
        assert clean == []
        config = AnalysisConfig(
            thread_roles={"scratch/module.py": {"Store": {"get": "conn"}}}
        )
        findings = Analyzer(rules=[self.CODE], config=config).analyze_modules(
            [module]
        )
        assert codes_of(findings) == [self.CODE]

    # A service subclass: its base class spawns the connection threads,
    # which reach `_add` only through the verb table.
    VERB_HANDLER_RACE = """
        import threading

        class Registry(Service):
            service = "registry"
            verbs = {"add": (1, "_add")}

            def __init__(self):
                self._items_lock = threading.Lock()
                self._items = {}

            def items(self):
                with self._items_lock:
                    return dict(self._items)

            def _add(self, key):
                self._items[key] = True
        """

    def test_verb_handler_mutating_without_the_lock_is_flagged(
        self, lint_source, codes_of
    ):
        findings = lint_source(dedent(self.VERB_HANDLER_RACE), rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]
        assert "Registry._items" in findings[0].message
        assert "repro-registry-conn" in findings[0].message

    def test_guarded_verb_handler_is_clean(self, lint_source):
        source = dedent(self.VERB_HANDLER_RACE).replace(
            "        self._items[key] = True",
            "        with self._items_lock:\n            self._items[key] = True",
        )
        assert lint_source(source, rules=[self.CODE]) == []


# ---------------------------------------------------------------------------
# RB202: blocking call under a lock.
# ---------------------------------------------------------------------------


class TestBlockingUnderLockRule:
    CODE = "RB202"

    def test_sleep_under_lock_is_flagged(self, lint_source, codes_of):
        source = dedent(
            """
            import threading
            import time

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def tick(self):
                    with self._lock:
                        time.sleep(0.5)
            """
        )
        findings = lint_source(source, rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]
        assert "self._lock" in findings[0].message

    def test_socket_send_under_lock_is_flagged(self, lint_source, codes_of):
        source = dedent(
            """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()

                def broadcast(self, conn, payload):
                    with self._lock:
                        conn.sendall(payload)
            """
        )
        assert codes_of(lint_source(source, rules=[self.CODE])) == [self.CODE]

    def test_io_outside_the_critical_section_is_clean(self, lint_source):
        source = dedent(
            """
            import threading
            import time

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._stamp = 0.0

                def tick(self):
                    time.sleep(0.5)
                    with self._lock:
                        self._stamp = 1.0
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_condition_wait_on_held_condition_is_exempt(self, lint_source):
        # Condition.wait releases the lock while parked — the sanctioned
        # pattern, not a stall.
        source = dedent(
            """
            import threading

            class Queue:
                def __init__(self):
                    self._cv = threading.Condition()
                    self._items = []

                def take(self):
                    with self._cv:
                        while not self._items:
                            self._cv.wait(timeout=1.0)
                        return self._items.pop()
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_thread_join_under_lock_is_flagged(self, lint_source, codes_of):
        source = dedent(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._worker = None

                def stop(self):
                    with self._lock:
                        self._worker.join()
            """
        )
        assert codes_of(lint_source(source, rules=[self.CODE])) == [self.CODE]


# ---------------------------------------------------------------------------
# RB203: lock-order cycles.
# ---------------------------------------------------------------------------


class TestLockOrderRule:
    CODE = "RB203"

    def test_opposite_nesting_orders_are_a_cycle(self, lint_source, codes_of):
        source = dedent(
            """
            import threading

            class TwoLocks:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._b:
                        with self._a:
                            pass
            """
        )
        findings = lint_source(source, rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]
        assert "lock-order cycle" in findings[0].message

    def test_consistent_order_is_clean(self, lint_source):
        source = dedent(
            """
            import threading

            class TwoLocks:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_reacquire_through_helper_call_is_flagged(
        self, lint_source, codes_of
    ):
        source = dedent(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self._inner()

                def _inner(self):
                    with self._lock:
                        pass
            """
        )
        findings = lint_source(source, rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]
        assert "re-acquires" in findings[0].message

    def test_rlock_reacquire_is_clean(self, lint_source):
        source = dedent(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self._inner()

                def _inner(self):
                    with self._lock:
                        pass
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []


# ---------------------------------------------------------------------------
# RB204: leaked (non-daemon, never-joined) threads.
# ---------------------------------------------------------------------------


class TestLeakedThreadRule:
    CODE = "RB204"

    def test_unjoined_non_daemon_thread_is_flagged(
        self, lint_source, codes_of
    ):
        source = dedent(
            """
            import threading

            class Spawner:
                def work(self):
                    t = threading.Thread(target=self._run)
                    t.start()

                def _run(self):
                    pass
            """
        )
        findings = lint_source(source, rules=[self.CODE])
        assert codes_of(findings) == [self.CODE]
        assert "never joined" in findings[0].message

    def test_daemon_thread_is_clean(self, lint_source):
        source = dedent(
            """
            import threading

            class Spawner:
                def work(self):
                    threading.Thread(target=self._run, daemon=True).start()

                def _run(self):
                    pass
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_thread_joined_on_stop_path_is_clean(self, lint_source):
        source = dedent(
            """
            import threading

            class Service:
                def __init__(self):
                    self._worker = None

                def start(self):
                    self._worker = threading.Thread(target=self._run)
                    self._worker.start()

                def stop(self):
                    self._worker.join()

                def _run(self):
                    pass
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_post_construction_daemon_flip_is_clean(self, lint_source):
        source = dedent(
            """
            import threading

            class Service:
                def start(self):
                    t = threading.Thread(target=self._run)
                    t.daemon = True
                    t.start()

                def _run(self):
                    pass
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_batch_spawn_drained_by_loop_join_is_clean(self, lint_source):
        # The canonical test-suite pattern: a comprehension of threads
        # joined by looping over the local list.
        source = dedent(
            """
            import threading

            class Racer:
                def race(self):
                    threads = [
                        threading.Thread(target=self._run) for _ in range(4)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=5)

                def _run(self):
                    pass
            """
        )
        assert lint_source(source, rules=[self.CODE]) == []

    def test_batch_spawn_without_drain_is_flagged(self, lint_source, codes_of):
        source = dedent(
            """
            import threading

            class Racer:
                def race(self):
                    threads = [
                        threading.Thread(target=self._run) for _ in range(4)
                    ]
                    for thread in threads:
                        thread.start()

                def _run(self):
                    pass
            """
        )
        assert codes_of(lint_source(source, rules=[self.CODE])) == [self.CODE]


# ---------------------------------------------------------------------------
# Registry and real-tree spot checks.
# ---------------------------------------------------------------------------


class TestFamilyRegistration:
    def test_rb2xx_family_is_registered_and_class_level(self):
        for code in ("RB201", "RB202", "RB203", "RB204"):
            assert code in RULE_REGISTRY
            assert RULE_REGISTRY[code].class_level is True


class TestConcurrencyRulesOnRealTree:
    """The threaded services, as fixed/seamed today, run clean."""

    SERVICES = [
        "src/repro/core/fleet.py",
        "src/repro/core/remote.py",
        "src/repro/core/service.py",
        "src/repro/core/storenet.py",
        "src/repro/core/store.py",
    ]

    @pytest.mark.parametrize("module", SERVICES)
    def test_service_module_is_clean(self, repo_root, module):
        analyzer = Analyzer(rules=["RB201", "RB202", "RB203", "RB204"])
        source = ModuleSource.load(repo_root / module, module)
        findings = analyzer.analyze_modules([source])
        # Isolated-family runs make other rules' pragmas look unused;
        # only RB2xx findings matter here.
        assert [f for f in findings if f.code.startswith("RB2")] == []

    def test_handlers_are_guarded_in_fleet_stop(self, repo_root):
        # The bug this family exists to catch: reintroducing the
        # unguarded `_handlers` mutation in stop() must fire RB201. The
        # fleet coordinator's stop() is the service skeleton's.
        path = repo_root / "src/repro/core/service.py"
        text = path.read_text()
        broken = text.replace(
            "        with self._lock:\n            self._handlers.clear()",
            "        self._handlers.clear()",
        )
        assert broken != text  # the guarded form exists to be broken
        module = ModuleSource.from_text(broken, relpath="src/repro/core/service.py")
        findings = Analyzer(rules=["RB201"]).analyze_modules([module])
        assert any(
            f.code == "RB201" and "_handlers" in f.message for f in findings
        )

    def test_wire_stats_counters_are_guarded(self, repo_root):
        # WireStats is driven by the remote mapper's driver threads, a role
        # only the central thread-role table declares: it must follow the
        # class to the module that defines it.
        path = repo_root / "src/repro/core/service.py"
        text = path.read_text()
        broken = text.replace(
            "        with self._lock:\n"
            "            self.bytes_sent += size\n"
            "            self.frames_sent += 1",
            "        self.bytes_sent += size\n        self.frames_sent += 1",
        )
        assert broken != text
        module = ModuleSource.from_text(broken, relpath="src/repro/core/service.py")
        findings = Analyzer(rules=["RB201"]).analyze_modules([module])
        assert any(
            f.code == "RB201" and "WireStats.bytes_sent" in f.message for f in findings
        )
