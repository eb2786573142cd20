"""Tests for the persistent content-addressed result store."""

import builtins
import io
import json
import os
import pickle

import pytest

from repro.core.figures import FIGURES
from repro.core.results import FigureResult, ResultRow, SeriesRow
from repro.core.scheduler import ExperimentScheduler
from repro.core.stats import summarize
from repro.core.store import MEMO_ENTRIES, ResultStore, StoreKey, canonical_overrides
from repro.errors import ConfigurationError


def sample_result() -> FigureResult:
    result = FigureResult(figure_id="figX", title="sample", unit="ms", x_label="n")
    result.rows.append(ResultRow("native", "Native", summarize([1.0, 2.0, 3.0]), "ms"))
    result.rows.append(
        ResultRow("qemu", "QEMU", summarize([4.0, 5.0]), "ms", extra={"write_mean": 7.5})
    )
    result.series.append(
        SeriesRow("native", "Native", (1.0, 2.0), (10.0, 20.0), (0.1, 0.2), unit="ms")
    )
    result.notes.append("a note")
    result.metadata["provenance"] = {"backend": "serial", "cache": "miss"}
    return result


class TestStoreKey:
    def test_digest_stable_across_processes(self):
        key = StoreKey.for_run("fig11", 42, True, {"repetitions": 3})
        again = StoreKey.for_run("fig11", 42, True, {"repetitions": 3})
        assert key.digest == again.digest

    def test_digest_changes_with_each_component(self):
        base = StoreKey.for_run("fig11", 42, False, None)
        assert StoreKey.for_run("fig12", 42, False, None).digest != base.digest
        assert StoreKey.for_run("fig11", 43, False, None).digest != base.digest
        assert StoreKey.for_run("fig11", 42, False, {"repetitions": 2}).digest != base.digest

    def test_quick_flag_alone_does_not_fragment(self):
        # The output is fully determined by (figure_id, seed, effective
        # kwargs); quick is provenance, so identical kwargs share an entry.
        a = StoreKey.for_run("fig11", 42, False, {"repetitions": 3})
        b = StoreKey.for_run("fig11", 42, True, {"repetitions": 3})
        assert a.digest == b.digest

    def test_override_order_is_canonical(self):
        a = StoreKey.for_run("fig11", 1, False, {"a": 1, "b": [2, 3]})
        b = StoreKey.for_run("fig11", 1, False, {"b": [2, 3], "a": 1})
        assert a.digest == b.digest

    def test_canonical_overrides_handles_collections(self):
        text = canonical_overrides({"platforms": ["qemu", "native"], "flag": True})
        assert json.loads(text) == {"platforms": ["qemu", "native"], "flag": True}

    def test_canonical_overrides_rejects_unstable_values(self):
        class Opaque:
            pass

        with pytest.raises(ConfigurationError, match="canonicalize"):
            canonical_overrides({"thing": Opaque()})

    def test_canonical_overrides_rejects_value_attr_lookalikes(self):
        # Only real enums canonicalize via .value; arbitrary objects that
        # happen to carry one must not silently collide onto a key.
        class HasValue:
            value = 3

        with pytest.raises(ConfigurationError, match="canonicalize"):
            canonical_overrides({"x": HasValue()})

    def test_canonical_overrides_accepts_real_enums(self):
        import enum

        class Mode(enum.Enum):
            FAST = "fast"

        assert json.loads(canonical_overrides({"mode": Mode.FAST})) == {"mode": "fast"}


class TestResultRoundTrip:
    def test_from_dict_inverts_to_dict(self):
        original = sample_result()
        rebuilt = FigureResult.from_dict(json.loads(original.to_json()))
        assert rebuilt.to_dict() == original.to_dict()
        assert rebuilt.rows[0].summary.mean == original.rows[0].summary.mean
        assert rebuilt.series[0].x_values == (1.0, 2.0)

    def test_comparable_dict_drops_provenance_only(self):
        result = sample_result()
        comparable = result.comparable_dict()
        assert "provenance" not in comparable["metadata"]
        assert result.provenance["backend"] == "serial"  # original untouched


class TestResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        key = StoreKey.for_run("figX", 42, False, None)
        assert store.get(key) is None
        store.put(key, sample_result())
        loaded = store.get(key)
        assert loaded is not None
        assert loaded.to_dict() == sample_result().to_dict()
        assert store.stats == {"hits": 1, "misses": 1, "evicted": 0}

    def test_seed_and_override_changes_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(StoreKey.for_run("figX", 42, False, None), sample_result())
        assert store.get(StoreKey.for_run("figX", 43, False, None)) is None
        assert store.get(StoreKey.for_run("figX", 42, False, {"repetitions": 9})) is None

    def test_store_path_colliding_with_file_rejected(self, tmp_path):
        clash = tmp_path / "afile"
        clash.write_text("occupied")
        with pytest.raises(ConfigurationError, match="not a directory"):
            ResultStore(clash)

    def test_corrupt_entry_is_a_miss(self, tmp_path, corrupt_entries):
        store = ResultStore(tmp_path)
        key = StoreKey.for_run("figX", 42, False, None)
        path = store.put(key, sample_result())
        for content in corrupt_entries:
            path.write_bytes(content)
            assert store.get(key) is None, content
        assert store.stats["misses"] == len(corrupt_entries)

    def test_usage_counts_every_entry_file(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.usage() == (0, 0)
        first = store.put(StoreKey.for_run("figX", 42, False, None), sample_result())
        second = store.put(
            StoreKey.for_run("figX", 42, False, {"repetitions": 2}), sample_result()
        )
        corrupt = tmp_path / "figX-corrupt.json"
        corrupt.write_text("{not json")
        (tmp_path / "figX-abc.tmp-999999999").write_text("{in-flight")
        # A corrupt entry counts (nothing is parsed); a temp file does not.
        sizes = [path.stat().st_size for path in (first, second, corrupt)]
        assert store.usage() == (3, sum(sizes))


class TestDecodeMemo:
    """``get`` decodes an entry file once and rebuilds re-reads from memory."""

    @staticmethod
    def key(n=42):
        return StoreKey.for_run("figX", n, False, None)

    @staticmethod
    def titled(title):
        result = sample_result()
        result.title = title
        return result

    def test_a_second_get_opens_no_file_and_returns_the_same_result(
        self, tmp_path, monkeypatch
    ):
        # A store filled by the seed-42 quick run, read by a fresh store.
        scheduler = ExperimentScheduler(seed=42, quick=True, store=ResultStore(tmp_path))
        scheduler.run().raise_for_errors()
        store = ResultStore(tmp_path)
        keys = {figure_id: scheduler.key_for(figure_id) for figure_id in FIGURES}
        first = {figure_id: store.get(key) for figure_id, key in keys.items()}
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(io, "open", counting_open)
            patch.setattr(builtins, "open", counting_open)
            again = {figure_id: store.get(key) for figure_id, key in keys.items()}
        assert opened == []
        for figure_id, result in again.items():
            assert result.comparable_dict() == first[figure_id].comparable_dict()
            # The server pickles this form onto the wire.
            assert pickle.dumps(result.to_dict()) == pickle.dumps(
                first[figure_id].to_dict()
            ), figure_id
        assert store.stats == {"hits": 2 * len(FIGURES), "misses": 0, "evicted": 0}

    def test_the_next_get_sees_a_put_over_the_key(self, tmp_path):
        store = ResultStore(tmp_path)
        size = store.put(self.key(), self.titled("before")).stat().st_size
        assert store.get(self.key()).title == "before"
        # Same-size rewrites, through this store and through another
        # writer on the directory: only the renamed file's inode differs.
        for writer, title in ((store, "second"), (ResultStore(tmp_path), "thirds")):
            assert writer.put(self.key(), self.titled(title)).stat().st_size == size
            assert store.get(self.key()).title == title

    def test_a_file_renamed_over_the_entry_is_checked_again(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(self.key(1), sample_result())
        other = store.put(self.key(2), sample_result())
        assert path.stat().st_size == other.stat().st_size
        assert store.get(self.key(1)) is not None
        other.replace(path)  # another key's valid entry
        assert store.get(self.key(1)) is None

    def test_a_rewrite_that_gets_the_old_inode_back_is_read_again(
        self, tmp_path, monkeypatch
    ):
        # A file system may give a freed inode to the next new file, so
        # two rewrites can leave the entry with the inode and size the
        # memo kept. Here every file under tmp_path reports one inode.
        real_stat = os.stat

        def one_inode(path, *args, **kwargs):
            stat = real_stat(path, *args, **kwargs)
            if not str(path).startswith(str(tmp_path)):
                return stat
            hidden = ("st_atime", "st_mtime", "st_ctime", "st_mtime_ns")
            fields = [stat.st_mode, 1, *stat[2:]]
            return os.stat_result(fields, {name: getattr(stat, name) for name in hidden})

        monkeypatch.setattr(os, "stat", one_inode)
        store = ResultStore(tmp_path)
        store.put(self.key(), self.titled("before"))
        assert store.get(self.key()).title == "before"
        store.put(self.key(), self.titled("second"))
        assert store.get(self.key()).title == "second"

    def test_a_deleted_entry_is_a_miss_and_leaves_the_memo(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(self.key(), sample_result())
        assert store.get(self.key()) is not None
        assert self.key().digest in store._memo
        path.unlink()
        assert store.get(self.key()) is None
        assert self.key().digest not in store._memo

    def test_a_corrupt_rewrite_of_another_size_is_a_miss(
        self, tmp_path, corrupt_entries
    ):
        store = ResultStore(tmp_path)
        path = store.put(self.key(), sample_result())
        assert store.get(self.key()) is not None
        for content in corrupt_entries:
            path.write_bytes(content)  # in place: the inode stays
            assert store.get(self.key()) is None, content
        assert self.key().digest not in store._memo

    def test_an_in_place_edit_of_the_same_size_is_not_seen(self, tmp_path):
        # The documented limit of the memo (docs/OPERATIONS.md).
        store = ResultStore(tmp_path)
        path = store.put(self.key(), self.titled("before"))
        assert store.get(self.key()).title == "before"
        path.write_text(path.read_text().replace('"before"', '"edited"'))
        assert store.get(self.key()).title == "before"
        assert ResultStore(tmp_path).get(self.key()).title == "edited"

    def test_counters_and_recency_advance_on_every_memo_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(self.key(), sample_result())
        assert store.get(self.key(1)) is None
        stamps = [path.stat().st_mtime_ns]
        for _ in range(4):
            assert store.get(self.key()) is not None
            stamps.append(path.stat().st_mtime_ns)
        assert store.stats == {"hits": 4, "misses": 1, "evicted": 0}
        assert stamps == sorted(set(stamps))  # strictly increasing

    def test_the_memo_keeps_its_bound_and_drops_the_least_recently_read(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        keys = [self.key(n) for n in range(MEMO_ENTRIES + 1)]
        for key in keys:
            store.put(key, sample_result())
        for key in keys[:-1]:
            assert store.get(key) is not None
        assert store.get(keys[0]) is not None  # keys[1] is now the coldest
        assert store.get(keys[-1]) is not None
        assert len(store._memo) == MEMO_ENTRIES
        assert keys[1].digest not in store._memo
        assert keys[0].digest in store._memo and keys[-1].digest in store._memo

    def test_new_provenance_on_a_memo_hit_leaves_the_next_get_unchanged(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        scheduler = ExperimentScheduler(seed=42, quick=True, store=store)
        key = scheduler.key_for("fig11")
        scheduler.run(["fig11"]).raise_for_errors()  # executes and puts
        stored = store.get(key).to_dict()  # decodes into the memo
        report = scheduler.run(["fig11"])  # a memo hit, given new provenance
        assert report.results["fig11"].provenance["cache"] == "hit-local"
        assert store.get(key).to_dict() == stored
        assert stored["metadata"]["provenance"]["cache"] == "miss"


class TestStaleTempSweep:
    """A crash between temp-write and rename must not leak files forever."""

    @staticmethod
    def orphan(tmp_path, pid=999_999_999, age_s=7200.0):
        # What put() leaves behind when the process dies mid-write: the
        # pid is fictitious, so the writer is certainly gone. Backdate
        # the mtime so the file is past the init sweep's age gate.
        import os
        import time

        path = tmp_path / f"figX-abcdef{pid}.tmp-{pid}"
        path.write_text("{half-written")
        if age_s:
            stamp = time.time() - age_s
            os.utime(path, (stamp, stamp))
        return path

    def test_init_sweeps_stale_temps(self, tmp_path):
        key = StoreKey.for_run("figX", 42, False, None)
        ResultStore(tmp_path).put(key, sample_result())
        orphan = self.orphan(tmp_path)
        reopened = ResultStore(tmp_path)
        assert not orphan.exists()
        # ... and real entries survive the sweep.
        assert reopened.get(key) is not None

    def test_init_sweep_spares_recent_foreign_temps(self, tmp_path):
        # A concurrent live process sharing the cache dir may be mid-put;
        # its fresh temp must survive another store's init sweep.
        in_flight = self.orphan(tmp_path, age_s=0)
        ResultStore(tmp_path)
        assert in_flight.exists()

    def test_sweep_spares_own_in_flight_temps(self, tmp_path):
        import os

        own = self.orphan(tmp_path, pid=os.getpid())
        other = self.orphan(tmp_path)
        ResultStore(tmp_path)
        # Past the age gate, yet this process's temp may be in flight.
        assert own.exists() and not other.exists()

    def test_put_still_atomic_after_sweep(self, tmp_path):
        self.orphan(tmp_path)
        store = ResultStore(tmp_path)
        key = StoreKey.for_run("figX", 42, False, None)
        path = store.put(key, sample_result())
        assert path.exists()
        assert store.get(key) is not None
        assert list(tmp_path.glob("*.tmp-*")) == []  # put renamed its temp away


class TestConcurrentWriters:
    """Two writers through one store must never share a temp path.

    Regression for the ``.tmp-<pid>``-only naming: two threads of one
    process (exactly what a :class:`~repro.core.storenet.StoreServer`
    does for concurrent clients) collided on the temp path and could
    rename an interleaved, corrupt entry.
    """

    def test_temp_names_are_unique_per_writer(self, tmp_path):
        import os
        import re
        import threading

        store = ResultStore(tmp_path)
        target = store.path_for(StoreKey.for_run("figX", 42, False, None))
        first = store._temp_path(target)
        second = store._temp_path(target)
        assert first != second  # the old naming returned the same path twice
        pattern = rf"\.tmp-{os.getpid()}-{threading.get_ident()}-\d+$"
        assert re.search(pattern, first.name)

    def test_temp_names_differ_across_threads(self, tmp_path):
        import threading

        store = ResultStore(tmp_path)
        target = store.path_for(StoreKey.for_run("figX", 42, False, None))
        names = []

        def record():
            names.append(store._temp_path(target))

        threads = [threading.Thread(target=record) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert len(set(names)) == 4

    def test_concurrent_same_key_puts_never_corrupt(self, tmp_path):
        import threading

        store = ResultStore(tmp_path)
        key = StoreKey.for_run("figX", 42, False, None)
        errors: list[Exception] = []
        barrier = threading.Barrier(4)

        def hammer():
            try:
                barrier.wait(timeout=5)
                for _ in range(20):
                    store.put(key, sample_result())
                    assert store.get(key) is not None  # never a torn entry
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert store.get(key) is not None
        assert list(tmp_path.glob("*.tmp-*")) == []  # every temp was renamed

    def test_sweep_recognizes_threaded_temp_names(self, tmp_path):
        import os

        # Every temp below is past the init sweep's age gate (mtime 0).
        # This process's new-style temp is spared (it may be an in-flight
        # put on another thread of this process)...
        own = tmp_path / f"figX-abc.tmp-{os.getpid()}-12345-0"
        own.write_text("{in-flight")
        os.utime(own, (0, 0))
        # ... while a foreign new-style temp is still swept.
        foreign = TestStaleTempSweep.orphan(tmp_path)
        foreign_threaded = tmp_path / "figX-abc.tmp-999999999-777-3"
        foreign_threaded.write_text("{half-written")
        os.utime(foreign_threaded, (0, 0))
        ResultStore(tmp_path)
        assert own.exists()
        assert not foreign.exists() and not foreign_threaded.exists()

    def test_pid_prefix_match_is_exact(self, tmp_path):
        import os

        # A pid that merely *starts with* this process's pid digits is
        # foreign: .tmp-<pid>0-... must not be mistaken for our own.
        lookalike = tmp_path / f"figX-abc.tmp-{os.getpid()}0-1-0"
        lookalike.write_text("{half-written")
        os.utime(lookalike, (0, 0))
        ResultStore(tmp_path)
        assert not lookalike.exists()


def _contend_on_store(root: str, worker_seed: int, budget: int) -> None:
    """Child-process body for the multi-process contention test.

    Interleaves put/get/eviction (``max_bytes`` forces ``_evict`` on
    every write) with the other workers on one shared cache directory.
    Note ``_evict(protect=...)`` only protects *this* process's newest
    entry — a concurrent process may evict it, which must read as a
    clean miss, never an error.
    """
    store = ResultStore(root, max_bytes=budget)
    for index in range(15):
        key = StoreKey.for_run("figX", (worker_seed + index) % 6, False, None)
        store.put(key, sample_result())
        loaded = store.get(key)  # valid entry or clean miss (evicted)
        assert loaded is None or loaded.figure_id == "figX"
        store.get(StoreKey.for_run("figX", index % 6, False, None))


class TestMultiProcessContention:
    """Concurrent put/get/_evict from several processes on one cache dir."""

    def test_contending_processes_leave_a_consistent_store(self, tmp_path):
        import json as json_module
        import multiprocessing

        # One entry's size, to pick an eviction budget that keeps every
        # writer evicting while the others read.
        probe = ResultStore(tmp_path / "probe")
        size = probe.put(
            StoreKey.for_run("figX", 0, False, None), sample_result()
        ).stat().st_size
        root = tmp_path / "shared"
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(
                target=_contend_on_store, args=(str(root), seed, 3 * size)
            )
            for seed in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert all(worker.exitcode == 0 for worker in workers)
        # Whatever survived the eviction crossfire is complete and valid,
        # and a fresh store on the directory reads every survivor cleanly.
        survivors = list(root.glob("*.json"))
        assert survivors  # each process's own newest entry was protected
        assert list(root.glob("*.tmp-*")) == []
        fresh = ResultStore(root)
        for path in survivors:
            entry = json_module.loads(path.read_text())["key"]
            assert entry["figure_id"] == "figX"
            key = StoreKey.for_run(
                entry["figure_id"], entry["seed"], entry["quick"], entry["overrides"]
            )
            assert fresh.get(key) is not None


class TestEviction:
    """Size-bounded LRU eviction: least-recently-read entries go first."""

    @staticmethod
    def key(n):
        return StoreKey.for_run("figX", n, False, None)

    @staticmethod
    def entry_size(tmp_path):
        """The on-disk size of one entry in this store's format."""
        probe = ResultStore(tmp_path / "probe")
        path = probe.put(StoreKey.for_run("figX", 0, False, None), sample_result())
        return path.stat().st_size

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="max_bytes"):
            ResultStore(tmp_path, max_bytes=0)

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = ResultStore(tmp_path)
        for n in range(10):
            store.put(self.key(n), sample_result())
        assert len(list(tmp_path.glob("*.json"))) == 10
        assert store.stats["evicted"] == 0

    def test_writes_keep_store_under_budget(self, tmp_path):
        size = self.entry_size(tmp_path)
        store = ResultStore(tmp_path, max_bytes=3 * size)
        for n in range(8):
            store.put(self.key(n), sample_result())
            assert store.usage()[1] <= store.max_bytes
        assert store.stats["evicted"] == 5
        # The survivors are the most recently written entries.
        assert store.get(self.key(7)) is not None
        assert store.get(self.key(0)) is None

    def test_least_recently_read_goes_first(self, tmp_path):
        import os
        import time

        size = self.entry_size(tmp_path)
        store = ResultStore(tmp_path, max_bytes=2 * size + size // 2)
        store.put(self.key(0), sample_result())
        store.put(self.key(1), sample_result())
        # Back-date both, then read key 0: it becomes the hot entry even
        # though it was written first.
        for n in (0, 1):
            path = store.path_for(self.key(n))
            os.utime(path, (time.time() - 100, time.time() - 100))
        assert store.get(self.key(0)) is not None
        store.put(self.key(2), sample_result())
        assert store.get(self.key(0)) is not None  # recently read: kept
        assert store.path_for(self.key(1)).exists() is False  # LRU: evicted

    def test_just_written_entry_survives_tiny_budget(self, tmp_path):
        # A budget smaller than one entry still retains the newest result.
        store = ResultStore(tmp_path, max_bytes=1)
        store.put(self.key(0), sample_result())
        assert store.get(self.key(0)) is not None
        store.put(self.key(1), sample_result())
        assert store.get(self.key(1)) is not None
        assert store.path_for(self.key(0)).exists() is False


class TestMonotonicRecency:
    """Recency stamps never run backwards, whatever the wall clock does.

    Eviction sorts entries by mtime, so a wall-clock step between two
    accesses (NTP correction, VM suspend/resume) could invert their
    apparent recency and evict the *hot* entry. The store's logical
    clock only ever advances.
    """

    @staticmethod
    def key(n):
        return StoreKey.for_run("figX", n, False, None)

    def test_stamps_increase_under_backwards_clock(self, tmp_path, monkeypatch):
        from repro.core import store as store_module

        store = ResultStore(tmp_path)
        start = store._recency_clock
        # A wall clock stepping steadily *backwards* from init time.
        ticks = iter(start - 1.0 * n for n in range(1, 100))
        monkeypatch.setattr(store_module.time, "time", lambda: next(ticks))
        stamps = [store._next_recency_stamp() for _ in range(20)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)  # strictly increasing
        assert all(stamp > start for stamp in stamps)

    def test_stamps_track_forward_clock(self, tmp_path, monkeypatch):
        from repro.core import store as store_module

        store = ResultStore(tmp_path)
        future = store._recency_clock + 1000.0
        monkeypatch.setattr(store_module.time, "time", lambda: future)
        assert store._next_recency_stamp() == future

    def test_eviction_follows_access_order_under_backwards_clock(
        self, tmp_path, monkeypatch
    ):
        from repro.core import store as store_module

        probe = ResultStore(tmp_path / "probe")
        size = probe.put(self.key(0), sample_result()).stat().st_size

        store = ResultStore(tmp_path / "cache", max_bytes=2 * size + size // 2)
        start = store._recency_clock
        ticks = iter(start - 1.0 * n for n in range(1, 100))
        monkeypatch.setattr(store_module.time, "time", lambda: next(ticks))

        store.put(self.key(0), sample_result())
        store.put(self.key(1), sample_result())
        # Read 0 last: with raw wall-clock stamps this touch would sort
        # *before* both writes and 0 would be evicted as coldest.
        assert store.get(self.key(0)) is not None
        store.put(self.key(2), sample_result())
        assert store.path_for(self.key(0)).exists()  # recently read: kept
        assert not store.path_for(self.key(1)).exists()  # true LRU: evicted

    def test_fresh_store_sorts_after_existing_entries(self, tmp_path):
        import os

        seeded = ResultStore(tmp_path)
        path = seeded.put(self.key(0), sample_result())
        # An entry stamped by another host whose clock runs ahead.
        future = path.stat().st_mtime + 500.0
        os.utime(path, (future, future))
        fresh = ResultStore(tmp_path)
        assert fresh._next_recency_stamp() > future
