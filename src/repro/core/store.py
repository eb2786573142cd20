"""Persistent, content-addressed result store.

Every figure execution is identified by a :class:`StoreKey` — the exact
inputs that determine its output: ``(figure_id, seed, quick, overrides)``.
The key canonicalizes to JSON and hashes to a short digest, so any change
to the seed, the quick flag, or any override (including platform lists)
produces a different address and naturally invalidates stale entries.

:class:`ResultStore` maps keys to :class:`~repro.core.results.FigureResult`
JSON files under a cache directory. The store is the read-through layer in
front of the :class:`~repro.core.scheduler.ExperimentScheduler`: a warm
cache means a rerun performs *zero* workload executions.

Entries are self-describing — each file records the full key alongside the
result payload, so a cache directory doubles as a provenance archive.

The store can be size-bounded: ``ResultStore(root, max_bytes=N)`` evicts
least-recently-read entries after each write until the directory fits the
budget (reads refresh an entry's recency by touching its mtime). This is
the first "store tiers" step — a bounded local tier that a shared remote
tier can later sit behind.

Recency stamps come from a per-store *monotonic* logical clock (seeded
from the newest existing entry and the wall clock, advanced by at least a
microsecond per touch): a wall-clock step backwards — NTP correction, VM
resume — can therefore never make a fresh read look older than a stale
one and reorder eviction.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator

from repro.core.results import FigureResult
from repro.errors import ConfigurationError

__all__ = ["StoreKey", "ResultStore", "canonical_overrides"]

_SCHEMA_VERSION = 1


def canonical_overrides(overrides: dict[str, Any] | None) -> str:
    """Deterministic JSON text for an override mapping.

    Keys are sorted; sets, tuples, and enum-like objects canonicalize to
    stable JSON. Values with no stable representation are rejected rather
    than silently hashed via ``repr`` (which would embed memory addresses
    and make digests differ across processes).
    """

    def _default(value: Any) -> Any:
        if isinstance(value, (set, frozenset)):
            return sorted(value)
        if isinstance(value, enum.Enum):
            return value.value
        raise TypeError(f"unstable override value of type {type(value).__name__}")

    try:
        return json.dumps(
            dict(overrides or {}), sort_keys=True, separators=(",", ":"), default=_default
        )
    except TypeError as exc:
        raise ConfigurationError(
            f"override values must canonicalize to JSON for cache keying: {exc}"
        ) from None


@dataclass(frozen=True)
class StoreKey:
    """The complete identity of one figure execution.

    ``overrides`` must be the *effective* kwargs the figure function runs
    with (quick-mode defaults already merged in — see
    :meth:`ExperimentScheduler.key_for`). A figure's output is fully
    determined by ``(figure_id, seed, effective kwargs)``, so only those
    enter the digest; ``quick`` is recorded for provenance but does not
    fragment the address space — a quick run and an explicit
    ``startups=60`` run share one cache entry.
    """

    figure_id: str
    seed: int
    quick: bool
    overrides_json: str = "{}"

    @classmethod
    def for_run(
        cls,
        figure_id: str,
        seed: int,
        quick: bool,
        overrides: dict[str, Any] | None = None,
    ) -> "StoreKey":
        """Build a key from run parameters (``overrides`` = effective kwargs)."""
        return cls(
            figure_id=figure_id,
            seed=int(seed),
            quick=bool(quick),
            overrides_json=canonical_overrides(overrides),
        )

    @property
    def overrides(self) -> dict[str, Any]:
        """The override mapping this key encodes."""
        return json.loads(self.overrides_json)

    @property
    def digest(self) -> str:
        """Short content digest addressing this execution."""
        payload = json.dumps(
            {
                "figure_id": self.figure_id,
                "seed": self.seed,
                "overrides": self.overrides_json,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.blake2b(payload.encode("utf-8"), digest_size=10).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form, embedded in every store entry."""
        return {
            "figure_id": self.figure_id,
            "seed": self.seed,
            "quick": self.quick,
            "overrides": self.overrides,
            "digest": self.digest,
        }


class ResultStore:
    """On-disk cache of figure results, addressed by :class:`StoreKey`.

    ``get`` returns the cached :class:`~repro.core.results.FigureResult`
    or ``None`` (corrupt and stale-schema entries behave like misses);
    ``put`` is an atomic write safe under concurrent writers. The root
    directory is created on construction, so a path that cannot be one
    fails there, before anything runs. With ``max_bytes`` set, writes
    evict least-recently-*read* entries until the directory fits. This
    is the local tier; a fleet composes it with
    a :class:`~repro.core.storenet.RemoteStore` via
    :class:`~repro.core.storenet.TieredStore` (cache semantics and the
    provenance labels are documented in ``docs/OPERATIONS.md``).
    """

    #: Init-time sweep ignores temps younger than this: a put() holds its
    #: temp for milliseconds, so anything older is an orphan, while an
    #: age gate keeps a concurrent process's in-flight write safe.
    STALE_TEMP_AGE_S = 3600.0

    def __init__(
        self, root: str | pathlib.Path, *, max_bytes: int | None = None
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ConfigurationError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = pathlib.Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise ConfigurationError(
                f"result store path {self.root} exists and is not a directory"
            ) from None
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create result store directory {self.root}: {exc.strerror}"
            ) from None
        self.max_bytes = max_bytes
        # A store behind a StoreServer is read/written from every handler
        # thread at once; unguarded += on the counters loses increments.
        self._stats_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evicted = 0
        self._temp_counter = itertools.count()
        # A process that died between temp-write and rename leaves a
        # *.tmp-* file behind forever; adopt-and-sweep on open.
        self._sweep_stale_temps()
        # LRU recency bookkeeping must never run backwards: eviction
        # sorts entries by mtime, so a wall-clock adjustment between two
        # reads would invert their apparent recency. The logical clock
        # starts at the newest stamp already on disk (so this process's
        # touches always sort after prior runs') and only ever advances.
        self._recency_lock = threading.Lock()
        self._recency_clock = self._newest_entry_stamp()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore(root={str(self.root)!r})"

    # --- addressing ---------------------------------------------------------------

    def path_for(self, key: StoreKey) -> pathlib.Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.root / f"{key.figure_id}-{key.digest}.json"

    def _temp_path(self, path: pathlib.Path) -> pathlib.Path:
        """A temp name unique to this writer (process, thread, and call).

        A pid alone is not enough: two threads of one process writing
        through a shared store (a :class:`~repro.core.storenet.StoreServer`
        serving concurrent clients) would collide on the temp path and
        could rename an interleaved, corrupt entry. The thread id and a
        per-store monotonic counter make every in-flight write its own
        file; :meth:`_sweep_stale_temps` recognizes the ``.tmp-<pid>``
        prefix either way.
        """
        return path.with_suffix(
            f".tmp-{os.getpid()}-{threading.get_ident()}-{next(self._temp_counter)}"
        )

    def describe(self) -> str:
        """One-line location description (suite/CLI display)."""
        return str(self.root)

    # --- recency clock --------------------------------------------------------------

    def _newest_entry_stamp(self) -> float:
        """The largest recency stamp on disk (or the current wall time)."""
        newest = 0.0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    newest = max(newest, path.stat().st_mtime)
                except OSError:
                    continue  # raced with a concurrent removal
        return max(newest, time.time())

    def _next_recency_stamp(self) -> float:
        """A strictly increasing mtime stamp for LRU bookkeeping.

        Tracks the wall clock while it moves forward (stamps stay
        meaningful to humans and to other processes sharing the
        directory) but never follows it backwards — under clock
        adjustment the stamp advances by a microsecond instead, so
        eviction order keeps matching access order.
        """
        now = time.time()
        with self._recency_lock:
            self._recency_clock = max(self._recency_clock + 1e-6, now)
            return self._recency_clock

    # --- read/write ---------------------------------------------------------------

    def get(self, key: StoreKey) -> FigureResult | None:
        """Load a cached result, or None on miss (or unreadable entry)."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            with self._stats_lock:
                self._misses += 1
            return None
        try:
            if payload.get("schema") != _SCHEMA_VERSION:
                raise ConfigurationError("schema mismatch")
            stored_key = payload["key"]
            if stored_key.get("digest") != key.digest:
                raise ConfigurationError("digest mismatch")
            result = FigureResult.from_dict(payload["result"])
        except (ConfigurationError, KeyError, TypeError, ValueError):
            # A corrupt or stale-schema entry behaves like a miss.
            with self._stats_lock:
                self._misses += 1
            return None
        with self._stats_lock:
            self._hits += 1
        try:
            # LRU recency marker: a read refreshes the entry's mtime, so
            # eviction (least-recently-*read*) spares hot entries. The
            # stamp comes from the monotonic logical clock, not the raw
            # wall clock, so recency order always matches access order.
            stamp = self._next_recency_stamp()
            os.utime(path, (stamp, stamp))
        except OSError:
            pass  # raced with a concurrent eviction: still a valid hit
        return result

    def put(self, key: StoreKey, result: FigureResult) -> pathlib.Path:
        """Persist a result under its key (atomic rename)."""
        path = self.path_for(key)
        payload = {
            "schema": _SCHEMA_VERSION,
            "key": key.to_dict(),
            "result": result.to_dict(),
        }
        temp = self._temp_path(path)
        temp.write_text(json.dumps(payload, indent=2))
        temp.replace(path)
        try:
            # Writes enter the same monotonic recency order as reads; the
            # rename alone would stamp raw wall time, which may sort
            # *before* entries this store already touched.
            stamp = self._next_recency_stamp()
            os.utime(path, (stamp, stamp))
        except OSError:
            pass  # raced with a concurrent eviction
        if self.max_bytes is not None:
            self._evict(protect=path)
        return path

    # --- maintenance ---------------------------------------------------------------

    def entries(self) -> Iterator[dict[str, Any]]:
        """Iterate over the stored keys (as dicts) for inspection."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
                yield payload["key"]
            except (OSError, json.JSONDecodeError, KeyError):
                continue

    def total_bytes(self) -> int:
        """Current size of all entries (temp files excluded)."""
        if not self.root.is_dir():
            return 0
        total = 0
        for path in self.root.glob("*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                continue  # raced with a concurrent removal
        return total

    def _evict(self, protect: pathlib.Path) -> int:
        """Drop least-recently-read entries until the store fits its budget.

        Runs after every write when ``max_bytes`` is set. Recency is the
        entry's mtime (refreshed by :meth:`get` on hit, set by the write
        itself). The just-written entry is never evicted — the store
        always retains at least the newest result, even when it alone
        exceeds the budget.
        """
        entries: list[tuple[float, int, pathlib.Path]] = []
        total = 0
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a concurrent removal
            total += stat.st_size
            if path != protect:
                entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest read/write first
        evicted = 0
        for mtime, size, path in entries:
            if total <= self.max_bytes:
                break
            path.unlink(missing_ok=True)
            total -= size
            evicted += 1
        with self._stats_lock:
            self._evicted += evicted
        return evicted

    def _sweep_stale_temps(self) -> None:
        """Remove orphaned temp files from interrupted writes.

        Temps written by *this* process (``.tmp-<pid>`` from older
        writers, ``.tmp-<pid>-<thread>-<n>`` from :meth:`_temp_path`) are
        always spared — they may be an in-flight :meth:`put` on another
        thread. Other processes' temps are only removed once older than
        :attr:`STALE_TEMP_AGE_S`, so a concurrently *live* writer sharing
        the cache directory never loses its in-flight file.
        """
        own_prefix = f".tmp-{os.getpid()}"
        now = time.time()
        for path in self.root.glob("*.tmp-*"):
            if path.suffix == own_prefix or path.suffix.startswith(own_prefix + "-"):
                continue
            try:
                if now - path.stat().st_mtime < self.STALE_TEMP_AGE_S:
                    continue
            except OSError:
                continue  # raced: the writer renamed or removed it
            path.unlink(missing_ok=True)

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters for this process (consistent snapshot)."""
        with self._stats_lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evicted": self._evicted,
            }
