"""Deterministic random-number streams.

Reproducibility is a first-class requirement: the paper's figures come with
error bars and CDFs over hundreds of repetitions, and our reproduction must
regenerate them bit-identically for a given seed while keeping the variance
realistic.

The design follows the standard "seed tree" pattern: a root
:class:`RngStream` is created from the experiment seed, and every component
derives an *independent* child stream from a stable string path such as
``"fig13/docker/run-42"``. Children are derived by hashing, so adding a new
consumer never perturbs the draws seen by existing consumers — figures stay
stable as the library grows.

Two properties keep stream creation off the hot path without changing a
single draw:

* **Lazy generators** — deriving a stream only hashes its path; the
  backing :class:`numpy.random.Generator` is built on first draw. Interior
  seed-tree nodes (a platform's stream that only exists to derive per-rep
  children, a repetition's stream that only derives per-phase children)
  never pay for a generator at all.
* **Vectorized seeding** — ``PCG64(seed)`` spends ~90 % of its time in
  :class:`numpy.random.SeedSequence`'s entropy-mixing hash. That hash is
  pure 32-bit integer arithmetic, so :func:`materialize_streams` replays
  it *vectorized across every stream of a batch* (one numpy pass instead
  of one Cython SeedSequence per stream) and hands each stream its
  precomputed PCG64 seed state. Bit-identity is enforced by
  construction-time tests comparing against ``SeedSequence`` itself and
  by the figure golden values.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RngStream",
    "derive_seed",
    "derive_seeds",
    "materialize_streams",
]

_MASK64 = (1 << 64) - 1


def _mean_one_mu(sigma: float) -> float:
    """The log-space mean that gives ``exp(N(mu, sigma))`` a mean of 1."""
    return -0.5 * sigma * sigma


def derive_seed(seed: int, path: str) -> int:
    """Derive a stable 64-bit child seed from ``seed`` and a string path."""
    digest = hashlib.blake2b(
        path.encode("utf-8"), digest_size=8, key=int(seed & _MASK64).to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


def derive_seeds(seed: int, paths: Sequence[str]) -> list[int]:
    """Batch :func:`derive_seed`: one child seed per path, in order.

    The keyed hash state is initialized once and copied per path, which
    skips blake2b's per-call key-block setup — same digests, less work
    when a grid derives hundreds of sibling streams.
    """
    template = hashlib.blake2b(
        digest_size=8, key=int(seed & _MASK64).to_bytes(8, "little")
    )
    seeds = []
    for path in paths:
        hasher = template.copy()
        hasher.update(path.encode("utf-8"))
        seeds.append(int.from_bytes(hasher.digest(), "little"))
    return seeds


# --- vectorized SeedSequence --------------------------------------------------------
#
# numpy seeds PCG64 by pumping the integer seed through SeedSequence's
# entropy-mixing hash (O'Neill's seed_seq_fe alike) and taking 4 uint64
# output words. The hash is plain wrapping uint32 arithmetic, replayed
# here elementwise over an *array* of seeds: one vectorized pass computes
# the seed state for a whole grid of streams. tests/test_units_rng_errors.py
# pins word-for-word equality against numpy's own SeedSequence.

_XSHIFT = np.uint32(16)
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)

#: Below this many streams the fixed numpy dispatch overhead of the
#: vectorized pass outweighs the per-seed saving; the lazy scalar path
#: (plain ``PCG64(seed)`` on first draw) wins.
MATERIALIZE_THRESHOLD = 16


def _bulk_state_words(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, uint64)`` for many seeds at once.

    Returns an ``(n, 4)`` uint64 array; row *i* equals numpy's output for
    ``seeds[i]``. A 64-bit seed coerces to one entropy word when it fits
    in 32 bits and two words otherwise; seed 0 coerces to *zero* words —
    all three cases collapse onto the same masked computation because the
    pool is padded with ``hashmix(0)`` exactly where entropy words are
    absent, and the absent words are zero.
    """
    seed_array = np.asarray([int(s) & _MASK64 for s in seeds], dtype=np.uint64)
    n = len(seed_array)
    low = (seed_array & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    high = (seed_array >> np.uint64(32)).astype(np.uint32)
    pool = np.zeros((n, 4), dtype=np.uint32)
    with np.errstate(over="ignore"):

        def hashmix(value: np.ndarray, hash_const: np.ndarray):
            value = value ^ hash_const
            hash_const = hash_const * _MULT_A
            value = value * hash_const
            value ^= value >> _XSHIFT
            return value, hash_const

        def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            result = x * _MIX_MULT_L - y * _MIX_MULT_R
            result ^= result >> _XSHIFT
            return result

        hash_const = np.full(n, _INIT_A, dtype=np.uint32)
        zero = np.zeros(n, dtype=np.uint32)
        pool[:, 0], hash_const = hashmix(low, hash_const)
        pool[:, 1], hash_const = hashmix(high, hash_const)
        pool[:, 2], hash_const = hashmix(zero, hash_const)
        pool[:, 3], hash_const = hashmix(zero, hash_const)
        for i_src in range(4):
            for i_dst in range(4):
                if i_src != i_dst:
                    mixed, hash_const = hashmix(pool[:, i_src], hash_const)
                    pool[:, i_dst] = mix(pool[:, i_dst], mixed)
        hash_const = np.full(n, _INIT_B, dtype=np.uint32)
        words = np.zeros((n, 8), dtype=np.uint32)
        for i_dst in range(8):
            data = pool[:, i_dst % 4] ^ hash_const
            hash_const = hash_const * _MULT_B
            data = data * hash_const
            data ^= data >> _XSHIFT
            words[:, i_dst] = data
    return words.view(np.uint64)


try:  # numpy >= 1.17; gate defensively so a missing seam degrades to lazy
    from numpy.random.bit_generator import ISeedSequence as _ISeedSequence
except ImportError:  # pragma: no cover - exercised only on exotic numpy builds
    _ISeedSequence = None


class _PrecomputedSeedSequence:
    """A stand-in SeedSequence carrying pre-generated state words.

    ``PCG64(seed_sequence)`` only ever calls ``generate_state(4, uint64)``
    on it; handing back the words computed by :func:`_bulk_state_words`
    skips the per-stream Cython SeedSequence entirely while producing the
    identical bit-generator state.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.dtype(np.uint64):
            raise ValueError(
                "precomputed seed state only covers PCG64's (4, uint64) request"
            )
        return np.asarray(self._words, dtype=np.uint64)


if _ISeedSequence is not None:
    _ISeedSequence.register(_PrecomputedSeedSequence)


def materialize_streams(streams: Sequence["RngStream"]) -> None:
    """Precompute the PCG64 seed state for a batch of streams, vectorized.

    Call this on streams that *will all be drawn from* (a lowered grid's
    cell streams, a workload's inner sample streams): each stream's first
    draw then builds its generator from the precomputed words instead of
    paying the full per-stream SeedSequence hash. Streams whose generator
    already exists are left untouched. Below :data:`MATERIALIZE_THRESHOLD`
    streams (or when the fast seam is unavailable) this is a no-op and the
    lazy scalar path applies — draws are bit-identical either way.
    """
    pending = [
        s for s in streams if s._generator is None and s._state_words is None
    ]
    if _ISeedSequence is None or len(pending) < MATERIALIZE_THRESHOLD:
        return
    words = _bulk_state_words([s.seed for s in pending])
    for index, stream in enumerate(pending):
        stream._state_words = words[index]


class RngStream:
    """A named, hierarchical deterministic random stream.

    Wraps :class:`numpy.random.Generator` and adds:

    * ``child(name)`` — derive an independent stream for a sub-component;
    * convenience distributions used by the performance models
      (log-normal service times, bounded Gaussian noise).

    The generator is created lazily on first draw (derivation-only interior
    nodes of the seed tree never build one), either from the plain seed or
    from state words precomputed by :func:`materialize_streams` — the
    resulting draw sequence is identical in every case.
    """

    __slots__ = ("seed", "path", "_generator", "_state_words")

    def __init__(self, seed: int, path: str = "root") -> None:
        self.seed = int(seed) & _MASK64
        self.path = path
        self._generator: np.random.Generator | None = None
        self._state_words: np.ndarray | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(path={self.path!r}, seed={self.seed:#x})"

    def __getstate__(self) -> dict:
        # __slots__ classes have no __dict__; ship the slots explicitly.
        # A constructed generator travels with its exact draw position, so
        # a pickled mid-use stream resumes identically on the other side.
        return {
            "seed": self.seed,
            "path": self.path,
            "_generator": self._generator,
            "_state_words": self._state_words,
        }

    def __setstate__(self, state: dict) -> None:
        self.seed = state["seed"]
        self.path = state["path"]
        self._generator = state["_generator"]
        self._state_words = state["_state_words"]

    # --- stream derivation -------------------------------------------------

    def child(self, name: str) -> "RngStream":
        """Return an independent child stream identified by ``name``."""
        child_path = f"{self.path}/{name}"
        return RngStream(derive_seed(self.seed, child_path), child_path)

    def children(self, names: Iterable[str]) -> list["RngStream"]:
        """Derive one child stream per name, in order (batched hashing)."""
        names = list(names)
        paths = [f"{self.path}/{name}" for name in names]
        return [
            RngStream(seed, path)
            for seed, path in zip(derive_seeds(self.seed, paths), paths)
        ]

    # --- raw draws ----------------------------------------------------------

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (built on first use)."""
        if self._generator is None:
            if self._state_words is not None:
                bit_generator = np.random.PCG64(
                    _PrecomputedSeedSequence(self._state_words)
                )
            else:
                bit_generator = np.random.PCG64(self.seed)
            self._generator = np.random.Generator(bit_generator)
        return self._generator

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform draw in ``[low, high)``."""
        if low == 0.0 and high == 1.0:
            # numpy's uniform is ``low + (high - low) * next_double``, which
            # on [0, 1) is next_double itself: the same bits without the
            # argument broadcasting that dominates the call.
            return self.generator.random()
        return float(self.generator.uniform(low, high))

    # --- modelling distributions --------------------------------------------

    def gaussian_factor(self, relative_std: float, *, clip: float = 4.0) -> float:
        """A multiplicative noise factor ``~ N(1, relative_std)``.

        The draw is clipped to ``1 +/- clip * relative_std`` and floored at a
        small positive value so downstream durations stay physical.
        """
        if relative_std <= 0.0:
            return 1.0
        draw = self.generator.normal(1.0, relative_std)
        lower = max(1e-3, 1.0 - clip * relative_std)
        upper = 1.0 + clip * relative_std
        return float(min(max(draw, lower), upper))

    def gaussian_factors(
        self, relative_std: float, count: int, *, clip: float = 4.0
    ) -> list[float]:
        """``count`` draws of :meth:`gaussian_factor`, taken as one block.

        numpy fills ``normal(loc, scale, size=n)`` element by element with
        the same draw a scalar ``normal(loc, scale)`` returns, so the block
        equals ``count`` per-draw calls float for float and leaves the
        generator in the same state; each element is clipped as the scalar
        path clips.
        """
        if relative_std <= 0.0:
            return [1.0] * count
        draws = self.generator.normal(1.0, relative_std, size=count)
        lower = max(1e-3, 1.0 - clip * relative_std)
        upper = 1.0 + clip * relative_std
        return np.clip(draws, lower, upper).tolist()

    def lognormal_factor(self, sigma: float) -> float:
        """A multiplicative factor from a mean-1 log-normal distribution.

        Log-normal multiplicative noise is the standard model for service
        times in systems measurement: strictly positive and right-skewed
        (occasional slow runs), matching the long upper tails visible in the
        paper's startup-time CDFs.
        """
        if sigma <= 0.0:
            return 1.0
        return float(self.generator.lognormal(_mean_one_mu(sigma), sigma))

    def pareto_tail(self, probability: float, scale: float, alpha: float = 2.5) -> float:
        """Occasionally return a heavy-tail additive delay, else 0.

        Models rare hiccups (host scheduling, cache-drop interference) that
        produce the outlier dots in the paper's figures.
        """
        if probability <= 0.0 or self.uniform() >= probability:
            return 0.0
        return float(scale * (1.0 + self.generator.pareto(alpha)))
