"""Tests for chunked grid dispatch: geometry laws and dispatch-state laws.

The pure slab arithmetic (``repro.core.chunking``) is checked directly;
the order-preservation and exactly-once-delivery laws are checked
against the real :class:`~repro.core.remote._DispatchState` machine by
simulating adversarial completion orders and mid-chunk worker deaths
with hypothesis-chosen schedules — no sockets involved, so hundreds of
examples run in milliseconds. The live-socket versions of the same laws
are in ``test_remote.py``.
"""

from __future__ import annotations

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunking import (
    MAX_AUTO_CHUNK,
    auto_chunk_size,
    chunk_items,
    chunk_spans,
)
from repro.core.remote import RemoteDispatchError, _DispatchState
from repro.errors import ConfigurationError


def _double(value):
    return value * 2


#: A stand-in for the _WorkerConnection a requeue names in its error.
FAKE_CONNECTION = types.SimpleNamespace(address=("127.0.0.1", 7077))

WIDTHS = st.integers(min_value=0, max_value=120)
CHUNK_SIZES = st.integers(min_value=1, max_value=130)
JOBS = st.integers(min_value=1, max_value=16)


class TestChunkSpans:
    def test_exact_cover_with_short_tail(self):
        assert chunk_spans(10, 3) == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_chunk_wider_than_grid_is_one_slab(self):
        assert chunk_spans(4, 100) == [(0, 4)]

    def test_zero_width_yields_no_spans(self):
        assert chunk_spans(0, 5) == []

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            chunk_spans(-1, 3)
        with pytest.raises(ConfigurationError, match=">= 1"):
            chunk_spans(10, 0)

    def test_chunk_items_matches_spans(self):
        assert chunk_items(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]
        assert chunk_items([], 3) == []


class TestAutoHeuristic:
    def test_documented_values(self):
        # 36 cells over 2 slots: ceil(36 / (4 * 2)) = 5 cells per slab.
        assert auto_chunk_size(36, 2) == 5
        # A huge grid caps at MAX_AUTO_CHUNK regardless of parallelism.
        assert auto_chunk_size(100_000, 1) == MAX_AUTO_CHUNK
        # Narrow grids never round down to zero.
        assert auto_chunk_size(0, 4) == 1
        assert auto_chunk_size(3, 8) == 1

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            auto_chunk_size(-1, 2)
        with pytest.raises(ConfigurationError, match=">= 1"):
            auto_chunk_size(10, 0)


class TestGeometryProperties:
    """Hypothesis: the laws the bit-identity argument rests on."""

    @given(width=WIDTHS, chunk_size=CHUNK_SIZES)
    def test_spans_cover_range_exactly_in_order(self, width, chunk_size):
        spans = chunk_spans(width, chunk_size)
        flattened = [i for start, stop in spans for i in range(start, stop)]
        assert flattened == list(range(width))
        # Every span but the last is full; none exceeds chunk_size.
        assert all(stop - start == chunk_size for start, stop in spans[:-1])
        assert all(0 < stop - start <= chunk_size for start, stop in spans)

    @given(width=WIDTHS, chunk_size=CHUNK_SIZES)
    def test_chunk_items_flattens_back_to_items(self, width, chunk_size):
        items = list(range(width))
        chunks = chunk_items(items, chunk_size)
        assert [item for chunk in chunks for item in chunk] == items

    @given(width=WIDTHS, jobs=JOBS)
    def test_auto_heuristic_stays_in_bounds(self, width, jobs):
        size = auto_chunk_size(width, jobs)
        assert 1 <= size <= MAX_AUTO_CHUNK
        # About four slabs per slot, unless a slab would pass the cap.
        if size < MAX_AUTO_CHUNK:
            assert len(chunk_spans(width, size)) <= 4 * jobs


class TestDispatchStateProperties:
    """Hypothesis over (width x chunk size): the remote state machine.

    ``_DispatchState`` is what turns out-of-order, failure-prone chunk
    completion back into the serial result order; these drive it through
    adversarial schedules directly.
    """

    @settings(deadline=None)
    @given(width=WIDTHS, chunk_size=CHUNK_SIZES, data=st.data())
    def test_out_of_order_completion_preserves_serial_order(
        self, width, chunk_size, data
    ):
        items = list(range(width))
        state = _DispatchState(_double, chunk_items(items, chunk_size), retries=3)
        claimed = []
        while (seq := state.claim()) is not None:
            claimed.append(seq)
        # Complete the claimed chunks in an arbitrary (adversarial) order.
        for seq in data.draw(st.permutations(claimed)):
            state.complete(seq, [_double(item) for item in state.items[seq]])
        assert state.settled()
        flattened = [value for chunk in state.finish() for value in chunk]
        assert flattened == [_double(item) for item in items]

    @settings(deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=120),
        chunk_size=CHUNK_SIZES,
        data=st.data(),
    )
    def test_mid_chunk_death_delivers_each_cell_exactly_once(
        self, width, chunk_size, data
    ):
        items = list(range(width))
        chunks = chunk_items(items, chunk_size)
        state = _DispatchState(_double, chunks, retries=3)

        # A dying worker: it claimed some chunks, answered a subset, and
        # hung up with the rest in flight.
        in_flight = set()
        claimable = min(len(chunks), data.draw(st.integers(1, len(chunks))))
        for _ in range(claimable):
            seq = state.claim()
            assert seq is not None
            in_flight.add(seq)
        answered = data.draw(st.sets(st.sampled_from(sorted(in_flight))))
        deliveries = {seq: 0 for seq in range(len(chunks))}
        for seq in answered:
            state.complete(seq, [_double(item) for item in state.items[seq]])
            deliveries[seq] += 1
            in_flight.discard(seq)
        state.requeue(in_flight, FAKE_CONNECTION, ConnectionResetError("died"))
        assert state.error is None  # one death never exhausts 3 retries

        # The surviving worker drains everything that remains.
        while (seq := state.claim()) is not None:
            state.complete(seq, [_double(item) for item in state.items[seq]])
            deliveries[seq] += 1
        assert state.settled()
        # Exactly-once: every chunk recorded one result — the re-queued
        # ones on the survivor, the answered ones never re-claimed.
        assert all(count == 1 for count in deliveries.values())
        flattened = [value for chunk in state.finish() for value in chunk]
        assert flattened == [_double(item) for item in items]

    def test_exhausted_retries_surface_the_last_worker(self):
        state = _DispatchState(_double, chunk_items([1, 2], 1), retries=1)
        for _ in range(2):
            seq = state.claim()
            state.requeue({seq}, FAKE_CONNECTION, ConnectionResetError("died"))
        assert isinstance(state.error, RemoteDispatchError)
        assert "exhausted 1 retries" in str(state.error)
        with pytest.raises(RemoteDispatchError):
            state.finish()
