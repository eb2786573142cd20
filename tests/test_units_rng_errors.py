"""Tests for the foundation modules: units, rng, errors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.rng import RngStream, _mean_one_mu, derive_seed
from repro.units import (
    GIB,
    KIB,
    MIB,
    gbit_per_s,
    ms,
    ns,
    seconds_to_ms,
    seconds_to_ns,
    seconds_to_us,
    to_gbit_per_s,
    to_mb_per_s,
    to_mib_per_s,
    us,
)


class TestUnits:
    def test_binary_sizes(self):
        assert KIB == 1024
        assert MIB == 1024 ** 2
        assert GIB == 1024 ** 3

    def test_time_round_trips(self):
        assert seconds_to_ms(ms(123.0)) == pytest.approx(123.0)
        assert seconds_to_us(us(7.5)) == pytest.approx(7.5)
        assert seconds_to_ns(ns(42.0)) == pytest.approx(42.0)

    def test_bandwidth_round_trips(self):
        assert to_gbit_per_s(gbit_per_s(37.28)) == pytest.approx(37.28)
        assert to_mib_per_s(1000.0 * MIB) == pytest.approx(1000.0)

    def test_gbit_is_decimal(self):
        assert gbit_per_s(8.0) == pytest.approx(1e9)

    def test_mb_is_decimal(self):
        assert to_mb_per_s(3.2e9) == pytest.approx(3200.0)


class TestRngStream:
    def test_same_seed_same_draws(self):
        first = RngStream(42)
        second = RngStream(42)
        assert [first.uniform() for _ in range(5)] == [
            second.uniform() for _ in range(5)
        ]

    def test_children_independent_of_sibling_creation_order(self):
        a_first = RngStream(42).child("a").uniform()
        root = RngStream(42)
        root.child("z")
        root.child("y")
        assert root.child("a").uniform() == a_first

    def test_children_differ_from_each_other(self):
        root = RngStream(42)
        assert root.child("a").uniform() != root.child("b").uniform()

    def test_nested_paths(self):
        root = RngStream(42)
        direct = root.child("x").child("y").uniform()
        again = RngStream(42).child("x").child("y").uniform()
        assert direct == again

    def test_children_helper(self):
        root = RngStream(42)
        streams = root.children(["a", "b"])
        assert streams[0].path.endswith("/a")
        assert streams[1].path.endswith("/b")

    def test_derive_seed_stable(self):
        assert derive_seed(1, "p") == derive_seed(1, "p")
        assert derive_seed(1, "p") != derive_seed(2, "p")

    @given(st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=40)
    def test_gaussian_factor_positive_and_clipped(self, std):
        rng = RngStream(7)
        for _ in range(20):
            factor = rng.gaussian_factor(std)
            assert factor > 0
            assert abs(factor - 1.0) <= 4.0 * std + 1e-12

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(
            st.one_of(
                st.none(),
                st.tuples(
                    st.floats(min_value=-1e3, max_value=1e3),
                    st.floats(min_value=1e-3, max_value=1e3),
                ),
            ),
            min_size=1,
            max_size=200,
        ),
    )
    @settings(max_examples=60)
    def test_uniform_matches_numpy_bit_for_bit(self, seed, bounds):
        """The default-bounds fast path is numpy's ``uniform(0, 1)``; other
        bounds still go through numpy's ``uniform``."""
        stream, twin = RngStream(seed), RngStream(seed)
        for bound in bounds:
            if bound is None:
                draw = stream.uniform()
                expected = float(twin.generator.uniform(0.0, 1.0))
            else:
                low, width = bound
                draw = stream.uniform(low, low + width)
                expected = float(twin.generator.uniform(low, low + width))
            assert draw.hex() == expected.hex()

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(
            st.one_of(
                st.none(),
                st.sampled_from([2, 4]).flatmap(
                    lambda size: st.lists(
                        st.one_of(
                            st.sampled_from([0.1, 0.15, 0.2]),  # fig16's sigmas
                            st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
                        ),
                        min_size=size,
                        max_size=size,
                    )
                ),
            ),
            min_size=1,
            max_size=100,
        ),
    )
    @settings(max_examples=60)
    def test_normal_blocks_match_lognormal_factor(self, seed, steps):
        """fig16's recipe: a block of 2 or 4 normals drawn into a buffer,
        each ``z`` turned into ``math.exp(mu + sigma * z)``, gives the
        floats ``lognormal_factor`` would, bit for bit, between ``random()``
        coins, and leaves the stream where the per-draw calls leave it.

        numpy does not promise stable ``Generator`` streams across
        versions; a build that fused the multiply-add or swapped its
        ``exp`` would fail here instead of moving fig16's output.
        """
        stream, twin = RngStream(seed), RngStream(seed)
        buffers = {2: np.empty(2), 4: np.empty(4)}
        for sigmas in steps:
            if sigmas is None:
                draws, expected = [stream.generator.random()], [twin.uniform()]
            else:
                normals = stream.generator.standard_normal(out=buffers[len(sigmas)])
                draws = [
                    math.exp(_mean_one_mu(sigma) + sigma * z)
                    for sigma, z in zip(sigmas, normals.tolist())
                ]
                expected = [twin.lognormal_factor(sigma) for sigma in sigmas]
            assert [draw.hex() for draw in draws] == [value.hex() for value in expected]
        state = stream.generator.bit_generator.state
        assert state == twin.generator.bit_generator.state

    def test_gaussian_factor_zero_std_is_identity(self):
        assert RngStream(7).gaussian_factor(0.0) == 1.0

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
        st.integers(min_value=1, max_value=500),
        st.sampled_from([4.0, 1.5]),
    )
    @settings(max_examples=60)
    def test_gaussian_factors_match_per_draw_factors(self, seed, std, count, clip):
        """One block equals ``count`` per-draw calls bit for bit, clipped
        alike (at 1.5 sigma most blocks clip), and leaves the generator in
        the same state."""
        stream, twin = RngStream(seed), RngStream(seed)
        block = stream.gaussian_factors(std, count, clip=clip)
        expected = [twin.gaussian_factor(std, clip=clip) for _ in range(count)]
        assert [factor.hex() for factor in block] == [value.hex() for value in expected]
        assert stream.generator.bit_generator.state == twin.generator.bit_generator.state

    def test_gaussian_factors_zero_std_is_identity_without_a_draw(self):
        stream = RngStream(7)
        state = stream.generator.bit_generator.state
        for std in (0.0, -0.25):
            assert stream.gaussian_factors(std, 5) == [1.0] * 5
        assert stream.generator.bit_generator.state == state

    @given(st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=30)
    def test_lognormal_factor_mean_near_one(self, sigma):
        rng = RngStream(11)
        draws = [rng.lognormal_factor(sigma) for _ in range(400)]
        assert all(d > 0 for d in draws)
        mean = sum(draws) / len(draws)
        assert 0.8 < mean < 1.25

    def test_pareto_tail_usually_zero(self):
        rng = RngStream(13)
        draws = [rng.pareto_tail(0.05, 1.0) for _ in range(500)]
        zero_fraction = sum(1 for d in draws if d == 0.0) / len(draws)
        assert zero_fraction > 0.85
        assert any(d > 1.0 for d in draws)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.SimulationError, errors.ReproError)
        assert issubclass(errors.UnsupportedOperationError, errors.PlatformError)
        assert issubclass(errors.PlatformError, errors.ReproError)
        assert issubclass(errors.TraceError, errors.ReproError)

    def test_single_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.ConfigurationError("bad config")
