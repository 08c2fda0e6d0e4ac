"""Arrival processes and query streams: determinism, rates, bounded memory."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serving import (
    BurstProfile,
    DiurnalProfile,
    ModulatedPoissonProcess,
    PoissonProcess,
    QueryStream,
    make_arrivals,
)
from repro.serving.arrivals import ARRIVAL_KINDS


def take(process, n: int) -> list[float]:
    return list(itertools.islice(process.times(), n))


class TestPoisson:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        rate=st.floats(min_value=0.5, max_value=5000.0),
    )
    def test_seed_determines_sequence(self, seed, rate):
        a = PoissonProcess(rate, seed=seed)
        b = PoissonProcess(rate, seed=seed)
        assert take(a, 50) == take(b, 50)

    def test_different_seeds_diverge(self):
        assert take(PoissonProcess(10.0, seed=1), 20) != take(
            PoissonProcess(10.0, seed=2), 20
        )

    def test_times_are_strictly_increasing(self):
        times = take(PoissonProcess(100.0, seed=3), 500)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_empirical_rate_matches_nominal(self):
        n = 20_000
        times = take(PoissonProcess(250.0, seed=4), n)
        empirical = n / times[-1]
        assert empirical == pytest.approx(250.0, rel=0.05)

    def test_iterating_twice_replays_identically(self):
        process = PoissonProcess(50.0, seed=5)
        assert take(process, 100) == take(process, 100)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonProcess(0.0)


class TestProfiles:
    def test_diurnal_trough_and_peak(self):
        profile = DiurnalProfile(period_s=100.0, floor=0.2)
        assert profile.factor(0.0) == pytest.approx(0.2)
        assert profile.factor(50.0) == pytest.approx(1.0)
        assert profile.mean_factor == pytest.approx(0.6)

    def test_diurnal_factor_stays_in_envelope(self):
        profile = DiurnalProfile(period_s=60.0, floor=0.3)
        for t in np.linspace(0.0, 180.0, 500):
            assert 0.3 - 1e-12 <= profile.factor(float(t)) <= 1.0 + 1e-12

    def test_burst_square_wave(self):
        profile = BurstProfile(every_s=10.0, burst_s=2.0, multiplier=4.0)
        assert profile.factor(1.0) == 4.0
        assert profile.factor(5.0) == 1.0
        assert profile.factor(11.5) == 4.0
        assert profile.peak_factor == 4.0
        assert profile.mean_factor == pytest.approx((4.0 * 2 + 8) / 10)

    def test_modulated_empirical_rate_tracks_profile_mean(self):
        profile = BurstProfile(every_s=4.0, burst_s=1.0, multiplier=5.0)
        process = ModulatedPoissonProcess(100.0, profile, seed=2)
        n = 20_000
        times = take(process, n)
        assert n / times[-1] == pytest.approx(
            process.mean_rate_qps(), rel=0.05
        )

    def test_modulated_is_deterministic(self):
        profile = DiurnalProfile(period_s=30.0)
        a = ModulatedPoissonProcess(80.0, profile, seed=6)
        b = ModulatedPoissonProcess(80.0, profile, seed=6)
        assert take(a, 300) == take(b, 300)


class TestMakeArrivals:
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_factory_preserves_mean_rate(self, kind):
        process = make_arrivals(kind, 120.0, seed=0)
        assert process.mean_rate_qps() == pytest.approx(120.0)

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_factory_empirical_rate(self, kind):
        # Count over whole modulation periods: stopping mid-cycle would
        # bias a diurnal/burst estimate toward whichever phase it stops in.
        horizon = 120.0  # one diurnal period, 4 burst periods
        process = make_arrivals(kind, 200.0, seed=3)
        count = sum(
            1 for _ in itertools.takewhile(lambda t: t <= horizon, process.times())
        )
        assert count / horizon == pytest.approx(200.0, rel=0.1)

    def test_unknown_kind(self):
        for kind in ("fractal", "mmpp", "step"):  # the last two were removed
            with pytest.raises(ValueError, match="unknown arrival"):
                make_arrivals(kind, 10.0)


POOL = [(f"t{i:03d}", f"t{i + 1:03d}") for i in range(50)]


class TestQueryStream:
    def test_replays_identically(self):
        stream = QueryStream(
            POOL, PoissonProcess(100.0, seed=1), seed=2, max_queries=500
        )
        first = [(q.query_id, q.terms, q.arrival_time) for q in stream]
        second = [(q.query_id, q.terms, q.arrival_time) for q in stream]
        assert first == second
        assert len(first) == 500

    def test_zipf_head_is_most_popular(self):
        stream = QueryStream(
            POOL,
            PoissonProcess(100.0, seed=4),
            popularity_exponent=1.0,
            seed=5,
            max_queries=5000,
        )
        counts: dict[tuple, int] = {}
        for q in stream:
            counts[q.terms] = counts.get(q.terms, 0) + 1
        head, tail = counts.get(POOL[0], 0), counts.get(POOL[-1], 0)
        assert head > 5 * max(tail, 1)

    def test_distinct_queries_is_the_pool(self):
        stream = QueryStream(
            POOL, PoissonProcess(10.0, seed=0), max_queries=10
        )
        distinct = stream.distinct_queries()
        assert [q.terms for q in distinct] == [tuple(t) for t in POOL]

    def test_validation(self):
        with pytest.raises(TypeError, match="max_queries"):
            QueryStream(POOL, PoissonProcess(10.0))
        with pytest.raises(ValueError, match="non-empty"):
            QueryStream([], PoissonProcess(10.0), max_queries=1)
        with pytest.raises(ValueError):
            QueryStream(POOL, PoissonProcess(10.0), max_queries=0)

    def test_streaming_100k_is_bounded_memory(self):
        """The lazy contract: 100k queries allocate no per-query storage.

        The generator holds the pool, the CDF and one in-flight query, so
        peak traced allocation stays under 2 MiB no matter the length —
        a materialized list of 100k Query objects would be tens of MiB.
        """
        stream = QueryStream(
            POOL, PoissonProcess(500.0, seed=8), seed=9, max_queries=100_000
        )
        tracemalloc.start()
        count = 0
        last_t = 0.0
        for query in stream:
            count += 1
            last_t = query.arrival_time
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 100_000
        assert last_t > 0.0
        assert peak < 2 * 1024 * 1024


class TestHypothesisDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        kind=st.sampled_from(ARRIVAL_KINDS),
    )
    def test_every_factory_kind_is_seed_deterministic(self, seed, kind):
        a = make_arrivals(kind, 150.0, seed=seed)
        b = make_arrivals(kind, 150.0, seed=seed)
        assert take(a, 40) == take(b, 40)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_stream_is_seed_deterministic(self, seed):
        def build():
            return QueryStream(
                POOL,
                PoissonProcess(100.0, seed=seed),
                seed=seed + 1,
                max_queries=60,
            )

        first = [(q.terms, q.arrival_time) for q in build()]
        second = [(q.terms, q.arrival_time) for q in build()]
        assert first == second
        assert math.isfinite(first[-1][1])
