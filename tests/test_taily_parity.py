"""Taily's array estimator is bit for bit the scalar one it replaced.

``ScalarTaily`` below is the per-fit estimator: one ``scipy.stats.gamma``
``sf`` call per live shard and bisection step, a Python ``max`` over
per-fit ``ppf`` calls for the bracket.  :class:`TailyQualityEstimator`
evaluates each step as one ``scipy.special`` call over every live shard;
every expected-docs value must match exactly, over random per-shard term
statistics.
"""

from dataclasses import dataclass

from hypothesis import example, given
from hypothesis import strategies as st

from repro.predictors.gamma_quality import TailyQualityEstimator

TERMS = ("a", "b", "c")


@dataclass(frozen=True)
class Stats:
    mean: float
    variance: float
    posting_length: int


ABSENT = Stats(0.0, 0.0, 0)


@dataclass(frozen=True)
class StatsIndex:
    """The two things the estimator reads of a ``TermStatsIndex``."""

    by_term: dict[str, Stats]
    k: int

    def get(self, term: str) -> Stats:
        return self.by_term.get(term, ABSENT)


@dataclass(frozen=True)
class ScalarGamma:
    shape: float
    scale: float
    count: int

    @classmethod
    def fit(cls, mean: float, variance: float, count: int) -> "ScalarGamma":
        mean = max(float(mean), 1e-9)
        variance = max(float(variance), 1e-12)
        return cls(mean**2 / variance, variance / mean, count)

    def expected_above(self, threshold: float) -> float:
        if threshold <= 0.0:
            return self.count * 1.0
        from scipy import stats

        return self.count * float(stats.gamma.sf(threshold, a=self.shape, scale=self.scale))

    def quantile(self, q: float) -> float:
        from scipy import stats

        return float(stats.gamma.ppf(q, a=self.shape, scale=self.scale))


class ScalarTaily:
    """The estimator as it was: one scalar Gamma per live shard."""

    def __init__(self, stats_indexes: list[StatsIndex]) -> None:
        self.stats_indexes = stats_indexes
        self.n_c = 2 * stats_indexes[0].k

    def shard_fit(self, shard_id: int, terms: tuple[str, ...]) -> ScalarGamma | None:
        fits = []
        for term in terms:
            stats = self.stats_indexes[shard_id].get(term)
            if stats.posting_length == 0:
                continue
            fits.append(ScalarGamma.fit(stats.mean, stats.variance, stats.posting_length))
        if not fits:
            return None
        return ScalarGamma.fit(
            sum(f.shape * f.scale for f in fits),
            sum(f.shape * f.scale**2 for f in fits),
            min(f.count for f in fits),
        )

    def estimate(self, terms: tuple[str, ...]) -> tuple[tuple[float, ...], float]:
        """Per-shard expected docs and the threshold ``s_c``."""
        fits = [self.shard_fit(sid, terms) for sid in range(len(self.stats_indexes))]
        live = [fit for fit in fits if fit is not None]
        if not live:
            return tuple(0.0 for _ in fits), 0.0
        threshold = self._solve_threshold(live)
        return tuple(
            fit.expected_above(threshold) if fit is not None else 0.0 for fit in fits
        ), threshold

    def _solve_threshold(self, fits: list[ScalarGamma]) -> float:
        def total_above(s: float) -> float:
            return sum(fit.expected_above(s) for fit in fits)

        hi = max(fit.quantile(1.0 - 1e-9) for fit in fits if fit.count > 0)
        lo = 0.0
        if total_above(lo) <= self.n_c:
            return lo
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if total_above(mid) > self.n_c:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def quality_counts(self, terms: tuple[str, ...], k: int) -> list[int]:
        expected, _ = self.estimate(terms)
        total = sum(expected)
        if total <= 0:
            return [0 for _ in expected]
        scale = min(k / total, 1.0)
        return [int(round(docs * scale)) for docs in expected]


def cluster(*shards: dict[str, tuple[float, float, int]], k: int = 3) -> list[StatsIndex]:
    return [
        StatsIndex({term: Stats(*stats) for term, stats in shard.items()}, k)
        for shard in shards
    ]


term_stats = st.one_of(
    st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 60.0), st.integers(1, 3000)),
    st.tuples(st.floats(1.0, 5.0), st.just(0.0), st.integers(1, 50)),  # clamped
)
shard_stats = st.dictionaries(st.sampled_from(TERMS), term_stats)
clusters = st.builds(
    lambda shards, k: cluster(*shards, k=k),
    st.lists(shard_stats, min_size=1, max_size=16),
    st.integers(1, 10),
)
queries = st.lists(st.sampled_from(TERMS + ("zz",)), min_size=1, max_size=3).map(tuple)

#: Named cases, each checked to reach its branch below.
SINGLE_SHARD = cluster({"a": (4.0, 2.0, 500), "b": (2.5, 1.0, 80)})
ALL_ABSENT = cluster({"a": (4.0, 2.0, 500)}, {"b": (2.0, 1.0, 40)})
ZERO_VARIANCE = cluster({"a": (3.0, 0.0, 900)}, {"a": (0.0, 0.0, 700), "b": (2.0, 4.0, 60)})
FEW_CANDIDATES = cluster({"a": (4.0, 2.0, 2)}, {}, {"a": (1.0, 0.5, 3)}, k=5)
#: A two-term query's statistics on the eight unit-scale shards: eight live
#: totals are where numpy's pairwise ``np.sum`` departs from the builtin.
EIGHT_SHARDS = cluster(
    {"a": (3.5093313740059116, 0.11106221211468481, 7),
     "b": (2.7587859885072676, 0.002260842184349879, 4)},
    {"a": (3.330704668334176, 0.021655851346992865, 6),
     "b": (2.9188940290740626, 0.15295269447203336, 5)},
    {"b": (2.729810530657647, 0.1342409990249666, 9)},
    {"a": (3.0782404359828663, 0.0, 1), "b": (2.7075079206468287, 0.021283020504927325, 5)},
    {"b": (2.99216221791272, 0.2249166862288321, 5)},
    {"b": (2.7189283556258506, 0.01416021393993639, 2)},
    {"b": (2.8145015996568605, 0.006634069805217839, 3)},
    {"a": (3.360042934493554, 0.03326061798916531, 7),
     "b": (2.4538130664117417, 0.05681105427116037, 4)},
    k=10,
)


@given(stats_indexes=clusters, terms=queries)
@example(stats_indexes=SINGLE_SHARD, terms=("a", "b"))
@example(stats_indexes=ALL_ABSENT, terms=("zz",))
@example(stats_indexes=ZERO_VARIANCE, terms=("a", "b"))
@example(stats_indexes=FEW_CANDIDATES, terms=("a",))
@example(stats_indexes=EIGHT_SHARDS, terms=("a", "b"))
def test_array_estimate_is_the_scalar_estimate(stats_indexes, terms):
    reference = ScalarTaily(stats_indexes)
    estimator = TailyQualityEstimator(stats_indexes)
    assert estimator.estimate(terms) == reference.estimate(terms)[0]
    k = stats_indexes[0].k
    for pool in (k, max(k // 2, 1)):
        assert estimator.quality_counts(terms, pool) == reference.quality_counts(terms, pool)


def test_named_cases_reach_their_branches():
    _, threshold = ScalarTaily(FEW_CANDIDATES).estimate(("a",))
    assert threshold == 0.0  # candidates <= n_c: every candidate counts
    docs, _ = ScalarTaily(ALL_ABSENT).estimate(("zz",))
    assert docs == (0.0, 0.0)
    _, threshold = ScalarTaily(ZERO_VARIANCE).estimate(("a", "b"))
    assert threshold > 0.0
    assert ScalarTaily(SINGLE_SHARD).estimate(("a", "b"))[1] > 0.0
