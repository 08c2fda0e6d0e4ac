"""``search_cold`` and ``search_store``: the real retrieval engine.

Distinct queries over shards with kernel-sized posting lists; a fresh
``DistributedSearcher`` per pass makes every (query, shard) evaluation a
memo miss, and ``search_store`` reopens its stores per pass so the decode
caches start empty.
"""

from __future__ import annotations

import gc
import statistics
import tempfile
from time import perf_counter
from typing import Any

from bench.inputs import distinct_queries, sample_ids
from bench.spans import Recorder
from bench.workload import (
    Check,
    Phase,
    Workload,
    busy,
    digest,
    metric,
    percentile,
    ratio,
    spread,
    time_up,
)
from repro.experiments.bench_storage import build_scaled_shards
from repro.experiments.oracle_sweep import SCORE_ATOL, same_topk
from repro.index import open_stores, pack_shards, store_info
from repro.retrieval import (
    DistributedSearcher,
    SearchResult,
    SerialExecutor,
    ShardSearcher,
    exhaustive_search,
    merge_results,
)


class SearchWorkload(Workload):
    k = 10

    def build_inputs(self) -> None:
        sizes = self.sizes
        self.memory_shards = build_scaled_shards(
            sizes["n_shards"], sizes["docs_per_shard"], sizes["vocab"], self.seed
        )
        self.queries = distinct_queries(sizes["queries"], sizes["vocab"], self.seed)

    def close(self) -> None:
        # A repeated set-up must not hold the previous inputs while it builds
        # the next: peak RSS is the workload's footprint, not twice its inputs.
        self.memory_shards = []

    def sizes_used(self) -> dict[str, Any]:
        return {
            **self.sizes,
            "k": self.k,
            "postings": sum(shard.arena.n_postings for shard in self.memory_shards),
            "query_terms": sum(len(query.terms) for query in self.queries),
        }

    def open_shards(self) -> list[Any]:
        """The shards one pass searches."""
        raise NotImplementedError

    def install(self, rec: Recorder) -> None:
        rec.patch(
            DistributedSearcher, "search", "retrieval.search",
            op_of=lambda _, query, *__: query.query_id,
        )
        rec.patch(ShardSearcher, "search", "retrieval.shard_search", leaf=True)

    def measure(self, seconds: float) -> Phase:
        phase = Phase(data={"latencies": [], "passes": []})
        latencies = phase.data["latencies"]
        started = perf_counter()
        while not time_up(len(phase.unit_walls), self.sizes["min_units"], started, seconds):
            shards = self.open_shards()
            searcher = DistributedSearcher(shards, k=self.k, executor=SerialExecutor())
            results = []
            gc.collect()
            pass_start = perf_counter()
            for query in self.queries:
                t0 = perf_counter()
                results.append(searcher.search(query))
                latencies.append(perf_counter() - t0)
            phase.unit_walls.append(perf_counter() - pass_start)
            phase.data["passes"].append(self.reduce_pass(searcher, shards, results))
            phase.data.setdefault("results", results)
        return phase

    def reduce_pass(
        self, searcher: DistributedSearcher, shards: list[Any],
        results: list[SearchResult],
    ) -> dict[str, Any]:
        """Untimed: what the checks and the exact counts need of one pass."""
        stats = searcher.cache_stats()
        decode = [0, 0, 0]
        for shard in shards:
            decode_stats = getattr(shard.arena, "decode_stats", None)
            if decode_stats is not None:  # only compressed arenas decode
                decode[0] += decode_stats.hits
                decode[1] += decode_stats.misses
                decode[2] += decode_stats.evictions
        return {
            "digest": digest([result.fingerprint() for result in results]),
            "postings_scored": sum(r.cost.postings_scored for r in results),
            "postings_skipped": sum(r.cost.postings_skipped for r in results),
            "docs_evaluated": sum(r.cost.docs_evaluated for r in results),
            "memo_hits": sum(s.hits for s in stats),
            "memo_computations": sum(s.computations for s in stats),
            "decode": tuple(decode),
        }

    def operations(self, phase: Phase) -> int:
        return len(phase.data["latencies"])

    def exact(self, phase: Phase) -> dict[str, Any]:
        first = phase.data["passes"][0]
        return {
            "retrieval.postings_scored": first["postings_scored"],
            "retrieval.postings_skipped": first["postings_skipped"],
            "retrieval.docs_evaluated": first["docs_evaluated"],
            "digest": first["digest"],
        }

    def query_seconds(self, phase: Phase) -> list[float]:
        """Each query's median wall time over the passes (identical work)."""
        n_queries = len(self.queries)
        return [
            statistics.median(phase.data["latencies"][q::n_queries])
            for q in range(n_queries)
        ]

    def unit_seconds(self, phase: Phase) -> float:
        return sum(self.query_seconds(phase))

    def end_to_end(self, phase: Phase) -> dict[str, dict[str, Any]]:
        n_queries, passes = len(self.queries), len(phase.unit_walls)
        per_query_ms = [s * 1e3 for s in self.query_seconds(phase)]
        by_pass = spread([n_queries / wall for wall in phase.unit_walls], "1/s")
        return {
            "wall_qps": metric(
                n_queries / self.unit_seconds(phase), "1/s", n=n_queries,
                passes=passes, q1=by_pass["q1"], q3=by_pass["q3"],
            ),
            "query_wall_ms_p50": metric(
                statistics.median(per_query_ms), "ms", n=n_queries, passes=passes
            ),
            "query_wall_ms_p95": metric(
                percentile(per_query_ms, 95), "ms", n=n_queries, passes=passes,
                beyond=n_queries // 20,
            ),
        }

    def layers(self, rec, setup, measured, untraced, traced):
        units = len(traced.unit_walls)
        first = traced.data["passes"][0]
        shard = busy(measured, "retrieval.shard_search")
        fanout = busy(measured, "retrieval.search")
        hits, misses, evictions = first["decode"]
        scored, skipped = first["postings_scored"], first["postings_skipped"]
        memo_hits, computations = first["memo_hits"], first["memo_computations"]
        return {
            "retrieval.shard_search_s": metric(shard.busy_s / units, "s"),
            "retrieval.shard_searches": metric(shard.count // units, "count"),
            "retrieval.memo_hit_share": ratio(memo_hits, memo_hits + computations),
            "retrieval.memo_computations": metric(computations, "count"),
            "retrieval.postings_scored": metric(scored, "count"),
            "retrieval.postings_skipped": metric(skipped, "count"),
            "retrieval.docs_evaluated": metric(first["docs_evaluated"], "count"),
            "retrieval.skip_share": ratio(skipped, scored + skipped),
            "retrieval.us_per_posting_scored": ratio(
                shard.busy_s / units * 1e6, scored, "us"
            ),
            # DistributedSearcher.search minus its shard searches: executor
            # plus merge_results self time.
            "retrieval.fanout_merge_s": metric(fanout.self_s / units, "s"),
            "index.decode_hits": metric(hits, "count"),
            "index.decode_misses": metric(misses, "count"),
            "index.decode_evictions": metric(evictions, "count"),
            "index.decode_hit_share": ratio(hits, hits + misses),
        }


def pass_identity_check(passes: list[dict[str, Any]], n_queries: int) -> Check:
    """Every pass reproduces the first: results, costs, counts, modelled clock."""
    failed = sum(n_queries for outcome in passes if outcome != passes[0])
    return Check(
        "pass_identity", n_queries * len(passes), failed,
        "every pass returns the first pass's results, costs and counts",
    )


class SearchCold(SearchWorkload):
    """Distinct queries over in-memory shards with kernel-sized postings."""

    name = "search_cold"

    def setup(self, rec: Recorder) -> None:
        self.build_inputs()
        for shard in self.memory_shards:
            shard.arena  # lazy columnar packing: a set-up cost, not a query's

    def open_shards(self) -> list[Any]:
        return self.memory_shards

    def checks(self, phase: Phase) -> list[Check]:
        sample = sample_ids(len(self.queries), self.sizes["check_sample"], self.seed)
        oracle = {
            i: merge_results(
                [
                    exhaustive_search(shard, list(self.queries[i].terms), self.k)
                    for shard in self.memory_shards
                ],
                self.k,
            )
            for i in sample
        }
        return [
            pass_identity_check(phase.data["passes"], len(self.queries)),
            rank_check(phase.data["results"], oracle),
        ]


def rank_check(results: list[SearchResult], oracle: dict[int, SearchResult]) -> Check:
    """Sampled merged top-k is rank-equal to exhaustive evaluation."""
    failed = sum(
        1 for i, expected in oracle.items()
        if not same_topk(expected.hits, results[i].hits)
    )
    return Check(
        "rank_equal_exhaustive", len(oracle), failed,
        f"same_topk at {SCORE_ATOL} against merge_results over exhaustive_search",
    )


class SearchStore(SearchWorkload):
    """The same queries over packed stores with a small decode cache."""

    name = "search_store"
    tmp: tempfile.TemporaryDirectory | None = None

    def setup(self, rec: Recorder) -> None:
        self.build_inputs()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=self.out_dir, prefix="stores_")
        with rec.span("index.pack"):
            paths = pack_shards(self.memory_shards, self.tmp.name)
        info = [store_info(path) for path in paths]
        self.packed_bytes = sum(i["file_bytes"] for i in info)
        self.raw_bytes = sum(i["raw_column_bytes"] for i in info)
        with rec.span("index.open"):
            self.open_shards()

    def open_shards(self) -> list[Any]:
        """Freshly opened stores: decode caches and stats start empty."""
        assert self.tmp is not None, "set-up has not run"
        return open_stores(self.tmp.name, cache_bytes=self.sizes["cache_bytes"])

    def close(self) -> None:
        super().close()
        if self.tmp is not None:
            self.tmp.cleanup()
            self.tmp = None

    def checks(self, phase: Phase) -> list[Check]:
        sample = sample_ids(len(self.queries), self.sizes["check_sample"], self.seed)
        memory = DistributedSearcher(
            self.memory_shards, k=self.k, executor=SerialExecutor()
        )
        expected = {i: memory.search(self.queries[i]).fingerprint() for i in sample}
        return [
            pass_identity_check(phase.data["passes"], len(self.queries)),
            fingerprint_check(phase.data["results"], expected),
        ]

    def layers(self, rec, setup, measured, untraced, traced):
        out = super().layers(rec, setup, measured, untraced, traced)
        out.update({
            "index.pack_s": metric(busy(setup, "index.pack").busy_s, "s"),
            "index.packed_bytes": metric(self.packed_bytes, "B"),
            "index.compression_ratio": ratio(self.raw_bytes, self.packed_bytes),
            "index.open_s": metric(busy(setup, "index.open").busy_s, "s"),
        })
        return out


def fingerprint_check(results: list[SearchResult], expected: dict[int, str]) -> Check:
    """Sampled store-backed results equal the in-memory shards' bit for bit."""
    failed = sum(
        1 for i, fingerprint in expected.items()
        if results[i].fingerprint() != fingerprint
    )
    return Check(
        "store_equals_memory", len(expected), failed,
        "merged fingerprint (hits, full float repr, costs) equal to in-memory shards",
    )
