"""Oracle traversal sweep: every strategy on every (query, shard).

A stand-alone experiment: how much fan-out latency does running one
static traversal everywhere leave on the table?  For a seeded zipf
workload it runs **every** combination of traversal strategy, k-clamp
and MaxScore kernel ``min_postings`` floor on every (query, shard) pair,
recording the modeled :class:`~repro.cluster.cpu.CostModel` service time
and the host wall-clock of each run.  From that table it derives:

* the **oracle upper bound** — per-query fan-out latency if every shard
  always ran its cheapest rank-safe traversal, the ceiling any per-query
  traversal choice is graded against;
* the **static baselines** — the fan-out latency of running each single
  strategy everywhere, whose best member is the bar such a choice must
  beat.

Rank-safety is verified, not assumed: the sweep checks the safe
strategies return the same top-k per (query, shard) under the repo's
equivalence contract (same documents in the same order, scores equal up
to float-summation order, ties permutable — what
``tests/test_strategy_equivalence.py`` asserts).  Query terms are
deduplicated first, matching :class:`~repro.retrieval.query.Query`'s own
normalization.  Strict *bit*-identity holds within one strategy, not
across strategies, whose differing accumulation order moves last-ulp
score bits.  ``min_postings`` never changes modeled cost — both sides of
the floor are bit-identical by contract — so the floor dimension exists
to expose its host wall-clock effect, not to move the oracle.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cluster.cpu import CostModel, FrequencyScale
from repro.index import Document, IndexBuilder, IndexShard
from repro.retrieval.searcher import STRATEGIES
from repro.text import WhitespaceAnalyzer

#: Score tolerance of the cross-strategy equivalence check — the same
#: bound ``tests/test_strategy_equivalence.py`` uses for summation-order
#: float drift.
SCORE_ATOL = 1e-9

N_SHARDS = 8
DOCS_PER_SHARD = 400
VOCAB_SIZE = 150
N_QUERIES = 240
K = 10
SEED = 7

#: The rank-safe traversals, in argmin tie-break order: each returns the
#: exact top-k, so choosing between them is invisible to result quality.
SAFE_STRATEGIES: tuple[str, ...] = ("maxscore", "wand", "block_max_wand")

#: The full sweep grid includes the unsafe conjunctive arm: it is never an
#: oracle candidate (not rank-safe) but its measured cost is reported
#: next to the safe arms.
SWEEP_STRATEGIES: tuple[str, ...] = SAFE_STRATEGIES + ("conjunctive",)


def build_corpus(
    n_shards: int = N_SHARDS,
    docs_per_shard: int = DOCS_PER_SHARD,
    vocab_size: int = VOCAB_SIZE,
    seed: int = SEED,
) -> list[IndexShard]:
    """Zipf-like synthetic shards: head terms get the long posting lists.

    Term frequencies follow a Pareto draw (shape 1.1), so a handful of
    vocabulary head terms dominate — the regime where block scoring pays
    and where real query traces live.  Deterministic per (shard, seed).
    """
    vocab = [f"t{i:03d}" for i in range(vocab_size)]
    shards = []
    for shard_id in range(n_shards):
        rng = random.Random(seed + 100 + shard_id)
        builder = IndexBuilder(shard_id, analyzer=WhitespaceAnalyzer())
        base = shard_id * docs_per_shard
        for i in range(docs_per_shard):
            n_words = rng.randint(8, 40)
            words = [
                vocab[min(int(rng.paretovariate(1.1)) - 1, vocab_size - 1)]
                for _ in range(n_words)
            ]
            builder.add(Document(doc_id=base + i, text=" ".join(words)))
        shards.append(builder.build())
    return shards


def sample_queries(
    n_queries: int = N_QUERIES,
    vocab_size: int = VOCAB_SIZE,
    seed: int = SEED,
) -> list[list[str]]:
    """2-4 term queries, terms Pareto-drawn (shape 1.2) over the vocab."""
    vocab = [f"t{i:03d}" for i in range(vocab_size)]
    rng = random.Random(seed)
    return [
        [
            vocab[min(int(rng.paretovariate(1.2)) - 1, vocab_size - 1)]
            for _ in range(rng.randint(2, 4))
        ]
        for _ in range(n_queries)
    ]


@dataclass(frozen=True)
class SweepCombo:
    """One grid point: a traversal, a k-clamp, a kernel dispatch floor.

    ``min_postings`` is ``None`` for every strategy except ``maxscore`` —
    it is a MaxScore-kernel-only knob, so other strategies contribute a
    single floor level to the grid.
    """

    strategy: str
    k: int
    min_postings: int | None = None


@dataclass
class SweepDataset:
    """The full measurement table plus everything derived from it."""

    term_tuples: list[tuple[str, ...]]
    n_shards: int
    k: int
    combos: tuple[SweepCombo, ...]
    service_ms: np.ndarray  # [NQ, S, C] modeled default-frequency service
    wall_us: np.ndarray  # [NQ, S, C] host wall-clock per run
    docs_evaluated: np.ndarray  # [NQ, S, C]
    postings_scored: np.ndarray  # [NQ, S, C]
    postings_skipped: np.ndarray  # [NQ, S, C]
    rank_safe: bool = True

    @property
    def n_queries(self) -> int:
        return len(self.term_tuples)

    def combo_index(
        self, strategy: str, k: int | None = None, min_postings: int | None = None
    ) -> int:
        k = k if k is not None else self.k
        for idx, combo in enumerate(self.combos):
            if (
                combo.strategy == strategy
                and combo.k == k
                and combo.min_postings == min_postings
            ):
                return idx
        raise KeyError(f"no combo ({strategy!r}, k={k}, floor={min_postings})")

    def _safe_indices(self) -> list[int]:
        """Combo columns of the rank-safe strategies at the base k."""
        return [self.combo_index(name) for name in SAFE_STRATEGIES]

    def safe_service_ms(self) -> np.ndarray:
        """``[NQ, S, len(SAFE_STRATEGIES)]`` service of the oracle's arms."""
        return self.service_ms[:, :, self._safe_indices()]


@dataclass
class SweepSummary:
    """Fan-out latency of every static arm vs the per-shard oracle."""

    n_queries: int
    n_shards: int
    k: int
    static_mean_ms: dict[str, float] = field(default_factory=dict)
    static_p99_ms: dict[str, float] = field(default_factory=dict)
    oracle_mean_ms: float = 0.0
    oracle_p99_ms: float = 0.0
    best_static: str = ""
    win_counts: dict[str, int] = field(default_factory=dict)
    rank_safe: bool = True

    @property
    def best_static_mean_ms(self) -> float:
        return self.static_mean_ms[self.best_static]

    @property
    def oracle_gap_ms(self) -> float:
        """Mean fan-out latency the best static arm leaves on the table."""
        return self.best_static_mean_ms - self.oracle_mean_ms

    @property
    def oracle_gap_pct(self) -> float:
        if self.best_static_mean_ms <= 0:
            return 0.0
        return 100.0 * self.oracle_gap_ms / self.best_static_mean_ms


def same_topk(
    reference: list[tuple[int, float]], challenger: list[tuple[int, float]]
) -> bool:
    """The cross-strategy equivalence contract, as a predicate.

    Same documents in the same order with scores equal up to
    float-summation drift (``SCORE_ATOL``); documents may permute only
    within a score tie.  Mirrors ``assert_same_topk`` in
    ``tests/test_strategy_equivalence.py``.
    """
    if len(reference) != len(challenger):
        return False
    for (doc_c, score_c), (doc_r, score_r) in zip(challenger, reference):
        if abs(score_c - score_r) > SCORE_ATOL:
            return False
        if doc_c != doc_r:
            tied = {
                doc
                for doc, score in reference
                if abs(score - score_r) <= SCORE_ATOL
            }
            if doc_c not in tied:
                return False
    return True


def grid(
    k: int = K,
    k_clamps: tuple[int, ...] = (),
    min_postings_floors: tuple[int, ...] = (0,),
) -> tuple[SweepCombo, ...]:
    """The sweep grid: strategies x {base k + clamps} x dispatch floors.

    Every strategy gets a ``min_postings=None`` (kernel default) column;
    ``maxscore`` additionally gets one column per explicit floor.
    """
    combos: list[SweepCombo] = []
    ks = [k] + [clamp for clamp in k_clamps if clamp != k]
    for strategy in SWEEP_STRATEGIES:
        for k_value in ks:
            combos.append(SweepCombo(strategy, k_value, None))
            if strategy == "maxscore":
                combos.extend(
                    SweepCombo(strategy, k_value, floor)
                    for floor in min_postings_floors
                )
    return tuple(combos)


def sweep(
    shards: list[IndexShard],
    queries: list[list[str]] | list[tuple[str, ...]],
    k: int = K,
    k_clamps: tuple[int, ...] = (),
    min_postings_floors: tuple[int, ...] = (0,),
    cost_model: CostModel | None = None,
    freq_ghz: float | None = None,
) -> SweepDataset:
    """Measure every grid combination on every (query, shard) pair.

    Query terms are deduplicated (preserving first-occurrence order, the
    same normalization :class:`~repro.retrieval.query.Query` applies) so
    the rank-safety assertion compares what the cluster would actually
    run.  Strategy callables are invoked directly — no
    :class:`~repro.retrieval.searcher.ShardSearcher` memo cache — so
    every wall-clock sample reflects a real evaluation.
    """
    cost_model = cost_model or CostModel()
    freq = freq_ghz if freq_ghz is not None else FrequencyScale().default_ghz
    term_tuples = [tuple(dict.fromkeys(terms)) for terms in queries]
    combos = grid(k, k_clamps, min_postings_floors)
    shape = (len(term_tuples), len(shards), len(combos))
    service = np.zeros(shape)
    wall = np.zeros(shape)
    docs = np.zeros(shape, dtype=np.int64)
    scored = np.zeros(shape, dtype=np.int64)
    skipped = np.zeros(shape, dtype=np.int64)
    rank_safe = True
    safe_at_base = {
        c_idx: combo.strategy
        for c_idx, combo in enumerate(combos)
        if combo.k == k and combo.strategy in SAFE_STRATEGIES
    }
    for q_idx, terms in enumerate(term_tuples):
        term_list = list(terms)
        for s_idx, shard in enumerate(shards):
            reference_hits = None
            for c_idx, combo in enumerate(combos):
                fn = STRATEGIES[combo.strategy]
                kwargs = {}
                if combo.min_postings is not None:
                    kwargs["min_postings"] = combo.min_postings
                t0 = time.perf_counter()  # simlint: disable=DET-CLOCK -- host wall-clock measurement, never feeds the sim
                result = fn(shard, term_list, combo.k, **kwargs)
                wall[q_idx, s_idx, c_idx] = (
                    time.perf_counter() - t0  # simlint: disable=DET-CLOCK -- host wall-clock measurement, never feeds the sim
                ) * 1e6
                service[q_idx, s_idx, c_idx] = cost_model.service_ms(
                    result.cost, freq
                )
                docs[q_idx, s_idx, c_idx] = result.cost.docs_evaluated
                scored[q_idx, s_idx, c_idx] = result.cost.postings_scored
                skipped[q_idx, s_idx, c_idx] = result.cost.postings_skipped
                if c_idx in safe_at_base:
                    if reference_hits is None:
                        reference_hits = result.hits
                    elif not same_topk(reference_hits, result.hits):
                        rank_safe = False
    return SweepDataset(
        term_tuples=term_tuples,
        n_shards=len(shards),
        k=k,
        combos=combos,
        service_ms=service,
        wall_us=wall,
        docs_evaluated=docs,
        postings_scored=scored,
        postings_skipped=skipped,
        rank_safe=rank_safe,
    )


def summarize(dataset: SweepDataset) -> SweepSummary:
    """Static-arm vs oracle fan-out latency over the sweep's workload.

    A query's fan-out latency is the max over shards of its service time
    — the partition-aggregate critical path with idle queues.  The oracle
    picks each shard's cheapest rank-safe strategy *per query*; a static
    arm runs one strategy everywhere.
    """
    summary = SweepSummary(
        n_queries=dataset.n_queries,
        n_shards=dataset.n_shards,
        k=dataset.k,
        rank_safe=dataset.rank_safe,
    )
    safe = dataset.safe_service_ms()  # [NQ, S, A]
    fanout_static = safe.max(axis=1)  # [NQ, A]
    fanout_oracle = safe.min(axis=2).max(axis=1)  # [NQ]
    for a_idx, name in enumerate(SAFE_STRATEGIES):
        summary.static_mean_ms[name] = float(fanout_static[:, a_idx].mean())
        summary.static_p99_ms[name] = float(
            np.percentile(fanout_static[:, a_idx], 99)
        )
    conj_idx = dataset.combo_index("conjunctive")
    conj_fanout = dataset.service_ms[:, :, conj_idx].max(axis=1)
    summary.static_mean_ms["conjunctive"] = float(conj_fanout.mean())
    summary.static_p99_ms["conjunctive"] = float(np.percentile(conj_fanout, 99))
    summary.oracle_mean_ms = float(fanout_oracle.mean())
    summary.oracle_p99_ms = float(np.percentile(fanout_oracle, 99))
    summary.best_static = min(
        SAFE_STRATEGIES, key=lambda name: summary.static_mean_ms[name]
    )
    winners = np.argmin(fanout_static, axis=1)  # [NQ] per-query fan-out winner
    for a_idx, name in enumerate(SAFE_STRATEGIES):
        summary.win_counts[name] = int(np.sum(winners == a_idx))
    return summary


def run(
    n_shards: int = N_SHARDS,
    docs_per_shard: int = DOCS_PER_SHARD,
    vocab_size: int = VOCAB_SIZE,
    n_queries: int = N_QUERIES,
    k: int = K,
    k_clamps: tuple[int, ...] = (5,),
    min_postings_floors: tuple[int, ...] = (0, 2048),
    seed: int = SEED,
) -> tuple[SweepDataset, SweepSummary]:
    """Build the seeded workload, sweep it, and summarize."""
    shards = build_corpus(n_shards, docs_per_shard, vocab_size, seed)
    queries = sample_queries(n_queries, vocab_size, seed)
    dataset = sweep(
        shards,
        queries,
        k=k,
        k_clamps=k_clamps,
        min_postings_floors=min_postings_floors,
    )
    return dataset, summarize(dataset)


def format_report(summary: SweepSummary) -> str:
    lines = [
        "oracle traversal sweep "
        f"({summary.n_queries} queries x {summary.n_shards} shards, "
        f"k={summary.k})",
        f"{'arm':<18} {'mean_ms':>9} {'p99_ms':>9} {'wins':>6}",
        "-" * 46,
    ]
    for name in SAFE_STRATEGIES:
        marker = " *" if name == summary.best_static else ""
        lines.append(
            f"{name:<18} {summary.static_mean_ms[name]:>9.2f} "
            f"{summary.static_p99_ms[name]:>9.2f} "
            f"{summary.win_counts.get(name, 0):>6}{marker}"
        )
    lines.append(
        f"{'conjunctive (unsafe)':<18} "
        f"{summary.static_mean_ms['conjunctive']:>7.2f} "
        f"{summary.static_p99_ms['conjunctive']:>9.2f} {'-':>6}"
    )
    lines.append(
        f"{'oracle':<18} {summary.oracle_mean_ms:>9.2f} "
        f"{summary.oracle_p99_ms:>9.2f} {'-':>6}"
    )
    lines.append(
        f"best static {summary.best_static!r} leaves "
        f"{summary.oracle_gap_ms:.2f} ms ({summary.oracle_gap_pct:.1f}%) "
        "on the table vs the per-shard oracle"
    )
    lines.append(
        "rank-safe strategies agree on top-k: "
        f"{'yes' if summary.rank_safe else 'NO'}"
    )
    return "\n".join(lines)


def write_json(summary: SweepSummary, path: str | Path) -> None:
    payload = {
        "n_queries": summary.n_queries,
        "n_shards": summary.n_shards,
        "k": summary.k,
        "static_mean_ms": summary.static_mean_ms,
        "static_p99_ms": summary.static_p99_ms,
        "oracle_mean_ms": summary.oracle_mean_ms,
        "oracle_p99_ms": summary.oracle_p99_ms,
        "best_static": summary.best_static,
        "oracle_gap_ms": summary.oracle_gap_ms,
        "oracle_gap_pct": summary.oracle_gap_pct,
        "win_counts": summary.win_counts,
        "rank_safe": summary.rank_safe,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
