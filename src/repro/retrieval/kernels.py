"""Vectorized MaxScore kernel over the columnar postings arena.

A drop-in replacement for the cursor-based
:func:`~repro.retrieval.maxscore.maxscore_search` — same hits, same
scores (bit for bit, including float-summation order), same tie-breaks,
and the same ``CostStats`` counters — that replaces the per-posting
Python loop with numpy work on the arena columns of
:class:`~repro.index.arena.PostingsArena`.

:func:`maxscore_search_kernel` is chunk-scored: candidate
doc ids are pulled from the essential lists a block at a time, whole
blocks are scored with ``searchsorted`` + masked gathers, and
non-essential lists are probed level-by-level with vectorized lookups.
The only inherently sequential step is the collector offer, because each
accepted document can raise the top-k threshold that the *next*
document's pruning decisions depend on.  But thresholds only rise, so a
batch needs **one** cascade, run under its batch-start threshold θ0:

* per level ``j`` (visited ``fe-1 → 0``) the cascade keeps the *survival
  bound* ``T_j[c]`` — the running minimum, over the levels visited so
  far, of *(partial score before the level + ``prefix[level]``)*, the
  same float64 additions in the same order as the scalar — and probes
  level ``j`` for every candidate with ``T_j >= θ0``.  The scalar probes
  level ``j`` for ``c`` iff ``T_j[c] >= θ(c)``, the threshold in force
  when it reaches ``c``; ``θ(c) >= θ0``, so the cascade probes a
  superset, and a landing searched from the batch-start position is the
  absolute position the scalar's cursor lands on;
* the scalar makes an offer that is not a provable no-op iff
  ``min(T_0[c], score[c]) >= θ(c)``, so one plain-Python walk, in doc
  order, over the candidates with ``min(T_0, score) >= θ0`` offers those
  that still pass the live threshold and records ``(index, new θ)`` at
  each move;
* the recorded moves make ``θ(c)`` a step function, and one pass per
  level counts what the scalar really probed (``T_j >= θ(c)``): the
  skip counter is the telescoped sum of the per-probe cursor advances.

The expensive work — candidate union, essential scoring, the cascade —
happens once per batch; only an *essential-split* change (the threshold
crossing an upper-bound prefix sum, at most once per query term)
invalidates the candidate stream itself, truncating the batch and
rolling list positions back to exactly where the scalar loop would
stand.  This makes the pruning behaviour — ``postings_scored``,
``postings_skipped``, ``docs_evaluated`` — independent of chunk size and
byte-identical to the reference (a property the test suite checks by
sweeping chunk sizes down to 1).  Queries whose posting lists are too
short to amortize numpy-call overhead dispatch to the scalar reference
outright (bit-identical by contract).

**Column widths.**  A compressed arena hands its runs out as its decode
LRU keeps them (:class:`~repro.index.arena.TermRun`): doc ids in the
arena-wide dtype, ``int32`` when they fit, and scores as a gather-on-read
column of codebook indices.  The kernel touches the columns only through
array operations and reads them as they come, under one rule: a scalar
``searchsorted`` needle is taken from the column — a numpy scalar of its
dtype — never through ``int()``, because a Python int against an
``int32`` column makes numpy upcast the whole haystack on every call.

Float bit-identity holds because the kernel performs the exact same
sequence of float64 additions per document accumulator as the reference
— numpy element-wise adds and Python float adds are the same IEEE-754
operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.index.arena import TermRun
from repro.index.shard import IndexShard
from repro.retrieval.maxscore import maxscore_search
from repro.retrieval.result import CostStats, SearchResult
from repro.retrieval.topk import TopKCollector

__all__ = [
    "KernelStats",
    "DEFAULT_CHUNK",
    "maxscore_search_kernel",
]

DEFAULT_CHUNK = 4096
"""Cap on postings pulled per essential list per scoring block (MaxScore).

The kernel adapts the live block size inside ``[_MIN_CHUNK, chunk]``: it
halves after a batch truncated by an essential-split change (the
discarded tail was wasted work) and doubles after a batch that ran to
completion.  Exactness is chunk-size independent — the equivalence suite
sweeps fixed sizes down to 1 — so adaptivity is purely a throughput
knob, and a flat one: with one cascade per batch a ``search_cold`` pass
reads the same wall time at caps of 4 096, 16 384 and 65 536 (the
residual is data-bound, ``docs/bench/pr18.md``).
"""

_MIN_CHUNK = 32

#: Below this many total query postings the scalar reference outruns the
#: kernel (fixed numpy-call overhead dominates short lists); since both
#: are bit-identical, MaxScore dispatches on size without observable
#: effect.
_KERNEL_MIN_POSTINGS = 2048

_INF = float("inf")


@dataclass
class KernelStats:
    """Optional per-call kernel instrumentation (telemetry counters).

    ``chunks`` counts vectorized batches (one cascade per batch),
    ``offers`` the sequential collector offers actually performed (the
    scalar step the chunked kernel cannot avoid, after no-op
    pre-filtering), and ``threshold_restarts`` the batches truncated
    because an offer moved the essential split — the only event that
    discards vectorized work.
    """

    chunks: int = 0
    offers: int = 0
    threshold_restarts: int = 0


def _sorted_runs(shard: IndexShard, terms: list[str]) -> list[TermRun]:
    """Term runs sorted by upper bound ascending (MaxScore's order).

    Mirrors ``maxscore._prepare_cursors``: query-term order, missing
    terms skipped, then a stable sort so upper-bound ties keep query
    order — the order the reference sums scores in.
    """
    arena = shard.arena
    runs = [run for run in (arena.run(term) for term in terms) if run is not None]
    runs.sort(key=lambda run: run.upper_bound)
    return runs


# --------------------------------------------------------------- MaxScore
def maxscore_search_kernel(
    shard: IndexShard,
    terms: list[str],
    k: int,
    chunk: int = DEFAULT_CHUNK,
    stats: KernelStats | None = None,
    min_postings: int = _KERNEL_MIN_POSTINGS,
) -> SearchResult:
    """Chunk-scored MaxScore, bit-identical to :func:`~repro.retrieval.
    maxscore.maxscore_search` in hits, scores and cost counters.

    ``min_postings`` sets the scalar-dispatch floor (tests pass 0 to
    force the vectorized path on small corpora).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if chunk < 1:
        raise ValueError("chunk must be positive")
    runs = _sorted_runs(shard, terms)
    collector = TopKCollector(k)
    cost = CostStats(n_terms=len(terms))
    if not runs:
        return SearchResult(hits=[], cost=cost)
    if min_postings and sum(run.size for run in runs) < min_postings:
        # Tiny workloads are dominated by per-batch numpy overhead; the
        # scalar loop is faster there and bit-identical by contract, so
        # dispatching on size cannot change any observable result.
        return maxscore_search(shard, terms, k)

    n = len(runs)
    # prefix[i] = sum of upper bounds of runs[0..i], accumulated exactly
    # like the reference (Python float adds) so boundary comparisons match.
    prefix = [0.0] * n
    acc = 0.0
    for i, run in enumerate(runs):
        acc += run.upper_bound
        prefix[i] = acc

    # Adaptive block size: an essential-split change truncates the batch
    # and throws the vectorized tail away, so start small, halve after a
    # truncated batch and double after a clean one ([lo_chunk, chunk]).
    lo_chunk = chunk if chunk < _MIN_CHUNK else _MIN_CHUNK
    cur = lo_chunk

    offer = collector.offer
    get_threshold = collector.threshold
    threshold = get_threshold()

    while True:
        first_essential = n
        for i in range(n):
            if prefix[i] >= threshold:
                first_essential = i
                break
        if first_essential >= n:
            break  # even all lists together cannot reach the threshold

        fe = first_essential
        essential = runs[fe:]

        # ---- candidate block: the next `cur` postings of every
        # essential list, truncated to the smallest per-list horizon so
        # no document <= bound can be missing from the union.  `bound`
        # (None: no list was cut short) and `stop_doc` below are
        # searchsorted needles and stay numpy scalars of the doc-id
        # column's dtype: a Python int against a narrower column makes
        # numpy upcast the whole haystack on every call.  The searches
        # are method calls: `np.searchsorted(a, v)` with a scalar needle
        # spends more in its dispatch wrapper than in the search.
        bound = None
        slices = []
        for run in essential:
            lo = run.pos
            hi = lo + cur
            if hi > run.size:
                hi = run.size
            sl = run.doc_ids[lo:hi]
            slices.append(sl)
            if hi < run.size and sl.size:
                last = sl[-1]
                if bound is None or last < bound:
                    bound = last

        if len(slices) == 1:
            # Single essential list: the slice is already sorted and
            # unique, and each candidate's essential score is the aligned
            # entry of the run's score column (a zero-copy view on a raw
            # arena — it is never mutated, the cascade adds to a copy).
            candidates = slices[0]
            if bound is not None:
                candidates = candidates[
                    : int(candidates.searchsorted(bound, side="right"))
                ]
            m = int(candidates.size)
            if m == 0:
                break  # the only essential list is exhausted
            run0 = essential[0]
            ess_scores = run0.scores[run0.pos : run0.pos + m]
            scored_cnt = np.ones(m, dtype=np.int64) if fe else None
        else:
            merged = np.concatenate(slices)
            if merged.size == 0:
                break  # every essential list exhausted: no candidate exists
            # sort + adjacent-compare dedup (cheaper than np.unique's
            # hash path on these small blocks).
            merged.sort()
            keep = np.empty(merged.size, dtype=bool)
            keep[0] = True
            np.not_equal(merged[1:], merged[:-1], out=keep[1:])
            candidates = merged[keep]
            if bound is not None:
                candidates = candidates[
                    : int(candidates.searchsorted(bound, side="right"))
                ]
            m = int(candidates.size)

            ess_scores = np.zeros(m, dtype=np.float64)
            scored_cnt = np.zeros(m, dtype=np.int64)

            # ---- essential scoring: whole slices at once, run by run in
            # ascending-upper-bound order (the reference's summation order).
            for run, sl in zip(essential, slices):
                end = (
                    int(sl.searchsorted(bound, side="right"))
                    if bound is not None
                    else int(sl.size)
                )
                if end:
                    idx = candidates.searchsorted(sl[:end])
                    ess_scores[idx] += run.scores[run.pos : run.pos + end]
                    scored_cnt[idx] += 1

        # ---- one cascade under the batch-start threshold theta0, largest
        # bound first.  Thresholds only rise, so whatever a later threshold
        # probes is probed here too.  `reach` is the survival bound T_j of
        # the module docstring: the scalar abandons a candidate once it
        # falls below the threshold in force.
        theta0 = threshold
        levels = []
        if fe:
            scores = ess_scores.copy()
            reach = None
            for j in range(fe - 1, -1, -1):
                run = runs[j]
                ceiling = scores + prefix[j]
                reach = ceiling if reach is None else np.minimum(reach, ceiling)
                probe = (reach >= theta0).nonzero()[0]
                if probe.size == 0:
                    break  # reach only falls: deeper levels are dead too
                cand_j = candidates[probe]
                lands = run.doc_ids[run.pos :].searchsorted(cand_j, side="left")
                lands += run.pos
                # A landing past the end clips onto the last posting,
                # which is smaller than the candidate: no match.
                match = run.doc_ids.take(lands, mode="clip") == cand_j
                hit = match.nonzero()[0]
                if hit.size:
                    scores[probe[hit]] += run.scores[lands[hit]]
                levels.append((run, probe, lands, match, reach))
            reach = np.minimum(reach, scores)
        else:
            scores = reach = ess_scores

        # ---- offer walk, doc order, plain Python.  Only candidates whose
        # bound and score both reach theta0 can change the heap; below the
        # live threshold the scalar abandons the candidate or makes a
        # no-op offer ((score, -doc) cannot beat a full heap's root).
        walk = (reach >= theta0).nonzero()[0]
        stop = m - 1
        truncated = False
        offers_done = 0
        moved_at: list[int] = []
        steps = [theta0]  # theta(c) = steps[number of moves before c]
        split_bar = prefix[fe]
        for i, doc, score, bar in zip(
            walk.tolist(),
            candidates[walk].tolist(),
            scores[walk].tolist(),
            reach[walk].tolist(),
        ):
            if bar < threshold:
                continue
            offer(doc, score)
            offers_done += 1
            new_threshold = get_threshold()
            if new_threshold != threshold:
                threshold = new_threshold
                moved_at.append(i)
                steps.append(new_threshold)
                if split_bar < new_threshold and i < stop:
                    # The essential split changed: the rest of the batch
                    # was built for the wrong candidate stream.
                    stop = i
                    truncated = True
                    break

        # ---- counters and cursor positions up to the stopping candidate.
        # Level j really probed candidate c iff T_j[c] >= theta(c), the
        # threshold in force when c was reached: a step function of the
        # recorded moves.  Candidates past a truncation count for nothing.
        ne_scored = 0
        if moved_at:
            if truncated:
                steps[-1] = _INF
            moves = np.array(moved_at)
            theta = np.array(steps)
        for run, probe, lands, match, reach_j in levels:
            if moved_at:
                kept = (
                    reach_j[probe] >= theta[moves.searchsorted(probe, side="left")]
                ).nonzero()[0]
                if kept.size == 0:
                    continue
                lands = lands[kept]
                match = match[kept]
            matched = int(np.count_nonzero(match))
            last_match = int(match[-1])
            land = int(lands[-1])
            cost.postings_skipped += land - run.pos - (matched - last_match)
            run.pos = land + last_match
            ne_scored += matched
        stop_doc = candidates[stop]
        cost.docs_evaluated += stop + 1
        cost.postings_scored += ne_scored + (
            stop + 1 if scored_cnt is None else int(scored_cnt[: stop + 1].sum())
        )
        for run in essential:
            p0 = run.pos
            run.pos = p0 + int(run.doc_ids[p0:].searchsorted(stop_doc, side="right"))
        if stats is not None:
            stats.chunks += 1
            stats.offers += offers_done
            stats.threshold_restarts += truncated
        cur = (cur >> 1) if truncated else (cur << 1)
        if cur < lo_chunk:
            cur = lo_chunk
        elif cur > chunk:
            cur = chunk

    return SearchResult(hits=collector.results(), cost=cost)
