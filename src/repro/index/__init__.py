"""Inverted-index substrate.

Everything an ISN needs to hold and search its partition of the collection:
document model, DAAT cursors over posting columns, the index builder, the
immutable shard, index-time term statistics (the feature source for the
Cottage predictors), document-allocation policies, and the Central Sample
Index used by the Rank-S baseline.
"""

from repro.index.arena import (
    CodedScores,
    CompressedPostingsArena,
    DecodeStats,
    PostingsArena,
    TermRun,
    bits_for,
    pack_bits,
    unpack_bits,
)
from repro.index.builder import (
    CollectionStats,
    IndexBuilder,
    build_shards,
    gather_collection_stats,
)
from repro.index.csi import CentralSampleIndex
from repro.index.documents import Document
from repro.index.partitioner import (
    partition_hash,
    partition_round_robin,
    partition_topical,
)
from repro.index.postings import END_OF_LIST, PostingCursor
from repro.index.shard import IndexShard
from repro.index.store import (
    LazyIndexShard,
    open_store,
    open_store_buffer,
    open_stores,
    pack_shards,
    serialize_shard,
    store_info,
    write_store,
)
from repro.index.term_stats import TermStats, TermStatsIndex, compute_term_stats

__all__ = [
    "Document",
    "PostingCursor",
    "END_OF_LIST",
    "IndexBuilder",
    "build_shards",
    "CollectionStats",
    "gather_collection_stats",
    "IndexShard",
    "PostingsArena",
    "CompressedPostingsArena",
    "DecodeStats",
    "TermRun",
    "CodedScores",
    "bits_for",
    "pack_bits",
    "unpack_bits",
    "LazyIndexShard",
    "write_store",
    "serialize_shard",
    "open_store",
    "open_store_buffer",
    "open_stores",
    "pack_shards",
    "store_info",
    "TermStats",
    "TermStatsIndex",
    "compute_term_stats",
    "partition_round_robin",
    "partition_hash",
    "partition_topical",
    "CentralSampleIndex",
]
