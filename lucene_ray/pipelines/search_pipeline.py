"""Distributed search — queries × segment shards through an actor pool.

The Ray analogue of IndexSearcher's slice execution (SURVEY §3.2): queries
are a small Dataset; each (query, shard) pair is scored by a stateful
``SearcherShard`` actor that loads its shard's SegmentReaders ONCE in
``__init__`` (term dict in RAM, the DirectoryReader analogue —
search/IndexSearcher.java leaf slices ≤250k docs); per-shard top-k rows are
then reduced by ``topk.topk_by_query``, the one per-query merge every batch
search operator shares: (score desc, doc_key asc), first k, ranks 1..k —
``TopDocs.merge`` (search/TopDocs.java:202-227). An empty result keeps its
columns.

Partitioning assumption: per-shard top-k + exact merge is rank-identical to
a single-searcher run because BM25 statistics are GLOBAL (read from the
manifest + materialized term dictionary), so a document's score does not
depend on which shard scores it. Shards are groups of segments; the
default shards_per_actor keeps each actor's resident set bounded.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from lucene_ray.cache import LRUCache
from lucene_ray.pipelines.topk import topk_by_query
from lucene_ray.searcher import IndexSearcher, check_algo

SHARD_SEARCHER_CACHE_ENTRIES = 8  # open shard searchers per actor


class SearcherShard:
    """Actor-pool callable: scores query batches against one or more segments.

    State loaded once per actor (__init__), reused across batches; an LRU of
    shard searchers bounds memory when an actor sees several shards.
    """

    def __init__(self, index_dir: str, mode: str, k: int, algo: str = "auto",
                 query_chunks_ref=None):
        self.index_dir = index_dir
        self.mode = mode
        self.k = k
        self.algo = algo
        self._searchers = LRUCache(SHARD_SEARCHER_CACHE_ENTRIES)
        # query chunks are BROADCAST once (ray.put) and parsed once per actor
        # — each work row is (shard, chunk id), so the shipped rows are
        # O(shards × chunks), not O(queries × shards), and no query string is
        # ever re-parsed per shard (VERDICT r1 search-pipeline note)
        self._chunks = None
        self._parsed: dict[int, list] = {}
        if query_chunks_ref is not None:
            import ray

            self._chunks = ray.get(query_chunks_ref)

    def _parsed_chunk(self, ci: int, searcher: IndexSearcher):
        """Query chunk ``ci`` parsed through the index's own analyzer
        (``IndexSearcher.parse``), as a local search would parse it."""
        hit = self._parsed.get(ci)
        if hit is None:
            hit = self._parsed[ci] = [
                (qid, qtext, searcher.parse(qtext)) for qid, qtext in self._chunks[ci]
            ]
        return hit

    def _searcher(self, shard: tuple) -> IndexSearcher:
        return self._searchers.get_or_put(shard, lambda: IndexSearcher(
            self.index_dir, mode=self.mode,
            segment_names=[x for x in shard if not x.startswith("g")]))  # drop gen tag

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, queries, keys, scores = [], [], [], []
        shards = batch.column("shard").to_pylist()
        chunk_ids = batch.column("qchunk").to_pylist()
        for ci, shard in zip(chunk_ids, shards):
            searcher = self._searcher(tuple(shard))
            for qid, qtext, q in self._parsed_chunk(int(ci), searcher):
                td = searcher.search(q, k=self.k, algo=self.algo)
                for sd in td.score_docs:
                    qids.append(qid)
                    queries.append(qtext)
                    keys.append(sd.doc_key)
                    scores.append(sd.score)
        return pa.table(
            {
                "query_id": pa.array(qids, type=pa.int64()),
                "query": pa.array(queries, type=pa.string()),
                "doc_key": pa.array(keys),
                "score": pa.array(np.array(scores, dtype=np.float64)),
            }
        )


def search_distributed(
    index_dir: str,
    queries: list[str],
    *,
    k: int = 10,
    mode: str = "lucene",
    algo: str = "auto",
    concurrency: int = 4,
    shards_per_actor_segments: int | None = None,
    queries_per_chunk: int = 256,
):
    """Run the fixed query set against the index through an actor pool.

    Returns a Dataset with (query_id, query, rank, doc_key, score), ranks
    1..k per query, rank-identical to a local single-process search.
    ``algo`` is ``IndexSearcher.search``'s; an unknown one raises before
    any actor starts.
    """
    check_algo(algo)
    import ray.data

    from lucene_ray.state.manifest import Manifest

    manifest = Manifest.load(index_dir)
    names = [s["name"] for s in manifest.segments]
    if shards_per_actor_segments is None:
        # size shards so the (chunk x shard) work rows keep the whole pool
        # busy (~2 rows per actor) — with few big merged segments a fixed
        # shard size would collapse the stage to one or two tasks
        shards_per_actor_segments = max(
            1, -(-len(names) // (2 * max(1, concurrency)))
        )
    shards = [
        names[i : i + shards_per_actor_segments]
        for i in range(0, len(names), shards_per_actor_segments)
    ]
    import ray

    # the manifest generation rides along in the shard key: when a commit
    # advances the index (NRT refresh / merge / deletes), warm actors miss
    # their cache and reload the new point-in-time view — the replica
    # warm-then-swap behavior of the reference's nrt replicator
    chunks = [
        list(enumerate(queries))[i : i + queries_per_chunk]
        for i in range(0, len(queries), queries_per_chunk)
    ]
    qref = ray.put(chunks)
    items = [
        {"qchunk": ci, "shard": [f"g{manifest.gen}"] + shard}
        for ci in range(len(chunks))
        for shard in shards
    ]
    ds = ray.data.from_items(items)
    cand = ds.map_batches(
        SearcherShard,
        fn_constructor_kwargs=dict(index_dir=index_dir, mode=mode, k=k, algo=algo,
                                   query_chunks_ref=qref),
        batch_format="pyarrow",
        batch_size=max(1, len(items) // max(1, concurrency * 2)),
        concurrency=(1, concurrency),
        num_cpus=1,
    )

    import pyarrow.parquet as pq

    key_type = pq.read_schema(
        os.path.join(manifest.segment_dirs()[0], "docs.parquet")).field("doc_key").type
    schema = pa.schema([("query_id", pa.int64()), ("query", pa.string()),
                        ("rank", pa.int64()), ("doc_key", key_type),
                        ("score", pa.float64())])
    return topk_by_query(cand, k, "score", "doc_key", schema)
