"""Per-query top-k merge — the one reduction every batch search operator ends
with.

Each operator (``search_distributed``, the kNN paths, ``knn_hnsw``) emits
per-shard or per-batch top-k candidate rows keyed by ``query_id``; the exact
merge is ``TopDocs.merge`` (search/TopDocs.java:202-227): per query, order by
(score desc, key asc), keep the first k, number ranks 1..n. A per-shard cut in
the same order makes the merged top-k equal to a single-process top-k.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def merge_topk(group: pa.Table, *, k: int, score: str, key: str,
               schema: pa.Schema) -> pa.Table:
    """One query's candidates → its top-k in (score desc, key asc) order, with
    an int64 ``rank`` of 1..n, as a table of ``schema``."""
    top = group.sort_by([(score, "descending"), (key, "ascending")]).slice(0, k)
    top = top.append_column("rank", pa.array(np.arange(1, top.num_rows + 1, dtype=np.int64)))
    return top.select(schema.names).cast(schema)


def topk_by_query(cand, k: int, score: str, key: str, schema: pa.Schema):
    """Merge the candidate Dataset ``cand`` (a ``query_id`` column plus
    ``score``, ``key`` and the other non-rank columns of ``schema``) into each
    query's top-k. Returns a Dataset of ``schema``; an empty result keeps its
    columns (the shuffle drops the schema of an all-empty input, so a zero-row
    block of ``schema`` rides along)."""
    import ray.data

    merged = cand.groupby("query_id").map_groups(
        merge_topk, batch_format="pyarrow",
        fn_kwargs=dict(k=k, score=score, key=key, schema=schema))
    return merged.union(ray.data.from_arrow(schema.empty_table()))
