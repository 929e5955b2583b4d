"""``topk_by_query``: the one per-query top-k merge of the batch search
operators, checked against a NumPy lexsort reference."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

SCHEMA = pa.schema([("query_id", pa.int64()), ("query", pa.string()),
                    ("rank", pa.int64()), ("doc_key", pa.string()),
                    ("score", pa.float64())])


def _cand(qids, keys, scores) -> pa.Table:
    return pa.table({
        "query_id": pa.array(qids, type=pa.int64()),
        "query": pa.array([f"q{q}" for q in qids], type=pa.string()),
        "doc_key": pa.array(keys, type=pa.string()),
        "score": pa.array(scores, type=pa.float64())})


def _reference(blocks: list[pa.Table], k: int) -> list[tuple]:
    t = pa.concat_tables(blocks)
    qids = t.column("query_id").to_numpy()
    keys = np.array(t.column("doc_key").to_pylist())
    scores = t.column("score").to_numpy()
    rows = []
    for q in np.unique(qids):
        idx = np.flatnonzero(qids == q)
        top = idx[np.lexsort((keys[idx], -scores[idx]))[:k]]
        rows += [(int(q), f"q{q}", r, str(keys[i]), float(scores[i]))
                 for r, i in enumerate(top, start=1)]
    return rows


def test_topk_by_query_matches_lexsort(ray_session):
    import ray.data

    from lucene_ray.pipelines.topk import topk_by_query

    k = 3
    blocks = [
        # query 1: a three-way tie at 2.0 straddles the k boundary, split
        # over three blocks
        _cand([1, 1, 2], ["d", "a", "x"], [5.0, 2.0, 1.5]),
        _cand([1, 1, 3], ["c", "e", "m"], [2.0, 1.0, 0.5]),
        _cand([1, 2, 3, 3], ["b", "y", "n", "l"], [2.0, 1.5, 0.5, 0.7]),
    ]
    rng = np.random.default_rng(4)
    for _ in range(3):  # many queries with coarse, tie-heavy scores
        n = 60
        blocks.append(_cand(rng.integers(10, 30, n).tolist(),
                            [f"k{i:02d}" for i in rng.integers(0, 40, n)],
                            rng.integers(0, 4, n).astype(float).tolist()))
    out = topk_by_query(ray.data.from_arrow(blocks), k, "score", "doc_key", SCHEMA)
    assert out.schema().names == SCHEMA.names
    rows = sorted((tuple(r[c] for c in SCHEMA.names) for r in out.take_all()),
                  key=lambda r: (r[0], r[2]))
    want = _reference(blocks, k)
    assert rows == want
    q1 = [r[3] for r in rows if r[0] == 1]
    assert q1 == ["d", "a", "b"]  # ties at 2.0 cut by key asc
    q2 = [r[2] for r in rows if r[0] == 2]
    assert q2 == [1, 2]  # fewer than k candidates: all kept, ranked 1..n


def test_topk_by_query_empty_input_keeps_schema(ray_session):
    import ray.data

    from lucene_ray.pipelines.topk import topk_by_query

    empty = _cand([], [], [])
    out = topk_by_query(ray.data.from_arrow(empty), 5, "score", "doc_key", SCHEMA)
    assert out.count() == 0
    assert out.schema().names == SCHEMA.names
