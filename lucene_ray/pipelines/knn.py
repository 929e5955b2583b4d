"""Similarity search over embedding columns — brute-force cosine top-k and an
IVF (inverted-file) bucketed variant for the scale path.

Every path runs one per-batch kernel, ``CosineTopK``: the query matrix is
broadcast ONCE via ``ray.put``; each batch computes a (batch × dim) @
(dim × q) float64 matmul and cuts each query's local top-k in (cosine desc,
neighbor_id asc) order; ``topk.topk_by_query`` then merges per query in that
same order — no all-to-all shuffle of vectors, exactly the per-segment top-k
+ ``TopDocs.merge`` pattern the text searcher uses. Ties therefore resolve by
id, so the exact paths return the true top-k even over duplicate vectors,
and an empty result keeps its four columns.

IVF: deterministic k-means-lite centroids (seeded sample, few Lloyd
iterations via per-batch partial sums); the kernel, given the centroids and
each query's ``nprobe`` closest buckets, keeps only rows whose nearest
centroid is probed. Recall measured against brute force in tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lucene_ray.pipelines.topk import topk_by_query

KNN_SCHEMA = pa.schema([("query_id", pa.int64()), ("rank", pa.int64()),
                        ("neighbor_id", pa.int64()), ("cosine", pa.float64())])


def _vectors(col) -> np.ndarray:
    """A list<double> column of n equal-length vectors as an (n, d) float64
    matrix, read through its flat values buffer (no Python lists). A null
    vector or vectors of different lengths raise ValueError."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if col.null_count:
        raise ValueError(f"{col.null_count} null vector(s) in a vector column")
    lengths = pc.min_max(pc.list_value_length(col))
    d = lengths["min"].as_py() or 0
    if lengths["max"].as_py() not in (None, d):
        raise ValueError("vectors of different lengths in one column")
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64, copy=False)
    return flat.reshape(n, d)


def _unit(v) -> np.ndarray:
    """``v`` (a vector or a matrix of row vectors) scaled to unit L2 norm;
    a zero vector stays zero."""
    v = np.asarray(v, dtype=np.float64)
    return v / np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1e-30)


class CosineTopK:
    """map_batches callable — the one per-batch kernel of every kNN path:
    cosine of each row against the broadcast unit queries, then each query's
    local top-k in (cosine desc, neighbor_id asc) order. ``ref`` holds
    (query_ids, unit query matrix, centroids, probes); with centroids, a row
    is a candidate of query i only if its nearest centroid is in
    ``probes[i]``."""

    def __init__(self, ref, k: int, vec_col: str, id_col: str, exclude_self: bool):
        import ray

        self.query_ids, self.qn, self.centroids, self.probes = ray.get(ref)
        self.k = k
        self.vec_col = vec_col
        self.id_col = id_col
        self.exclude_self = exclude_self

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        out_q, out_id, out_sim = [], [], []
        if len(ids):
            v = _unit(_vectors(batch.column(self.vec_col)))
            sims = v @ self.qn.T  # (n, q)
            if self.centroids is not None:
                assign = np.argmax(v @ self.centroids.T, axis=1)
            for qi, qid in enumerate(self.query_ids):
                mask = ids != qid if self.exclude_self else np.ones(len(ids), bool)
                if self.centroids is not None:
                    mask &= np.isin(assign, self.probes[qi])
                idx = np.flatnonzero(mask)
                take = idx[np.lexsort((ids[idx], -sims[idx, qi]))[: self.k]]
                out_q.append(np.full(len(take), qid, dtype=np.int64))
                out_id.append(ids[take])
                out_sim.append(sims[take, qi])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q or [[]]), type=pa.int64()),
                "neighbor_id": pa.array(np.concatenate(out_id or [[]]), type=pa.int64()),
                "cosine": pa.array(np.concatenate(out_sim or [[]]), type=pa.float64()),
            }
        )


def _cosine_topk(ds, query_ids, qn, *, k: int, vec_col: str, id_col: str,
                 concurrency: int, exclude_self: bool = True,
                 centroids: np.ndarray | None = None, probes=None):
    """``CosineTopK`` over ``ds``, merged by ``topk_by_query``. Returns
    Dataset (query_id, rank, neighbor_id, cosine)."""
    import ray

    ref = ray.put((list(query_ids), qn, centroids, probes))
    cand = ds.map_batches(
        CosineTopK,
        fn_constructor_args=(ref, k, vec_col, id_col, exclude_self),
        batch_format="pyarrow",
        concurrency=(1, concurrency),
    )
    return topk_by_query(cand, k, "cosine", "neighbor_id", KNN_SCHEMA)


def knn_brute_force(ds, query_ids, query_vecs, *, k: int = 10, vec_col: str = "embedding",
                    id_col: str = "vec_id", concurrency: int = 4, exclude_self: bool = True):
    """Exact cosine top-k for each query vector. Returns Dataset
    (query_id, rank, neighbor_id, cosine)."""
    return _cosine_topk(ds, query_ids, _unit(query_vecs), k=k, vec_col=vec_col,
                        id_col=id_col, concurrency=concurrency,
                        exclude_self=exclude_self)


# ----------------------------------------------------------------------- IVF


def train_centroids(ds, *, n_centroids: int = 16, vec_col: str = "embedding",
                    iters: int = 5, seed: int = 42, sample_rows: int = 2048) -> np.ndarray:
    """Deterministic k-means-lite: seeded sample for init, Lloyd iterations
    with per-batch partial sums (map_batches combiner → driver reduce)."""
    sample = ds.limit(sample_rows).take_all()
    X0 = np.array([r[vec_col] for r in sample], dtype=np.float64)
    rng = np.random.default_rng(seed)
    cent = X0[rng.choice(len(X0), size=min(n_centroids, len(X0)), replace=False)]
    cent = _unit(cent)

    for _ in range(iters):
        import ray

        cref = ray.put(cent)

        def partials(batch: pa.Table) -> pa.Table:
            c = ray.get(cref)
            vn = _unit(_vectors(batch.column(vec_col)))
            assign = np.argmax(vn @ c.T, axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, assign, vn)
            counts = np.bincount(assign, minlength=len(c)).astype(np.int64)
            return pa.table(
                {
                    "centroid": pa.array(np.arange(len(c), dtype=np.int64)),
                    "sum": pa.array(list(sums), type=pa.list_(pa.float64())),
                    "count": pa.array(counts),
                }
            )

        # bounded collect (n_batches × n_centroids rows), reduced vectorized
        sums = np.zeros_like(cent)
        counts = np.zeros(len(cent), dtype=np.int64)
        for t in ds.map_batches(partials, batch_format="pyarrow") \
                   .iter_batches(batch_format="pyarrow"):
            if not t.num_rows:
                continue
            ci = t.column("centroid").to_numpy(zero_copy_only=False)
            sv = np.asarray(t.column("sum").combine_chunks()
                            .flatten().to_numpy(zero_copy_only=False)
                            ).reshape(t.num_rows, -1)
            np.add.at(sums, ci, sv)
            np.add.at(counts, ci,
                      t.column("count").to_numpy(zero_copy_only=False))
        nz = counts > 0
        cent[nz] = sums[nz] / counts[nz, None]
        cent = _unit(cent)
    return cent


def knn_ivf(ds, query_ids, query_vecs, *, k: int = 10, n_centroids: int = 16,
            nprobe: int = 4, vec_col: str = "embedding", id_col: str = "vec_id",
            concurrency: int = 4, seed: int = 42):
    """IVF-bucketed approximate top-k: probe only the nprobe nearest centroid
    buckets per query. Returns (query_id, rank, neighbor_id, cosine)."""
    cent = train_centroids(ds, n_centroids=n_centroids, vec_col=vec_col, seed=seed)
    qn = _unit(query_vecs)
    probe = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]  # (q, nprobe)
    return _cosine_topk(ds, query_ids, qn, k=k, vec_col=vec_col, id_col=id_col,
                        concurrency=concurrency, centroids=cent, probes=probe)


# ------------------------------------------------- IVF with materialized layout


def build_ivf_index(ds, out_dir: str, *, n_centroids: int = 16,
                    vec_col: str = "embedding", id_col: str = "vec_id",
                    seed: int = 42) -> str:
    """Materialize an IVF BUCKETED layout: vectors written to one parquet
    directory PER CENTROID bucket (partitioned write via a bucket column).
    Query-time probing then reads only the ``nprobe`` bucket directories —
    pruning scan I/O, not just compute (the round-1 variant re-assigned
    vectors per query and still streamed every batch). Centroids persist
    alongside for assignment-free probing."""
    import json
    import os

    import pyarrow.parquet as pq
    import ray

    os.makedirs(out_dir, exist_ok=True)
    cent = train_centroids(ds, n_centroids=n_centroids, vec_col=vec_col, seed=seed)
    cref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        vn = _unit(_vectors(batch.column(vec_col)))
        b = np.argmax(vn @ c.T, axis=1).astype(np.int64)
        return pa.table({id_col: batch.column(id_col),
                         vec_col: batch.column(vec_col),
                         "bucket": pa.array(b)})

    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["bucket"]
    )
    pq.write_table(
        pa.table({"centroid": pa.array(range(len(cent)), type=pa.int64()),
                  "vec": pa.array(list(cent), type=pa.list_(pa.float64()))}),
        os.path.join(out_dir, "centroids.parquet"),
    )
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump({"n_centroids": int(len(cent)), "vec_col": vec_col,
                   "id_col": id_col}, f)
    return out_dir


def knn_ivf_indexed(index_dir: str, query_ids, query_vecs, *, k: int = 10,
                    nprobe: int = 4, concurrency: int = 4):
    """Search a materialized IVF layout: per query set, compute the probed
    buckets from the persisted centroids, ``read_parquet`` ONLY those bucket
    directories (read-level pruning), brute-force within them, exact
    per-query merge."""
    import glob
    import json
    import os

    import pyarrow.parquet as pq

    from lucene_ray.sources.io import read_parquet_clean

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    ct = pq.read_table(os.path.join(index_dir, "centroids.parquet"))
    cent = _vectors(ct.column("vec"))
    qn = _unit(query_vecs)
    probe = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]
    buckets = sorted({int(b) for row in probe for b in row})
    # read_parquet with a path LIST expects files — expand each probed
    # bucket directory (directories are only auto-expanded for single paths)
    paths = [
        f
        for b in buckets
        for f in sorted(glob.glob(os.path.join(index_dir, f"bucket={b}", "*.parquet")))
    ]
    # per-query probe masks still apply within the union of read buckets
    return _cosine_topk(read_parquet_clean(paths), query_ids, qn, k=k,
                        vec_col=meta["vec_col"], id_col=meta["id_col"],
                        concurrency=concurrency, centroids=cent, probes=probe)
