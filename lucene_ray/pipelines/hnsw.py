"""HNSW approximate nearest neighbor — per-shard graphs, persisted, merged.

The reference's vector search is an HNSW graph per segment
(util/hnsw/HnswGraphBuilder.java:32 build, HnswGraph.java:59 search,
persisted by codecs/lucene90/Lucene90HnswVectorFormat); conformance idea from
core/src/test/.../util/hnsw/TestHnswGraph.java (recall against brute force).
This is a from-scratch numpy implementation of the Malkov–Yashunin algorithm
(the same one Lucene implements), not a port: level assignment
``⌊−ln(U)·mL⌋`` with ``mL = 1/ln(M)``, greedy descent through upper layers,
beam search (``ef``) at each insertion layer, and the diversity neighbor-
selection heuristic (keep a candidate only if it is closer to the query than
to any already-selected neighbor — HnswGraphBuilder.diversityCheck).

Distribution (Ray-Data-first): one graph per vector shard — built inside a
``map_batches`` task with shard-sized batches, persisted as parquet next to
the shard — then queries broadcast to every shard, per-shard HNSW top-k,
and ``topk.topk_by_query``, the one per-query merge every batch search
operator shares: (cosine desc, neighbor_id asc), first k, ranks 1..k (the
text engine's per-segment top-k + TopDocs.merge pattern). Per-shard search
cost is O(ef·log n) instead of the brute-force O(n) scan, which is the
100-TB path: shards scale out, each stays memory-resident in its searcher.

Similarity: cosine via dot product over L2-normalized vectors (the
reference's VectorSimilarityFunction.COSINE path normalizes too).
"""

from __future__ import annotations

import json
import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_ray.cache import LRUCache
from lucene_ray.pipelines.knn import KNN_SCHEMA, _unit
from lucene_ray.pipelines.topk import topk_by_query
from lucene_ray.state.manifest import _atomic_write, fsync_path

SHARD_GRAPH_CACHE_ENTRIES = 32  # loaded (ids, graph) shards per actor


class HnswGraph:
    """One shard's HNSW graph over L2-normalized vectors."""

    def __init__(self, M: int = 16, ef_construction: int = 100, seed: int = 42):
        self.M = M
        self.M0 = 2 * M
        self.ef_construction = ef_construction
        self.seed = seed
        self.ml = 1.0 / np.log(M)
        self.vec: np.ndarray | None = None
        self.levels: np.ndarray | None = None
        self.adj: list[dict[int, list[int]]] = []  # adj[level][node] -> neighbor list
        self.entry = 0
        self.max_level = 0

    # ------------------------------------------------------------- build

    def build(self, vectors: np.ndarray) -> "HnswGraph":
        v = _unit(vectors)
        self.vec = v
        n = len(v)
        rng = np.random.default_rng(self.seed)
        self.levels = np.floor(-np.log(rng.random(n)) * self.ml).astype(np.int32)
        top = int(self.levels.max()) if n else 0
        self.adj = [dict() for _ in range(top + 1)]
        if n == 0:
            return self
        self.entry = 0
        self.max_level = int(self.levels[0])
        for lc in range(self.max_level + 1):
            self.adj[lc][0] = []
        for i in range(1, n):
            self._insert(i)
        return self

    def _sims(self, q: np.ndarray, nodes) -> np.ndarray:
        return self.vec[np.asarray(nodes, dtype=np.int64)] @ q

    def _greedy(self, q: np.ndarray, ep: int, lc: int) -> int:
        """Single-best greedy walk on one layer (upper-layer descent)."""
        best = ep
        best_sim = float(self.vec[ep] @ q)
        while True:
            nbrs = self.adj[lc].get(best, [])
            if not nbrs:
                return best
            sims = self._sims(q, nbrs)
            j = int(np.argmax(sims))
            if sims[j] <= best_sim:
                return best
            best = nbrs[j]
            best_sim = float(sims[j])

    def _search_layer(self, q: np.ndarray, eps: list[int], ef: int, lc: int):
        """Beam search on one layer → [(sim, node)] sorted descending."""
        import heapq

        visited = set(eps)
        ep_sims = self._sims(q, eps)
        # cand: max-heap by sim (negated); result: min-heap of kept ef best
        cand = [(-float(s), e) for s, e in zip(ep_sims, eps)]
        heapq.heapify(cand)
        result = [(float(s), e) for s, e in zip(ep_sims, eps)]
        heapq.heapify(result)
        while len(result) > ef:
            heapq.heappop(result)
        while cand:
            cs_neg, c = heapq.heappop(cand)
            if -cs_neg < result[0][0] and len(result) >= ef:
                break
            nbrs = [x for x in self.adj[lc].get(c, []) if x not in visited]
            if not nbrs:
                continue
            visited.update(nbrs)
            sims = self._sims(q, nbrs)
            for s, x in zip(sims, nbrs):
                s = float(s)
                if len(result) < ef or s > result[0][0]:
                    heapq.heappush(cand, (-s, x))
                    heapq.heappush(result, (s, x))
                    if len(result) > ef:
                        heapq.heappop(result)
        return sorted(result, reverse=True)

    def _select(self, cands_desc, M: int):
        """Diversity heuristic: keep a candidate only if it is more similar
        to the query than to any already-selected neighbor."""
        sel: list[tuple[float, int]] = []
        for sim, c in cands_desc:
            if len(sel) >= M:
                break
            if sel:
                to_sel = self.vec[[s for _, s in sel]] @ self.vec[c]
                if np.any(to_sel >= sim):
                    continue
            sel.append((sim, c))
        return sel

    def _prune(self, node: int, lc: int, M: int) -> None:
        lst = self.adj[lc][node]
        sims = self._sims(self.vec[node], lst)
        cands = sorted(zip(sims.tolist(), lst), reverse=True)
        self.adj[lc][node] = [c for _, c in self._select(cands, M)]

    def _insert(self, i: int) -> None:
        q = self.vec[i]
        level = int(self.levels[i])
        for lc in range(len(self.adj), level + 1):
            self.adj.append(dict())
        ep = self.entry
        for lc in range(self.max_level, level, -1):
            ep = self._greedy(q, ep, lc)
        eps = [ep]
        for lc in range(min(level, self.max_level), -1, -1):
            cands = self._search_layer(q, eps, self.ef_construction, lc)
            M = self.M0 if lc == 0 else self.M
            sel = self._select(cands, M)
            self.adj[lc][i] = [c for _, c in sel]
            for _, c in sel:
                self.adj[lc].setdefault(c, []).append(i)
                if len(self.adj[lc][c]) > M:
                    self._prune(c, lc, M)
            eps = [c for _, c in cands]
        if level > self.max_level:
            self.entry = i
            self.max_level = level
        else:
            for lc in range(level + 1):
                self.adj[lc].setdefault(i, [])

    # ------------------------------------------------------------- search

    def search(self, q: np.ndarray, k: int, ef: int | None = None):
        """→ (node indices, sims), descending, up to k."""
        if self.vec is None or not len(self.vec):
            return np.empty(0, dtype=np.int64), np.empty(0)
        q = _unit(q)
        ef = max(ef or 64, k)
        ep = self.entry
        for lc in range(self.max_level, 0, -1):
            ep = self._greedy(q, ep, lc)
        res = self._search_layer(q, [ep], ef, 0)[:k]
        return (
            np.array([c for _, c in res], dtype=np.int64),
            np.array([s for s, _ in res]),
        )

    # -------------------------------------------------------- persistence

    def to_tables(self) -> tuple[pa.Table, dict]:
        rows_node, rows_level, rows_nbrs = [], [], []
        for lc, layer in enumerate(self.adj):
            for node, nbrs in layer.items():
                rows_node.append(node)
                rows_level.append(lc)
                rows_nbrs.append(nbrs)
        graph = pa.table(
            {
                "node": pa.array(rows_node, type=pa.int32()),
                "level": pa.array(rows_level, type=pa.int32()),
                "neighbors": pa.array(rows_nbrs, type=pa.list_(pa.int32())),
            }
        )
        meta = {
            "entry": int(self.entry),
            "max_level": int(self.max_level),
            "M": self.M,
            "ef_construction": self.ef_construction,
            "seed": self.seed,
        }
        return graph, meta

    @staticmethod
    def from_tables(graph: pa.Table, meta: dict, vectors: np.ndarray) -> "HnswGraph":
        g = HnswGraph(M=meta["M"], ef_construction=meta["ef_construction"],
                      seed=meta.get("seed", 42))
        g.vec = _unit(vectors)
        g.entry = meta["entry"]
        g.max_level = meta["max_level"]
        g.adj = [dict() for _ in range(g.max_level + 1)]
        nodes = graph.column("node").to_numpy()
        levels = graph.column("level").to_numpy()
        nbrs = graph.column("neighbors").to_pylist()
        for n, lc, nb in zip(nodes.tolist(), levels.tolist(), nbrs):
            while lc >= len(g.adj):
                g.adj.append(dict())
            g.adj[lc][n] = list(nb)
        return g


# --------------------------------------------------------------- pipelines


def _write_shard(out_dir: str, ids: np.ndarray, vecs: np.ndarray,
                 graph: HnswGraph) -> str:
    """Atomically and durably write one shard directory (ids + vectors +
    adjacency parquet + meta.json) under ``out_dir``; returns its name.
    Shard identity = hash of its EXACT id set: a retried task reuses the
    written directory, while a resumed run with different batch boundaries
    never collides with a stale shard (whose ids differ). Every file and the
    temp directory are fsynced before the rename and ``out_dir`` after it,
    as ``write_segment`` does; a failed rename that leaves no shard raises."""
    import hashlib
    import shutil

    name = f"shard-{hashlib.md5(ids.tobytes()).hexdigest()[:12]}"
    final = os.path.join(out_dir, name)
    if os.path.exists(final):
        return name
    graph_tbl, meta = graph.to_tables()
    meta["n"] = len(ids)
    tmp = final + ".tmp-" + uuid.uuid4().hex[:8]
    os.makedirs(tmp)
    pq.write_table(graph_tbl, os.path.join(tmp, "graph.parquet"))
    pq.write_table(
        pa.table({"vec_id": pa.array(ids),
                  "vec": pa.array(list(vecs), type=pa.list_(pa.float64()))}),
        os.path.join(tmp, "vectors.parquet"),
    )
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump(meta, f)
    for fname in ("graph.parquet", "vectors.parquet", "meta.json"):
        fsync_path(os.path.join(tmp, fname))
    fsync_path(tmp)
    try:
        os.rename(tmp, final)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.path.exists(final):  # not a concurrent retry's identical shard
            raise
    fsync_path(out_dir)
    return name


def build_hnsw_index(ds, out_dir: str, *, vec_col: str = "embedding",
                     id_col: str = "vec_id", M: int = 16,
                     ef_construction: int = 100, shard_rows: int = 8192,
                     seed: int = 42) -> str:
    """Build per-shard HNSW graphs: one map_batches task per ``shard_rows``
    vectors builds and PERSISTS a graph directory through ``_write_shard``,
    mirroring the per-segment vector format; ``shards.json`` is then written
    atomically. A shard is durable once its directory exists (same resume
    contract as text segments)."""
    os.makedirs(out_dir, exist_ok=True)

    def build_shard(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        vecs = np.array(batch.column(vec_col).to_pylist(), dtype=np.float64)
        g = HnswGraph(M=M, ef_construction=ef_construction, seed=seed).build(vecs)
        name = _write_shard(out_dir, ids, vecs, g)
        return pa.table({"shard": pa.array([name]), "n": pa.array([len(ids)])})

    shards = ds.map_batches(build_shard, batch_format="pyarrow",
                            batch_size=shard_rows).take_all()
    _atomic_write(os.path.join(out_dir, "shards.json"),
                  json.dumps(sorted(r["shard"] for r in shards)))
    return out_dir


class HnswShardSearcher:
    """ACTOR-POOL shard searcher: graphs load once per (actor, shard) and
    stay resident across query batches — the SearcherShard pattern (a
    repeated-query workload pays the parquet read + graph rebuild exactly
    once per shard per actor, not once per task invocation). Bounded LRU so
    a long-lived actor that has seen many shards doesn't grow unboundedly."""

    def __init__(self, index_dir: str, qref, *, k: int, ef: int,
                 exclude_self: bool):
        import ray

        self.index_dir = index_dir
        self.k = k
        self.ef = ef
        self.exclude_self = exclude_self
        self.qids, self.qm = ray.get(qref)  # fetched ONCE per actor
        self._cache = LRUCache(SHARD_GRAPH_CACHE_ENTRIES)

    def _shard(self, name: str) -> tuple[np.ndarray, "HnswGraph"]:
        return self._cache.get_or_put(name, lambda: self._load_shard(name))

    def _load_shard(self, name: str) -> tuple[np.ndarray, "HnswGraph"]:
        d = os.path.join(self.index_dir, name)
        vt = pq.read_table(os.path.join(d, "vectors.parquet"))
        ids = vt.column("vec_id").to_numpy()
        vecs = np.array(vt.column("vec").to_pylist(), dtype=np.float64)
        with open(os.path.join(d, "meta.json")) as f:
            meta = json.load(f)
        g = HnswGraph.from_tables(
            pq.read_table(os.path.join(d, "graph.parquet")), meta, vecs)
        return ids, g

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_q, out_id, out_sim = [], [], []
        for name in batch.column("shard").to_pylist():
            ids, g = self._shard(name)
            for qid, q in zip(self.qids, self.qm):
                # the whole beam, not its first k: the graph orders ties by
                # node, so the cut re-sorts in the merge's order
                kk = max(self.ef, self.k + 1 if self.exclude_self else self.k)
                idx, sims = g.search(q, kk, ef=self.ef)
                nid = ids[idx]
                if self.exclude_self:
                    keep = nid != qid
                    nid, sims = nid[keep], sims[keep]
                take = np.lexsort((nid, -sims))[: self.k]
                out_q.extend([qid] * len(take))
                out_id.extend(nid[take].tolist())
                out_sim.extend(sims[take].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(np.array(out_sim, dtype=np.float64)),
            }
        )


def knn_hnsw(index_dir: str, query_ids, query_vecs, *, k: int = 10,
             ef: int = 96, concurrency: int = 8, exclude_self: bool = True):
    """Search a persisted HNSW index: an actor pool of shard searchers
    (graphs cached in actor state across query batches) answers ALL
    queries; ``topk_by_query`` merges the per-shard top-k — identical
    distribution shape to the text searcher. Returns Dataset
    (query_id, rank, neighbor_id, cosine), with its columns when empty."""
    import ray
    import ray.data

    with open(os.path.join(index_dir, "shards.json")) as f:
        shard_names = json.load(f)
    qv = np.asarray(query_vecs, dtype=np.float64)
    qref = ray.put((list(query_ids), qv))

    n_actors = min(concurrency, max(1, len(shard_names)))
    shards_ds = ray.data.from_items([{"shard": s} for s in shard_names])
    cand = shards_ds.map_batches(
        HnswShardSearcher,
        fn_constructor_kwargs=dict(index_dir=index_dir, qref=qref, k=k,
                                   ef=ef, exclude_self=exclude_self),
        batch_format="pyarrow",
        batch_size=1,
        # autoscaling from one actor: a fixed pool larger than the session's
        # CPUs would wait forever for actors it can never place
        concurrency=(1, n_actors),
    )

    return topk_by_query(cand, k, "cosine", "neighbor_id", KNN_SCHEMA)


def merge_hnsw_shards(index_dir: str, *, merge_factor: int = 8,
                      target_shards: int | None = None, M: int = 16,
                      ef_construction: int = 100, seed: int = 42,
                      use_ray: bool = True,
                      max_group_vectors: int = 2_000_000) -> list[str]:
    """Consolidate per-shard HNSW graphs — the segment-merge analogue.

    The reference rebuilds the merged segment's graph from the union of the
    source segments' vectors at merge time (codecs/lucene90/
    Lucene90HnswVectorFormat write path / Lucene90HnswVectorsWriter
    mergeOneField); without it shard count — and with it per-query fan-out —
    only ever grows. Groups shards smallest-first up to ``merge_factor``
    per group (``target_shards`` overrides: pack toward that many), caps
    each group at ``max_group_vectors`` summed vectors (the force-merge
    guard: no single rebuild task ever holds more), rebuilds
    ONE graph per group from the concatenated vectors inside a Ray task
    (the rebuild is the reference's merge strategy too — graphs aren't
    stitched), writes each merged shard through ``_write_shard``, swaps
    ``shards.json`` atomically, then removes consumed shard dirs. Returns the
    new shard list."""
    import shutil

    with open(os.path.join(index_dir, "shards.json")) as f:
        shards = json.load(f)
    sizes = {}
    for name in shards:
        with open(os.path.join(index_dir, name, "meta.json")) as f:
            sizes[name] = int(json.load(f).get("n", 0))
    pool = sorted(shards, key=lambda n: (sizes[n], n))
    if target_shards is not None and target_shards >= 1:
        k = max(1, (len(pool) + target_shards - 1) // target_shards)
        raw_groups = [pool[i : i + k] for i in range(0, len(pool), k)]
    else:
        raw_groups = [pool[i : i + merge_factor]
                      for i in range(0, len(pool), merge_factor)]
    # force-merge guard: one group = ONE rebuild task holding the group's
    # full vector set; cap summed vectors per group so a full-corpus
    # consolidation (e.g. target_shards=1 at web scale) degrades into
    # several bounded merges instead of one unbounded task. A lone
    # over-budget shard stays a singleton (dropped below) rather than
    # being split.
    groups: list[list[str]] = []
    for g in raw_groups:
        cur: list[str] = []
        cur_n = 0
        for name in g:
            if cur and cur_n + sizes[name] > max_group_vectors:
                groups.append(cur)
                cur, cur_n = [], 0
            cur.append(name)
            cur_n += sizes[name]
        if cur:
            groups.append(cur)
    groups = [g for g in groups if len(g) >= 2]
    if not groups:
        return shards

    def _merge(names: list[str]) -> str:
        tables = [pq.read_table(os.path.join(index_dir, n, "vectors.parquet"))
                  for n in names]
        vt = pa.concat_tables(tables)
        ids = vt.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        vecs = np.array(vt.column("vec").to_pylist(), dtype=np.float64)
        g = HnswGraph(M=M, ef_construction=ef_construction, seed=seed).build(vecs)
        return _write_shard(index_dir, ids, vecs, g)

    if use_ray:
        import ray

        @ray.remote(num_cpus=1)
        def _task(names):
            return _merge(names)

        merged = ray.get([_task.remote(g) for g in groups])
    else:
        merged = [_merge(g) for g in groups]

    consumed = {n for g in groups for n in g}
    new_shards = sorted([n for n in shards if n not in consumed] + merged)
    _atomic_write(os.path.join(index_dir, "shards.json"), json.dumps(new_shards))
    for n in consumed:
        shutil.rmtree(os.path.join(index_dir, n), ignore_errors=True)
    return new_shards
