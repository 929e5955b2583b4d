"""Tests for the data-prep pipelines: dedup (exact/minhash/simhash), text
stats, langid, fingerprints, knn (brute force + IVF recall), multimodal
plumbing."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF_DIR}/documents.parquet")


@pytest.fixture(scope="module")
def docs_pd():
    return pq.read_table(f"{SF_DIR}/documents.parquet").to_pandas()


def test_dedup_exact_content(docs_ds, docs_pd):
    from lucene_ray.pipelines.dedup import dedup_exact_content

    out = dedup_exact_content(docs_ds).to_pandas()
    want = (
        docs_pd.assign(h=[hashlib.md5(t.encode()).hexdigest() for t in docs_pd.text])
        .sort_values("doc_id")
        .groupby("h", as_index=False)
        .first()
    )
    assert sorted(out["doc_id"]) == sorted(want["doc_id"])


def test_dedup_by_key_last_writer_wins(ray_session):
    import ray.data

    rows = [
        {"url": "a", "ts": 1, "v": "old"},
        {"url": "a", "ts": 5, "v": "new"},
        {"url": "b", "ts": 2, "v": "only"},
    ]
    from lucene_ray.pipelines.dedup import dedup_exact_by_key

    out = dedup_exact_by_key(ray.data.from_items(rows), key_col="url", ts_col="ts").to_pandas()
    got = dict(zip(out.url, out.v))
    assert got == {"a": "new", "b": "only"}


def test_minhash_lsh_finds_near_dups(ray_session, docs_pd):
    import ray.data

    from lucene_ray.pipelines.dedup import minhash_lsh_pairs

    # plant two near-dup pairs on top of the real corpus
    base = docs_pd[["doc_id", "text"]].copy()
    extra = pd.DataFrame(
        {
            "doc_id": [100001, 100002],
            "text": [
                base.text.iloc[0] + " extra tail token",
                base.text.iloc[1],
            ],
        }
    )
    ds = ray.data.from_pandas(pd.concat([base, extra], ignore_index=True))
    pairs = minhash_lsh_pairs(ds, threshold=0.6).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs.id_a, pairs.id_b)}
    assert (0, 100001) in got
    assert (1, 100002) in got
    assert (pairs.jaccard >= 0.6).all()


def test_simhash_exact_dup_distance_zero(ray_session, docs_pd):
    import ray.data

    from lucene_ray.pipelines.dedup import simhash_near_pairs

    base = docs_pd[["doc_id", "text"]].head(50).copy()
    extra = pd.DataFrame({"doc_id": [200001], "text": [base.text.iloc[3]]})
    ds = ray.data.from_pandas(pd.concat([base, extra], ignore_index=True))
    pairs = simhash_near_pairs(ds, max_hamming=2).to_pandas()
    got = {(int(a), int(b)): int(h) for a, b, h in zip(pairs.id_a, pairs.id_b, pairs.hamming)}
    assert got.get((3, 200001)) == 0


def test_token_stats_and_quality(docs_ds, docs_pd):
    from lucene_ray.pipelines.textstats import quality_scores, token_stats

    out = token_stats(docs_ds).to_pandas().set_index("doc_id").sort_index()
    row0 = docs_pd.set_index("doc_id").loc[0]
    toks = row0.text.split()
    assert out.loc[0, "n_tokens"] == len(toks)
    assert out.loc[0, "n_chars"] == len(row0.text)
    assert out.loc[0, "token_chars"] == sum(len(w) for w in toks)
    q = quality_scores(docs_ds).to_pandas()
    assert q["passes_quality"].dtype == bool
    assert 0 <= q["stop_ratio"].max() <= 1


def test_lang_id_deterministic(docs_ds):
    from lucene_ray.pipelines.textstats import lang_id

    a = lang_id(docs_ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = lang_id(docs_ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert (a.pred_lang == b.pred_lang).all()
    assert set(a.pred_lang) <= {"en", "es", "de", "fr", "zh", "ja", "ko"}


def test_lang_id_scripts():
    from lucene_ray.pipelines.textstats import LangId

    li = LangId()
    assert li.guess("这是中文文本") == "zh"
    assert li.guess("ひらがなのテキスト") == "ja"
    assert li.guess("한국어 텍스트") == "ko"
    assert li.guess("le chat est dans la maison et les chiens") == "fr"


def test_fingerprints_match_definition(docs_ds, docs_pd):
    from lucene_ray.pipelines.textstats import fingerprints

    out = fingerprints(docs_ds).to_pandas().set_index("doc_id")
    t = docs_pd.set_index("doc_id").loc[7, "text"]
    want = hashlib.md5(" ".join(sorted(set(t.split()))).encode()).hexdigest()
    assert out.loc[7, "fingerprint"] == want


@pytest.fixture(scope="module")
def emb(ray_session):
    import ray.data

    ds = ray.data.read_parquet(f"{SF_DIR}/embeddings.parquet")
    pdf = pq.read_table(f"{SF_DIR}/embeddings.parquet").to_pandas()
    return ds, pdf


def _np_brute(pdf, qids, k):
    X = np.array(pdf.embedding.tolist(), dtype=np.float64)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    ids = pdf.vec_id.to_numpy()
    out = {}
    for qid in qids:
        q = Xn[ids == qid][0]
        sims = Xn @ q
        mask = ids != qid
        order = sorted(zip(-sims[mask], ids[mask]))
        out[qid] = [int(i) for _, i in order[:k]]
    return out


def test_knn_brute_force_matches_numpy(emb):
    from lucene_ray.pipelines.knn import knn_brute_force

    ds, pdf = emb
    qids = [0, 1, 2]
    qvecs = np.array(pdf[pdf.vec_id.isin(qids)].sort_values("vec_id").embedding.tolist())
    out = knn_brute_force(ds, qids, qvecs, k=5).to_pandas()
    want = _np_brute(pdf, qids, 5)
    for qid in qids:
        got = out[out.query_id == qid].sort_values("rank").neighbor_id.tolist()
        assert got == want[qid], qid


@pytest.mark.parametrize("ids", [[0, 5, 3], [0, 3, 5]])
def test_knn_ties_cut_by_neighbor_id(ray_session, tmp_path, ids):
    """Every per-batch and per-shard cut orders (cosine desc, neighbor_id
    asc), as the merge does: in one block where ids 5 and 3 share a vector,
    the top-1 neighbor of 0 is 3 whichever row comes first."""
    import ray.data

    from lucene_ray.pipelines.hnsw import build_hnsw_index, knn_hnsw
    from lucene_ray.pipelines.knn import (build_ivf_index, knn_brute_force, knn_ivf,
                                          knn_ivf_indexed)

    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(ids, type=pa.int64()),
        "embedding": pa.array(list(X), type=pa.list_(pa.float64()))}))
    ivf = build_ivf_index(ds, str(tmp_path / "ivf"), n_centroids=1)
    hnsw = build_hnsw_index(ds, str(tmp_path / "hnsw"), M=4, ef_construction=8)
    for out in (knn_brute_force(ds, [0], X[:1], k=1, concurrency=1),
                knn_ivf(ds, [0], X[:1], k=1, n_centroids=1, nprobe=1, concurrency=1),
                knn_ivf_indexed(ivf, [0], X[:1], k=1, nprobe=1, concurrency=1),
                knn_hnsw(hnsw, [0], X[:1], k=1, concurrency=1)):
        assert out.to_pandas().neighbor_id.tolist() == [3]


def test_knn_ivf_recall(emb):
    from lucene_ray.pipelines.knn import knn_ivf

    ds, pdf = emb
    qids = [0, 5, 10, 15]
    qvecs = np.array(pdf[pdf.vec_id.isin(qids)].sort_values("vec_id").embedding.tolist())
    out = knn_ivf(ds, qids, qvecs, k=10, n_centroids=8, nprobe=4).to_pandas()
    want = _np_brute(pdf, qids, 10)
    recalls = []
    for qid in qids:
        got = set(out[out.query_id == qid].neighbor_id.tolist())
        recalls.append(len(got & set(want[qid])) / 10)
    assert np.mean(recalls) >= 0.5  # nprobe=4/8 buckets — decent recall


def test_multimodal_plumbing(docs_ds):
    from lucene_ray.pipelines.multimodal import (
        audio_features,
        image_features,
        synthesize_media_batch,
    )

    media = docs_ds.map_batches(synthesize_media_batch, batch_format="pyarrow")
    imgs = image_features(media, concurrency=2).to_pandas()
    assert len(imgs) == 500
    assert all(len(f) == 64 for f in imgs.feature.head(5))
    # determinism of the stubbed decoder
    imgs2 = image_features(media, concurrency=2).to_pandas()
    m1 = imgs.sort_values("media_id").feature.iloc[0]
    m2 = imgs2.sort_values("media_id").feature.iloc[0]
    assert np.allclose(m1, m2)
    aud = audio_features(media.limit(50), concurrency=2).to_pandas()
    assert all(len(f) == 16 for f in aud.frame_rms)


def test_session_windows(ray_session):
    import pandas as pd
    import ray.data

    from lucene_ray.pipelines.windows import session_window_agg

    rows = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 2, 2],
            "ts": pd.to_datetime(
                ["2024-01-01 00:00", "2024-01-01 00:10", "2024-01-01 02:00",
                 "2024-01-01 00:00", "2024-01-01 00:45"]
            ),
            "value": [1.0, 2.0, 3.0, 4.0, 5.0],
        }
    )
    out = session_window_agg(ray.data.from_pandas(rows), gap="30min").to_pandas()
    u1 = out[out.user_id == 1].sort_values("session_start")
    assert u1.n.tolist() == [2, 1]          # 00:00+00:10 together, 02:00 alone
    assert u1.sum_value.tolist() == [3.0, 3.0]
    u2 = out[out.user_id == 2].sort_values("session_start")
    assert u2.n.tolist() == [1, 1]          # 45min gap > 30min


def test_tumbling_window_matches_pandas(ray_session):
    import pandas as pd
    import ray.data

    from lucene_ray.pipelines.windows import tumbling_window_agg

    ds = ray.data.read_parquet("/root/testdata/sf0.001/events.parquet")
    out = tumbling_window_agg(ds, window="1h").to_pandas()
    pdf = pd.read_parquet("/root/testdata/sf0.001/events.parquet")
    epoch_us = pdf.ts.astype("datetime64[us]").astype("int64")
    pdf["window_start"] = (epoch_us // 10**6 // 3600) * 3600
    want = (
        pdf.groupby(["event_type", "window_start"])
        .agg(n=("value", "size"), sum_value=("value", "sum"))
        .reset_index()
    )
    merged = out.merge(want, on=["event_type", "window_start"], suffixes=("", "_w"))
    assert len(merged) == len(want) == len(out)
    assert (merged.n == merged.n_w).all()
    assert abs(merged.sum_value - merged.sum_value_w).max() < 1e-9


def test_embedding_near_dup_pairs(emb):
    import ray.data

    from lucene_ray.pipelines.dedup import embedding_near_dup_pairs

    ds, pdf = emb
    # plant a near-duplicate of vec 3 (tiny perturbation) and an exact dup of 7
    import pandas as pd

    v3 = np.asarray(pdf.embedding.iloc[3], dtype=np.float64)
    near = (v3 + 0.001 * np.ones_like(v3)).tolist()
    extra = pd.DataFrame({"vec_id": [900001, 900002],
                          "embedding": [near, pdf.embedding.iloc[7]],
                          "label": [0, 0]})
    full = ray.data.from_pandas(pd.concat([pdf, extra], ignore_index=True))
    pairs = embedding_near_dup_pairs(full, threshold=0.98).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs.id_a, pairs.id_b)}
    assert (3, 900001) in got
    assert (7, 900002) in got
    assert (pairs.cosine >= 0.98).all()


def test_hnsw_graph_recall_and_persistence(tmp_path, ray_session):
    import ray.data

    from lucene_ray.pipelines.hnsw import HnswGraph, build_hnsw_index, knn_hnsw

    rng = np.random.default_rng(3)
    n, d = 600, 32
    X = rng.standard_normal((n, d))
    ids = np.arange(n, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table({"vec_id": pa.array(ids),
                  "embedding": pa.array(list(X), type=pa.list_(pa.float64()))})
    )
    idx = str(tmp_path / "hnsw")
    build_hnsw_index(ds, idx, M=12, ef_construction=64, shard_rows=256)
    import json, os

    shards = json.load(open(os.path.join(idx, "shards.json")))
    assert len(shards) >= 2  # multiple persisted per-shard graphs
    q_ids = [0, 1, 2]
    qv = X[q_ids]
    out = knn_hnsw(idx, q_ids, qv, k=10, ef=80).to_pandas()
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    hits = tot = 0
    for qi in q_ids:
        qn = X[qi] / np.linalg.norm(X[qi])
        true = [i for i in np.argsort(-(Xn @ qn)).tolist() if i != qi][:10]
        got = out[out.query_id == qi].neighbor_id.tolist()
        assert len(got) == 10
        hits += len(set(got) & set(true))
        tot += 10
    assert hits / tot >= 0.9, hits / tot
    # graph serialization roundtrip preserves search results
    g = HnswGraph(M=12, ef_construction=64).build(X)
    t, meta = g.to_tables()
    g2 = HnswGraph.from_tables(t, meta, X)
    i1, _ = g.search(X[5], 10, ef=64)
    i2, _ = g2.search(X[5], 10, ef=64)
    assert i1.tolist() == i2.tolist()


def test_ivf_materialized_layout(tmp_path, ray_session):
    import ray.data

    from lucene_ray.pipelines.knn import build_ivf_index, knn_brute_force, knn_ivf_indexed

    rng = np.random.default_rng(7)
    n, d = 800, 16
    X = rng.standard_normal((n, d))
    ds = ray.data.from_arrow(
        pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                  "embedding": pa.array(list(X), type=pa.list_(pa.float64()))})
    )
    idx = str(tmp_path / "ivf")
    build_ivf_index(ds, idx, n_centroids=8)
    import os

    buckets = [x for x in os.listdir(idx) if x.startswith("bucket=")]
    assert len(buckets) >= 4  # materialized per-bucket directories
    q_ids = [0, 1, 2]
    out = knn_ivf_indexed(idx, q_ids, X[q_ids], k=10, nprobe=4).to_pandas()
    exact = knn_brute_force(ds, q_ids, X[q_ids], k=10).to_pandas()
    hits = tot = 0
    for qi in q_ids:
        got = set(out[out.query_id == qi].neighbor_id.tolist())
        true = set(exact[exact.query_id == qi].neighbor_id.tolist())
        hits += len(got & true)
        tot += len(true)
    assert hits / tot >= 0.6  # nprobe=4/8 buckets: decent recall, pruned reads


def test_unigram_logprob(docs_ds, docs_pd):
    import re

    import numpy as np

    from lucene_ray.pipelines.textstats import unigram_logprob

    out = unigram_logprob(docs_ds).to_pandas().set_index("doc_id")
    pat = re.compile(r"[a-z0-9]+")
    from collections import Counter

    global_counts = Counter()
    per_doc = {}
    for _, row in docs_pd.iterrows():
        toks = pat.findall(row.text.lower())
        per_doc[row.doc_id] = toks
        global_counts.update(toks)
    total = sum(global_counts.values())
    for doc_id, toks in list(per_doc.items())[:50]:
        want = (np.mean([np.log(global_counts[t] / total) for t in toks])
                if toks else 0.0)
        got = out.loc[doc_id]
        assert got.n_tokens == len(toks)
        assert abs(got.mean_logprob - round(want, 6)) < 2e-6


def test_unigram_broadcast_is_numeric(docs_ds, monkeypatch):
    """The broadcast unigram model must be (uint64 hash, float logp) numpy
    arrays — the driver never holds the string vocabulary (web-scale vocab
    is 10⁸–10⁹ terms; an object-dtype broadcast would OOM there)."""
    import numpy as np
    import ray

    from lucene_ray.pipelines.textstats import unigram_logprob

    payloads = []
    real_put = ray.put

    def spy_put(obj, *a, **kw):
        payloads.append(obj)
        return real_put(obj, *a, **kw)

    monkeypatch.setattr(ray, "put", spy_put)
    unigram_logprob(docs_ds).materialize()
    models = [p for p in payloads
              if isinstance(p, tuple) and len(p) == 2
              and all(isinstance(x, np.ndarray) for x in p)]
    assert models, "unigram model broadcast not captured"
    hashes, logp = models[-1]
    assert hashes.dtype == np.uint64
    assert logp.dtype.kind == "f"  # numeric, never object-dtype strings


def test_nb_model_vocab_is_hashed(ray_session):
    """NB model broadcast payload is numeric: hashed vocab, float matrix."""
    import numpy as np
    import ray.data

    from lucene_ray.pipelines.classify import train_naive_bayes

    ds = ray.data.from_items([
        {"text": "cat purr", "lang": "animal"},
        {"text": "engine oil", "lang": "machine"},
    ])
    m = train_naive_bayes(ds, analyzer="simple")
    assert m.vocab_hash.dtype == np.uint64
    assert not hasattr(m, "vocab")  # string vocabulary no longer exists
    assert m.term_class_df.dtype == np.float64


def test_chunk_documents_windows(ray_session):
    import ray as _ray

    from lucene_ray.pipelines.textstats import chunk_documents

    toks = [f"t{i}" for i in range(25)]
    rows = [{"doc_id": 1, "text": " ".join(toks)},
            {"doc_id": 2, "text": "one two"},
            {"doc_id": 3, "text": ""}]
    out = chunk_documents(_ray.data.from_items(rows), max_tokens=10,
                          overlap=4).to_pandas()
    d1 = out[out.doc_id == 1].sort_values("chunk_id")
    # stride 6: starts 0,6,12,18 (range stops before 25-4=21) -> 4 chunks
    assert list(d1.chunk_id) == [0, 1, 2, 3]
    assert list(d1.n_tokens) == [10, 10, 10, 7]
    assert d1.iloc[0].chunk_text.split()[:2] == ["t0", "t1"]
    assert d1.iloc[3].chunk_text.split()[0] == "t18"
    # consecutive windows overlap by 4 tokens
    assert d1.iloc[0].chunk_text.split()[-4:] == d1.iloc[1].chunk_text.split()[:4]
    assert list(out[out.doc_id == 2].n_tokens) == [2]
    assert 3 not in set(out.doc_id)  # empty doc -> no chunks


def test_hnsw_shard_merge(ray_session, tmp_path):
    """Shard consolidation (Lucene90HnswVectorsWriter mergeOneField
    analogue): fewer shards, same vectors, recall preserved."""
    import json
    import os

    import ray as _ray

    from lucene_ray.pipelines.hnsw import (build_hnsw_index, knn_hnsw,
                                           merge_hnsw_shards)
    from lucene_ray.pipelines.knn import knn_brute_force

    rng = np.random.default_rng(3)
    X = rng.standard_normal((600, 16))
    ds = _ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(600, dtype=np.int64)),
        "embedding": pa.array(list(X), type=pa.list_(pa.float64()))}))
    idx = str(tmp_path / "hnsw")
    build_hnsw_index(ds, idx, M=8, ef_construction=60, shard_rows=150)
    with open(os.path.join(idx, "shards.json")) as f:
        before = json.load(f)
    assert len(before) >= 3
    new = merge_hnsw_shards(idx, target_shards=1, M=8, ef_construction=60,
                            use_ray=False)
    assert len(new) == 1
    # consumed dirs removed, survivor holds every vector
    assert sorted(os.listdir(idx)) == sorted(new + ["shards.json"])
    q_ids = [0, 1, 2]
    ann = knn_hnsw(idx, q_ids, X[q_ids], k=10, ef=80).to_pandas()
    exact = knn_brute_force(ds, q_ids, X[q_ids], k=10).to_pandas()
    hits = tot = 0
    for qi in q_ids:
        got = set(ann[ann.query_id == qi].neighbor_id.tolist())
        true = set(exact[exact.query_id == qi].neighbor_id.tolist())
        hits += len(got & true)
        tot += len(true)
    assert hits / tot >= 0.8


def test_knn_hnsw_more_shards_than_cpus(ray_session, tmp_path):
    """knn_hnsw over more shards than the session has CPUs (4) at the
    default concurrency of 8: the shard-searcher pool must start with the
    actors it can place, not wait for one actor per shard. Ray Data gives
    up on an actor pool whose minimum does not start within
    ``wait_for_min_actors_s``, so a pool that can never fill fails the test
    instead of hanging it."""
    import json
    import os

    import ray as _ray
    from ray.data import DataContext

    from lucene_ray.pipelines.hnsw import build_hnsw_index, knn_hnsw

    rng = np.random.default_rng(5)
    X = rng.standard_normal((600, 8))
    ds = _ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(600, dtype=np.int64)),
        "embedding": pa.array(list(X), type=pa.list_(pa.float64()))}))
    idx = str(tmp_path / "hnsw6")
    build_hnsw_index(ds, idx, M=8, ef_construction=40, shard_rows=100)
    with open(os.path.join(idx, "shards.json")) as f:
        assert len(json.load(f)) > 4
    ctx = DataContext.get_current()
    old = ctx.wait_for_min_actors_s
    ctx.wait_for_min_actors_s = 60
    try:
        out = knn_hnsw(idx, [0, 1], X[[0, 1]], k=5, ef=40).to_pandas()
    finally:
        ctx.wait_for_min_actors_s = old
    assert sorted(out.groupby("query_id").size().tolist()) == [5, 5]


def test_hnsw_merge_group_vector_bound(ray_session, tmp_path):
    """Force-merge guard: max_group_vectors caps the vectors any single
    rebuild task holds — a target_shards=1 consolidation over the budget
    degrades into several bounded merges instead of one unbounded task."""
    import json
    import os

    import ray as _ray

    from lucene_ray.pipelines.hnsw import build_hnsw_index, merge_hnsw_shards

    rng = np.random.default_rng(9)
    X = rng.standard_normal((600, 8))
    ds = _ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(600, dtype=np.int64)),
        "embedding": pa.array(list(X), type=pa.list_(pa.float64()))}))
    idx = str(tmp_path / "hnswcap")
    build_hnsw_index(ds, idx, M=8, ef_construction=60, shard_rows=100)
    with open(os.path.join(idx, "shards.json")) as f:
        before = json.load(f)
    assert len(before) == 6  # 6 shards x 100 vectors
    # cap at 250: groups of at most 2 shards (200 vecs) fit, 3rd would not
    new = merge_hnsw_shards(idx, target_shards=1, M=8, ef_construction=60,
                            use_ray=False, max_group_vectors=250)
    assert len(new) == 3  # 6 -> 3 bounded merges, NOT one giant rebuild
    for name in new:
        with open(os.path.join(idx, name, "meta.json")) as f:
            assert json.load(f)["n"] <= 250
    # total vectors preserved
    tot = 0
    for name in new:
        with open(os.path.join(idx, name, "meta.json")) as f:
            tot += json.load(f)["n"]
    assert tot == 600


def test_hnsw_failed_shard_rename_raises(ray_session, tmp_path, monkeypatch):
    """A merged shard whose rename fails and leaves no shard directory
    raises: ``shards.json`` and the source shards stay as they were, instead
    of listing a missing shard and deleting the consumed sources."""
    import json
    import os

    import ray as _ray

    from lucene_ray.pipelines.hnsw import build_hnsw_index, merge_hnsw_shards

    rng = np.random.default_rng(11)
    X = rng.standard_normal((120, 4))
    ds = _ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(120, dtype=np.int64)),
        "embedding": pa.array(list(X), type=pa.list_(pa.float64()))}))
    idx = str(tmp_path / "hnsw")
    build_hnsw_index(ds, idx, M=4, ef_construction=16, shard_rows=40)
    with open(os.path.join(idx, "shards.json")) as f:
        before = json.load(f)
    assert len(before) == 3

    real_rename = os.rename

    def failing_rename(src, dst):
        if os.path.basename(dst).startswith("shard-"):
            raise OSError("rename failed")
        return real_rename(src, dst)

    monkeypatch.setattr(os, "rename", failing_rename)
    with pytest.raises(OSError, match="rename failed"):
        merge_hnsw_shards(idx, target_shards=1, M=4, ef_construction=16,
                          use_ray=False)
    monkeypatch.undo()
    with open(os.path.join(idx, "shards.json")) as f:
        assert json.load(f) == before
    assert sorted(os.listdir(idx)) == sorted(before + ["shards.json"])
