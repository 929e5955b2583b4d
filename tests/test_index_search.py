"""End-to-end: build index over the sf0.001 documents table, search, and
compare against an independent brute-force BM25 oracle (reference formula
computed directly from tokenized text, no index involved) — the moral
equivalent of the reference's WAND-vs-exhaustive and dueling-codec tests."""

from __future__ import annotations

import math
import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.collectors import (diversified_topk, dv_stats, facet_counts,
                                   facet_counts_multi, grouped_topk,
                                   range_facet_counts, search_by_field,
                                   taxonomy_counts)
from lucene_ray.functions.analysis import Analyzer
from lucene_ray.functions.norms import decode_norms, encode_lengths
from lucene_ray.query import BooleanQuery, PhraseQuery, PrefixQuery, TermQuery, parse_query
from lucene_ray.searcher import IndexSearcher
from lucene_ray.state.manifest import Manifest, completed_part_metas
from lucene_ray.state.segment import check_segment

SF_DIR = "/root/testdata/sf0.001"


# ------------------------------------------------------------------ oracle


class BruteForce:
    """Index-free BM25 over the corpus: tokenize every doc, keep tf dicts."""

    def __init__(self, keys, texts, mode="lucene", analyzer=None):
        self.analyzer = analyzer or Analyzer("standard")
        self.keys = list(keys)
        self.tfs = []
        self.dls = []
        for t in texts:
            toks = [w for w, _ in self.analyzer.tokenize_one(t)]
            tf = {}
            for w in toks:
                tf[w] = tf.get(w, 0) + 1
            self.tfs.append(tf)
            self.dls.append(len(toks))
        self.mode = mode
        self.N = len(self.tfs)
        self.doc_count = sum(1 for d in self.dls if d > 0)
        self.sum_ttf = sum(self.dls)
        self.avgdl_f32 = np.float32(self.sum_ttf / self.doc_count)
        self.avgdl = self.sum_ttf / self.doc_count

    def df(self, term):
        return sum(1 for tf in self.tfs if term in tf)

    def idf(self, term):
        n = self.df(term)
        return math.log(1 + (self.doc_count - n + 0.5) / (n + 0.5))

    def score_term(self, term, i):
        tf = self.tfs[i].get(term, 0)
        if tf == 0:
            return 0.0
        if self.mode == "exact":
            idf = self.idf(term)
            dl = self.dls[i]
            return idf * (tf * 2.2) / (tf + 1.2 * (1 - 0.75 + 0.75 * dl / self.avgdl))
        f32 = np.float32
        idf = f32(self.idf(term))
        L = decode_norms(encode_lengths(np.array([self.dls[i]])))[0]
        cache = f32(1.0) / (f32(1.2) * ((f32(1.0) - f32(0.75)) + f32(0.75) * L / self.avgdl_f32))
        return float(idf - idf / (f32(1.0) + f32(tf) * cache))

    def topk_or(self, terms, k):
        scored = []
        for i in range(self.N):
            s = sum(self.score_term(t, i) for t in terms)
            if s > 0:
                scored.append((-s, self.keys[i]))
        scored.sort()
        return [(key, -negs) for negs, key in scored[:k]]

    def topk_and(self, terms, k):
        scored = []
        for i in range(self.N):
            if all(t in self.tfs[i] for t in terms):
                s = sum(self.score_term(t, i) for t in terms)
                scored.append((-s, self.keys[i]))
        scored.sort()
        return [(key, -negs) for negs, key in scored[:k]]


@pytest.fixture(scope="module")
def corpus():
    t = pq.read_table(f"{SF_DIR}/documents.parquet")
    return t.column("doc_id").to_pylist(), t.column("text").to_pylist()


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    from lucene_ray.pipelines.index_pipeline import build_index

    d = str(tmp_path_factory.mktemp("idx") / "sf0001")
    build_index(
        f"{SF_DIR}/documents.parquet",
        d,
        key_col="doc_id",
        text_col="text",
        num_partitions=4,
        columns=["doc_id", "text"],
    )
    return d


@pytest.fixture(scope="module")
def oracle(corpus):
    keys, texts = corpus
    return BruteForce(keys, texts, mode="lucene")


def test_manifest_and_stats(index_dir, corpus, oracle):
    m = Manifest.load(index_dir)
    assert len(m.segments) == 4
    cs = m.collection_stats()
    keys, texts = corpus
    assert cs.max_doc == len(keys)
    assert cs.doc_count == oracle.doc_count
    assert cs.sum_total_term_freq == oracle.sum_ttf


def test_check_segments(index_dir):
    m = Manifest.load(index_dir)
    for d in m.segment_dirs():
        assert check_segment(d) == []


def test_term_query_matches_bruteforce(index_dir, oracle):
    s = IndexSearcher(index_dir, mode="lucene")
    for term in ["merge", "the", "spark", "window", "zzz_absent"]:
        td = s.search(TermQuery(term), k=15, algo="exhaustive")
        want = oracle.topk_or([term], 15)
        got = [(sd.doc_key, sd.score) for sd in td.score_docs]
        assert [g[0] for g in got] == [w[0] for w in want], term
        for (gk, gs), (wk, ws) in zip(got, want):
            assert gs == pytest.approx(ws, abs=1e-6), (term, gk)


def test_boolean_or_and_matches_bruteforce(index_dir, oracle):
    s = IndexSearcher(index_dir, mode="lucene")
    terms = ["merge", "window"]
    td = s.search(parse_query("merge window"), k=20, algo="exhaustive")
    want = oracle.topk_or(terms, 20)
    assert [sd.doc_key for sd in td.score_docs] == [w[0] for w in want]
    td = s.search(parse_query("merge AND window"), k=20, algo="exhaustive")
    want = oracle.topk_and(terms, 20)
    assert [sd.doc_key for sd in td.score_docs] == [w[0] for w in want]
    for sd, w in zip(td.score_docs, want):
        assert sd.score == pytest.approx(w[1], abs=1e-6)


def test_wand_equals_exhaustive(index_dir):
    s = IndexSearcher(index_dir, mode="lucene")
    for q in ["merge", "spark window batch", "the data row", "key"]:
        a = s.search(q, k=10, algo="exhaustive")
        b = s.search(q, k=10, algo="wand")
        assert [(sd.doc_key, sd.score) for sd in a.score_docs] == [
            (sd.doc_key, sd.score) for sd in b.score_docs
        ], q


def test_search_after_pagination(index_dir):
    s = IndexSearcher(index_dir, mode="lucene")
    full = s.search("merge window", k=30, algo="exhaustive").score_docs
    page1 = s.search("merge window", k=10, algo="exhaustive").score_docs
    anchor = (page1[-1].score, page1[-1].doc_key)
    page2 = s.search("merge window", k=10, algo="exhaustive", search_after=anchor).score_docs
    assert [sd.doc_key for sd in page1 + page2] == [sd.doc_key for sd in full[:20]]


def test_phrase_query(index_dir, corpus):
    keys, texts = corpus
    # pick a phrase present in some doc
    an = Analyzer("standard")
    toks0 = [w for w, _ in an.tokenize_one(texts[0])]
    phrase = toks0[1:3]
    s = IndexSearcher(index_dir, mode="lucene")
    td = s.search(PhraseQuery(phrase), k=500)
    got = {sd.doc_key for sd in td.score_docs}
    want = set()
    for kk, t in zip(keys, texts):
        tk = [w for w, _ in an.tokenize_one(t)]
        if any(tk[i : i + 2] == phrase for i in range(len(tk) - 1)):
            want.add(kk)
    assert got == want
    assert keys[0] in got


def test_prefix_and_matchall(index_dir, corpus):
    keys, texts = corpus
    s = IndexSearcher(index_dir)
    td = s.search(PrefixQuery("s"), k=10_000)
    an = Analyzer("standard")
    want = {
        kk
        for kk, t in zip(keys, texts)
        if any(w.startswith("s") for w, _ in an.tokenize_one(t))
    }
    assert {sd.doc_key for sd in td.score_docs} == want
    assert s.count(parse_query("")) == len(keys)


def test_must_not_and_msm(index_dir, oracle, corpus):
    keys, texts = corpus
    s = IndexSearcher(index_dir)
    q = BooleanQuery(must=[TermQuery("merge")], must_not=[TermQuery("spark")])
    td = s.search(q, k=1000)
    want = {
        k_
        for k_, tf, in zip(keys, oracle.tfs)
        if "merge" in tf and "spark" not in tf
    }
    assert {sd.doc_key for sd in td.score_docs} == want
    q2 = BooleanQuery(should=[TermQuery("merge"), TermQuery("spark"), TermQuery("window")],
                      minimum_should_match=2)
    td2 = s.search(q2, k=1000)
    want2 = {
        k_
        for k_, tf in zip(keys, oracle.tfs)
        if sum(t in tf for t in ("merge", "spark", "window")) >= 2
    }
    assert {sd.doc_key for sd in td2.score_docs} == want2


def test_exact_mode_matches_bruteforce(index_dir, corpus):
    keys, texts = corpus
    bf = BruteForce(keys, texts, mode="exact")
    s = IndexSearcher(index_dir, mode="exact")
    td = s.search("batch stream", k=12, algo="exhaustive")
    want = bf.topk_or(["batch", "stream"], 12)
    assert [sd.doc_key for sd in td.score_docs] == [w[0] for w in want]
    for sd, w in zip(td.score_docs, want):
        assert sd.score == pytest.approx(w[1], rel=1e-9)


def test_distributed_search_rank_identical(index_dir, ray_session):
    from lucene_ray.pipelines.search_pipeline import search_distributed

    queries = ["merge", "spark window", "merge AND window", '"batch batch"']
    out = search_distributed(index_dir, queries, k=8, concurrency=2,
                             shards_per_actor_segments=2).to_pandas()
    local = IndexSearcher(index_dir)
    for qi, q in enumerate(queries):
        want = local.search(q, k=8).score_docs
        got = out[out.query_id == qi].sort_values("rank")
        assert got["doc_key"].tolist() == [sd.doc_key for sd in want], q
        assert np.allclose(got["score"].to_numpy(), [sd.score for sd in want])


def test_resume_skips_completed_partitions(ray_session, tmp_path, corpus):
    from lucene_ray.pipelines.index_pipeline import build_index

    d = str(tmp_path / "resume_idx")
    build_index(f"{SF_DIR}/documents.parquet", d, key_col="doc_id", text_col="text",
                num_partitions=4, columns=["doc_id", "text"])
    m1 = Manifest.load(d)
    # simulate a crash that lost two partitions + the manifest
    names = sorted(os.listdir(os.path.join(d, "segments")))
    for n in names[:2]:
        shutil.rmtree(os.path.join(d, "segments", n))
    os.remove(os.path.join(d, "manifest.current"))
    kept = completed_part_metas(d)
    assert len(kept) == 2
    import time

    t0 = time.time()
    build_index(f"{SF_DIR}/documents.parquet", d, key_col="doc_id", text_col="text",
                num_partitions=4, columns=["doc_id", "text"])
    m2 = Manifest.load(d)
    assert {s["name"] for s in m2.segments} == {s["name"] for s in m1.segments}
    assert [s["checksum"] for s in sorted(m2.segments, key=lambda s: s["part_id"])] == [
        s["checksum"] for s in sorted(m1.segments, key=lambda s: s["part_id"])
    ]


def test_max_docs_per_segment_guard(ray_session, tmp_path):
    """Shard-size guard: an oversized input file splits into sub-segments
    (seg<part>pNN), all docs searchable, and resume treats the part as done
    only when every sub-segment is durable."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_ray.pipelines.index_pipeline import build_index_by_file
    from lucene_ray.query import TermQuery
    from lucene_ray.searcher import IndexSearcher

    n = 500
    src = str(tmp_path / "big.parquet")
    pq.write_table(
        pa.table({"url": [f"u{i:04d}" for i in range(n)],
                  "text": [f"doc {i} guard term" for i in range(n)]}),
        src,
    )
    d = str(tmp_path / "guard_idx")
    m = build_index_by_file(src, d, key_col="url", text_col="text",
                            max_docs_per_segment=200)
    assert len(m.segments) == 3
    assert sum(s["max_doc"] for s in m.segments) == n
    assert all("p0" in s["name"] for s in m.segments)
    s = IndexSearcher(d)
    assert s.search(TermQuery("guard"), 5).total_hits == n
    # lose one sub-segment: the part is incomplete, rebuild restores it
    shutil.rmtree(os.path.join(d, "segments", m.segments[1]["name"]))
    m2 = build_index_by_file(src, d, key_col="url", text_col="text",
                             max_docs_per_segment=200)
    assert len(m2.segments) == 3
    assert IndexSearcher(d).search(TermQuery("guard"), 5).total_hits == n


def test_partition_count_invariance(ray_session, tmp_path, corpus):
    """1-partition pipeline output rank-identical to P-partition output."""
    from lucene_ray.pipelines.index_pipeline import build_index

    keys, texts = corpus
    d1 = str(tmp_path / "p1")
    d8 = str(tmp_path / "p8")
    for d, p in [(d1, 1), (d8, 8)]:
        build_index(f"{SF_DIR}/documents.parquet", d, key_col="doc_id", text_col="text",
                    num_partitions=p, columns=["doc_id", "text"])
    s1 = IndexSearcher(d1)
    s8 = IndexSearcher(d8)
    for q in ["merge", "spark window batch", "merge AND the"]:
        a = s1.search(q, k=10)
        b = s8.search(q, k=10)
        assert [(sd.doc_key, sd.score) for sd in a.score_docs] == [
            (sd.doc_key, sd.score) for sd in b.score_docs
        ], q


def test_term_stats_distributed_salted_path(ray_session, tmp_path):
    """Force the salted two-stage groupby path and compare with the driver
    fast path — identical dictionaries."""
    import os

    import pyarrow.parquet as pq

    from lucene_ray.pipelines.index_pipeline import build_index, build_term_stats
    from lucene_ray.state.manifest import Manifest

    d = str(tmp_path / "salted")
    build_index(f"{SF_DIR}/documents.parquet", d, key_col="doc_id", text_col="text",
                num_partitions=4, columns=["doc_id", "text"])
    m = Manifest.load(d)
    fast = pq.read_table(os.path.join(d, f"term_stats-{m.gen}.parquet"))
    os.remove(os.path.join(d, f"term_stats-{m.gen}.parquet"))
    build_term_stats(d, m, small_dict_limit=0, salt_buckets=4)  # distributed path
    dist = pq.read_table(os.path.join(d, f"term_stats-{m.gen}.parquet"))
    assert fast.column("term").to_pylist() == dist.column("term").to_pylist()
    assert fast.column("doc_freq").to_pylist() == dist.column("doc_freq").to_pylist()
    assert fast.column("total_tf").to_pylist() == dist.column("total_tf").to_pylist()


def test_build_by_file_matches_groupby_build(ray_session, tmp_path):
    """Shuffle-free file-per-segment build produces rank-identical results to
    the hash-partitioned groupby build (different segmentations, same global
    scores) and resumes per file."""
    import duckdb
    import os

    from lucene_ray.pipelines.index_pipeline import build_index, build_index_by_file

    # split corpus into 4 parquet files (the 'input shards')
    shard_dir = str(tmp_path / "shards")
    os.makedirs(shard_dir)
    con = duckdb.connect()
    for i in range(4):
        con.execute(
            f"COPY (SELECT doc_id, text FROM read_parquet('{SF_DIR}/documents.parquet') "
            f"WHERE doc_id % 4 = {i}) TO '{shard_dir}/part-{i}.parquet' (FORMAT PARQUET)"
        )
    d_file = str(tmp_path / "byfile")
    m = build_index_by_file(shard_dir, d_file, key_col="doc_id", text_col="text",
                            columns=["doc_id", "text"])
    assert len(m.segments) == 4
    assert all("source_file" in s for s in m.segments)
    d_grp = str(tmp_path / "bygroup")
    build_index(f"{SF_DIR}/documents.parquet", d_grp, key_col="doc_id",
                text_col="text", num_partitions=4, columns=["doc_id", "text"])
    sa, sb = IndexSearcher(d_file), IndexSearcher(d_grp)
    for q in ["merge", "spark window", "merge AND the", '"batch batch"']:
        a = [(sd.doc_key, sd.score) for sd in sa.search(q, k=10).score_docs]
        b = [(sd.doc_key, sd.score) for sd in sb.search(q, k=10).score_docs]
        assert a == b, q
    # resume: drop one segment + manifest pointer, rebuild only that file
    name = m.segments[2]["name"]
    shutil.rmtree(os.path.join(d_file, "segments", name))
    os.remove(os.path.join(d_file, "manifest.current"))
    m2 = build_index_by_file(shard_dir, d_file, key_col="doc_id", text_col="text",
                             columns=["doc_id", "text"])
    assert {s["name"] for s in m2.segments} == {s["name"] for s in m.segments}
    assert sorted(s["checksum"] for s in m2.segments) == sorted(
        s["checksum"] for s in m.segments
    )


def test_build_paths_commit_same_metrics(ray_session, tmp_path):
    """Both build paths commit through one step: the same manifest metric
    keys, ``n_partitions`` counting committed segments, and the same
    config apart from the by-file layout marker."""
    import pandas as pd

    from lucene_ray.pipelines.index_pipeline import build_index, build_index_by_file

    src = tmp_path / "src"
    src.mkdir()
    for i in range(2):
        pd.DataFrame({"url": [f"u{i}{j}" for j in range(3)],
                      "text": [f"alpha beta{j} gamma{i}" for j in range(3)]}
                     ).to_parquet(src / f"part-{i}.parquet")
    shuffled = build_index(str(src), str(tmp_path / "shuffle"), num_partitions=2)
    by_file = build_index_by_file(str(src), str(tmp_path / "by_file"))
    ms, mf = shuffled.config["metrics"], by_file.config["metrics"]
    assert set(ms) == set(mf)
    assert ms["n_partitions"] == len(shuffled.segments)
    assert mf["n_partitions"] == len(by_file.segments) == 2
    assert mf["n_docs"] == ms["n_docs"] == 6
    assert set(by_file.config) - set(shuffled.config) == {"partition_by"}
    resumed = build_index_by_file(str(src), str(tmp_path / "by_file"))
    assert resumed.config["metrics"]["n_partitions_resumed"] == 2


def test_index_sort_early_termination_and_range_pruning(tmp_path, ray_session):
    import pandas as pd

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.query import MatchAllDocsQuery, NumericRangeQuery, TermQuery
    from lucene_ray.searcher import IndexSearcher

    rng = np.random.default_rng(11)
    n = 3000
    words = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(words, size=12)) + (" special" if i % 7 == 0 else "")
             for i in range(n)]
    pdf = pd.DataFrame({"doc_id": range(n), "text": texts,
                        "score_v": rng.integers(0, 10_000, n)})
    src = str(tmp_path / "d.parquet")
    pdf.to_parquet(src)
    plain = str(tmp_path / "plain")
    srt = str(tmp_path / "sorted")
    build_index(src, plain, key_col="doc_id", text_col="text", num_partitions=3,
                columns=["doc_id", "text", "score_v"], docvalue_cols=("score_v",))
    build_index(src, srt, key_col="doc_id", text_col="text", num_partitions=3,
                columns=["doc_id", "text", "score_v"], docvalue_cols=("score_v",),
                index_sort=("score_v", "desc"))
    s_plain = IndexSearcher(plain)
    s_sorted = IndexSearcher(srt)

    # identical sorted-field top-k, but the sorted index examines only k docs
    # per segment (early termination) instead of every match
    for q in [TermQuery("special"), MatchAllDocsQuery()]:
        a = search_by_field(s_plain, q, "score_v", k=10, descending=True)
        b0 = dict(s_sorted.sort_stats)
        b = search_by_field(s_sorted, q, "score_v", k=10, descending=True)
        assert a == b
        d_ex = s_sorted.sort_stats["docs_examined"] - b0["docs_examined"]
        d_mt = s_sorted.sort_stats["docs_matched"] - b0["docs_matched"]
        assert d_ex <= 30 < d_mt  # k per segment vs all matches

    # BM25 results unaffected by docID reordering
    ta = s_plain.search("special w1", k=10).score_docs
    tb = s_sorted.search("special w1", k=10).score_docs
    assert [(x.doc_key, round(x.score, 5)) for x in ta] == \
        [(x.doc_key, round(x.score, 5)) for x in tb]

    # numeric range pruning touches ~hits docs, not maxDoc
    before = dict(s_plain.range_stats)
    hits = s_plain.count(NumericRangeQuery("score_v", lower=9900, upper=None))
    examined = s_plain.range_stats["docs_examined"] - before["docs_examined"]
    scanned_base = s_plain.range_stats["max_doc_total"] - before["max_doc_total"]
    assert examined == hits  # only the in-range docs were touched
    assert examined < scanned_base / 10


def test_block_join_parent_and_child(tmp_path, ray_session):
    import pandas as pd

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.query import (
        TermQuery,
        ToChildBlockJoinQuery,
        ToParentBlockJoinQuery,
    )
    from lucene_ray.searcher import IndexSearcher

    # blocks: children then parent, co-partitioned by block id
    rows = []
    rng = np.random.default_rng(5)
    for b in range(40):
        n_child = int(rng.integers(1, 5))
        for c in range(n_child):
            tok = "redx" if rng.random() < 0.4 else "bluex"
            rows.append((f"{b:04d}-c{c}", f"child {tok} item{b % 7}", b, 0))
        rows.append((f"{b:04d}-p", "parent block", b, 1))
    pdf = pd.DataFrame(rows, columns=["k", "text", "block_id", "is_parent"])
    src = str(tmp_path / "b.parquet")
    pdf.to_parquet(src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, key_col="k", text_col="text", num_partitions=4,
                columns=["k", "text", "block_id", "is_parent"],
                docvalue_cols=("block_id", "is_parent"), partition_col="block_id")
    s = IndexSearcher(idx, mode="exact")

    # brute-force expectation
    import re

    child_rows = pdf[pdf.is_parent == 0]
    # exact BM25 over the whole corpus
    texts = pdf.text.tolist()
    toks = [t.split() for t in texts]
    N = len(texts)
    df_red = sum(1 for t in toks if "redx" in t)
    avgdl = sum(len(t) for t in toks) / N
    idf = np.log(1 + (N - df_red + 0.5) / (df_red + 0.5))

    def bm25(tf, dl):
        return idf * (tf * 2.2) / (tf + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))

    exp: dict[int, list[float]] = {}
    for _, row in pdf.iterrows():
        ts = row.text.split()
        tf = ts.count("redx")
        if tf and not row.is_parent:
            exp.setdefault(row.block_id, []).append(bm25(tf, len(ts)))
    for mode, agg in [("sum", sum), ("max", max),
                      ("avg", lambda v: sum(v) / len(v))]:
        td = s.search(ToParentBlockJoinQuery(TermQuery("redx"), mode), k=50)
        got = {sd.doc_key: sd.score for sd in td.score_docs}
        want = {f"{b:04d}-p": agg(v) for b, v in exp.items()}
        assert set(got) == set(want), mode
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-9), (mode, key)
    # score_mode=none: constant score, parents of matching children
    td = s.search(ToParentBlockJoinQuery(TermQuery("redx"), "none"), k=50)
    assert {sd.doc_key for sd in td.score_docs} == {f"{b:04d}-p" for b in exp}
    assert all(sd.score == 1.0 for sd in td.score_docs)

    # ToChild: every child of matching parents, inheriting parent score
    tdc = s.search(ToChildBlockJoinQuery(TermQuery("parent")), k=500)
    n_children = int((pdf.is_parent == 0).sum())
    assert len(tdc.score_docs) == n_children
    assert all(not k.endswith("-p") for k in
               (sd.doc_key for sd in tdc.score_docs))


def test_distributed_search_uses_index_analyzer(ray_session, tmp_path):
    """search_distributed parses through the index's analyzer, like
    IndexSearcher.parse: stemmed query terms meet the stemmed index."""
    import ray.data

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.pipelines.search_pipeline import search_distributed

    texts = ["running fast", "he runs daily", "a long run", "runners running",
             "walking slowly"]
    d = str(tmp_path / "english")
    build_index(ray.data.from_items([{"url": f"u{i}", "text": t} for i, t in enumerate(texts)]),
                d, key_col="url", text_col="text", num_partitions=2, analyzer="english")
    want = IndexSearcher(d).search("running", k=10).score_docs
    assert len(want) == 4
    out = search_distributed(d, ["running"], k=10, concurrency=1).to_pandas()
    got = out.sort_values("rank")
    assert got["doc_key"].tolist() == [sd.doc_key for sd in want]
    assert np.allclose(got["score"].to_numpy(), [sd.score for sd in want])
    empty = search_distributed(d, ["zzzz"], k=10, concurrency=1)
    assert empty.count() == 0
    assert empty.schema().names == ["query_id", "query", "rank", "doc_key", "score"]


def test_vector_columns_read_through_values_buffer():
    """kNN and HNSW read list<double> columns through the flat values
    buffer: equal to the Python-list read, over chunked and sliced columns."""
    import pyarrow as pa

    from lucene_ray.pipelines.knn import _vectors

    m = np.random.default_rng(3).random((300, 8))
    col = pa.chunked_array([pa.array(list(m[:100])), pa.array(list(m[100:170])),
                            pa.array(list(m[170:]))])
    for c in (col, col.slice(95, 80), col.combine_chunks().slice(5, 7)):
        got = _vectors(c)
        assert got.dtype == np.float64 and got.shape == (len(c), 8)
        assert np.array_equal(got, np.array(c.to_pylist(), dtype=np.float64))
    f32 = pa.array(list(m[:4].astype(np.float32)), type=pa.list_(pa.float32()))
    assert np.array_equal(_vectors(f32), m[:4].astype(np.float32).astype(np.float64))
    assert _vectors(pa.array([], type=pa.list_(pa.float64()))).shape == (0, 0)
    # ragged (even when the values divide evenly) or null vectors raise
    for bad in ([[1.0, 2.0], [3.0]], [[1.0, 2.0, 3.0], [4.0]],
                [[1.0, 2.0], None, [3.0, 4.0], None]):
        with pytest.raises(ValueError):
            _vectors(pa.array(bad))
        with pytest.raises(ValueError):
            _vectors(pa.chunked_array([pa.array(bad[:1]), pa.array(bad[1:])]))


def test_knn_empty_results_keep_columns(ray_session, tmp_path):
    """Every kNN entry returns its four columns when no neighbor is left:
    over one vector, excluding the query itself leaves nothing."""
    import pyarrow as pa
    import ray.data

    from lucene_ray.pipelines.hnsw import build_hnsw_index, knn_hnsw
    from lucene_ray.pipelines.knn import build_ivf_index, knn_brute_force, knn_ivf_indexed

    X = np.array([[1.0, 0.0, 0.5]])
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([7], type=pa.int64()),
        "embedding": pa.array(list(X), type=pa.list_(pa.float64()))}))
    ivf = build_ivf_index(ds, str(tmp_path / "ivf"), n_centroids=1)
    hnsw = build_hnsw_index(ds, str(tmp_path / "hnsw"), M=4, ef_construction=8)
    for out in (knn_brute_force(ds, [7], X, k=3, concurrency=1),
                knn_ivf_indexed(ivf, [7], X, k=3, nprobe=1, concurrency=1),
                knn_hnsw(hnsw, [7], X, k=3, concurrency=1)):
        assert out.count() == 0
        schema = out.schema()
        assert schema.names == ["query_id", "rank", "neighbor_id", "cosine"]
        assert [str(t) for t in schema.types] == ["int64", "int64", "int64", "double"]


def test_string_queries_use_index_analyzer(ray_session, tmp_path):
    """Every searcher entry that takes query text parses it through the
    index's analyzer, as search and count do; so does delete_by_query."""
    import ray.data

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.state.deletes import delete_by_query

    texts = ["the runner was running fast", "he runs daily", "nothing here"]
    rows = [{"url": f"u{i}", "text": t, "grp": i % 2, "n": 10 + i, "tags": [f"t{i}"]}
            for i, t in enumerate(texts)]
    d = str(tmp_path / "english")
    build_index(ray.data.from_items(rows), d, key_col="url", text_col="text",
                num_partitions=1, analyzer="english",
                docvalue_cols=("grp", "n", "tags"))
    s = IndexSearcher(d)
    assert s.count("running") == 2
    assert len(s.search("running", k=10).score_docs) == 2
    assert sum(facet_counts(s, "running", "grp").values()) == 2
    assert sum(facet_counts_multi(s, "running", "tags").values()) == 2
    assert dv_stats(s, "running", "n")["count"] == 2
    assert len(grouped_topk(s, "running", "grp")) == 2
    assert len(search_by_field(s, "running", "n")) == 2
    assert range_facet_counts(s, "running", "n", [("all", 0, 100)]) == [("all", 2)]
    assert len(diversified_topk(s, "running", "grp")) == 2
    assert dict(taxonomy_counts(s, "running", ["grp"]))[()] == 2
    assert delete_by_query(d, "running") == 2
    assert IndexSearcher(d).count("running") == 0


def test_from_readers_uses_config_analyzer():
    """A searcher over in-RAM readers parses with the analyzer named in its
    config, so MemoryIndex(analyzer=...) finds stemmed text by query text."""
    from lucene_ray.query import TermQuery
    from lucene_ray.state.memory import MemoryIndex

    m = MemoryIndex(["a", "b", "c"],
                    ["the runner was running fast", "he runs daily", "nothing here"],
                    analyzer="english")
    assert m.count(TermQuery("run")) == 2
    assert m.count("running") == 2
    assert [sd.doc_key for sd in m.search("running").score_docs] == \
        [sd.doc_key for sd in m.search(TermQuery("run")).score_docs]


@pytest.mark.parametrize("algo", ["wand", "exhaustive"])
def test_terms_resolved_once_per_query(index_dir, algo):
    """Each query term's global statistics are looked up once per query,
    not once per segment, and the dictionary is probed once per (segment,
    term); nothing per term outlives the query."""
    from lucene_ray.state.segment import SegmentReader

    s = IndexSearcher(index_dir)
    assert len(s.readers) == 4
    lookups = []
    real_lookup = s.global_term_stats.lookup
    s.global_term_stats.lookup = lambda t: lookups.append(t) or real_lookup(t)
    probes = []
    real_term_index = SegmentReader.term_index
    for r in s.readers:
        r.term_index = lambda t, r=r: probes.append(t) or real_term_index(r, t)
    want = s.search("merge spark window", k=5, algo=algo).score_docs
    assert sorted(lookups) == ["merge", "spark", "window"]
    assert sorted(probes) == sorted(["merge", "spark", "window"] * 4)
    assert want
    # a long run of distinct terms: the per-query resolution is released
    # after every query, so the searcher holds no per-term state
    vocab = sorted(set(s.readers[0].terms.tolist()))[:300]
    for t in vocab:
        s.search(t, k=3)
        assert s._query_terms is None
    assert len(lookups) == 3 + len(vocab)
