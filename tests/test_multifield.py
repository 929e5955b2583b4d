"""Multi-field documents: per-field postings/norms/stats, field-scoped
queries, cross-field dismax — the reference's Document/Field model."""

from __future__ import annotations

import duckdb
import numpy as np
import pytest

from lucene_ray.query import (
    BooleanQuery,
    BoostQuery,
    DisjunctionMaxQuery,
    PhraseQuery,
    TermQuery,
    parse_query,
)
from lucene_ray.searcher import IndexSearcher

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def two_field_parquet(tmp_path_factory):
    p = str(tmp_path_factory.mktemp("mf") / "docs.parquet")
    con = duckdb.connect()
    # title = doc id word + the doc's first two body words (deterministic)
    con.execute(f"""
        COPY (
          SELECT doc_id,
                 'doc' || doc_id || ' ' ||
                 array_to_string((regexp_extract_all(text, '[a-z0-9]+'))[1:2], ' ') AS title,
                 text AS body
          FROM read_parquet('{SF_DIR}/documents.parquet')
        ) TO '{p}' (FORMAT PARQUET)
    """)
    return p


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory, two_field_parquet):
    from lucene_ray.pipelines.index_pipeline import build_index

    d = str(tmp_path_factory.mktemp("mfidx") / "idx")
    build_index(
        two_field_parquet,
        d,
        key_col="doc_id",
        text_col="body",
        text_cols=("title", "body"),
        num_partitions=3,
        columns=["doc_id", "title", "body"],
    )
    return d


@pytest.fixture(scope="module")
def pdf(two_field_parquet):
    import pyarrow.parquet as pq

    return pq.read_table(two_field_parquet).to_pandas()


def _field_docs(pdf, col, term):
    import re

    pat = re.compile(r"[a-z0-9]+")
    return {
        int(r.doc_id)
        for r in pdf.itertuples()
        if term in pat.findall(str(getattr(r, col)).lower())
    }


def test_field_scoped_term_queries(idx, pdf):
    s = IndexSearcher(idx)
    assert s._multi and s.default_field == "body"
    # "merge" appears in bodies; in titles only if among first two words
    body_hits = {sd.doc_key for sd in s.search(TermQuery("merge", field="body"), k=10_000).score_docs}
    title_hits = {sd.doc_key for sd in s.search(TermQuery("merge", field="title"), k=10_000).score_docs}
    assert body_hits == _field_docs(pdf, "body", "merge")
    assert title_hits == _field_docs(pdf, "title", "merge")
    assert title_hits < body_hits
    # default field = body
    default_hits = {sd.doc_key for sd in s.search(TermQuery("merge"), k=10_000).score_docs}
    assert default_hits == body_hits
    # unknown field matches nothing (Lucene semantics on multi-field indexes)
    assert s.count(TermQuery("merge", field="nope")) == 0


def test_title_unique_terms(idx, pdf):
    s = IndexSearcher(idx)
    # 'doc123'-style tokens exist only in titles
    hits = s.search(parse_query("title:doc123"), k=10)
    assert [sd.doc_key for sd in hits.score_docs] == [123]
    assert s.count(TermQuery("doc123", field="body")) == 0


def test_per_field_stats_and_scores(idx, pdf):
    s = IndexSearcher(idx, mode="exact")
    cs_t = s._field_cstats("title")
    cs_b = s._field_cstats("body")
    assert cs_t.max_doc == cs_b.max_doc == 500
    assert cs_t.sum_total_term_freq < cs_b.sum_total_term_freq
    # brute-force BM25 on the title field
    import math
    import re

    pat = re.compile(r"[a-z0-9]+")
    toks = {int(r.doc_id): pat.findall(str(r.title).lower()) for r in pdf.itertuples()}
    dls = {d: len(t) for d, t in toks.items()}
    doc_count = sum(1 for v in dls.values() if v > 0)
    avgdl = sum(dls.values()) / doc_count
    term = "merge"
    df = sum(1 for t in toks.values() if term in t)
    idf = math.log(1 + (doc_count - df + 0.5) / (df + 0.5))

    def score(d):
        f = toks[d].count(term)
        return idf * (f * 2.2) / (f + 1.2 * (1 - 0.75 + 0.75 * dls[d] / avgdl))

    want = sorted(((-score(d), d) for d in toks if term in toks[d]))[:10]
    got = s.search(TermQuery(term, field="title"), k=10).score_docs
    assert [sd.doc_key for sd in got] == [d for _, d in want]
    for sd, (negs, _) in zip(got, want):
        assert sd.score == pytest.approx(-negs, rel=1e-12)


def test_cross_field_dismax_and_boost(idx):
    s = IndexSearcher(idx)
    q = DisjunctionMaxQuery(
        [BoostQuery(TermQuery("merge", field="title"), 2.0), TermQuery("merge", field="body")],
        tie_breaker=0.1,
    )
    td = s.search(q, k=10)
    assert td.score_docs
    # a doc with the term in BOTH fields outranks body-only docs of similar length
    both = s.search(BooleanQuery(must=[TermQuery("merge", field="title"),
                                       TermQuery("merge", field="body")]), k=100)
    if both.score_docs:
        top_keys = {sd.doc_key for sd in td.score_docs}
        assert both.score_docs[0].doc_key in top_keys


def test_phrase_on_field(idx, pdf):
    s = IndexSearcher(idx)
    # title = "docN w1 w2": phrase of the first two body words in the title
    row = pdf.iloc[0]
    words = str(row.title).split()[1:3]
    if len(words) == 2:
        td = s.search(PhraseQuery(words, field="title"), k=10_000)
        assert int(row.doc_id) in {sd.doc_key for sd in td.score_docs}


def test_from_readers_multifield_matches_index(idx):
    """A searcher over a multi-field index's readers (no manifest) sums the
    per-field statistics from the readers' metas and scores like the index's
    own searcher; field-scoped and default-field queries both work."""
    disk = IndexSearcher(idx)
    mem = IndexSearcher.from_readers(
        disk.readers, mode="lucene",
        config={"text_col": "body", "text_cols": ["title", "body"]})
    for q in ["merge", "title:merge", "body:spark window", '"merge spark"',
              TermQuery("merge", field="title")]:
        want = [(sd.doc_key, sd.score) for sd in disk.search(q, k=20).score_docs]
        assert want, q
        assert [(sd.doc_key, sd.score) for sd in mem.search(q, k=20).score_docs] == want, q
    assert mem._field_cstats("title") == disk._field_cstats("title")


def test_multifield_checkindex(idx):
    from lucene_ray.state.manifest import Manifest
    from lucene_ray.state.segment import check_segment

    for d in Manifest.load(idx).segment_dirs():
        assert check_segment(d) == []


def test_multifield_merge_preserves_scores(ray_session, tmp_path, two_field_parquet):
    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.state.merge import merge_index

    d = str(tmp_path / "mfm")
    build_index(two_field_parquet, d, key_col="doc_id", text_col="body",
                text_cols=("title", "body"), num_partitions=4,
                columns=["doc_id", "title", "body"])
    pre = IndexSearcher(d)
    queries = [TermQuery("merge", field="title"), TermQuery("merge"),
               parse_query("title:doc42")]
    want = [
        [(sd.doc_key, sd.score) for sd in pre.search(q, k=10).score_docs] for q in queries
    ]
    merge_index(d, merge_factor=4)
    post = IndexSearcher(d)
    assert post._field_cstats("title") == pre._field_cstats("title")
    for q, w in zip(queries, want):
        got = [(sd.doc_key, sd.score) for sd in post.search(q, k=10).score_docs]
        assert got == w, q


def test_multifield_deletes_and_merge(ray_session, tmp_path, two_field_parquet):
    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.state.deletes import delete_by_keys
    from lucene_ray.state.merge import merge_index
    from lucene_ray.state.segment import check_segment
    from lucene_ray.state.manifest import Manifest

    d = str(tmp_path / "mfd")
    build_index(two_field_parquet, d, key_col="doc_id", text_col="body",
                text_cols=("title", "body"), num_partitions=4,
                columns=["doc_id", "title", "body"])
    s0 = IndexSearcher(d)
    title_hits = {sd.doc_key for sd in s0.search(TermQuery("merge", field="title"), k=10_000).score_docs}
    victims = set(list(title_hits)[:2])
    assert delete_by_keys(d, victims) == 2
    s1 = IndexSearcher(d)
    got = {sd.doc_key for sd in s1.search(TermQuery("merge", field="title"), k=10_000).score_docs}
    assert got == title_hits - victims
    m = merge_index(d, merge_factor=4)
    for seg in m.segment_dirs():
        assert check_segment(seg) == []
    s2 = IndexSearcher(d)
    assert {sd.doc_key for sd in s2.search(TermQuery("merge", field="title"), k=10_000).score_docs} == title_hits - victims
    # per-field stats reclaimed the deletes exactly
    assert s2._field_cstats("title").max_doc == 498


def test_explain_reports_the_terms_own_field_length():
    """explain's ``dl`` leaf is the length of the field the term is scored
    on, not the default field's."""
    from lucene_ray.functions.analysis import get_analyzer
    from lucene_ray.state.segment import SegmentReader, build_multifield_segment_tables

    p, d, stats, field_stats = build_multifield_segment_tables(
        np.array(["a", "b"], dtype=object),
        {"title": ["foo", "bar baz"],
         "body": ["one two three four five six", "foo bar"]},
        get_analyzer("standard"), default_field="body")
    r = SegmentReader.from_tables(p, d, {"name": "mf", **stats, "field_stats": field_stats})
    s = IndexSearcher.from_readers(
        [r], config={"text_col": "body", "text_cols": ["title", "body"]})

    def dl(q, key):
        ex = s.explain(q, key)
        hits = {sd.doc_key: sd.score for sd in s.search(q, k=2).score_docs}
        assert ex["value"] == hits.get(key, 0.0)
        return next(x["value"] for x in ex["details"] if x["description"] == "dl")

    assert dl(TermQuery("foo", field="title"), "a") == 1.0
    assert dl(TermQuery("foo"), "b") == 2.0
    assert dl(TermQuery("foo", field="nofield"), "a") == 0.0
