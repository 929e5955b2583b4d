"""Suggest / spell / more-like-this / add_indexes / CLI scripts."""

from __future__ import annotations

import subprocess
import sys

import pytest

from lucene_ray.searcher import IndexSearcher
from lucene_ray.suggest import (fuzzy_suggest_terms, more_like_this, spell_suggest,
                                suggest_terms)

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    from lucene_ray.pipelines.index_pipeline import build_index

    d = str(tmp_path_factory.mktemp("sug") / "idx")
    build_index(f"{SF_DIR}/documents.parquet", d, key_col="doc_id", text_col="text",
                num_partitions=3, columns=["doc_id", "text"])
    return d


def test_suggest_terms(idx):
    s = IndexSearcher(idx)
    out = suggest_terms(s, "s", k=5)
    assert out
    terms = [t for t, _ in out]
    assert all(t.startswith("s") for t in terms)
    weights = [w for _, w in out]
    assert weights == sorted(weights, reverse=True)
    # weight == global ttf
    assert out[0][1] == s.term_statistics(out[0][0]).total_term_freq


def test_fuzzy_suggest(idx):
    """FuzzySuggester semantics: typo-tolerant prefix completion, exact
    prefix ranked ahead of fuzzy, 1-char exact head, short inputs exact."""
    s = IndexSearcher(idx)
    exact = suggest_terms(s, "str", k=5)
    assert exact
    # typo inside the prefix ("srt" ~ "str") still completes str* terms
    fuzzy = fuzzy_suggest_terms(s, "srt", k=5, max_edits=2)
    assert any(t.startswith("str") for t, _ in fuzzy), fuzzy
    # exact-prefix candidates come FIRST (edits ascending)
    both = fuzzy_suggest_terms(s, "str", k=5, max_edits=1)
    assert [t for t, _ in both][: len(exact)] == [t for t, _ in exact][: len(both)]
    # below min_fuzzy_length -> exact behavior
    assert fuzzy_suggest_terms(s, "st", k=3) == suggest_terms(s, "st", k=3)
    from lucene_ray.suggest import _prefix_edit_distance

    assert _prefix_edit_distance("wind", "window", 1) == 0
    assert _prefix_edit_distance("wnd", "window", 1) == 1
    assert _prefix_edit_distance("zzzz", "window", 1) == -1


def test_spell_suggest(idx):
    s = IndexSearcher(idx)
    out = spell_suggest(s, "scam", k=3, max_edits=1)
    assert "scan" in out


def test_more_like_this(idx):
    s = IndexSearcher(idx)
    td = more_like_this(s, 0, max_query_terms=5, k=5)
    assert td.score_docs
    assert all(sd.doc_key != 0 for sd in td.score_docs)
    # deterministic
    td2 = more_like_this(s, 0, max_query_terms=5, k=5)
    assert [(sd.doc_key, sd.score) for sd in td.score_docs] == [
        (sd.doc_key, sd.score) for sd in td2.score_docs
    ]


def test_add_indexes(ray_session, tmp_path):
    import duckdb

    from lucene_ray.pipelines.index_pipeline import add_indexes, build_index
    from lucene_ray.query import TermQuery

    # split the corpus in two by doc_id parity, index separately, then import
    con = duckdb.connect()
    for half, pred in [("a", "doc_id % 2 = 0"), ("b", "doc_id % 2 = 1")]:
        con.execute(
            f"COPY (SELECT doc_id, text FROM read_parquet('{SF_DIR}/documents.parquet') "
            f"WHERE {pred}) TO '{tmp_path}/{half}.parquet' (FORMAT PARQUET)"
        )
    da, db = str(tmp_path / "ia"), str(tmp_path / "ib")
    build_index(f"{tmp_path}/a.parquet", da, key_col="doc_id", text_col="text",
                num_partitions=2, columns=["doc_id", "text"])
    build_index(f"{tmp_path}/b.parquet", db, key_col="doc_id", text_col="text",
                num_partitions=2, columns=["doc_id", "text"])
    m = add_indexes(da, [db])
    assert m.collection_stats().max_doc == 500
    merged = IndexSearcher(da)
    dfull = str(tmp_path / "ifull")
    build_index(f"{SF_DIR}/documents.parquet", dfull, key_col="doc_id", text_col="text",
                num_partitions=2, columns=["doc_id", "text"])
    full = IndexSearcher(dfull)
    for q in ["merge", "spark window"]:
        a = merged.search(q, k=10).score_docs
        b = full.search(q, k=10).score_docs
        assert [(sd.doc_key, sd.score) for sd in a] == [(sd.doc_key, sd.score) for sd in b]


def test_check_index_cli(idx):
    out = subprocess.run([sys.executable, "scripts/check_index.py", idx],
                         capture_output=True, text=True, cwd="/root/repo")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "OK" in out.stdout and "BROKEN" not in out.stdout


def test_index_job_cli(tmp_path):
    d = str(tmp_path / "cli_idx")
    out = subprocess.run(
        [sys.executable, "scripts/index_job.py", "--source",
         f"{SF_DIR}/documents.parquet", "--index-dir", d, "--key-col", "doc_id",
         "--text-col", "text", "--partitions", "2", "--num-cpus", "2", "--merge"],
        capture_output=True, text=True, cwd="/root/repo", timeout=240,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    import json

    info = json.loads(out.stdout.strip().splitlines()[-1])
    assert info["max_doc"] == 500


def test_spell_prefilter_equals_full_scan(idx):
    """The bigram prefilter must be EXACT: same suggestions as a brute-force
    full-dictionary scan for every query term."""
    from lucene_ray.searcher import IndexSearcher, _bounded_edit_distance

    s = IndexSearcher(idx)
    r = s.readers[0]
    vocab = {t for rd in s.readers for t in rd.terms.tolist()}

    def brute(term, k=5, max_edits=2):
        seen = {}
        for t in vocab:
            if t == term:
                continue
            ed = _bounded_edit_distance(term, t, max_edits)
            if ed > 0:
                seen[t] = ed
        return [t for t, _ in sorted(
            seen.items(),
            key=lambda kv: (kv[1], -s.term_statistics(kv[0]).doc_freq, kv[0]))][:5]

    for term in ["merge", "mrege", "window", "batc", "xy", "strem"]:
        assert spell_suggest(s, term, k=5) == brute(term), term


def test_mlt_text_path_matches_scan_path(idx):
    from lucene_ray.searcher import IndexSearcher

    s = IndexSearcher(idx)
    key = s.readers[0].doc_keys[0]
    # reconstruct the doc's text from the index is not possible; instead use
    # a synthetic text containing the doc's terms — both paths must produce a
    # TopDocs with the source doc excluded
    td = more_like_this(s, key, k=5, text="merge sort stream batch merge")
    assert all(sd.doc_key != key for sd in td.score_docs)
    assert len(td.score_docs) > 0


def test_suggest_terms_equals_python_sum_across_segments():
    """Whole-index suggestions summed and selected in Arrow equal the
    per-term Python sum sorted by (ttf desc, term asc), over three segments
    sharing terms, with ttf ties and non-ASCII terms."""
    import numpy as np

    from lucene_ray.functions.analysis import get_analyzer
    from lucene_ray.state.segment import SegmentReader, build_segment_tables

    an = get_analyzer("standard")
    segs = [["été étude zèbre apple", "apple apply été"], ["zèbre zoo apple", "étude étude"],
            ["apply ápice", "zoo été ápice 日本"]]
    readers = []
    for n, texts in enumerate(segs):
        keys = np.array([f"s{n}-{i}" for i in range(len(texts))], dtype=object)
        p, d, stats = build_segment_tables(keys, texts, an)
        readers.append(SegmentReader.from_tables(p, d, {"name": f"s{n}", **stats}))
    s = IndexSearcher.from_readers(readers)
    assert s.global_term_stats is None
    for prefix in ("", "a", "ap", "é", "z", "ápice", "日", "nothing"):
        agg = {}
        for r in readers:
            lo, hi = r.term_range(prefix)
            for i in range(lo, hi):
                agg[r.term_at(i)] = agg.get(r.term_at(i), 0) + int(r.total_tf[i])
        want = sorted(agg.items(), key=lambda x: (-x[1], x[0]))
        for k in (1, 2, 3, 5, 50):
            assert suggest_terms(s, prefix, k) == want[:k], (prefix, k)
    assert suggest_terms(s, "", 4) == [("apple", 3), ("étude", 3), ("été", 3), ("apply", 2)]
