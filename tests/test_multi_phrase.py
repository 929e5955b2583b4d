"""MultiPhraseQuery conformance: per-position term alternatives match like
an exact phrase over per-slot UNION postings (search/MultiPhraseQuery.java:47,
UnionPostingsEnum), slop>0 routes through the SloppyPhraseMatcher port with
one pseudo-term per slot."""

from __future__ import annotations

import pandas as pd
import pytest

from lucene_ray.query import MultiPhraseQuery, PhraseQuery, TermQuery
from lucene_ray.searcher import IndexSearcher

DOCS = [
    "microsoft app for the desktop",      # 0: matches (microsoft, app|office)
    "microsoft office license renewal",   # 1: matches (microsoft, app|office)
    "the microsoft word app office",      # 2: microsoft..app needs slop
    "open office app suite",              # 3: no microsoft
    "microsoft microsoft office",         # 4: repeated head term
    "b b c d e",                          # 5: slot-union with shared doc
]


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    from lucene_ray.pipelines.index_pipeline import build_index

    d = tmp_path_factory.mktemp("mphrase")
    src = str(d / "docs.parquet")
    pd.DataFrame({"doc_id": range(len(DOCS)), "text": DOCS}).to_parquet(src)
    idx = str(d / "idx")
    build_index(src, idx, key_col="doc_id", text_col="text", num_partitions=2,
                columns=["doc_id", "text"])
    return idx


def brute_exact(slots):
    out = {}
    for i, doc in enumerate(DOCS):
        toks = doc.split()
        n = sum(
            1
            for s in range(len(toks) - len(slots) + 1)
            if all(toks[s + j] in slot for j, slot in enumerate(slots))
        )
        if n:
            out[i] = n
    return out


def test_exact_matches_brute_force(idx):
    s = IndexSearcher(idx)
    for slots in [
        (("microsoft",), ("app", "office")),
        (("microsoft", "open"), ("office",)),
        (("the", "word"), ("microsoft", "app"), ("word", "office", "app")),
        (("b",), ("b", "c")),
    ]:
        got = {sd.doc_key for sd in s.search(MultiPhraseQuery(slots), k=100).score_docs}
        assert got == set(brute_exact(slots)), slots


def test_single_slot_single_term_rewrites_to_term_query(idx):
    s = IndexSearcher(idx)
    mq = s.search(MultiPhraseQuery((("office",),)), k=100)
    tq = s.search(TermQuery("office"), k=100)
    assert [(sd.doc_key, sd.score) for sd in mq.score_docs] == [
        (sd.doc_key, sd.score) for sd in tq.score_docs
    ]


def test_degenerate_all_single_slots_equals_phrase(idx):
    s = IndexSearcher(idx)
    mq = s.search(MultiPhraseQuery((("microsoft",), ("office",))), k=100)
    pq = s.search(PhraseQuery(["microsoft", "office"]), k=100)
    assert [(sd.doc_key, round(sd.score, 6)) for sd in mq.score_docs] == [
        (sd.doc_key, round(sd.score, 6)) for sd in pq.score_docs
    ]


def test_slop_widens_matches(idx):
    s = IndexSearcher(idx)
    slots = (("microsoft",), ("app", "office"))
    exact = {sd.doc_key for sd in s.search(MultiPhraseQuery(slots), k=100).score_docs}
    slop2 = {
        sd.doc_key
        for sd in s.search(MultiPhraseQuery(slots, slop=2), k=100).score_docs
    }
    assert exact == {0, 1, 4}
    # doc 2: "microsoft word app" — gap of 1 → needs slop ≥ 1
    assert slop2 == exact | {2}


def test_missing_slot_term_ignored_missing_slot_empty(idx):
    s = IndexSearcher(idx)
    # one unknown alternative in a slot: union still matches via the known one
    got = {
        sd.doc_key
        for sd in s.search(
            MultiPhraseQuery((("microsoft",), ("zzzznope", "office"))), k=100
        ).score_docs
    }
    assert got == {1, 4}
    # a slot with NO known terms matches nothing
    assert (
        s.search(MultiPhraseQuery((("microsoft",), ("zzzznope",))), k=100).score_docs
        == []
    )


def test_empty_phrase_matches_nothing(idx):
    # `""` parses to a phrase with no terms: it matches nothing, and an
    # optional empty phrase leaves the rest of the query alone
    s = IndexSearcher(idx)
    assert s.count(PhraseQuery([])) == 0
    assert s.count(MultiPhraseQuery([])) == 0
    assert s.count('microsoft ""') == s.count("microsoft")
