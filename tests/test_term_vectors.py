"""Term vectors (doc-major transpose side file): build, read, merge
survival, and the MoreLikeThis no-reanalysis path."""

import numpy as np
import pytest
import ray


ROWS = [
    {"url": "u0", "text": "alpha beta beta gamma"},
    {"url": "u1", "text": "alpha delta"},
    {"url": "u2", "text": ""},
    {"url": "u3", "text": "gamma gamma gamma epsilon alpha"},
]


@pytest.fixture()
def tv_index(tmp_path, ray_session):
    from lucene_ray.pipelines.index_pipeline import build_index

    idx = str(tmp_path / "tvidx")
    build_index(ray.data.from_items(ROWS), idx, key_col="url",
                text_col="text", num_partitions=2, store_term_vectors=True)
    return idx


def _expected(url):
    toks = dict()
    for r in ROWS:
        if r["url"] == url:
            for t in r["text"].split():
                toks[t] = toks.get(t, 0) + 1
    return toks


def test_term_vector_roundtrip(tv_index, ray_session):
    from lucene_ray.searcher import IndexSearcher

    s = IndexSearcher(tv_index)
    for r in s.readers:
        assert r.has_term_vectors
        for local, key in enumerate(r.doc_keys):
            terms, freqs = r.term_vector(local)
            assert dict(zip(terms, freqs.tolist())) == _expected(key)
            # terms within a doc's vector are term-sorted
            assert list(terms) == sorted(terms)


def test_term_vectors_survive_merge(tv_index, ray_session):
    from lucene_ray.searcher import IndexSearcher
    from lucene_ray.state.merge import force_merge

    force_merge(tv_index, max_segments=1)
    s = IndexSearcher(tv_index)
    r = s.readers[0]
    assert r.has_term_vectors
    for local, key in enumerate(r.doc_keys):
        terms, freqs = r.term_vector(local)
        assert dict(zip(terms, freqs.tolist())) == _expected(key)


def test_mlt_uses_term_vectors(tv_index, ray_session):
    from lucene_ray.searcher import IndexSearcher
    from lucene_ray.suggest import more_like_this

    s = IndexSearcher(tv_index)
    td = more_like_this(s, "u0", k=5)
    keys = [sd.doc_key for sd in td.score_docs]
    assert "u0" not in keys        # source excluded
    assert set(keys) & {"u1", "u3"}  # shares alpha/gamma

    # equivalence with the dictionary-scan fallback on an index without TVs
    import shutil, os

    for r in s.readers:
        pass
    # build a no-TV twin and compare MLT results
    import ray as _ray
    from lucene_ray.pipelines.index_pipeline import build_index

    twin = tv_index + "-notv"
    build_index(_ray.data.from_items(ROWS), twin, key_col="url",
                text_col="text", num_partitions=2)
    s2 = IndexSearcher(twin)
    td2 = more_like_this(s2, "u0", k=5)
    assert [(sd.doc_key, round(sd.score, 6)) for sd in td.score_docs] == \
           [(sd.doc_key, round(sd.score, 6)) for sd in td2.score_docs]


def test_reader_without_vectors_raises(tmp_path, ray_session):
    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.searcher import IndexSearcher

    idx = str(tmp_path / "plain")
    build_index(ray.data.from_items(ROWS), idx, key_col="url",
                text_col="text", num_partitions=1)
    r = IndexSearcher(idx).readers[0]
    assert not r.has_term_vectors
    with pytest.raises(ValueError, match="store_term_vectors"):
        r.term_vector(0)
