"""SortedSet doc values: list-typed docvalue columns round-trip through
build/merge and power multi-valued facet counting."""

import numpy as np
import pyarrow as pa
import pytest
import ray


ROWS = [
    {"url": "u0", "text": "merge spark window", "tags": ["a", "b"]},
    {"url": "u1", "text": "merge batch", "tags": ["b"]},
    {"url": "u2", "text": "spark only here", "tags": ["a", "c"]},
    {"url": "u3", "text": "merge again merge", "tags": []},
    {"url": "u4", "text": "merge tail", "tags": ["c", "b", "a"]},
]


@pytest.fixture()
def tag_index(tmp_path, ray_session):
    from lucene_ray.pipelines.index_pipeline import build_index

    idx = str(tmp_path / "tagidx")
    ds = ray.data.from_items(ROWS).map_batches(
        lambda b: b.set_column(
            b.column_names.index("tags"), "tags",
            b.column("tags").cast(pa.list_(pa.string()))),
        batch_format="pyarrow")
    build_index(ds, idx, key_col="url", text_col="text",
                num_partitions=3, docvalue_cols=("tags",))
    return idx


def _expected(term):
    out = {}
    for r in ROWS:
        if term in r["text"].split():
            for t in r["tags"]:
                out[t] = out.get(t, 0) + 1
    return out


def test_facet_counts_multi(tag_index, ray_session):
    from lucene_ray.collectors import facet_counts_multi
    from lucene_ray.query import TermQuery
    from lucene_ray.searcher import IndexSearcher

    s = IndexSearcher(tag_index)
    assert facet_counts_multi(s, TermQuery("merge"), "tags") == _expected("merge")
    assert facet_counts_multi(s, TermQuery("spark"), "tags") == _expected("spark")
    with pytest.raises(KeyError):
        facet_counts_multi(s, TermQuery("merge"), "nope")


def test_sorted_set_survives_merge(tag_index, ray_session):
    from lucene_ray.collectors import facet_counts_multi
    from lucene_ray.query import TermQuery
    from lucene_ray.searcher import IndexSearcher
    from lucene_ray.state.merge import force_merge

    force_merge(tag_index, max_segments=1)
    s = IndexSearcher(tag_index)
    assert len(s.readers) == 1
    r = s.readers[0]
    offsets, codes, vocab = r.sorted_set_dv["tags"]
    assert list(vocab) == sorted(vocab)  # sorted ords contract
    assert facet_counts_multi(s, TermQuery("merge"), "tags") == _expected("merge")
