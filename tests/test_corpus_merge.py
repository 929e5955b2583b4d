"""Corpus synthesis / extraction invariant, merge correctness, web pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from lucene_ray.searcher import IndexSearcher
from lucene_ray.sources.corpus import extract_text, extract_title, make_html
from lucene_ray.state.manifest import Manifest
from lucene_ray.state.merge import merge_index, select_merges
from lucene_ray.state.segment import check_segment

SF_DIR = "/root/testdata/sf0.001"


def test_html_roundtrip_byte_identical():
    cases = [
        "plain words here",
        "entities & <tags> > stuff & more",
        "",
        "unicode ñ 日本語 — dash",
        "a & b &amp; c",  # pre-escaped-looking text must survive too
    ]
    for text in cases:
        h = make_html(text, "t & <title>")
        assert extract_text(h) == text
        assert extract_title(h) == "t & <title>"


def test_synthesized_corpus_schema_and_extraction(ray_session):
    from lucene_ray.sources.corpus import synthesize_corpus, extract_batch

    ds = synthesize_corpus(SF_DIR, replicas=2)
    assert ds.count() == 1000
    ex = ds.map_batches(extract_batch, batch_format="pyarrow")
    t = ex.take_batch(50, batch_format="pyarrow")
    assert set(t.column_names) >= {"url", "warc_ts", "text", "lang"}
    assert "html" not in t.column_names
    # urls unique across replicas
    urls = ds.select_columns(["url"]).take_all()
    assert len({r["url"] for r in urls}) == 1000


@pytest.fixture(scope="module")
def indexed(ray_session, tmp_path_factory):
    from lucene_ray.pipelines.index_pipeline import build_index

    d = str(tmp_path_factory.mktemp("merge") / "idx")
    build_index(f"{SF_DIR}/documents.parquet", d, key_col="doc_id", text_col="text",
                num_partitions=8, columns=["doc_id", "text"])
    return d


def test_merge_preserves_results(indexed):
    pre = IndexSearcher(indexed)
    queries = ["merge", "spark window", "merge AND window", '"batch batch"', "s*"]
    want = {q: [(sd.doc_key, sd.score) for sd in pre.search(q, k=10).score_docs]
            for q in queries}
    m0 = Manifest.load(indexed)
    m1 = merge_index(indexed, merge_factor=4)
    assert m1.gen == m0.gen + 1
    assert len(m1.segments) < len(m0.segments)
    for d in m1.segment_dirs():
        assert check_segment(d) == []
    assert m1.collection_stats() == m0.collection_stats()
    post = IndexSearcher(indexed)
    for q in queries:
        got = [(sd.doc_key, sd.score) for sd in post.search(q, k=10).score_docs]
        assert got == want[q], q


def test_select_merges_bounds():
    segs = [{"name": f"s{i}", "max_doc": 100 * (i + 1)} for i in range(12)]
    groups = select_merges(segs, merge_factor=5, max_merged_docs=10_000)
    assert all(2 <= len(g) <= 5 for g in groups)
    flat = [n for g in groups for n in g]
    assert len(flat) == len(set(flat))


def test_web_pipeline_end_to_end(ray_session, tmp_path_factory):
    from lucene_ray.pipelines.web_pipeline import build_web_index, run_query_set

    d = str(tmp_path_factory.mktemp("web") / "idx")
    manifest = build_web_index(SF_DIR, d, num_partitions=6, merge=True)
    assert manifest.collection_stats().max_doc == 500
    out = run_query_set(d, ["merge", '"batch batch"'], k=5, concurrency=2).to_pandas()
    local = IndexSearcher(d)
    for qi, q in enumerate(["merge", '"batch batch"']):
        got = out[out.query_id == qi].sort_values("rank")
        want = local.search(q, k=5).score_docs
        assert got["doc_key"].tolist() == [sd.doc_key for sd in want]
        assert np.allclose(got["score"].to_numpy(), [sd.score for sd in want])
    assert out["doc_key"].str.startswith("https://example.org/").all()


def test_write_segment_retry_idempotent(tmp_path):
    """A Ray task retry re-writing an already-committed segment must not
    corrupt or duplicate it (idempotent segment naming + first-writer-wins)."""
    import numpy as np

    from lucene_ray.functions.analysis import Analyzer
    from lucene_ray.state.segment import (
        SegmentReader,
        build_segment_tables,
        write_segment,
    )

    d = str(tmp_path / "idx")
    an = Analyzer("standard")
    keys = np.array([1, 2, 3])
    texts = ["alpha beta", "beta gamma", "alpha alpha"]
    p, t, s = build_segment_tables(keys, texts, an)
    m1 = write_segment(d, "seg-x", p, t, s, extra_meta={"part_id": 0})
    m2 = write_segment(d, "seg-x", p, t, s, extra_meta={"part_id": 0})  # retry
    assert m1["checksum"] == m2["checksum"]
    r = SegmentReader(f"{d}/segments/seg-x")
    assert r.max_doc == 3
    import os

    assert sorted(os.listdir(f"{d}/segments")) == ["seg-x"]


def test_force_merge(ray_session, tmp_path):
    """forceMerge analogue: rounds until <= max_segments; results
    rank-identical before and after."""
    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.query import TermQuery
    from lucene_ray.searcher import IndexSearcher
    from lucene_ray.state.merge import force_merge

    d = str(tmp_path / "fm")
    build_index("/root/testdata/sf0.001/documents.parquet", d, key_col="doc_id",
                text_col="text", num_partitions=6, columns=["doc_id", "text"])
    before = [
        (sd.doc_key, round(sd.score, 6))
        for sd in IndexSearcher(d).search(TermQuery("merge"), 10).score_docs
    ]
    m = force_merge(d, max_segments=1, use_ray=False)
    assert len(m.segments) == 1
    after = [
        (sd.doc_key, round(sd.score, 6))
        for sd in IndexSearcher(d).search(TermQuery("merge"), 10).score_docs
    ]
    assert before == after


# ------------------------------ TieredMergePolicy scoring parity (r4)


def test_tiered_score_formula():
    """Hand-computed skew·size^0.05·nonDelRatio² (TieredMergePolicy.java:
    644-698)."""
    from lucene_ray.state.merge import tiered_merge_score

    live = [4000, 3000, 2000, 1000]
    got = tiered_merge_score(live, live, False, 10, floor_docs=1000)
    want = (4000 / 10000) * (10000 ** 0.05) * 1.0
    assert got == pytest.approx(want)
    # floored skew: sub-floor segments count as floor_docs in the ratio
    got2 = tiered_merge_score([500, 100], [500, 100], False, 10, floor_docs=1000)
    assert got2 == pytest.approx((1000 / 2000) * (600 ** 0.05))
    # hitTooLarge pretends perfect skew (cannot cascade)
    got3 = tiered_merge_score([900000, 100], [900000, 100], True, 8)
    assert got3 == pytest.approx((1 / 8) * (900100 ** 0.05))
    # delete reclaim: nonDelRatio² strongly favors deletion-heavy merges
    clean = tiered_merge_score([1000, 1000], [1000, 1000], False, 10)
    holey = tiered_merge_score([500, 500], [1000, 1000], False, 10)
    assert holey < clean


def test_select_merges_prefers_balanced_candidate():
    """Candidate choice: with a lopsided head, the window of equal-size
    segments (lowest skew) wins — not the window containing the huge one."""
    from lucene_ray.state.merge import select_merges

    segs = [{"name": "big", "max_doc": 100_000}] + [
        {"name": f"s{i}", "max_doc": 10_000} for i in range(4)]
    groups = select_merges(segs, merge_factor=4, max_merged_docs=1_000_000)
    assert groups[0] == ["s0", "s1", "s2", "s3"]


def test_select_merges_favors_delete_reclaim():
    """Between two equal-size windows, the one with deletes scores lower
    (better) via nonDelRatio²."""
    from lucene_ray.state.merge import select_merges

    segs = ([{"name": f"clean{i}", "max_doc": 10_000} for i in range(2)]
            + [{"name": f"holey{i}", "max_doc": 10_000, "del_count": 5_000}
               for i in range(2)])
    groups = select_merges(segs, merge_factor=2, max_merged_docs=1_000_000)
    assert groups[0] == ["holey0", "holey1"]


def test_select_merges_singleton_only_with_deletes():
    from lucene_ray.state.merge import select_merges

    # lone clean segment: nothing to do
    assert select_merges([{"name": "a", "max_doc": 100}], merge_factor=4,
                         max_merged_docs=1000) == []
    # lone deleted segment: singleton delete-reclaim rewrite
    assert select_merges([{"name": "a", "max_doc": 100, "del_count": 40}],
                         merge_factor=4, max_merged_docs=1000) == [["a"]]


def test_select_merges_too_big_excluded_unless_deleted():
    from lucene_ray.state.merge import select_merges

    segs = [{"name": "huge", "max_doc": 900_000},
            {"name": "a", "max_doc": 100}, {"name": "b", "max_doc": 100}]
    groups = select_merges(segs, merge_factor=4, max_merged_docs=1_000_000)
    # huge (> cap/2, no deletes) is not eligible; a+b merge
    assert groups == [["a", "b"]]


def test_merge_group_with_2048_token_document(tmp_path):
    """A document of 2,048 tokens must not overflow the merge's composite
    (block, length, freq) impact sort key: ``2048 << 20`` does not fit an
    int32."""
    from lucene_ray.functions.analysis import Analyzer
    from lucene_ray.state.merge import merge_segment_group
    from lucene_ray.state.segment import (
        SegmentReader,
        build_segment_tables,
        write_segment,
    )

    d = str(tmp_path / "idx")
    an = Analyzer("standard")
    long_doc = " ".join(["long"] * 2047 + ["tail"])
    groups = {"seg-a": ([1, 2], [long_doc, "short long"]),
              "seg-b": ([3], ["tail words"])}
    for name, (keys, texts) in groups.items():
        p, t, s = build_segment_tables(np.array(keys), texts, an)
        write_segment(d, name, p, t, s, extra_meta={"part_id": 0})
    merge_segment_group(d, ["seg-a", "seg-b"], "seg-m")
    out = f"{d}/segments/seg-m"
    assert check_segment(out) == []
    r = SegmentReader(out)
    assert int(r.dls.max()) == 2048
    counts, freqs, lens = r.impacts(r.term_index("long"))
    assert int(lens.max()) == 2048 and int(freqs.max()) == 2047
