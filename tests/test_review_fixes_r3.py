"""Regression tests for the round-3 review findings."""

import numpy as np
import pytest
import ray


@pytest.fixture()
def small_idx(tmp_path, ray_session):
    from lucene_ray.pipelines.index_pipeline import build_index

    rows = [{"url": "a", "text": "foo fish"}, {"url": "b", "text": "bar fish"},
            {"url": "c", "text": "baz other"}]
    d = str(tmp_path / "rf")
    build_index(ray.data.from_items(rows), d, key_col="url",
                text_col="text", num_partitions=1)
    return d


def test_regexp_alternation_not_prefix_bounded(small_idx, ray_session):
    from lucene_ray.query import RegexpQuery
    from lucene_ray.searcher import IndexSearcher

    s = IndexSearcher(small_idx)
    assert s.count(RegexpQuery("foo|bar")) == 2  # was 1: scan stuck in 'foo' range
    assert s.count(RegexpQuery("(foo|bar)")) == 2
    assert s.count(RegexpQuery("ba[rz]")) == 2
    # class/escaped pipes are NOT alternation — prefix pruning stays active
    from lucene_ray.searcher import _regex_literal_prefix

    assert _regex_literal_prefix("foo|bar") == ""
    assert _regex_literal_prefix("ab[x|y]z") == "ab"
    assert _regex_literal_prefix(r"ab\|cd") != ""


def test_hopping_and_tumbling_normalize_ns_timestamps(ray_session):
    import pandas as pd

    from lucene_ray.pipelines.windows import hopping_window_agg, tumbling_window_agg

    ts = pd.to_datetime(
        ["2024-01-01 00:05:00", "2024-01-01 00:45:00", "2024-01-01 01:10:00"]
    ).astype("datetime64[ns]")
    df = pd.DataFrame({"ts": ts, "event_type": ["x"] * 3, "value": [1.0, 2.0, 4.0]})
    ds = ray.data.from_pandas(df)
    tum = tumbling_window_agg(ds, window="1h").to_pandas()
    assert set(tum.window_start) == {1704067200, 1704070800}
    hop = hopping_window_agg(ds, window="1h", slide="20min").to_pandas()
    # every event covered by exactly 3 windows
    assert int(hop.n.sum()) == 9
    assert hop.window_start.min() >= 1704067200 - 3600


def test_and_operator_applies_to_nested_groups():
    from lucene_ray.flexible import StandardQueryParser
    from lucene_ray.query import BooleanQuery, BoostQuery

    p = StandardQueryParser().set_default_operator("AND")
    q = p.parse("a b (c d)")
    assert isinstance(q, BooleanQuery) and len(q.must) == 3 and not q.should
    inner = [c for c in q.must if isinstance(c, BooleanQuery)]
    assert inner and len(inner[0].must) == 2 and not inner[0].should
    q2 = p.parse("(a b)^2")
    assert isinstance(q2, BoostQuery)
    assert isinstance(q2.query, BooleanQuery) and q2.query.must


def test_standard_query_config_analyzer_field():
    from lucene_ray.flexible import StandardQueryConfig

    cfg = StandardQueryConfig(analyzer="marker")
    assert cfg.analyzer == "marker"
    assert StandardQueryConfig().analyzer is None


def test_cjk_offsets_combination_raises():
    from lucene_ray.functions.analysis import get_analyzer

    with pytest.raises(ValueError, match="cjk"):
        get_analyzer("cjk").tokenize_batch_encoded_offsets(["北京"])


def test_term_spans_mixed_index_clean_error(tmp_path, ray_session):
    import shutil

    from lucene_ray.pipelines.highlight import term_spans
    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.state.manifest import Manifest

    rows_a = [{"url": "a", "text": "alpha beta"}]
    rows_b = [{"url": "b", "text": "alpha gamma"}]
    d1 = str(tmp_path / "with")
    d2 = str(tmp_path / "without")
    build_index(ray.data.from_items(rows_a), d1, key_col="url",
                text_col="text", num_partitions=1, store_offsets=True)
    build_index(ray.data.from_items(rows_b), d2, key_col="url",
                text_col="text", num_partitions=1)
    from lucene_ray.pipelines.index_pipeline import add_indexes

    add_indexes(d1, [d2])  # now mixed: one segment with offsets, one without
    with pytest.raises(ValueError, match="every segment"):
        term_spans(d1, ["alpha"])


def test_term_score_cache_weak_eviction(small_idx, ray_session):
    """Term scores are cached by the searcher that computed them: a second
    searcher over the same readers with other scoring settings gets its own
    scores, and a dropped searcher is freed together with its cache."""
    import gc
    import weakref

    from lucene_ray.functions.similarity import BM25Similarity
    from lucene_ray.query import TermQuery
    from lucene_ray.searcher import IndexSearcher

    def scores(s):
        return [(sd.doc_key, sd.score) for sd in s.search(TermQuery("fish"), k=5).score_docs]

    s1 = IndexSearcher(small_idx)
    first = scores(s1)
    assert len(s1._term_scores) == 1
    readers = s1.readers

    def other():
        return IndexSearcher.from_readers(readers, config={"text_col": "text"},
                                          similarity=BM25Similarity(k1=2.0))

    s2 = other()
    assert scores(s2) != first
    assert scores(s2) == scores(other())  # a cache hit scores as a cold searcher
    assert len(s2._term_scores) == 1
    assert scores(s1) == first

    ref = weakref.ref(s1)
    del s1
    gc.collect()
    assert ref() is None


def test_merge_composite_guard_constant():
    """The composite-key fast path of the impact sort that build and merge
    share must exclude block counts that overflow gb<<40 (source-level
    guard check)."""
    import inspect

    from lucene_ray.functions import postings

    src = inspect.getsource(postings.competitive_impacts)
    assert "nb < (1 << 23)" in src


def test_session_windows_tz_aware(ray_session):
    import pandas as pd

    from lucene_ray.pipelines.windows import session_window_agg

    ts = pd.to_datetime(
        ["2024-01-01 00:00:00", "2024-01-01 00:10:00", "2024-01-01 02:00:00"],
        utc=True)
    df = pd.DataFrame({"ts": ts, "user_id": [1, 1, 1], "value": [1.0] * 3})
    out = session_window_agg(ray.data.from_pandas(df), gap="30min").to_pandas()
    assert len(out) == 2  # two sessions split by the 1h50m gap
    assert sorted(out.n) == [1, 2]


def test_and_operator_preserves_explicit_or():
    from lucene_ray.flexible import StandardQueryParser
    from lucene_ray.query import BooleanQuery

    p = StandardQueryParser().set_default_operator("AND")
    q = p.parse("x (a OR b)")
    assert isinstance(q, BooleanQuery) and len(q.must) == 2
    inner = [c for c in q.must if isinstance(c, BooleanQuery)]
    assert inner and inner[0].should and not inner[0].must  # OR kept
    q2 = p.parse("a OR b")
    assert q2.should and not q2.must


def test_lazy_dict_gap_miss_reads_nothing(tmp_path, ray_session):
    import os

    from lucene_ray.pipelines.index_pipeline import build_index, build_term_stats
    from lucene_ray.searcher import GlobalTermStats
    from lucene_ray.state.manifest import Manifest

    rows = [{"url": f"u{i}", "text": f"w{i % 97:02d}"} for i in range(800)]
    idx = str(tmp_path / "gap")
    build_index(ray.data.from_items(rows), idx, key_col="url",
                text_col="text", num_partitions=8)
    man = Manifest.load(idx)
    ts = os.path.join(idx, f"term_stats-{man.gen}.parquet")
    os.remove(ts)
    out = build_term_stats(idx, man, small_dict_limit=0)
    g = GlobalTermStats(out)
    if not g.eager:
        # a miss before any hit must not populate the range cache
        assert g.lookup("zzzz-way-past-the-end") == (0, 0)
        for fmin, fmax in zip(g._file_min, g._file_max):
            assert fmin <= fmax
