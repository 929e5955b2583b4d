"""Lazy range-file GlobalTermStats: lookups touch one range file, scores
match the eager path, suggest falls back to the per-reader scan."""

import os
import shutil

import numpy as np
import pytest
import ray


@pytest.fixture()
def many_range_index(tmp_path, ray_session):
    import ray.data

    from lucene_ray.pipelines.index_pipeline import build_index, build_term_stats
    from lucene_ray.state.manifest import Manifest

    rows = [{"url": f"u{i:04d}",
             "text": f"w{i % 311:03d} shared w{(i * 7) % 311:03d} tail{i % 13}"}
            for i in range(2000)]
    idx = str(tmp_path / "lz")
    build_index(ray.data.from_items(rows), idx, key_col="url",
                text_col="text", num_partitions=8)
    man = Manifest.load(idx)
    ts = os.path.join(idx, f"term_stats-{man.gen}.parquet")
    eager_path = ts + ".eager"
    shutil.copyfile(ts, eager_path)
    os.remove(ts)
    out = build_term_stats(idx, man, small_dict_limit=0)
    assert os.path.isdir(out)
    return idx, out, eager_path


def test_lazy_lookup_matches_eager(many_range_index, ray_session):
    import glob

    from lucene_ray.searcher import GlobalTermStats

    idx, lazy_path, eager_path = many_range_index
    n_files = len(glob.glob(os.path.join(lazy_path, "*.parquet")))
    g_lazy = GlobalTermStats(lazy_path)
    g_eager = GlobalTermStats(eager_path)
    if n_files > GlobalTermStats.LAZY_FILE_THRESHOLD:
        assert not g_lazy.eager
    assert g_eager.eager
    for t in ["shared", "w000", "w155", "w310", "tail7", "zzz-missing", "a"]:
        assert g_lazy.lookup(t) == g_eager.lookup(t), t
    if not g_lazy.eager:
        # bounded range cache
        assert len(g_lazy._range_cache) <= 8


def test_searcher_scores_identical_lazy(many_range_index, ray_session):
    from lucene_ray.searcher import IndexSearcher
    from lucene_ray.suggest import suggest_terms

    idx, _lazy, _eager = many_range_index
    s = IndexSearcher(idx, mode="exact")
    td = s.search("shared w042", k=10)
    assert td.score_docs
    # suggest still works (per-reader fallback when the dict is lazy)
    out = suggest_terms(s, "w04", k=5)
    assert out and all(t.startswith("w04") for t, _ in out)
