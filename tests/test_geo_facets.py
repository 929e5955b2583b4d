"""Geo distance query (LatLonPoint.newDistanceQuery analogue), numeric range
facets (LongRangeFacetCounts), and diversified top-k
(DiversifiedTopDocsCollector) — each vs an independent brute-force oracle.

The geo tests deliberately place points at the poles, on the antimeridian,
and dense around every circle boundary so the kd-tree box prune (not the
haversine verify, which both sides share) is what's exercised.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from lucene_ray.collectors import diversified_topk, dv_stats, range_facet_counts
from lucene_ray.functions.points import (
    MEAN_EARTH_RADIUS_M,
    distance_bounding_boxes,
    haversine_meters,
)
from lucene_ray.query import GeoDistanceQuery, TermQuery
from lucene_ray.searcher import IndexSearcher

SF_DIR = "/root/testdata/sf0.001"

CIRCLES = [
    (0.0, 0.0, 1_000_000.0),
    (48.8, 2.35, 300_000.0),
    (-89.5, 10.0, 200_000.0),  # pole-adjacent (south)
    (89.9, -120.0, 500_000.0),  # pole-adjacent (north)
    (12.0, 179.8, 400_000.0),  # crosses the antimeridian east
    (-30.0, -179.9, 1_200_000.0),  # crosses west
    (0.0, 0.0, 25_000_000.0),  # radius > half circumference: everything
]


@pytest.fixture(scope="module")
def geo_idx(ray_session, tmp_path_factory):
    import ray.data

    from lucene_ray.pipelines.index_pipeline import build_index

    rng = np.random.default_rng(7)
    n = 20_000  # big enough that kd leaves (512 pts) are much smaller than a segment
    lat = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))  # uniform on the sphere
    lon = rng.uniform(-180.0, 180.0, n)
    # adversarial placements: poles, antimeridian, exact centers
    lat[:4] = [90.0, -90.0, 0.0, 0.0]
    lon[:4] = [0.0, 0.0, 180.0, -180.0]
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "text": ["point geo doc"] * n,
            "lat": lat,
            "lon": lon,
        }
    )
    d = str(tmp_path_factory.mktemp("geo") / "idx")
    build_index(
        ray.data.from_pandas(df),
        d,
        key_col="doc_id",
        text_col="text",
        num_partitions=3,
        analyzer="simple",
        docvalue_cols=("lat", "lon"),
    )
    return d, df


def test_haversine_known_values():
    # one degree of latitude at the equator = R * pi/180
    d = haversine_meters(np.array([0.0]), np.array([0.0]), 1.0, 0.0)
    assert abs(d[0] - MEAN_EARTH_RADIUS_M * np.pi / 180.0) < 1e-6
    # antipodal = half circumference
    d = haversine_meters(np.array([0.0]), np.array([0.0]), 0.0, 180.0)
    assert abs(d[0] - MEAN_EARTH_RADIUS_M * np.pi) < 1e-6
    assert haversine_meters(np.array([37.0]), np.array([-122.0]), 37.0, -122.0)[0] == 0.0


def test_bounding_boxes_cover_circle():
    rng = np.random.default_rng(3)
    for lat, lon, r in CIRCLES:
        boxes = distance_bounding_boxes(lat, lon, r)
        # sample points *inside* the circle; every one must fall in some box
        for _ in range(200):
            plat = rng.uniform(-90, 90)
            plon = rng.uniform(-180, 180)
            if haversine_meters(np.array([plat]), np.array([plon]), lat, lon)[0] > r:
                continue
            assert any(
                b[0] <= plat <= b[1] and b[2] <= plon <= b[3] for b in boxes
            ), (lat, lon, r, plat, plon)


def test_geo_distance_matches_bruteforce(geo_idx):
    d, df = geo_idx
    s = IndexSearcher(d)
    for lat, lon, r in CIRCLES:
        got = {
            sd.doc_key
            for sd in s.search(
                GeoDistanceQuery("lat", "lon", lat, lon, r), k=50_000
            ).score_docs
        }
        dist = haversine_meters(df.lat.to_numpy(), df.lon.to_numpy(), lat, lon)
        want = set(df.doc_id.to_numpy()[dist <= r].tolist())
        assert got == want, (lat, lon, r, len(got), len(want))


def test_geo_prune_examines_fewer_docs(geo_idx):
    d, _ = geo_idx
    s = IndexSearcher(d)
    s.range_stats.update(docs_examined=0, max_doc_total=0)
    s.count(GeoDistanceQuery("lat", "lon", 48.8, 2.35, 300_000.0))
    st = s.range_stats
    assert st["docs_examined"] < st["max_doc_total"] * 0.5


@pytest.fixture(scope="module")
def doc_idx(ray_session, tmp_path_factory):
    from lucene_ray.pipelines.index_pipeline import build_index

    d = str(tmp_path_factory.mktemp("facets") / "idx")
    build_index(
        f"{SF_DIR}/documents.parquet",
        d,
        key_col="doc_id",
        text_col="text",
        num_partitions=3,
        analyzer="simple",
        columns=["doc_id", "text", "lang", "n_chars"],
        docvalue_cols=("lang", "n_chars"),
    )
    return d


def test_range_facets_overlapping(doc_idx):
    import pyarrow.parquet as pq

    from lucene_ray.functions.analysis import Analyzer

    s = IndexSearcher(doc_idx)
    ranges = [("a", 0, 900), ("b", 500, 1500), ("c", 0, 10**9), ("empty", -10, -5)]
    got = dict(range_facet_counts(s, TermQuery("merge"), "n_chars", ranges))

    t = pq.read_table(f"{SF_DIR}/documents.parquet").to_pandas()
    an = Analyzer("simple")
    m = t[[("merge" in {w for w, _ in an.tokenize_one(x)}) for x in t.text]]
    for label, lo, hi in ranges:
        want = int(((m.n_chars >= lo) & (m.n_chars < hi)).sum())
        assert got[label] == want, label
    assert got["empty"] == 0


def test_diversified_topk_greedy_oracle(doc_idx):
    s = IndexSearcher(doc_idx, mode="exact")
    for m, k in [(1, 5), (2, 10), (3, 50)]:
        got = diversified_topk(s, TermQuery("merge"), "lang", max_per_key=m, k=k)
        # oracle: rank ALL hits, greedily keep with per-lang cap
        hits = s.search(TermQuery("merge"), k=10**6).score_docs
        langs = {d["doc_key"]: d["lang"] for d in (s.document(h.doc_key) for h in hits)}
        order = sorted(hits, key=lambda h: (-h.score, h.doc_key))
        counts: dict = {}
        want = []
        for h in order:
            kk = langs[h.doc_key]
            if counts.get(kk, 0) >= m:
                continue
            counts[kk] = counts.get(kk, 0) + 1
            want.append((len(want) + 1, h.doc_key, kk))
            if len(want) >= k:
                break
        assert [(r, dk, kk) for r, dk, kk, _ in got] == want, (m, k)


def test_covering_query_per_doc_min_match(geo_idx):
    """CoveringQuery vs brute force: every doc's matching-clause count must
    meet its own 'mm' doc-values minimum (here derived from doc_id)."""
    import ray.data

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.query import CoveringQuery

    rng = np.random.default_rng(11)
    n = 300
    vocab = ["alpha", "beta", "gamma", "delta"]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 5), replace=False)) for _ in range(n)]
    mm = (1 + np.arange(n) % 3).astype(np.int64)
    df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts, "mm": mm})
    import tempfile

    d = tempfile.mkdtemp(prefix="cov") + "/idx"
    build_index(ray.data.from_pandas(df), d, key_col="doc_id", text_col="text",
                num_partitions=2, analyzer="simple", docvalue_cols=("mm",))
    s = IndexSearcher(d, mode="exact")
    clauses = [TermQuery(t) for t in ("alpha", "beta", "gamma")]
    got = {sd.doc_key for sd in s.search(CoveringQuery(clauses, "mm"), k=1000).score_docs}
    want = set()
    for i, t in enumerate(texts):
        words = set(t.split())
        c = sum(1 for x in ("alpha", "beta", "gamma") if x in words)
        if c >= mm[i]:
            want.add(i)
    assert got == want


def test_dv_stats_matches_numpy(doc_idx):
    import pyarrow.parquet as pq

    from lucene_ray.functions.analysis import Analyzer

    s = IndexSearcher(doc_idx, mode="exact")
    st = dv_stats(s, TermQuery("merge"), "n_chars")
    t = pq.read_table(f"{SF_DIR}/documents.parquet").to_pandas()
    an = Analyzer("simple")
    v = t[[("merge" in {w for w, _ in an.tokenize_one(x)}) for x in t.text]].n_chars.to_numpy(np.int64)
    assert st["count"] == len(v) and st["min"] == v.min() and st["max"] == v.max()
    assert st["sum"] == int(v.sum())
    assert abs(st["mean"] - v.mean()) < 1e-9
    assert abs(st["variance"] - v.var()) < 1e-6
    assert abs(st["stddev"] - v.std()) < 1e-6
    empty = dv_stats(s, TermQuery("zzznotaterm"), "n_chars")
    assert empty["count"] == 0 and empty["mean"] is None


def test_diversified_respects_cap(doc_idx):
    s = IndexSearcher(doc_idx, mode="exact")
    out = diversified_topk(s, TermQuery("the"), "lang", max_per_key=2, k=20)
    per = {}
    for _, _, kk, _ in out:
        per[kk] = per.get(kk, 0) + 1
    assert all(v <= 2 for v in per.values())
    # ranks are 1..n contiguous
    assert [r for r, *_ in out] == list(range(1, len(out) + 1))
