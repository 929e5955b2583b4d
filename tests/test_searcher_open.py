"""What opening a searcher reads: a segment's per-term streams load on first
use, a full-index searcher sums its readers' term statistics, and parsed
query strings are kept per searcher."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lucene_ray.pipelines.index_pipeline import _BuildSegment, _commit_build
from lucene_ray.query import TooManyClauses
from lucene_ray.searcher import PARSE_CACHE_ENTRIES, GlobalTermStats, IndexSearcher
from lucene_ray.state.deletes import (
    delete_by_keys,
    soft_delete_by_keys,
    soft_update_documents,
    update_documents,
)
from lucene_ray.state.manifest import Manifest
from lucene_ray.state.merge import merge_index
from lucene_ray.state.segment import (
    CORE_COLUMNS,
    META_NAME,
    STREAM_COLUMNS,
    SegmentReader,
    check_segment,
)

VOCAB = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]
QUERIES = ["alpha", "beta gamma", "+alpha +beta", "alpha beta gamma",
           '"alpha beta"', '"beta gamma delta"', '"alpha beta"~2']


def _config(text_cols=("text",), **store) -> dict:
    return {"key_col": "k", "text_col": "text", "analyzer": "standard",
            "num_partitions": 1, "store_positions": True,
            "store_offsets": store.get("store_offsets", False),
            "store_term_vectors": False,
            "store_payloads": store.get("store_payloads", False),
            "docvalue_cols": [], "text_cols": list(text_cols), "index_sort": None}


def _rows(keys, texts, text_cols=("text",)) -> pa.Table:
    cols = {"k": pa.array(keys, type=pa.string()), "text": pa.array(texts)}
    if "title" in text_cols:
        cols["title"] = pa.array([t.split(" ", 1)[0] for t in texts])
    return pa.table(cols)


def _build(index_dir: str, parts, config: dict) -> None:
    """Write one segment per ``(keys, texts)`` part and commit them with
    their term statistics, as a build does (no Ray)."""
    b = _BuildSegment(index_dir, config, build_fp=0)
    metas = [b.build_part(_rows(keys, texts, config["text_cols"]), i)
             for i, (keys, texts) in enumerate(parts)]
    _commit_build(index_dir, metas, 0, config)


def _text(rng, n_words: int) -> str:
    return " ".join(rng.choice(VOCAB, size=n_words, p=_ZIPF))


_ZIPF = 1.0 / np.arange(1, len(VOCAB) + 1)
_ZIPF /= _ZIPF.sum()


@pytest.fixture
def index_dir(tmp_path):
    rng = np.random.default_rng(3)
    d = str(tmp_path / "idx")
    parts = [([f"d{p}-{i:03d}" for i in range(60)],
              [_text(rng, int(rng.integers(2, 12))) for _ in range(60)])
             for p in range(2)]
    _build(d, parts, _config(store_offsets=True))
    return d


def _top(s: IndexSearcher, q: str, k: int = 10, algo: str = "auto"):
    td = s.search(q, k=k, algo=algo)
    return td.total_hits, [(sd.doc_key, float(sd.score).hex()) for sd in td.score_docs]


@pytest.fixture
def reads(monkeypatch):
    """The ``columns`` of every ``ParquetFile.read`` call."""
    calls = []
    real = pq.ParquetFile.read

    def read(self, columns=None, **kw):
        calls.append(None if columns is None else tuple(columns))
        return real(self, columns=columns, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read", read)
    return calls


# ------------------------------------------------------------ lazy streams


def test_streams_load_once_on_first_positional_query(index_dir, reads):
    s = IndexSearcher(index_dir)
    assert reads.count(CORE_COLUMNS) == len(s.readers) == 2
    assert STREAM_COLUMNS not in reads
    for q in ["alpha", "beta gamma", "+alpha +beta", "alpha OR delta", "alpha beta gamma"]:
        for algo in ("auto", "exhaustive"):
            s.search(q, k=5, algo=algo)
    assert STREAM_COLUMNS not in reads
    assert not any(r.memory_bytes()["streams_loaded"] for r in s.readers)
    assert all(r.memory_bytes()["stream_bytes"] == 0 for r in s.readers)

    n = len(reads)
    s.search('"alpha beta"', k=5)
    assert reads[n:] == [STREAM_COLUMNS] * len(s.readers)
    assert all(r.memory_bytes()["streams_loaded"] for r in s.readers)
    assert all(r.memory_bytes()["stream_bytes"] > 0 for r in s.readers)

    n = len(reads)
    s.search('"beta gamma"~1', k=5)
    s.search("alpha beta gamma", k=5, algo="wand")
    for r in s.readers:
        i = r.term_index("alpha")
        r.offsets_for_doc(i, int(r.postings(i)[0][0]))
        r.impacts(i)
        r.skip_meta(i)
        r.payloads(i)
        r.postings_blocks(i, 0, 1)
        assert r.has_positions and r.has_offsets and not r.has_payloads
    assert reads[n:] == []


def test_check_segment_reads_its_streams_once(index_dir, reads):
    for d in Manifest.load(index_dir).segment_dirs():
        n = len(reads)
        assert check_segment(d) == []
        assert reads[n:].count(STREAM_COLUMNS) == 1


def test_lazy_reader_equals_in_memory_reader(index_dir):
    """A reader over the files and a ``from_tables`` reader over the same
    tables read the same streams and give the same answers."""
    disk = IndexSearcher(index_dir)
    mem_readers = []
    for d in Manifest.load(index_dir).segment_dirs():
        with open(os.path.join(d, META_NAME)) as f:
            meta = json.load(f)
        mem_readers.append(SegmentReader.from_tables(
            pq.read_table(os.path.join(d, "postings.parquet")),
            pq.read_table(os.path.join(d, "docs.parquet")), meta))
    mem = IndexSearcher.from_readers(mem_readers, mode="lucene",
                                     config=Manifest.load(index_dir).config)
    for q in QUERIES:
        for algo in ("auto", "exhaustive", "wand"):
            assert _top(disk, q, algo=algo) == _top(mem, q, algo=algo), (q, algo)
    for a, b in zip(disk.readers, mem_readers):
        assert a.memory_bytes()["stream_bytes"] == b.memory_bytes()["stream_bytes"]
        for i in range(a.n_terms):
            for get in (SegmentReader.positions, SegmentReader.offsets,
                        SegmentReader.payloads, SegmentReader.skip_meta):
                assert np.array_equal(get(a, i), get(b, i))
            for x, y in zip(a.impacts(i), b.impacts(i)):
                assert np.array_equal(x, y)


def test_open_searcher_reads_streams_after_merge_deleted_its_files(index_dir):
    """A point-in-time searcher whose segment directories a merge removed
    still answers its first phrase query as a pre-merge searcher does."""
    old = IndexSearcher(index_dir)
    want = {q: _top(IndexSearcher(index_dir), q) for q in QUERIES}
    dirs = [r.dir for r in old.readers]
    merge_index(index_dir, delete_sources=True, use_ray=False)
    assert not any(os.path.exists(d) for d in dirs)
    for q in ['"alpha beta"', '"beta gamma delta"', *QUERIES]:
        assert _top(old, q) == want[q], q


def test_search_distributed_matches_local_search(ray_session, tmp_path):
    """Subset shards score with the global term statistics file and a
    local full-index searcher with its readers' sums: same keys, same
    scores."""
    from lucene_ray.pipelines.search_pipeline import search_distributed

    rng = np.random.default_rng(5)
    d = str(tmp_path / "idx")
    parts = [([f"d{p}-{i:03d}" for i in range(40)],
              [_text(rng, int(rng.integers(2, 10))) for _ in range(40)])
             for p in range(3)]
    _build(d, parts, _config())
    queries = ["alpha", "beta gamma", "+alpha +delta", '"alpha beta"', "eta theta zeta"]
    out = search_distributed(d, queries, k=7, concurrency=1,
                             shards_per_actor_segments=1).to_pandas()
    local = IndexSearcher(d)
    assert local.global_term_stats is None
    for qi, q in enumerate(queries):
        want = local.search(q, k=7).score_docs
        got = out[out.query_id == qi].sort_values("rank")
        assert got["doc_key"].tolist() == [sd.doc_key for sd in want], q
        assert [float(x).hex() for x in got["score"]] == \
            [float(sd.score).hex() for sd in want], q


# ------------------------------------------------------------ statistics


def _check_statistics(d: str) -> None:
    """A full-index searcher's statistics equal the global term statistics
    file wherever the generation has one, and it answers as a searcher
    scoring from that file does."""
    s = IndexSearcher(d)
    assert s.global_term_stats is None
    path = os.path.join(d, f"term_stats-{Manifest.load(d).gen}.parquet")
    if not os.path.exists(path):
        return
    g = GlobalTermStats(path)
    keys = set(g.terms.tolist())
    for r in s.readers:
        keys.update(r.terms.tolist())
    fps = {"", *(f + "\x1f" for f in s.fields)}
    keys.update(fp + t for fp in fps for t in ("absent", "zzz", "", "alph"))
    for t in sorted(keys):
        ts = s.term_statistics(t)
        assert (ts.doc_freq, ts.total_term_freq) == g.lookup(t), t
    ref = IndexSearcher(d)
    ref.global_term_stats = g
    fielded = ["title:alpha beta", "title:beta OR gamma"] if len(s.fields) > 1 else []
    for q in QUERIES + fielded:
        for algo in ("auto", "exhaustive", "wand"):
            assert _top(s, q, k=5, algo=algo) == _top(ref, q, k=5, algo=algo), (q, algo)


_OPS = st.lists(st.sampled_from(["delete", "update", "soft_delete", "soft_update", "merge2",
                                 "merge_all"]), max_size=4)


@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
@given(seed=st.integers(0, 2**16), n_parts=st.integers(1, 3),
       two_fields=st.booleans(), ops=_OPS)
def test_reader_statistics_equal_the_global_file(tmp_path_factory, seed, n_parts,
                                                 two_fields, ops):
    rng = np.random.default_rng(seed)
    d = str(tmp_path_factory.mktemp("stats") / "idx")
    text_cols = ("text", "title") if two_fields else ("text",)
    keys = [f"d{i:03d}" for i in range(int(rng.integers(n_parts, 8 * n_parts + 1)))]
    cut = np.array_split(np.arange(len(keys)), n_parts)
    parts = [([keys[i] for i in c], [_text(rng, int(rng.integers(1, 7))) for _ in c])
             for c in cut]
    _build(d, parts, _config(text_cols))
    _check_statistics(d)
    for op in ops:
        n = min(len(keys), int(rng.integers(1, 3)))
        some = sorted(rng.choice(keys, size=n, replace=False).tolist())
        rows = _rows(some, [_text(rng, int(rng.integers(1, 7))) for _ in some], text_cols)
        if op == "delete":
            delete_by_keys(d, some)
        elif op == "update":
            update_documents(d, rows)
        elif op == "soft_delete":
            soft_delete_by_keys(d, some)
        elif op == "soft_update":
            soft_update_documents(d, rows)
        elif op == "merge2":
            merge_index(d, merge_factor=2, max_groups=1, use_ray=False)
        else:
            merge_index(d, merge_factor=16, max_groups=1, use_ray=False)
        _check_statistics(d)


def test_merge_reclaiming_only_soft_deletes_rewrites_the_statistics(tmp_path):
    """A merge that drops soft-deleted docs, with no hard delete among its
    inputs, writes the next generation's term statistics from its segments
    instead of copying the previous file forward."""
    rng = np.random.default_rng(1)
    d = str(tmp_path / "idx")
    parts = [([f"{p}{i}" for i in range(n)], [_text(rng, 4) for _ in range(n)])
             for p, n in (("a", 9), ("b", 5), ("c", 6))]
    _build(d, parts, _config())
    soft_delete_by_keys(d, ["a1", "a2"])
    delete_by_keys(d, ["b1"])
    merge_index(d, merge_factor=2, max_groups=1, use_ray=False)  # b + c
    m = merge_index(d, merge_factor=2, max_groups=1, use_ray=False)  # a + bc
    assert [s["max_doc"] for s in m.segments] == [17]
    assert os.path.exists(os.path.join(d, f"term_stats-{m.gen}.parquet"))
    _check_statistics(d)


def test_merge_of_fully_deleted_segments_writes_empty_statistics(tmp_path):
    """A merge whose inputs hold no live doc commits a 0-term segment and
    an empty term statistics file (it used to fail renaming a directory
    the distributed write never made)."""
    d = str(tmp_path / "idx")
    _build(d, [(["a1", "a2"], ["alpha beta", "beta"]), (["b1"], ["gamma"])], _config())
    delete_by_keys(d, ["a1", "a2", "b1"])
    m = merge_index(d, merge_factor=2, max_groups=1, use_ray=False)
    assert [s["max_doc"] for s in m.segments] == [0]
    assert IndexSearcher(d).search("beta").total_hits == 0
    _check_statistics(d)


# ------------------------------------------------------------ parse memo


def test_parsed_queries_are_kept_by_string(index_dir):
    s = IndexSearcher(index_dir)
    q = s.parse("alpha beta")
    assert s.parse("alpha beta") is q
    assert s.parse("alpha  beta") is not q and s.parse("alpha  beta") == q
    for i in range(PARSE_CACHE_ENTRIES + 40):
        s.parse(f"alpha w{i}")
        assert len(s._parsed) <= PARSE_CACHE_ENTRIES
    assert len(s._parsed) == PARSE_CACHE_ENTRIES
    too_many = " OR ".join(f"t{i}" for i in range(1100))
    n = len(s._parsed)
    for _ in range(2):
        with pytest.raises(TooManyClauses):
            s.parse(too_many)
        with pytest.raises(TooManyClauses):
            s.search(too_many)
    assert len(s._parsed) == n
    assert s.search("alpha beta").total_hits == IndexSearcher(index_dir).search(q).total_hits
