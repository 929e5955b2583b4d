"""The one postings writer (``segment.postings_table``) against a brute-force
reference, the segment format version, and the k >= 1 contract of search."""

from __future__ import annotations

import json
import os
import pathlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.functions.analysis import Analyzer
from lucene_ray.functions.postings import BLOCK_SIZE, encode_postings
from lucene_ray.state import segment
from lucene_ray.state.segment import (
    SEGMENT_FORMAT,
    SegmentReader,
    build_segment_tables,
    check_segment,
    postings_table,
    write_segment,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _random_table(rng, dfs, max_doc, with_streams):
    """Sorted terms with the given doc freqs over ``max_doc`` docs; docs
    and freqs flat, term-major. Without streams, freqs and lengths may pass
    2^20 (the impact sort's composite-key limit)."""
    terms = sorted({f"t{rng.integers(0, 10**9):09d}" for _ in range(len(dfs) * 2)})[: len(dfs)]
    dfs = dfs[: len(terms)]
    docs = [np.sort(rng.choice(max_doc, size=df, replace=False)) for df in dfs]
    big = 1 << 21 if not with_streams and rng.random() < 0.3 else 8
    freqs = [rng.integers(1, big, size=df) for df in dfs]
    for f in freqs:  # repeated freqs make ties in the frontier
        f[rng.random(len(f)) < 0.3] = 2
    lengths = rng.integers(1, 40 if rng.random() < 0.5 else 1 << 21, size=max_doc)
    starts = np.cumsum([0] + list(dfs[:-1])).astype(np.int64) if dfs else np.empty(0, np.int64)
    flat = (lambda parts, dt: np.concatenate(parts).astype(dt) if parts else np.empty(0, dt))
    return terms, starts, flat(docs, np.int32), flat(freqs, np.int32), lengths.astype(np.int32)


def _frontier(fs, ls):
    """Pareto frontier of (freq, length) pairs: no other pair has a freq at
    least as high and a length at most as long; length-ascending."""
    pairs = set(zip(fs, ls))
    keep = [(f, l) for f, l in pairs
            if not any(f2 >= f and l2 <= l and (f2, l2) != (f, l) for f2, l2 in pairs)]
    return sorted(keep, key=lambda p: (p[1], p[0]))


def _check_against_reference(terms, starts, docs, freqs, lengths, streams):
    tbl = postings_table(terms, starts, docs, freqs, lengths, **streams)
    n = len(docs)
    ends = np.append(starts[1:], n).astype(np.int64)
    occ = np.concatenate([[0], np.cumsum(freqs, dtype=np.int64)])
    want = {c: [] for c in tbl.column_names}
    for t, s, e in zip(terms, starts.tolist(), ends.tolist()):
        d, f = docs[s:e], freqs[s:e]
        want["term"].append(t)
        want["doc_freq"].append(e - s)
        want["total_tf"].append(int(f.sum()))
        want["singleton_doc"].append(int(d[0]) if e - s == 1 else -1)
        want["singleton_freq"].append(int(f[0]) if e - s == 1 else 0)
        want["packed"].append(b"" if e - s == 1 else encode_postings(d, f))
        blocks = [slice(j, min(j + BLOCK_SIZE, e - s)) for j in range(0, e - s, BLOCK_SIZE)]
        want["block_last_docs"].append([int(d[b][-1]) for b in blocks])
        fronts = [_frontier(f[b].tolist(), lengths[d[b]].tolist()) for b in blocks]
        want["imp_freqs"].append([[p[0] for p in fr] for fr in fronts])
        want["imp_lens"].append([[p[1] for p in fr] for fr in fronts])
        for name, width in (("positions", 1), ("offsets", 2), ("payloads", 1)):
            v = streams.get(name)
            want[name].append(b"" if v is None else
                              v[width * occ[s] : width * occ[e]].tobytes())
    assert tbl.column_names == [
        "term", "doc_freq", "total_tf", "singleton_doc", "singleton_freq", "packed",
        "block_last_docs", "imp_freqs", "imp_lens", "positions", "offsets", "payloads"]
    for c in tbl.column_names:
        assert tbl.column(c).to_pylist() == want[c], c
    return tbl


def _streams(rng, freqs, kinds):
    m = int(freqs.sum())
    out = {}
    if "positions" in kinds:
        out["positions"] = rng.integers(0, 1000, size=m).astype(np.int32)
    if "offsets" in kinds:
        out["offsets"] = rng.integers(0, 5000, size=2 * m).astype(np.int32)
    if "payloads" in kinds:
        out["payloads"] = rng.random(m).astype(np.float32)
    return out


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_writer_matches_brute_force_reference(seed):
    rng = np.random.default_rng(seed)
    max_doc = int(rng.integers(1, 700))
    n_terms = int(rng.integers(0, 25))
    dfs = [int(min(max_doc, rng.choice([1, 2, BLOCK_SIZE, BLOCK_SIZE + 1,
                                        int(rng.integers(1, 700))])))
           for _ in range(n_terms)]
    with_streams = bool(rng.random() < 0.5)
    terms, starts, docs, freqs, lengths = _random_table(rng, dfs, max_doc, with_streams)
    kinds = rng.choice(["positions", "offsets", "payloads"], size=2) if with_streams else ()
    _check_against_reference(terms, starts, docs, freqs, lengths,
                             _streams(rng, freqs, set(kinds)))


@pytest.mark.parametrize("dfs", [[], [1], [1, 1, 1], [BLOCK_SIZE], [2 * BLOCK_SIZE],
                                 [BLOCK_SIZE + 1, 1, 3 * BLOCK_SIZE + 5]])
def test_writer_edge_doc_freqs(dfs):
    """Zero terms, singletons, exactly one full block, whole blocks only,
    and multi-block terms with a short tail; every stream present."""
    rng = np.random.default_rng(len(dfs) * 7 + sum(dfs))
    terms, starts, docs, freqs, lengths = _random_table(rng, dfs, 1000, True)
    tbl = _check_against_reference(
        terms, starts, docs, freqs, lengths,
        _streams(rng, freqs, {"positions", "offsets", "payloads"}))
    assert tbl.num_rows == len(dfs)


def test_writer_rejects_a_short_stream():
    docs, freqs = np.array([0, 1], np.int32), np.array([2, 3], np.int32)
    with pytest.raises(ValueError, match="stream of 4 values"):
        postings_table(["a"], np.array([0]), docs, freqs, np.array([5, 5]),
                       positions=np.zeros(4, np.int32))


@pytest.mark.parametrize("bits", [5, 12])
def test_decode_refuses_a_sub_byte_width(bits):
    """Only the byte-aligned widths 0/8/16/32 are ever written; a block
    header naming another width is not silently decoded."""
    from lucene_ray.functions.postings import decode_postings, decode_postings_block_range

    n = 3
    buf = (np.uint32(n).tobytes() + bytes([bits, 0]) + np.uint16(n).tobytes()
           + bytes((n * bits + 7) // 8))
    with pytest.raises(ValueError, match=f"unsupported packed width {bits}"):
        decode_postings(buf)
    with pytest.raises(ValueError, match="unsupported packed width"):
        decode_postings_block_range(buf, 0, 1)


def test_one_function_assembles_postings_tables():
    """Build and merge write through postings_table only; the dropped
    conservative impact columns are gone everywhere."""
    lib = sorted((ROOT / "lucene_ray").rglob("*.py"))
    writers = [str(p.relative_to(ROOT)) for p in lib
               if re.search(r"[\"']block_last_docs[\"']\s*:", p.read_text())]
    assert writers == ["lucene_ray/state/segment.py"]
    dropped = re.compile("block_max_" + "freqs|block_min_" + "lens")
    for p in lib + sorted((ROOT / "tests").rglob("*.py")):
        assert not dropped.search(p.read_text()), p


# ---------------------------------------------------------------- format


def _write_small(d: str, name: str = "seg-a") -> str:
    p, t, s = build_segment_tables(np.array([1, 2]), ["a b", "b c"], Analyzer("standard"))
    write_segment(d, name, p, t, s, extra_meta={"part_id": 0})
    return os.path.join(d, "segments", name)


def _set_format(seg_dir: str, version) -> None:
    path = os.path.join(seg_dir, "meta.json")
    with open(path) as f:
        meta = json.load(f)
    if version is None:
        meta.pop("format_version")
    else:
        meta["format_version"] = version
    with open(path, "w") as f:
        json.dump(meta, f)


def test_segment_meta_carries_the_format_version(tmp_path):
    seg = _write_small(str(tmp_path))
    assert SegmentReader(seg).meta["format_version"] == SEGMENT_FORMAT
    assert check_segment(seg) == []


@pytest.mark.parametrize("version", [None, SEGMENT_FORMAT - 1, SEGMENT_FORMAT + 1, "2"])
def test_opening_another_format_raises(tmp_path, version):
    seg = _write_small(str(tmp_path))
    _set_format(seg, version)
    with pytest.raises(ValueError) as e:
        SegmentReader(seg)
    msg = str(e.value)
    assert seg in msg and repr(version) in msg and f"expected {SEGMENT_FORMAT}" in msg


def test_by_file_build_rebuilds_an_older_format_segment(ray_session, tmp_path, monkeypatch):
    """A by-file build over segments of an older format (their fingerprint
    was taken under another SEGMENT_FORMAT, their meta has none) rebuilds
    them instead of resuming them, and the index opens."""
    from lucene_ray.pipelines import index_pipeline
    from lucene_ray.searcher import IndexSearcher

    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({"url": ["a", "b"], "text": ["quick fox", "lazy dog"]}), src)
    d = str(tmp_path / "idx")
    monkeypatch.setattr(index_pipeline, "SEGMENT_FORMAT", SEGMENT_FORMAT - 1)
    old = index_pipeline.build_index_by_file(src, d, key_col="url", text_col="text")
    monkeypatch.undo()
    old_dirs = old.segment_dirs()
    for seg in old_dirs:
        _set_format(seg, None)
    with pytest.raises(ValueError):
        IndexSearcher(d)
    m = index_pipeline.build_index_by_file(src, d, key_col="url", text_col="text")
    assert m.config["metrics"]["n_partitions_resumed"] == 0
    assert not set(m.segment_dirs()) & set(old_dirs)
    assert IndexSearcher(d).search("fox", k=5).total_hits == 1
    assert all(check_segment(s) == [] for s in m.segment_dirs())


def test_merge_of_segments_without_positions(tmp_path):
    """Segments built without positions merge, with and without deletes,
    into a segment that has none either (no position bytes invented)."""
    from lucene_ray.state.deletes import _write_livedocs
    from lucene_ray.state.merge import merge_segment_group

    d = str(tmp_path / "idx")
    an = Analyzer("standard")
    for name, keys, texts in (("s1", [1, 2, 3], ["a b a", "b c", "c c"]),
                              ("s2", [4, 5], ["a d", "d d b"])):
        p, t, s = build_segment_tables(np.array(keys), texts, an, store_positions=False)
        write_segment(d, name, p, t, s, extra_meta={"part_id": 0})
    _write_livedocs(f"{d}/segments/s1", 1, np.array([True, False, True]))
    for out, gens in (("m0", {}), ("m1", {"s1": 1})):
        merge_segment_group(d, ["s1", "s2"], out, del_gens=gens)
        r = SegmentReader(f"{d}/segments/{out}")
        assert not r.has_positions and check_segment(r.dir) == []
        assert r.postings("b")[0].tolist() == ([0, 1, 4] if out == "m0" else [0, 3])


# ---------------------------------------------------------------- search k


@pytest.mark.parametrize("algo", ["exhaustive", "wand"])
def test_search_rejects_k_below_one(algo):
    from lucene_ray.state.memory import MemoryIndex

    m = MemoryIndex(["a", "b"], ["x y", "y z"])
    for k in (0, -1):
        with pytest.raises(ValueError, match="count"):
            m.search("x y", k=k, algo=algo)
    assert m.count("x y") == 2
    assert len(m.search("x y", k=1, algo=algo).score_docs) == 1
