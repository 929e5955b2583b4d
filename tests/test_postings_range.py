"""The range decoder and the reader's decoded pages: seeded random postings
tables checked against the per-term decoder, the block read against the
per-term block decoder, the byte-bounded LRU, and a searcher that stays
inside a small page budget."""

from __future__ import annotations

import numpy as np
import pytest

from lucene_ray.cache import LRUCache
from lucene_ray.functions.postings import (
    BLOCK_SIZE,
    _bits_needed,
    _pack_bits,
    decode_postings,
    decode_postings_block_range,
    decode_postings_range,
)
from lucene_ray.state import segment
from lucene_ray.state.segment import SegmentReader, _binary_views, postings_table

MAX_DOC = 3000


def _random_postings(rng, n_terms):
    """(docs, freqs) per term: a mix of singletons, short lists and
    multi-block lists, with freqs in every width class (freq-1 of 0, <2^8,
    <2^16 and >=2^16)."""
    out = []
    for _ in range(n_terms):
        kind = rng.integers(4)
        df = (1, rng.integers(2, 128), rng.integers(128, 700), 1)[kind]
        if kind == 3:
            df = rng.integers(1, 3)
        docs = np.sort(rng.choice(MAX_DOC, size=df, replace=False))
        fmax = (1, 200, 60_000, 200_000)[rng.integers(4)]
        freqs = rng.integers(1, fmax + 1, size=df)
        out.append((docs.astype(np.int64), freqs.astype(np.int64)))
    return out


def _table(postings):
    n = len(postings)
    df = np.array([len(d) for d, _ in postings], dtype=np.int64)
    starts = np.cumsum(df) - df
    docs = np.concatenate([d for d, _ in postings]) if n else np.empty(0, np.int64)
    freqs = np.concatenate([f for _, f in postings]) if n else np.empty(0, np.int64)
    terms = np.array([f"t{i:05d}" for i in range(n)], dtype=object)
    lengths = np.full(max(MAX_DOC, int(docs.max(initial=0)) + 1), 7)
    return postings_table(terms, starts, docs, freqs, lengths)


def _columns(tbl):
    off, data = _binary_views(tbl.column("packed"))
    return (off, np.frombuffer(data, dtype=np.uint8), tbl.column("doc_freq").to_numpy(),
            tbl.column("singleton_doc").to_numpy(), tbl.column("singleton_freq").to_numpy())


def _reader(tbl, n_docs=MAX_DOC):
    docs = segment.pa.table({"doc_key": np.arange(n_docs), "norm": np.zeros(n_docs, np.uint8),
                             "dl": np.full(n_docs, 7, np.int32)})
    stats = {"doc_count": n_docs, "sum_doc_freq": int(pc_sum(tbl, "doc_freq")),
             "sum_total_term_freq": int(pc_sum(tbl, "total_tf"))}
    return SegmentReader.from_tables(tbl, docs, {"name": "s", "max_doc": n_docs, **stats})


def pc_sum(tbl, col):
    return tbl.column(col).to_numpy().sum() if tbl.num_rows else 0


def _per_term(cols, i):
    off, packed, df, sdoc, sfreq = cols
    if df[i] == 1:
        return np.array([sdoc[i]]), np.array([sfreq[i]])
    return decode_postings(packed[off[i] : off[i + 1]].tobytes())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_range_decode_equals_per_term_decode(seed):
    rng = np.random.default_rng(seed)
    postings = _random_postings(rng, 300)
    tbl = _table(postings)
    cols = _columns(tbl)
    widths = {_bits_needed(f[s : s + BLOCK_SIZE] - 1)
              for _, f in postings for s in range(0, len(f), BLOCK_SIZE)}
    assert widths == {0, 8, 16, 32}
    for lo, hi in [(0, 300), (0, 1), (17, 18), (40, 211), (299, 300), (5, 5)]:
        docs, freqs, starts = decode_postings_range(*cols, lo, hi)
        assert len(starts) == hi - lo + 1 and starts[0] == 0
        for k, i in enumerate(range(lo, hi)):
            d, f = docs[starts[k] : starts[k + 1]], freqs[starts[k] : starts[k + 1]]
            want_d, want_f = _per_term(cols, i)
            assert np.array_equal(d, want_d) and np.array_equal(f, want_f)
            assert np.array_equal(d, postings[i][0]) and np.array_equal(f, postings[i][1])
            assert d.dtype == f.dtype == np.int32


def test_range_decode_rejects_streams_off_the_encoder_layout():
    """The range decoder predicts block headers from the encoder's layout
    (every full block with block 0's width pair) and checks them: a stream
    whose full blocks change width, a wrong block count or a stream whose
    length does not match its blocks raise ValueError, never IndexError or
    wrong postings."""
    rng = np.random.default_rng(11)
    n = BLOCK_SIZE * 5 + 17
    docs = np.cumsum(rng.integers(1, 300, size=n)) - 1
    freqs = np.ones(n, dtype=np.int64)
    freqs[BLOCK_SIZE * 2 : BLOCK_SIZE * 3] = rng.integers(1, 200, size=BLOCK_SIZE)
    deltas = np.diff(docs, prepend=0).astype(np.uint32)
    out = [np.uint32(n).tobytes()]
    for s in range(0, n, BLOCK_SIZE):  # tight widths per block
        d, f = deltas[s : s + BLOCK_SIZE], (freqs[s : s + BLOCK_SIZE] - 1).astype(np.uint32)
        bd, bf = _bits_needed(d), _bits_needed(f)
        out += [np.array([bd, bf], np.uint8).tobytes() + np.uint16(len(d)).tobytes(),
                _pack_bits(d, bd), _pack_bits(f, bf)]
    per_block = np.frombuffer(b"".join(out), dtype=np.uint8)
    assert np.array_equal(decode_postings(per_block.tobytes())[0], docs)

    def cols(packed):
        return (np.array([0, len(packed)]), packed, np.array([n]),
                np.array([-1]), np.array([0]))

    with pytest.raises(ValueError, match="corrupt postings stream"):
        decode_postings_range(*cols(per_block), 0, 1)
    good = _columns(_table([(docs, freqs)]))[1]
    assert np.array_equal(decode_postings_range(*cols(good), 0, 1)[0], docs)
    chunk = 4 + BLOCK_SIZE * (good[4] + good[5]) // 8  # one full block
    for at, value in [(4 + 3 * chunk + 2, 7),  # a full block's count
                      (4 + 5 * chunk + 2, 18),  # the last block's count
                      (4 + 2 * chunk + 1, 16)]:  # a full block's freq width
        bad = good.copy()
        bad[at] = value
        with pytest.raises(ValueError, match="corrupt postings stream"):
            decode_postings_range(*cols(bad), 0, 1)
    # cut in a header, in the last block's data, a byte long; a stream cut
    # short must not read on into the next term's bytes either
    for bad in (good[:6], good[: 4 + 5 * chunk], good[:-1], np.append(good, 0)):
        with pytest.raises(ValueError, match="corrupt postings stream"):
            decode_postings_range(*cols(bad), 0, 1)
    two = (np.array([0, len(good) - 1, 2 * len(good)]), np.concatenate([good, good]),
           np.array([n, n]), np.array([-1, -1]), np.array([0, 0]))
    with pytest.raises(ValueError, match="corrupt postings stream"):
        decode_postings_range(*two, 0, 2)


def test_zero_term_segment():
    tbl = _table([])
    docs, freqs, starts = decode_postings_range(*_columns(tbl), 0, 0)
    assert len(docs) == len(freqs) == 0 and starts.tolist() == [0]
    r = _reader(tbl)
    d, f, s = r.postings_range(0, 0)
    assert len(d) == 0 and s.tolist() == [0]
    assert len(r.postings("absent")[0]) == 0


def test_reader_pages_cross_boundaries(monkeypatch):
    monkeypatch.setattr(segment, "PAGE_TERMS", 7)
    monkeypatch.setattr(segment, "PAGE_POSTINGS", 900)
    rng = np.random.default_rng(5)
    postings = _random_postings(rng, 120)
    r = _reader(_table(postings))
    starts = r._page_starts
    assert len(starts) > 120 // 7 + 1  # cut by postings too
    assert all(0 < b - a <= 7 for a, b in zip(starts, starts[1:]))
    for lo, hi in [(0, 120), (3, 9), (6, 7), (13, 61), (100, 120), (119, 120)]:
        docs, freqs, ts = r.postings_range(lo, hi)
        assert len(ts) == hi - lo + 1
        for k, i in enumerate(range(lo, hi)):
            assert np.array_equal(docs[ts[k] : ts[k + 1]], postings[i][0])
            assert np.array_equal(freqs[ts[k] : ts[k + 1]], postings[i][1])
    d, f = r.postings(50)
    assert np.array_equal(d, postings[50][0])
    with pytest.raises(ValueError):
        d[0] = 1  # pages are read-only


def test_postings_blocks_equal_block_decode():
    rng = np.random.default_rng(9)
    postings = _random_postings(rng, 80)
    r = _reader(_table(postings))
    for i, (docs, _) in enumerate(postings):
        nb = -(-len(docs) // BLOCK_SIZE)
        for j0 in range(nb):
            for j1 in range(j0 + 1, nb + 1):
                d, f = r.postings_blocks(i, j0, j1)
                if len(docs) == 1:
                    want = docs.astype(np.int32), postings[i][1]
                else:
                    rel, wf, _ = decode_postings_block_range(r._packed_blob(i), j0, j1)
                    base = int(r.skip_meta(i)[j0 - 1]) if j0 > 0 else 0
                    want = (rel + base).astype(np.int32), wf
                assert np.array_equal(d, want[0]) and np.array_equal(f, want[1])


def test_check_segment_compares_pages_with_stream_decode(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    postings = _random_postings(rng, 60)
    tbl = _table(postings)
    docs = segment.pa.table({"doc_key": np.arange(MAX_DOC),
                             "norm": segment.encode_lengths(np.full(MAX_DOC, 7)),
                             "dl": np.full(MAX_DOC, 7, np.int32)})
    stats = dict(max_doc=MAX_DOC, doc_count=MAX_DOC,
                 sum_doc_freq=sum(len(d) for d, _ in postings),
                 sum_total_term_freq=int(sum(f.sum() for _, f in postings)))
    meta = segment.write_segment(str(tmp_path), "seg", tbl, docs, stats)
    seg_dir = str(tmp_path / "segments" / meta["name"])
    assert segment.check_segment(seg_dir) == []

    real = segment.decode_postings_range

    def off_by_one(*a):
        d, f, s = real(*a)
        return d, f + 1, s

    monkeypatch.setattr(segment, "decode_postings_range", off_by_one)
    assert any("page decode != stream decode" in p for p in segment.check_segment(seg_dir))

    def corrupt(*a):
        raise ValueError("corrupt postings stream: test")

    monkeypatch.setattr(segment, "decode_postings_range", corrupt)
    assert any("corrupt postings stream" in p for p in segment.check_segment(seg_dir))


# ---------------------------------------------------------------- LRUCache bytes


def _arr(n):
    return np.zeros(n, dtype=np.uint8)


def test_byte_bound_evicts_least_recently_used_first():
    c = LRUCache(max_bytes=100)
    c.put("a", _arr(40))
    c.put("b", _arr(40))
    c.get("a")  # b is now least recent
    c.put("c", _arr(40))
    assert list(c._data) == ["a", "c"] and c.nbytes == 80
    c.put("a", _arr(10))  # replacing an entry re-counts it
    assert c.nbytes == 50
    c.put("d", (_arr(30), _arr(30)))
    assert list(c._data) == ["a", "d"] and c.nbytes == 70


def test_entry_larger_than_byte_bound_is_returned_not_held():
    c = LRUCache(max_bytes=100)
    c.put("a", _arr(60))
    big = _arr(101)
    assert c.put("big", big) is big
    assert list(c._data) == ["a"] and c.nbytes == 60
    c.put("a", _arr(500))  # a replaced by a value that does not fit
    assert len(c) == 0 and c.nbytes == 0


def test_nbytes_is_the_held_sum_under_both_bounds():
    rng = np.random.default_rng(2)
    c = LRUCache(max_entries=5, max_bytes=300)
    for _ in range(400):
        key = int(rng.integers(12))
        if rng.random() < 0.3:
            c.get(key)
        else:
            c.put(key, (_arr(int(rng.integers(0, 120))), "x"))
        assert c.nbytes == sum(v[0].nbytes for v in c._data.values())
        assert c.nbytes <= 300 and len(c) <= 5


def test_cache_needs_a_bound():
    with pytest.raises(ValueError):
        LRUCache()
    with pytest.raises(ValueError):
        LRUCache(max_bytes=0)


# ---------------------------------------------------------------- searcher


def _corpus_readers(seed):
    from lucene_ray.functions.analysis import get_analyzer
    from lucene_ray.state.segment import build_segment_tables

    rng = np.random.default_rng(seed)
    vocab = np.array([f"w{a}{b}" for a in "abcdefghij" for b in range(60)])
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    readers = []
    for s in range(2):
        texts = [" ".join(rng.choice(vocab, size=int(rng.integers(3, 40)), p=weights))
                 for _ in range(400)]
        keys = np.array([f"s{s}-{i:04d}" for i in range(len(texts))], dtype=object)
        p, d, stats = build_segment_tables(keys, texts, get_analyzer("standard"))
        readers.append(SegmentReader.from_tables(p, d, {"name": f"s{s}", **stats}))
    return readers, vocab


def _query_log(vocab, rng):
    def w():
        return str(vocab[int(rng.integers(len(vocab)))])
    out = []
    for _ in range(60):
        out += [w(), f"{w()} {w()} {w()}", f"+{w()} +{w()}", f'"{w()} {w()}"',
                w()[:2] + "*", f"*{w()[2:]}", f"/{w()[:2]}[0-9]+/", f"[{w()} TO {w()}]"]
    return out


def test_searcher_stays_inside_a_small_page_budget(monkeypatch):
    """Over a whole query loop every reader's decoded pages stay inside the
    byte budget, answers equal those of an unbounded reader, and no array
    held in a searcher cache keeps a page more than twice its size alive."""
    from lucene_ray.query import BooleanQuery, TermInSetQuery, TermQuery
    from lucene_ray.searcher import IndexSearcher

    free, vocab = _corpus_readers(3)
    monkeypatch.setattr(segment, "PAGE_TERMS", 16)
    monkeypatch.setattr(segment, "PAGE_CACHE_BYTES", 6000)
    small, _ = _corpus_readers(3)
    a, b = IndexSearcher.from_readers(free), IndexSearcher.from_readers(small)
    rng = np.random.default_rng(0)
    queries = _query_log(vocab, rng)
    queries += [TermInSetQuery([str(t) for t in rng.choice(vocab, 9)]) for _ in range(20)]
    queries += [BooleanQuery(must=[TermQuery(str(t))], filter=[TermQuery(str(u))])
                for t, u in rng.choice(vocab, (20, 2))]
    for q in queries:
        for algo in ("exhaustive", "wand"):
            want, got = a.search(q, k=10, algo=algo), b.search(q, k=10, algo=algo)
            assert [(d.doc_key, np.float32(d.score)) for d in got.score_docs] == \
                [(d.doc_key, np.float32(d.score)) for d in want.score_docs], q
            assert got.total_hits == want.total_hits
        assert all(r._pages.nbytes <= 6000 for r in small)
    assert all(r._pages.nbytes > 0 for r in small)
    assert sum(r._pages.misses for r in small) > sum(r._pages.misses for r in free)
    for s in (a, b):
        held = [v[0] for v in s._term_scores._data.values()] + list(s._filters._data.values())
        assert len(s._term_scores) and len(s._filters)
        for d in held:
            if d.base is not None:
                assert 2 * d.nbytes >= np.asarray(d.base).nbytes


def test_page_too_large_to_cache_is_read_by_block(monkeypatch):
    """A term too large for the page cache is its own page, never held and
    never decoded whole by the skip path: a WAND query whose rare docs sit
    in one window decodes that window's blocks of it, not the whole list."""
    from lucene_ray.query import BooleanQuery, TermQuery
    from lucene_ray.searcher import MAXSCORE_WINDOW, IndexSearcher

    n_docs = 8 * MAXSCORE_WINDOW
    big = np.arange(n_docs)
    big_f = np.ones(n_docs, dtype=np.int64)
    rare = np.array([7, 900, MAXSCORE_WINDOW - 1])  # one block, in the first window
    postings = [(np.array([5]), np.array([2])), (big, big_f),
                (rare, np.full(3, 40)), (np.array([7, 9]), np.array([1, 1]))]
    monkeypatch.setattr(segment, "PAGE_POSTINGS", 256)
    monkeypatch.setattr(segment, "PAGE_CACHE_BYTES", 4 * n_docs)
    r = _reader(_table(postings), n_docs)
    assert r._page_starts == [0, 1, 2, 4]  # the big term alone on its page
    decoded = []
    for name in ("decode_postings_range", "decode_postings_block_range"):
        fn = getattr(segment, name)

        def counted(*args, fn=fn):
            out = fn(*args)
            decoded.append(len(out[0]))
            return out
        monkeypatch.setattr(segment, name, counted)
    s = IndexSearcher.from_readers([r])
    q = BooleanQuery(should=[TermQuery("t00001"), TermQuery("t00002")])
    got = s.search(q, k=3, algo="wand")
    want = s.search(q, k=3, algo="exhaustive")
    assert [d.doc_key for d in got.score_docs] == [d.doc_key for d in want.score_docs]
    assert {d.doc_key for d in got.score_docs} == set(rare.tolist())
    assert r._pages.nbytes <= 4 * n_docs and 1 not in r._pages._data
    decoded.clear()
    s2 = IndexSearcher.from_readers([_reader(_table(postings), n_docs)])
    s2.search(q, k=3, algo="wand")
    # the rare term's page (it and the last term), then the big term's
    # blocks in the one window that can hold a top doc
    assert sorted(decoded) == [5, MAXSCORE_WINDOW]
    d, f = r.postings_blocks(1, 3, 5)
    assert np.array_equal(d, big[3 * BLOCK_SIZE : 5 * BLOCK_SIZE])
    assert np.array_equal(r.postings(1)[0], big)


def test_multi_term_union_equals_per_term_union():
    from lucene_ray.query import PrefixQuery, RegexpQuery, TermInSetQuery, WildcardQuery
    from lucene_ray.searcher import IndexSearcher

    readers, vocab = _corpus_readers(8)
    s = IndexSearcher.from_readers(readers)
    queries = [PrefixQuery("wa"), PrefixQuery("w"), PrefixQuery("zz"), WildcardQuery("*1"),
               WildcardQuery("w?5"), RegexpQuery("w[bd][0-9]"),
               TermInSetQuery(["wc7", "wa1", "wc7", "nope", "wj59", "wc8"])]
    for q in queries:
        got = {d.doc_key for d in s.search(q, k=2000).score_docs}
        want = set()
        for r in readers:
            terms = r.terms
            for i, t in enumerate(terms):
                if _matches(q, t):
                    want |= {r.doc_keys[d] for d in r.postings(i)[0]}
        assert got == want, q


def _matches(q, t):
    import fnmatch
    import re

    from lucene_ray.query import PrefixQuery, RegexpQuery, TermInSetQuery

    if isinstance(q, PrefixQuery):
        return t.startswith(q.prefix)
    if isinstance(q, RegexpQuery):
        return re.fullmatch(q.pattern, t) is not None
    if isinstance(q, TermInSetQuery):
        return t in q.terms
    return fnmatch.fnmatchcase(t, q.pattern)


def test_union_of_no_ordinals_is_empty():
    from lucene_ray.searcher import IndexSearcher

    readers, _ = _corpus_readers(8)
    for ords in ([], range(0), range(5, 3), [3, 3], [0, 1, 2, 7, 9, 10]):
        got = IndexSearcher._union_docs(readers[0], ords)
        want = np.unique(np.concatenate(
            [np.empty(0, np.int32)] + [readers[0].postings(int(i))[0] for i in ords]))
        assert got.dtype == np.int32 and np.array_equal(got, want)
