"""MaxScore disjunction top-k (``algo="wand"``) == exhaustive evaluation.

Random multi-segment in-RAM indexes whose terms span several 128-doc
blocks, with the MaxScore window shrunk to 100, 128 or 4,096 global doc IDs
(so that one window holds several segments, a segment spans several
windows, and a segment's last window takes in the segments after it);
deleted docs, boosted and repeated clauses, ties from duplicate texts, both
scoring modes. Keys and scores must
be identical (the reference's TestWANDScorer / TestMaxScoreBulkScorer
property)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lucene_ray.searcher as searcher_mod
from lucene_ray.cache import LRUCache
from lucene_ray.functions.analysis import get_analyzer
from lucene_ray.query import BooleanQuery, BoostQuery, TermQuery
from lucene_ray.searcher import IndexSearcher
from lucene_ray.state.segment import SegmentReader, build_segment_tables

VOCAB = [f"w{i}" for i in range(16)]


def _searcher(segments, mode, live=None, keys=None):
    an = get_analyzer("standard")
    readers = []
    for n, texts in enumerate(segments):
        ks = keys[n] if keys is not None else [f"s{n}-{i:04d}" for i in range(len(texts))]
        p, d, stats = build_segment_tables(np.array(ks, dtype=object), texts, an)
        r = SegmentReader.from_tables(p, d, {"name": f"s{n}", **stats})
        if live is not None:
            r.live = live[n]
        readers.append(r)
    return IndexSearcher.from_readers(readers, mode=mode)


def _texts(rng, n_docs, n_distinct):
    # Zipf-skewed terms: the head spans several blocks per segment, the
    # tail a few docs; texts drawn from a pool of ``n_distinct`` tie on
    # every clause
    weights = 1.0 / np.arange(1, len(VOCAB) + 1)
    pool = [" ".join(rng.choice(VOCAB, size=rng.integers(1, 12), p=weights / weights.sum()))
            for _ in range(min(n_docs, n_distinct))]
    return [pool[i] for i in rng.integers(0, len(pool), size=n_docs)]


def _pairs(td):
    return [(sd.doc_key, sd.score) for sd in td.score_docs]


@st.composite
def _cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    segments = [_texts(rng, draw(st.integers(1, 600)), draw(st.sampled_from([3, 40, 600])))
                for _ in range(draw(st.integers(1, 3)))]
    # doc keys in random order across segments, so that ties at the k-th
    # score are broken against the segment and window visiting order
    perm = iter(rng.permutation(sum(map(len, segments))).tolist())
    keys = [[f"{next(perm):05d}" for _ in t] for t in segments]
    live = None
    if draw(st.booleans()):
        live = [rng.random(len(t)) > draw(st.sampled_from([0.05, 0.5])) for t in segments]
    clauses = []
    for _ in range(draw(st.integers(1, 5))):
        term = TermQuery(draw(st.sampled_from(VOCAB + ["absent"])))
        boost = draw(st.sampled_from([None, None, 0.5, 2.0, 7.25]))
        clauses.append(term if boost is None else BoostQuery(term, boost))
    query = clauses[0] if len(clauses) == 1 and draw(st.booleans()) else BooleanQuery(
        should=clauses)
    k = draw(st.integers(1, 50))
    mode = draw(st.sampled_from(["lucene", "exact"]))
    return segments, keys, live, query, k, mode, draw(st.sampled_from([100, 128, 4096]))


@settings(max_examples=90, deadline=None, suppress_health_check=list(HealthCheck))
@given(_cases())
def test_maxscore_equals_exhaustive(case):
    segments, keys, live, query, k, mode, window = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(searcher_mod, "MAXSCORE_WINDOW", window)
        s = _searcher(segments, mode, live, keys)
        want = s.search(query, k=k, algo="exhaustive")
        got = s.search(query, k=k, algo="wand")
        stats = s.last_wand_stats
        again = s.search(query, k=k, algo="wand")  # term scores from the cache
    assert _pairs(got) == _pairs(want)
    assert _pairs(again) == _pairs(got) and again.total_hits == got.total_hits
    assert s.last_wand_stats == stats
    assert [np.float32(x) for _, x in _pairs(got)] == [np.float32(x) for _, x in _pairs(want)]
    assert got.total_hits <= want.total_hits
    st_ = s.last_wand_stats
    assert st_["blocks_visited"] <= st_["blocks_total"]
    assert st_["intervals_visited"] <= st_["intervals_total"]


def test_carried_threshold_makes_term_non_essential(monkeypatch):
    """The k-th score of the window visited first is the starting threshold
    of the window visited second: there it already ranks the common term's
    bound below it, so that term is only looked up for the rare term's
    docs, never scored as an essential clause."""
    monkeypatch.setattr(searcher_mod, "MAXSCORE_WINDOW", 20)
    seg1 = ["rare common"] * 3 + ["common"] * 17  # global docs 0-19: window 0
    seg2 = ["rare filler7 filler8"] * 2 + [f"common filler{i % 7}" for i in range(300)]
    s = _searcher([seg1, seg2], "lucene")
    calls = []  # (window start, term, candidates looked up or None)
    real = IndexSearcher._window_scores

    def spy(self, term, seen, reads, lo, hi, cand=None):
        r, _, ti = term[1][reads[0][0]][:3]
        calls.append((lo, r.terms[ti], None if cand is None else cand.tolist()))
        return real(self, term, seen, reads, lo, hi, cand)

    monkeypatch.setattr(IndexSearcher, "_window_scores", spy)
    got = s.search("rare common", k=5, algo="wand")
    # window 0 first, every clause essential; in window 1 (seg2's first 20
    # docs) only the rare term is, and the common term is looked up for
    # seg2's two rare docs (global 20 and 21); no other window can compete
    assert calls == [(0, "rare", None), (0, "common", None),
                     (20, "rare", None), (20, "common", [20, 21])]
    assert _pairs(got) == _pairs(s.search("rare common", k=5, algo="exhaustive"))
    assert s.last_wand_stats["intervals_visited"] == 2


def test_windows_hold_small_segments_whole_and_cut_large_ones(monkeypatch):
    """A segment that does not fit in the current window opens windows at
    its base and every MAXSCORE_WINDOW IDs after it; the segments after it
    join its last window while that stays within MAXSCORE_WINDOW IDs."""
    monkeypatch.setattr(searcher_mod, "MAXSCORE_WINDOW", 100)
    rng = np.random.default_rng(7)
    s = _searcher([_texts(rng, n, 600) for n in (250, 30, 40, 10, 500)], "lucene")
    q = BooleanQuery(should=[TermQuery("w0"), TermQuery("w3"), TermQuery("w9")])
    got = s.search(q, k=10, algo="wand")
    assert s._doc_space() == ([0, 250, 280, 320, 330, 830],
                              [0, 100, 200, 280, 330, 430, 530, 630, 730])
    assert s.last_wand_stats["intervals_total"] == 9
    assert _pairs(got) == _pairs(s.search(q, k=10, algo="exhaustive"))


def test_wand_reads_live_docs_at_query_time(monkeypatch):
    """Deletes applied to an open searcher's readers after its first
    disjunction are honoured by the next one, in every window."""
    monkeypatch.setattr(searcher_mod, "MAXSCORE_WINDOW", 100)
    rng = np.random.default_rng(11)
    segs = [_texts(rng, n, 600) for n in (250, 130, 40)]
    s = _searcher(segs, "lucene")
    q = BooleanQuery(should=[TermQuery("w0"), TermQuery("w2"), BoostQuery(TermQuery("w5"), 2.0)])
    before = s.search(q, k=20, algo="wand")
    assert _pairs(before) == _pairs(s.search(q, k=20, algo="exhaustive"))
    for r in s.readers:  # delete every doc of the first top-k, and more
        r.live = rng.random(r.max_doc) > 0.3
        r.live[[r.doc_keys.tolist().index(sd.doc_key) for sd in before.score_docs
                if sd.doc_key in set(r.doc_keys.tolist())]] = False
    want = s.search(q, k=20, algo="exhaustive")
    got = s.search(q, k=20, algo="wand")
    assert _pairs(got) == _pairs(want)
    assert not {sd.doc_key for sd in got.score_docs} & {sd.doc_key for sd in before.score_docs}
    assert got.total_hits <= want.total_hits


def test_block_bounds_computed_once_per_term(monkeypatch):
    """Block bounds depend only on the searcher's statistics: a repeated
    query reads them from the searcher's cache."""
    monkeypatch.setattr(searcher_mod, "MAXSCORE_WINDOW", 128)
    s = _searcher([_texts(np.random.default_rng(3), 500, 500)] * 2, "lucene")
    calls = []
    for r in s.readers:
        real = r.impacts
        r.impacts = lambda i, real=real: calls.append(i) or real(i)
    q = "w0 w1 w2"
    first = _pairs(s.search(q, k=5, algo="wand"))
    n = len(calls)
    assert n > 0
    assert _pairs(s.search(q, k=5, algo="wand")) == first
    assert len(calls) == n


def test_repeated_query_takes_term_scores_from_cache(monkeypatch):
    """In an index of several windows a reader's whole scored postings of a
    term go into the term-score cache, and the same query again reads no
    postings and answers the same; a one-window index neither reads nor
    fills that cache."""
    monkeypatch.setattr(searcher_mod, "MAXSCORE_WINDOW", 100)
    rng = np.random.default_rng(13)
    segs = [_texts(rng, n, 600) for n in (100, 90, 100)]  # one window each
    q = BooleanQuery(should=[TermQuery("w0"), TermQuery("w4"), BoostQuery(TermQuery("w9"), 2.0)])
    s = _searcher(segs, "lucene")
    want = s.search(q, k=10, algo="exhaustive")
    s._term_scores = LRUCache(1000)  # only what MaxScore puts
    reads = []
    for r in s.readers:
        for name in ("postings", "postings_blocks"):
            fn = getattr(r, name)
            setattr(r, name, lambda *a, fn=fn: (reads.append(a), fn(*a))[1])
    first = s.search(q, k=10, algo="wand")
    stats = s.last_wand_stats
    assert s.last_wand_stats["intervals_total"] == 3 and reads and len(s._term_scores)
    reads.clear()
    again = s.search(q, k=10, algo="wand")
    assert reads == [] and s.last_wand_stats == stats
    assert _pairs(first) == _pairs(again) == _pairs(want)
    monkeypatch.setattr(searcher_mod, "MAXSCORE_WINDOW", 4096)
    one = _searcher(segs, "lucene")
    n = one._term_scores.misses
    assert _pairs(one.search(q, k=10, algo="wand")) == _pairs(want)
    assert one._term_scores.misses == n and len(one._term_scores) == 0


def test_carried_threshold_keeps_ties_with_smaller_keys():
    """A doc of a later segment that ties an earlier segment's k-th score
    still enters the top-k when its key is smaller (TopDocs.merge order)."""
    segs = [["alpha beta"] * 8, ["alpha beta"] * 8]
    keys = [[f"b{i}" for i in range(8)], [f"a{i}" for i in range(8)]]
    s = _searcher(segs, "lucene", keys=keys)
    got = s.search("alpha beta", k=5, algo="wand")
    assert [sd.doc_key for sd in got.score_docs] == [f"a{i}" for i in range(5)]
    assert _pairs(got) == _pairs(s.search("alpha beta", k=5, algo="exhaustive"))


def test_wand_loop_keeps_term_caches_inside_byte_bounds(monkeypatch):
    """Over a 2,000-query loop of boosted disjunctions (MaxScore) and
    conjunctions (exhaustive, through the term-score cache) the block-bound
    and term-score caches stay inside their byte bounds while evicting, and
    answers equal those of a searcher with the default bounds."""
    monkeypatch.setattr(searcher_mod, "MAXSCORE_WINDOW", 128)
    rng = np.random.default_rng(5)
    segs = [_texts(rng, n, 600) for n in (600, 400, 300)]
    ref = _searcher(segs, "lucene")
    monkeypatch.setattr(searcher_mod, "TERM_SCORE_CACHE_BYTES", 2000)
    monkeypatch.setattr(searcher_mod, "TERM_BOUND_CACHE_BYTES", 1000)
    s = IndexSearcher.from_readers(ref.readers, mode="lucene")
    caches = (s._term_bounds, s._term_scores)
    assert [c.max_bytes for c in caches] == [3000, 6000]
    boosts = np.round(np.linspace(0.5, 5.0, 40), 3).tolist()
    for n in range(2000):
        terms = rng.choice(VOCAB, size=rng.integers(1, 5), replace=False).tolist()
        if n % 4 == 0:
            q = BooleanQuery(must=[TermQuery(t) for t in terms])
        else:
            q = BooleanQuery(should=[BoostQuery(TermQuery(t), rng.choice(boosts)) for t in terms])
        got = s.search(q, k=10, algo="wand")
        assert all(c.nbytes <= c.max_bytes for c in caches)
        if n % 20 == 0:
            assert _pairs(got) == _pairs(ref.search(q, k=10, algo="wand"))
    for c in caches:
        assert c.nbytes > 0 and c.misses > len(c) and len(c) < c.max_entries
