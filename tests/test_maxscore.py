"""MaxScore disjunction top-k (``algo="wand"``) == exhaustive evaluation.

Random multi-segment in-RAM indexes whose terms span several 128-doc
blocks, with the MaxScore window shrunk to 128 doc IDs so that every segment
has many windows; deleted docs, boosted and repeated clauses, ties from
duplicate texts, both scoring modes. Keys and scores must be identical (the
reference's TestWANDScorer / TestMaxScoreBulkScorer property)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lucene_ray.searcher as searcher_mod
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
    return segments, keys, live, query, k, draw(st.sampled_from(["lucene", "exact"]))


@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@given(_cases())
def test_maxscore_equals_exhaustive(case):
    segments, keys, live, query, k, mode = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(searcher_mod, "MAXSCORE_WINDOW", 128)
        s = _searcher(segments, mode, live, keys)
        want = s.search(query, k=k, algo="exhaustive")
        got = s.search(query, k=k, algo="wand")
    assert _pairs(got) == _pairs(want)
    assert [np.float32(x) for _, x in _pairs(got)] == [np.float32(x) for _, x in _pairs(want)]
    assert got.total_hits <= want.total_hits
    st_ = s.last_wand_stats
    assert st_["blocks_visited"] <= st_["blocks_total"]
    assert st_["intervals_visited"] <= st_["intervals_total"]


def test_carried_threshold_makes_term_non_essential(monkeypatch):
    """The k-th score of segment 1 is segment 2's starting threshold: it
    already ranks below it the common term's bound there, so that term is
    only looked up for the rare term's docs, never scored whole."""
    seg1 = ["rare common"] * 20
    seg2 = [f"common filler{i % 7}" for i in range(300)] + ["rare"] * 2
    s = _searcher([seg1, seg2], "lucene")
    scored = []  # (segment, term, scored whole)
    real = IndexSearcher._term_docs
    monkeypatch.setattr(IndexSearcher, "_term_docs", lambda self, r, term, blocks, whole: (
        scored.append((r.name, r.terms[term[0]], whole))
        or real(self, r, term, blocks, whole)))
    got = s.search("rare common", k=5, algo="wand")
    assert ("s1", "common", True) not in scored and ("s1", "rare", True) in scored
    assert ("s1", "common", False) in scored  # looked up for the rare docs
    assert _pairs(got) == _pairs(s.search("rare common", k=5, algo="exhaustive"))
    # without the carried threshold segment 2 starts with every term essential
    scored.clear()
    _searcher([seg2], "lucene").search("rare common", k=5, algo="wand")
    assert ("s0", "common", True) in scored


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


def test_carried_threshold_keeps_ties_with_smaller_keys():
    """A doc of a later segment that ties the carried k-th score still
    enters the top-k when its key is smaller (TopDocs.merge order)."""
    segs = [["alpha beta"] * 8, ["alpha beta"] * 8]
    keys = [[f"b{i}" for i in range(8)], [f"a{i}" for i in range(8)]]
    s = _searcher(segs, "lucene", keys=keys)
    got = s.search("alpha beta", k=5, algo="wand")
    assert [sd.doc_key for sd in got.score_docs] == [f"a{i}" for i in range(5)]
    assert _pairs(got) == _pairs(s.search("alpha beta", k=5, algo="exhaustive"))
