"""Minimal-interval spans — the interval-algebra span source (IvSpanNear)
and the ordered / unordered combinators vs brute force, plus end-to-end
SpanNearQuery."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from lucene_ray.functions import interval_algebra as ia


def _span_intervals(pos_lists, in_order: bool, slop: int = 1 << 30):
    """IvSpanNear over one term per clause, each term holding that
    clause's positions (equal lists behave as a repeated query term)."""
    env = {(None, f"t{i}"): np.asarray(p, dtype=np.int64)
           for i, p in enumerate(pos_lists)}
    subs = tuple(ia.IvTerm(f"t{i}") for i in range(len(pos_lists)))
    return ia.IvSpanNear(subs, slop, in_order).intervals(env)


def minimal_intervals_ordered(pos_lists):
    return [(s, e) for s, e, _, _ in _span_intervals(pos_lists, True)]


def minimal_intervals_unordered(pos_lists):
    return [(s, e) for s, e, _, _ in _span_intervals(pos_lists, False)]


def span_near_freq(pos_lists, slop: int, in_order: bool) -> float:
    """SpanScorer freq: Σ 1/(1+gaps) over the span's intervals."""
    return sum(1.0 / (1.0 + g) for _, _, _, g in _span_intervals(pos_lists, in_order, slop))


def _combinator_intervals(pos_lists, ordered: bool):
    """The IntervalQuery combinators over distinct terms."""
    env = {(None, f"t{i}"): np.asarray(p, dtype=np.int64)
           for i, p in enumerate(pos_lists)}
    names = [f"t{i}" for i in range(len(pos_lists))]
    src = ia.ordered(*names) if ordered else ia.unordered(*names)
    return [(s, e) for s, e, _, _ in src.intervals(env)]


def brute_minimal(pos_lists, ordered: bool):
    """All windows [min(t), max(t)] over occurrence tuples (ordered: strictly
    increasing in clause order), keeping only MINIMAL ones (no other
    qualifying window strictly nested inside)."""
    tuples = []
    for combo in itertools.product(*[p.tolist() for p in pos_lists]):
        if ordered:
            if not all(combo[i] < combo[i + 1] for i in range(len(combo) - 1)):
                continue
        else:
            if len(set(combo)) != len(combo):
                continue
        tuples.append((min(combo), max(combo)))
    wins = sorted(set(tuples))
    out = []
    for s, e in wins:
        nested = any(
            (s2 >= s and e2 <= e) and (s2, e2) != (s, e) for s2, e2 in wins
        )
        if not nested:
            out.append((s, e))
    return out


def test_minimal_intervals_match_bruteforce_random():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(2, 3)
        lists = []
        universe = list(range(12))
        for _k in range(n):
            ln = rng.randint(1, 4)
            lists.append(np.array(sorted(rng.sample(universe, ln)), dtype=np.int64))
        # distinct positions across clauses (one token per position)
        flat = [p for l in lists for p in l.tolist()]
        if len(set(flat)) != len(flat):
            continue
        got_u = minimal_intervals_unordered(lists)
        want_u = brute_minimal(lists, ordered=False)
        assert got_u == want_u, (lists, got_u, want_u)
        got_o = minimal_intervals_ordered(lists)
        want_o = brute_minimal(lists, ordered=True)
        assert got_o == want_o, (lists, got_o, want_o)
        assert _combinator_intervals(lists, ordered=False) == want_u
        assert _combinator_intervals(lists, ordered=True) == want_o


def test_span_near_freq_examples():
    # "a ... b" in doc "a x b a b": a@{0,3}, b@{2,4}
    A = np.array([0, 3])
    B = np.array([2, 4])
    # ordered minimal intervals: (0,2)? chain a0->b2 end 2; a3->b4 (3,4);
    # (0,2) not nested by (3,4) → both. widths: 2-0-1=1, 4-3-1=0
    assert span_near_freq([A, B], slop=1, in_order=True) == pytest.approx(1 / 2 + 1 / 1)
    assert span_near_freq([A, B], slop=0, in_order=True) == pytest.approx(1.0)
    # unordered also sees (2,3) (b2,a3) width 0
    f_u = span_near_freq([A, B], slop=0, in_order=False)
    assert f_u == pytest.approx(1.0 + 1.0)  # (2,3) and (3,4)
    # nothing within slop → 0
    assert span_near_freq([np.array([0]), np.array([9])], 2, False) == 0.0


def test_span_near_end_to_end(tmp_path, ray_session):
    import pandas as pd

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.query import SpanNearQuery
    from lucene_ray.searcher import IndexSearcher

    docs = [
        "alpha beta gamma",          # ordered adjacent
        "beta alpha gamma",          # unordered only
        "alpha x x x beta",          # ordered, width 3
        "gamma delta epsilon",       # no match
    ]
    src = str(tmp_path / "d.parquet")
    pd.DataFrame({"doc_id": range(len(docs)), "text": docs}).to_parquet(src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, key_col="doc_id", text_col="text", num_partitions=2,
                columns=["doc_id", "text"])
    s = IndexSearcher(idx)
    ordered0 = {sd.doc_key for sd in
                s.search(SpanNearQuery(["alpha", "beta"], slop=0, in_order=True), k=10).score_docs}
    assert ordered0 == {0}
    unordered0 = {sd.doc_key for sd in
                  s.search(SpanNearQuery(["alpha", "beta"], slop=0, in_order=False), k=10).score_docs}
    assert unordered0 == {0, 1}
    ordered3 = {sd.doc_key for sd in
                s.search(SpanNearQuery(["alpha", "beta"], slop=3, in_order=True), k=10).score_docs}
    assert ordered3 == {0, 2}


def test_repeated_term_spans_no_crash_and_sane():
    # repeated clause term: one occurrence may not satisfy both slots
    A = np.array([0, 2, 5])
    f_u = span_near_freq([A, A], slop=2, in_order=False)
    # valid distinct pairs within slop 2 (width = |a-b|-1): (0,2) w1, ... 
    assert f_u > 0
    # single occurrence of the repeated term → no valid pair
    assert span_near_freq([np.array([3]), np.array([3])], 5, False) == 0.0
    # ordered repeated term uses strictly increasing positions
    f_o = span_near_freq([A, A], slop=2, in_order=True)
    assert f_o > 0


def test_unordered_minimality_property():
    # minimality: no returned window nests inside another (random property;
    # note cross-clause position collisions cannot occur in a real index —
    # one token per position — so lists here are disjoint across clauses)
    import random

    rng = random.Random(3)
    for _ in range(100):
        universe = list(range(20))
        rng.shuffle(universe)
        a = np.array(sorted(universe[:4]))
        b = np.array(sorted(universe[4:7]))
        got = minimal_intervals_unordered([a, b])
        for s, e in got:
            assert not any((s2 >= s and e2 <= e and (s2, e2) != (s, e)) for s2, e2 in got)


def test_unordered_repeats_three_plus():
    # 3x repeated clause: needs 3 distinct occurrences
    A = np.array([0, 1, 2])
    assert minimal_intervals_unordered([A, A, A]) == [(0, 2)]
    assert minimal_intervals_unordered([A, A, A, A]) == []  # only 3 occurrences
    B = np.array([0, 1, 2, 5, 6, 7])
    got = minimal_intervals_unordered([B, B, B])
    assert (0, 2) in got and (5, 7) in got


def test_single_term_phrase_and_span():
    from lucene_ray.functions.sloppy import sloppy_phrase_freq

    assert sloppy_phrase_freq([np.array([1, 5, 9])], [0], ["t"], 2) == 3.0
    assert span_near_freq([np.array([1, 5])], 0, True) == 2.0
