"""Property test of ``IndexSearcher.search``'s one top-k collector against
brute force: the first k of ``matches()`` sorted by (score desc, key asc),
with the same keys, the same ``float.hex`` scores and the same hit count —
over 1–3 segments whose doc keys are not in docID order, with ties across
segments at the k boundary, deletes, keyset paging, and both the
exhaustive and the MaxScore path."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.functions.analysis import Analyzer
from lucene_ray.query import ConstantScoreQuery, TermQuery
from lucene_ray.searcher import IndexSearcher
from lucene_ray.state.segment import SegmentReader, build_segment_tables

# few distinct texts, so equal scores are common within and across segments
_TEXTS = ["a", "a b", "b", "a a b", "b c", "c", "a c", "a b c d"]
QUERIES = ["a", "b", "a b", "a OR c", "b c d", "+a +b", "a -c", '"a b"',
           ConstantScoreQuery(TermQuery("a"), 2.0)]


def _searcher(segments, deletes, seed: int) -> IndexSearcher:
    rnd = np.random.default_rng(seed)
    readers = []
    key = 0
    for j, text_ids in enumerate(segments):
        # keys are unique across segments but shuffled against docIDs, so a
        # tie cut by docID would pick other docs than one by key
        keys = np.array([f"k{key + i:04d}" for i in rnd.permutation(len(text_ids))],
                        dtype=object)
        key += len(text_ids)
        p, d, stats = build_segment_tables(keys, [_TEXTS[t] for t in text_ids],
                                           Analyzer("standard"))
        r = SegmentReader.from_tables(p, d, {"name": f"s{j}", **stats})
        dead = [x % len(text_ids) for x in deletes[j]]
        if dead:
            r.live = np.ones(len(text_ids), dtype=bool)
            r.live[dead] = False
        readers.append(r)
    return IndexSearcher.from_readers(readers, mode="lucene")


def _brute(s: IndexSearcher, q) -> list[tuple[str, str]]:
    hits = [(float(sc), str(r.doc_keys[d]))
            for r, docs, scores in s.matches(q) for d, sc in zip(docs, scores)]
    hits.sort(key=lambda h: (-h[0], h[1]))
    return [(key, sc.hex()) for sc, key in hits]


def _got(td) -> list[tuple[str, str]]:
    return [(str(sd.doc_key), float(sd.score).hex()) for sd in td.score_docs]


_SEGMENTS = st.lists(st.lists(st.integers(0, len(_TEXTS) - 1), min_size=1, max_size=40),
                     min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(_SEGMENTS, st.lists(st.lists(st.integers(0, 60), max_size=6), min_size=3, max_size=3),
       st.integers(0, 2**16))
def test_search_equals_sorted_matches(segments, deletes, seed):
    s = _searcher(segments, deletes, seed)
    n_docs = sum(map(len, segments))
    for q in QUERIES:
        want = _brute(s, q)
        for k in (1, 3, 10, n_docs + 5):
            for algo in ("exhaustive", "wand", "auto"):
                td = s.search(q, k=k, algo=algo)
                assert td.total_hits == len(want), (q, k, algo)
                assert _got(td) == want[:k], (q, k, algo)


@settings(max_examples=40, deadline=None)
@given(_SEGMENTS, st.lists(st.lists(st.integers(0, 60), max_size=6), min_size=3, max_size=3),
       st.integers(0, 2**16), st.sampled_from([1, 2, 7]))
def test_search_after_chain_pages_through_everything(segments, deletes, seed, k):
    s = _searcher(segments, deletes, seed)
    for q in QUERIES:
        want = _brute(s, q)
        pages, after = [], None
        for _ in range(len(want) + 1):  # each page moves the anchor on
            td = s.search(q, k=k, search_after=after)
            assert td.total_hits == len(want)
            if not td.score_docs:
                break
            pages += _got(td)
            last = td.score_docs[-1]
            after = (last.score, last.doc_key)
        assert pages == want, q
