"""Property test: the term-dictionary probes over the raw UTF-8 term column
(``SegmentReader.term_index`` / ``term_range`` / ``bisect``) agree with
Python's ``bisect`` over the decoded, code-point-ordered term list."""

from __future__ import annotations

import bisect

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.functions.analysis import Analyzer
from lucene_ray.state.segment import SegmentReader, build_segment_tables

# multi-byte and astral code points, no surrogates (terms are valid UTF-8)
_CHARS = st.characters(min_codepoint=0x21, max_codepoint=0x10FFFF,
                       blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc"))
_TERM = st.text(_CHARS, min_size=1, max_size=6)
_LONE_SURROGATE = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)


def _reader(terms: list[str]) -> SegmentReader:
    # the keyword analyzer keeps each document's text as one term, verbatim
    p, d, stats = build_segment_tables(
        np.arange(len(terms)), terms, Analyzer("keyword"))
    return SegmentReader.from_tables(p, d, {"name": "probe", **stats})


@settings(max_examples=60, deadline=None)
@given(st.lists(_TERM, min_size=0, max_size=40, unique=True),
       st.lists(_TERM, max_size=10),
       st.lists(st.tuples(_TERM, _LONE_SURROGATE, _TERM), max_size=4))
def test_probes_match_python_bisect(terms, probes, surrogate_parts):
    r = _reader(terms)
    stored = r._terms_arr.to_pylist()
    assert stored == sorted(terms)
    for key in list(terms) + probes + ["", "\U0010ffff" * 2]:
        left = bisect.bisect_left(stored, key)
        assert r.bisect(key, side="left") == left
        assert r.bisect(key, side="right") == bisect.bisect_right(stored, key)
        hit = left < len(stored) and stored[left] == key
        assert r.term_index(key) == (left if hit else -1)
        lo, hi = r.term_range(key)
        assert (lo, hi) == (
            left, left + sum(1 for t in stored[left:] if t.startswith(key)))
    for a, s, b in surrogate_parts:
        for key in (s, a + s, a + s + b):
            # a lone surrogate never raises and never matches a stored term
            assert r.term_index(key) == -1
            i = r.bisect(key)
            assert 0 <= i <= len(stored)
            assert i == bisect.bisect_left(stored, key)
            lo, hi = r.term_range(key)
            assert 0 <= lo <= hi <= len(stored)
