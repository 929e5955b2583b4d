"""The searcher core: one evaluator per query type, one match iterator,
and no module outside searcher.py reaching into per-segment evaluation."""

from __future__ import annotations

import inspect
import pathlib
import re

import numpy as np

import lucene_ray.query as query_mod
from lucene_ray.searcher import IndexSearcher

ROOT = pathlib.Path(__file__).resolve().parents[1]

MOVED = ("search_by_field", "facet_counts", "facet_counts_multi", "drill_sideways",
         "dv_stats", "range_facet_counts", "diversified_topk", "taxonomy_counts",
         "grouped_topk", "suggest_terms", "fuzzy_suggest_terms", "spell_suggest",
         "more_like_this")


def test_every_query_type_has_an_evaluator():
    types = [c for c in vars(query_mod).values()
             if inspect.isclass(c) and issubclass(c, query_mod.Query)
             and c is not query_mod.Query]
    assert len(types) > 30
    assert [c.__name__ for c in types if c not in IndexSearcher._EVALUATORS] == []
    # exact-type dispatch is sound only while every type subclasses Query directly
    assert all(c.__bases__ == (query_mod.Query,) for c in types)


def test_no_module_but_the_searcher_evaluates_segments():
    sources = [p for d in ("lucene_ray", "tests") for p in (ROOT / d).rglob("*.py")]
    sources += [ROOT / "__ray_entry__.py", ROOT / "bench.py"]
    pat = re.compile(r"\._(eval|apply_live)\(")
    offenders = [str(p.relative_to(ROOT)) for p in sources
                 if p.name != "searcher.py" and pat.search(p.read_text())]
    assert offenders == []
    assert [m for m in MOVED if hasattr(IndexSearcher, m)] == []


def test_matches_yields_live_nonempty_segments():
    from lucene_ray.functions.analysis import get_analyzer
    from lucene_ray.state.segment import SegmentReader, build_segment_tables

    an = get_analyzer("standard")
    readers = []
    for name, texts in (("s0", ["merge sort", "stream"]), ("s1", ["batch", "merge merge"])):
        keys = np.array([f"{name}-{i}" for i in range(len(texts))], dtype=object)
        p, d, stats = build_segment_tables(keys, texts, an)
        readers.append(SegmentReader.from_tables(p, d, {"name": name, **stats}))
    s = IndexSearcher.from_readers(readers)
    got = [(r.name, docs.tolist()) for r, docs, _ in s.matches("merge")]
    assert got == [("s0", [0]), ("s1", [1])]
    readers[1].live = np.array([True, False])
    assert [r.name for r, _, _ in s.matches("merge")] == ["s0"]
    assert s.count("merge") == 1
    assert list(s.matches("nothing")) == []
