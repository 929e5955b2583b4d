"""Collectors — what a query's matches turn into besides a scored top-k.

Each collector is a function of an IndexSearcher and a query (a Query or a
query string, parsed by ``searcher.parse``) built on
``IndexSearcher.matches``: it folds every segment's live ``(reader, docs,
scores)`` into its own result, the way the reference's Collector/LeafCollector
pair folds each leaf's hits. Field sort (TopFieldCollector), facets
(FacetsCollector, SortedSet, range, taxonomy, drill-sideways), doc-values
statistics, diversified top-k and grouping live here.
"""

from __future__ import annotations

import heapq
from collections import Counter

import numpy as np

from lucene_ray.query import BooleanQuery, DocValuesTermQuery, Query


def search_by_field(searcher, query: Query | str, field: str, k: int = 10, *,
                    descending: bool = True) -> list[tuple]:
    """TopFieldCollector analogue (search/TopFieldCollector.java:39-151):
    top-k matching docs ordered by a doc-values column, ties by doc_key.
    Returns [(doc_key, field_value), ...]."""
    want_sort = [field, "desc" if descending else "asc"]
    stats = searcher.sort_stats
    rows = []
    for r, docs, _ in searcher.matches(query):
        if list(r.meta.get("index_sort") or ()) == want_sort:
            # EARLY TERMINATION (TopFieldCollector.canEarlyTerminate,
            # TopFieldCollector.java:150): this segment's docID order IS
            # (field desc/asc, key asc), so the first k matching docIDs
            # are the segment's top-k — no per-hit gather or sort
            take = docs[:k]
            stats["docs_examined"] += len(take)
            stats["docs_matched"] += len(docs)
            rows.extend(zip(r.doc_values[field][take].tolist(), r.doc_keys[take].tolist()))
            continue
        stats["docs_examined"] += len(docs)
        stats["docs_matched"] += len(docs)
        vals = r.doc_values[field][docs]
        keys = r.doc_keys[docs]
        idx = np.arange(len(vals))
        if len(idx) > k * 4 and np.issubdtype(vals.dtype, np.number):
            kk = min(k, len(idx))
            thr = np.partition(vals, len(vals) - kk)[len(vals) - kk] if descending else \
                np.partition(vals, kk - 1)[kk - 1]
            idx = np.flatnonzero(vals >= thr) if descending else np.flatnonzero(vals <= thr)
        rows.extend((vals[i], keys[i]) for i in idx.tolist())
    rows.sort(key=(lambda t: (-t[0], t[1])) if descending else (lambda t: (t[0], t[1])))
    return [(kkey, val) for val, kkey in rows[:k]]


def facet_counts(searcher, query: Query | str, field: str) -> dict:
    """Facet counting over a doc-values column for matching docs
    (facet/FacetsCollector + LongValueFacetCounts analogue): per-segment
    partial bincounts merged on the way out."""
    out: dict = {}
    for r, docs, _ in searcher.matches(query):
        vals, counts = np.unique(r.doc_values[field][docs], return_counts=True)
        for v, c in zip(vals.tolist(), counts.tolist()):
            out[v] = out.get(v, 0) + c
    return out


def facet_counts_multi(searcher, query: Query | str, field: str) -> dict:
    """Multi-valued facet counting over a SortedSet doc-values column
    (facet/sortedset/SortedSetDocValuesFacetCounts.java): each matching
    doc contributes one count per stored value. Vectorized per segment:
    gather the selected docs' ordinal ranges with one repeat-arange
    indexing pass, bincount the ordinals, map through the sorted value
    dictionary; segment partials merge by value."""
    for r in searcher.readers:
        if field not in r.sorted_set_dv:
            raise KeyError(
                f"no SortedSet doc-values column {field!r} in segment "
                f"{r.name} (index it as a list-typed docvalue col)")
    out: dict = {}
    for r, docs, _ in searcher.matches(query):
        offsets, codes, vocab = r.sorted_set_dv[field]
        starts = offsets[docs]
        lens = offsets[docs + 1] - starts
        m = int(lens.sum())
        if not m:
            continue
        # flat indices of every (doc, value) pair of the selected docs
        idx = np.repeat(starts - np.concatenate([[0], np.cumsum(lens)[:-1]]),
                        lens) + np.arange(m, dtype=np.int64)
        cnt = np.bincount(codes[idx], minlength=len(vocab))
        for oi in np.flatnonzero(cnt):
            v = vocab[oi]
            out[v] = out.get(v, 0) + int(cnt[oi])
    return out


def drill_sideways(searcher, base: Query | str, drill_downs: dict, k: int = 10):
    """DrillSideways (facet/DrillSideways.java): drill-down hits = base
    query filtered by EVERY selected dimension value; per-dimension
    sideways facet counts are computed with all OTHER dimensions'
    filters applied but NOT the dimension's own — so the UI can show
    what the counts would be if that one selection were lifted.

    ``drill_downs``: {dv_field: selected_value}. Returns
    ``{"hits": TopDocs, "facets": {field: {value: count}}}``. Executed
    as one filtered search plus one facet count per dimension (the
    reference folds these into a single collector pass; same results)."""
    if isinstance(base, str):
        base = searcher.parse(base)
    filters = {f: DocValuesTermQuery(f, v) for f, v in drill_downs.items()}
    hits = searcher.search(BooleanQuery(must=[base], filter=list(filters.values())), k)
    facets = {}
    for dim in drill_downs:
        others = [fq for f, fq in filters.items() if f != dim]
        q = BooleanQuery(must=[base], filter=others) if others else base
        facets[dim] = facet_counts(searcher, q, dim)
    return {"hits": hits, "facets": facets}


def dv_stats(searcher, query: Query | str, field: str) -> dict:
    """Aggregate statistics of a numeric doc-values column over matching
    docs (misc/DocValuesStats.java + DocValuesStatsCollector): count,
    min, max, sum, mean, variance (population), stddev. Sums accumulate
    in int64 (exact for integral columns), the float ops happen once in
    a fixed order so an SQL oracle reproduces them bit-for-bit."""
    n = 0
    s = 0
    sq = 0
    mn: float | None = None
    mx: float | None = None
    for r, docs, _ in searcher.matches(query):
        vals = np.asarray(r.doc_values[field][docs], dtype=np.int64)
        n += len(vals)
        s += int(vals.sum())
        sq += int((vals * vals).sum())
        lo, hi = int(vals.min()), int(vals.max())
        mn = lo if mn is None else min(mn, lo)
        mx = hi if mx is None else max(mx, hi)
    if n == 0:
        return {"count": 0, "min": None, "max": None, "sum": 0,
                "mean": None, "variance": None, "stddev": None}
    mean = s / n
    var = sq / n - mean * mean
    return {
        "count": n, "min": mn, "max": mx, "sum": s,
        "mean": mean, "variance": var, "stddev": float(np.sqrt(max(0.0, var))),
    }


def range_facet_counts(searcher, query: Query | str, field: str,
                       ranges: list[tuple]) -> list[tuple]:
    """Numeric range facets (facet/range/LongRangeFacetCounts.java:42):
    for docs matching ``query``, count how many fall into each
    ``(label, lo, hi)`` half-open range lo ≤ v < hi. Ranges may overlap —
    each is counted independently (the reference's LongRange list
    semantics), so this is NOT a groupby. Returns [(label, count)] in
    the given range order."""
    totals = np.zeros(len(ranges), dtype=np.int64)
    for r, docs, _ in searcher.matches(query):
        vals = np.asarray(r.doc_values[field][docs], dtype=np.float64)
        for i, (_, lo, hi) in enumerate(ranges):
            totals[i] += int(np.count_nonzero((vals >= lo) & (vals < hi)))
    return [(label, int(totals[i])) for i, (label, *_rest) in enumerate(ranges)]


def diversified_topk(searcher, query: Query | str, key_field: str,
                     max_per_key: int = 1, k: int = 10,
                     round_digits: int | None = None) -> list[tuple]:
    """Diversified top-k (misc/search/DiversifiedTopDocsCollector.java:63):
    global top-k by (score desc, doc_key asc) with at most ``max_per_key``
    docs sharing a ``key_field`` value. Greedy-in-rank-order == "keep a
    doc iff its within-key rank ≤ max_per_key, then global top-k" — a doc
    beyond its key's top-``max_per_key`` is always preceded by enough
    same-key docs to fill the cap. Per segment only the per-key
    top-``max_per_key`` survivors are forwarded (the exact-merge bound),
    so the driver-side merge is O(segments · keys · max_per_key).
    Returns [(rank, doc_key, key, score)]."""
    cands: list[tuple] = []  # (-score_key, doc_key, key, score)
    for r, docs, scores in searcher.matches(query):
        keys = r.doc_values[key_field][docs]
        dks = r.doc_keys[docs]
        rounded = np.round(scores, round_digits) if round_digits is not None else scores
        per_key: dict = {}
        for kk, dk, s0, s in zip(keys.tolist(), dks.tolist(), rounded.tolist(),
                                 scores.tolist()):
            per_key.setdefault(kk, []).append((-s0, dk, kk, s))
        for lst in per_key.values():
            cands.extend(heapq.nsmallest(max_per_key, lst))
    cands.sort()
    counts: dict = {}
    out = []
    for _, dk, kk, s in cands:
        c = counts.get(kk, 0)
        if c >= max_per_key:
            continue
        counts[kk] = c + 1
        out.append((len(out) + 1, dk, kk, s))
        if len(out) >= k:
            break
    return out


def taxonomy_counts(searcher, query: Query | str, dims: list[str]) -> list[tuple]:
    """Hierarchical facet counts with rollup (facet/.../taxonomy/
    TaxonomyFacetCounts + DirectoryTaxonomyReader.java:61 semantics over
    a flat dim hierarchy): for matching docs, counts for every path
    prefix of the dim chain — ('src0',), ('src0','en'), … — plus the
    root total. Returns [(path tuple, count)] sorted; rollup rows carry
    the prefix path (deeper levels as None)."""
    counts: Counter = Counter()
    for r, docs, _ in searcher.matches(query):
        cols = [r.doc_values[d][docs] for d in dims]
        counts[()] += len(docs)
        for depth in range(1, len(dims) + 1):
            counts.update(zip(*[c.tolist() for c in cols[:depth]]))
    return sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0]))


def grouped_topk(searcher, query: Query | str, group_field: str,
                 k_per_group: int = 2) -> list[tuple]:
    """Two-pass grouping analogue (grouping/FirstPassGroupingCollector →
    SecondPassGroupingCollector): top-k docs per group value by
    (round(score,6) desc, doc_key asc). Returns
    [(group, rank, doc_key, score), ...] sorted by (group, rank)."""
    acc: dict = {}
    for r, docs, scores in searcher.matches(query):
        groups = r.doc_values[group_field][docs]
        keys = r.doc_keys[docs]
        for g, kkey, s in zip(groups.tolist(), keys.tolist(), scores.tolist()):
            acc.setdefault(g, []).append((-np.round(s, 6), kkey, s))
    out = []
    for g in sorted(acc):
        best = heapq.nsmallest(k_per_group, acc[g])
        for rank, (_, kkey, s) in enumerate(best, start=1):
            out.append((g, rank, kkey, s))
    return out
