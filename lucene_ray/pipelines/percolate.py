"""Percolation — registered queries matched against a document stream.

The reference's Monitor (monitor/.../Monitor.java:47) registers a set of
queries and, for each incoming document, reports which queries match —
internally by indexing the document into a MemoryIndex
(memory/.../MemoryIndex.java:161) and running the queries against it.

Ray-Data-first shape: the (small) query set is parsed once per actor
(``__init__``), each batch of documents is inverted IN RAM into a
batch-sized ``MemoryIndex`` (state/memory.py), and every registered query
runs against that mini-index. Matching is a per-batch vectorized
evaluation, the stream never materializes, and the output is (doc key,
query id) match pairs.

Scoring note: percolation is a MATCH decision (Monitor semantics), so any
per-batch collection statistics are fine — matching is stats-independent
for every query type this engine supports.
"""

from __future__ import annotations

import pyarrow as pa


def query_prefilter(q):
    """Presearcher term extraction (monitor/.../TermFilteredPresearcher.java
    idea): a CONSERVATIVE batch-level filter for one registered query.

    Returns ``("all", terms)`` — the query can only match a batch whose
    dictionary contains EVERY term; ``("any", terms)`` — at least one term
    must be present; or ``("always",)`` when no safe term set exists
    (wildcards, ranges, match-all — the reference's ANYTOKEN)."""
    from lucene_ray.query import (
        BooleanQuery,
        BoostQuery,
        ConstantScoreQuery,
        MultiPhraseQuery,
        PhraseQuery,
        SpanNearQuery,
        SynonymQuery,
        TermInSetQuery,
        TermQuery,
    )

    if isinstance(q, TermQuery):
        return ("all", frozenset([q.term]))
    if isinstance(q, PhraseQuery):
        return ("all", frozenset(q.terms))
    if isinstance(q, (SynonymQuery, TermInSetQuery)):
        return ("any", frozenset(q.terms))
    if isinstance(q, MultiPhraseQuery):
        # every slot needs one of its alternatives; single-term slots are
        # hard requirements, multi-term slots contribute nothing safe
        req = frozenset(s[0] for s in q.positions if len(s) == 1)
        return ("all", req) if req else ("always",)
    if isinstance(q, SpanNearQuery):
        req = frozenset(
            s for s in q.terms if isinstance(s, str)
        ) | frozenset(
            slot[0] for slot in q.terms
            if isinstance(slot, tuple) and len(slot) == 1
            and isinstance(slot[0], str)
        )
        return ("all", req) if req else ("always",)
    if isinstance(q, (BoostQuery, ConstantScoreQuery)):
        return query_prefilter(q.query)
    if isinstance(q, BooleanQuery):
        must = [query_prefilter(s) for s in (*q.must, *q.filter)]
        req = frozenset().union(*[t for k, *r in must if k == "all" for t in r])
        if req:
            return ("all", req)
        if must:
            # required clauses exist but none yields a safe term set
            # (wildcards/ranges) — should clauses are OPTIONAL then, so no
            # 'any' filter may be derived from them
            return ("always",)
        if q.should:
            subs = [query_prefilter(s) for s in q.should]
            if any(s[0] == "always" for s in subs):
                return ("always",)
            any_terms = frozenset().union(
                *[t for k, *r in subs for t in r]
            )
            return ("any", any_terms) if any_terms else ("always",)
        return ("always",)
    return ("always",)


class Percolator:
    """map_batches callable: registered queries vs each batch's MemoryIndex.

    A presearcher prefilter (``query_prefilter``) skips queries whose
    required terms are absent from the batch dictionary — the Monitor's
    TermFilteredPresearcher, at batch granularity. ``stats`` counts run vs
    skipped queries per batch for observability."""

    def __init__(self, queries: dict, *, text_col: str = "text",
                 id_col: str = "doc_id", analyzer: str = "standard",
                 presearch: bool = True):
        from lucene_ray.functions.analysis import get_analyzer
        from lucene_ray.query import Query, parse_query

        self.text_col = text_col
        self.id_col = id_col
        self.analyzer = get_analyzer(analyzer)
        self.queries = {
            qid: (q if isinstance(q, Query) else parse_query(q, self.analyzer.normalize))
            for qid, q in queries.items()
        }
        self.prefilters = (
            {qid: query_prefilter(q) for qid, q in self.queries.items()}
            if presearch
            else {qid: ("always",) for qid in self.queries}
        )
        self.stats = {"queries_run": 0, "queries_skipped": 0}

    def __call__(self, batch: pa.Table) -> pa.Table:
        from lucene_ray.state.memory import MemoryIndex

        mem = MemoryIndex(batch.column(self.id_col).to_numpy(zero_copy_only=False),
                          batch.column(self.text_col), analyzer=self.analyzer)
        reader = mem.reader
        present = (
            {reader.terms[i] for i in range(reader.n_terms)}
            if any(pf[0] != "always" for pf in self.prefilters.values())
            else frozenset()
        )
        out_doc, out_q = [], []
        for qid, q in self.queries.items():
            pf = self.prefilters[qid]
            if pf[0] == "all" and not pf[1] <= present:
                self.stats["queries_skipped"] += 1
                continue
            if pf[0] == "any" and not (pf[1] & present):
                self.stats["queries_skipped"] += 1
                continue
            self.stats["queries_run"] += 1
            for r, docs, _ in mem.searcher.matches(q):
                out_doc.extend(r.doc_keys[docs].tolist())
                out_q.extend([qid] * len(docs))
        return pa.table(
            {
                self.id_col: pa.array(out_doc),
                "query_id": pa.array(out_q, type=pa.string()),
            }
        )


def percolate(ds, queries: dict, *, text_col: str = "text", id_col: str = "doc_id",
              analyzer: str = "standard", concurrency: int = 4):
    """Match every registered query against every document in ``ds``.

    Returns Dataset (id_col, query_id) — one row per (doc, matching query).
    Queries are parsed once per actor; each batch builds one in-RAM
    mini-index (MemoryIndex) — streaming, no driver materialization.
    """
    return ds.map_batches(
        Percolator,
        fn_constructor_kwargs=dict(queries=queries, text_col=text_col,
                                   id_col=id_col, analyzer=analyzer),
        batch_format="pyarrow",
        concurrency=(1, concurrency),
    )
