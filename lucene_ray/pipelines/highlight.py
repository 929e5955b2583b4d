"""Highlighter — best-fragment snippet extraction for search results.

Functional analogue of the reference's UnifiedHighlighter
(highlighter/.../uhighlight/UnifiedHighlighter.java): re-analyze the stored
text, score token windows by the number of query-term matches (earliest
best window wins ties), emit the fragment with matches wrapped in
``<b>...</b>``. Runs as a vectorized-enough per-batch map over (doc, text)
rows joined to the hit list — the text never moves through the driver.
"""

from __future__ import annotations

import re

import pyarrow as pa

from lucene_ray.functions.analysis import Analyzer
from lucene_ray.query import parse_query
from lucene_ray.query import extract_terms as _extract_terms

_WORD_RE = re.compile(r"\w+", re.UNICODE)


def best_fragment(text: str, terms: set[str], *, window: int = 20,
                  pre: str = "<b>", post: str = "</b>") -> str:
    """Best ``window``-token fragment of ``text`` with query terms wrapped."""
    matches = [(m.start(), m.end(), m.group().lower() in terms)
               for m in _WORD_RE.finditer(text)]
    if not matches:
        return text[: window * 8]
    hits = [i for i, (_, _, h) in enumerate(matches) if h]
    if not hits:
        return text[: matches[min(window, len(matches)) - 1][1]]
    # slide a token window; count hits inside (two-pointer)
    best_start, best_count = 0, -1
    j = 0
    for i in range(len(matches)):
        while j < len(hits) and hits[j] < i:
            j += 1
        count = 0
        k = j
        while k < len(hits) and hits[k] < i + window:
            count += 1
            k += 1
        if count > best_count:
            best_start, best_count = i, count
        if i + window >= len(matches):
            break
    frag_tokens = matches[best_start : best_start + window]
    lo = frag_tokens[0][0]
    hi = frag_tokens[-1][1]
    out = []
    cursor = lo
    for s, e, hit in frag_tokens:
        out.append(text[cursor:s])
        out.append(f"{pre}{text[s:e]}{post}" if hit else text[s:e])
        cursor = e
    return "".join(out)


class Highlighter:
    """map_batches callable: rows with (text + query) → snippet column."""

    def __init__(self, query_or_terms, *, text_col: str = "text", window: int = 20,
                 analyzer: Analyzer | None = None):
        analyzer = analyzer or Analyzer("standard")
        if isinstance(query_or_terms, str):
            terms = _extract_terms(parse_query(query_or_terms, analyzer.normalize))
        elif isinstance(query_or_terms, (set, list, tuple)):
            terms = {analyzer.normalize(t) for t in query_or_terms}
        else:
            terms = _extract_terms(query_or_terms)
        self.terms = set(terms)
        self.text_col = text_col
        self.window = window

    def __call__(self, batch: pa.Table) -> pa.Table:
        snippets = [
            best_fragment(t, self.terms, window=self.window)
            for t in batch.column(self.text_col).to_pylist()
        ]
        return batch.append_column("snippet", pa.array(snippets, type=pa.string()))


# -------------------------------------------------- offsets-based path


def term_spans(index_dir_or_searcher, terms, *, analyzer: Analyzer | None = None) -> pa.Table:
    """Exact match spans from STORED postings offsets — no re-analysis.

    The UnifiedHighlighter offsets source (uhighlight/FieldOffsetStrategy:
    postings-with-offsets beats re-analysis because the text is never
    re-tokenized; reference stores offsets via IndexOptions
    ..._AND_OFFSETS, Lucene90PostingsWriter.java:84-117). Requires an index
    built with ``store_offsets=True``; raises otherwise.

    Returns one row per occurrence: (doc_key, term, start_off, end_off),
    doc-major, offsets ascending within a doc.
    """
    import numpy as np

    from lucene_ray.searcher import IndexSearcher

    s = (index_dir_or_searcher if hasattr(index_dir_or_searcher, "readers")
         else IndexSearcher(index_dir_or_searcher))
    analyzer = analyzer or Analyzer("standard")
    norm_terms = [analyzer.normalize(t) for t in terms]
    if not all(r.has_offsets for r in s.readers):
        # all(), not any(): a mixed index (one segment with offsets, one
        # without) must fail with this clean error, not a column-length
        # crash when the offsets-less reader yields empty streams
        raise ValueError(
            "index was built without store_offsets=True on every segment — "
            "offsets-based highlighting needs the offsets stream "
            "(re-analysis fallback: Highlighter)")
    keys_out, terms_out, st_out, en_out = [], [], [], []
    for r in s.readers:
        for t in norm_terms:
            i = r.term_index(t)
            if i < 0:
                continue
            d, f = r.postings(i)
            if r.live is not None:
                keep = r.live[d]
                occ = np.repeat(keep, f)
                stream = r.offsets(i).reshape(-1, 2)[occ]
                d, f = d[keep], f[keep]
            else:
                stream = r.offsets(i).reshape(-1, 2)
            if not len(d):
                continue
            keys_out.append(np.repeat(r.doc_keys[d], f))
            terms_out.extend([t] * int(f.sum()))
            st_out.append(stream[:, 0])
            en_out.append(stream[:, 1])
    import numpy as _np

    if not keys_out:
        return pa.table({
            "doc_key": pa.array([], type=pa.string()),
            "term": pa.array([], type=pa.string()),
            "start_off": pa.array([], type=pa.int32()),
            "end_off": pa.array([], type=pa.int32()),
        })
    return pa.table({
        "doc_key": pa.array(_np.concatenate(keys_out)),
        "term": pa.array(terms_out, type=pa.string()),
        "start_off": pa.array(_np.concatenate(st_out), type=pa.int32()),
        "end_off": pa.array(_np.concatenate(en_out), type=pa.int32()),
    })


def fragment_from_spans(text: str, spans, *, max_chars: int = 160,
                        pre: str = "<b>", post: str = "</b>") -> str:
    """Snippet around the densest run of stored-offset spans — pure string
    slicing, the text is NEVER re-tokenized. ``spans`` = iterable of
    (start, end), ascending."""
    spans = sorted((int(a), int(b)) for a, b in spans)
    if not spans:
        return text[:max_chars]
    # densest window: two-pointer over span starts within max_chars
    best_i, best_n = 0, 0
    j = 0
    for i in range(len(spans)):
        if j < i:
            j = i
        while j + 1 < len(spans) and spans[j + 1][1] - spans[i][0] <= max_chars:
            j += 1
        if j - i + 1 > best_n:
            best_i, best_n = i, j - i + 1
    lo = max(0, spans[best_i][0] - 20)
    hi = min(len(text), lo + max_chars)
    out, cursor = [], lo
    for a, b in spans:
        if a < lo or b > hi:
            continue
        out.append(text[cursor:a])
        out.append(f"{pre}{text[a:b]}{post}")
        cursor = b
    out.append(text[cursor:hi])
    return "".join(out)


def highlight_hits_offsets(source_ds, index_dir_or_searcher, query_or_terms, *,
                           key_col: str = "doc_id", text_col: str = "text",
                           max_chars: int = 160,
                           analyzer: Analyzer | None = None):
    """Offsets-based highlight over a Dataset of stored rows: spans come
    from the index (small — terms × hits), broadcast once; each batch
    slices its own text. No re-tokenization anywhere."""
    import ray

    analyzer = analyzer or Analyzer("standard")
    if isinstance(query_or_terms, str):
        terms = _extract_terms(parse_query(query_or_terms, analyzer.normalize))
    elif isinstance(query_or_terms, (set, list, tuple)):
        terms = {analyzer.normalize(t) for t in query_or_terms}
    else:
        terms = _extract_terms(query_or_terms)
    spans_tbl = term_spans(index_dir_or_searcher, sorted(terms), analyzer=analyzer)
    by_key: dict = {}
    for k, a, b in zip(spans_tbl.column("doc_key").to_pylist(),
                       spans_tbl.column("start_off").to_pylist(),
                       spans_tbl.column("end_off").to_pylist()):
        by_key.setdefault(k, []).append((a, b))
    ref = ray.put(by_key)

    def add_snippets(batch: pa.Table) -> pa.Table:
        spans = ray.get(ref)
        snippets = [
            fragment_from_spans(t, spans.get(k, ()), max_chars=max_chars)
            for k, t in zip(batch.column(key_col).to_pylist(),
                            batch.column(text_col).to_pylist())
        ]
        return batch.append_column("snippet", pa.array(snippets, type=pa.string()))

    return source_ds.map_batches(add_snippets, batch_format="pyarrow")


def highlight_hits(source_ds, hits_ds, query, *, key_col: str = "doc_id",
                   text_col: str = "text", window: int = 20):
    """Join top-k hits back to their stored text and add snippets.

    Broadcast-semi-join: the hit key set is small (top-k × queries), so it is
    shipped once and the source is filtered per batch — no shuffle."""
    import ray

    hit_keys = hits_ds.to_pandas()["doc_key"].to_numpy()
    ref = ray.put(pa.array(hit_keys))

    def filter_and_highlight(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keys = ray.get(ref)
        sel = batch.filter(pc.is_in(batch.column(key_col), value_set=keys))
        return Highlighter(query, text_col=text_col, window=window)(sel)

    return source_ds.map_batches(filter_and_highlight, batch_format="pyarrow")


def passage_rank(text: str, spans, *, tokens_per_passage: int = 20,
                 k1: float = 1.2, b: float = 0.75, pivot: float = 87.0,
                 max_passages: int = 3) -> list[dict]:
    """UnifiedHighlighter passage ranking — PassageScorer
    (highlighter/.../uhighlight/PassageScorer.java:31-137) over the
    FieldHighlighter passage walk:

      score(P) = Σ_distinct-term tf(freq_P, len_P) · weight(contentLen, ttf_doc)
                 · norm(start_P)
      weight   = (k1+1) · ln(1 + (numDocs+0.5)/(ttf+0.5)), numDocs ≈ 1+len/pivot
      tf       = f / (f + k1·((1−b) + b·len_P/pivot))
      norm     = 1 + 1/ln(pivot + start)

    ``spans`` = (start, end, term) match occurrences from stored offsets
    (term_spans). Segmentation divergence, documented: fixed
    ``tokens_per_passage`` windows instead of BreakIterator sentences —
    deterministic and oracle-mirrorable (the fixture corpus carries no
    sentence punctuation); lengths/starts are CHARACTER offsets exactly as
    the reference's passages. Returns the top ``max_passages`` as dicts
    (start, end, score, spans), ranked (round(score,6) desc, start asc)."""
    import math
    from collections import Counter

    toks = list(_WORD_RE.finditer(text))
    if not toks:
        return []
    spans = sorted((int(a), int(b), t) for a, b, t in spans)
    tf_doc = Counter(t for _, _, t in spans)
    content_len = len(text)
    num_docs = 1 + content_len / pivot
    out = []
    for w0 in range(0, len(toks), tokens_per_passage):
        wtoks = toks[w0 : w0 + tokens_per_passage]
        p_start, p_end = wtoks[0].start(), wtoks[-1].end()
        inside = [(a, b, t) for a, b, t in spans
                  if a >= p_start and b <= p_end]
        if not inside:
            continue
        freqs = Counter(t for _, _, t in inside)
        norm = k1 * ((1 - b) + b * ((p_end - p_start) / pivot))
        s = sum(
            (f / (f + norm))
            * (k1 + 1) * math.log(1 + (num_docs + 0.5) / (tf_doc[t] + 0.5))
            for t, f in freqs.items()
        )
        s *= 1 + 1 / math.log(pivot + p_start)
        out.append({"start": p_start, "end": p_end, "score": s,
                    "spans": inside})
    out.sort(key=lambda p: (-round(p["score"], 6), p["start"]))
    return out[:max_passages]


def passage_rank_hits(source_ds, index_dir_or_searcher, terms, *,
                      key_col: str = "doc_id", text_col: str = "text",
                      tokens_per_passage: int = 20, max_passages: int = 3,
                      analyzer: Analyzer | None = None):
    """Ranked passages per document, Dataset-shaped: spans come from stored
    postings offsets (small, broadcast once); each batch ranks its own
    docs' passages. Returns (key, passage_rank, passage_start, score)."""
    import ray

    analyzer = analyzer or Analyzer("standard")
    norm_terms = sorted({analyzer.normalize(t) for t in terms})
    spans_tbl = term_spans(index_dir_or_searcher, norm_terms,
                           analyzer=analyzer)
    by_key: dict = {}
    for k, a, b, t in zip(spans_tbl.column("doc_key").to_pylist(),
                          spans_tbl.column("start_off").to_pylist(),
                          spans_tbl.column("end_off").to_pylist(),
                          spans_tbl.column("term").to_pylist()):
        by_key.setdefault(k, []).append((a, b, t))
    ref = ray.put(by_key)

    def rank_batch(batch: pa.Table) -> pa.Table:
        spans = ray.get(ref)
        out_k, out_r, out_s, out_sc = [], [], [], []
        for k, text in zip(batch.column(key_col).to_pylist(),
                           batch.column(text_col).to_pylist()):
            doc_spans = spans.get(str(k), ()) or spans.get(k, ())
            if not doc_spans:
                continue
            for rank, p in enumerate(
                    passage_rank(text, doc_spans,
                                 tokens_per_passage=tokens_per_passage,
                                 max_passages=max_passages), start=1):
                out_k.append(k)
                out_r.append(rank)
                out_s.append(p["start"])
                out_sc.append(round(p["score"], 6))
        return pa.table({
            key_col: pa.array(out_k),
            "passage_rank": pa.array(out_r, type=pa.int64()),
            "passage_start": pa.array(out_s, type=pa.int64()),
            "score": pa.array(out_sc, type=pa.float64()),
        })

    return source_ds.map_batches(rank_batch, batch_format="pyarrow")
