"""FastVectorHighlighter analogue — the vectorhighlight fragment pipeline
(highlighter/src/java/.../vectorhighlight/FastVectorHighlighter.java):
FieldTermStack → FieldPhraseList → BaseFragListBuilder →
Weighted/ScoreOrder fragments.

Source divergence (documented): the reference reads per-doc
(position, offset) pairs from TERM VECTORS because its postings don't
carry offsets per hit doc cheaply; this engine's postings DO store the
offsets stream doc-major (`SegmentReader.offsets`, the .pay analogue), so
the term stack is built from postings-with-offsets — the same data, no
second copy on disk. Everything downstream is the reference's algorithm:

* FieldPhraseList (FieldPhraseList.java:62-130): scan the
  position-sorted term stack; at each query term, take the LONGEST
  consecutive-position run matching a query phrase, shrinking to the
  longest valid prefix when the run dead-ends; phrases never overlap.
* TermInfo weight = ln(numDocs / (docFreq + 1)) + 1
  (FieldTermStack.java:90-92).
* BaseFragListBuilder (BaseFragListBuilder.java:47-106): margin 6,
  minFragCharSize 3·margin; fragments centered on their first phrase
  ((fragCharSize − matchLen)/2 re-centering), multi-term phrases longer
  than fragCharSize discarded (acceptPhrase:121), non-overlapping and
  left-to-right.
* WeightedFieldFragList (WeightedFieldFragList.java:42-84): per-fragment
  boost = Σ (distinct-term weight · phrase boost) · √(term count).
* ScoreOrderFragmentsBuilder: fragments sorted by boost desc; tags
  inserted from stored offsets into the ORIGINAL text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

__all__ = ["FastVectorHighlighter", "fvh_hits", "field_phrase_list",
           "frag_list", "WeightedPhraseInfo", "WeightedFragInfo"]


@dataclass
class TermInfo:
    text: str
    start: int
    end: int
    position: int
    weight: float


@dataclass
class WeightedPhraseInfo:
    """One matched query term/phrase occurrence (WeightedPhraseInfo)."""
    text: str
    terms_offsets: list           # [(start, end), ...] per term
    boost: float
    seqnum: int
    term_infos: list              # [(text, weight), ...]

    @property
    def start(self) -> int:
        return self.terms_offsets[0][0]

    @property
    def end(self) -> int:
        return self.terms_offsets[-1][1]


@dataclass
class WeightedFragInfo:
    start: int
    end: int
    sub_infos: list = field(default_factory=list)  # WeightedPhraseInfo
    total_boost: float = 0.0


def field_phrase_list(stack: list[TermInfo], phrases,
                      phrase_limit: int = 5000) -> list[WeightedPhraseInfo]:
    """``stack``: TermInfos sorted by position. ``phrases``: iterable of
    (term_tuple, boost) — a 1-tuple is a plain term query. Longest-match
    greedy scan (FieldPhraseList.java:62-130); matched spans are consumed
    so phrases never overlap (addIfNoOverlap)."""
    pmap: dict[tuple, tuple[float, int]] = {}
    for seq, (terms, boost) in enumerate(phrases):
        if terms:  # a phrase may analyze to zero tokens (all stopwords)
            pmap[tuple(terms)] = (float(boost), seq)
    max_len = max((len(t) for t in pmap), default=0)
    first_terms = {t[0] for t in pmap}
    out: list[WeightedPhraseInfo] = []
    i, n = 0, len(stack)
    while i < n and len(out) < phrase_limit:
        if stack[i].text not in first_terms:
            i += 1
            continue
        # longest consecutive-position candidate from i, shrink to the
        # longest registered phrase
        matched = 0
        for ln in range(min(max_len, n - i), 0, -1):
            cand = stack[i:i + ln]
            if any(cand[j].position != cand[0].position + j
                   for j in range(1, ln)):
                continue
            key = tuple(ti.text for ti in cand)
            if key in pmap:
                boost, seq = pmap[key]
                out.append(WeightedPhraseInfo(
                    text=" ".join(key),
                    terms_offsets=[(ti.start, ti.end) for ti in cand],
                    boost=boost, seqnum=seq,
                    term_infos=[(ti.text, ti.weight) for ti in cand]))
                matched = ln
                break
        i += matched if matched else 1
    return out


MARGIN_DEFAULT = 6
MIN_FRAG_CHAR_SIZE_FACTOR = 3


def frag_list(phrase_infos: list[WeightedPhraseInfo], frag_char_size: int = 100,
              margin: int = MARGIN_DEFAULT) -> list[WeightedFragInfo]:
    """BaseFragListBuilder.createFieldFragList + WeightedFieldFragList.add
    — returns scored, non-overlapping fragment windows."""
    min_frag = max(1, margin * MIN_FRAG_CHAR_SIZE_FACTOR)
    if frag_char_size < min_frag:
        raise ValueError(f"fragCharSize({frag_char_size}) must be >= {min_frag}")

    def accept(info: WeightedPhraseInfo, match_len: int) -> bool:
        return len(info.terms_offsets) <= 1 or match_len <= frag_char_size

    frags: list[WeightedFragInfo] = []
    queue = list(phrase_infos)
    qi = 0
    start_offset = 0
    while qi < len(queue):
        info = queue[qi]
        if info.start < start_offset:
            qi += 1
            continue
        wpil = []
        phrase_start = info.start
        phrase_end = info.end
        span_start = max(phrase_start - margin, start_offset)
        span_end = max(phrase_end, span_start + frag_char_size)
        if accept(info, phrase_end - phrase_start):
            wpil.append(info)
        qi += 1
        while qi < len(queue):
            nxt = queue[qi]
            if nxt.end <= span_end:
                phrase_end = nxt.end
                if accept(nxt, phrase_end - phrase_start):
                    wpil.append(nxt)
                qi += 1
            else:
                break
        if not wpil:
            continue
        match_len = phrase_end - phrase_start
        new_margin = max(0, (frag_char_size - match_len) // 2)
        span_start = phrase_start - new_margin
        if span_start < start_offset:
            span_start = start_offset
        span_end = span_start + max(match_len, frag_char_size)
        start_offset = span_end

        # WeightedFieldFragList.add: distinct-term boost, √length norm
        distinct: set[str] = set()
        length = 0
        subs = []
        for pi in wpil:
            pb = 0.0
            for t, w in pi.term_infos:
                if t not in distinct:
                    distinct.add(t)
                    pb += w * pi.boost
                length += 1
            subs.append((pi, pb))
        norm = math.sqrt(length) if length else 0.0
        total = sum(pb * norm for _pi, pb in subs)
        frags.append(WeightedFragInfo(span_start, span_end,
                                      [pi for pi, _pb in subs], total))
    return frags


class FastVectorHighlighter:
    """Driver for one document: term stack in, tagged fragments out."""

    def __init__(self, frag_char_size: int = 100, margin: int = MARGIN_DEFAULT,
                 phrase_limit: int = 5000, pre_tag: str = "<b>",
                 post_tag: str = "</b>", score_order: bool = True):
        self.frag_char_size = frag_char_size
        self.margin = margin
        self.phrase_limit = phrase_limit
        self.pre_tag = pre_tag
        self.post_tag = post_tag
        self.score_order = score_order

    def best_fragments(self, text: str, stack: list[TermInfo], phrases,
                       max_num_fragments: int = 3) -> list[tuple[str, float]]:
        """→ [(snippet, score)]; ScoreOrderFragmentsBuilder when
        ``score_order`` else source order (SimpleFragmentsBuilder)."""
        infos = field_phrase_list(stack, phrases, self.phrase_limit)
        frags = frag_list(infos, self.frag_char_size, self.margin)
        if self.score_order:
            frags.sort(key=lambda f: (-f.total_boost, f.start))
        out = []
        for f in frags[:max_num_fragments]:
            end = min(f.end, len(text))
            piece = text[f.start:end]
            # insert tags right-to-left so earlier offsets stay valid
            offs = sorted((o for pi in f.sub_infos for o in pi.terms_offsets),
                          reverse=True)
            for a, b in offs:
                if a >= f.start and b <= end:
                    ra, rb = a - f.start, b - f.start
                    piece = (piece[:ra] + self.pre_tag + piece[ra:rb]
                             + self.post_tag + piece[rb:])
            out.append((piece, round(f.total_boost, 6)))
        return out


def _doc_term_stacks(searcher, terms: set[str]) -> tuple[dict, dict]:
    """{doc_key: [TermInfo...]} for every doc containing a query term, from
    the postings offsets+positions streams; plus {term: weight}."""
    # FieldTermStack.java:90-92: raw docFreq (deletes NOT filtered) over
    # maxDoc — deletes shift neither side until they are merged away.
    # One postings decode per (reader, term): df and the stacks come from
    # the same pass.
    num_docs = sum(r.max_doc for r in searcher.readers)
    df: dict[str, int] = {t: 0 for t in terms}
    decoded = []  # (reader, term, postings d, freqs f)
    for r in searcher.readers:
        if not r.has_offsets:
            raise ValueError(
                "fast_vector_highlight needs store_offsets=True on every "
                "segment (the offsets stream is the term-vector analogue)")
        for t in terms:
            i = r.term_index(t)
            if i < 0:
                continue
            d, f = r.postings(i)
            df[t] += len(d)
            decoded.append((r, t, i, d, f))
    weight = {t: math.log(num_docs / (df[t] + 1)) + 1.0 for t in terms}
    stacks: dict = {}
    for r, t, i, d, f in decoded:
        pos = r.positions(i)
        offs = r.offsets(i).reshape(-1, 2)
        starts = np.concatenate([[0], np.cumsum(f)[:-1]])
        keys = r.doc_keys[d]
        for di, (doc, fr, st) in enumerate(zip(d.tolist(), f.tolist(),
                                               starts.tolist())):
            if r.live is not None and not r.live[doc]:
                continue
            lst = stacks.setdefault(keys[di], [])
            for k in range(st, st + fr):
                lst.append(TermInfo(t, int(offs[k, 0]), int(offs[k, 1]),
                                    int(pos[k]), weight[t]))
    for lst in stacks.values():
        lst.sort(key=lambda ti: ti.position)
    return stacks, weight


def fvh_hits(source_ds, index_dir_or_searcher, phrases, *,
             key_col: str = "doc_id", text_col: str = "text",
             frag_char_size: int = 100, max_num_fragments: int = 1,
             analyzer=None):
    """Dataset stage: add the best FVH fragment (+score) per row.

    ``phrases``: [(term_tuple, boost), ...] or plain strings (analyzed into
    term tuples). Spans are extracted once from the index (terms × hits —
    bounded like term_spans), broadcast via ``ray.put``, and each batch
    highlights its own stored text; no re-tokenization, no shuffle."""
    import ray

    from lucene_ray.functions.analysis import Analyzer
    from lucene_ray.searcher import IndexSearcher

    analyzer = analyzer or Analyzer("standard")
    norm: list[tuple[tuple, float]] = []
    for p in phrases:
        if isinstance(p, str):
            toks = tuple(t for t, _pos in analyzer.tokenize_one(p))
            norm.append((toks, 1.0))
        else:
            terms, boost = p
            norm.append((tuple(analyzer.normalize(t) for t in terms),
                         float(boost)))
    s = (index_dir_or_searcher if hasattr(index_dir_or_searcher, "readers")
         else IndexSearcher(index_dir_or_searcher))
    all_terms = {t for terms, _b in norm for t in terms}
    stacks, _w = _doc_term_stacks(s, all_terms)
    ref = ray.put(stacks)
    hl = FastVectorHighlighter(frag_char_size=frag_char_size)

    def add_fragments(batch: pa.Table) -> pa.Table:
        st = ray.get(ref)
        snips, scores = [], []
        for k, t in zip(batch.column(key_col).to_pylist(),
                        batch.column(text_col).to_pylist()):
            frags = hl.best_fragments(t, st.get(k, []), norm,
                                      max_num_fragments)
            snips.append(frags[0][0] if frags else None)
            scores.append(frags[0][1] if frags else 0.0)
        return (batch
                .append_column("fragment", pa.array(snips, type=pa.string()))
                .append_column("frag_score",
                               pa.array(scores, type=pa.float64())))

    return source_ds.map_batches(add_fragments, batch_format="pyarrow")
