"""Suggesters: over an index's term dictionary, and over arbitrary
(text, weight[, payload]) entries.

The dictionary suggesters are functions of an IndexSearcher:
``suggest_terms`` and ``fuzzy_suggest_terms`` (prefix completion weighted
by total term frequency), ``spell_suggest`` (DirectSpellChecker) and
``more_like_this`` (MoreLikeThis). The entry suggesters below cover the
analyzed-completion family.

Reference anchors:
* AnalyzingSuggester (suggest/.../analyzing/AnalyzingSuggester.java:139):
  complete the ANALYZED form of the suggestion from its start, weighted —
  here a sorted array of analyzed keys binary-searched by analyzed-prefix
  (the FST is an implementation detail; the contract is analyzed-prefix →
  top-k by weight).
* AnalyzingInfixSuggester (suggest/.../analyzing/AnalyzingInfixSuggester
  .java): match suggestions whose analyzed text contains ANY token with the
  typed prefix (infix), rank by weight, highlight the match — here a mini
  token→suggestion inverted index.

Build is Ray-friendly: ``build_from_dataset`` analyzes entries with one
``map_batches`` pass and collects only suggestion-set-sized rows (a
suggestion dictionary is small relative to the corpus; the reference loads
its FSTs fully in RAM too).
"""

from __future__ import annotations

import bisect

import numpy as np

from lucene_ray.functions.analysis import Analyzer, get_analyzer
from lucene_ray.state.segment import prefix_successor


def _analyze(analyzer: Analyzer, text: str) -> list[str]:
    terms, _d, _p, _l = analyzer.tokenize_batch([text])
    return [str(t) for t in terms]


class AnalyzingSuggester:
    """Analyzed-prefix completion: ``lookup(key)`` returns entries whose
    ANALYZED text starts with the analyzed key, top-k by (weight desc,
    text asc)."""

    def __init__(self, analyzer: Analyzer | str = "standard"):
        self.analyzer = (get_analyzer(analyzer)
                         if isinstance(analyzer, str) else analyzer)
        self._keys: list[str] = []
        self._entries: list[tuple] = []  # aligned with _keys order

    def build(self, entries) -> "AnalyzingSuggester":
        """``entries``: iterable of (text, weight) or (text, weight, payload)."""
        rows = []
        for e in entries:
            text, weight = e[0], int(e[1])
            payload = e[2] if len(e) > 2 else None
            key = " ".join(_analyze(self.analyzer, text))
            rows.append((key, text, weight, payload))
        rows.sort(key=lambda r: r[0])
        self._keys = [r[0] for r in rows]
        self._entries = rows
        return self

    def lookup(self, key: str, k: int = 5) -> list[tuple]:
        """→ [(text, weight, payload)] top-k by (weight desc, text asc)."""
        akey = " ".join(_analyze(self.analyzer, key))
        lo = bisect.bisect_left(self._keys, akey)
        succ = prefix_successor(akey) if akey else None
        hi = (bisect.bisect_left(self._keys, succ) if succ is not None
              else len(self._keys))
        cand = self._entries[lo:hi]
        cand = sorted(cand, key=lambda r: (-r[2], r[1]))[:k]
        return [(t, w, p) for _k, t, w, p in cand]


class InfixSuggester:
    """Infix completion: the typed key's LAST token matches any-position
    token prefixes; earlier tokens must appear as whole analyzed tokens
    (AnalyzingInfixSuggester's query shape). Matches are highlighted with
    ``<b>…</b>`` around the matched prefix."""

    def __init__(self, analyzer: Analyzer | str = "standard"):
        self.analyzer = (get_analyzer(analyzer)
                         if isinstance(analyzer, str) else analyzer)
        self._entries: list[tuple] = []  # (text, weight, payload, token set)
        self._tokens: list[str] = []     # sorted distinct tokens
        self._postings: list[np.ndarray] = []  # token -> entry ids

    def build(self, entries) -> "InfixSuggester":
        self._entries = []
        self._tok_lists = []  # ordered token lists (BlendedInfix blending)
        self._by_text = None
        inv: dict[str, list[int]] = {}
        for i, e in enumerate(entries):
            text, weight = e[0], int(e[1])
            payload = e[2] if len(e) > 2 else None
            toks = _analyze(self.analyzer, text)
            self._entries.append((text, weight, payload, frozenset(toks)))
            self._tok_lists.append(toks)
            for t in set(toks):
                inv.setdefault(t, []).append(i)
        self._tokens = sorted(inv)
        self._postings = [np.asarray(inv[t], dtype=np.int64)
                          for t in self._tokens]
        return self

    def build_from_dataset(self, ds, *, text_col: str = "text",
                           weight_col: str | None = None) -> "InfixSuggester":
        """Distributed analyze (one map_batches pass), then assemble the
        in-RAM lookup structure from the suggestion-sized result."""
        import pyarrow as pa

        an = self.analyzer

        def prep(batch: pa.Table) -> pa.Table:
            texts = batch.column(text_col).to_pylist()
            # one vectorized analyzer pass per batch (not per row): group
            # the flat token stream back per doc via doc_idx boundaries
            terms, doc_idx, _pos, _dl = an.tokenize_batch(texts)
            bounds = np.searchsorted(doc_idx, np.arange(len(texts) + 1))
            toks = [" ".join(terms[bounds[i]:bounds[i + 1]])
                    for i in range(len(texts))]
            w = (batch.column(weight_col).to_numpy(zero_copy_only=False)
                 if weight_col else np.ones(len(texts), dtype=np.int64))
            return pa.table({"text": pa.array(texts, type=pa.string()),
                             "weight": pa.array(w.astype(np.int64)),
                             "toks": pa.array(toks, type=pa.string())})

        # driver materialization is intentional and bounded: suggesters hold
        # their whole lookup structure in RAM by design (Lucene's FST-based
        # suggesters do the same) — inputs are suggestion dictionaries
        # (queries, titles, product names), not corpora
        rows = ds.map_batches(prep, batch_format="pyarrow").to_pandas()
        self._entries = []
        self._tok_lists = []  # ordered token lists (BlendedInfix blending)
        self._by_text = None
        inv: dict[str, list[int]] = {}
        for i, (text, weight, toks) in enumerate(
                zip(rows["text"], rows["weight"], rows["toks"])):
            tl = toks.split() if toks else []
            self._entries.append((text, int(weight), None, frozenset(tl)))
            self._tok_lists.append(tl)
            for t in set(tl):
                inv.setdefault(t, []).append(i)
        self._tokens = sorted(inv)
        self._postings = [np.asarray(inv[t], dtype=np.int64)
                          for t in self._tokens]
        return self

    def _prefix_entry_ids(self, prefix: str) -> np.ndarray:
        lo = bisect.bisect_left(self._tokens, prefix)
        succ = prefix_successor(prefix) if prefix else None
        hi = (bisect.bisect_left(self._tokens, succ) if succ is not None
              else len(self._tokens))
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(self._postings[lo:hi]))

    def lookup(self, key: str, k: int = 5, *, highlight: bool = True) -> list[tuple]:
        """→ [(text, weight, payload, highlighted)] by (weight desc, text)."""
        ktoks = _analyze(self.analyzer, key)
        if not ktoks:
            return []
        *whole, last = ktoks
        ids = self._prefix_entry_ids(last)
        out = []
        for i in ids.tolist():
            text, weight, payload, tokset = self._entries[i]
            if all(t in tokset for t in whole):
                out.append((text, weight, payload))
        out.sort(key=lambda r: (-r[1], r[0]))
        out = out[:k]
        if not highlight:
            return [(t, w, p, None) for t, w, p in out]
        import re

        pat = re.compile(r"\b(" + re.escape(last) + r")(\w*)", re.IGNORECASE)
        return [
            (t, w, p, pat.sub(lambda m: f"<b>{m.group(1)}</b>{m.group(2)}", t))
            for t, w, p in out
        ]


class BlendedInfixSuggester(InfixSuggester):
    """Infix completion with position-blended scores
    (suggest/.../analyzing/BlendedInfixSuggester.java:52): a match whose
    first matched token sits DEEPER in the suggestion text scores lower.

    score = weight' · coefficient, truncated to long, where

    * weight' = weight, or 1 if weight == 0, then ×10 when |weight'| < 10
      (the reference's 1/LINEAR_COEF rescale so the coefficient survives
      the long truncation, BlendedInfixSuggester.java:264-268);
    * coefficient = 1 when the raw text starts with the raw key, else by
      ``blender_type`` over the position p of the first matched token:
      "linear" → 1 − 0.10·p, "reciprocal" → 1/(p+1),
      "exponential_reciprocal" → 1/(p+1)^exponent
      (calculateCoefficient, BlendedInfixSuggester.java:355-376).

    The candidate pool is ``num · num_factor`` infix matches by raw
    weight before blending re-sorts (DEFAULT_NUM_FACTOR = 10)."""

    LINEAR_COEF = 0.10
    DEFAULT_NUM_FACTOR = 10

    def __init__(self, analyzer: Analyzer | str = "standard",
                 blender_type: str = "linear", num_factor: int = 10,
                 exponent: float = 2.0):
        super().__init__(analyzer)
        if blender_type not in ("linear", "reciprocal",
                                "exponential_reciprocal"):
            raise ValueError(f"blender_type: {blender_type!r}")
        self.blender_type = blender_type
        self.num_factor = num_factor
        self.exponent = exponent
        self._tok_lists: list[list[str]] = []  # entry id -> analyzed tokens

    def _coefficient(self, position: int) -> float:
        if self.blender_type == "linear":
            return 1 - self.LINEAR_COEF * position
        if self.blender_type == "reciprocal":
            return 1.0 / (position + 1)
        return 1.0 / float(position + 1) ** self.exponent

    def lookup(self, key: str, k: int = 5, *, highlight: bool = True) -> list[tuple]:
        """→ [(text, blended_score, payload, highlighted)] by (score desc,
        weight desc, text)."""
        ktoks = _analyze(self.analyzer, key)
        if not ktoks:
            return []
        *whole, last = ktoks
        pool = super().lookup(key, k * self.num_factor, highlight=highlight)
        scored = []
        for text, weight, payload, hl in pool:
            if text.startswith(key):
                coef = 1.0
            else:
                toks = self._tok_lists[self._text_entry_id(text)]
                pos = next((p for p, t in enumerate(toks)
                            if t in whole or t.startswith(last)), 0)
                coef = self._coefficient(pos)
            w = weight if weight != 0 else 1
            if -1 / self.LINEAR_COEF < w < 1 / self.LINEAR_COEF:
                w *= 1 / self.LINEAR_COEF
            scored.append((text, int(w * coef), payload, hl, weight))
        scored.sort(key=lambda r: (-r[1], -r[4], r[0]))
        return [(t, s, p, h) for t, s, p, h, _w in scored[:k]]

    def _text_entry_id(self, text: str) -> int:
        eid = getattr(self, "_by_text", None)
        if eid is None:
            eid = {e[0]: i for i, e in enumerate(self._entries)}
            self._by_text = eid
        return eid[text]


class FreeTextSuggester:
    """n-gram language-model completion with stupid-backoff smoothing —
    suggest/.../analyzing/FreeTextSuggester.java:35 (model: ShingleFilter
    1..grams token n-grams with hole fillers '_'; score: backoff^(levels
    descended) × gramCount / contextCount, ALPHA = 0.4 per Brants et al.
    2007; results deduped on their LAST token across levels, highest-order
    model wins; final order value desc then key asc).

    The model is (ngram → count) with grams joined by ``separator`` —
    the reference holds the same data as one FST; here a sorted array
    bisected by prefix. ``build_from_dataset`` counts n-grams distributed
    (vectorized shingles per batch → ``partition_reduce`` sum, pruned by
    ``min_count`` inside each partition so the driver only ever holds the
    kept model — the suggester-dictionary-sized structure the reference
    also keeps in RAM)."""

    ALPHA = 0.4
    FILLER = "_"

    def __init__(self, analyzer: Analyzer | str = "standard", grams: int = 2,
                 separator: str = "\x1e"):
        if grams < 1:
            raise ValueError("grams must be >= 1")
        if len(separator) != 1 or ord(separator) > 0x7F:
            raise ValueError("separator must be one ascii character")
        self.analyzer = (get_analyzer(analyzer)
                         if isinstance(analyzer, str) else analyzer)
        self.grams = grams
        self.sep = separator
        self._keys: np.ndarray | None = None    # sorted ngram strings
        self._counts: np.ndarray | None = None  # aligned int64 counts
        self.tot_tokens = 0
        self.count = 0  # build row count

    # ------------------------------------------------------------- build

    def _batch_ngram_counts(self, texts) -> "object":
        """One batch → partial (gram, n) counts table. Vectorized: the
        hole-filled token sequence is built with one scatter, shingles are
        shifted-concat joins, counting is one value_counts per level."""
        import pandas as pd
        import pyarrow as pa

        codes, vocab, doc_idx, positions, _l = \
            self.analyzer.tokenize_batch_encoded(texts)
        sep = self.sep
        if len(vocab) and any(sep in t for t in vocab):
            raise ValueError("tokens must not contain the separator")
        if not len(codes):
            return pa.table({"gram": pa.array([""], type=pa.string()),
                             "n": pa.array([0], type=pa.int64())})
        terms = np.asarray(vocab, dtype=object)[codes]
        # per-doc sequence length = last position + 1 (interior holes get
        # filler tokens; ShingleFilter emits no trailing-hole grams at build)
        docs, last_idx = np.unique(doc_idx[::-1], return_index=True)
        last_pos = positions[len(positions) - 1 - last_idx]
        seq_lens = (last_pos + 1).astype(np.int64)
        starts = np.zeros(len(docs) + 1, dtype=np.int64)
        np.cumsum(seq_lens, out=starts[1:])
        total = int(starts[-1])
        seq = np.full(total, self.FILLER, dtype=object)
        doc_rank = np.searchsorted(docs, doc_idx)
        gpos = positions.astype(np.int64) + starts[doc_rank]
        seq[gpos] = terms
        doc_of = np.repeat(np.arange(len(docs)), seq_lens)
        is_fill = np.ones(total, dtype=bool)
        is_fill[gpos] = False

        s = pd.Series(seq)
        parts_keys: list = []
        parts_n: list = []
        joined = s
        all_fill = pd.Series(is_fill)
        same_doc = pd.Series(np.ones(total, dtype=bool))
        tot_unigrams = 0
        for g in range(1, self.grams + 1):
            if g > 1:
                sh = s.shift(-(g - 1), fill_value="")
                joined = joined + sep + sh
                all_fill = all_fill & pd.Series(is_fill).shift(
                    -(g - 1), fill_value=True)
                same_doc = same_doc & (
                    pd.Series(doc_of) == pd.Series(doc_of).shift(
                        -(g - 1), fill_value=-1))
            vc = joined[same_doc & ~all_fill].value_counts()
            if g == 1:
                tot_unigrams = int(vc.sum())
            parts_keys.append(vc.index.to_numpy(dtype=object))
            parts_n.append(vc.to_numpy())
        keys = np.concatenate(parts_keys) if parts_keys else []
        ns = np.concatenate(parts_n) if parts_n else []
        return pa.table({
            "gram": pa.array(list(keys) + [""], type=pa.string()),
            "n": pa.array(list(ns) + [tot_unigrams], type=pa.int64()),
        })

    def build(self, texts) -> "FreeTextSuggester":
        """Local build from an iterable of strings (test path)."""
        import pandas as pd

        texts = list(texts)
        t = self._batch_ngram_counts(texts).to_pandas()
        t = t.groupby("gram", as_index=False)["n"].sum()
        self._finish(t, len(texts))
        return self

    def build_from_dataset(self, ds, *, text_col: str = "text",
                           min_count: int = 1,
                           num_partitions: int = 32) -> "FreeTextSuggester":
        """Distributed model build: per-batch partial shingle counts →
        hash-partitioned exact sum (every copy of a gram lands in one
        partition, so ``min_count`` pruning there is exact and the driver
        collects only the kept model + one totals row per partition)."""
        import pyarrow as pa

        from lucene_ray.pipelines.dedup import partition_reduce

        n_rows = ds.count()

        def partial(batch: pa.Table) -> pa.Table:
            return self._batch_ngram_counts(batch.column(text_col))

        def reduce_fn(t: pa.Table) -> pa.Table:
            agg = t.group_by("gram").aggregate([("n", "sum")])
            agg = agg.rename_columns(["gram", "n"])
            if min_count > 1:
                import pyarrow.compute as pc

                keep = pc.or_(pc.greater_equal(agg.column("n"), min_count),
                              pc.equal(agg.column("gram"), ""))
                agg = agg.filter(keep)
            return agg

        parts = partition_reduce(
            ds.map_batches(partial, batch_format="pyarrow"),
            ["gram"], reduce_fn, num_partitions=num_partitions)
        t = parts.to_pandas()
        t = t.groupby("gram", as_index=False)["n"].sum()  # totals rows merge
        self._finish(t, n_rows)
        return self

    def _finish(self, df, n_rows: int) -> None:
        tot_rows = df[df.gram == ""]
        self.tot_tokens = int(tot_rows.n.sum()) if len(tot_rows) else 0
        df = df[df.gram != ""].sort_values("gram")
        self._keys = df.gram.to_numpy(dtype=object)
        self._counts = df.n.to_numpy(dtype=np.int64)
        self.count = int(n_rows)

    # ------------------------------------------------------------ lookup

    def _gram_count(self, gram: str) -> int:
        i = bisect.bisect_left(self._keys, gram)
        if i < len(self._keys) and self._keys[i] == gram:
            return int(self._counts[i])
        return 0

    def _prefix_range(self, prefix: str) -> tuple[int, int]:
        lo = bisect.bisect_left(self._keys, prefix)
        succ = prefix_successor(prefix)
        hi = (bisect.bisect_left(self._keys, succ)
              if succ is not None else len(self._keys))
        return lo, hi

    def _query_shingles(self, key: str) -> tuple[list, int]:
        """ShingleFilter view of the typed key: hole-filled token sequence
        plus trailing fillers (the filter emits partially-filled trailing
        shingles but never only-hole ones), and the ending posIncrement."""
        import dataclasses

        codes, vocab, _d, positions, _l = \
            self.analyzer.tokenize_batch_encoded([key])
        toks = [vocab[c] for c in codes]
        if any(self.sep in t for t in toks):
            raise ValueError("key must not contain the separator")
        if not toks:
            raise ValueError("no tokens produced by analyzer")
        seq: list[str] = []
        for t, p in zip(toks, positions.tolist()):
            while len(seq) < p:
                seq.append(self.FILLER)
            seq.append(t)
        # trailing holes: positions consumed by a stop-less twin beyond the
        # last kept position (the '\x00' stopset keeps post_init defaults
        # off). The twin is a pure function of self.analyzer — build once.
        raw = getattr(self, "_raw_twin", None)
        if raw is None:
            raw = self._raw_twin = dataclasses.replace(
                self.analyzer, stop_words=frozenset({"\x00"}))
        _c2, _v2, _d2, pos2, _l2 = raw.tokenize_batch_encoded([key])
        raw_len = int(pos2[-1]) + 1 if len(pos2) else 0
        end_pos_inc = max(0, raw_len - len(seq))
        return seq + [self.FILLER] * end_pos_inc, end_pos_inc

    def lookup(self, key: str, num: int = 10) -> list[tuple[str, float]]:
        """→ [(ngram text, score)] — score in [0, 1], the reference's
        value / Long.MAX_VALUE."""
        if self._keys is None:
            raise RuntimeError("lookup before build")
        eff, end_pos_inc = self._query_shingles(key)
        last_ended = end_pos_inc > 0 or (len(key) > 0 and key[-1].isspace())
        last_tokens: list[str | None] = [None] * self.grams
        for g in range(1, self.grams + 1):
            if len(eff) < g:
                continue
            window = eff[-g:]
            if all(w == self.FILLER for w in window):
                continue  # ShingleFilter emits no only-hole tokens
            last_tokens[g - 1] = self.sep.join(window)
        if last_ended:
            for i in range(self.grams - 1, 0, -1):
                if last_tokens[i - 1] is not None:
                    last_tokens[i] = last_tokens[i - 1] + self.sep
            last_tokens[0] = ""

        backoff = 1.0
        seen: set[str] = set()
        results: list[tuple[str, float]] = []
        for gram in range(self.grams - 1, -1, -1):
            token = last_tokens[gram]
            if token is None or (token == "" and len(key) > 0):
                continue
            if end_pos_inc > 0 and gram <= end_pos_inc:
                break  # only-hole predictions from here down
            lo, hi = self._prefix_range(token)
            if hi <= lo:
                backoff *= self.ALPHA
                continue
            # context = the token minus its last fragment
            cut = token.rfind(self.sep)
            if cut >= 0:
                context_count = self._gram_count(token[:cut])
            else:
                context_count = self.tot_tokens
            # completions: same-model grams only (no separator beyond token)
            cand = []
            for i in range(lo, hi):
                full = str(self._keys[i])
                if self.sep in full[len(token):]:
                    continue
                cand.append((-int(self._counts[i]), full))
            cand.sort()
            added = 0
            for negn, full in cand:
                if added >= num:
                    break
                last = full[full.rfind(self.sep) + 1:]
                if last in seen:
                    continue
                seen.add(last)
                score = backoff * (-negn) / max(context_count, 1)
                results.append((full, score))
                added += 1
            backoff *= self.ALPHA
        results.sort(key=lambda r: (-r[1], r[0]))
        return results[:num]


# ------------------------------------------------ dictionary suggesters
# Suggestions drawn from an index's own term dictionary, through a searcher.


def _prefix_table(searcher, prefix: str):
    """Arrow ``(term, ttf)`` table of every dictionary term starting with
    ``prefix``, one row per term: from the global term statistics when they
    are loaded eagerly, else each segment's slice, summed per term."""
    import pyarrow as pa

    g = searcher.global_term_stats
    if g is not None and g.eager:
        lo, hi = g.term_dict.range(prefix)
        return pa.table({"term": g.term_dict.arr.slice(lo, hi - lo), "ttf": g.total_tf[lo:hi]})
    parts = []
    for r in searcher.readers:
        lo, hi = r.term_range(prefix)
        parts.append(pa.table({"term": r._terms_arr.slice(lo, hi - lo), "ttf": r.total_tf[lo:hi]}))
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return pa.table({"term": pa.array([], pa.string()), "ttf": pa.array([], pa.int64())})
    t = pa.concat_tables(parts, promote_options="permissive")
    t = t.group_by("term").aggregate([("ttf", "sum")])
    return pa.table({"term": t["term"], "ttf": t["ttf_sum"]})


def _prefix_pool(searcher, prefix: str) -> list[tuple[str, int]]:
    """``(term, total term frequency)`` of every dictionary term starting
    with ``prefix``."""
    t = _prefix_table(searcher, prefix)
    return list(zip(t["term"].to_pylist(), t["ttf"].to_pylist()))


def suggest_terms(searcher, prefix: str, k: int = 5) -> list[tuple[str, int]]:
    """Prefix autocomplete (suggest/.../AnalyzingSuggester analogue with
    weight = total term frequency): top-k dictionary terms with the
    prefix, ordered by (ttf desc, term asc). Selected in Arrow (UTF-8 byte
    order is code point order), so only the k answers become Python."""
    import pyarrow.compute as pc

    if k < 1:
        return []
    t = _prefix_table(searcher, prefix)
    order = [("ttf", "descending"), ("term", "ascending")]
    if len(t) > k:
        t = t.take(pc.select_k_unstable(t, k, sort_keys=order))
    t = t.sort_by(order)
    return list(zip(t["term"].to_pylist(), t["ttf"].to_pylist()))


def _prefix_edit_distance(typed: str, term: str, max_edits: int) -> int:
    """min over term prefixes of ED(typed, term[:j]) if <= max_edits else -1
    — the Levenshtein-automaton prefix acceptance of FuzzySuggester."""
    if term.startswith(typed):
        return 0
    n = len(typed)
    prev = list(range(n + 1))
    best = -1
    limit = min(len(term), n + max_edits)
    for j in range(1, limit + 1):
        c = term[j - 1]
        cur = [j] + [0] * n
        row_min = j
        for i in range(1, n + 1):
            cur[i] = min(
                prev[i] + 1,
                cur[i - 1] + 1,
                prev[i - 1] + (typed[i - 1] != c),
            )
            row_min = min(row_min, cur[i])
        if cur[n] <= max_edits and (best < 0 or cur[n] < best):
            best = cur[n]
        if row_min > max_edits and (best < 0):
            return best
        prev = cur
    return best


def fuzzy_suggest_terms(
    searcher,
    prefix: str,
    k: int = 5,
    *,
    max_edits: int = 1,
    non_fuzzy_prefix: int = 1,
    min_fuzzy_length: int = 3,
) -> list[tuple[str, int]]:
    """Typo-tolerant autocomplete (suggest/.../analyzing/FuzzySuggester
    .java defaults: maxEdits=1 after an exact 1-char prefix, fuzziness
    only for inputs >= 3 chars): dictionary terms whose PREFIX is within
    ``max_edits`` of the typed prefix, weighted by total term frequency,
    ranked (edits asc, ttf desc, term asc) so exact-prefix completions
    beat fuzzy ones like the reference's automaton weights."""
    if len(prefix) < min_fuzzy_length or max_edits == 0:
        return suggest_terms(searcher, prefix, k)
    cand = []
    for term, w in _prefix_pool(searcher, prefix[:non_fuzzy_prefix]):
        ed = _prefix_edit_distance(prefix, term, max_edits)
        if ed >= 0:
            cand.append((ed, -w, term))
    cand.sort()
    return [(t, -nw) for _, nw, t in cand[:k]]


def spell_suggest(searcher, term: str, k: int = 3, max_edits: int = 2) -> list[str]:
    """Did-you-mean (suggest/spell/DirectSpellChecker analogue): dictionary
    terms within ``max_edits``, ranked by (edits asc, docFreq desc, term).

    Candidate pruning is the EXACT multiset q-gram bound (admissible — the
    n-gram stand-in for DirectSpellChecker's FuzzyTermsEnum automaton):
    ed(q,t) ≤ e implies the MULTISET bigram overlap ≥ max(|q|,|t|) − 1 −
    2e, so only terms violating that bound are skipped; terms whose bound
    is ≤ 0 are always examined (the bound can't prune them). Verified
    equal to the full scan by property test."""
    from lucene_ray.searcher import _bounded_edit_distance

    fp = searcher._fp(None)
    seen: dict[str, int] = {}
    q_big: dict[str, int] = {}
    for i in range(len(term) - 1):
        g = term[i : i + 2]
        q_big[g] = q_big.get(g, 0) + 1
    lq = len(term)
    for r in searcher.readers:
        lo, bg_index, lens = r.spell_bigrams(fp)
        counts = np.zeros(len(lens), dtype=np.int64)
        for g, qc in q_big.items():
            hit = bg_index.get(g)
            if hit is not None:
                ids, tcs = hit
                counts[ids] += np.minimum(tcs, qc)
        need = np.maximum(0, np.maximum(lq, lens) - 1 - 2 * max_edits)
        for i in np.flatnonzero(counts >= need).tolist():
            t = r.term_at(lo + i)[len(fp):]
            if t == term or t in seen:
                continue
            ed = _bounded_edit_distance(term, t, max_edits)
            if ed > 0:
                seen[t] = ed
    ranked = sorted(
        seen.items(),
        key=lambda kv: (kv[1], -searcher.term_statistics(fp + kv[0]).doc_freq, kv[0]),
    )
    return [t for t, _ in ranked[:k]]


def more_like_this(searcher, doc_key, *, max_query_terms: int = 10,
                   min_tf: int = 1, k: int = 10, text: str | None = None,
                   analyzer=None):
    """MoreLikeThis (queries/.../mlt/MoreLikeThis.java semantics): pick
    the doc's top terms by tf·idf, search them as a SHOULD query with the
    source doc excluded. Returns the searcher's TopDocs.

    ``text`` — the document's stored text, when the caller has it (the
    row store is the source parquet): the reference's
    ``MoreLikeThis.like(Reader)`` path, which re-analyzes the text
    instead of probing every dictionary term's postings. Without it the
    dictionary-scan fallback runs (fine for bounded vocabularies)."""
    from lucene_ray.query import BooleanQuery, TermQuery
    from lucene_ray.searcher import TopDocs

    fp = searcher._fp(None)
    tf: dict[str, int] = {}
    if text is not None:
        an = analyzer or searcher.query_analyzer()
        codes, vocab, _di, _pos, _dl = an.tokenize_batch_encoded([text])
        cnt = np.bincount(codes, minlength=len(vocab))
        tf = {str(vocab[i]): int(cnt[i]) for i in range(len(vocab)) if cnt[i]}
    for r in searcher.readers if text is None else ():
        pos = np.flatnonzero(r.doc_keys == doc_key)
        if not len(pos):
            continue
        local = int(pos[0])
        if getattr(r, "has_term_vectors", False):
            # stored term vectors (Lucene90TermVectorsFormat path): the
            # doc's terms come straight from the doc-major side file —
            # no re-analysis, no O(dictionary) postings probe
            terms_v, freqs_v = r.term_vector(local)
            for t, f in zip(terms_v, freqs_v.tolist()):
                if not fp or t.startswith(fp):
                    t = t[len(fp):]
                    tf[t] = tf.get(t, 0) + int(f)
            continue
        lo, hi = r.term_range(fp)
        for i, t in enumerate(r._terms_arr.slice(lo, hi - lo).to_pylist(), lo):
            docs, freqs = r.postings(i)
            j = np.searchsorted(docs, local)
            if j < len(docs) and docs[j] == local:
                t = t[len(fp):]
                tf[t] = tf.get(t, 0) + int(freqs[j])
    scored = []
    cstats = searcher._field_cstats(None)
    for t, f in tf.items():
        if f < min_tf:
            continue
        ts = searcher.term_statistics(fp + t)
        idf = float(np.log(1 + (cstats.doc_count - ts.doc_freq + 0.5)
                           / (ts.doc_freq + 0.5)))
        scored.append((-(f * idf), t))
    scored.sort()
    terms = [t for _, t in scored[:max_query_terms]]
    if not terms:
        return TopDocs(0, [])
    td = searcher.search(BooleanQuery(should=[TermQuery(t) for t in terms]), k=k + 1)
    td.score_docs = [sd for sd in td.score_docs if sd.doc_key != doc_key][:k]
    return td
