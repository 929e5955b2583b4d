"""IndexSearcher — query execution over manifest + segments.

The driver-side / in-actor search engine: loads the manifest's segments once
(search/IndexSearcher.java's DirectoryReader analogue), computes global
collection + term statistics by summing per-segment partials exactly like the
reference sums per-leaf stats (IndexSearcher.java:919-934, index/TermStates.
java), then scores each segment independently and merges per-segment top-k
with the (score desc, doc_key asc) comparator — the distributed analogue of
TopDocs.merge (search/TopDocs.java:202-227).

Physical plans (Boolean2ScorerSupplier.java:30-247 analogue):

* ``exhaustive`` — vectorized term-at-a-time over numpy arrays: decode each
  term's postings once, combine with sorted-array union/intersection kernels
  (ConjunctionDISI / DisjunctionSumScorer equivalents). Exact.
* ``wand`` — block-max pruned evaluation for term queries and pure
  disjunctions: per-128-doc-block score upper bounds from the skip metadata
  (ImpactsDISI.java:32-79 / MaxScoreCache.java:34-109 / WANDScorer.java
  equivalents), intervals processed in descending upper-bound order, stopping
  when the bound drops below the current k-th score. Exact — verified
  pruned == exhaustive by tests (the reference's TestWANDScorer property).

Scoring modes:

* ``lucene`` — float32 BM25 over SmallFloat norm bytes (rank-identical to
  the reference, similarity.BM25Similarity);
* ``exact`` — float64 BM25 over exact lengths (SQL-oracle-compatible,
  similarity.BM25ExactSimilarity).

Ties: Lucene breaks equal scores by docID (= indexing order); our
deterministic global order is the document key, so every sort here uses
(score desc, doc_key asc) — reproducible at any parallelism level.
"""

from __future__ import annotations

import contextlib
import heapq
from dataclasses import dataclass

import numpy as np

from lucene_ray.cache import LRUCache
from lucene_ray.functions.similarity import (
    BM25ExactSimilarity,
    BM25Similarity,
    CollectionStatistics,
    TermStatistics,
)
from lucene_ray.query import (
    BooleanQuery,
    BoostQuery,
    CombinedFieldQuery,
    ConstantScoreQuery,
    CoveringQuery,
    DisjunctionMaxQuery,
    DocValuesTermQuery,
    FunctionScoreQuery,
    FuzzyQuery,
    GeoDistanceQuery,
    GeoPolygonQuery,
    PointNDRangeQuery,
    SortedSetContainsQuery,
    IntervalQuery,
    JoinQuery,
    MatchAllDocsQuery,
    ComplexPhraseQuery,
    MatchNoDocsQuery,
    MultiPhraseQuery,
    NumericRangeQuery,
    PayloadScoreQuery,
    PhraseQuery,
    PointBoxQuery,
    PrefixQuery,
    Query,
    RegexpQuery,
    SynonymQuery,
    TermInSetQuery,
    TermQuery,
    SpanNearQuery,
    SpanNotQuery,
    SpanPositionRangeQuery,
    TermRangeQuery,
    ToChildBlockJoinQuery,
    ToParentBlockJoinQuery,
    WildcardQuery,
    parse_query,
)
from lucene_ray.query import extract_terms
from lucene_ray.state.manifest import Manifest
from lucene_ray.state.segment import POS_BITS, POS_SHIFT, SegmentReader

# entry bounds of the caches the searcher owns: what depends on its
# statistics or config. Per-reader bounds scale with the searcher's readers.
TERM_STATS_RANGE_CACHE_ENTRIES = 8  # lazily loaded term-stats range files
TERM_SCORE_CACHE_ENTRIES = 128  # per reader: (docs, BM25 scores) of a term
FILTER_CACHE_ENTRIES = 64  # per reader: matching docs of a filter clause
JOIN_CACHE_ENTRIES = 16  # from-side (value -> score) tables of joins
EXPANSION_CACHE_ENTRIES = 4096  # complex-phrase and span slot expansions


@dataclass
class ScoreDoc:
    doc_key: object
    score: float

    def sort_key(self):
        return (-self.score, self.doc_key)


@dataclass
class TopDocs:
    total_hits: int
    score_docs: list  # of ScoreDoc, sorted (score desc, doc_key asc)


def _merge_top(parts: list[list[ScoreDoc]], k: int, after: tuple | None = None) -> list[ScoreDoc]:
    """k-way merge of per-segment top lists (TopDocs.merge analogue)."""
    allsd = [sd for p in parts for sd in p]
    if after is not None:
        a_score, a_key = after
        allsd = [sd for sd in allsd if (-sd.score, sd.doc_key) > (-a_score, a_key)]
    return heapq.nsmallest(k, allsd, key=ScoreDoc.sort_key)


def _wildcard_literal_prefix(pattern: str) -> str:
    """Longest literal prefix of a wildcard pattern (before the first
    ``*``/``?``) — the CompiledAutomaton common-prefix analogue
    (util/automaton/CompiledAutomaton.java) that bounds the dictionary scan
    to one ``term_range`` instead of the whole dictionary."""
    out, i = [], 0
    while i < len(pattern):
        c = pattern[i]
        if c == "\\" and i + 1 < len(pattern):
            out.append(pattern[i + 1]); i += 2
        elif c in "*?":
            break
        else:
            out.append(c); i += 1
    return "".join(out)


_REGEX_META = set("\\^$.|?*+()[]{}")


def _regex_literal_prefix(pattern: str) -> str:
    """Longest literal prefix of an (anchored) regexp — chars up to the
    first metacharacter; a trailing char modified by ``* + ? {`` is not
    literal, so it is dropped from the prefix. A TOP-LEVEL alternation
    makes the whole prefix optional (``foo|bar`` matches terms outside the
    ``foo`` range), so the scan must stay unbounded in that case."""
    depth = 0
    esc = False
    in_class = False
    for c in pattern:
        if esc:
            esc = False
            continue
        if c == "\\":
            esc = True
        elif in_class:
            in_class = c != "]"
        elif c == "[":
            in_class = True
        elif c == "(":
            depth += 1
        elif c == ")":
            depth = max(0, depth - 1)
        elif c == "|" and depth == 0:
            return ""
    out = []
    for c in pattern:
        if c in _REGEX_META:
            if c in "*+?{" and out:
                out.pop()
            break
        out.append(c)
    return "".join(out)


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


def _bounded_edit_distance(a: str, b: str, max_edits: int) -> int:
    """Levenshtein distance if ≤ max_edits else -1 (banded DP, early exit)."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > max_edits:
        return -1
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        row_min = i
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cost = 0 if ca == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            row_min = min(row_min, cur[j])
        if row_min > max_edits:
            return -1
        prev = cur
    return prev[lb] if prev[lb] <= max_edits else -1


def _intersect_sorted(a: np.ndarray, b: np.ndarray):
    """Intersection of two SORTED unique arrays without the O((m+n)log(m+n))
    concat-sort that np.intersect1d pays: binary-search the smaller side into
    the larger. Returns (common, idx_a, idx_b)."""
    if not len(a) or not len(b):
        e = np.empty(0, dtype=a.dtype)
        ei = np.empty(0, dtype=np.int64)
        return e, ei, ei
    swapped = len(a) > len(b)
    if swapped:
        a, b = b, a
    pos = np.searchsorted(b, a)
    pos_c = np.minimum(pos, len(b) - 1)
    mask = b[pos_c] == a
    ia = np.flatnonzero(mask)
    ib = pos_c[mask]
    common = a[ia]
    if swapped:
        return common, ib, ia
    return common, ia, ib


class _SparseScores:
    """(sorted docIDs, scores, match_counts) triple — the per-segment IR."""

    __slots__ = ("docs", "scores", "counts")

    def __init__(self, docs, scores, counts=None):
        self.docs = docs
        self.scores = scores
        self.counts = counts if counts is not None else np.ones(len(docs), dtype=np.int32)


class _QueryTerms:
    """The terms one query has resolved (the TermStates analogue, built once
    at Weight creation in the reference): global statistics by dictionary
    key, and scorers by (key, boost, field). Lives for one query, so it is
    bounded by the query's own terms."""

    __slots__ = ("stats", "scorers")

    def __init__(self):
        self.stats: dict[str, TermStatistics] = {}
        self.scorers: dict[tuple, object] = {}


class GlobalTermStats:
    """The materialized global term dictionary (index-time groupby(term).sum
    over per-segment partials — pipelines/index_pipeline.build_term_stats).
    Sorted arrays + binary search; every searcher actor loads it once so all
    actors score with identical statistics."""

    LAZY_FILE_THRESHOLD = 4  # dirs with more range files load lazily

    def __init__(self, path: str):
        import glob as _glob
        import os as _os

        import pyarrow.parquet as pq

        # path is a single parquet file (small dictionaries) or a DIRECTORY
        # of term-range files written distributed by build_term_stats.
        # Small layouts load eagerly (sorted arrays); a large range-file
        # directory loads LAZILY — per-file (min, max) term bounds index the
        # files, a lookup touches ONE range file, files cache in a bounded
        # LRU. At a 10⁸–10⁹-term web vocabulary the eager load would put
        # the whole dictionary in every searcher actor's heap; lazy keeps a
        # searcher's footprint at (hot ranges × file size).
        self.eager = True
        files = (sorted(_glob.glob(_os.path.join(path, "*.parquet")))
                 if _os.path.isdir(path) else [path])
        if len(files) > self.LAZY_FILE_THRESHOLD:
            self.eager = False
            bounds = []
            for f in files:
                pf = pq.ParquetFile(f)
                md = pf.metadata
                if md.num_rows == 0:
                    continue
                # exact first/last term: read the term column's first and
                # last row groups only (footer string stats can be
                # truncated, so don't trust them for range boundaries)
                first = pf.read_row_group(0, columns=["term"]).column("term")[0].as_py()
                last_rg = pf.read_row_group(md.num_row_groups - 1,
                                            columns=["term"]).column("term")
                bounds.append((first, last_rg[len(last_rg) - 1].as_py(), f))
            bounds.sort()
            self._file_min = [b[0] for b in bounds]
            self._file_max = [b[1] for b in bounds]
            self._files = [b[2] for b in bounds]
            # file -> (terms, df, ttf)
            self._range_cache = LRUCache(TERM_STATS_RANGE_CACHE_ENTRIES)
            return
        t = pq.read_table(path)
        self.terms = np.asarray(t.column("term").to_pylist(), dtype=object)
        self.doc_freq = t.column("doc_freq").to_numpy()
        self.total_tf = t.column("total_tf").to_numpy()
        # concatenation order across range files is not guaranteed — re-sort
        # when needed (no-op for the single-file layout, written sorted)
        if len(self.terms) > 1 and not np.all(self.terms[:-1] <= self.terms[1:]):
            order = np.argsort(self.terms)
            self.terms = self.terms[order]
            self.doc_freq = self.doc_freq[order]
            self.total_tf = self.total_tf[order]

    def _range_arrays(self, f: str):
        return self._range_cache.get_or_put(f, lambda: self._read_range(f))

    @staticmethod
    def _read_range(f: str):
        import pyarrow.parquet as pq

        t = pq.read_table(f)
        terms = np.asarray(t.column("term").to_pylist(), dtype=object)
        df = t.column("doc_freq").to_numpy()
        ttf = t.column("total_tf").to_numpy()
        if len(terms) > 1 and not np.all(terms[:-1] <= terms[1:]):
            order = np.argsort(terms)
            terms, df, ttf = terms[order], df[order], ttf[order]
        return terms, df, ttf

    def lookup(self, term: str) -> tuple[int, int]:
        if not self.eager:
            import bisect

            j = bisect.bisect_right(self._file_min, term) - 1
            if j < 0:
                return 0, 0
            if term > self._file_max[j]:
                # falls in the gap between range files — a definite miss;
                # don't read (and LRU-pollute with) a file that can't hold it
                return 0, 0
            terms, df, ttf = self._range_arrays(self._files[j])
            i = int(np.searchsorted(terms, term))
            if i < len(terms) and terms[i] == term:
                return int(df[i]), int(ttf[i])
            return 0, 0
        i = np.searchsorted(self.terms, term)
        if i < len(self.terms) and self.terms[i] == term:
            return int(self.doc_freq[i]), int(self.total_tf[i])
        return 0, 0


class IndexSearcher:
    def __init__(self, index_dir: str, *, mode: str = "lucene", segment_names=None,
                 similarity=None):
        """``similarity`` plugs in a non-BM25 scorer (ClassicSimilarity,
        LMDirichletSimilarity, BooleanSimilarity, or any object with the same
        ``scorer(cstats, tstats, boost)`` contract) — the
        IndexSearcher.setSimilarity analogue. Plugged similarities score over
        exact document lengths (the ``exact`` path), so they are
        SQL-mirrorable like BM25ExactSimilarity."""
        import os

        self.index_dir = index_dir
        manifest = Manifest.load(index_dir)
        self.manifest = manifest
        dirs = manifest.segment_dirs()
        if segment_names is not None:
            keep = set(segment_names)
            dirs = [d for d in dirs if d.rsplit("/", 1)[-1] in keep]
        self.readers = [SegmentReader(d) for d in dirs]
        # attach generational live-docs bitsets (deletes are search-time
        # filters; statistics keep counting deleted docs until merge — the
        # reference's semantics, see state/deletes.py)
        by_name = {s["name"]: s for s in manifest.segments}
        for r in self.readers:
            entry = by_name.get(r.name, {})
            del_gen = entry.get("del_gen", 0)
            if del_gen:
                from lucene_ray.state.deletes import load_livedocs

                r.live = load_livedocs(r.dir, del_gen)
            # overlay updated doc-values generations (docValuesGen analogue)
            for field, dv_gen in (entry.get("dv_gens") or {}).items():
                import pyarrow.parquet as _pq

                t = _pq.read_table(
                    os.path.join(r.dir, f"dv-{field}-{dv_gen}.parquet")
                )
                r.doc_values[field] = t.column(field).to_numpy(zero_copy_only=False)
            # soft deletes (SoftDeletesDirectoryReaderWrapper.java:38):
            # docs whose soft-deletes DV is set are hidden exactly like
            # hard deletes — statistics keep counting them until a merge's
            # retention policy reclaims them
            sf = (manifest.config or {}).get("soft_deletes_field")
            if sf and sf in r.doc_values:
                soft = np.asarray(r.doc_values[sf]) != 0
                if soft.any():
                    base = r.live if r.live is not None else np.ones(
                        len(soft), dtype=bool)
                    r.live = base & ~soft
        ts_path = os.path.join(index_dir, f"term_stats-{manifest.gen}.parquet")
        self.global_term_stats = GlobalTermStats(ts_path) if os.path.exists(ts_path) else None
        self.collection_stats = manifest.collection_stats()
        self._configure(manifest.config, mode, similarity)

    @classmethod
    def from_readers(cls, readers, *, mode: str = "exact", config: dict | None = None,
                     similarity=None):
        """Searcher over in-RAM readers (the MemoryIndex / percolator path):
        no manifest, no disk; collection + term statistics are the sums of
        the readers' per-segment partials (exactly what a committed manifest
        would hold). ``config`` takes the manifest config keys
        (``analyzer``, ``text_col``, ``text_cols``)."""
        s = cls.__new__(cls)
        s.index_dir = None
        s.manifest = None
        s.readers = list(readers)
        s.global_term_stats = None
        s.collection_stats = CollectionStatistics(
            max_doc=sum(r.meta["max_doc"] for r in s.readers),
            doc_count=sum(r.meta["doc_count"] for r in s.readers),
            sum_doc_freq=sum(r.meta["sum_doc_freq"] for r in s.readers),
            sum_total_term_freq=sum(r.meta["sum_total_term_freq"] for r in s.readers),
        )
        s._configure(config, mode, similarity)
        return s

    def _configure(self, config: dict | None, mode: str, similarity) -> None:
        """Field, analyzer, similarity and telemetry setup, from the
        manifest config or the config given to ``from_readers``."""
        cfg = config or {}
        # multi-field config (per-field postings keyed field\x1fterm)
        self.fields = tuple(cfg.get("text_cols") or ())
        self.default_field = cfg.get("text_col", "text")
        self._multi = len(self.fields) > 1
        self._analyzer_spec = cfg.get("analyzer", "standard")
        # per-field CollectionStatistics (each field has its own avgdl —
        # FieldInvertState is per field in the reference), summed over every
        # segment of the index like collection_stats, so a searcher over a
        # subset of the segments still scores with the global statistics
        metas = (self.manifest.segments if self.manifest is not None
                 else [r.meta for r in self.readers])
        sums: dict[str, list[int]] = {}
        for seg in metas:
            for f, fs in (seg.get("field_stats") or {}).items():
                acc = sums.setdefault(f, [0, 0, 0, 0])
                acc[0] += fs["max_doc"]
                acc[1] += fs["doc_count"]
                acc[2] += fs["sum_doc_freq"]
                acc[3] += fs["sum_total_term_freq"]
        self._field_stats = {f: CollectionStatistics(*v) for f, v in sums.items()}
        n = max(1, len(self.readers))
        self._term_scores = LRUCache(TERM_SCORE_CACHE_ENTRIES * n)
        self._filters = LRUCache(FILTER_CACHE_ENTRIES * n)
        self._joins = LRUCache(JOIN_CACHE_ENTRIES)
        self._expansions = LRUCache(EXPANSION_CACHE_ENTRIES)
        self.mode = mode if similarity is None else "exact"
        if similarity is not None:
            self.sim = similarity
        else:
            self.sim = BM25Similarity() if mode == "lucene" else BM25ExactSimilarity()
        self._query_terms: _QueryTerms | None = None
        # cumulative pruning telemetry (range pruning / sorted-index early
        # termination); read the delta around a call to measure
        self.range_stats = {"docs_examined": 0, "max_doc_total": 0}
        self.sort_stats = {"docs_examined": 0, "docs_matched": 0}
        # MultiTermQuery dictionary-pruning telemetry: terms actually
        # VERIFIED (regex/DP) vs the full dictionary a naive scan would walk
        self.mtq_stats = {"terms_scanned": 0, "terms_total": 0}

    # ---------------------------------------------------------------- fields

    def _fp(self, field: str | None) -> str:
        """Dictionary key prefix for a field ('' on single-field indexes)."""
        if not self._multi:
            return ""
        from lucene_ray.state.segment import FIELD_SEP

        return (field or self.default_field) + FIELD_SEP

    def _field_cstats(self, field: str | None):
        """CollectionStatistics of ``field`` (of the whole index when it is
        single-field)."""
        if not self._multi:
            return self.collection_stats
        f = field or self.default_field
        return self._field_stats.get(f) or CollectionStatistics(0, 0, 0, 0)

    def _field_norms(self, r: SegmentReader, field: str | None):
        if self._multi:
            f = field or self.default_field
            return r.norms_by_field[f], r.dls_by_field[f]
        return r.norms, r.dls

    # ---------------------------------------------------------------- stats

    @contextlib.contextmanager
    def _query_scope(self):
        """Resolve each term of the query run inside at most once: global
        statistics and scorers are memoized until the outermost scope ends."""
        if self._query_terms is not None:  # nested: the outer query's scope
            yield
            return
        self._query_terms = _QueryTerms()
        try:
            yield
        finally:
            self._query_terms = None

    def term_statistics(self, term: str) -> TermStatistics:
        memo = self._query_terms
        if memo is not None:
            hit = memo.stats.get(term)
            if hit is not None:
                return hit
        if self.global_term_stats is not None:
            df, ttf = self.global_term_stats.lookup(term)
        else:
            df = 0
            ttf = 0
            for r in self.readers:
                i = r.term_index(term)
                if i >= 0:
                    df += int(r.doc_freq[i])
                    ttf += int(r.total_tf[i])
        ts = TermStatistics(term, df, ttf)
        if memo is not None:
            memo.stats[term] = ts
        return ts

    def _term_scorer(self, term: str, boost: float = 1.0, field: str | None = None):
        """The scorer of one FULL dictionary key (field-prefixed when multi)
        from GLOBAL stats — fixed before any segment is scored, like
        TermQuery.createWeight (TermQuery.java:211); None for a term no
        document holds. Built once per query inside ``_query_scope``."""
        memo = self._query_terms
        key = (term, boost, field)
        if memo is not None and key in memo.scorers:
            return memo.scorers[key]
        ts = self.term_statistics(term)
        sc = self.sim.scorer(self._field_cstats(field), ts, boost=boost) if ts.doc_freq > 0 else None
        if memo is not None:
            memo.scorers[key] = sc
        return sc

    def _scorers_for(self, terms: list[str]) -> dict:
        """``_term_scorer`` of each term that some document holds."""
        return {t: sc for t in terms if (sc := self._term_scorer(t)) is not None}

    @staticmethod
    def _apply_live(r: SegmentReader, sp: _SparseScores) -> _SparseScores:
        """Filter deleted docs (live-docs bitset) — the acceptDocs analogue."""
        if r.live is None or not len(sp.docs):
            return sp
        keep = r.live[sp.docs]
        if keep.all():
            return sp
        return _SparseScores(sp.docs[keep], sp.scores[keep], sp.counts[keep])

    # ---------------------------------------------------------------- search

    def query_analyzer(self):
        """The analyzer queries against this index must normalize through
        (the index's own chain — QueryParser(analyzer) in the reference).
        Public accessor for CLI/pipeline callers that parse with their own
        syntax but still need index-consistent term normalization."""
        an = getattr(self, "_parse_analyzer", None)
        if an is None:
            from lucene_ray.functions.analysis import get_analyzer

            an = self._parse_analyzer = get_analyzer(self._analyzer_spec)
        return an

    def parse(self, s: str) -> Query:
        """Parse a classic-syntax query string AGAINST THIS INDEX: query
        terms run through the index's own analyzer normalize chain (so a
        stemmed/folded index meets stemmed/folded query terms —
        QueryParser(analyzer) in the reference) and numeric doc-values
        columns get NumericRangeQuery range syntax (the points-config
        analogue)."""
        an = self.query_analyzer()
        numeric = getattr(self, "_numeric_dv_fields", None)
        if numeric is None:
            numeric = set()
            for r in self.readers[:1]:
                for f, arr in r.doc_values.items():
                    if np.issubdtype(np.asarray(arr).dtype, np.number):
                        numeric.add(f)
            self._numeric_dv_fields = numeric
        return parse_query(s, normalize=an.normalize, numeric_fields=numeric)

    def search(
        self,
        query: Query | str,
        k: int = 10,
        *,
        algo: str = "auto",
        search_after: tuple | None = None,
    ) -> TopDocs:
        if isinstance(query, str):
            query = self.parse(query)
        with self._query_scope():
            use_wand = (
                search_after is None
                and self._wand_eligible(query)
                and (algo == "wand" or (algo == "auto" and self._wand_worthwhile(query)))
            )
            if use_wand:
                self.last_wand_stats = {"blocks_total": 0, "blocks_visited": 0,
                                        "intervals_total": 0, "intervals_visited": 0}
                scorers = self._scorers_for(sorted(extract_terms(query)))
            parts = []
            total = 0
            for r in self.readers:
                if use_wand:
                    sd, nhits = self._search_segment_wand(r, scorers, k, search_after)
                else:
                    sp = self._apply_live(r, self._eval(r, query))
                    sd = self._top_of(r, sp, k, search_after)
                    nhits = len(sp.docs)
                parts.append(sd)
                total += nhits
        return TopDocs(total, _merge_top(parts, k, search_after))

    def count(self, query: Query | str) -> int:
        if isinstance(query, str):
            query = self.parse(query)
        with self._query_scope():
            return sum(
                len(self._apply_live(r, self._eval(r, query)).docs) for r in self.readers
            )

    def rescore(self, topdocs: TopDocs, query: Query | str, *,
                weight: float = 1.0, k: int | None = None) -> TopDocs:
        """QueryRescorer (search/QueryRescorer.java:40): re-rank the top-k
        by ``first_pass_score + weight × rescore_query_score(doc)`` — the
        cheap-query-then-expensive-query pattern. Docs the rescore query
        does not match keep their first-pass score (combine(..., false)
        semantics).

        Cost note: the vectorized engine has no per-doc scorer advance, so
        the rescore query is evaluated ONCE per segment that holds a
        candidate (full postings eval, then filtered to the top-k keys) —
        unlike the reference's advance-to-hit scorers. That is fine for the
        intended shape (a heavier query over a k-sized candidate list whose
        eval cost is dominated by per-query setup); segments with no
        candidate docs are skipped entirely."""
        if isinstance(query, str):
            query = self.parse(query)
        k = k or len(topdocs.score_docs)
        keys = {sd.doc_key for sd in topdocs.score_docs}
        second: dict = {}
        for r in self.readers:
            if not np.isin(r.doc_keys, list(keys)).any():
                continue  # no candidates in this segment — skip the eval
            sp = self._apply_live(r, self._eval(r, query))
            for d, sc in zip(sp.docs.tolist(), sp.scores.tolist()):
                dk = r.doc_keys[d]
                if dk in keys:
                    second[dk] = second.get(dk, 0.0) + sc
        rescored = [
            ScoreDoc(sd.doc_key, sd.score + weight * second.get(sd.doc_key, 0.0))
            for sd in topdocs.score_docs
        ]
        rescored.sort(key=ScoreDoc.sort_key)
        return TopDocs(topdocs.total_hits, rescored[:k])

    def explain(self, query: Query | str, doc_key) -> dict:
        """Score breakdown for one document (IndexSearcher.explain /
        search/Explanation.java): a nested dict mirroring the query tree —
        ``{description, value, match, details: [...]}`` — with per-term
        leaves carrying (tf, doc_freq, total_term_freq, dl). Values are the
        live scorer's (same _eval path the search used), so
        ``explain(q, k)["value"]`` equals the hit's score."""
        if isinstance(query, str):
            query = self.parse(query)
        for r in self.readers:
            pos = np.flatnonzero(r.doc_keys == doc_key)
            if not len(pos):
                continue
            local = int(pos[0])
            if r.live is not None and not r.live[local]:
                continue
            return self._explain_node(r, query, local, 1.0)
        return {"description": f"no document {doc_key!r}", "value": 0.0,
                "match": False, "details": []}

    def _explain_node(self, r: SegmentReader, q: Query, doc: int,
                      boost: float) -> dict:
        def value_of(node: Query, b: float) -> float:
            sp = self._eval(r, node, b)
            i = int(np.searchsorted(sp.docs, doc))
            return float(sp.scores[i]) if i < len(sp.docs) and sp.docs[i] == doc else 0.0

        if isinstance(q, BoostQuery):
            inner = self._explain_node(r, q.query, doc, boost * q.boost)
            return {"description": f"boost({q.boost}) of", "value": inner["value"],
                    "match": inner["match"], "details": [inner]}
        if isinstance(q, BooleanQuery):
            details = []
            for tag, clauses in (("MUST", q.must), ("SHOULD", q.should),
                                 ("FILTER", q.filter), ("MUST_NOT", q.must_not)):
                for c in clauses:
                    sub = self._explain_node(r, c, doc, boost)
                    sub["clause"] = tag
                    details.append(sub)
            v = value_of(q, boost)
            return {"description": "sum of clauses", "value": v,
                    "match": v != 0.0 or any(
                        d["match"] and d["clause"] in ("MUST", "SHOULD")
                        for d in details),
                    "details": details}
        if isinstance(q, DisjunctionMaxQuery):
            details = [self._explain_node(r, d, doc, boost) for d in q.disjuncts]
            v = value_of(q, boost)
            return {"description": f"max plus {q.tie_breaker} times others",
                    "value": v, "match": any(d["match"] for d in details),
                    "details": details}
        if isinstance(q, TermQuery):
            fp = self._fp(q.field)
            ti = r.term_index(fp + q.term)
            tf = 0
            if ti >= 0:
                d_, f_ = r.postings(ti)
                j = int(np.searchsorted(d_, doc))
                if j < len(d_) and d_[j] == doc:
                    tf = int(f_[j])
            ts = self.term_statistics(fp + q.term)
            v = value_of(q, boost)
            return {"description": f"weight({q.term} in {doc})", "value": v,
                    "match": tf > 0,
                    "details": [
                        {"description": "tf", "value": float(tf), "match": tf > 0,
                         "details": []},
                        {"description": "doc_freq", "value": float(ts.doc_freq),
                         "match": True, "details": []},
                        {"description": "total_term_freq",
                         "value": float(ts.total_term_freq), "match": True,
                         "details": []},
                        {"description": "dl", "value": float(r.dls[doc]),
                         "match": True, "details": []},
                    ]}
        v = value_of(q, boost)
        return {"description": type(q).__name__, "value": v, "match": v != 0.0,
                "details": []}

    def _top_of(self, r: SegmentReader, sp: _SparseScores, k: int, after) -> list[ScoreDoc]:
        scores = sp.scores
        docs = sp.docs
        ranks = r.key_rank[docs]  # integer tie-break proxy for doc_key order
        if after is not None:
            # keyset pagination: keep entries strictly after the (score, key)
            # anchor BEFORE top-k selection (PagingTopScoreDocCollector,
            # TopScoreDocCollector.java:104-114)
            keys_all = r.doc_keys[docs]
            a_score, a_key = after
            m = (scores < a_score) | ((scores == a_score) & (keys_all > a_key))
            scores, docs, ranks = scores[m], docs[m], ranks[m]
        n = len(scores)
        if n == 0:
            return []
        if n > k * 4:
            # docs strictly above the k-th score all qualify; among the (often
            # large) tie group AT the k-th score only the smallest keys (==
            # smallest key ranks, integer argpartition) can qualify.
            kk = min(k, n)
            thresh = np.partition(scores, n - kk)[n - kk]
            gt = np.flatnonzero(scores > thresh)
            eq = np.flatnonzero(scores == thresh)
            need = k - len(gt)
            if need > 0 and len(eq) > need:
                eq = eq[np.argpartition(ranks[eq], need - 1)[:need]]
            cand = np.concatenate([gt, eq]) if need > 0 else gt
        else:
            cand = np.arange(n)
        order = np.lexsort((ranks[cand], -scores[cand]))[:k]
        sel = cand[order]
        keys = r.doc_keys[docs[sel]]
        return [ScoreDoc(keys[i], float(scores[sel[i]])) for i in range(len(sel))]

    def _wand_eligible(self, q: Query) -> bool:
        """Shape check: WAND applies to term queries and pure disjunctions
        (Boolean2ScorerSupplier.java:242-247 picks WANDScorer for TOP_SCORES
        disjunctions)."""
        if self._multi:
            return False
        if isinstance(q, TermQuery):
            return q.field is None
        return (
            isinstance(q, BooleanQuery)
            and not q.must
            and not q.must_not
            and not q.filter
            and q.minimum_should_match <= 1
            and all(isinstance(s, TermQuery) for s in q.should)
        )

    # below this many total postings the vectorized exhaustive kernel wins:
    # the Python-driven interval walk costs ~µs per interval, so pruning has
    # to save at least a few dozen 128-doc block decodes to pay for itself.
    WAND_AUTO_MIN_POSTINGS = 4096
    # above this per-term density (df / docCount), posting lists are so hot
    # that one vectorized whole-list pass beats any Python-driven skipping —
    # and the near-uniform block bounds of a dense term prune nothing anyway
    WAND_AUTO_MAX_DENSITY = 0.10

    def _wand_worthwhile(self, q: Query) -> bool:
        """``algo='auto'`` policy: WAND pays off for SELECTIVE terms over
        large posting volumes (block skipping saves decode + score work);
        dense terms (high df/docCount) have near-uniform block bounds, so
        skipping saves nothing and the numpy exhaustive kernel's one
        vectorized pass wins. Results are identical either way (tested) —
        this only chooses the faster physical plan."""
        terms = extract_terms(q)
        dfs = [self.term_statistics(t).doc_freq for t in terms]
        if sum(dfs) < self.WAND_AUTO_MIN_POSTINGS:
            return False
        dc = max(1, self.collection_stats.doc_count)
        return max(dfs) <= self.WAND_AUTO_MAX_DENSITY * dc

    # ------------------------------------------------------------ evaluation

    def _score_arrays(self, r: SegmentReader, scorer, docs: np.ndarray,
                      freqs: np.ndarray, field: str | None = None):
        norms, dls = self._field_norms(r, field)
        if self.mode == "lucene":
            return scorer.score(freqs, norms[docs])
        return scorer.score(freqs, dls[docs])

    def _eval(self, r: SegmentReader, q: Query, boost: float = 1.0) -> _SparseScores:
        empty = _SparseScores(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))
        if isinstance(q, TermQuery):
            if self._multi and q.field and q.field not in self.fields:
                return empty
            full = self._fp(q.field) + q.term
            ti = r.term_index(full)
            if ti < 0:
                return empty
            # per-(segment, term, boost) score cache: BM25 term scores are a
            # pure function of the searcher's (fixed) global stats + per-doc
            # norms, so a warm searcher serves repeated terms without
            # re-scoring
            ckey = (r, ti, float(boost))
            hit = self._term_scores.get(ckey)
            if hit is not None:
                return _SparseScores(hit[0], hit[1])
            scorer = self._term_scorer(full, boost, q.field)
            if scorer is None:
                return empty
            docs, freqs = r.postings(ti)
            if not len(docs):
                return empty
            scores = self._score_arrays(r, scorer, docs, freqs, q.field)
            self._term_scores.put(ckey, (docs, scores))
            return _SparseScores(docs, scores)
        if isinstance(q, PayloadScoreQuery):
            # queries/payloads/PayloadScoreQuery.java: per-doc aggregate of
            # the term's occurrence payloads (stream is doc-major, so one
            # ufunc.reduceat per segment), optionally × the term's own score
            full = self._fp(q.field) + q.term
            ti = r.term_index(full)
            if ti < 0:
                return empty
            docs, freqs = r.postings(ti)
            if not len(docs):
                return empty
            pays = r.payloads(ti)
            if len(pays) != int(freqs.sum()):
                raise ValueError(
                    "PayloadScoreQuery needs an index built with "
                    "store_payloads=True")
            starts = np.concatenate(
                [[0], np.cumsum(freqs[:-1], dtype=np.int64)])
            if q.func == "sum":
                agg = np.add.reduceat(pays.astype(np.float64), starts)
            elif q.func == "max":
                agg = np.maximum.reduceat(pays, starts).astype(np.float64)
            elif q.func == "min":
                agg = np.minimum.reduceat(pays, starts).astype(np.float64)
            elif q.func == "avg":
                agg = np.add.reduceat(pays.astype(np.float64), starts) / freqs
            else:
                raise ValueError(f"unknown payload function {q.func!r}")
            scores = agg * boost
            if q.include_span_score:
                sub = self._eval(r, TermQuery(q.term, q.field))
                scores = scores * sub.scores  # same doc order: one term
            return _SparseScores(docs, scores)
        if isinstance(q, BoostQuery):
            return self._eval(r, q.query, boost * q.boost)
        if isinstance(q, ConstantScoreQuery):
            sub = self._eval(r, q.query)
            return _SparseScores(sub.docs, np.full(len(sub.docs), q.score * boost))
        if isinstance(q, MatchAllDocsQuery):
            docs = np.arange(r.max_doc, dtype=np.int32)
            return _SparseScores(docs, np.full(r.max_doc, boost))
        if isinstance(q, MatchNoDocsQuery):
            return empty
        if isinstance(q, PrefixQuery):
            # MultiTermQuery CONSTANT_SCORE rewrite: matching docs score boost.
            lo, hi = r.term_range(self._fp(q.field) + q.prefix)
            docs = self._union_docs(r, range(lo, hi))
            return _SparseScores(docs, np.full(len(docs), boost))
        if isinstance(q, TermInSetQuery):
            fp = self._fp(q.field)
            idxs = [i for t in q.terms if (i := r.term_index(fp + t)) >= 0]
            docs = self._union_docs(r, idxs)
            return _SparseScores(docs, np.full(len(docs), boost))
        if isinstance(q, WildcardQuery):
            fp = self._fp(q.field)
            idxs = self._wildcard_idxs(r, fp, q.pattern)
            docs = self._union_docs(r, idxs)
            return _SparseScores(docs, np.full(len(docs), boost))
        if isinstance(q, RegexpQuery):
            fp = self._fp(q.field)
            idxs = self._regexp_idxs(r, fp, q.pattern)
            docs = self._union_docs(r, idxs)
            return _SparseScores(docs, np.full(len(docs), boost))
        if isinstance(q, TermRangeQuery):
            fp = self._fp(q.field)
            lo = 0 if q.lower is None else r.bisect(
                fp + q.lower, side="left" if q.include_lower else "right"
            )
            hi = r.n_terms if q.upper is None else r.bisect(
                fp + q.upper, side="right" if q.include_upper else "left"
            )
            if fp and q.upper is None:
                hi = r.term_range(fp)[1]
            if fp and q.lower is None:
                lo = r.term_range(fp)[0]
            docs = self._union_docs(r, range(lo, hi))
            return _SparseScores(docs, np.full(len(docs), boost))
        if isinstance(q, FunctionScoreQuery):
            sub = self._eval(r, q.query, boost)
            if not len(sub.docs):
                return sub
            dv = {name: arr[sub.docs] for name, arr in r.doc_values.items()}
            new_scores = np.asarray(q.fn(sub.scores, dv), dtype=np.float64)
            return _SparseScores(sub.docs, new_scores, sub.counts)
        if isinstance(q, DocValuesTermQuery):
            vals = r.doc_values[q.field]
            docs = np.flatnonzero(vals == q.value).astype(np.int32)
            return _SparseScores(docs, np.full(len(docs), boost))
        if isinstance(q, NumericRangeQuery):
            # BKD-style pruning: binary search the per-reader sorted column
            # (PointRangeQuery over Lucene90PointsFormat semantics) — only
            # the in-range docs are ever touched, not an O(maxDoc) mask
            sv, od = r.numeric_index(q.field)
            lo_i = 0 if q.lower is None else int(
                np.searchsorted(sv, q.lower, side="left" if q.include_lower else "right")
            )
            hi_i = len(sv) if q.upper is None else int(
                np.searchsorted(sv, q.upper, side="right" if q.include_upper else "left")
            )
            st = self.range_stats
            st["docs_examined"] += max(0, hi_i - lo_i)
            st["max_doc_total"] += r.max_doc
            if hi_i <= lo_i:
                return empty
            docs = np.sort(od[lo_i:hi_i])
            return _SparseScores(docs, np.full(len(docs), boost))
        if isinstance(q, ToParentBlockJoinQuery):
            return self._eval_block_join_parent(r, q, boost)
        if isinstance(q, ToChildBlockJoinQuery):
            return self._eval_block_join_child(r, q, boost)
        if isinstance(q, JoinQuery):
            return self._eval_join(r, q, boost)
        if isinstance(q, PointBoxQuery):
            kd = r.kd_index(q.field_x, q.field_y)
            docs, examined = kd.box(q.x0, q.x1, q.y0, q.y1)
            st = self.range_stats
            st["docs_examined"] += examined + len(docs)
            st["max_doc_total"] += r.max_doc
            return _SparseScores(docs, np.full(len(docs), boost))
        if isinstance(q, CoveringQuery):
            subs = [self._eval(r, sub, boost) for sub in q.queries]
            u = self._union(subs, r.max_doc)
            if not len(u.docs):
                return u
            mins = np.asarray(r.doc_values[q.min_match_field][u.docs], dtype=np.int64)
            keep = u.counts >= mins
            return _SparseScores(u.docs[keep], u.scores[keep], u.counts[keep])
        if isinstance(q, PointNDRangeQuery):
            kd = r.kd_index_nd(q.fields)
            docs, examined = kd.box(q.lows, q.highs)
            st = self.range_stats
            st["docs_examined"] += examined + len(docs)
            st["max_doc_total"] += r.max_doc
            return _SparseScores(docs, np.full(len(docs), boost))
        if isinstance(q, SortedSetContainsQuery):
            dv = getattr(r, "sorted_set_dv", {}).get(q.field)
            if dv is None:
                raise KeyError(
                    f"no SortedSet doc-values column {q.field!r} in segment "
                    f"{r.name}")
            offsets, codes, vocab = dv
            oi = int(np.searchsorted(vocab, q.value))
            if oi >= len(vocab) or vocab[oi] != q.value:
                return empty
            # positions of the matching ordinal → owning docs via the
            # offsets (one searchsorted; no per-doc loop)
            hits = np.flatnonzero(codes == oi)
            docs = np.unique(
                np.searchsorted(offsets, hits, side="right") - 1
            ).astype(np.int32)
            return _SparseScores(docs, np.full(len(docs), boost))
        if isinstance(q, GeoPolygonQuery):
            from lucene_ray.functions.points import (polygon_bounding_box,
                                                     polygon_contains)

            kd = r.kd_index(q.lat_field, q.lon_field)
            la0, la1, lo0, lo1 = polygon_bounding_box(q.rings)
            cand, examined = kd.box(la0, la1, lo0, lo1)
            st = self.range_stats
            st["docs_examined"] += examined + len(cand)
            st["max_doc_total"] += r.max_doc
            if not len(cand):
                return empty
            keep = polygon_contains(r.doc_values[q.lat_field][cand],
                                    r.doc_values[q.lon_field][cand], q.rings)
            docs = cand[keep]
            return _SparseScores(docs, np.full(len(docs), boost))
        if isinstance(q, GeoDistanceQuery):
            from lucene_ray.functions.points import distance_bounding_boxes, haversine_meters

            kd = r.kd_index(q.lat_field, q.lon_field)
            st = self.range_stats
            parts = []
            for lat0, lat1, lon0, lon1 in distance_bounding_boxes(q.lat, q.lon, q.radius_m):
                cand, examined = kd.box(lat0, lat1, lon0, lon1)
                st["docs_examined"] += examined + len(cand)
                if len(cand):
                    d = haversine_meters(
                        r.doc_values[q.lat_field][cand],
                        r.doc_values[q.lon_field][cand],
                        q.lat,
                        q.lon,
                    )
                    parts.append(cand[d <= q.radius_m])
            st["max_doc_total"] += r.max_doc
            docs = np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int32)
            return _SparseScores(docs, np.full(len(docs), boost))
        if isinstance(q, FuzzyQuery):
            return self._eval_fuzzy(r, q, boost)
        if isinstance(q, CombinedFieldQuery):
            return self._eval_combined_field(r, q, boost)
        if isinstance(q, SynonymQuery):
            return self._eval_synonym(r, q, boost)
        if isinstance(q, (PhraseQuery, MultiPhraseQuery)):
            return self._eval_multi_phrase(r, q, boost)
        if isinstance(q, ComplexPhraseQuery):
            return self._eval_complex_phrase(r, q, boost)
        if isinstance(q, (SpanNearQuery, SpanPositionRangeQuery, SpanNotQuery)):
            return self._eval_span(r, q, boost)
        if isinstance(q, IntervalQuery):
            return self._eval_interval(r, q, boost)
        if isinstance(q, DisjunctionMaxQuery):
            subs = [self._eval(r, d, boost) for d in q.disjuncts]
            return self._dismax(subs, q.tie_breaker)
        if isinstance(q, BooleanQuery):
            return self._eval_bool(r, q, boost)
        raise TypeError(f"unsupported query {q!r}")

    @staticmethod
    def _union_docs(r: SegmentReader, term_indices) -> np.ndarray:
        arrs = [r.postings(int(i))[0] for i in term_indices]
        arrs = [a for a in arrs if len(a)]
        if not arrs:
            return np.empty(0, dtype=np.int32)
        total = sum(len(a) for a in arrs)
        if total * 4 > r.max_doc:
            # dense path: O(max_doc) bitmap beats O(n log n) sort-unique for
            # fat unions (prefix/wildcard expansions over dense terms)
            mask = np.zeros(r.max_doc, dtype=bool)
            for a in arrs:
                mask[a] = True
            return np.flatnonzero(mask).astype(np.int32)
        return np.unique(np.concatenate(arrs))

    @staticmethod
    def _union(subs: list[_SparseScores], max_doc: int | None = None) -> _SparseScores:
        subs = [s for s in subs if len(s.docs)]
        if not subs:
            return _SparseScores(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))
        total = sum(len(s.docs) for s in subs)
        if max_doc is not None and total * 4 > max_doc:
            # dense accumulators: per-sub docIDs are unique, so fancy-index
            # += is collision-free — one O(max_doc) pass per clause instead
            # of a big sort-unique (DisjunctionSumScorer for dense terms)
            dense_s = np.zeros(max_doc, dtype=np.float64)
            dense_c = np.zeros(max_doc, dtype=np.int64)
            present = np.zeros(max_doc, dtype=bool)
            for s in subs:
                dense_s[s.docs] += s.scores
                dense_c[s.docs] += s.counts
                present[s.docs] = True
            # explicit presence mask (not dense_c > 0): a sub-result with
            # legitimate zero counts must survive the union exactly like it
            # does on the sparse path
            docs = np.flatnonzero(present).astype(np.int32)
            return _SparseScores(docs, dense_s[docs], dense_c[docs])
        docs = np.concatenate([s.docs for s in subs])
        scores = np.concatenate([s.scores for s in subs])
        counts = np.concatenate([s.counts for s in subs])
        uniq, inv = np.unique(docs, return_inverse=True)
        # bincount is the fast scatter-add (np.add.at is orders slower)
        sum_scores = np.bincount(inv, weights=scores, minlength=len(uniq))
        sum_counts = np.bincount(inv, weights=counts, minlength=len(uniq)).astype(np.int64)
        return _SparseScores(uniq.astype(np.int32), sum_scores, sum_counts)

    def _dismax(self, subs: list[_SparseScores], tie: float) -> _SparseScores:
        subs = [s for s in subs if len(s.docs)]
        if not subs:
            return _SparseScores(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))
        docs = np.concatenate([s.docs for s in subs])
        scores = np.concatenate([s.scores for s in subs])
        uniq, inv = np.unique(docs, return_inverse=True)
        mx = np.full(len(uniq), -np.inf)
        np.maximum.at(mx, inv, scores)
        total = np.bincount(inv, weights=scores, minlength=len(uniq))
        # max + tieBreaker * (sum of the others)  (DisjunctionMaxQuery.java)
        out = mx + tie * (total - mx)
        return _SparseScores(uniq.astype(np.int32), out)

    @staticmethod
    def _intersect(a: _SparseScores, b: _SparseScores) -> _SparseScores:
        common, ia, ib = _intersect_sorted(a.docs, b.docs)
        return _SparseScores(
            common.astype(np.int32),
            a.scores[ia] + b.scores[ib],
            a.counts[ia] + b.counts[ib],
        )

    @staticmethod
    def _exclude(a: _SparseScores, not_docs: np.ndarray) -> _SparseScores:
        if not len(not_docs) or not len(a.docs):
            return a
        keep = ~np.isin(a.docs, not_docs, assume_unique=True)
        return _SparseScores(a.docs[keep], a.scores[keep], a.counts[keep])

    def _filter_docs(self, r: SegmentReader, q: Query) -> np.ndarray:
        try:
            hit = self._filters.get((r, q))
        except TypeError:  # unhashable query (custom fn) — evaluate directly
            return self._eval(r, q).docs
        if hit is None:
            hit = self._filters.put((r, q), self._eval(r, q).docs)
        return hit

    def _eval_bool(self, r: SegmentReader, q: BooleanQuery, boost: float) -> _SparseScores:
        empty = _SparseScores(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))
        result: _SparseScores | None = None
        for m in q.must:
            sub = self._eval(r, m, boost)
            result = sub if result is None else self._intersect(result, sub)
            if not len(result.docs):
                return empty
        for f in q.filter:
            # FILTER: matches constrain, scores don't count. Results are
            # cached per (reader, query) — the LRUQueryCache analogue
            # (search/LRUQueryCache.java caches filter-context DocIdSets on
            # reuse); our queries are immutable hashable values, so the doc
            # array itself is the cached bitset.
            fdocs = self._filter_docs(r, f)
            sub = _SparseScores(fdocs, np.zeros(len(fdocs)),
                                np.zeros(len(fdocs), dtype=np.int32))
            result = sub if result is None else self._intersect(result, sub)
            if not len(result.docs):
                return empty
        if q.should:
            union = self._union([self._eval(r, s, boost) for s in q.should], r.max_doc)
            msm = q.minimum_should_match
            if result is None:
                if msm > 1:
                    keep = union.counts >= msm
                    union = _SparseScores(union.docs[keep], union.scores[keep], union.counts[keep])
                result = union
            else:
                # required + optional: optional scores add where they match
                # (ReqOptSumScorer); with msm > 0 optional becomes constraining.
                if msm > 0:
                    keep = union.counts >= msm
                    union = _SparseScores(union.docs[keep], union.scores[keep], union.counts[keep])
                    result = self._intersect(result, union)
                else:
                    pos = np.searchsorted(union.docs, result.docs)
                    pos_c = np.clip(pos, 0, max(0, len(union.docs) - 1))
                    if len(union.docs):
                        hit = union.docs[pos_c] == result.docs
                        add = np.where(hit, union.scores[pos_c], 0.0)
                        result = _SparseScores(result.docs, result.scores + add, result.counts)
        if result is None:
            return empty
        for mn in q.must_not:
            sub = self._eval(r, mn)
            result = self._exclude(result, sub.docs)
            if not len(result.docs):
                return empty
        return result

    # ------------------------------- suggest / spell / more-like-this

    def suggest_terms(self, prefix: str, k: int = 5) -> list[tuple[str, int]]:
        """Prefix autocomplete (suggest/.../AnalyzingSuggester analogue with
        weight = total term frequency): top-k dictionary terms with the
        prefix, ordered by (ttf desc, term asc)."""
        if self.global_term_stats is not None and self.global_term_stats.eager:
            from lucene_ray.state.segment import prefix_successor

            g = self.global_term_stats
            lo = int(np.searchsorted(g.terms, prefix))
            succ = prefix_successor(prefix)
            hi = int(np.searchsorted(g.terms, succ)) if succ is not None else len(g.terms)
            cand = [(int(g.total_tf[i]), str(g.terms[i])) for i in range(lo, hi)]
        else:
            agg: dict[str, int] = {}
            for r in self.readers:
                lo, hi = r.term_range(prefix)
                for i in range(lo, hi):
                    agg[r.terms[i]] = agg.get(r.terms[i], 0) + int(r.total_tf[i])
            cand = [(c, t) for t, c in agg.items()]
        cand.sort(key=lambda x: (-x[0], x[1]))
        out = [(t, c) for c, t in cand[:k]]
        return out

    def fuzzy_suggest_terms(
        self,
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
            return self.suggest_terms(prefix, k)
        exact = prefix[:non_fuzzy_prefix]
        if self.global_term_stats is not None and self.global_term_stats.eager:
            from lucene_ray.state.segment import prefix_successor

            g = self.global_term_stats
            lo = int(np.searchsorted(g.terms, exact))
            succ = prefix_successor(exact)
            hi = int(np.searchsorted(g.terms, succ)) if succ is not None else len(g.terms)
            pool = [(str(g.terms[i]), int(g.total_tf[i])) for i in range(lo, hi)]
        else:
            agg: dict[str, int] = {}
            for r in self.readers:
                lo, hi = r.term_range(exact)
                for i in range(lo, hi):
                    agg[r.terms[i]] = agg.get(r.terms[i], 0) + int(r.total_tf[i])
            pool = list(agg.items())
        cand = []
        for term, w in pool:
            ed = _prefix_edit_distance(prefix, term, max_edits)
            if ed >= 0:
                cand.append((ed, -w, term))
        cand.sort()
        return [(t, -nw) for _, nw, t in cand[:k]]

    def spell_suggest(self, term: str, k: int = 3, max_edits: int = 2) -> list[str]:
        """Did-you-mean (suggest/spell/DirectSpellChecker analogue): dictionary
        terms within ``max_edits``, ranked by (edits asc, docFreq desc, term).

        Candidate pruning is the EXACT multiset q-gram bound (admissible — the
        n-gram stand-in for DirectSpellChecker's FuzzyTermsEnum automaton):
        ed(q,t) ≤ e implies the MULTISET bigram overlap ≥ max(|q|,|t|) − 1 −
        2e, so only terms violating that bound are skipped; terms whose bound
        is ≤ 0 are always examined (the bound can't prune them). Verified
        equal to the full scan by property test."""
        fp = self._fp(None)
        seen: dict[str, int] = {}
        q_big: dict[str, int] = {}
        for i in range(len(term) - 1):
            g = term[i : i + 2]
            q_big[g] = q_big.get(g, 0) + 1
        lq = len(term)
        for r in self.readers:
            lo, hi = r.term_range(fp) if fp else (0, r.n_terms)
            bg_index, lens = self._bigram_index(r, fp, lo, hi)
            counts = np.zeros(hi - lo, dtype=np.int64)
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
            key=lambda kv: (kv[1], -self.term_statistics(fp + kv[0]).doc_freq, kv[0]),
        )
        return [t for t, _ in ranked[:k]]

    @staticmethod
    def _bigram_index(r: SegmentReader, fp: str, lo: int, hi: int):
        """Lazy per-reader bigram → (term offsets, occurrence counts) plus the
        per-term length array (for the q-gram bound)."""
        cached = getattr(r, "_spell_bigrams", None)
        if cached is not None and cached[0] == (fp, lo, hi):
            return cached[1], cached[2]
        bg: dict[str, list[int]] = {}
        lens = np.zeros(hi - lo, dtype=np.int64)
        for i in range(lo, hi):
            t = r.term_at(i)[len(fp):]
            lens[i - lo] = len(t)
            for j in range(len(t) - 1):
                bg.setdefault(t[j : j + 2], []).append(i - lo)
        bgn = {}
        for g, v in bg.items():
            ids, tcs = np.unique(np.asarray(v, dtype=np.int64), return_counts=True)
            bgn[g] = (ids, tcs.astype(np.int64))
        r._spell_bigrams = ((fp, lo, hi), bgn, lens)
        return bgn, lens

    def more_like_this(self, doc_key, *, max_query_terms: int = 10,
                       min_tf: int = 1, k: int = 10, text: str | None = None,
                       analyzer=None) -> TopDocs:
        """MoreLikeThis (queries/.../mlt/MoreLikeThis.java semantics): pick
        the doc's top terms by tf·idf, search them as a SHOULD query with the
        source doc excluded.

        ``text`` — the document's stored text, when the caller has it (the
        row store is the source parquet): the reference's
        ``MoreLikeThis.like(Reader)`` path, which re-analyzes the text
        instead of probing every dictionary term's postings. Without it the
        dictionary-scan fallback runs (fine for bounded vocabularies)."""
        fp = self._fp(None)
        tf: dict[str, int] = {}
        if text is not None:
            an = analyzer or self.query_analyzer()
            codes, vocab, _di, _pos, _dl = an.tokenize_batch_encoded([text])
            cnt = np.bincount(codes, minlength=len(vocab))
            tf = {str(vocab[i]): int(cnt[i]) for i in range(len(vocab)) if cnt[i]}
        for r in self.readers if text is None else ():
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
            lo, hi = r.term_range(fp) if fp else (0, r.n_terms)
            for i in range(lo, hi):
                docs, freqs = r.postings(int(i))
                j = np.searchsorted(docs, local)
                if j < len(docs) and docs[j] == local:
                    t = r.terms[i][len(fp):]
                    tf[t] = tf.get(t, 0) + int(freqs[j])
        scored = []
        cstats = self._field_cstats(None)
        for t, f in tf.items():
            if f < min_tf:
                continue
            ts = self.term_statistics(fp + t)
            idf = float(np.log(1 + (cstats.doc_count - ts.doc_freq + 0.5)
                               / (ts.doc_freq + 0.5)))
            scored.append((-(f * idf), t))
        scored.sort()
        terms = [t for _, t in scored[:max_query_terms]]
        if not terms:
            return TopDocs(0, [])
        q = BooleanQuery(should=[TermQuery(t) for t in terms])
        td = self.search(q, k=k + 1)
        td.score_docs = [sd for sd in td.score_docs if sd.doc_key != doc_key][:k]
        return td

    # ----------------------------------- field sort / facets / grouping

    def search_by_field(
        self, query: Query | str, field: str, k: int = 10, *, descending: bool = True
    ) -> list[tuple]:
        """TopFieldCollector analogue (search/TopFieldCollector.java:39-151):
        top-k matching docs ordered by a doc-values column, ties by doc_key.
        Returns [(doc_key, field_value), ...]."""
        if isinstance(query, str):
            query = self.parse(query)
        want_sort = [field, "desc" if descending else "asc"]
        rows = []
        for r in self.readers:
            sp = self._apply_live(r, self._eval(r, query))
            if not len(sp.docs):
                continue
            if list(r.meta.get("index_sort") or ()) == want_sort:
                # EARLY TERMINATION (TopFieldCollector.canEarlyTerminate,
                # TopFieldCollector.java:150): this segment's docID order IS
                # (field desc/asc, key asc), so the first k matching docIDs
                # are the segment's top-k — no per-hit gather or sort
                take = sp.docs[:k]
                self.sort_stats["docs_examined"] += len(take)
                self.sort_stats["docs_matched"] += len(sp.docs)
                vals = r.doc_values[field][take]
                keys = r.doc_keys[take]
                rows.extend(zip(vals.tolist(), keys.tolist()))
                continue
            self.sort_stats["docs_examined"] += len(sp.docs)
            self.sort_stats["docs_matched"] += len(sp.docs)
            vals = r.doc_values[field][sp.docs]
            keys = r.doc_keys[sp.docs]
            idx = np.arange(len(vals))
            if len(idx) > k * 4 and np.issubdtype(vals.dtype, np.number):
                kk = min(k, len(idx))
                thr = np.partition(vals, len(vals) - kk)[len(vals) - kk] if descending else \
                    np.partition(vals, kk - 1)[kk - 1]
                idx = np.flatnonzero(vals >= thr) if descending else np.flatnonzero(vals <= thr)
            rows.extend((vals[i], keys[i]) for i in idx.tolist())
        rows.sort(key=(lambda t: (-t[0], t[1])) if descending else (lambda t: (t[0], t[1])))
        return [(kkey, val) for val, kkey in rows[:k]]

    def facet_counts(self, query: Query | str, field: str) -> dict:
        """Facet counting over a doc-values column for matching docs
        (facet/FacetsCollector + LongValueFacetCounts analogue): per-segment
        partial bincounts merged on the way out."""
        if isinstance(query, str):
            query = self.parse(query)
        out: dict = {}
        for r in self.readers:
            sp = self._apply_live(r, self._eval(r, query))
            if not len(sp.docs):
                continue
            vals, counts = np.unique(r.doc_values[field][sp.docs], return_counts=True)
            for v, c in zip(vals.tolist(), counts.tolist()):
                out[v] = out.get(v, 0) + c
        return out

    def facet_counts_multi(self, query: Query | str, field: str) -> dict:
        """Multi-valued facet counting over a SortedSet doc-values column
        (facet/sortedset/SortedSetDocValuesFacetCounts.java): each matching
        doc contributes one count per stored value. Vectorized per segment:
        gather the selected docs' ordinal ranges with one repeat-arange
        indexing pass, bincount the ordinals, map through the sorted value
        dictionary; segment partials merge by value."""
        if isinstance(query, str):
            query = self.parse(query)
        out: dict = {}
        for r in self.readers:
            dv = getattr(r, "sorted_set_dv", {}).get(field)
            if dv is None:
                raise KeyError(
                    f"no SortedSet doc-values column {field!r} in segment "
                    f"{r.name} (index it as a list-typed docvalue col)")
            offsets, codes, vocab = dv
            sp = self._apply_live(r, self._eval(r, query))
            docs = sp.docs
            if not len(docs):
                continue
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

    def drill_sideways(self, base: Query | str, drill_downs: dict, k: int = 10):
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
            base = self.parse(base)
        filters = {f: DocValuesTermQuery(f, v) for f, v in drill_downs.items()}
        hits = self.search(
            BooleanQuery(must=[base], filter=list(filters.values())), k
        )
        facets = {}
        for dim in drill_downs:
            others = [fq for f, fq in filters.items() if f != dim]
            q = BooleanQuery(must=[base], filter=others) if others else base
            facets[dim] = self.facet_counts(q, dim)
        return {"hits": hits, "facets": facets}

    def dv_stats(self, query: Query | str, field: str) -> dict:
        """Aggregate statistics of a numeric doc-values column over matching
        docs (misc/DocValuesStats.java + DocValuesStatsCollector): count,
        min, max, sum, mean, variance (population), stddev. Sums accumulate
        in int64 (exact for integral columns), the float ops happen once in
        a fixed order so an SQL oracle reproduces them bit-for-bit."""
        if isinstance(query, str):
            query = self.parse(query)
        n = 0
        s = 0
        sq = 0
        mn: float | None = None
        mx: float | None = None
        for r in self.readers:
            sp = self._apply_live(r, self._eval(r, query))
            if not len(sp.docs):
                continue
            vals = np.asarray(r.doc_values[field][sp.docs], dtype=np.int64)
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

    def range_facet_counts(
        self, query: Query | str, field: str, ranges: list[tuple]
    ) -> list[tuple]:
        """Numeric range facets (facet/range/LongRangeFacetCounts.java:42):
        for docs matching ``query``, count how many fall into each
        ``(label, lo, hi)`` half-open range lo ≤ v < hi. Ranges may overlap —
        each is counted independently (the reference's LongRange list
        semantics), so this is NOT a groupby. Returns [(label, count)] in
        the given range order."""
        if isinstance(query, str):
            query = self.parse(query)
        totals = np.zeros(len(ranges), dtype=np.int64)
        for r in self.readers:
            sp = self._apply_live(r, self._eval(r, query))
            if not len(sp.docs):
                continue
            vals = np.asarray(r.doc_values[field][sp.docs], dtype=np.float64)
            for i, (_, lo, hi) in enumerate(ranges):
                totals[i] += int(np.count_nonzero((vals >= lo) & (vals < hi)))
        return [(label, int(totals[i])) for i, (label, *_rest) in enumerate(ranges)]

    def diversified_topk(
        self,
        query: Query | str,
        key_field: str,
        max_per_key: int = 1,
        k: int = 10,
        round_digits: int | None = None,
    ) -> list[tuple]:
        """Diversified top-k (misc/search/DiversifiedTopDocsCollector.java:63):
        global top-k by (score desc, doc_key asc) with at most ``max_per_key``
        docs sharing a ``key_field`` value. Greedy-in-rank-order == "keep a
        doc iff its within-key rank ≤ max_per_key, then global top-k" — a doc
        beyond its key's top-``max_per_key`` is always preceded by enough
        same-key docs to fill the cap. Per segment only the per-key
        top-``max_per_key`` survivors are forwarded (the exact-merge bound),
        so the driver-side merge is O(segments · keys · max_per_key).
        Returns [(rank, doc_key, key, score)]."""
        if isinstance(query, str):
            query = self.parse(query)
        rd = round_digits

        cands: list[tuple] = []  # (-score_key, doc_key, key, score)
        for r in self.readers:
            sp = self._apply_live(r, self._eval(r, query))
            if not len(sp.docs):
                continue
            keys = r.doc_values[key_field][sp.docs]
            dks = r.doc_keys[sp.docs]
            scores = np.round(sp.scores, rd) if rd is not None else sp.scores
            per_key: dict = {}
            for kk, dk, s0, s in zip(
                keys.tolist(), dks.tolist(), scores.tolist(), sp.scores.tolist()
            ):
                per_key.setdefault(kk, []).append((-s0, dk, kk, s))
            for lst in per_key.values():
                cands.extend(heapq.nsmallest(max_per_key, lst))

        cands.sort()
        counts: dict = {}
        out = []
        for negs, dk, kk, s in cands:
            c = counts.get(kk, 0)
            if c >= max_per_key:
                continue
            counts[kk] = c + 1
            out.append((len(out) + 1, dk, kk, s))
            if len(out) >= k:
                break
        return out

    def document(self, doc_key) -> dict | None:
        """Stored-fields retrieval (IndexSearcher.doc / StoredFields analogue):
        the per-doc row from the docs table — key, doc-values columns, norms.
        The wide original text lives in the source parquet row store (the
        design's stored-fields layer); everything indexed as doc values is
        available here."""
        for r in self.readers:
            pos = np.flatnonzero(r.doc_keys == doc_key)
            if len(pos):
                i = int(pos[0])
                if r.live is not None and not r.live[i]:
                    continue  # deleted (or superseded by an update) here
                out = {"doc_key": doc_key, "dl": int(r.dls[i])}
                for name, arr in r.doc_values.items():
                    v = arr[i]
                    out[name] = v.item() if hasattr(v, "item") else v
                return out
        return None

    def taxonomy_counts(self, query: Query | str, dims: list[str]) -> list[tuple]:
        """Hierarchical facet counts with rollup (facet/.../taxonomy/
        TaxonomyFacetCounts + DirectoryTaxonomyReader.java:61 semantics over
        a flat dim hierarchy): for matching docs, counts for every path
        prefix of the dim chain — ('src0',), ('src0','en'), … — plus the
        root total. Returns [(path tuple, count)] sorted; rollup rows carry
        the prefix path (deeper levels as None)."""
        if isinstance(query, str):
            query = self.parse(query)
        from collections import Counter

        counts: Counter = Counter()
        for r in self.readers:
            sp = self._apply_live(r, self._eval(r, query))
            if not len(sp.docs):
                continue
            cols = [r.doc_values[d][sp.docs] for d in dims]
            n = len(sp.docs)
            counts[()] += n
            for depth in range(1, len(dims) + 1):
                keys = list(zip(*[c.tolist() for c in cols[:depth]]))
                counts.update(keys)
        return sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def grouped_topk(
        self, query: Query | str, group_field: str, k_per_group: int = 2
    ) -> list[tuple]:
        """Two-pass grouping analogue (grouping/FirstPassGroupingCollector →
        SecondPassGroupingCollector): top-k docs per group value by
        (round(score,6) desc, doc_key asc). Returns
        [(group, rank, doc_key, score), ...] sorted by (group, rank)."""
        if isinstance(query, str):
            query = self.parse(query)
        acc: dict = {}
        for r in self.readers:
            sp = self._apply_live(r, self._eval(r, query))
            if not len(sp.docs):
                continue
            groups = r.doc_values[group_field][sp.docs]
            keys = r.doc_keys[sp.docs]
            for g, kkey, s in zip(groups.tolist(), keys.tolist(), sp.scores.tolist()):
                acc.setdefault(g, []).append((-np.round(s, 6), kkey, s))
        out = []
        for g in sorted(acc):
            best = heapq.nsmallest(k_per_group, acc[g])
            for rank, (_, kkey, s) in enumerate(best, start=1):
                out.append((g, rank, kkey, s))
        return out

    def _join_lut(self, q: JoinQuery, boost: float):
        """Global (from_field value → aggregated score) map for a JoinQuery —
        computed ONCE across all segments per (query, boost) and cached
        (JoinUtil's first phase: collect fromField terms + scores)."""
        return self._joins.get_or_put((q, float(boost)),
                                      lambda: self._join_table(q, boost))

    def _join_table(self, q: JoinQuery, boost: float):
        vals_parts, score_parts = [], []
        for r in self.readers:
            sp = self._apply_live(r, self._eval(r, q.from_query, boost))
            if not len(sp.docs):
                continue
            vals_parts.append(np.asarray(r.doc_values[q.from_field][sp.docs]))
            score_parts.append(sp.scores)
        if not vals_parts:
            return np.empty(0), np.empty(0)
        vals = np.concatenate(vals_parts)
        scores = np.concatenate(score_parts)
        uniq, inv = np.unique(vals, return_inverse=True)
        if q.score_mode == "none":
            return uniq, np.full(len(uniq), boost)
        sums = np.zeros(len(uniq))
        np.add.at(sums, inv, scores)
        if q.score_mode == "sum":
            return uniq, sums
        if q.score_mode == "max":
            agg = np.full(len(uniq), -np.inf)
            np.maximum.at(agg, inv, scores)
            return uniq, agg
        if q.score_mode == "avg":
            return uniq, sums / np.bincount(inv, minlength=len(uniq))
        raise ValueError(f"unknown score_mode {q.score_mode!r}")

    def _eval_join(self, r: SegmentReader, q: JoinQuery, boost: float) -> _SparseScores:
        empty = _SparseScores(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))
        uniq, agg = self._join_lut(q, boost)
        if not len(uniq):
            return empty
        tvals = np.asarray(r.doc_values[q.to_field])
        pos = np.searchsorted(uniq, tvals)
        pos_c = np.minimum(pos, len(uniq) - 1)
        m = uniq[pos_c] == tvals
        docs = np.flatnonzero(m).astype(np.int32)
        if not len(docs):
            return empty
        return _SparseScores(docs, agg[pos_c[m]])

    # ---------------------------------------------------------- block join

    def _parents_of(self, r: SegmentReader) -> np.ndarray:
        """Sorted local docIDs of parent docs (the parents-filter BitSet of
        ToParentBlockJoinQuery; blocks are contiguous, parent last — the
        layout pipelines/index_pipeline.build_index(partition_col=...) +
        child-before-parent keys produce). Cached per reader."""
        p = getattr(r, "_parent_docs", None)
        if p is None:
            p = r._parent_docs = np.flatnonzero(
                r.doc_values["is_parent"] != 0
            ).astype(np.int32)
        return p

    def _eval_block_join_parent(self, r, q, boost: float) -> _SparseScores:
        empty = _SparseScores(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))
        child = self._eval(r, q.child_query, boost)
        if not len(child.docs):
            return empty
        parents = self._parents_of(r)
        is_parent = r.doc_values["is_parent"]
        mask = is_parent[child.docs] == 0  # a parent matching the child query joins nothing
        cdocs = child.docs[mask]
        cscores = child.scores[mask]
        if not len(cdocs):
            return empty
        pi = np.searchsorted(parents, cdocs, side="left")  # next parent >= child
        ok = pi < len(parents)
        pdocs = parents[pi[ok]]
        cscores = cscores[ok]
        uniq, inv = np.unique(pdocs, return_inverse=True)
        if q.score_mode == "none":
            return _SparseScores(uniq.astype(np.int32), np.full(len(uniq), boost))
        sums = np.zeros(len(uniq))
        np.add.at(sums, inv, cscores)
        if q.score_mode == "sum":
            out = sums
        elif q.score_mode == "max":
            out = np.full(len(uniq), -np.inf)
            np.maximum.at(out, inv, cscores)
        elif q.score_mode == "avg":
            cnt = np.bincount(inv, minlength=len(uniq))
            out = sums / cnt
        else:
            raise ValueError(f"unknown score_mode {q.score_mode!r}")
        return _SparseScores(uniq.astype(np.int32), out)

    def _eval_block_join_child(self, r, q, boost: float) -> _SparseScores:
        empty = _SparseScores(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))
        parent = self._eval(r, q.parent_query, boost)
        if not len(parent.docs):
            return empty
        parents = self._parents_of(r)
        is_parent = r.doc_values["is_parent"]
        keep = is_parent[parent.docs] != 0
        pdocs = parent.docs[keep]
        pscores = parent.scores[keep]
        if not len(pdocs):
            return empty
        pi = np.searchsorted(parents, pdocs)  # position of each parent
        starts = np.where(pi > 0, parents[np.maximum(pi - 1, 0)] + 1, 0)
        counts = pdocs - starts  # children per block
        m = counts > 0
        pdocs, pscores, starts, counts = pdocs[m], pscores[m], starts[m], counts[m]
        if not len(pdocs):
            return empty
        total = int(counts.sum())
        run = np.concatenate([[0], np.cumsum(counts)[:-1]])
        docs = (np.repeat(starts - run, counts)
                + np.arange(total, dtype=np.int64)).astype(np.int32)
        scores = np.repeat(pscores, counts)
        return _SparseScores(docs, scores)

    # -------------------------------------------------- fuzzy / synonym

    def _wildcard_idxs(self, r: SegmentReader, fp: str, pattern: str) -> list[int]:
        """Wildcard → matching dictionary indices via automaton
        intersection (util/automaton/CompiledAutomaton.java:219 getTermsEnum
        + search/AutomatonTermsEnum.java nextSeekTerm): literal-prefix range
        bound, then DFA-walk-with-bisect-hops instead of a linear verify.
        For LEADING-wildcard patterns (no literal prefix — the case the hop
        can't help: any next char is viable in a dense dictionary) the
        vectorized required-char counting filter bounds the verify set, the
        same trick the fuzzy path uses. terms_scanned counts terms actually
        EXAMINED (DFA runs), not hopped/filtered ones."""
        from lucene_ray.functions.automaton import (WildcardAutomaton,
                                                    intersect_dictionary,
                                                    required_char_vec)

        lit = _wildcard_literal_prefix(pattern)
        if lit or fp:
            lo, hi = r.term_range(fp + lit)
        else:
            lo, hi = 0, r.n_terms
        flo, fhi = (r.term_range(fp) if fp else (0, r.n_terms))
        self.mtq_stats["terms_total"] += fhi - flo
        auto = WildcardAutomaton(pattern)
        if not lit and hi - lo > 64:
            req = required_char_vec(pattern)
            if req is not None:
                if fp:
                    from lucene_ray.state.segment import char_count_vec

                    req = req + char_count_vec(fp)
                surv = lo + np.flatnonzero(
                    (r.char_counts[lo:hi] >= req).all(axis=1))
                idxs = [int(i) for i in surv
                        if auto.run(r.term_at(int(i))[len(fp):])]
                self.mtq_stats["terms_scanned"] += len(surv)
                return idxs
        idxs, examined = intersect_dictionary(r, fp, auto, lo, hi)
        self.mtq_stats["terms_scanned"] += examined
        return idxs

    def _regexp_idxs(self, r: SegmentReader, fp: str, pattern: str) -> list[int]:
        """Regexp → matching dictionary indices: literal-prefix range bound,
        required-char counting prefilter when the pattern provably requires
        characters (leading-wildcard shapes), then ONE vectorized RE2 match
        over the remaining Arrow dictionary slice (no per-term Python in the
        common path; Python re fallback for RE2-unsupported syntax)."""
        import re as _re

        lit = _regex_literal_prefix(pattern)
        if lit or fp:
            lo, hi = r.term_range(fp + lit)
        else:
            lo, hi = 0, r.n_terms
        flo, fhi = (r.term_range(fp) if fp else (0, r.n_terms))
        self.mtq_stats["terms_total"] += fhi - flo
        if hi <= lo:
            return []
        from lucene_ray.functions.automaton import regex_required_char_vec

        if not lit and hi - lo > 64:
            req = regex_required_char_vec(pattern)
            if req is not None:
                if fp:
                    from lucene_ray.state.segment import char_count_vec

                    req = req + char_count_vec(fp)
                surv = lo + np.flatnonzero(
                    (r.char_counts[lo:hi] >= req).all(axis=1))
                pat = _re.compile(pattern)
                idxs = [int(i) for i in surv
                        if pat.fullmatch(r.term_at(int(i))[len(fp):])]
                self.mtq_stats["terms_scanned"] += len(surv)
                return idxs
        self.mtq_stats["terms_scanned"] += hi - lo
        import pyarrow.compute as pc

        sl = r._terms_arr.slice(lo, hi - lo)
        anchored = f"^{_re.escape(fp)}(?:{pattern})$"
        try:
            m = pc.match_substring_regex(sl, anchored)
            mask = np.asarray(m.to_numpy(zero_copy_only=False), dtype=bool)
            return (lo + np.flatnonzero(mask)).tolist()
        except Exception:  # RE2-unsupported syntax → Python re fallback
            pat = _re.compile(pattern)
            return [i for i in range(lo, hi)
                    if pat.fullmatch(r.term_at(i)[len(fp):])]

    def _fuzzy_match_idxs(self, r: SegmentReader, fp: str, base: str,
                          max_edits: int, prefix_length: int) -> list[int]:
        """Dictionary indices whose term is within ``max_edits`` of ``base``
        (EXACT — no downstream verify needed), via Levenshtein-automaton
        dictionary intersection (util/automaton/LevenshteinAutomata.java:31
        + FuzzyTermsEnum's intersect-with-terms-dict), sharing the same
        bisect-hop walk as the wildcard/regexp enumerations. Small ranges
        keep the vectorized counting filter (character-histogram diff
        lower-bounds the distance) + banded-DP verify — cheaper than
        per-term automaton steps when the whole range fits a numpy pass."""
        if prefix_length > 0:
            lo, hi = r.term_range(fp + base[:prefix_length])
        elif fp:
            lo, hi = r.term_range(fp)
        else:
            lo, hi = 0, r.n_terms
        flo, fhi = (r.term_range(fp) if fp else (0, r.n_terms))
        self.mtq_stats["terms_total"] += fhi - flo
        if hi <= lo:
            return []
        if hi - lo <= 64:
            from lucene_ray.state.segment import char_count_vec

            qv = char_count_vec(fp + base)
            diff = r.char_counts[lo:hi] - qv
            lb = np.maximum(
                np.clip(diff, 0, None).sum(axis=1),
                np.clip(-diff, 0, None).sum(axis=1),
            )
            cand = (lo + np.flatnonzero(lb <= max_edits)).tolist()
            self.mtq_stats["terms_scanned"] += len(cand)
            return [i for i in cand
                    if _bounded_edit_distance(
                        base, r.term_at(i)[len(fp):], max_edits) >= 0]
        from lucene_ray.functions.automaton import (LevenshteinAutomaton,
                                                    intersect_dictionary)

        auto = LevenshteinAutomaton(base, max_edits)
        idxs, examined = intersect_dictionary(r, fp, auto, lo, hi)
        self.mtq_stats["terms_scanned"] += examined
        return idxs

    def _eval_fuzzy(self, r: SegmentReader, q: FuzzyQuery, boost: float) -> _SparseScores:
        """Expand to dictionary terms within edit distance ≤ max_edits
        (FuzzyQuery.java; FuzzyTermsEnum boost = 1 − edits/min-length after
        the required exact prefix), then score as a boosted disjunction of
        TermQueries. Enumeration is the Levenshtein-automaton dictionary
        intersection (_fuzzy_match_idxs) — the DP here only recomputes the
        exact distance for the boost, on accepted terms."""
        fp = self._fp(q.field)
        subs = []
        base = q.term
        for i in self._fuzzy_match_idxs(r, fp, base, q.max_edits,
                                        q.prefix_length):
            cand = r.term_at(i)[len(fp):]
            ed = _bounded_edit_distance(base, cand, q.max_edits)
            if ed < 0:
                continue
            if ed == 0:
                tb = 1.0
            else:
                m = min(len(base), len(cand)) - q.prefix_length
                tb = 1.0 - ed / max(m, 1)
            sub = self._eval(r, TermQuery(cand), boost * tb)
            if len(sub.docs):
                subs.append(sub)
        return self._dismax(subs, 0.0) if subs else _SparseScores(
            np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64)
        )

    def _eval_synonym(self, r: SegmentReader, q: SynonymQuery, boost: float) -> _SparseScores:
        """One pseudo-term (SynonymQuery.java:52-214): per-doc tf = Σ tf over
        synonyms, statistics blended as df = max docFreq, ttf = Σ (documented
        blend), scored through BM25 once."""
        empty = _SparseScores(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))
        fp = self._fp(None)
        stats = [self.term_statistics(fp + t) for t in q.terms]
        stats = [s for s in stats if s.doc_freq > 0]
        if not stats:
            return empty
        blended = TermStatistics(
            "|".join(q.terms),
            max(s.doc_freq for s in stats),
            sum(s.total_term_freq for s in stats),
        )
        docs_all, freqs_all = [], []
        for t in q.terms:
            d, f = r.postings(fp + t)
            if len(d):
                docs_all.append(d)
                freqs_all.append(f)
        if not docs_all:
            return empty
        docs = np.concatenate(docs_all)
        freqs = np.concatenate(freqs_all).astype(np.float64)
        uniq, inv = np.unique(docs, return_inverse=True)
        tf = np.zeros(len(uniq))
        np.add.at(tf, inv, freqs)
        scorer = self.sim.scorer(self._field_cstats(None), blended, boost=boost)
        return _SparseScores(
            uniq.astype(np.int32),
            self._score_arrays(r, scorer, uniq.astype(np.int32), tf),
        )

    def _eval_combined_field(self, r: SegmentReader, q: CombinedFieldQuery,
                             boost: float) -> _SparseScores:
        """BM25F combined-field scoring (sandbox CombinedFieldQuery.java):
        one pseudo-term over every (field, term) pair — see the Query
        docstring for the exact statistic blend. Exact mode scores the true
        weighted length sum; lucene mode re-encodes it through SmallFloat
        like MultiNormsLeafSimScorer.MultiFieldNormValues (:148-151)."""
        from types import SimpleNamespace

        from lucene_ray.state.segment import FIELD_SEP

        empty = _SparseScores(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))
        if not self._multi:
            raise ValueError("CombinedFieldQuery requires a multi-field index")
        for f, _ in q.fields:
            if f not in self.fields:
                raise ValueError(f"unknown field {f!r}; index has {self.fields}")
        # pseudo collection stats (CombinedFieldQuery.java:318-334)
        doc_count = 0
        sum_df = 0
        sum_ttf = 0.0
        for f, w in q.fields:
            cs = self._field_cstats(f)
            doc_count = max(doc_count, cs.doc_count)
            sum_df = max(sum_df, cs.sum_doc_freq)
            sum_ttf += w * cs.sum_total_term_freq
        # pseudo term stats: df = max over pairs, ttf = Σ w·ttf (:295-305)
        df = 0
        ttf = 0.0
        for f, w in q.fields:
            for t in q.terms:
                ts = self.term_statistics(f + FIELD_SEP + t)
                df = max(df, ts.doc_freq)
                ttf += w * ts.total_term_freq
        if df == 0:
            return empty
        pseudo_cstats = SimpleNamespace(
            max_doc=self.collection_stats.max_doc, doc_count=doc_count,
            sum_doc_freq=sum_df, sum_total_term_freq=sum_ttf,
        )
        pseudo_ts = TermStatistics("pseudo_term", df, max(1.0, ttf))
        scorer = self.sim.scorer(pseudo_cstats, pseudo_ts, boost=boost)

        docs_all, wf_all = [], []
        for f, w in q.fields:
            for t in q.terms:
                d, fr = r.postings(f + FIELD_SEP + t)
                if len(d):
                    docs_all.append(d)
                    wf_all.append(w * fr.astype(np.float64))
        if not docs_all:
            return empty
        docs = np.concatenate(docs_all)
        wf = np.concatenate(wf_all)
        uniq, inv = np.unique(docs, return_inverse=True)
        tf = np.zeros(len(uniq))
        np.add.at(tf, inv, wf)
        uniq = uniq.astype(np.int32)
        dl = np.zeros(len(uniq))
        for f, w in q.fields:
            dl += w * r.dls_by_field[f][uniq]
        if self.mode == "lucene":
            from lucene_ray.functions.norms import encode_lengths

            scores = scorer.score(tf, encode_lengths(np.rint(dl).astype(np.int64)))
        else:
            scores = scorer.score(tf, dl)
        return _SparseScores(uniq, scores)

    # ------------------------------------------------------------ phrase

    def _expand_dict_spec(self, fp: str, spec) -> list[str]:
        """All dictionary terms (UNION over every segment — MultiTermQuery's
        top-level-reader rewrite, so stats are segment-independent) accepted
        by one expansion spec: ``("term", t)``, ``("prefix", p)``,
        ``("wildcard", pat)`` or ``("fuzzy", t, max_edits)``."""
        import re as _re

        kind = spec[0]
        if kind == "term":
            return [spec[1]] if any(
                r.term_index(fp + spec[1]) >= 0 for r in self.readers
            ) else []
        if kind == "prefix":
            out: list[str] = []
            for r in self.readers:
                lo, hi = r.term_range(fp + spec[1])
                out.extend(r.terms[i][len(fp):] for i in range(lo, hi))
            return out
        if kind == "wildcard":
            out = []
            for r in self.readers:
                out.extend(r.term_at(i)[len(fp):]
                           for i in self._wildcard_idxs(r, fp, spec[1]))
            return out
        if kind == "fuzzy":
            base, max_edits = spec[1], spec[2]
            out = []
            for r in self.readers:
                out.extend(r.term_at(i)[len(fp):] for i in
                           self._fuzzy_match_idxs(r, fp, base, max_edits, 0))
            return out
        raise TypeError(f"unknown expansion spec {spec!r}")

    def _expand_complex_phrase(self, q: "ComplexPhraseQuery"):
        """Expand slot atom specs against the union dictionary, once per
        query (cached). Returns the slot term tuples, or None if some slot
        matches nothing."""
        return self._expansions.get_or_put(q, lambda: self._complex_phrase_slots(q))

    def _complex_phrase_slots(self, q: "ComplexPhraseQuery"):
        fp = self._fp(q.field)
        positions = []
        for slot in q.positions:
            terms: list[str] = []
            for spec in slot:
                terms.extend(self._expand_dict_spec(fp, spec))
            if not terms:
                return None
            positions.append(tuple(dict.fromkeys(sorted(terms))))
        return tuple(positions)

    def _eval_complex_phrase(
        self, r: SegmentReader, q: "ComplexPhraseQuery", boost: float
    ) -> _SparseScores:
        """ComplexPhraseQueryParser query: global slot expansion (above),
        then the MultiPhraseQuery matcher on this segment. A slot that
        expands to nothing kills the phrase (rewrite-to-no-match)."""
        positions = self._expand_complex_phrase(q)
        if positions is None:
            return _SparseScores(
                np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64)
            )
        return self._eval_multi_phrase(
            r, MultiPhraseQuery(positions, slop=q.slop, field=q.field), boost
        )

    def _eval_multi_phrase(
        self, r: SegmentReader, q: PhraseQuery | MultiPhraseQuery, boost: float
    ) -> _SparseScores:
        """PhraseQuery and MultiPhraseQuery (search/PhraseQuery.java:71-147,
        MultiPhraseQuery.java:47); a PhraseQuery is the case of one term per
        slot. Each slot is the UNION of its terms' (doc, position) keys
        (UnionPostingsEnum). Exact: a phrase start (d, p) matches iff every
        slot j holds (d, p + j), one sorted int64 intersect per slot across
        all docs (ExactPhraseMatcher). slop > 0: docID conjunction, then the
        SloppyPhraseMatcher port per candidate doc with each SLOT as one
        pseudo-term (the reference likewise drives one PostingsEnum per
        position). Scored through BM25 with the phrase freq and the idf
        summed over every slot term some document holds."""
        empty = _SparseScores(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))
        if self._multi and q.field and q.field not in self.fields:
            return empty
        if isinstance(q, PhraseQuery):
            slots = [(t,) for t in q.terms]
        else:
            slots = list(q.positions)
        if not slots:
            return empty
        if len(slots) == 1 and len(slots[0]) == 1:
            # a one-term phrase rewrites to a TermQuery (PhraseQuery /
            # MultiPhraseQuery rewrite; the matcher needs >= 2 positions)
            return self._eval(r, TermQuery(slots[0][0], q.field), boost)
        fp = self._fp(q.field)
        slot_keys: list[np.ndarray] = []
        for slot in slots:
            parts = [r.poskeys(i)
                     for i in (r.term_index(fp + t) for t in slot) if i >= 0]
            if not parts:
                return empty  # no accepted term of this slot exists here
            # distinct terms never share a position, so the union is disjoint
            slot_keys.append(parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts)))

        if q.slop == 0:
            cand = slot_keys[0]
            for j in range(1, len(slot_keys)):
                cand, _, _ = _intersect_sorted(cand, slot_keys[j] - j)
                if not len(cand):
                    return empty
            docs64, counts = np.unique(cand >> POS_BITS, return_counts=True)
            match_docs = docs64.astype(np.int32)
            match_freqs = counts.astype(np.float64)
        else:
            from lucene_ray.functions.sloppy import sloppy_phrase_freq

            cand = None
            for kk in slot_keys:
                d = kk >> POS_BITS  # sorted: keep each run's first doc
                d = d[np.concatenate(([True], d[1:] != d[:-1]))]
                cand = d if cand is None else _intersect_sorted(cand, d)[0]
                if not len(cand):
                    return empty
            labels = [tuple(sorted(slot)) for slot in slots]
            md, mf = [], []
            for d in cand.tolist():
                sets = []
                for kk in slot_keys:
                    lo = int(np.searchsorted(kk, np.int64(d) * POS_SHIFT))
                    hi = int(np.searchsorted(kk, (np.int64(d) + 1) * POS_SHIFT))
                    sets.append((kk[lo:hi] & (POS_SHIFT - 1)).astype(np.int64))
                freq = sloppy_phrase_freq(sets, list(range(len(slots))), labels, q.slop)
                if freq > 0:
                    md.append(d)
                    mf.append(freq)
            if not md:
                return empty
            match_docs = np.array(md, dtype=np.int32)
            match_freqs = np.array(mf, dtype=np.float64)

        tstats = [self.term_statistics(fp + t) for slot in slots for t in slot]
        tstats = [ts for ts in tstats if ts.doc_freq > 0]
        return self._score_positional(r, tstats, match_docs, match_freqs, boost, q.field)

    def _score_positional(self, r: SegmentReader, tstats, docs, freqs, boost: float,
                          field: str | None = None) -> _SparseScores:
        """BM25 of per-doc positional freqs (phrase or span), with the idf
        summed over ``tstats`` in order."""
        docs = np.asarray(docs, dtype=np.int32)
        freqs = np.asarray(freqs, dtype=np.float64)
        scorer = self.sim.scorer(self._field_cstats(field), tstats, boost=boost)
        return _SparseScores(docs, self._score_arrays(r, scorer, docs, freqs, field))

    def _expand_span_slots(self, q: SpanNearQuery):
        """Normalize q.terms into slots of concrete terms: strings pass
        through, ``("prefix", p)`` / ``("wildcard", pat)`` specs expand
        against the UNION of all segment dictionaries (SpanMultiTermQuery
        Wrapper rewrite — global, so stats are segment-independent).
        Returns tuple of term tuples, or None if some spec slot expands to
        nothing (an empty SpanOr matches nothing)."""
        return self._expansions.get_or_put(q.terms, lambda: self._span_slots(q.terms))

    def _span_slots(self, slot_specs):
        fp = self._fp(None)
        slots = []
        for slot in slot_specs:
            if isinstance(slot, str):
                slots.append((slot,))
                continue
            if isinstance(slot, SpanNearQuery):
                # nested span — resolved recursively at match time
                slots.append(slot)
                continue
            terms: list[str] = []
            for item in slot:
                if isinstance(item, str):
                    terms.append(item)
                    continue
                kind = item[0]
                if kind in ("prefix", "wildcard"):
                    terms.extend(self._expand_dict_spec(fp, item))
                else:
                    raise TypeError(f"unknown span slot spec {item!r}")
            if not terms:
                return None
            slots.append(tuple(dict.fromkeys(sorted(terms))))
        return tuple(slots)

    def _span_source(self, q: Query):
        """A span query as an interval-algebra source, with the list of terms
        its idf sums over; None when a slot expands to nothing.

        SpanNearQuery is IvSpanNear over IvTerm / IvSpanOr slots (a nested
        SpanNearQuery is a slot, allowed under an ordered parent only);
        SpanPositionRangeQuery is IvPositionRange; SpanNotQuery is
        ``non_overlapping(include, extend(exclude, post, pre))``; a bare
        TermQuery is a one-slot span (SpanTermQuery). The idf terms are
        every slot term in slot order, repeats and terms no document holds
        included (a set of leaves would drop both)."""
        from lucene_ray.functions import interval_algebra as ia

        if isinstance(q, SpanPositionRangeQuery):
            got = self._span_source(q.match)
            if got is None:
                return None
            return ia.IvPositionRange(got[0], q.start, q.end), got[1]
        if isinstance(q, SpanNotQuery):
            got = self._span_source(q.include)
            exc = self._span_source(q.exclude) if got is not None else None
            if exc is None:
                return got
            return ia.non_overlapping(got[0], ia.extend(exc[0], q.post, q.pre)), got[1]
        if isinstance(q, TermQuery):
            q = SpanNearQuery([(q.term,)], slop=0, in_order=True)
        if not isinstance(q, SpanNearQuery):
            raise TypeError(f"not a span query: {q!r}")
        slots = self._expand_span_slots(q)
        if slots is None:
            return None
        subs, terms = [], []
        for slot in slots:
            if isinstance(slot, SpanNearQuery):
                if not q.in_order:
                    raise TypeError(
                        "nested span clauses require an ordered parent "
                        "(NearSpansUnordered extent nesting not supported)")
                got = self._span_source(slot)
                if got is None:
                    return None
                subs.append(got[0])
                terms.extend(got[1])
            else:
                terms.extend(slot)
                leaves = tuple(ia.IvTerm(t) for t in slot)
                subs.append(leaves[0] if len(leaves) == 1 else ia.IvSpanOr(leaves))
        return ia.IvSpanNear(tuple(subs), q.slop, q.in_order), terms

    def _eval_span(self, r: SegmentReader, q: Query, boost: float) -> _SparseScores:
        """SpanNearQuery, SpanPositionRangeQuery (SpanFirstQuery) and
        SpanNotQuery: the query's interval source (``_span_source``) through
        the two-phase loop shared with IntervalQuery. Slots with
        alternatives behave as SpanOr; nested SpanNearQuery slots chain by
        extents. freq = Σ 1/(1 + gaps) over the intervals in start order
        (SpanScorer sloppyFreq), scored through BM25 with the idf summed
        over every slot term."""
        empty = _SparseScores(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))
        got = self._span_source(q)
        if got is None:
            return empty
        src, terms = got
        docs, freqs = [], []
        for d, ivs in self._two_phase(r, src, None):
            docs.append(d)
            freqs.append(sum(1.0 / (1.0 + g) for _, _, _, g in ivs))
        if not docs:
            return empty
        fp = self._fp(None)
        tstats = [self.term_statistics(fp + t) for t in terms]
        return self._score_positional(r, tstats, docs, freqs, boost)

    def _two_phase(self, r: SegmentReader, src, field: str | None):
        """The positional engine's two-phase loop (IntervalQuery.java:59,
        IntervalScorer.java; the spans' ConjunctionDISI approximation). The
        docID approximation comes from the source's doc_plan (conjunction →
        postings intersect, disjunction → union, negative filters → positive
        side only); each candidate doc then runs the source's per-doc
        minimal-interval kernels. Yields ``(doc, intervals)`` for the docs
        with at least one interval, in doc order. Leaves with no field read
        ``field`` (None: the default field)."""
        from lucene_ray.functions import interval_algebra as ia

        leaves = sorted(src.leaf_terms(), key=lambda ft: (ft[0] or "", ft[1]))
        # per-leaf postings + flat positions, sliced per doc below
        post = {}
        for fld, t in leaves:
            i = r.term_index(self._fp(fld if fld is not None else field) + t)
            if i < 0:
                post[(fld, t)] = None
                continue
            docs_i, freqs_i = r.postings(int(i))
            starts = np.concatenate([[0], np.cumsum(freqs_i)])
            post[(fld, t)] = (docs_i, starts, r.positions(int(i)))

        def cand(s):
            if isinstance(s, ia.IvTerm):
                p = post.get((s.field, s.term))
                return p[0] if p is not None else np.empty(0, dtype=np.int32)
            mode, kids = s.doc_plan()
            if mode == "first":
                return cand(kids[0])
            sets = [cand(k) for k in kids]
            if mode == "and":
                out = sets[0]
                for d in sets[1:]:
                    out, _, _ = _intersect_sorted(out, d)
                    if not len(out):
                        break
                return out
            return (
                np.unique(np.concatenate(sets)).astype(np.int32)
                if sets
                else np.empty(0, dtype=np.int32)
            )

        for d in cand(src).tolist():
            env = {}
            for ft in leaves:
                p = post[ft]
                if p is None:
                    continue
                docs_i, starts, flat = p
                j = int(np.searchsorted(docs_i, d))
                if j < len(docs_i) and docs_i[j] == d:
                    env[ft] = flat[starts[j] : starts[j + 1]]
            ivs = src.intervals(env)
            if ivs:
                yield d, ivs

    def _eval_interval(self, r: SegmentReader, q: IntervalQuery, boost: float) -> _SparseScores:
        """IntervalQuery (IntervalQuery.java:59, IntervalScorer.java): the
        source's intervals from the two-phase loop, freq = Σ 1/max(extent -
        minExtent + 1, 1), scored through the saturation (or sigmoid)
        function — similarity-independent, bounded by boost."""
        from lucene_ray.functions import interval_algebra as ia

        def expand(s):
            # per-segment MultiTermIntervalsSource expansion (Intervals.prefix
            # / wildcard, default 128-term cap like the reference)
            if isinstance(s, ia.IvMultiTerm):
                fp = self._fp(s.field if s.field is not None else q.field)
                if s.kind == "prefix":
                    lo, hi = r.term_range(fp + s.pattern)
                    names = [r.terms[i][len(fp):] for i in range(lo, hi)]
                else:
                    import re as _re

                    rlo, rhi = r.term_range(fp) if fp else (0, r.n_terms)
                    pat = _re.compile(
                        "".join(
                            ".*" if c == "*" else "." if c == "?" else _re.escape(c)
                            for c in s.pattern
                        )
                    )
                    names = [
                        r.terms[i][len(fp):]
                        for i in range(rlo, rhi)
                        if pat.fullmatch(r.terms[i][len(fp):])
                    ]
                if len(names) > s.max_expansions:
                    raise RuntimeError(
                        f"Automaton [{s.pattern}] expanded to too many terms "
                        f"(limit {s.max_expansions})"
                    )
                if not names:
                    return ia.IvTerm("\x00nomatch", s.field)
                subs = tuple(ia.IvTerm(n, s.field) for n in names)
                return subs[0] if len(subs) == 1 else ia.IvOr(subs)
            if isinstance(s, ia.IvTerm):
                return s
            return ia._map_children(s, expand)

        src = expand(q.source)
        min_extent = src.min_extent()
        match_docs, scores = [], []
        for d, ivs in self._two_phase(r, src, q.field):
            freq = ia.interval_freq(ivs, min_extent)
            if q.exp is not None:
                s_ = ia.sigmoid_score(freq, q.pivot, q.exp, boost)
            else:
                s_ = ia.saturation_score(freq, q.pivot, boost)
            match_docs.append(d)
            scores.append(s_)
        return _SparseScores(
            np.array(match_docs, dtype=np.int32), np.array(scores, dtype=np.float64)
        )

    # ------------------------------------------------------------ block-max

    def _search_segment_wand(
        self, r: SegmentReader, scorers: dict, k: int, after
    ) -> tuple[list[ScoreDoc], int]:
        """Block-max pruned top-k for term/disjunction queries.

        Builds the interval grid from every term's 128-doc block boundaries;
        each interval's upper bound = Σ per-term block max-score
        (MaxScoreCache analogue). Intervals are visited in descending bound
        order; once the bound falls below the current k-th score, no remaining
        interval can place a doc in the top-k (WANDScorer pruning invariant),
        so iteration stops. Within a visited interval, scoring is the
        exhaustive vectorized kernel — results are exactly the top-k.

        Hit counting: exact up to the pruning point (the reference similarly
        reports a lower bound once pruning starts, TotalHits.Relation).

        ``scorers`` maps each query term that some document holds to its
        scorer, resolved once per query by ``search``.
        """
        from lucene_ray.functions.norms import encode_lengths

        infos = []
        for t, scorer in scorers.items():
            i = r.term_index(t)
            if i < 0:
                continue
            bld, blf, blm = r.skip_meta(i)
            imp = r.impacts(i)
            if imp is not None:
                # competitive impact pairs (CompetitiveImpactAccumulator
                # analogue): the block bound is the max score over the block's
                # Pareto-frontier (freq, length) pairs — tight, unlike the
                # (max freq, min length) cross-doc pairing below. Zero-copy
                # (counts, flat freqs, flat lengths) views from the reader.
                counts, flat_f, flat_l = imp
                if self.mode == "lucene":
                    pair_scores = scorer.score(
                        flat_f.astype(np.float32), encode_lengths(np.asarray(flat_l, dtype=np.int64))
                    )
                else:
                    pair_scores = scorer.score(
                        np.asarray(flat_f, dtype=np.float64),
                        np.asarray(flat_l, dtype=np.float64),
                    )
                ubs = np.maximum.reduceat(pair_scores, np.cumsum(counts) - counts)
            elif self.mode == "lucene":
                ubs = scorer.score(blf.astype(np.float32), encode_lengths(blm))
            else:
                ubs = scorer.score(blf.astype(np.float64), blm.astype(np.float64))
            infos.append((scorer, i, bld, np.asarray(ubs, dtype=np.float64)))
        if not infos:
            return [], 0

        boundaries = np.unique(np.concatenate([bld for _, _, bld, _ in infos]))
        # interval u = docIDs in (boundaries[u-1], boundaries[u]]; boundaries
        # are the union of every term's block ends, so each interval lies
        # inside exactly ONE block of each covering term — the unit of decode.
        ub_total = np.zeros(len(boundaries))
        for _, _, bld, ubs in infos:
            # block j of this term covers docs (bld[j-1], bld[j]]; map each
            # interval end to its covering block via searchsorted.
            blk = np.searchsorted(bld, boundaries)
            blk_c = np.minimum(blk, len(ubs) - 1)
            cover = boundaries <= bld[-1]
            ub_total += np.where(cover, ubs[blk_c], 0.0)

        stats = getattr(self, "last_wand_stats", None)
        if stats is not None:
            stats["blocks_total"] += int(sum(len(bld) for _, _, bld, _ in infos))
            stats["intervals_total"] += len(boundaries)
        order = np.argsort(-ub_total)
        # running top-k as arrays (score desc, doc_key asc) — ScoreDoc
        # objects are built only for the final k
        best_scores = np.empty(0, dtype=np.float64)
        best_keys = np.empty(0, dtype=object)
        nhits = 0
        visited_blocks: set[tuple[int, int]] = set()
        # Visit intervals in CHUNKS of descending-bound order: the per-chunk
        # score/union/heap work is vectorized across up to CHUNK_MAX
        # intervals, amortizing the Python per-interval overhead. The chunk
        # size ADAPTS: small (4) while the top-k is still filling — the
        # threshold moves fastest there, and small chunks preserve the
        # sequential WAND's block pruning — then doubles once the heap is
        # full. Exactness is unchanged — a chunk may *evaluate* a few
        # intervals a strictly sequential WAND would have pruned (the
        # threshold only tightens between chunks), never skip one it
        # wouldn't.
        CHUNK_MAX = 64
        chunk_size = 4
        pos = 0
        while pos < len(order):
            chunk = order[pos : pos + chunk_size]
            pos += chunk_size
            if len(best_scores) >= k:
                chunk_size = min(chunk_size * 2, CHUNK_MAX)
            exhausted = False
            if len(best_scores) >= k:
                thr = best_scores[-1]
                keep = ub_total[chunk] >= thr  # descending ⇒ prefix mask
                if not keep.all():
                    chunk = chunk[keep]
                    exhausted = True  # everything after this chunk is below thr
                if not len(chunk):
                    break
            chunk = np.sort(chunk)  # doc order within the chunk
            in_chunk = np.zeros(len(boundaries), dtype=bool)
            in_chunk[chunk] = True
            his_all = boundaries[chunk]
            subs = []
            for scorer, i, bld, _ in infos:
                # decode ONLY the blocks covering the chunk's intervals
                # (ImpactsDISI skip semantics: pruned blocks are never
                # decoded), then keep the docs whose interval is in the chunk
                js = sorted(set(np.searchsorted(bld, his_all[his_all <= bld[-1]]).tolist()))
                if not js:
                    continue
                visited_blocks.update((i, j) for j in js)
                blocks = [r.postings_block(i, j) for j in js]
                d = np.concatenate([b[0] for b in blocks])
                f = np.concatenate([b[1] for b in blocks])
                keep = in_chunk[np.searchsorted(boundaries, d)]
                d, f = d[keep], f[keep]
                if len(d):
                    subs.append(_SparseScores(d, self._score_arrays(r, scorer, d, f)))
            if stats is not None:
                stats["intervals_visited"] += len(chunk)
            if subs:
                sp = self._apply_live(r, self._union(subs))
                if len(sp.docs):
                    nhits += len(sp.docs)
                    # candidate filter (>= threshold: equal scores can still
                    # displace on doc_key ties), then tie-aware vectorized
                    # top-k merge — no per-doc Python objects
                    if len(best_scores) >= k:
                        m = sp.scores >= best_scores[-1]
                        docs_f, scores_f = sp.docs[m], sp.scores[m]
                    else:
                        docs_f, scores_f = sp.docs, sp.scores
                    if len(docs_f):
                        cs = np.concatenate([best_scores, scores_f])
                        ck = np.concatenate([best_keys, r.doc_keys[docs_f]])
                        if len(cs) > k:
                            # prune to score >= kth-largest, then full sort of
                            # that small tail by (-score, key)
                            s_k = np.partition(cs, len(cs) - k)[len(cs) - k]
                            keep_i = np.nonzero(cs >= s_k)[0]
                            cs, ck = cs[keep_i], ck[keep_i]
                        o = np.lexsort((ck, -cs))[:k]
                        best_scores, best_keys = cs[o], ck[o]
            if exhausted:
                break
        stats = getattr(self, "last_wand_stats", None)
        if stats is not None:
            stats["blocks_visited"] += len(visited_blocks)
        best = [
            ScoreDoc(best_keys[j], float(best_scores[j]))
            for j in range(len(best_scores))
        ]
        if after is not None:
            a_score, a_key = after
            best = [sd for sd in best if (-sd.score, sd.doc_key) > (-a_score, a_key)]
        return best, nhits
