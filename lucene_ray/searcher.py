"""IndexSearcher — query execution over manifest + segments.

The driver-side / in-actor search engine: loads the manifest's segments once
(search/IndexSearcher.java's DirectoryReader analogue), computes global
collection + term statistics by summing per-segment partials exactly like the
reference sums per-leaf stats (IndexSearcher.java:919-934, index/TermStates.
java), then scores each segment independently and selects one top-k over
every segment's matches with the (score desc, doc_key asc) comparator
(``_TopK``: per-leaf collection and TopDocs.merge, search/TopDocs.java:
202-227, in one step).

Physical plans (Boolean2ScorerSupplier.java:30-247 analogue):

* ``exhaustive`` — vectorized term-at-a-time over numpy arrays: decode each
  term's postings once, combine with sorted-array union/intersection kernels
  (ConjunctionDISI / DisjunctionSumScorer equivalents). Exact.
* ``wand`` — MaxScore top-k for term queries and pure disjunctions
  (MaxScoreBulkScorer.java): cached block-max score bounds from the
  competitive impacts (ImpactsDISI / MaxScoreCache), doc-ID windows visited
  in descending bound order until the bound drops below the k-th score.
  Exact — verified pruned == exhaustive by tests (TestWANDScorer property).

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

import bisect
import contextlib
import math
from dataclasses import dataclass

import numpy as np

from lucene_ray.cache import LRUCache
from lucene_ray.functions.norms import encode_lengths
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
from lucene_ray.state.segment import (
    BLOCK_SIZE,
    POS_BITS,
    POS_SHIFT,
    SegmentReader,
    TermDictionary,
    read_parquet,
)

# entry bounds of the caches the searcher owns: what depends on its
# statistics or config. Per-reader bounds scale with the searcher's readers.
TERM_STATS_RANGE_CACHE_ENTRIES = 8  # lazily loaded term-stats range files
TERM_STATS_RANGE_CACHE_BYTES = 256 << 20  # ... and their dictionaries' bytes
TERM_SCORE_CACHE_ENTRIES = 128  # per reader: (docs, BM25 scores) of a term
TERM_SCORE_CACHE_BYTES = 32 << 20  # ... and their bytes, per reader
TERM_BOUND_CACHE_ENTRIES = 512  # per reader: block and window score bounds of a term
TERM_BOUND_CACHE_BYTES = 4 << 20  # ... and their bytes, per reader
FILTER_CACHE_ENTRIES = 64  # per reader: matching docs of a filter clause
JOIN_CACHE_ENTRIES = 16  # from-side (value -> score) tables of joins
EXPANSION_CACHE_ENTRIES = 4096  # complex-phrase and span slot expansions
PARSE_CACHE_ENTRIES = 1024  # parsed query strings
# doc IDs per step of the disjunction top-k (MaxScoreBulkScorer's
# INNER_WINDOW_SIZE)
MAXSCORE_WINDOW = 4096


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


class _TopK:
    """The one top-k collector of ``IndexSearcher.search``: every segment
    hands in its live matches as (docs, scores) arrays, and ``top`` selects
    the k best by (score desc, doc_key asc) once over all of them — the
    per-leaf TopScoreDocCollector and TopDocs.merge (search/TopDocs.java:
    202-227) in one step. One k-th-score threshold over every segment's
    scores keeps the docs at or above it; past k × (segments + 1) of them,
    each segment's tie group at the threshold is cut to its smallest doc
    keys (integer key ranks). The survivors are sorted once. MaxScore
    (``IndexSearcher._search_wand``) carries its k-th score across global
    doc-ID windows itself and hands in each reader's survivors."""

    def __init__(self, k: int):
        self.k = k
        self.parts: list[tuple[SegmentReader, np.ndarray, np.ndarray]] = []

    def collect(self, r: SegmentReader, docs: np.ndarray, scores: np.ndarray) -> None:
        if len(docs):
            self.parts.append((r, docs, scores))

    def _scores(self) -> np.ndarray:
        if len(self.parts) == 1:
            return self.parts[0][2]
        return np.concatenate([s for _, _, s in self.parts] or [np.empty(0)])

    def top(self) -> list[ScoreDoc]:
        parts, k = self.parts, self.k
        if not parts:
            return []
        scores = self._scores()
        n = len(scores)
        if n > k:
            kth = np.partition(scores, n - k)[n - k]
            keep = []
            for r, d, s in parts:
                m = s >= kth
                keep.append((r, d[m], s[m]))
            if sum(len(d) for _, d, _ in keep) > k * (len(parts) + 1):
                # fewer than k docs score above kth; of the tie group at it
                # each segment can place at most the rest, and those are its
                # smallest doc keys (integer key ranks)
                need = k - sum(int(np.count_nonzero(s > kth)) for _, _, s in keep)
                for i, (r, d, s) in enumerate(keep):
                    eq = np.flatnonzero(s == kth)
                    if len(eq) > need:
                        m = s > kth
                        m[eq[np.argpartition(r.key_rank[d[eq]], need - 1)[:need]]] = True
                        keep[i] = (r, d[m], s[m])
            parts = keep
            scores = np.concatenate([s for _, _, s in parts])
        keys = (np.concatenate([r.doc_keys[d] for r, d, _ in parts]) if len(parts) > 1
                else parts[0][0].doc_keys[parts[0][1]])
        order = np.lexsort((keys, -scores))[:k].tolist()
        return [ScoreDoc(keys[i], float(scores[i])) for i in order]


def _after(r: SegmentReader, docs: np.ndarray, scores: np.ndarray, after: tuple):
    """Keyset pagination: the matches strictly after the (score, key)
    anchor, kept BEFORE top-k selection (PagingTopScoreDocCollector,
    TopScoreDocCollector.java:104-114)."""
    a_score, a_key = after
    m = (scores < a_score) | ((scores == a_score) & (r.doc_keys[docs] > a_key))
    return docs[m], scores[m]


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


def _lookup(docs: np.ndarray, scores: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """The float64 ``scores`` of the sorted unique ``cand`` in postings
    ``docs``, 0 where absent."""
    col = np.zeros(len(cand))
    _, ic, idoc = _intersect_sorted(cand, docs)
    col[ic] = scores[idoc]
    return col


class _SparseScores:
    """(sorted docIDs, scores, match_counts) triple — the per-segment IR."""

    __slots__ = ("docs", "scores", "counts")

    def __init__(self, docs, scores, counts=None):
        self.docs = docs
        self.scores = scores
        self.counts = counts if counts is not None else np.ones(len(docs), dtype=np.int32)


_EMPTY = _SparseScores(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))


def _const(docs: np.ndarray, boost: float) -> _SparseScores:
    """Constant-score matches: every doc scores ``boost``."""
    return _SparseScores(docs, np.full(len(docs), boost))


def _summed_tf(postings) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-doc Σ freq over several ``(docs, freqs)`` postings: the sorted
    int32 docIDs and float64 summed freqs; None when none holds a doc."""
    parts = [(d, f) for d, f in postings if len(d)]
    if not parts:
        return None
    uniq, inv = np.unique(np.concatenate([d for d, _ in parts]), return_inverse=True)
    tf = np.zeros(len(uniq))
    np.add.at(tf, inv, np.concatenate([f for _, f in parts]).astype(np.float64))
    return uniq.astype(np.int32), tf


def _aggregate(keys: np.ndarray, scores: np.ndarray, mode: str, boost: float):
    """Group ``scores`` by ``keys`` under a join ScoreMode (none/sum/max/avg
    — JoinUtil and ToParentBlockJoinQuery): the sorted unique keys and each
    group's score ("none" scores every group ``boost``)."""
    uniq, inv = np.unique(keys, return_inverse=True)
    if mode == "none":
        return uniq, np.full(len(uniq), boost)
    sums = np.zeros(len(uniq))
    np.add.at(sums, inv, scores)
    if mode == "sum":
        return uniq, sums
    if mode == "max":
        agg = np.full(len(uniq), -np.inf)
        np.maximum.at(agg, inv, scores)
        return uniq, agg
    if mode == "avg":
        return uniq, sums / np.bincount(inv, minlength=len(uniq))
    raise ValueError(f"unknown score_mode {mode!r}")


class _QueryTerms:
    """The terms one query has resolved (the TermStates analogue, built once
    at Weight creation in the reference): each segment's ordinal by
    (reader, dictionary key), global statistics by key, and scorers by
    (key, boost, field). Lives for one query, so it is bounded by the
    query's own terms."""

    __slots__ = ("ords", "stats", "scorers")

    def __init__(self):
        self.ords: dict[tuple, int] = {}
        self.stats: dict[str, TermStatistics] = {}
        self.scorers: dict[tuple, object] = {}


class GlobalTermStats:
    """The materialized global term dictionary (index-time groupby(term).sum
    over per-segment partials — pipelines/index_pipeline.build_term_stats):
    a ``TermDictionary`` with doc_freq and total_tf arrays in key order;
    every searcher actor loads it once so all actors score with identical
    statistics."""

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
            # file -> (TermDictionary, df, ttf)
            self._range_cache = LRUCache(TERM_STATS_RANGE_CACHE_ENTRIES,
                                         TERM_STATS_RANGE_CACHE_BYTES)
            return
        self.term_dict, self.doc_freq, self.total_tf = self._read_range(path)

    @property
    def terms(self) -> np.ndarray:
        """Every key as a Python string, in order (eager mode), built on
        first use: lookups never need it."""
        return self.term_dict.terms

    @staticmethod
    def _read_range(path: str):
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        t = pq.read_table(path, columns=["term", "doc_freq", "total_tf"])
        terms = t.column("term").combine_chunks()
        # concatenation order across range files is not guaranteed — re-sort
        # when needed (no-op for the single-file layout, written sorted)
        if len(terms) > 1 and not pc.all(pc.less_equal(terms[:-1], terms[1:])).as_py():
            t = t.take(pc.sort_indices(terms))
            terms = t.column("term").combine_chunks()
        return (TermDictionary(terms), t.column("doc_freq").to_numpy(),
                t.column("total_tf").to_numpy())

    def lookup(self, term: str) -> tuple[int, int]:
        if self.eager:
            terms, df, ttf = self.term_dict, self.doc_freq, self.total_tf
        else:
            j = bisect.bisect_right(self._file_min, term) - 1
            if j < 0 or term > self._file_max[j]:
                # before the first range file or in the gap between two — a
                # definite miss; don't read (and LRU-pollute with) a file
                # that can't hold it
                return 0, 0
            f = self._files[j]
            terms, df, ttf = self._range_cache.get_or_put(f, lambda: self._read_range(f))
        i = terms.index(term)
        return (int(df[i]), int(ttf[i])) if i >= 0 else (0, 0)


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
                t = read_parquet(os.path.join(r.dir, f"dv-{field}-{dv_gen}.parquet"))
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
        # term statistics: a searcher over every segment sums its readers'
        # partials (term_statistics); one over a strict subset cannot see
        # the rest of the index and reads the global dictionary instead
        ts_path = os.path.join(index_dir, f"term_stats-{manifest.gen}.parquet")
        self.global_term_stats = (
            GlobalTermStats(ts_path)
            if len(dirs) < len(manifest.segments) and os.path.exists(ts_path) else None)
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
        self._term_scores = LRUCache(TERM_SCORE_CACHE_ENTRIES * n, TERM_SCORE_CACHE_BYTES * n)
        self._term_bounds = LRUCache(TERM_BOUND_CACHE_ENTRIES * n, TERM_BOUND_CACHE_BYTES * n)
        self._filters = LRUCache(FILTER_CACHE_ENTRIES * n)
        self._joins = LRUCache(JOIN_CACHE_ENTRIES)
        self._expansions = LRUCache(EXPANSION_CACHE_ENTRIES)
        self._parsed = LRUCache(PARSE_CACHE_ENTRIES)
        self.mode = mode if similarity is None else "exact"
        if similarity is not None:
            self.sim = similarity
        else:
            self.sim = BM25Similarity() if mode == "lucene" else BM25ExactSimilarity()
        self._query_terms: _QueryTerms | None = None
        self._space = None  # see _doc_space
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

    def _term_ord(self, r: SegmentReader, term: str) -> int:
        """``r``'s ordinal of dictionary key ``term`` (-1 if absent), probed
        once per query: the statistics and every evaluator of the query
        read it from there."""
        memo = self._query_terms
        if memo is None:
            return r.term_index(term)
        key = (r, term)
        i = memo.ords.get(key)
        if i is None:
            i = memo.ords[key] = r.term_index(term)
        return i

    def term_statistics(self, term: str) -> TermStatistics:
        """The term's statistics over the whole index: the sums of the
        readers' partials at their ``_term_ord`` (TermStates.build), or the
        global dictionary's for a searcher over a subset of the segments."""
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
                i = self._term_ord(r, term)
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
        analogue).

        Parsed queries are kept by string (frozen, and the analyzer and
        the numeric fields are fixed for the searcher's life); a string
        that fails to parse is not kept and raises on every call."""
        q = self._parsed.get(s)
        return q if q is not None else self._parsed.put(s, self._parse(s))

    def _parse(self, s: str) -> Query:
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
        if k < 1:  # TopScoreDocCollector rejects numHits <= 0 the same way
            raise ValueError(f"k must be >= 1, got {k}; count() gives the hit count")
        if isinstance(query, str):
            query = self.parse(query)
        with self._query_scope():
            if (search_after is None and self._wand_eligible(query)
                    and (algo == "wand" or (algo == "auto" and self._wand_worthwhile(query)))):
                return self._search_wand(
                    [(t.term, boost, scorer) for t, boost in self._wand_clauses(query)
                     if (scorer := self._term_scorer(t.term, boost, t.field)) is not None], k)
            top = _TopK(k)
            total = 0
            for r in self.readers:
                sp = self._apply_live(r, self._eval(r, query))
                docs, scores = sp.docs, sp.scores
                total += len(docs)
                if search_after is not None:
                    docs, scores = _after(r, docs, scores, search_after)
                top.collect(r, docs, scores)
        return TopDocs(total, top.top())

    def matches(self, query: Query | str):
        """The live matches of ``query``, one segment at a time: yields
        ``(reader, docs, scores)`` — sorted local docIDs and their scores —
        for each segment with at least one live match. Strings parse through
        ``parse``; every term resolves once for the whole iteration."""
        if isinstance(query, str):
            query = self.parse(query)
        with self._query_scope():
            for r in self.readers:
                sp = self._apply_live(r, self._eval(r, query))
                if len(sp.docs):
                    yield r, sp.docs, sp.scores

    def count(self, query: Query | str) -> int:
        return sum(len(docs) for _, docs, _ in self.matches(query))

    def rescore(self, topdocs: TopDocs, query: Query | str, *,
                weight: float = 1.0, k: int | None = None) -> TopDocs:
        """QueryRescorer (search/QueryRescorer.java:40): re-rank the top-k
        by ``first_pass_score + weight × rescore_query_score(doc)`` — the
        cheap-query-then-expensive-query pattern. Docs the rescore query
        does not match keep their first-pass score (combine(..., false)
        semantics).

        Cost note: the vectorized engine has no per-doc scorer advance, so
        the rescore query is evaluated ONCE per segment (full postings
        eval, then filtered to the top-k keys) — unlike the reference's
        advance-to-hit scorers. That is fine for the intended shape (a
        heavier query over a k-sized candidate list whose eval cost is
        dominated by per-query setup)."""
        k = k or len(topdocs.score_docs)
        keys = {sd.doc_key for sd in topdocs.score_docs}
        second: dict = {}
        for r, docs, scores in self.matches(query):
            for d, sc in zip(docs.tolist(), scores.tolist()):
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
            with self._query_scope():
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
            # the length of the term's own field (0 for a field not indexed)
            dl = (float(self._field_norms(r, q.field)[1][doc]) if not self._multi
                  or (q.field or self.default_field) in self.fields else 0.0)
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
                        {"description": "dl", "value": dl, "match": True,
                         "details": []},
                    ]}
        v = value_of(q, boost)
        return {"description": type(q).__name__, "value": v, "match": v != 0.0,
                "details": []}

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

    @staticmethod
    def _wand_clauses(q: Query):
        """(TermQuery, boost) per clause of a term query or a pure
        disjunction of term queries, each optionally boosted by a factor
        >= 0 — the WANDScorer shape (Boolean2ScorerSupplier.java:242-247) —
        else None."""
        subs = [q]
        if isinstance(q, BooleanQuery):
            if q.must or q.must_not or q.filter or q.minimum_should_match > 1:
                return None
            subs = q.should
        out = []
        for s in subs:
            boost = 1.0
            if isinstance(s, BoostQuery) and s.boost >= 0:
                s, boost = s.query, float(s.boost)
            if not isinstance(s, TermQuery):
                return None
            out.append((s, boost))
        return out

    def _wand_eligible(self, q: Query) -> bool:
        return not self._multi and self._wand_clauses(q) is not None

    # below this many total postings the vectorized exhaustive kernel wins:
    # the Python-driven window walk costs tens of µs per window, so pruning
    # has to save at least a few dozen 128-doc block decodes to pay for it.
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
        """One segment's matches of ``q`` (deleted docs included), through
        the evaluator of its exact type."""
        ev = self._EVALUATORS.get(type(q))
        if ev is None:
            raise TypeError(f"unsupported query {q!r}")
        return ev(self, r, q, boost)

    def _eval_term(self, r: SegmentReader, q: TermQuery, boost: float) -> _SparseScores:
        if self._multi and q.field and q.field not in self.fields:
            return _EMPTY
        full = self._fp(q.field) + q.term
        ti = self._term_ord(r, full)
        if ti < 0:
            return _EMPTY
        # per-(segment, term, boost) score cache: BM25 term scores are a
        # pure function of the searcher's (fixed) global stats + per-doc
        # norms, so a warm searcher serves repeated terms without re-scoring
        ckey = (r, ti, float(boost))
        hit = self._term_scores.get(ckey)
        if hit is not None:
            return _SparseScores(hit[0], hit[1])
        scorer = self._term_scorer(full, boost, q.field)
        if scorer is None:
            return _EMPTY
        docs, freqs = r.postings(ti)
        if not len(docs):
            return _EMPTY
        scores = self._score_arrays(r, scorer, docs, freqs, q.field)
        self._term_scores.put(ckey, (docs, scores))
        return _SparseScores(docs, scores)

    def _eval_payload(self, r: SegmentReader, q: PayloadScoreQuery,
                      boost: float) -> _SparseScores:
        """queries/payloads/PayloadScoreQuery.java: per-doc aggregate of the
        term's occurrence payloads (stream is doc-major, so one
        ufunc.reduceat per segment), optionally × the term's own score."""
        ti = self._term_ord(r, self._fp(q.field) + q.term)
        if ti < 0:
            return _EMPTY
        docs, freqs = r.postings(ti)
        if not len(docs):
            return _EMPTY
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

    def _eval_function_score(self, r: SegmentReader, q: FunctionScoreQuery,
                             boost: float) -> _SparseScores:
        sub = self._eval(r, q.query, boost)
        if not len(sub.docs):
            return sub
        dv = {name: arr[sub.docs] for name, arr in r.doc_values.items()}
        new_scores = np.asarray(q.fn(sub.scores, dv), dtype=np.float64)
        return _SparseScores(sub.docs, new_scores, sub.counts)

    def _eval_ordinals(self, r: SegmentReader, q: Query, boost: float) -> _SparseScores:
        """MultiTermQuery CONSTANT_SCORE rewrite: the dictionary ordinals
        ``_ORDINALS`` accepts for the query's type; their docs union and
        score ``boost``."""
        ords = self._ORDINALS[type(q)](self, r, self._fp(q.field), q)
        return _const(self._union_docs(r, ords), boost)

    def _term_range_ords(self, r: SegmentReader, fp: str, q: TermRangeQuery):
        lo, hi = r.term_range(fp)  # an open end stops at the field's terms
        if q.lower is not None:
            lo = r.bisect(fp + q.lower, side="left" if q.include_lower else "right")
        if q.upper is not None:
            hi = r.bisect(fp + q.upper, side="right" if q.include_upper else "left")
        return range(lo, hi)

    # -- doc values, points and geo

    def _eval_numeric_range(self, r: SegmentReader, q: NumericRangeQuery,
                            boost: float) -> _SparseScores:
        """BKD-style pruning: binary search the per-reader sorted column
        (PointRangeQuery over Lucene90PointsFormat semantics) — only the
        in-range docs are ever touched, not an O(maxDoc) mask."""
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
            return _EMPTY
        return _const(np.sort(od[lo_i:hi_i]), boost)

    def _kd_boxes(self, r: SegmentReader, kd, boxes) -> list[np.ndarray]:
        """The candidate docs of each kd-tree box, counted into
        ``range_stats`` (the segment's max_doc once)."""
        st = self.range_stats
        out = []
        for box in boxes:
            cand, examined = kd.box(*box)
            st["docs_examined"] += examined + len(cand)
            out.append(cand)
        st["max_doc_total"] += r.max_doc
        return out

    def _eval_point_box(self, r: SegmentReader, q: PointBoxQuery,
                        boost: float) -> _SparseScores:
        kd = r.kd_index(q.field_x, q.field_y)
        return _const(self._kd_boxes(r, kd, [(q.x0, q.x1, q.y0, q.y1)])[0], boost)

    def _eval_point_nd(self, r: SegmentReader, q: PointNDRangeQuery,
                       boost: float) -> _SparseScores:
        kd = r.kd_index_nd(q.fields)
        return _const(self._kd_boxes(r, kd, [(q.lows, q.highs)])[0], boost)

    def _eval_geo_polygon(self, r: SegmentReader, q: GeoPolygonQuery,
                          boost: float) -> _SparseScores:
        from lucene_ray.functions.points import (polygon_bounding_box,
                                                 polygon_contains)

        kd = r.kd_index(q.lat_field, q.lon_field)
        cand = self._kd_boxes(r, kd, [polygon_bounding_box(q.rings)])[0]
        if not len(cand):
            return _EMPTY
        keep = polygon_contains(r.doc_values[q.lat_field][cand],
                                r.doc_values[q.lon_field][cand], q.rings)
        return _const(cand[keep], boost)

    def _eval_geo_distance(self, r: SegmentReader, q: GeoDistanceQuery,
                           boost: float) -> _SparseScores:
        from lucene_ray.functions.points import distance_bounding_boxes, haversine_meters

        kd = r.kd_index(q.lat_field, q.lon_field)
        parts = []
        for cand in self._kd_boxes(r, kd, distance_bounding_boxes(q.lat, q.lon, q.radius_m)):
            if len(cand):
                d = haversine_meters(r.doc_values[q.lat_field][cand],
                                     r.doc_values[q.lon_field][cand], q.lat, q.lon)
                parts.append(cand[d <= q.radius_m])
        docs = np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int32)
        return _const(docs, boost)

    def _eval_dv_term(self, r: SegmentReader, q: DocValuesTermQuery,
                      boost: float) -> _SparseScores:
        return _const(np.flatnonzero(r.doc_values[q.field] == q.value).astype(np.int32), boost)

    def _eval_sorted_set(self, r: SegmentReader, q: SortedSetContainsQuery,
                         boost: float) -> _SparseScores:
        dv = r.sorted_set_dv.get(q.field)
        if dv is None:
            raise KeyError(
                f"no SortedSet doc-values column {q.field!r} in segment "
                f"{r.name}")
        offsets, codes, vocab = dv
        oi = int(np.searchsorted(vocab, q.value))
        if oi >= len(vocab) or vocab[oi] != q.value:
            return _EMPTY
        # positions of the matching ordinal → owning docs via the offsets
        # (one searchsorted; no per-doc loop)
        hits = np.flatnonzero(codes == oi)
        docs = np.unique(np.searchsorted(offsets, hits, side="right") - 1).astype(np.int32)
        return _const(docs, boost)

    # -- compound

    def _eval_covering(self, r: SegmentReader, q: CoveringQuery,
                       boost: float) -> _SparseScores:
        u = self._union([self._eval(r, sub, boost) for sub in q.queries], r.max_doc)
        if not len(u.docs):
            return u
        mins = np.asarray(r.doc_values[q.min_match_field][u.docs], dtype=np.int64)
        keep = u.counts >= mins
        return _SparseScores(u.docs[keep], u.scores[keep], u.counts[keep])

    def _eval_dismax(self, r: SegmentReader, q: DisjunctionMaxQuery,
                     boost: float) -> _SparseScores:
        return self._dismax([self._eval(r, d, boost) for d in q.disjuncts], q.tie_breaker)

    @staticmethod
    def _union_docs(r: SegmentReader, ords) -> np.ndarray:
        """Sorted docs holding any term among dictionary ordinals ``ords``
        (a range, or ordinals in any order): one ``postings_range`` read per
        run of adjacent ordinals, then one scatter into a bitmap
        (MultiTermQueryConstantScoreWrapper → DocIdSetBuilder)."""
        if isinstance(ords, range):
            runs = [(ords.start, ords.stop)]
        else:
            o = np.unique(np.asarray(ords, dtype=np.int64))
            gap = np.diff(o) != 1
            runs = zip(o[np.r_[True, gap]].tolist(),
                       (o[np.r_[gap, True]] + 1).tolist()) if len(o) else ()
        docs = np.concatenate([np.empty(0, dtype=np.int32)]
                              + [r.postings_range(lo, hi)[0] for lo, hi in runs])
        if len(docs) * 4 > r.max_doc:
            # dense: an O(max_doc) bitmap beats an O(n log n) sort-unique
            mask = np.zeros(r.max_doc, dtype=bool)
            mask[docs] = True
            return np.flatnonzero(mask).astype(np.int32)
        return np.unique(docs)

    @staticmethod
    def _union(subs: list[_SparseScores], max_doc: int | None = None) -> _SparseScores:
        subs = [s for s in subs if len(s.docs)]
        if not subs:
            return _EMPTY
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
            return _EMPTY
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
        result: _SparseScores | None = None
        for m in q.must:
            sub = self._eval(r, m, boost)
            result = sub if result is None else self._intersect(result, sub)
            if not len(result.docs):
                return _EMPTY
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
                return _EMPTY
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
            return _EMPTY
        for mn in q.must_not:
            sub = self._eval(r, mn)
            result = self._exclude(result, sub.docs)
            if not len(result.docs):
                return _EMPTY
        return result

    def _join_lut(self, q: JoinQuery, boost: float):
        """Global (from_field value → aggregated score) map for a JoinQuery —
        computed ONCE across all segments per (query, boost) and cached
        (JoinUtil's first phase: collect fromField terms + scores)."""
        return self._joins.get_or_put((q, float(boost)),
                                      lambda: self._join_table(q, boost))

    def _join_table(self, q: JoinQuery, boost: float):
        vals, scores = [], []
        for r, docs, sc in self.matches(BoostQuery(q.from_query, boost)):
            vals.append(np.asarray(r.doc_values[q.from_field][docs]))
            scores.append(sc)
        if not vals:
            return np.empty(0), np.empty(0)
        return _aggregate(np.concatenate(vals), np.concatenate(scores), q.score_mode, boost)

    def _eval_join(self, r: SegmentReader, q: JoinQuery, boost: float) -> _SparseScores:
        uniq, agg = self._join_lut(q, boost)
        if not len(uniq):
            return _EMPTY
        tvals = np.asarray(r.doc_values[q.to_field])
        pos = np.searchsorted(uniq, tvals)
        pos_c = np.minimum(pos, len(uniq) - 1)
        m = uniq[pos_c] == tvals
        docs = np.flatnonzero(m).astype(np.int32)
        if not len(docs):
            return _EMPTY
        return _SparseScores(docs, agg[pos_c[m]])

    # ---------------------------------------------------------- block join

    def _eval_block_join_parent(self, r: SegmentReader, q: ToParentBlockJoinQuery,
                                boost: float) -> _SparseScores:
        child = self._eval(r, q.child_query, boost)
        if not len(child.docs):
            return _EMPTY
        parents = r.parent_docs()
        # a parent matching the child query joins nothing
        mask = r.doc_values["is_parent"][child.docs] == 0
        cdocs = child.docs[mask]
        cscores = child.scores[mask]
        if not len(cdocs):
            return _EMPTY
        pi = np.searchsorted(parents, cdocs, side="left")  # next parent >= child
        ok = pi < len(parents)
        uniq, out = _aggregate(parents[pi[ok]], cscores[ok], q.score_mode, boost)
        return _SparseScores(uniq.astype(np.int32), out)

    def _eval_block_join_child(self, r: SegmentReader, q: ToChildBlockJoinQuery,
                               boost: float) -> _SparseScores:
        parent = self._eval(r, q.parent_query, boost)
        if not len(parent.docs):
            return _EMPTY
        parents = r.parent_docs()
        is_parent = r.doc_values["is_parent"]
        keep = is_parent[parent.docs] != 0
        pdocs = parent.docs[keep]
        pscores = parent.scores[keep]
        if not len(pdocs):
            return _EMPTY
        pi = np.searchsorted(parents, pdocs)  # position of each parent
        starts = np.where(pi > 0, parents[np.maximum(pi - 1, 0)] + 1, 0)
        counts = pdocs - starts  # children per block
        m = counts > 0
        pdocs, pscores, starts, counts = pdocs[m], pscores[m], starts[m], counts[m]
        if not len(pdocs):
            return _EMPTY
        total = int(counts.sum())
        run = np.concatenate([[0], np.cumsum(counts)[:-1]])
        docs = (np.repeat(starts - run, counts)
                + np.arange(total, dtype=np.int64)).astype(np.int32)
        scores = np.repeat(pscores, counts)
        return _SparseScores(docs, scores)

    # ----------------------------- dictionary enumeration / fuzzy / synonym

    def _mtq_range(self, r: SegmentReader, fp: str, literal: str) -> tuple[int, int]:
        """[lo, hi) of the dictionary slice a multi-term pattern with this
        literal prefix must scan; the field's whole dictionary counts into
        ``mtq_stats["terms_total"]`` (what a naive scan would walk)."""
        flo, fhi = r.term_range(fp)
        self.mtq_stats["terms_total"] += fhi - flo
        return r.term_range(fp + literal)

    def _char_filtered(self, r: SegmentReader, fp: str, req: np.ndarray,
                       lo: int, hi: int, accept) -> list[int]:
        """Indices in [lo, hi) whose term (minus ``fp``) ``accept``s, with
        the verify run only on terms whose character histogram dominates
        ``req`` — the vectorized counting filter for patterns with no
        literal prefix to bound the scan."""
        from lucene_ray.state.segment import char_count_vec

        if fp:
            req = req + char_count_vec(fp)
        surv = lo + np.flatnonzero((r.char_counts[lo:hi] >= req).all(axis=1))
        self.mtq_stats["terms_scanned"] += len(surv)
        return [int(i) for i in surv if accept(r.term_at(int(i))[len(fp):])]

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
        lo, hi = self._mtq_range(r, fp, lit)
        auto = WildcardAutomaton(pattern)
        if not lit and hi - lo > 64:
            req = required_char_vec(pattern)
            if req is not None:
                return self._char_filtered(r, fp, req, lo, hi, auto.run)
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

        from lucene_ray.functions.automaton import regex_required_char_vec

        lit = _regex_literal_prefix(pattern)
        lo, hi = self._mtq_range(r, fp, lit)
        if hi <= lo:
            return []
        if not lit and hi - lo > 64:
            req = regex_required_char_vec(pattern)
            if req is not None:
                return self._char_filtered(r, fp, req, lo, hi, _re.compile(pattern).fullmatch)
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
        lo, hi = self._mtq_range(r, fp, base[:prefix_length])
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
            subs.append(self._eval(r, TermQuery(cand), boost * tb))
        return self._dismax(subs, 0.0)

    def _eval_synonym(self, r: SegmentReader, q: SynonymQuery, boost: float) -> _SparseScores:
        """One pseudo-term (SynonymQuery.java:52-214): per-doc tf = Σ tf over
        synonyms, statistics blended as df = max docFreq, ttf = Σ (documented
        blend), scored through BM25 once."""
        fp = self._fp(None)
        stats = [self.term_statistics(fp + t) for t in q.terms]
        stats = [s for s in stats if s.doc_freq > 0]
        if not stats:
            return _EMPTY
        blended = TermStatistics(
            "|".join(q.terms),
            max(s.doc_freq for s in stats),
            sum(s.total_term_freq for s in stats),
        )
        got = _summed_tf([r.postings(self._term_ord(r, fp + t)) for t in q.terms])
        if got is None:
            return _EMPTY
        docs, tf = got
        scorer = self.sim.scorer(self._field_cstats(None), blended, boost=boost)
        return _SparseScores(docs, self._score_arrays(r, scorer, docs, tf))

    def _eval_combined_field(self, r: SegmentReader, q: CombinedFieldQuery,
                             boost: float) -> _SparseScores:
        """BM25F combined-field scoring (sandbox CombinedFieldQuery.java):
        one pseudo-term over every (field, term) pair — see the Query
        docstring for the exact statistic blend. Exact mode scores the true
        weighted length sum; lucene mode re-encodes it through SmallFloat
        like MultiNormsLeafSimScorer.MultiFieldNormValues (:148-151)."""
        from types import SimpleNamespace

        from lucene_ray.state.segment import FIELD_SEP

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
            return _EMPTY
        pseudo_cstats = SimpleNamespace(
            max_doc=self.collection_stats.max_doc, doc_count=doc_count,
            sum_doc_freq=sum_df, sum_total_term_freq=sum_ttf,
        )
        pseudo_ts = TermStatistics("pseudo_term", df, max(1.0, ttf))
        scorer = self.sim.scorer(pseudo_cstats, pseudo_ts, boost=boost)

        parts = []
        for f, w in q.fields:
            for t in q.terms:
                d, fr = r.postings(self._term_ord(r, f + FIELD_SEP + t))
                parts.append((d, w * fr.astype(np.float64)))
        got = _summed_tf(parts)
        if got is None:
            return _EMPTY
        uniq, tf = got
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
        kind = spec[0]
        if kind == "term":
            return [spec[1]] if any(
                r.term_index(fp + spec[1]) >= 0 for r in self.readers
            ) else []
        if kind not in ("prefix", "wildcard", "fuzzy"):
            raise TypeError(f"unknown expansion spec {spec!r}")
        out: list[str] = []
        for r in self.readers:
            if kind == "prefix":
                ords = range(*r.term_range(fp + spec[1]))
            elif kind == "wildcard":
                ords = self._wildcard_idxs(r, fp, spec[1])
            else:
                ords = self._fuzzy_match_idxs(r, fp, spec[1], spec[2], 0)
            out.extend(r.term_at(i)[len(fp):] for i in ords)
        return out

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
            return _EMPTY
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
        if self._multi and q.field and q.field not in self.fields:
            return _EMPTY
        if isinstance(q, PhraseQuery):
            slots = [(t,) for t in q.terms]
        else:
            slots = list(q.positions)
        if not slots:
            return _EMPTY
        if len(slots) == 1 and len(slots[0]) == 1:
            # a one-term phrase rewrites to a TermQuery (PhraseQuery /
            # MultiPhraseQuery rewrite; the matcher needs >= 2 positions)
            return self._eval(r, TermQuery(slots[0][0], q.field), boost)
        fp = self._fp(q.field)
        slot_keys: list[np.ndarray] = []
        for slot in slots:
            parts = [r.poskeys(i)
                     for i in (self._term_ord(r, fp + t) for t in slot) if i >= 0]
            if not parts:
                return _EMPTY  # no accepted term of this slot exists here
            # distinct terms never share a position, so the union is disjoint
            slot_keys.append(parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts)))

        if q.slop == 0:
            cand = slot_keys[0]
            for j in range(1, len(slot_keys)):
                cand, _, _ = _intersect_sorted(cand, slot_keys[j] - j)
                if not len(cand):
                    return _EMPTY
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
                    return _EMPTY
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
                return _EMPTY
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
        got = self._span_source(q)
        if got is None:
            return _EMPTY
        src, terms = got
        docs, freqs = [], []
        for d, ivs in self._two_phase(r, src, None):
            docs.append(d)
            freqs.append(sum(1.0 / (1.0 + g) for _, _, _, g in ivs))
        if not docs:
            return _EMPTY
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
            i = self._term_ord(r, self._fp(fld if fld is not None else field) + t)
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
                    ords = range(*r.term_range(fp + s.pattern))
                else:
                    ords = self._wildcard_idxs(r, fp, s.pattern)
                names = [r.term_at(i)[len(fp):] for i in ords]
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

    # ------------------------------------------------------------ MaxScore

    def _doc_space(self) -> tuple[list[int], list[int]]:
        """(bases, window starts) of the searcher's global doc-ID space:
        reader ``i``'s doc ``d`` is global doc ``bases[i] + d`` (a composite
        reader's docBase; ``bases[-1]`` is the total ``max_doc``). Windows
        are at most MAXSCORE_WINDOW IDs wide: a reader that does not fit in
        the current window opens windows at its base and every
        MAXSCORE_WINDOW IDs after it, and the readers after it join its last
        window while they fit. So a window holds several small segments
        whole, and only a segment larger than a window is cut."""
        if self._space is None:
            bases = np.cumsum([0] + [r.max_doc for r in self.readers]).tolist()
            starts = []
            for base, end in zip(bases, bases[1:]):
                if not starts or end - starts[-1] > MAXSCORE_WINDOW:
                    starts.extend(range(base, end, MAXSCORE_WINDOW))
            self._space = bases, starts
        return self._space

    def _bounds_of(self, r: SegmentReader, base: int, ti: int, boost: float, scorer):
        """(block last docs, first global window, then per window from it:
        bound, first and past-last block) of term ``ti`` of the reader at
        ``base``. A block's bound is the max of ``scorer.score`` over its
        competitive impact pairs (MaxScoreCache.java), a window's the max
        over its blocks; cached per (segment, term, boost)."""
        key = (r, ti, boost)
        hit = self._term_bounds.get(key)
        if hit is not None:
            return hit
        bld = r.skip_meta(ti)
        counts, freqs, lengths = r.impacts(ti)
        lengths = (encode_lengths(lengths) if self.mode == "lucene"
                   else np.asarray(lengths, dtype=np.float64))
        ubs = np.maximum.reduceat(scorer.score(freqs, lengths), np.cumsum(counts) - counts)
        _, starts = self._doc_space()
        w0 = bisect.bisect_right(starts, base) - 1
        # the reader's own first doc of each of its windows; block j spans
        # docs (bld[j-1], bld[j]]
        first = np.array(starts[w0 : bisect.bisect_left(starts, base + r.max_doc)],
                         dtype=np.int64) - base
        first[0] = 0
        jlo = np.searchsorted(bld, first)
        jhi = np.minimum(np.searchsorted(bld, np.append(first[1:], r.max_doc) - 1) + 1, len(bld))
        wub = np.array([max(float(ubs[a:b].max()), 0.0) if a < b else 0.0
                        for a, b in zip(jlo.tolist(), jhi.tolist())])
        return self._term_bounds.put(key, (bld, w0, wub, jlo, jhi))

    def _search_wand(self, clauses: list, k: int) -> TopDocs:
        """Top-k of a disjunction of term clauses (``clauses``: (term, boost,
        scorer) in clause order): MaxScore (Turtle & Flood;
        MaxScoreBulkScorer.java), run once over the searcher's global doc-ID
        space in the windows of ``_doc_space``. Windows are visited in
        descending order of their summed clause bounds until that falls
        below theta, the k-th score so far (TopScoreDocCollector's min
        competitive score), carried from window to window. In a window the
        clauses sorted by bound split into non-essential ones, the longest
        prefix whose bounds sum below theta, and essential ones: each
        essential clause's postings from every reader in the window are
        summed into one dense window array; the non-essential ones are
        looked up only for candidates that can still reach theta. Final
        scores are summed in clause order like the exhaustive union's, and
        bound sums widened by their float error (MathUtil.sumUpperBound):
        the top-k is exact. Total hits: live docs of an essential clause in
        a visited window, a lower bound once anything is pruned."""
        stats = self.last_wand_stats = {"blocks_total": 0, "blocks_visited": 0,
                                        "intervals_total": 0, "intervals_visited": 0}
        bases, starts = self._doc_space()
        n_windows = len(starts)
        # per clause present anywhere: (scorer, its entries: reader,
        # base, ordinal, blocks, then the ``_bounds_of`` tuple). An entry
        # takes no bound, so its clause's bound in its window is inf, in a
        # one-window index (entered with theta = -inf) and when it is one
        # block of a reader lying in one window (the bound would cost about
        # as much as scoring that block)
        terms = []
        for term, boost, scorer in clauses:
            ents = []
            for r, base in zip(self.readers, bases):
                ti = self._term_ord(r, term)
                if ti < 0:
                    continue
                nb = -(-int(r.doc_freq[ti]) // BLOCK_SIZE)
                w0 = bisect.bisect_right(starts, base) - 1
                if n_windows == 1 or nb == 1 and (
                        w0 + 1 == n_windows or starts[w0 + 1] >= base + r.max_doc):
                    ents.append((r, base, ti, nb, None, w0, None, (0,), (nb,)))
                else:
                    ents.append((r, base, ti, nb, *self._bounds_of(r, base, ti, boost, scorer)))
            if ents:
                terms.append((scorer, ents, boost))
        if not terms:
            return TopDocs(0, [])
        stats["blocks_total"] = sum(e[3] for _, ents, _ in terms for e in ents)
        slack = 1.0 + len(terms) * 2.0 ** -51
        # per window: {clause: [(entry, first block, past-last block)]}, in
        # clause order; the clause bounds per window; windows holding a
        # block, by bound sum
        if n_windows == 1:
            plan = [{i: [(j, 0, e[3]) for j, e in enumerate(ents)]
                     for i, (_, ents, _) in enumerate(terms)}]
            cub, wsum, order, seen = np.full((len(terms), 1), math.inf), (math.inf,), [0], None
        else:
            plan = [{} for _ in range(n_windows)]
            cub = np.zeros((len(terms), n_windows))
            for i, (_, ents, _) in enumerate(terms):
                for j, (*_, w0, wub, jlo, jhi) in enumerate(ents):
                    if wub is None:
                        cub[i, w0] = math.inf
                    else:
                        w1 = w0 + len(wub)
                        np.maximum(cub[i, w0:w1], wub, out=cub[i, w0:w1])
                        jlo, jhi = jlo.tolist(), jhi.tolist()
                    for w, a, b in zip(range(w0, w0 + len(jlo)), jlo, jhi):
                        if a < b:
                            plan[w].setdefault(i, []).append((j, a, b))
            wsum = cub.sum(axis=0) * slack
            order = [w for w in np.argsort(-wsum, kind="stable").tolist() if plan[w]]
            seen = [[np.zeros(e[3], dtype=bool) for e in ents] for _, ents, _ in terms]
        ends = starts[1:] + bases[-1:]
        theta = -math.inf
        best = []  # (docs, scores) per visited window
        nhits = visited = 0
        for w in order:
            if wsum[w] < theta:
                break
            visited += 1
            lo, hi = starts[w], ends[w]
            # (clause, bound, its reads) of the window's clauses
            inw = [(i, cub[i, w], reads) for i, reads in plan[w].items()]
            non, acc = set(), 0.0
            if theta > -math.inf:
                for i, ub, _ in sorted(inw, key=lambda x: x[1]):
                    if (acc + ub) * slack >= theta:
                        break
                    acc += ub
                    non.add(i)
            cols = {}
            dense = np.zeros(hi - lo)
            present = np.zeros(hi - lo, dtype=bool)
            for i, _, reads in inw:  # clause order, like the exhaustive union
                if i not in non:
                    d, sc = cols[i] = self._window_scores(
                        terms[i], seen[i] if seen else None, reads, lo, hi)
                    if lo:
                        d = d - lo
                    dense[d] += sc
                    present[d] = True
            if not cols:
                continue
            at = np.flatnonzero(present)
            cand, part = at + lo if lo else at, dense[at]
            # deleted docs: each reader's live docs, read at query time
            live = None
            for ri in range(bisect.bisect_right(bases, lo) - 1, bisect.bisect_left(bases, hi)):
                r = self.readers[ri]
                if r.live is not None:
                    live = np.ones(len(cand), dtype=bool) if live is None else live
                    a, b = np.searchsorted(cand, bases[ri : ri + 2])
                    live[a:b] = r.live[cand[a:b] - bases[ri]]
            if live is not None:
                cand, part = cand[live], part[live]
            nhits += len(cand)
            if non:
                cand = cand[(part + acc) * slack >= theta]
                if not len(cand):
                    continue
                for i, _, reads in inw:
                    if i in non:  # read only the blocks that can hold a candidate
                        cols[i] = self._window_scores(terms[i], seen[i], reads, lo, hi, cand)
                # re-summed in clause order, as the exhaustive union adds
                part = sum(_lookup(*cols[i], cand) for i, _, _ in inw)
            if theta > -math.inf:
                keep = part >= theta
                cand, part = cand[keep], part[keep]
            best.append((cand, part))
            if visited < len(order) and sum(len(s) for _, s in best) >= k:
                best_s = np.concatenate([s for _, s in best])
                kth = np.partition(best_s, len(best_s) - k)[len(best_s) - k]
                theta = max(theta, float(kth))
                keep = best_s >= kth  # ties at the k-th score stay: doc_key decides
                best = [(np.concatenate([d for d, _ in best])[keep], best_s[keep])]
        stats["blocks_visited"] = (stats["blocks_total"] if seen is None else
                                   sum(int(np.count_nonzero(s)) for row in seen for s in row))
        stats["intervals_total"] = n_windows
        stats["intervals_visited"] = visited
        # survivors back to their readers' local doc IDs, in doc order
        top = _TopK(k)
        if best:
            best_d, best_s = best[0] if len(best) == 1 else map(np.concatenate, zip(*best))
            if visited > 1:
                o = np.argsort(best_d, kind="stable")
                best_d, best_s = best_d[o], best_s[o]
            cut = np.searchsorted(best_d, bases).tolist()
            for r, base, a, b in zip(self.readers, bases, cut, cut[1:]):
                top.collect(r, best_d[a:b] - base if base else best_d[a:b], best_s[a:b])
        return TopDocs(nhits, top.top())

    def _window_scores(self, term, seen, reads, lo: int, hi: int, cand=None):
        """Global (docs, scores) in window [lo, hi) of one clause (``term``:
        its scorer, entries and boost): the blocks ``reads`` names per entry
        ([(entry index, first, past-last block)]), or with ``cand`` only
        the blocks that can hold one of those sorted global docs; read from
        every reader (the whole postings when that is every block of the
        term there) and scored in one call against the norms gathered from
        each reader. ``seen`` marks the blocks read (ImpactsDISI: a skipped
        block is never scored; it is decoded only as part of a cached page,
        see ``SegmentReader.postings_blocks``). In an index of several
        windows a reader's whole scored postings of the term come from the
        term-score cache when it holds them (``_eval_term`` puts them too),
        and go into it when every block of the term there is read, so a
        repeated term is not rescored window by window; a one-window index
        neither reads nor fills it."""
        scorer, ents, boost = term
        cache = len(self._space[1]) > 1
        lucene = self.mode == "lucene"
        docs, scores, freqs, norms = [], [], [], []  # a score of None: still to score
        for j, j0, j1 in reads:
            r, base, ti, nb, bld = ents[j][:5]
            runs = [(j0, j1)]
            if cand is not None:
                a, b = np.searchsorted(cand, (base, base + r.max_doc))
                if a == b:
                    continue
                js = np.unique(np.minimum(np.searchsorted(bld, cand[a:b] - base), nb - 1))
                cut = np.flatnonzero(np.diff(js) > 1) + 1
                runs = zip(js[np.append(0, cut)].tolist(),
                           (js[np.append(cut - 1, len(js) - 1)] + 1).tolist())
            key = (r, ti, boost)
            hit = self._term_scores.get(key) if cache else None
            for j0, j1 in runs:
                if seen is not None:
                    seen[j][j0:j1] = True
                if hit is not None:
                    continue
                d, f = r.postings(ti) if j1 - j0 == nb else r.postings_blocks(ti, j0, j1)
                if cache and j1 - j0 == nb:
                    hit = self._term_scores.put(key, (d, scorer.score(
                        f, (r.norms if lucene else r.dls)[d])))
                    continue
                if lo > base or hi < base + r.max_doc:
                    a, b = np.searchsorted(d, (lo - base, hi - base))
                    d, f = d[a:b], f[a:b]
                norms.append((r.norms if lucene else r.dls)[d])
                docs.append(d + base if base else d)
                freqs.append(f)
                scores.append(None)
            if hit is not None:
                d, sc = hit
                if lo > base or hi < base + r.max_doc:
                    a, b = np.searchsorted(d, (lo - base, hi - base))
                    d, sc = d[a:b], sc[a:b]
                docs.append(d + base if base else d)
                scores.append(sc)
        if not docs:
            e = np.empty(0, dtype=np.int64)
            return e, e.astype(np.float64)
        if freqs:
            sc = (scorer.score(freqs[0], norms[0]) if len(freqs) == 1
                  else scorer.score(np.concatenate(freqs), np.concatenate(norms)))
            if len(freqs) == len(docs):
                scores = [sc]
            else:
                cut = np.cumsum([len(d) for d, s in zip(docs, scores) if s is None])
                fresh = iter(np.split(sc, cut[:-1]))
                scores = [next(fresh) if s is None else s for s in scores]
        if len(docs) == 1:
            return docs[0], scores[0]
        return np.concatenate(docs), np.concatenate(scores)

    # exact query type -> evaluator(self, reader, query, boost). Every Query
    # subclasses Query directly, so the exact type is enough.
    _ORDINALS = {
        PrefixQuery: lambda self, r, fp, q: range(*r.term_range(fp + q.prefix)),
        TermInSetQuery: lambda self, r, fp, q: [
            i for t in q.terms if (i := r.term_index(fp + t)) >= 0],
        TermRangeQuery: _term_range_ords,
        WildcardQuery: lambda self, r, fp, q: self._wildcard_idxs(r, fp, q.pattern),
        RegexpQuery: lambda self, r, fp, q: self._regexp_idxs(r, fp, q.pattern),
    }
    _EVALUATORS = {
        TermQuery: _eval_term,
        BooleanQuery: _eval_bool,
        BoostQuery: lambda self, r, q, boost: self._eval(r, q.query, boost * q.boost),
        ConstantScoreQuery: lambda self, r, q, boost: _const(
            self._eval(r, q.query).docs, q.score * boost),
        MatchAllDocsQuery: lambda self, r, q, boost: _const(
            np.arange(r.max_doc, dtype=np.int32), boost),
        MatchNoDocsQuery: lambda self, r, q, boost: _EMPTY,
        DisjunctionMaxQuery: _eval_dismax,
        FunctionScoreQuery: _eval_function_score,
        CoveringQuery: _eval_covering,
        PayloadScoreQuery: _eval_payload,
        SynonymQuery: _eval_synonym,
        CombinedFieldQuery: _eval_combined_field,
        FuzzyQuery: _eval_fuzzy,
        **dict.fromkeys(_ORDINALS, _eval_ordinals),
        DocValuesTermQuery: _eval_dv_term,
        SortedSetContainsQuery: _eval_sorted_set,
        NumericRangeQuery: _eval_numeric_range,
        PointBoxQuery: _eval_point_box,
        PointNDRangeQuery: _eval_point_nd,
        GeoPolygonQuery: _eval_geo_polygon,
        GeoDistanceQuery: _eval_geo_distance,
        JoinQuery: _eval_join,
        ToParentBlockJoinQuery: _eval_block_join_parent,
        ToChildBlockJoinQuery: _eval_block_join_child,
        PhraseQuery: _eval_multi_phrase,
        MultiPhraseQuery: _eval_multi_phrase,
        ComplexPhraseQuery: _eval_complex_phrase,
        SpanNearQuery: _eval_span,
        SpanPositionRangeQuery: _eval_span,
        SpanNotQuery: _eval_span,
        IntervalQuery: _eval_interval,
    }
