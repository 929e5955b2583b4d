"""BM25 scoring — float32-exact port of the reference formula.

Reference: lucene/core/src/java/org/apache/lucene/search/similarities/
BM25Similarity.java — idf at :105-107, avgdl at :115-117, the per-(query,
field) 256-entry ``cache`` at :211-215, and the score expansion
``weight - weight / (1 + freq * 1/norm)`` at :249-258. Defaults k1=1.2,
b=0.75 (:100-102).

Two modes:

* ``BM25Similarity`` — the Lucene-parity scorer: every arithmetic op in
  float32 with the reference's operation order, lengths seen through the
  SmallFloat norm byte. Used by the flagship engine; rank-identical to the
  reference.
* ``BM25ExactSimilarity`` — float64, exact (un-bucketed) document lengths,
  the textbook ``idf * freq*(k1+1) / (freq + k1*(1-b+b*dl/avgdl))`` form.
  This variant is SQL-expressible, so it backs the DuckDB oracle queries in
  ``__ray_entry__.oracle_sql`` (same ranking family; the (k1+1) factor is
  rank-neutral).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lucene_ray.cache import LRUCache
from lucene_ray.functions.norms import LENGTH_TABLE

NORM_CACHE_ENTRIES = 64  # norm-inverse tables, one per (k1, b, avgdl)

F32 = np.float32


@dataclass(frozen=True)
class CollectionStatistics:
    """Per-field global stats (reference: search/CollectionStatistics.java:29-40)."""

    max_doc: int
    doc_count: int
    sum_doc_freq: int
    sum_total_term_freq: int

    def __post_init__(self):
        assert 0 <= self.doc_count <= self.max_doc
        assert self.doc_count <= self.sum_doc_freq <= self.sum_total_term_freq


@dataclass(frozen=True)
class TermStatistics:
    """Per-term global stats (reference: search/TermStatistics.java:30-53)."""

    term: str
    doc_freq: int
    total_term_freq: int


class BM25Similarity:
    """Lucene-parity BM25 (float32, SmallFloat norms)."""

    def __init__(self, k1: float = 1.2, b: float = 0.75):
        if not (np.isfinite(k1) and k1 >= 0):
            raise ValueError(f"illegal k1 value: {k1}, must be a non-negative finite value")
        if not (0 <= b <= 1):
            raise ValueError(f"illegal b value: {b}, must be between 0 and 1")
        self.k1 = F32(k1)
        self.b = F32(b)
        self._norm_cache = LRUCache(NORM_CACHE_ENTRIES)

    def idf(self, doc_freq: int, doc_count: int) -> np.float32:
        """``(float) Math.log(1 + (docCount - docFreq + 0.5)/(docFreq + 0.5))``
        — computed in float64, cast to float32 (BM25Similarity.java:105-107)."""
        return F32(np.log(1.0 + (doc_count - doc_freq + 0.5) / (doc_freq + 0.5)))

    def avg_field_length(self, stats: CollectionStatistics) -> np.float32:
        """``(float)(sumTotalTermFreq / (double) docCount)`` (:115-117)."""
        return F32(stats.sum_total_term_freq / float(stats.doc_count))

    def norm_inverse_cache(self, stats: CollectionStatistics) -> np.ndarray:
        """``cache[i] = 1f / (k1 * ((1 - b) + b * LENGTH_TABLE[i] / avgdl))``
        (:211-215), float32 op-for-op. Memoized per (k1, b, avgdl) — every
        scorer of a field shares one read-only table."""
        avgdl = self.avg_field_length(stats)
        key = (self.k1, self.b, avgdl)
        table = self._norm_cache.get(key)
        if table is None:
            one = F32(1.0)
            denom = self.k1 * ((one - self.b) + self.b * LENGTH_TABLE / avgdl)
            table = (one / denom).astype(np.float32)
            table.flags.writeable = False
            self._norm_cache.put(key, table)
        return table

    def scorer(
        self,
        collection_stats: CollectionStatistics,
        term_stats: TermStatistics | list[TermStatistics],
        boost: float = 1.0,
    ) -> "BM25Scorer":
        if isinstance(term_stats, TermStatistics):
            idf = self.idf(term_stats.doc_freq, collection_stats.doc_count)
        else:
            # multi-term idf = float32 sum of per-term float32 idfs (:190-200,
            # accumulated in double then cast — Java `double idf += float`).
            acc = 0.0
            for ts in term_stats:
                acc += float(self.idf(ts.doc_freq, collection_stats.doc_count))
            idf = F32(acc)
        weight = F32(boost) * idf
        return BM25Scorer(weight=weight, cache=self.norm_inverse_cache(collection_stats))


class BM25Scorer:
    """score(freq, normByte) = weight - weight/(1 + freq * cache[normByte])
    (BM25Similarity.java:249-258), vectorized in float32."""

    __slots__ = ("weight", "cache")

    def __init__(self, weight: np.float32, cache: np.ndarray):
        self.weight = F32(weight)
        self.cache = cache

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        freqs = np.asarray(freqs, dtype=np.float32)
        norm_inverse = self.cache[np.asarray(norm_bytes, dtype=np.uint8)]
        one = F32(1.0)
        return self.weight - self.weight / (one + freqs * norm_inverse)

    def max_score(self, max_freq: float, min_length_byte: int) -> np.float32:
        """Upper bound for a posting block: monotone ↑ freq, ↓ length, so
        score(max freq in block, smallest length byte in block) dominates.
        (Conservative stand-in for the reference's competitive impact pairs,
        codecs/CompetitiveImpactAccumulator.java — may visit ≥ as many blocks
        as Lucene, never fewer results.)"""
        return self.score(
            np.array([max_freq], dtype=np.float32),
            np.array([min_length_byte], dtype=np.uint8),
        )[0]


class BM25ExactSimilarity:
    """Float64 textbook BM25 over exact document lengths (oracle-compatible).

    score = idf * (freq * (k1+1)) / (freq + k1 * (1 - b + b * dl/avgdl))
    idf   = ln(1 + (docCount - docFreq + 0.5) / (docFreq + 0.5))
    avgdl = sumTotalTermFreq / docCount

    Mirrored exactly by the SQL in ``__ray_entry__.oracle_sql`` so that
    rank-identical top-k can be verified by DuckDB.
    """

    def __init__(self, k1: float = 1.2, b: float = 0.75):
        self.k1 = float(k1)
        self.b = float(b)

    def idf(self, doc_freq: int, doc_count: int) -> float:
        return float(np.log(1.0 + (doc_count - doc_freq + 0.5) / (doc_freq + 0.5)))

    def scorer(self, collection_stats, term_stats, boost: float = 1.0) -> "BM25ExactScorer":
        if isinstance(term_stats, TermStatistics):
            idf = self.idf(term_stats.doc_freq, collection_stats.doc_count)
        else:
            idf = sum(self.idf(ts.doc_freq, collection_stats.doc_count) for ts in term_stats)
        avgdl = collection_stats.sum_total_term_freq / float(collection_stats.doc_count)
        return BM25ExactScorer(float(boost) * idf, self.k1, self.b, avgdl)


class ClassicSimilarity:
    """TF-IDF vector-space model, exact-length variant (SQL-mirrorable).

    Reference: search/similarities/ClassicSimilarity.java — tf=sqrt(freq)
    (:44-46), idf=ln((docCount+1)/(docFreq+1))+1 (:62-64),
    lengthNorm=1/sqrt(dl) (:38-40); score = tf(freq) * (boost*idf) *
    lengthNorm(dl) per TFIDFSimilarity.TFIDFScorer.score (:497-501).
    Multi-term idf is the sum of per-term idfs (TFIDFSimilarity idfExplain).

    The reference quantizes dl through the SmallFloat norm byte; this exact
    variant uses true lengths so DuckDB can replicate it ulp-for-ulp — the
    same split as BM25Similarity vs BM25ExactSimilarity above.
    """

    def idf(self, doc_freq: int, doc_count: int) -> float:
        return float(np.log((doc_count + 1) / float(doc_freq + 1)) + 1.0)

    def scorer(self, collection_stats, term_stats, boost: float = 1.0) -> "ClassicScorer":
        if isinstance(term_stats, TermStatistics):
            idf = self.idf(term_stats.doc_freq, collection_stats.doc_count)
        else:
            idf = sum(self.idf(ts.doc_freq, collection_stats.doc_count) for ts in term_stats)
        return ClassicScorer(float(boost) * idf)


class ClassicScorer:
    __slots__ = ("weight",)

    def __init__(self, weight: float):
        self.weight = weight

    def score(self, freqs: np.ndarray, doc_lengths: np.ndarray) -> np.ndarray:
        freqs = np.asarray(freqs, dtype=np.float64)
        dl = np.asarray(doc_lengths, dtype=np.float64)
        return self.weight * np.sqrt(freqs) / np.sqrt(dl)

    def max_score(self, max_freq: float, min_dl: int) -> float:
        # monotone ↑ freq, ↓ dl — same dominance shape as BM25
        return float(self.weight * np.sqrt(max_freq) / np.sqrt(max(1, min_dl)))


class SweetSpotSimilarity(ClassicSimilarity):
    """misc/SweetSpotSimilarity.java — ClassicSimilarity with a PLATEAU
    length norm and a baseline tf:

    - lengthNorm(dl) = 1/sqrt(steepness*(|dl-min| + |dl-max| - (max-min)) + 1)
      (== 1.0 for min <= dl <= max — the "sweet spot");
    - baselineTf(freq) = 0 if freq==0; tf_base if freq <= tf_min;
      sqrt(freq + tf_base² - tf_min) otherwise.

    Defaults (ln 1/1/0.5, tf 0/0) degrade to ClassicSimilarity exactly."""

    def __init__(self, ln_min: int = 1, ln_max: int = 1, steepness: float = 0.5,
                 tf_base: float = 0.0, tf_min: float = 0.0):
        if ln_max < ln_min:
            raise ValueError("ln_max must be >= ln_min")
        self.ln_min = int(ln_min)
        self.ln_max = int(ln_max)
        self.steepness = float(steepness)
        self.tf_base = float(tf_base)
        self.tf_min = float(tf_min)

    def scorer(self, collection_stats, term_stats, boost: float = 1.0) -> "SweetSpotScorer":
        if isinstance(term_stats, TermStatistics):
            idf = self.idf(term_stats.doc_freq, collection_stats.doc_count)
        else:
            idf = sum(self.idf(ts.doc_freq, collection_stats.doc_count) for ts in term_stats)
        return SweetSpotScorer(float(boost) * idf, self)


class SweetSpotScorer:
    __slots__ = ("weight", "sim")

    def __init__(self, weight: float, sim: SweetSpotSimilarity):
        self.weight = weight
        self.sim = sim

    def _tf(self, freqs: np.ndarray) -> np.ndarray:
        s = self.sim
        out = np.where(
            freqs <= s.tf_min,
            s.tf_base,
            np.sqrt(np.maximum(freqs + s.tf_base * s.tf_base - s.tf_min, 0.0)),
        )
        return np.where(freqs == 0.0, 0.0, out)

    def _length_norm(self, dl: np.ndarray) -> np.ndarray:
        s = self.sim
        spread = (
            np.abs(dl - s.ln_min) + np.abs(dl - s.ln_max) - (s.ln_max - s.ln_min)
        )
        return 1.0 / np.sqrt(s.steepness * spread + 1.0)

    def score(self, freqs: np.ndarray, doc_lengths: np.ndarray) -> np.ndarray:
        freqs = np.asarray(freqs, dtype=np.float64)
        dl = np.asarray(doc_lengths, dtype=np.float64)
        return self.weight * self._tf(freqs) * self._length_norm(dl)

    def max_score(self, max_freq: float, min_dl: int) -> float:
        # tf is monotone ↑; lengthNorm is maximal (== 1) on the plateau
        return float(self.weight * self._tf(np.array([max_freq]))[0])


class DFISimilarity:
    """Divergence From Independence (search/similarities/DFISimilarity
    .java:58-69): expected = (ttf+1)·dl/(sumTtf+1); score 0 when
    freq <= expected, else boost · log2(measure + 1) with the chosen
    independence measure (IndependenceStandardized (f−e)/√e,
    IndependenceSaturated (f−e)/e, IndependenceChiSquared (f−e)²/e)."""

    def __init__(self, measure: str = "standardized"):
        if measure not in ("standardized", "saturated", "chisquared"):
            raise ValueError(f"unknown independence measure {measure!r}")
        self.measure = measure

    def scorer(self, collection_stats, term_stats, boost: float = 1.0) -> "DFIScorer":
        ts_list = [term_stats] if isinstance(term_stats, TermStatistics) else list(term_stats)
        ttf = sum(ts.total_term_freq for ts in ts_list)
        return DFIScorer(
            float(boost),
            float(ttf + 1.0),
            float(collection_stats.sum_total_term_freq + 1.0),
            self.measure,
        )


class DFIScorer:
    __slots__ = ("boost", "ttf1", "sum1", "measure")

    def __init__(self, boost, ttf1, sum1, measure):
        self.boost = boost
        self.ttf1 = ttf1
        self.sum1 = sum1
        self.measure = measure

    def _measure(self, f, e):
        if self.measure == "standardized":
            return (f - e) / np.sqrt(e)
        if self.measure == "saturated":
            return (f - e) / e
        return (f - e) * (f - e) / e

    def score(self, freqs: np.ndarray, doc_lengths: np.ndarray) -> np.ndarray:
        f = np.asarray(freqs, dtype=np.float64)
        dl = np.asarray(doc_lengths, dtype=np.float64)
        e = self.ttf1 * dl / self.sum1
        out = np.zeros(len(f), dtype=np.float64)
        pos = f > e
        if pos.any():
            m = self._measure(f[pos], e[pos])
            out[pos] = self.boost * np.log2(m + 1.0)
        return out

    def max_score(self, max_freq: float, min_dl: int) -> float:
        e = self.ttf1 * max(1.0, float(min_dl)) / self.sum1
        if max_freq <= e:
            return 0.0
        return float(self.boost * np.log2(self._measure(float(max_freq), e) + 1.0))


class LMDirichletSimilarity:
    """Dirichlet-smoothed query-likelihood LM, exact-length variant.

    Reference: search/similarities/LMDirichletSimilarity.java:70-77 —
    score = boost * (ln(1 + freq/(mu*p)) + ln(mu/(dl+mu))), clamped at 0;
    p(t|C) = (totalTermFreq+1)/(sumTotalTermFreq+1)
    (LMSimilarity.DefaultCollectionModel:145-147). Default mu=2000 (:59-66).
    """

    def __init__(self, mu: float = 2000.0):
        if not (np.isfinite(mu) and mu >= 0):
            raise ValueError(f"illegal mu value: {mu}, must be a non-negative finite value")
        self.mu = float(mu)

    def scorer(self, collection_stats, term_stats, boost: float = 1.0) -> "LMDirichletScorer":
        ts_list = [term_stats] if isinstance(term_stats, TermStatistics) else list(term_stats)
        # blended multi-term stats: summed ttf (SynonymQuery feeds the union)
        ttf = sum(ts.total_term_freq for ts in ts_list)
        p = (ttf + 1.0) / (collection_stats.sum_total_term_freq + 1.0)
        return LMDirichletScorer(float(boost), self.mu, p)


class LMDirichletScorer:
    __slots__ = ("boost", "mu", "p")

    def __init__(self, boost: float, mu: float, p: float):
        self.boost = boost
        self.mu = mu
        self.p = p

    def score(self, freqs: np.ndarray, doc_lengths: np.ndarray) -> np.ndarray:
        freqs = np.asarray(freqs, dtype=np.float64)
        dl = np.asarray(doc_lengths, dtype=np.float64)
        s = self.boost * (np.log1p(freqs / (self.mu * self.p)) + np.log(self.mu / (dl + self.mu)))
        return np.maximum(s, 0.0)

    def max_score(self, max_freq: float, min_dl: int) -> float:
        return float(
            max(0.0, self.boost * (np.log1p(max_freq / (self.mu * self.p))
                                   + np.log(self.mu / (min_dl + self.mu))))
        )


class BooleanSimilarity:
    """score = boost, ignoring freq/length (search/similarities/
    BooleanSimilarity.java:57-60)."""

    def scorer(self, collection_stats, term_stats, boost: float = 1.0) -> "BooleanScorer":
        return BooleanScorer(float(boost))


class BooleanScorer:
    __slots__ = ("boost",)

    def __init__(self, boost: float):
        self.boost = boost

    def score(self, freqs: np.ndarray, doc_lengths: np.ndarray) -> np.ndarray:
        return np.full(len(np.asarray(freqs)), self.boost, dtype=np.float64)

    def max_score(self, max_freq: float, min_dl: int) -> float:
        return self.boost


class BM25ExactScorer:
    __slots__ = ("weight", "k1", "b", "avgdl")

    def __init__(self, weight: float, k1: float, b: float, avgdl: float):
        self.weight = weight
        self.k1 = k1
        self.b = b
        self.avgdl = avgdl

    def score(self, freqs: np.ndarray, doc_lengths: np.ndarray) -> np.ndarray:
        freqs = np.asarray(freqs, dtype=np.float64)
        dl = np.asarray(doc_lengths, dtype=np.float64)
        return (
            self.weight
            * (freqs * (self.k1 + 1.0))
            / (freqs + self.k1 * (1.0 - self.b + self.b * dl / self.avgdl))
        )

    def max_score(self, max_freq: float, min_dl: int) -> float:
        return float(
            self.score(np.array([max_freq], dtype=np.float64), np.array([min_dl], dtype=np.float64))[0]
        )
