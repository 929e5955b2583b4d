"""Seeded web-text corpus and query-log generator for the benchmark.

Everything here is a pure function of the seed. The program under test only
ever sees what this module writes: Parquet files in the north-rule schema
``(url, warc_ts, html, text, lang)`` and plain query strings.

Corpus model
  * Vocabulary: ``VOCAB_TYPES`` pseudo-words built from consonant-vowel
    syllables (2 or 3 syllables, lowercase ASCII, so the standard analyzer
    keeps every word as exactly one token). Which word gets which frequency
    rank is shuffled by the seed.
  * Token draws: Zipf-Mandelbrot, p(rank r) ~ 1 / (r + Q) ** S.
  * Document lengths: lognormal, stratified (the midpoint of each 1/N
    quantile slice, shuffled), so every corpus of N documents has the same
    length profile, and its tail always reaches past 4,096 tokens.
  * ``html`` is ``lucene_ray.sources.corpus.make_html(text, title)``, so the
    extractor's byte-identity check runs on every document.

Query model (EnwikiQueryMaker style: terms drawn by document-frequency band)
  * ``hot``: the most frequent terms; ``mid`` and ``rare``: lower df bands.
  * ``hot_log``: a small pool of term / AND / OR queries over hot and mid
    terms, repeated with Zipf skew, so per-segment caches hit.
  * ``tail_log``: distinct queries over mid and rare terms: terms, 2-term
    ANDs, 3-term ORs of one hot and two mid or rare terms (the shape where
    WAND can skip the hot term's blocks), phrases pairing a hot term with a
    mid or rare neighbour (sampled from real adjacencies), and 2- and 4-char
    prefixes.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass

import numpy as np

VOCAB_TYPES = 200_000
ZIPF_S = 1.07
ZIPF_Q = 2.7
LEN_MEDIAN = 100.0
LEN_SIGMA = 1.1
LEN_MIN = 8
LEN_MAX = 20_000
HOT_ZIPF_S = 0.8  # skew of the hot log over its query pool

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]  # 70


@dataclass
class Corpus:
    seed: int
    words: np.ndarray  # object array: word of each vocabulary id
    doc_tokens: list  # per document: int32 array of vocabulary ids
    keys: list  # per document: url (the index key)
    texts: list  # per document: the text as written
    df: np.ndarray  # per vocabulary id: document frequency

    @property
    def n_docs(self) -> int:
        return len(self.doc_tokens)

    @property
    def n_tokens(self) -> int:
        return int(sum(len(t) for t in self.doc_tokens))

    @property
    def text_bytes(self) -> int:
        return int(sum(len(t.encode("utf-8")) for t in self.texts))

    def df_histogram(self) -> dict:
        """Number of vocabulary types per df band (powers of two)."""
        seen = self.df[self.df > 0]
        edges = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]
        out = {}
        for lo, hi in zip(edges, edges[1:] + [1 << 62]):
            n = int(((seen >= lo) & (seen < hi)).sum())
            if n:
                out[f"{lo}-{hi - 1}" if hi < (1 << 62) else f"{lo}+"] = n
        return out

    def summary(self) -> dict:
        lens = np.array([len(t) for t in self.doc_tokens])
        return {
            "seed": self.seed,
            "docs": self.n_docs,
            "tokens": self.n_tokens,
            "vocab_types": len(self.words),
            "types_seen": int((self.df > 0).sum()),
            "doc_len_p50": int(np.median(lens)),
            "doc_len_max": int(lens.max()),
            "docs_2048_4095_tokens": int(((lens >= 2048) & (lens < 4096)).sum()),
            "docs_over_4096_tokens": int((lens > 4096).sum()),
            "df_histogram": self.df_histogram(),
        }


def make_vocabulary(rng: np.random.Generator, n_types: int = VOCAB_TYPES) -> np.ndarray:
    """``n_types`` distinct pseudo-words, in a seed-shuffled rank order."""
    n_syl = len(SYLLABLES)
    syl = np.array(SYLLABLES, dtype=object)
    two = [a + b for a in SYLLABLES for b in SYLLABLES]
    need3 = max(0, n_types - len(two))
    idx = rng.choice(n_syl ** 3, size=need3, replace=False)
    three = syl[idx // (n_syl * n_syl)] + syl[(idx // n_syl) % n_syl] + syl[idx % n_syl]
    words = np.array(two + list(three), dtype=object)[:n_types]
    return words[rng.permutation(len(words))]


def zipf_mandelbrot(n_types: int = VOCAB_TYPES, s: float = ZIPF_S,
                    q: float = ZIPF_Q) -> np.ndarray:
    p = 1.0 / (np.arange(1, n_types + 1, dtype=np.float64) + q) ** s
    return p / p.sum()


def stratified_lognormal_lengths(rng: np.random.Generator, n_docs: int) -> np.ndarray:
    nd = statistics.NormalDist(np.log(LEN_MEDIAN), LEN_SIGMA)
    u = (rng.permutation(n_docs) + 0.5) / n_docs
    lens = np.exp([nd.inv_cdf(float(x)) for x in u])
    return np.clip(np.rint(lens), LEN_MIN, LEN_MAX).astype(np.int64)


def _render(words: np.ndarray, ids: np.ndarray, rng: np.random.Generator) -> str:
    """Words joined by spaces, cut into sentences: a capital letter after each
    full stop, an occasional comma. Punctuation never forms or splits a
    token, so the analyzed tokens are exactly ``words[ids]``."""
    toks = list(words[ids])
    i = 0
    n = len(toks)
    while i < n:
        toks[i] = toks[i].capitalize()
        end = min(n, i + int(rng.integers(6, 20)))
        if end - i > 4:
            c = i + int(rng.integers(2, end - i - 1))
            toks[c] = toks[c] + ","
        toks[end - 1] = toks[end - 1] + "."
        i = end
    return " ".join(toks)


def make_corpus(seed: int, n_docs: int) -> Corpus:
    rng = np.random.default_rng([seed, 0xC0])
    words = make_vocabulary(rng)
    p = zipf_mandelbrot(len(words))
    lens = stratified_lognormal_lengths(rng, n_docs)
    all_ids = rng.choice(len(words), size=int(lens.sum()), p=p).astype(np.int32)
    bounds = np.concatenate([[0], np.cumsum(lens)])
    doc_tokens = [all_ids[bounds[i]:bounds[i + 1]] for i in range(n_docs)]
    texts = [_render(words, t, rng) for t in doc_tokens]
    keys = [f"https://w{seed % 1000:03d}.example.org/p/{i:07d}" for i in range(n_docs)]
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    pairs = np.unique(doc_of * len(words) + all_ids)
    df = np.bincount((pairs % len(words)).astype(np.int64), minlength=len(words))
    return Corpus(seed, words, doc_tokens, keys, texts, df)


def write_parquet(corpus: Corpus, out_dir: str, n_files: int) -> list[str]:
    """The north-rule page table, split into ``n_files`` files by row range."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_ray.sources.corpus import WARC_EPOCH_US, make_html

    os.makedirs(out_dir, exist_ok=True)
    n = corpus.n_docs
    html = [make_html(t, f"page {i}") for i, t in enumerate(corpus.texts)]
    ts = (WARC_EPOCH_US + np.arange(n, dtype=np.int64) * 7_000_000).astype("datetime64[us]")
    tbl = pa.table({
        "url": pa.array(corpus.keys, type=pa.string()),
        "warc_ts": pa.array(ts, type=pa.timestamp("us")),
        "html": pa.array(html, type=pa.binary()),
        "text": pa.array(corpus.texts, type=pa.string()),
        "lang": pa.array(["en"] * n, type=pa.string()),
    })
    paths = []
    step = -(-n // n_files)
    for f in range(n_files):
        path = os.path.join(out_dir, f"part-{f:03d}.parquet")
        pq.write_table(tbl.slice(f * step, step), path)
        paths.append(path)
    return paths


# ------------------------------------------------------------------ queries

@dataclass
class Bands:
    hot: np.ndarray
    mid: np.ndarray
    rare: np.ndarray


def df_bands(corpus: Corpus) -> Bands:
    n = corpus.n_docs
    df = corpus.df
    order = np.argsort(-df, kind="stable")
    hot = order[:64]
    ids = np.arange(len(df))
    mid = ids[(df >= max(3, n // 200)) & (df < n // 20)]
    rare = ids[(df >= 2) & (df < max(3, n // 200))]
    return Bands(hot, mid, rare)


PAIRS_PER_DOC = 6  # phrase candidates taken from one page, at most


def _adjacent_pairs(corpus: Corpus, hot: np.ndarray, others: np.ndarray,
                    rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Up to ``n`` distinct adjacent (left, right) token pairs where one side
    is a hot term and the other a mid or rare term."""
    is_hot = np.zeros(len(corpus.df), dtype=bool)
    is_hot[hot] = True
    is_other = np.zeros(len(corpus.df), dtype=bool)
    is_other[others] = True
    seen: set = set()
    out = []
    for d in rng.permutation(corpus.n_docs):
        t = corpus.doc_tokens[d]
        if len(t) < 2:
            continue
        a, b = t[:-1], t[1:]
        m = (is_hot[a] & is_other[b]) | (is_other[a] & is_hot[b])
        for j in np.flatnonzero(m)[:PAIRS_PER_DOC]:
            pair = (int(a[j]), int(b[j]))
            if pair not in seen:
                seen.add(pair)
                out.append(pair)
        if len(out) >= n:
            break
    return out


def hot_log(corpus: Corpus, length: int, pool_size: int = 48) -> list[tuple[str, str]]:
    """(shape, query) pairs: a Zipf-skewed log over a small repeated pool.

    The pool's terms are the 24 hottest and 24 mid terms picked at evenly
    spaced df ranks of the mid band, and each pool entry appears its
    expected number of times, so every seed's log has the same df profile
    and the same mix."""
    rng = np.random.default_rng([corpus.seed, 0x40])
    b = df_bands(corpus)
    w = corpus.words
    hot = b.hot[:24]
    by_df = b.mid[np.argsort(corpus.df[b.mid], kind="stable")]
    mid = by_df[((np.arange(24) + 0.5) / 24 * len(by_df)).astype(int)]
    pool = []
    for i in range(pool_size):
        shape = ("term", "and", "or")[i % 3]
        if shape == "term":
            t = hot[i % len(hot)] if i % 2 else mid[i % len(mid)]
            pool.append((shape, w[t]))
        else:
            a, c = hot[i % len(hot)], (mid[i % len(mid)] if i % 2 else hot[(i + 7) % len(hot)])
            op = " AND " if shape == "and" else " "
            pool.append((shape, f"{w[a]}{op}{w[c]}"))
    weights = 1.0 / np.arange(1, len(pool) + 1) ** HOT_ZIPF_S
    counts = np.maximum(1, np.rint(length * weights / weights.sum()).astype(int))
    log = [pool[i] for i in np.repeat(np.arange(len(pool)), counts)]
    return [log[i] for i in rng.permutation(len(log))]


# 2-char prefixes are by far the slowest shape; at 0.2% of the log they sit
# well inside the slowest 1%, so p99 does not straddle two shapes (and 60 of
# them in a 30,000-query log stay below the ~70 that the vocabulary has)
TAIL_MIX = (("term", 0.30), ("and", 0.15), ("or3", 0.20), ("phrase", 0.20),
            ("prefix4", 0.148), ("prefix2", 0.002))


def tail_log(corpus: Corpus, length: int) -> list[tuple[str, str]]:
    """(shape, query) pairs, every query distinct, over mid and rare terms."""
    rng = np.random.default_rng([corpus.seed, 0x7A])
    b = df_bands(corpus)
    w = corpus.words
    midrare = np.concatenate([b.mid, b.rare])
    want = {s: int(round(f * length)) for s, f in TAIL_MIX}
    seen: set = set()
    out: list[tuple[str, str]] = []

    def fill(shape, queries):
        """Add distinct queries of one shape until ``want[shape]`` are in
        (fewer only when ``queries`` runs out)."""
        n = 0
        for q in queries:
            if n >= want[shape]:
                break
            if q not in seen:
                seen.add(q)
                out.append((shape, q))
                n += 1

    fill("term", (w[t] for t in rng.permutation(midrare)))
    fill("and", (" AND ".join(w[rng.choice(midrare, size=2, replace=False)])
                 for _ in range(2 * want["and"])))
    # the hot term decides how slow an OR is: cycle through all of them, so
    # every stretch of the log holds each about equally often
    fill("or3", (" ".join(w[[h, *rng.choice(midrare, size=2, replace=False)]])
                 for h in np.resize(rng.permutation(b.hot), 2 * want["or3"])))
    fill("phrase", (f'"{w[l]} {w[r]}"'
                    for l, r in _adjacent_pairs(corpus, b.hot, midrare, rng, want["phrase"])))
    fill("prefix2", (f"{p}*" for p in rng.permutation(sorted({x[:2] for x in w}))))
    fill("prefix4", (f"{w[t][:4]}*" for t in rng.permutation(midrare)))
    # stratified interleave: every prefix of the log has the same shape mix
    by_shape: dict[str, list] = {}
    for item in out:
        by_shape.setdefault(item[0], []).append(item)
    keyed = []
    for shape in sorted(by_shape):
        items = by_shape[shape]
        keys = (np.arange(len(items)) + rng.random(len(items))) / len(items)
        keyed.extend(zip(keys, range(len(keyed), len(keyed) + len(items)), items))
    return [item for _, _, item in sorted(keyed)]
