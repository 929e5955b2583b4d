"""Unit tests for the pure kernels: SmallFloat norms, BM25 float32 parity,
analysis chain semantics, posting codec round-trips.

Golden values transliterated from the reference's own tests
(core/src/test/.../search/similarities/TestBM25Similarity.java:21-125 and
BaseSimilarityTestCase.testRandomScoring properties)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.functions import norms
from lucene_ray.functions.analysis import ENGLISH_STOP_WORDS, Analyzer
from lucene_ray.functions.postings import (
    BLOCK_SIZE,
    block_skip_metadata,
    decode_postings,
    decode_postings_block_range,
    encode_postings,
)
from lucene_ray.functions.similarity import (
    BM25ExactSimilarity,
    BM25Similarity,
    CollectionStatistics,
    TermStatistics,
)

# ---------------------------------------------------------------- SmallFloat


def test_smallfloat_exact_below_24():
    # NUM_FREE_VALUES == 255 - longToInt4(Integer.MAX_VALUE) == 24
    assert norms.NUM_FREE_VALUES == 24
    for i in range(24):
        assert norms.int_to_byte4(i) == i
        assert norms.byte4_to_int(i) == i


def test_smallfloat_roundtrip_monotone():
    prev_decoded = -1
    for i in range(0, 100_000, 7):
        b = norms.int_to_byte4(i)
        assert 0 <= b <= 255
        d = norms.byte4_to_int(b)
        assert d <= i  # truncating encode
        assert d >= prev_decoded
        prev_decoded = d
    # decode(encode(x)) is the largest representable value <= x
    for i in [24, 25, 39, 40, 41, 127, 128, 129, 1000, 65535, 2**31 - 1]:
        b = norms.int_to_byte4(i)
        d = norms.byte4_to_int(b)
        assert d <= i
        if b < 255:
            assert norms.byte4_to_int(b + 1) > i


def test_vectorized_encode_matches_scalar():
    xs = np.concatenate(
        [np.arange(0, 5000), np.array([2**20, 2**31 - 1]), np.arange(5000, 100000, 997)]
    )
    enc = norms.encode_lengths(xs)
    for x, e in zip(xs.tolist(), enc.tolist()):
        assert e == norms.int_to_byte4(x), x


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=300)
def test_smallfloat_property(i):
    b = norms.int_to_byte4(i)
    assert norms.byte4_to_int(b) <= i
    assert norms.encode_lengths(np.array([i]))[0] == b


# ---------------------------------------------------------------- BM25


def make_stats(max_doc=100, doc_count=100, sum_df=1000, sum_ttf=5000):
    return CollectionStatistics(max_doc, doc_count, sum_df, sum_ttf)


def test_bm25_illegal_params():
    # TestBM25Similarity.java:70-105 — NaN/inf/negative k1, out-of-range b
    for k1 in [float("nan"), float("inf"), -1.0]:
        with pytest.raises(ValueError):
            BM25Similarity(k1=k1, b=0.75)
    for b in [-0.5, 1.5, float("nan")]:
        with pytest.raises(ValueError):
            BM25Similarity(k1=1.2, b=b)
    BM25Similarity(0.0, 0.0)  # boundary values legal
    BM25Similarity(0.0, 1.0)


def test_bm25_idf_formula():
    sim = BM25Similarity()
    # idf = (float) ln(1 + (N - n + 0.5)/(n + 0.5))
    got = sim.idf(doc_freq=5, doc_count=100)
    want = np.float32(math.log(1 + (100 - 5 + 0.5) / (5 + 0.5)))
    assert got == want
    assert got.dtype == np.float32


def test_bm25_score_monotonic_in_freq_and_length():
    # BaseSimilarityTestCase.testRandomScoring properties: score >= 0, finite,
    # non-decreasing in freq, non-increasing in doc length.
    sim = BM25Similarity()
    stats = make_stats()
    scorer = sim.scorer(stats, TermStatistics("t", 10, 50))
    freqs = np.arange(1, 200, dtype=np.float32)
    nb = norms.encode_lengths(np.full(199, 20))
    s = scorer.score(freqs, nb)
    assert np.all(s >= 0) and np.all(np.isfinite(s))
    assert np.all(np.diff(s) >= 0)
    lengths = np.arange(1, 500)
    s2 = scorer.score(np.full(499, 3, dtype=np.float32), norms.encode_lengths(lengths))
    assert np.all(np.diff(s2) <= 0)


def test_bm25_float32_op_order():
    # Hand-check one score against the explicit float32 expansion.
    sim = BM25Similarity()
    stats = make_stats(max_doc=10, doc_count=10, sum_df=60, sum_ttf=200)
    ts = TermStatistics("t", 3, 7)
    scorer = sim.scorer(stats, ts)
    f32 = np.float32
    idf = f32(math.log(1 + (10 - 3 + 0.5) / (3 + 0.5)))
    avgdl = f32(200 / 10.0)
    L = norms.LENGTH_TABLE[norms.int_to_byte4(13)]
    cache_entry = f32(1.0) / (f32(1.2) * ((f32(1.0) - f32(0.75)) + f32(0.75) * L / avgdl))
    freq = f32(4.0)
    want = idf - idf / (f32(1.0) + freq * cache_entry)
    got = scorer.score(np.array([4.0]), np.array([norms.int_to_byte4(13)]))[0]
    assert got == want


def test_bm25_exact_matches_sql_form():
    sim = BM25ExactSimilarity()
    stats = make_stats(doc_count=50, sum_ttf=1000)
    sc = sim.scorer(stats, TermStatistics("t", 7, 30))
    idf = math.log(1 + (50 - 7 + 0.5) / (7 + 0.5))
    avgdl = 1000 / 50
    freq, dl = 3.0, 25.0
    want = idf * (freq * 2.2) / (freq + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))
    got = sc.score(np.array([freq]), np.array([dl]))[0]
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------- analysis


def test_standard_chain_basic():
    a = Analyzer("standard")
    assert a.tokenize_one("The Quick  brown-Fox jumped") == [
        ("the", 0),
        ("quick", 1),
        ("brown", 2),
        ("fox", 3),
        ("jumped", 4),
    ]


def test_standard_medial_punct_and_numbers():
    a = Analyzer("standard")
    toks = [t for t, _ in a.tokenize_one("don't 3.14 a,b U.S.A. x_y abc123")]
    # UAX#29: apostrophe/period join letters, period/comma join digits, comma
    # does NOT join letters (MidNum is numeric-only), '_' (ExtendNumLet) joins.
    assert toks == ["don't", "3.14", "a", "b", "u.s.a", "x_y", "abc123"]


def test_overlong_token_skipped_but_position_bumps():
    # StandardTokenizer.java:145-168 — >maxTokenLength skipped, position still
    # incremented.
    a = Analyzer("standard", max_token_length=5)
    out = a.tokenize_one("alpha toolongtoken beta")
    assert out == [("alpha", 0), ("beta", 2)]


def test_stopfilter_bumps_position():
    a = Analyzer("english")
    out = a.tokenize_one("the quick fox and the dog")
    assert out == [("quick", 1), ("fox", 2), ("dog", 5)]
    assert "the" in ENGLISH_STOP_WORDS


def test_standard_default_stopset_empty():
    a = Analyzer("standard")
    assert a.stop_words == frozenset()
    assert [t for t, _ in a.tokenize_one("the and of")] == ["the", "and", "of"]


def test_doc_lengths_count_kept_tokens():
    a = Analyzer("english")
    _, _, _, dl = a.tokenize_batch(["the quick fox", "and", ""])
    assert dl.tolist() == [2, 0, 0]


def test_batch_equals_per_doc():
    a = Analyzer("standard")
    docs = ["the fast key order", "", "merge part window small hash", "a b c a b a"]
    terms, doc_idx, positions, dl = a.tokenize_batch(docs)
    for i, d in enumerate(docs):
        mask = doc_idx == i
        got = list(zip(terms[mask].tolist(), positions[mask].tolist()))
        assert got == a.tokenize_one(d)
    assert dl.tolist() == [4, 0, 5, 6]


def test_simple_analyzer_matches_duckdb_regex_semantics():
    a = Analyzer("simple")
    toks = [t for t, _ in a.tokenize_one("Hello, World-42 foo_bar don't")]
    assert toks == ["hello", "world", "42", "foo", "bar", "don", "t"]


def test_cjk_single_codepoint_tokens():
    a = Analyzer("standard")
    toks = [t for t, _ in a.tokenize_one("日本語 abc")]
    assert toks == ["日", "本", "語", "abc"]


def test_katakana_runs_split_from_latin():
    # KATAKANA is its own token type (WB13 keeps runs together, any-break
    # separates it from ALetter) — including the HALF-WIDTH forms block
    a = Analyzer("standard")
    assert [t for t, _ in a.tokenize_one("カタカナtest")] == ["カタカナ", "test"]
    assert [t for t, _ in a.tokenize_one("ﾃｽﾄtest")] == ["ﾃｽﾄ", "test"]
    assert [t for t, _ in a.tokenize_one("ｶﾀｶﾅ ｶﾞｷﾞ")] == ["ｶﾀｶﾅ", "ｶﾞｷﾞ"]


# ---------------------------------------------------------------- postings


def test_postings_roundtrip_small():
    docs = np.array([0, 1, 5, 130, 131, 4000])
    freqs = np.array([1, 3, 1, 7, 1, 255])
    buf = encode_postings(docs, freqs)
    d, f = decode_postings(buf)
    assert d.tolist() == docs.tolist()
    assert f.tolist() == freqs.tolist()


@given(
    st.lists(
        st.tuples(st.integers(0, 500_000), st.integers(1, 10_000)),
        min_size=1,
        max_size=600,
    )
)
@settings(max_examples=60, deadline=None)
def test_postings_roundtrip_property(pairs):
    uniq = sorted({d for d, _ in pairs})
    docs = np.array(uniq, dtype=np.int64)
    freqs = np.array([dict(pairs)[d] for d in uniq], dtype=np.int64)
    d, f = decode_postings(encode_postings(docs, freqs))
    assert d.tolist() == docs.tolist()
    assert f.tolist() == freqs.tolist()


def test_decode_reads_tight_width_streams():
    """Pre-promotion streams (per-block tight widths, possibly DIFFERENT
    across blocks) must decode exactly — the decoder groups uniform runs and
    falls back per block on width changes."""
    from lucene_ray.functions.postings import _bits_needed, _pack_bits

    rng = np.random.default_rng(11)
    n = 128 * 5 + 17
    docs = np.cumsum(rng.integers(1, 300, size=n)) - 1
    freqs = np.ones(n, dtype=np.int64)
    freqs[128 * 2 : 128 * 3] = rng.integers(1, 200, size=128)  # one wide block
    deltas = np.empty(n, dtype=np.uint32)
    deltas[0] = docs[0]
    np.subtract(docs[1:], docs[:-1], out=deltas[1:], casting="unsafe")
    fm1 = (freqs - 1).astype(np.uint32)
    out = [np.uint32(n).tobytes()]
    for start in range(0, n, BLOCK_SIZE):
        d = deltas[start : start + BLOCK_SIZE]
        f = fm1[start : start + BLOCK_SIZE]
        bd, bf = _bits_needed(d), _bits_needed(f)
        out.append(np.array([bd, bf], dtype=np.uint8).tobytes()
                   + np.uint16(len(d)).tobytes())
        out.append(_pack_bits(d, bd))
        out.append(_pack_bits(f, bf))
    d2, f2 = decode_postings(b"".join(out))
    assert d2.tolist() == docs.tolist()
    assert f2.tolist() == freqs.tolist()


def test_postings_block_range_decode():
    n = 1000
    rng = np.random.default_rng(7)
    docs = np.sort(rng.choice(100_000, size=n, replace=False))
    freqs = rng.integers(1, 50, size=n)
    buf = encode_postings(docs, freqs)
    block_starts, nblocks, last_docs = block_skip_metadata(docs, np.array([0]))
    assert nblocks.tolist() == [-(-n // BLOCK_SIZE)]
    assert block_starts.tolist() == list(range(0, n, BLOCK_SIZE))
    # decode blocks 2..5 and re-absolutize with the skip metadata
    rel, f, first_idx = decode_postings_block_range(buf, 2, 5)
    base = int(last_docs[1])
    lo, hi = 2 * BLOCK_SIZE, 5 * BLOCK_SIZE
    assert first_idx == lo
    assert (base + rel).tolist() == docs[lo:hi].tolist()
    assert f.tolist() == freqs[lo:hi].tolist()
    assert last_docs.tolist() == docs[np.minimum(block_starts + BLOCK_SIZE, n) - 1].tolist()


# ---------------------------------------------------------------- stemming


def test_porter_canonical_examples():
    from lucene_ray.functions.stemming import porter_stem

    cases = {
        "caresses": "caress", "ponies": "poni", "cats": "cat", "feed": "feed",
        "agreed": "agre", "plastered": "plaster", "motoring": "motor",
        "hopping": "hop", "sized": "size", "happy": "happi", "sky": "sky",
        "relational": "relat", "conditional": "condit", "rational": "ration",
        "digitizer": "digit", "vietnamization": "vietnam", "operator": "oper",
        "decisiveness": "decis", "triplicate": "triplic", "formative": "form",
        "electrical": "electr", "hopeful": "hope", "goodness": "good",
        "revival": "reviv", "allowance": "allow", "inference": "infer",
        "adjustable": "adjust", "replacement": "replac", "adoption": "adopt",
        "communism": "commun", "activate": "activ", "effective": "effect",
        "probate": "probat", "rate": "rate", "controll": "control", "roll": "roll",
    }
    for w, want in cases.items():
        assert porter_stem(w) == want, w


def test_english_chain_full():
    a = Analyzer("english")
    out = a.tokenize_one("The dogs' owners were running quickly to John's houses")
    assert out == [
        ("dog", 1), ("owner", 2), ("were", 3), ("run", 4), ("quickli", 5),
        ("john", 7), ("hous", 8),
    ]
    # query-side normalize applies the same chain
    assert a.normalize("Running") == "run"
    assert a.normalize("John's") == "john"


def test_ascii_folding():
    from lucene_ray.functions.stemming import ascii_fold

    assert ascii_fold("café") == "cafe"
    assert ascii_fold("über") == "uber"
    assert ascii_fold("naïve") == "naive"
    # non-decomposable Latin letters from the reference's explicit switch
    assert ascii_fold("Ærøskøbing") == "AEroskobing"
    assert ascii_fold("straße") == "strasse"
    assert ascii_fold("Þórður") == "THordur"
    assert ascii_fold("Łódź") == "Lodz"
    assert ascii_fold("œuvre") == "oeuvre"
    assert ascii_fold("Đorđe") == "Dorde"
    assert ascii_fold("ﬁle") == "file"  # ligature via NFKD
    assert ascii_fold("“quote”") == '"quote"'
    a = Analyzer("standard", ascii_folding=True)
    assert [t for t, _ in a.tokenize_one("Café über naïve")] == ["cafe", "uber", "naive"]


@given(
    st.floats(min_value=0, max_value=8, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=255),
)
@settings(max_examples=150, deadline=None)
def test_bm25_random_scoring_properties(k1, b, df, norm_byte):
    # BaseSimilarityTestCase.testRandomScoring transliteration: for random
    # (k1, b) and random term stats, scores are finite, non-negative,
    # non-decreasing in freq and non-increasing in doc length.
    sim = BM25Similarity(k1=k1, b=b)
    stats = CollectionStatistics(2000, 1500, 30_000, 90_000)
    scorer = sim.scorer(stats, TermStatistics("t", df, df * 3))
    freqs = np.array([1, 2, 3, 5, 10, 100], dtype=np.float32)
    nb = np.full(len(freqs), norm_byte, dtype=np.uint8)
    s = scorer.score(freqs, nb)
    assert np.all(np.isfinite(s)) and np.all(s >= 0)
    assert np.all(np.diff(s) >= 0)
    lens = norms.encode_lengths(np.array([1, 5, 20, 100, 1000]))
    s2 = scorer.score(np.full(5, 4, dtype=np.float32), lens)
    assert np.all(np.diff(s2) <= -0.0) or np.all(np.diff(s2) <= 1e-7)
