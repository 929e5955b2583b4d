"""Randomized differential properties (the reference's test strategy, SURVEY
§5: RandomIndexWriter-style random corpora + dueling-codec equality):

* random corpus (seeded Zipf vocab, rare singletons, empty docs, accents)
* engine top-k == brute-force reference-formula oracle (random queries)
* WAND == exhaustive on random disjunctions
* merged == unmerged, 1-partition == P-partition
* partial+final statistics == single-pass statistics
"""

from __future__ import annotations

import random

import numpy as np
import pandas as pd
import pytest

from lucene_ray.query import BooleanQuery, TermQuery
from lucene_ray.searcher import IndexSearcher
from lucene_ray.state.manifest import Manifest
from lucene_ray.state.merge import merge_index
from lucene_ray.state.segment import check_segment

from tests.test_index_search import BruteForce

SEED = 20260817


def _random_corpus(n_docs=400, seed=SEED):
    rng = random.Random(seed)
    # vocab: hot zipf head + long tail + rare singletons + accents
    hot = [f"hot{i}" for i in range(10)]
    mid = [f"word{i}" for i in range(80)]
    rare = [f"rare{i}" for i in range(200)]
    accent = ["café", "naïve", "über"]
    docs = []
    for d in range(n_docs):
        if rng.random() < 0.02:
            docs.append("")  # empty doc
            continue
        length = rng.randint(1, 60)
        toks = []
        for _ in range(length):
            u = rng.random()
            if u < 0.55:
                toks.append(rng.choice(hot))
            elif u < 0.85:
                toks.append(rng.choice(mid))
            elif u < 0.97:
                toks.append(rng.choice(rare))
            else:
                toks.append(rng.choice(accent))
        docs.append(" ".join(toks))
    return docs


@pytest.fixture(scope="module")
def rand_idx(ray_session, tmp_path_factory):
    import ray.data

    texts = _random_corpus()
    pdf = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    src = str(tmp_path_factory.mktemp("rand") / "docs.parquet")
    pdf.to_parquet(src)
    from lucene_ray.pipelines.index_pipeline import build_index

    d = str(tmp_path_factory.mktemp("rand") / "idx")
    build_index(src, d, key_col="doc_id", text_col="text", num_partitions=5,
                columns=["doc_id", "text"])
    return d, pdf, src


def test_random_term_queries_match_bruteforce(rand_idx):
    d, pdf, _ = rand_idx
    bf = BruteForce(pdf.doc_id.tolist(), pdf.text.tolist(), mode="lucene")
    s = IndexSearcher(d, mode="lucene")
    rng = random.Random(SEED + 1)
    vocab = sorted({w for t in pdf.text for w in t.split()})
    for _ in range(25):
        term = rng.choice(vocab + ["absent_term"])
        got = s.search(TermQuery(term), k=12, algo="exhaustive").score_docs
        want = bf.topk_or([term], 12)
        assert [sd.doc_key for sd in got] == [w[0] for w in want], term
        for sd, w in zip(got, want):
            assert sd.score == pytest.approx(w[1], abs=1e-6)


def test_random_disjunctions_wand_equals_exhaustive(rand_idx):
    d, pdf, _ = rand_idx
    s = IndexSearcher(d, mode="lucene")
    rng = random.Random(SEED + 2)
    vocab = sorted({w for t in pdf.text for w in t.split()})
    for _ in range(20):
        n = rng.randint(1, 5)
        terms = rng.sample(vocab, n)
        k = rng.choice([1, 3, 10, 50])
        q = BooleanQuery(should=[TermQuery(t) for t in terms])
        a = s.search(q, k=k, algo="exhaustive").score_docs
        b = s.search(q, k=k, algo="wand").score_docs
        assert [(x.doc_key, x.score) for x in a] == [(x.doc_key, x.score) for x in b], terms


def test_random_conjunctions_match_bruteforce(rand_idx):
    d, pdf, _ = rand_idx
    bf = BruteForce(pdf.doc_id.tolist(), pdf.text.tolist(), mode="lucene")
    s = IndexSearcher(d, mode="lucene")
    rng = random.Random(SEED + 3)
    hot = [f"hot{i}" for i in range(10)]
    for _ in range(15):
        terms = rng.sample(hot, rng.randint(2, 3))
        got = s.search(BooleanQuery(must=[TermQuery(t) for t in terms]),
                       k=15, algo="exhaustive").score_docs
        want = bf.topk_and(terms, 15)
        assert [sd.doc_key for sd in got] == [w[0] for w in want], terms


def test_partial_plus_final_stats_equal_single_pass(rand_idx):
    d, pdf, _ = rand_idx
    from lucene_ray.functions.analysis import Analyzer

    an = Analyzer("standard")
    cs = Manifest.load(d).collection_stats()
    n_tokens = 0
    n_docs_with = 0
    uniq_pairs = 0
    for t in pdf.text:
        toks = [w for w, _ in an.tokenize_one(t)]
        n_tokens += len(toks)
        n_docs_with += bool(toks)
        uniq_pairs += len(set(toks))
    assert cs.max_doc == len(pdf)
    assert cs.doc_count == n_docs_with
    assert cs.sum_total_term_freq == n_tokens
    assert cs.sum_doc_freq == uniq_pairs


def test_merge_and_partitioning_invariance(rand_idx, ray_session, tmp_path):
    d, pdf, src = rand_idx
    from lucene_ray.pipelines.index_pipeline import build_index

    d1 = str(tmp_path / "p1")
    build_index(src, d1, key_col="doc_id", text_col="text", num_partitions=1,
                columns=["doc_id", "text"])
    s_p = IndexSearcher(d)
    s_1 = IndexSearcher(d1)
    queries = ["hot3", "word7 rare11", "hot1 AND hot2", "absent"]
    want = {q: [(sd.doc_key, sd.score) for sd in s_p.search(q, k=10).score_docs]
            for q in queries}
    for q in queries:
        assert [(sd.doc_key, sd.score) for sd in s_1.search(q, k=10).score_docs] == want[q]
    merge_index(d, merge_factor=5)
    s_m = IndexSearcher(d)
    for q in queries:
        assert [(sd.doc_key, sd.score) for sd in s_m.search(q, k=10).score_docs] == want[q]
    for seg in Manifest.load(d).segment_dirs():
        assert check_segment(seg) == []


def test_wand_block_pruning_skips_blocks(rand_idx):
    """The block-lazy WAND path must (a) produce exhaustive-identical top-k,
    (b) actually skip decoding blocks once the k-th score beats remaining
    interval bounds (ImpactsDISI semantics), and (c) report the counters."""
    d, pdf, _ = rand_idx
    s = IndexSearcher(d, mode="lucene")
    vocab = sorted({w for t in pdf.text for w in t.split()})
    hot = [v for v in vocab if v.startswith("hot")][:3]
    q = BooleanQuery(should=[TermQuery(t) for t in hot])
    a = s.search(q, k=3, algo="exhaustive").score_docs
    b = s.search(q, k=3, algo="wand").score_docs
    assert [(x.doc_key, x.score) for x in a] == [(x.doc_key, x.score) for x in b]
    st = s.last_wand_stats
    assert st["blocks_total"] > 0 and st["blocks_visited"] > 0
    assert st["blocks_visited"] <= st["blocks_total"]
    assert st["intervals_visited"] <= st["intervals_total"]


def test_wand_auto_threshold(rand_idx):
    d, pdf, _ = rand_idx
    s = IndexSearcher(d, mode="lucene")
    q = BooleanQuery(should=[TermQuery("hot1"), TermQuery("hot2")])
    # tiny corpus: auto stays exhaustive (no wand stats written)
    s.last_wand_stats = None
    s.search(q, k=5, algo="auto")
    assert s.last_wand_stats is None
    # force the threshold down: auto now picks wand, results identical
    want = [(x.doc_key, x.score) for x in s.search(q, k=5, algo="exhaustive").score_docs]
    s.WAND_AUTO_MIN_POSTINGS = 1
    s.WAND_AUTO_MAX_DENSITY = 1.0  # the test corpus's terms are dense
    got = [(x.doc_key, x.score) for x in s.search(q, k=5, algo="auto").score_docs]
    assert got == want
    assert s.last_wand_stats is not None and s.last_wand_stats["blocks_total"] > 0


def test_competitive_impacts_equal_true_block_max(rand_idx):
    """The best score over a block's competitive impact pairs equals the
    true max score of the block's docs."""
    import numpy as np

    from lucene_ray.functions.norms import encode_lengths
    from lucene_ray.functions.postings import BLOCK_SIZE
    from lucene_ray.state.manifest import Manifest as _M
    from lucene_ray.state.segment import SegmentReader

    d, pdf, _ = rand_idx
    seg = _M.load(d).segment_dirs()[0]
    r = SegmentReader(seg)
    s = IndexSearcher(d, mode="lucene")
    checked = 0
    for ti in range(min(len(r.terms), 40)):
        term = r.terms[ti]
        ts = s.term_statistics(term)
        if ts.doc_freq == 0:
            continue
        scorer = s.sim.scorer(s.collection_stats, ts)
        counts, flat_f, flat_l = r.impacts(ti)
        starts = np.concatenate([[0], np.cumsum(counts)])
        docs, freqs = r.postings(ti)
        for j in range(len(r.skip_meta(ti))):
            pf_j = flat_f[starts[j]:starts[j + 1]]
            pl_j = flat_l[starts[j]:starts[j + 1]]
            tight = max(
                float(scorer.score(np.array([f], dtype=np.float32),
                                   encode_lengths(np.array([l])))[0])
                for f, l in zip(pf_j.tolist(), pl_j.tolist())
            )
            sl = slice(j * BLOCK_SIZE, (j + 1) * BLOCK_SIZE)
            true_max = float(s._score_arrays(r, scorer, docs[sl], freqs[sl]).max())
            assert abs(tight - true_max) < 1e-6
            checked += 1
    assert checked > 0
