"""Classification module tests (reference classification/SimpleNaiveBayes
Classifier.java, KNearestNeighborClassifier.java)."""

import math

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.pipelines.classify import (
    NaiveBayesBatchClassifier,
    knn_vote,
    nb_classify_texts,
    nb_scores,
    train_naive_bayes,
)

DOCS = [
    ("cat feline whiskers purr", "animal"),
    ("cat dog pets fur purr", "animal"),
    ("dog bark fetch fur", "animal"),
    ("engine piston fuel combustion", "machine"),
    ("engine turbine fuel exhaust", "machine"),
    ("piston crankshaft oil engine", "machine"),
]


def _ds():
    import ray.data

    return ray.data.from_arrow(pa.table({
        "text": [t for t, _ in DOCS],
        "lang": [c for _, c in DOCS],
    }))


@pytest.fixture(scope="module")
def model(ray_session):
    return train_naive_bayes(_ds(), text_col="text", class_col="lang",
                             analyzer="simple")


def _brute_nb_scores(text, model):
    """Direct transliteration of the reference math for cross-checking:
    score(c) = ln(df(c)) - ln(dwc) + Σ_w ln((df(w∧c)+1)/(avgU·df(c)+dwc))."""
    import re

    toks = re.findall(r"[a-z0-9]+", text.lower())
    docs = [(set(re.findall(r"[a-z0-9]+", t.lower())), c) for t, c in DOCS]
    dwc = len(docs)
    avg_u = sum(len(s) for s, _ in docs) / len(docs)
    out = {}
    for c in sorted({c for _, c in docs}):
        cdc = sum(1 for _, cc in docs if cc == c)
        score = math.log(cdc) - math.log(dwc)
        for w in toks:
            hits = sum(1 for s, cc in docs if cc == c and w in s)
            score += math.log((hits + 1) / (avg_u * cdc + dwc))
        out[c] = score
    return out


def test_nb_model_stats(model):
    assert list(model.classes) == ["animal", "machine"]
    assert model.docs_with_class == 6.0
    assert model.class_doc_count.tolist() == [3.0, 3.0]
    # unique terms per doc: 4+5+4+4+4+4 = 25
    assert model.avg_unique_terms == pytest.approx(25 / 6)


def test_nb_scores_match_reference_math(model):
    for text in ["cat purr fur", "engine fuel", "cat engine", "unseen words here"]:
        got = nb_scores(model, text)
        want = _brute_nb_scores(text, model)
        for i, c in enumerate(model.classes):
            assert got[i] == pytest.approx(want[c], rel=1e-12), (text, c)


def test_nb_classify_separable(model):
    preds = nb_classify_texts(model, ["whiskers purr cat", "turbine oil piston"])
    assert preds == ["animal", "machine"]


def test_nb_tie_goes_to_first_class(model):
    # empty input → prior only; equal priors → lexicographically first
    assert nb_classify_texts(model, [""]) == ["animal"]


def test_nb_batch_classifier_stage(ray_session, model):
    out = (_ds().map_batches(NaiveBayesBatchClassifier,
                             fn_constructor_args=(model,),
                             concurrency=1, batch_format="pyarrow")
           .to_pandas())
    # training docs classify to their own class on this separable corpus
    assert (out["pred_class"] == out["lang"]).all()


def test_knn_vote_math():
    # 10 hits, max=2.0: 6 of class a (scores 2.0..1.5), 4 of b (1.4..1.1)
    hits = [("a", 2.0), ("a", 1.9), ("a", 1.8), ("a", 1.7), ("a", 1.6),
            ("a", 1.5), ("b", 1.4), ("b", 1.3), ("b", 1.2), ("b", 1.1)]
    vote = knn_vote(hits, 10)
    assert vote[0][0] == "a"
    assert vote[0][1] == pytest.approx(sum(s / 2.0 for c, s in hits if c == "a") / 10)
    assert vote[1][1] == pytest.approx(sum(s / 2.0 for c, s in hits if c == "b") / 10)


def test_knn_vote_under_k_correction():
    hits = [("a", 3.0), ("b", 1.5)]  # only 2 hits for k=10
    vote = knn_vote(hits, 10)
    # score_c = (Σ s/max)/k * k/sumdoc = (Σ s/max)/sumdoc
    assert vote[0] == ("a", pytest.approx(1.0 / 2))
    assert vote[1] == ("b", pytest.approx(0.5 / 2))


def test_knn_vote_skips_unlabeled():
    vote = knn_vote([(None, 2.0), ("a", 1.0)], 10)
    assert vote == [("a", pytest.approx(0.5 / 1))]


def test_knn_classify_input_past_the_clause_limit(monkeypatch):
    """An input with more distinct tokens than BooleanQuery.MAX_CLAUSE_COUNT
    is still classified, with the same vote as one flat SHOULD query."""
    from types import SimpleNamespace

    from lucene_ray.functions.analysis import get_analyzer
    from lucene_ray.pipelines.classify import knn_classify
    from lucene_ray.query import BooleanQuery
    from lucene_ray.searcher import IndexSearcher
    from lucene_ray.state.segment import SegmentReader, build_segment_tables

    rng = np.random.default_rng(4)
    vocab = np.array([f"w{i:04d}" for i in range(1500)])
    texts = [" ".join(rng.choice(vocab, size=30)) for _ in range(60)]
    labels = ["a" if i % 3 else "b" for i in range(len(texts))]
    keys = np.arange(len(texts))
    p, d, stats = build_segment_tables(keys, texts, get_analyzer("standard"))
    inner = IndexSearcher.from_readers([SegmentReader.from_tables(p, d, {"name": "s", **stats})])

    class Labeled:  # the searcher surface knn_classify reads
        manifest = SimpleNamespace(config={"analyzer": "standard"})

        def search(self, q, **kw):
            return inner.search(q, **kw)

        def document(self, key):
            return {"lang": labels[key]}

    text = " ".join(vocab[:1100])
    got = knn_classify(Labeled(), text, k=5)
    assert got and {c for c, _ in got} <= {"a", "b"}
    monkeypatch.setattr(BooleanQuery, "MAX_CLAUSE_COUNT", 2000)
    flat = knn_classify(Labeled(), text, k=5)
    assert [c for c, _ in got] == [c for c, _ in flat]
    assert [s for _, s in got] == pytest.approx([s for _, s in flat], rel=1e-12)
