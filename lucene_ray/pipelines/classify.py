"""Classifiers over the corpus / index — the reference ``classification``
module re-expressed Ray-Data-first.

* Naive Bayes (classification/SimpleNaiveBayesClassifier.java:48): per class
  ``c``::

      score(c) = log(docFreq(class=c)) - log(docsWithClass)              # prior
               + Σ_w log( (df(text:w ∧ class=c) + 1)                    # add-1
                          / (avgUniqueTermsPerDoc·docFreq(class=c)
                             + docsWithClass) )

  summed over every analyzed token ``w`` of the input (duplicates count,
  SimpleNaiveBayesClassifier.java:213-233), argmax wins with ties to the
  first class in term-dictionary (lexicographic) order
  (SimpleNaiveBayesClassifier.java:103-115 iterates classesEnum in order and
  keeps strictly-greater). The final softmax normalization
  (normClassificationResults, :298-322) is monotone and does not change the
  argmax.

  The reference probes the index per (word, class) pair at query time; the
  Ray-Data-native scale path instead trains a model TABLE once — one
  streaming pass with in-batch partial aggregation, one small
  ``groupby(term, class)`` shuffle — and broadcasts it (``ray.put``) to a
  vectorized ``map_batches`` classifier stage. At web scale the model table
  is vocabulary × classes ≪ corpus; if even that outgrows worker heaps the
  same scoring runs as a (input-token ⋈ model) reduce-side join.

* kNN (classification/KNearestNeighborClassifier.java:48): BM25 top-k for
  the input text, classes voted by rank-normalized score — per class
  ``score = (Σ_hits score/maxScore) / k``, scaled by ``k/sumdoc`` when fewer
  than k hits carry a class (buildListFromTopDocs, :191-236). Class labels
  come from stored fields via ``searcher.document`` exactly like the
  reference's ``indexSearcher.doc(...)``. Term selection: ``terms="all"``
  uses every distinct analyzed input token as a SHOULD TermQuery
  (equivalent to the reference's MoreLikeThis selection with
  minTermFreq=minDocFreq=1, boost off); ``terms="mlt"`` routes through the
  searcher's MoreLikeThis top-term selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from lucene_ray.functions.analysis import get_analyzer

__all__ = [
    "NaiveBayesModel",
    "train_naive_bayes",
    "nb_classify_texts",
    "NaiveBayesBatchClassifier",
    "knn_classify",
    "knn_vote",
]


@dataclass
class NaiveBayesModel:
    """Trained NB statistics (all numpy; broadcastable via ``ray.put``)."""

    classes: np.ndarray          # (C,) unicode, sorted (term-dict order)
    class_doc_count: np.ndarray  # (C,) float64 — docFreq(class=c)
    docs_with_class: float       # docs having a class value
    avg_unique_terms: float      # sumDocFreq(text)/docCount(text)
    vocab_hash: np.ndarray       # (V,) uint64, sorted — hashed term dict
    term_class_df: object        # (V, C) float64 (dense) or scipy-free dict
    analyzer_kind: str = "simple"

    def log_denominator(self) -> np.ndarray:
        # den(c) = avgUniqueTermsPerDoc * docFreq(c) + docsWithClass
        return np.log(self.avg_unique_terms * self.class_doc_count + self.docs_with_class)

    def log_prior(self) -> np.ndarray:
        return np.log(self.class_doc_count) - np.log(self.docs_with_class)


def _distinct_doc_term(an, texts):
    """(doc_idx, term) distinct pairs for a batch, vectorized."""
    codes, vocab, doc_idx, _pos, _dl = an.tokenize_batch_encoded(texts)
    if len(codes) == 0:
        return np.empty(0, np.int64), np.empty(0, dtype=vocab.dtype if len(vocab) else "U1")
    pair = doc_idx.astype(np.int64) * (len(vocab) + 1) + codes
    upair = np.unique(pair)
    return upair // (len(vocab) + 1), vocab[upair % (len(vocab) + 1)]


def train_naive_bayes(ds, text_col: str = "text", class_col: str = "lang",
                      analyzer: str = "simple",
                      num_partitions: int = 64) -> NaiveBayesModel:
    """One streaming pass over ``ds``: per-batch tokenize → distinct
    (doc, term-HASH) × class partials → hash-partitioned vectorized
    ``partition_reduce`` (one Arrow kernel per partition — never one Python
    call per distinct (term, class) key). Only (u64 hash, class, df)
    triples shuffle — never documents — and the driver collects NUMERIC
    arrays only: the string vocabulary never exists on the driver (terms
    live as 64-bit hashes end-to-end; the scorer hashes query tokens with
    the same function). Class labels stay as strings — class cardinality is
    tiny by construction."""
    from lucene_ray.pipelines.dedup import _hash_tokens_u64, partition_reduce

    kind = analyzer

    def partials(batch: pa.Table) -> pa.Table:
        import pandas as pd

        an = get_analyzer(kind)
        texts = batch.column(text_col).to_pylist()
        classes = np.asarray(batch.column(class_col).to_pylist(), dtype=object)
        d_idx, terms = _distinct_doc_term(an, texts)
        # in-batch partial: count distinct docs per (term-hash, class)
        if len(terms):
            th = _hash_tokens_u64([str(t) for t in terms])
            cls = classes[d_idx]
            g = pd.DataFrame({"h": th, "cls": cls}).groupby(
                ["h", "cls"], sort=False).size()
            out_h = np.fromiter((h for h, _ in g.index), dtype=np.uint64,
                                count=len(g))
            out_c = [str(c) for _, c in g.index]
            out_n = g.values.astype(np.int64).tolist()
        else:
            out_h, out_c, out_n = np.empty(0, np.uint64), [], []
        # meta rows: per-class doc counts + (docs, distinct-pairs)
        # collection partials. Tagged h=0 AND a \x00-prefixed cls — the cls
        # prefix is the discriminator, so a real token hashing to 0 cannot
        # be mistaken for metadata.
        out_h = list(out_h)
        cc = pd.Series(classes).value_counts()
        for c, n in cc.items():
            out_h.append(0)
            out_c.append("\x00cls:" + str(c))
            out_n.append(int(n))
        out_h.extend([0, 0])
        out_c.extend(["\x00meta", "\x00pairs"])
        out_n.extend([int(len(texts)), int(len(d_idx))])
        return pa.table({
            "h": pa.array(np.asarray(out_h, dtype=np.uint64),
                          type=pa.uint64()),
            "cls": pa.array(out_c, type=pa.string()),
            "n": pa.array(out_n, type=pa.int64()),
        })

    def reduce_sum(t: pa.Table) -> pa.Table:
        agg = t.group_by(["h", "cls"]).aggregate([("n", "sum")])
        return agg.rename_columns(["h", "cls", "n"])

    agg = partition_reduce(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["h"], reduce_sum, num_partitions=num_partitions,
    )

    # Driver-side collection: numeric (h, class-code, n) arrays only. Class
    # labels are dictionary-decoded per batch (tiny distinct set); the term
    # hashes stay uint64 throughout.
    cls_map: dict[str, int] = {}
    class_counts: dict[str, float] = {}
    n_docs = n_pairs = 0.0
    h_parts, c_parts, n_parts = [], [], []
    for t in agg.iter_batches(batch_format="pyarrow"):
        if t.num_rows == 0:
            continue
        h = t.column("h").to_numpy(zero_copy_only=False).astype(np.uint64)
        n = t.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        d = t.column("cls").combine_chunks().dictionary_encode()
        local = d.dictionary.to_pylist()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        remap = np.empty(len(local), dtype=np.int64)
        is_meta_local = np.zeros(len(local), dtype=bool)
        for i, s in enumerate(local):
            if s.startswith("\x00"):
                is_meta_local[i] = True
                remap[i] = -1
            else:
                remap[i] = cls_map.setdefault(s, len(cls_map))
        is_meta = is_meta_local[codes]
        for i in np.flatnonzero(is_meta):  # ≤ classes+2 rows globally
            s = local[codes[i]]
            if s == "\x00meta":
                n_docs += float(n[i])
            elif s == "\x00pairs":
                n_pairs += float(n[i])
            else:
                c = s[5:]
                class_counts[c] = class_counts.get(c, 0.0) + float(n[i])
        keep = ~is_meta
        h_parts.append(h[keep])
        c_parts.append(remap[codes[keep]])
        n_parts.append(n[keep])

    classes = np.asarray(sorted(class_counts), dtype=str)
    c_index = {c: i for i, c in enumerate(classes)}
    class_doc_count = np.asarray(
        [class_counts[c] for c in classes], dtype=np.float64)
    docs_with_class = float(class_doc_count.sum())

    hh = (np.concatenate(h_parts) if h_parts else np.empty(0, np.uint64))
    nn = (np.concatenate(n_parts) if n_parts else np.empty(0, np.float64))
    interim = np.empty(max(len(cls_map), 1), dtype=np.int64)
    for s, code in cls_map.items():
        interim[code] = c_index[s]
    ci = (interim[np.concatenate(c_parts)] if c_parts
          else np.empty(0, np.int64))
    vocab_hash = np.unique(hh)
    mat = np.zeros((len(vocab_hash), len(classes)), dtype=np.float64)
    if len(hh):
        mat[np.searchsorted(vocab_hash, hh), ci] = nn

    return NaiveBayesModel(
        classes=classes,
        class_doc_count=class_doc_count,
        docs_with_class=docs_with_class,
        avg_unique_terms=n_pairs / n_docs if n_docs else 0.0,
        vocab_hash=vocab_hash,
        term_class_df=mat,
        analyzer_kind=kind,
    )


def nb_scores(model: NaiveBayesModel, text: str) -> np.ndarray:
    """Per-class unnormalized log scores for one input (the softmax
    normalization is monotone — argmax-equivalent)."""
    an = get_analyzer(model.analyzer_kind)
    prior = model.log_prior()
    log_den = model.log_denominator()
    from lucene_ray.pipelines.dedup import _hash_tokens_u64

    toks = [t for t, _ in an.tokenize_one(text)]
    if not toks or len(model.vocab_hash) == 0:
        return prior
    th = _hash_tokens_u64(toks)
    idx = np.searchsorted(model.vocab_hash, th)
    idx = np.clip(idx, 0, len(model.vocab_hash) - 1)
    known = model.vocab_hash[idx] == th
    # hits matrix: (n_tokens, C); unseen tokens hit 0 everywhere
    hits = np.where(known[:, None], model.term_class_df[idx], 0.0)
    return prior + np.sum(np.log(hits + 1.0) - log_den[None, :], axis=0)


def nb_classify_texts(model: NaiveBayesModel, texts: list[str],
                      round_to: int | None = None) -> list[str]:
    """Argmax class per input (reference assignClass; ties → first class in
    term-dictionary order). ``round_to`` rounds scores first (oracle-compare
    determinism across summation orders)."""
    out = []
    for text in texts:
        score = nb_scores(model, text)
        if round_to is not None:
            score = np.round(score, round_to)
        out.append(str(model.classes[int(np.argmax(score))]))
    return out


class NaiveBayesBatchClassifier:
    """Actor-pool ``map_batches`` stage: model fetched once per actor from
    the object store (``ray.put`` broadcast), scoring vectorized per batch."""

    def __init__(self, model_ref, text_col: str = "text",
                 out_col: str = "pred_class"):
        import ray

        self.model = ray.get(model_ref) if not isinstance(model_ref, NaiveBayesModel) else model_ref
        self.text_col = text_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = nb_classify_texts(self.model, batch.column(self.text_col).to_pylist())
        return batch.append_column(self.out_col, pa.array(preds, type=pa.string()))


def knn_classify(searcher, text: str, *, k: int = 10, class_field: str = "lang",
                 field: str | None = None, query=None) -> list[tuple[str, float]]:
    """kNN document classification (KNearestNeighborClassifier.java:120-236):
    BM25 top-k for the input, per-class vote Σ(score/maxScore)/k with the
    <k correction, classes sorted by (score desc, class asc). Returns the
    full ranked (class, score) list; ``[0][0]`` is assignClass.

    The knn query is every distinct analyzed input token as a SHOULD
    TermQuery — the reference's MoreLikeThis selection at
    minTermFreq=minDocFreq=1 with boost off; past
    ``BooleanQuery.MAX_CLAUSE_COUNT`` tokens the clauses are grouped into
    nested SHOULD queries, which sum to the same score. Pass ``query`` to
    use a custom selection (e.g. ``suggest.more_like_this``'s top-terms)."""
    from lucene_ray.query import BooleanQuery, TermQuery

    if query is None:
        an = get_analyzer((searcher.manifest.config or {}).get("analyzer", "standard"))
        seen, uniq = set(), []
        for t, _ in an.tokenize_one(text):
            if t not in seen:
                seen.add(t)
                uniq.append(t)
        clauses = [TermQuery(t, field=field) for t in uniq]
        n = BooleanQuery.MAX_CLAUSE_COUNT
        while len(clauses) > n:
            clauses = [BooleanQuery(should=clauses[i : i + n])
                       for i in range(0, len(clauses), n)]
        query = BooleanQuery(should=clauses)
    td = searcher.search(query, k=k, algo="exhaustive")
    hits = []
    for sd in td.score_docs:
        doc = searcher.document(sd.doc_key)
        cl = None if doc is None else doc.get(class_field)
        hits.append((None if cl is None else str(cl), float(sd.score)))
    return knn_vote(hits, k)


def knn_vote(hits: list[tuple[str | None, float]], k: int) -> list[tuple[str, float]]:
    """The buildListFromTopDocs vote (KNearestNeighborClassifier.java:191-236)
    over an already-ranked (class, score) hit list (first hit's score is
    maxScore): per class Σ(score/maxScore)/k, ×k/sumdoc when fewer than k
    hits carry a class; ranked (score desc, class asc)."""
    if not hits:
        return []
    max_score = hits[0][1]
    counts: dict[str, int] = {}
    boosts: dict[str, float] = {}
    for cl, score in hits:
        if cl is None:
            continue
        counts[cl] = counts.get(cl, 0) + 1
        boosts[cl] = boosts.get(cl, 0.0) + score / max_score
    sumdoc = sum(counts.values())
    results = []
    for cl, cnt in counts.items():
        norm_boost = boosts[cl] / cnt
        score = (cnt * norm_boost) / k
        if sumdoc < k and sumdoc > 0:
            score = score * k / sumdoc
        results.append((cl, score))
    results.sort(key=lambda x: (-x[1], x[0]))
    return results
