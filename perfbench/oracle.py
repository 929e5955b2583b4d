"""Index-free BM25 over the generated tokens, for the correctness checks.

Scores follow Lucene's BM25Similarity as the searcher's default ``lucene``
mode computes them: float32 arithmetic, document lengths through the
one-byte norm encoding, k1 = 1.2, b = 0.75, global statistics over the whole
corpus. Term frequencies come from the generator's token ids, never from
the index.
"""

from __future__ import annotations

import math

import numpy as np

K1 = 1.2
B = 0.75


class BruteForceBM25:
    def __init__(self, corpus):
        from lucene_ray.functions.norms import decode_norms, encode_lengths

        self.keys = np.array(corpus.keys, dtype=object)
        self.word_id = {w: i for i, w in enumerate(corpus.words)}
        lens = np.array([len(t) for t in corpus.doc_tokens], dtype=np.int64)
        self.ids = np.concatenate(corpus.doc_tokens)
        self.doc_of = np.repeat(np.arange(len(lens)), lens)
        self.n_docs = len(lens)
        self.doc_count = int((lens > 0).sum())
        f32 = np.float32
        avgdl = f32(lens.sum() / self.doc_count)
        L = decode_norms(encode_lengths(lens)).astype(np.float32)
        self.cache = f32(1.0) / (f32(K1) * ((f32(1.0) - f32(B)) + f32(B) * L / avgdl))

    def term_scores(self, term: str) -> np.ndarray:
        """Per-document float32 score of one term (0 where absent)."""
        tid = self.word_id.get(term)
        out = np.zeros(self.n_docs, dtype=np.float32)
        if tid is None:
            return out
        tf = np.bincount(self.doc_of[self.ids == tid], minlength=self.n_docs)
        df = int((tf > 0).sum())
        if df == 0:
            return out
        idf = np.float32(math.log(1 + (self.doc_count - df + 0.5) / (df + 0.5)))
        hit = tf > 0
        out[hit] = idf - idf / (np.float32(1.0) + tf[hit].astype(np.float32) * self.cache[hit])
        return out

    def topk(self, terms: list[str], k: int, conjunctive: bool = False):
        """[(key, score)] by score desc, key asc."""
        per_term = [self.term_scores(t) for t in terms]
        total = np.zeros(self.n_docs, dtype=np.float64)
        for s in per_term:
            total += s.astype(np.float64)
        match = np.ones(self.n_docs, dtype=bool) if conjunctive else total > 0
        for s in per_term if conjunctive else ():
            match &= s > 0
        docs = np.flatnonzero(match)
        order = sorted(docs, key=lambda d: (-total[d], self.keys[d]))[:k]
        return [(self.keys[d], float(total[d])) for d in order]
