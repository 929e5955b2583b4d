"""Print one SHA-256 per (algo, k) over the answers of a perfbench seed's
query logs on an index: the query-side twin of ``segment_digest.py``. Two
versions of the searcher give the same answers exactly when their digest
lines are equal.

The hot and tail logs of ``SEED`` are regenerated with ``perfbench.corpus``
(at perfbench's own lengths, so the first N queries are those a perfbench
run of that seed serves); the first ``--queries`` of each are searched at
every ``--k``. Every shape is searched with ``auto`` and ``exhaustive``, and
term, or and or3 queries also with ``wand``. A line hashes, for each query
in log order, the doc keys, the ``float.hex`` scores and ``total_hits``;
wand's ``total_hits`` (a lower bound once MaxScore prunes) is hashed on a
line of its own. Two more lines pin the other entries on the first
``min(--queries, 1000)`` queries of each log: ``count`` hashes ``count(q)``,
and ``explain`` hashes the ``float.hex`` of ``explain(q, key)["value"]`` for
the key of the exhaustive top hit. The last line counts the queries whose
wand ``total_hits`` exceeds exhaustive's, which must be 0 (the exit status
is 1 otherwise)::

    python scripts/answer_digest.py /path/to/index 5 --queries 6000 > digest.txt

The index should be the one perfbench builds for the same seed, or one that
``scripts/wand_timing.py build`` builds for that seed with ``--docs`` docs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from lucene_ray.searcher import IndexSearcher
from perfbench.run import N_DOCS

WAND_SHAPES = ("term", "or", "or3")
ENTRY_QUERIES = 1000  # queries per log for the count and explain lines


def query_logs(seed: int, n: int, n_docs: int) -> list[list[tuple[str, str]]]:
    """The first ``n`` (shape, query) pairs of the hot log and of the tail
    log of the seed's ``n_docs``-doc corpus."""
    from perfbench import corpus as C
    from perfbench.run import HOT_LOG_LEN, TAIL_LOG_LEN

    corpus = C.make_corpus(seed, n_docs)
    return [C.hot_log(corpus, HOT_LOG_LEN)[:n], C.tail_log(corpus, TAIL_LOG_LEN)[:n]]


def digests(index_dir: str, seed: int, n: int, ks: list[int],
            n_docs: int) -> tuple[list[tuple[str, str]], int]:
    """([(sha256 hex, label)], queries whose wand total_hits exceeds
    exhaustive's)."""
    s = IndexSearcher(index_dir)
    logs = query_logs(seed, n, n_docs)
    log = [sq for lg in logs for sq in lg]
    hashes = {}
    over = 0

    def feed(label: str, *parts) -> None:
        h = hashes.setdefault(label, hashlib.sha256())
        h.update(repr(parts).encode())

    for k in ks:
        for shape, q in log:
            exact = None
            for algo in ("auto", "exhaustive", "wand"):
                if algo == "wand" and shape not in WAND_SHAPES:
                    continue
                td = s.search(q, k=k, algo=algo)
                ans = [(sd.doc_key, float(sd.score).hex()) for sd in td.score_docs]
                if algo == "wand":
                    feed(f"wand k={k}", q, ans)
                    feed(f"wand k={k} total_hits", q, td.total_hits)
                    over += exact is not None and td.total_hits > exact
                else:
                    feed(f"{algo} k={k}", q, ans, td.total_hits)
                if algo == "exhaustive":
                    exact = td.total_hits
    for _, q in (sq for lg in logs for sq in lg[:ENTRY_QUERIES]):
        feed("count", q, s.count(q))
        top = s.search(q, k=1, algo="exhaustive").score_docs
        feed("explain", q, float(s.explain(q, top[0].doc_key)["value"]).hex() if top else None)
    return [(h.hexdigest(), label) for label, h in hashes.items()], over


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("index_dir")
    ap.add_argument("seed", type=int)
    ap.add_argument("--queries", type=int, default=6000, help="first N of each log")
    ap.add_argument("--k", default="1,10,100", help="comma-separated k values")
    ap.add_argument("--docs", type=int, default=N_DOCS, help="docs of the seed's corpus")
    args = ap.parse_args(argv)
    lines, over = digests(args.index_dir, args.seed, args.queries,
                          [int(x) for x in args.k.split(",")], args.docs)
    for h, label in lines:
        print(f"{h}  {label}")
    print(f"wand_total_hits_over_exhaustive {over}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
