"""Time MaxScore (``algo="wand"``) on an index of several MaxScore windows.

Every perfbench index has 1,600 docs: one MaxScore window, entered with
theta = -inf, so perfbench never times the window walk, the bounds or the
pruning. This script builds a larger index from a ``perfbench.corpus``
corpus, one segment per input file, and times query sets from that corpus's
logs on it::

    python scripts/wand_timing.py build /tmp/wt --seed 31 --docs 40000 --files 10
    python scripts/wand_timing.py time /tmp/wt --seed 31 --docs 40000

``time`` prints one JSON line: per query set the seconds of a first pass
(``*_cold``) and the median of three more, and the share of blocks MaxScore
skipped on the 3-term ORs. To compare two versions of the searcher, run
``time`` from each checkout in turn, alternating, on the same index.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def build(work: str, seed: int, n_docs: int, n_files: int) -> None:
    import ray

    from perfbench import corpus as C
    from perfbench.run import build_by_file

    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
    try:
        src = os.path.join(work, "src")
        C.write_parquet(C.make_corpus(seed, n_docs), src, n_files)
        build_by_file(src, os.path.join(work, "idx"))
    finally:
        ray.shutdown()


def query_sets(seed: int, n_docs: int) -> dict[str, tuple[list[str], str]]:
    """(queries, algo) per set: the first distinct queries of each shape in
    the corpus's tail and hot logs, and the web pipeline's query set."""
    from lucene_ray.pipelines.web_pipeline import DEFAULT_QUERY_SET
    from perfbench import corpus as C

    c = C.make_corpus(seed, n_docs)
    tail, hot = C.tail_log(c, 3000), C.hot_log(c, 3000)

    def pick(log, shape, n):
        return list(dict.fromkeys(q for s, q in log if s == shape))[:n]

    or3 = pick(tail, "or3", 400)
    return {
        "tail_or3_wand": (or3, "wand"),
        "tail_or3_auto": (or3, "auto"),
        "tail_or3_exhaustive": (or3, "exhaustive"),
        "tail_term_wand": (pick(tail, "term", 200), "wand"),
        "hot_or_wand": (pick(hot, "or", 100), "wand"),
        "hot_term_wand": (pick(hot, "term", 100), "wand"),
        "web_query_set_wand": (list(DEFAULT_QUERY_SET), "wand"),
    }


def timings(work: str, seed: int, n_docs: int) -> dict:
    from lucene_ray.searcher import IndexSearcher

    sets = query_sets(seed, n_docs)
    s = IndexSearcher(os.path.join(work, "idx"))

    def run(qs, algo):
        t0 = time.perf_counter()
        for q in qs:
            s.search(q, k=10, algo=algo)
        return time.perf_counter() - t0

    out = {f"{name}_cold": run(*qa) for name, qa in sets.items()}
    out.update({name: statistics.median(run(*qa) for _ in range(3))
                for name, qa in sets.items()})
    total = visited = 0
    for q in sets["tail_or3_wand"][0]:
        s.search(q, k=10, algo="wand")
        total += s.last_wand_stats["blocks_total"]
        visited += s.last_wand_stats["blocks_visited"]
    out["or3_blocks_skipped_frac"] = 1 - visited / max(1, total)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("cmd", choices=["build", "time"])
    ap.add_argument("work", help="directory of the corpus (src/) and index (idx/)")
    ap.add_argument("--seed", type=int, default=31)
    ap.add_argument("--docs", type=int, default=40000)
    ap.add_argument("--files", type=int, default=10, help="input files = segments (build)")
    args = ap.parse_args(argv)
    if args.cmd == "build":
        build(args.work, args.seed, args.docs, args.files)
    else:
        print(json.dumps(timings(args.work, args.seed, args.docs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
