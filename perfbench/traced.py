"""The traced run (``--trace 1``): per-layer self times and counts.

One traced run covers every layer, whichever workload is named:

* build: ``build_index_by_file`` once with the worker tracer gated off and
  once with it on (the difference is ``trace.build_overhead_frac``), and
  ``build_index`` once untraced; the untraced ones give
  ``build.by_file_docs_per_s`` and ``build.shuffle_docs_per_s``. Layer
  spans come from the Ray workers (perfbench/trace.py), ``build_term_stats``
  is traced in the driver, where it runs;
* merge: one ``merge_index`` round on a copy of the index;
* batch: ``search_distributed`` over the first tail queries, its operator
  times read from ``Dataset.stats()``, its rows checked against the
  in-process searcher;
* query: the first queries of the hot and the tail log, each run once
  untraced and once traced on a fresh searcher (the difference is
  ``trace.<log>_query_overhead_frac``), with per-shape breakdowns for the
  tail log.

A merge that raises is reported as ``merge.failed`` (the number of merge
groups that raised), with the exception on standard error.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
import traceback
from collections import defaultdict

from perfbench import run as R
from perfbench.trace import (
    FLAG_NAME,
    Tracer,
    collect_worker_spans,
    install_query_layers,
    self_time_by_name,
    self_times,
)

SPANS_FILE = os.path.join(R.ROOT, ".pb-trace", "spans.jsonl")
TAIL_SHAPES = {"term": "term", "and": "and", "or3": "or", "phrase": "phrase",
               "prefix2": "prefix", "prefix4": "prefix"}


def _gate(trace_dir: str, on: bool) -> None:
    flag = os.path.join(trace_dir, FLAG_NAME)
    if on:
        open(flag, "w").close()
    elif os.path.exists(flag):
        os.remove(flag)


def _traced_build(run: R.Run, src: str, idx: str, trace_dir: str, records: list):
    from lucene_ray.pipelines import index_pipeline

    driver = Tracer()
    driver.wrap(index_pipeline, "build_term_stats", "manifest.term_stats")
    _gate(trace_dir, True)
    try:
        out, secs = run.stage("build_index_by_file.traced", R.build_by_file, src, idx)
    finally:
        _gate(trace_dir, False)
        driver.uninstall()
    selfs, counts = collect_worker_spans(trace_dir, records)
    selfs.update(self_time_by_name(self_times(driver.spans)))
    records.append({"where": "driver", "spans": driver.spans})
    return out, secs, selfs, counts


def start_data_actors() -> None:
    """The end of a session's first Ray Data execution (the warm-up's)
    starts Ray Data's autoscaling-requester actor; wait until it is up, so
    that its start (~1 s of CPU) lands in no timed build."""
    import ray
    from ray.data._internal.execution.autoscaling_requester import (
        get_or_create_autoscaling_requester_actor,
    )

    ray.get(get_or_create_autoscaling_requester_actor().__ray_ready__.remote())


def build_layers(run: R.Run, src: str, work: str, trace_dir: str, corpus,
                 records: list) -> str | None:
    plain, t_plain = run.stage("build_index_by_file", R.build_by_file, src,
                               os.path.join(work, "idx_plain"))
    if plain is not None:
        run.metric("build.by_file_docs_per_s", corpus.n_docs / t_plain, "docs/s")
    sh = os.path.join(work, "idx_shuffle")
    out, t_sh = run.stage("build_index", R.build_shuffle, src, sh)
    if out is not None:
        run.metric("build.shuffle_docs_per_s", corpus.n_docs / t_sh, "docs/s")
        run.stage("check shuffle", R.check_index, run, "shuffle", sh, corpus,
                  check_segments=False)
    idx = os.path.join(work, "idx")
    out, t_traced, selfs, counts = _traced_build(run, src, idx, trace_dir, records)
    if plain is None or out is None:
        return None
    m = run.metric
    m("sources.extract_s", selfs["sources.extract"], "s")
    m("analysis.tokenize_s", selfs["analysis.tokenize"], "s")
    m("analysis.tokens", counts["analysis.tokens"], "count")
    m("postings.encode_s", selfs["postings.encode"], "s")
    m("postings.impacts_s", selfs["postings.impacts"], "s")
    m("postings.skip_meta_s", selfs["postings.skip_meta"], "s")
    m("postings.encode_calls", counts["postings.encode_calls"], "count")
    m("segment.build_tables_self_s", selfs["segment.build_tables"], "s")
    m("segment.write_s", selfs["segment.write"], "s")
    m("segment.bytes_written", R.dir_bytes(os.path.join(idx, "segments")), "bytes")
    m("manifest.term_stats_s", selfs["manifest.term_stats"], "s")
    m("trace.build_overhead_frac", t_traced / t_plain - 1.0, "ratio")
    run.stage("check by_file", R.check_index, run, "by_file", idx, corpus)
    return idx


def merge_layers(run: R.Run, idx: str, work: str, trace_dir: str, records: list) -> None:
    from lucene_ray.state.merge import merge_index

    copy = os.path.join(work, "idx_merge")
    shutil.copytree(idx, copy)
    _gate(trace_dir, True)
    try:
        merge_index(copy)
    except Exception:
        R.log(f"merge_index raised:\n{traceback.format_exc()}")
    finally:
        _gate(trace_dir, False)
    selfs, counts = collect_worker_spans(trace_dir, records)
    run.metric("merge.attempt_s", counts["merge.group.wall_s"], "s")
    run.metric("merge.open_s", selfs["merge.open"], "s")
    run.metric("merge.failed", counts["merge.failed"], "count")


_OP = re.compile(r"^Operator \d+ (?P<name>.+?): ")
_WALL = re.compile(r"Remote wall time: .*?, (?P<v>[\d.]+)(?P<u>us|ms|s) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def operator_wall_times(stats: str) -> dict[str, float]:
    """{operator name: summed remote wall seconds} from ``Dataset.stats()``
    (sub-operators, such as a sort's map and reduce, add to their operator)."""
    out: dict[str, float] = defaultdict(float)
    op = None
    for line in stats.splitlines():
        mo = _OP.match(line)
        if mo:
            op = mo.group("name")
            continue
        mw = _WALL.search(line)
        if mw and op is not None:
            out[op] += float(mw.group("v")) * _UNIT[mw.group("u")]
    return out


def batch_layers(run: R.Run, idx: str, qlog) -> None:
    from lucene_ray.pipelines.search_pipeline import search_distributed

    queries = [q for _, q in qlog[:R.BATCH_QUERIES]]

    def batch():
        ds = search_distributed(idx, queries, k=R.K, concurrency=1)
        return ds, ds.take_all()

    out, total = run.stage("search_distributed", batch)
    if out is None:
        return
    ds, rows = out
    ops = operator_wall_times(ds.stats())
    run.metric("search_pipeline.total_s", total, "s")
    run.metric("search_pipeline.shard_map_s", ops.get("MapBatches(SearcherShard)", 0.0), "s")
    run.metric("search_pipeline.sort_s", ops.get("Sort", 0.0), "s")
    run.metric("search_pipeline.merge_topk_s", ops.get("MapBatches(merge_topk)", 0.0), "s")
    got = defaultdict(list)
    for r in sorted(rows, key=lambda r: (r["query_id"], r["rank"])):
        got[r["query_id"]].append((r["doc_key"], float(r["score"])))
    searcher = R.open_searcher(idx, queries[0])
    bad = [q for i, q in enumerate(queries) if got.get(i, []) != R.topk(searcher, q, "auto")]
    run.check("search_distributed rows == in-process top-k", not bad, f"{bad[:3]}")


def _loop_fixed(run: R.Run, searcher, qlog, tracer: Tracer | None = None):
    """Every query of ``qlog`` once; returns (elapsed, WAND block stats)."""
    blocks_total = blocks_visited = 0
    t0 = time.perf_counter()
    for shape, q in qlog:
        if tracer is not None:
            tracer.tag = shape
        before = getattr(searcher, "last_wand_stats", None)
        _, _ = run.stage(f"query {q!r}", searcher.search, q, k=R.K, algo=R.algo_for(shape))
        ws = getattr(searcher, "last_wand_stats", None)
        if ws is not None and ws is not before:
            blocks_total += ws["blocks_total"]
            blocks_visited += ws["blocks_visited"]
    return time.perf_counter() - t0, (blocks_total, blocks_visited)


def query_layers(run: R.Run, idx: str, corpus, which: str, records: list) -> None:
    qlog = R.query_log(corpus, which)[: R.TRACE_QUERIES[which]]
    plain = R.open_searcher(idx, qlog[0][1])
    t_plain, _ = _loop_fixed(run, plain, qlog)
    run.stage("check wand", R.check_wand, run, plain, qlog)
    run.stage("check oracle", R.check_oracle, run, plain, qlog, corpus)

    searcher = R.open_searcher(idx, qlog[0][1])
    tracer = Tracer()
    install_query_layers(tracer)
    try:
        t_traced, (b_total, b_visited) = _loop_fixed(run, searcher, qlog, tracer)
    finally:
        tracer.uninstall()
    records.append({"where": f"driver:{which}", "spans": tracer.spans})
    st = self_times(tracer.spans)
    selfs = self_time_by_name(st)
    c = tracer.counts
    m = run.metric
    p = which + "."
    m(p + "query.parse_s", selfs["query.parse"], "s")
    m(p + "searcher.term_stats_s", selfs["searcher.term_stats"], "s")
    m(p + "similarity.score_s", selfs["similarity.score"], "s")
    m(p + "searcher.search_self_s", selfs["searcher.search"], "s")
    m(p + "segment.term_lookup_s", selfs["segment.term_lookup"], "s")
    m(p + "segment.term_lookup_calls", c["segment.term_lookup_calls"], "count")
    m(p + "segment.postings_s", selfs["segment.postings"] + selfs["postings.decode"], "s")
    m(p + "segment.postings_calls", c["segment.postings_calls"], "count")
    m(p + "postings.decode_calls", c["postings.decode_calls"], "count")
    m(p + "segment.blocks_decoded", c["segment.blocks_decoded"], "count")
    m(f"trace.{which}_query_overhead_frac", t_traced / t_plain - 1.0, "ratio")
    if which != "tail":
        # hot terms repeat, so the searcher's per-segment term-score cache
        # answers them before SegmentReader.postings is reached:
        # segment.postings_calls shows it, a decode-cache ratio would be 0
        return
    decodable = c["segment.postings_decodable_calls"]
    m(p + "segment.decode_cache_hit_ratio",
      1.0 - c["postings.decode_calls"] / decodable if decodable else 0.0, "ratio")
    m(p + "segment.positions_s", selfs["segment.positions"], "s")
    m(p + "searcher.wand_blocks_skipped_frac",
      1.0 - b_visited / b_total if b_total else 0.0, "ratio")
    by_shape: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (name, tag), v in st.items():
        by_shape[TAIL_SHAPES[tag]][name] += v
    for shape in sorted(set(TAIL_SHAPES.values())):
        s = by_shape[shape]
        m(f"tail.{shape}.query_s", sum(s.values()), "s")
        m(f"tail.{shape}.dictionary_s", s["segment.term_lookup"] + s["segment.term_range"]
          + s["searcher.term_stats"], "s")
        m(f"tail.{shape}.postings_s", s["segment.postings"] + s["postings.decode"]
          + s["postings.decode_block"] + s["segment.positions"], "s")
        m(f"tail.{shape}.search_self_s", s["searcher.search"], "s")
        if shape != "prefix":  # prefix queries are constant-score
            m(f"tail.{shape}.score_s", s["similarity.score"], "s")


def run_traced(run: R.Run, seed: int, work: str) -> None:
    corpus, src = R.make_inputs(seed, work)
    R.log(json.dumps({"corpus": corpus.summary()}))
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir)
    records: list = []
    try:
        with R.ray_session(trace_dir):
            run.stage("warm workers", R.warm_workers)
            run.stage("start Ray Data actors", start_data_actors)
            idx = build_layers(run, src, work, trace_dir, corpus, records)
            if idx is None:
                return
            merge_layers(run, idx, work, trace_dir, records)
            batch_layers(run, idx, R.query_log(corpus, "tail"))
        for which in ("hot", "tail"):
            query_layers(run, idx, corpus, which, records)
    finally:
        write_spans(records)


def write_spans(records: list) -> None:
    """Every span tree of the run, one JSON line each, to SPANS_FILE
    (span = [name, start, end, parent index, tag])."""
    os.makedirs(os.path.dirname(SPANS_FILE), exist_ok=True)
    with open(SPANS_FILE, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    R.log(f"spans: {SPANS_FILE}")
