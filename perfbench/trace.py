"""Span tracing around lucene_ray's public layer functions.

The benchmark never edits the program: a ``Tracer`` replaces a function or
method with a wrapper that records one span per call (name, start, end,
parent, tag) and optional counts, and puts the original back on
``uninstall``. Spans stay in memory; self time of a layer is its spans'
duration minus the time covered by their child spans.

Build and merge work runs inside Ray worker processes. ``install_worker``
is the ``runtime_env`` ``worker_process_setup_hook``: it installs the build
and merge wrappers in every worker. A worker records only while the flag
file ``<PERFBENCH_TRACE_DIR>/on`` exists, and when a top-level (root) span
closes it appends that span tree and its counts, as one JSON line, to
``<PERFBENCH_TRACE_DIR>/spans-<pid>.jsonl``. The driver reads those files
once the traced phase is over.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time
from collections import defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
FLAG_NAME = "on"


class Tracer:
    def __init__(self, gate: str | None = None):
        """``gate``: a file path; when given, root spans are recorded only
        while that file exists (checked once per root call)."""
        self.gate = gate
        self.spans: list[list] = []  # [name, start, end, parent index, tag]
        self.counts: dict[str, float] = defaultdict(float)
        self.tag = None  # copied into each span opened while it is set
        self._stack: list[int] = []
        self._off_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _recording(self) -> bool:
        if self._stack:
            return True
        if self._off_depth:
            return False
        return self.gate is None or os.path.exists(self.gate)

    def wrap(self, owner, attr: str, name: str, on_result=None, on_error=None):
        """Replace ``owner.attr`` by a span-recording wrapper.
        ``on_result(tracer, result)`` may add counts from the return value;
        ``on_error(tracer)`` runs when the call raises."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording():
                tracer._off_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._off_depth -= 1
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, parent, tracer.tag]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, out)
                return out
            except BaseException:
                if on_error is not None:
                    on_error(tracer)
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if not tracer._stack:
                    tracer.on_root_closed()

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def on_root_closed(self) -> None:
        """Hook for subclasses that ship finished span trees elsewhere."""


def self_times(spans: list[list]) -> dict[tuple, float]:
    """{(name, tag): self seconds}: each span's duration minus the time its
    child spans cover."""
    child = [0.0] * len(spans)
    for _name, t0, t1, parent, _tag in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[tuple, float] = defaultdict(float)
    for i, (name, t0, t1, _parent, tag) in enumerate(spans):
        out[(name, tag)] += (t1 - t0) - child[i]
    return out


def self_time_by_name(by_key: dict[tuple, float]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for (name, _tag), v in by_key.items():
        out[name] += v
    return out


# ------------------------------------------------------------ layer targets

def install_build_layers(t: Tracer) -> None:
    """Write-side layers, as called inside a build worker."""
    from lucene_ray.functions.analysis import Analyzer
    from lucene_ray.pipelines import index_pipeline
    from lucene_ray.sources import corpus as sources_corpus
    from lucene_ray.state import segment

    def count_tokens(tr, out):
        tr.counts["analysis.tokens"] += len(out[0])

    def count_encode(tr, out):
        tr.counts["postings.encode_calls"] += 1

    t.wrap(sources_corpus, "extract_batch", "sources.extract")
    t.wrap(Analyzer, "tokenize_batch_encoded", "analysis.tokenize", count_tokens)
    t.wrap(segment, "encode_postings", "postings.encode", count_encode)
    t.wrap(segment, "competitive_impacts", "postings.impacts")
    t.wrap(segment, "block_skip_metadata", "postings.skip_meta")
    t.wrap(index_pipeline, "build_segment_tables", "segment.build_tables")
    t.wrap(index_pipeline, "write_segment", "segment.write")


def install_merge_layers(t: Tracer) -> None:
    """Merge layers, as called inside a merge worker."""
    from lucene_ray.state import merge
    from lucene_ray.state.segment import SegmentReader

    def failed(tr):
        tr.counts["merge.failed"] += 1

    t.wrap(merge, "merge_segment_group", "merge.group", on_error=failed)
    t.wrap(SegmentReader, "__init__", "merge.open")


def install_query_layers(t: Tracer) -> None:
    """Read-side layers, as called by an in-process IndexSearcher."""
    from lucene_ray.functions.similarity import BM25Scorer
    from lucene_ray.searcher import IndexSearcher
    from lucene_ray.state import segment
    from lucene_ray.state.segment import BLOCK_SIZE, SegmentReader

    def count(key):
        def f(tr, out):
            tr.counts[key] += 1
        return f

    def postings_result(tr, out):
        tr.counts["segment.postings_calls"] += 1
        if len(out[0]) > 1:  # not a singleton or absent term: decodable
            tr.counts["segment.postings_decodable_calls"] += 1

    def full_decode(tr, out):
        tr.counts["postings.decode_calls"] += 1
        tr.counts["segment.blocks_decoded"] += -(-len(out[0]) // BLOCK_SIZE)

    def block_decode(tr, out):
        tr.counts["segment.blocks_decoded"] += 1

    t.wrap(IndexSearcher, "parse", "query.parse")
    t.wrap(IndexSearcher, "term_statistics", "searcher.term_stats")
    t.wrap(BM25Scorer, "score", "similarity.score")
    t.wrap(SegmentReader, "term_index", "segment.term_lookup",
           count("segment.term_lookup_calls"))
    t.wrap(SegmentReader, "postings", "segment.postings", postings_result)
    t.wrap(SegmentReader, "term_range", "segment.term_range")
    t.wrap(SegmentReader, "positions", "segment.positions")
    t.wrap(segment, "decode_postings", "postings.decode", full_decode)
    t.wrap(segment, "decode_postings_block_range", "postings.decode_block", block_decode)
    t.wrap(IndexSearcher, "search", "searcher.search")


# ------------------------------------------------------------ worker side

class _WorkerTracer(Tracer):
    def __init__(self, trace_dir: str):
        super().__init__(gate=os.path.join(trace_dir, FLAG_NAME))
        self.out_path = os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")

    def on_root_closed(self) -> None:
        rec = {"spans": self.spans, "counts": dict(self.counts)}
        with open(self.out_path, "a") as f:
            f.write(json.dumps(rec) + "\n")
        self.spans = []
        self.counts = defaultdict(float)


_worker_tracer: _WorkerTracer | None = None


def install_worker() -> None:
    """``worker_process_setup_hook``: trace build and merge layers in this
    Ray worker process (one tracer per process)."""
    global _worker_tracer
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir or _worker_tracer is not None:
        return
    _worker_tracer = _WorkerTracer(trace_dir)
    install_build_layers(_worker_tracer)
    install_merge_layers(_worker_tracer)


def collect_worker_spans(trace_dir: str, records: list) -> tuple[dict[str, float], dict[str, float]]:
    """(self seconds by span name, summed counts) over every span tree the
    workers wrote to ``trace_dir``. The files are consumed; their records
    are appended to ``records``."""
    selfs: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                records.append({"where": os.path.basename(path), **rec})
                for name, v in self_time_by_name(self_times(rec["spans"])).items():
                    selfs[name] += v
                for k, v in rec["counts"].items():
                    counts[k] += v
                for name, t0, t1, parent, _tag in rec["spans"]:
                    if parent < 0:
                        counts[f"{name}.wall_s"] += t1 - t0
        os.remove(path)
    return selfs, counts
