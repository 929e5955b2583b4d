"""Index-build pipeline — read → extract → partition → invert → commit.

Ray-Data-native lifecycle (the reference's ingest chain, SURVEY §3.1):

1. ``read_parquet`` with column pruning (only key/text/needed columns leave
   storage).
2. Optional HTML extraction / exact dedup stages (per-batch maps).
3. Deterministic hash partitioning on the document key: ``part_id =
   crc32(key) % P``. One partition ≈ one DWPT (DocumentsWriter.java:54 —
   zero cross-doc coordination), and the assignment is content-keyed, so
   retries and different parallelism levels build byte-identical segments.
4. ``groupby(part_id).map_groups(_BuildSegment)`` — the only doc-side
   shuffle. Each group sorts by key (deterministic local docIDs), runs the
   vectorized invert kernel (state/segment.build_segment_tables) and writes
   its segment directory atomically. Completed partitions are durable
   checkpoints: each segment's meta carries the build fingerprint
   (``build_fp``), and a rerun of the same build skips the partitions whose
   segments carry it (``_resumable``).
5. Global term-statistics build: each segment's term table IS a
   pre-aggregated partial (term, df, ttf), so the global dictionary is a
   ``groupby(term).sum`` over partials — per-key fan-in is bounded by the
   number of segments, which is how we keep the Zipf head (hot terms) from
   skewing the shuffle (SURVEY §4.1 'data skew').
6. Manifest commit (atomic, generational) — the Ray analogue of segments_N.

``_BuildSegment`` is the one indexing chain: both builds and both
document-update paths (state/deletes.py) turn rows into a segment through
it, configured by the manifest config.

Scale notes: nothing here materializes the corpus on the driver; the invert
kernel streams one partition at a time under the streaming executor's
backpressure; P should be sized so a partition's postings fit a worker's
heap (~3× its text bytes).
"""

from __future__ import annotations

import functools
import json
import os
import time
import uuid
import zlib

import numpy as np
import pyarrow as pa

from lucene_ray.functions.analysis import get_analyzer
from lucene_ray.state.manifest import Manifest, completed_part_metas
from lucene_ray.state.segment import SEGMENT_FORMAT, build_segment_tables, write_segment


_threads_limited = False


def _limit_worker_threads() -> None:
    """One Ray worker == one CPU slot: pin Arrow's internal pools so N
    concurrent invert/merge tasks don't each spin up a machine-wide thread
    pool (heavy per-task slowdown from oversubscription otherwise), and tune
    glibc so large scratch buffers stay on the reusable heap (see
    state/merge._tune_malloc — faulting fresh pages is slow on virtualized
    hosts, so a worker's later tasks should reuse its earlier tasks' pages).
    Runs inside the worker process, once."""
    global _threads_limited
    if not _threads_limited:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        from lucene_ray.state.merge import _tune_malloc

        _tune_malloc()
        _threads_limited = True


def _part_ids_for_keys(keys: pa.ChunkedArray | pa.Array, num_partitions: int) -> np.ndarray:
    """Deterministic content hash → partition id (stable across processes —
    unlike Python's salted ``hash``)."""
    if pa.types.is_integer(keys.type):
        k = keys.to_numpy(zero_copy_only=False).astype(np.uint64)
        return ((k * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)).astype(np.int64) % num_partitions
    vals = keys.to_pylist()
    return np.array(
        [zlib.crc32(v.encode() if isinstance(v, str) else bytes(v)) for v in vals],
        dtype=np.int64,
    ) % num_partitions


class _AddPartId:
    def __init__(self, key_col: str, num_partitions: int, skip: frozenset):
        self.key_col = key_col
        self.num_partitions = num_partitions
        self.skip = skip

    def __call__(self, batch: pa.Table) -> pa.Table:
        pids = _part_ids_for_keys(batch.column(self.key_col), self.num_partitions)
        out = batch.append_column("__part_id", pa.array(pids, type=pa.int64()))
        if self.skip:
            mask = ~np.isin(pids, np.fromiter(self.skip, dtype=np.int64))
            out = out.filter(pa.array(mask))
        return out


_CONFIG_KEYS = ("key_col", "text_col", "analyzer", "num_partitions", "store_positions",
                "store_offsets", "store_term_vectors", "store_payloads")


def _manifest_config(options: dict) -> dict:
    """The manifest config — how a build's segments are made — picked from a
    build's keyword ``options`` (its ``locals()``)."""
    index_sort = options["index_sort"]
    return {**{k: options[k] for k in _CONFIG_KEYS},
            "docvalue_cols": list(options["docvalue_cols"]),
            "text_cols": list(options["text_cols"]),
            "index_sort": list(index_sort) if index_sort else None}


def _read_step(config: dict, columns: list[str] | None,
               extract_html: bool) -> tuple[list[str], object]:
    """The one read-and-extract step of both builds: (columns to read, batch
    transform or None). HTML extraction writes ``text`` (and ``title`` when
    it is a text field), so those are read from the source only when
    ``columns`` names them — a source text column may ride along so
    extraction can check itself against it."""
    cols = [*(columns or [config["key_col"], "html" if extract_html else config["text_col"]])]
    cols = list(dict.fromkeys(cols + [
        c for c in config["docvalue_cols"] + config["text_cols"]
        if not (extract_html and c in ("text", "title"))]))
    if not extract_html:
        return cols, None
    from lucene_ray.sources.corpus import extract_batch

    return cols, functools.partial(extract_batch, include_title="title" in config["text_cols"])


class _BuildSegment:
    """The one indexing chain: rows → one written segment + its manifest
    entry, configured by a manifest config (``Manifest.config`` for
    updates). Heavy local state (the in-RAM postings hash, TermsHashPerField
    analogue) lives only for the duration of one call. As a map_groups
    callable it builds one partition of the shuffle build."""

    def __init__(self, index_dir: str, config: dict, build_fp: int | None = None):
        self.index_dir = index_dir
        self.config = config
        self.analyzer = get_analyzer(config.get("analyzer", "standard"))
        self.build_fp = build_fp
        self.__name__ = "build_segment"  # map_groups names its stage after it

    def __call__(self, group: pa.Table) -> pa.Table:
        _limit_worker_threads()
        part_id = int(group.column("__part_id")[0].as_py())
        return pa.table({"meta": [json.dumps(self.build_part(group, part_id))]})

    def build_part(self, rows: pa.Table, part_id: int, sub: int | None = None,
                   num_subs: int = 1, **lineage) -> dict:
        """(Sub-)segment ``sub`` of build partition ``part_id``. The name
        carries the build fingerprint, so another build writes beside the
        segments a committed manifest names instead of over them."""
        sub_tag = "" if sub is None else f"p{sub:02d}"
        name = f"seg{part_id:06d}{sub_tag}-g0-{self.build_fp:08x}"
        return self.build(rows, name, {
            "part_id": part_id, "num_partitions": self.config["num_partitions"],
            "sub": sub, "num_subs": num_subs, "gen": 0, **lineage,
            "build_fp": self.build_fp})

    def build(self, rows: pa.Table, name: str, lineage: dict) -> dict:
        """Invert ``rows`` into segment ``name``; ``lineage`` (which part or
        update produced it) rides in the meta with the build metrics."""
        t0 = time.time()
        cfg = self.config
        key_col, text_col = cfg["key_col"], cfg["text_col"]
        text_cols = cfg.get("text_cols") or []
        index_sort = cfg.get("index_sort")
        if index_sort:
            # IndexWriterConfig.setIndexSort analogue: local docIDs in
            # (column, key) order so sorted-field top-k can early-terminate
            # (index/IndexSorter.java)
            col, direction = index_sort
            order = pa.compute.sort_indices(rows, sort_keys=[
                (col, "descending" if direction == "desc" else "ascending"),
                (key_col, "ascending")])
        else:
            # deterministic local docID order: sort by document key
            order = pa.compute.sort_indices(rows.column(key_col))
        rows = rows.take(order)
        keys = rows.column(key_col).to_numpy(zero_copy_only=False)
        fields = {}
        vectors_tbl = None
        if len(text_cols) > 1:
            from lucene_ray.state.segment import build_multifield_segment_tables

            postings_tbl, docs_tbl, stats, field_stats = build_multifield_segment_tables(
                keys, {f: rows.column(f) for f in text_cols}, self.analyzer,
                default_field=text_col,
                store_positions=cfg.get("store_positions", True))
            fields = {"field_stats": field_stats, "fields": sorted(text_cols),
                      "default_field": text_col}
        else:
            out = build_segment_tables(
                keys, rows.column(text_col), self.analyzer,
                store_positions=cfg.get("store_positions", True),
                store_offsets=cfg.get("store_offsets", False),
                store_term_vectors=cfg.get("store_term_vectors", False),
                store_payloads=cfg.get("store_payloads", False),
            )
            postings_tbl, docs_tbl, stats = out[:3]
            if len(out) > 3:
                vectors_tbl = out[3]
        for c in cfg.get("docvalue_cols") or ():  # doc-values ride the docs table
            docs_tbl = docs_tbl.append_column(c, rows.column(c))
        return write_segment(
            self.index_dir, name, postings_tbl, docs_tbl, stats,
            vectors_tbl=vectors_tbl,
            extra_meta={
                **lineage,
                "analyzer": cfg.get("analyzer", "standard"),
                "key_col": key_col,
                "n_rows_in": rows.num_rows,
                # metrics: how long the invert+write took, aggregated into
                # the manifest's metrics block at commit
                "key_min": str(keys[0]) if len(keys) else None,
                "key_max": str(keys[-1]) if len(keys) else None,
                "index_sort": index_sort,
                "build_sec": round(time.time() - t0, 4),
                **fields,
            },
        )


def _build_file(item: dict, *, builder: _BuildSegment, columns: list[str],
                extract, max_docs: int) -> list[dict]:
    """flat_map body of the by-file build: one input file → its segment,
    split into sub-segments of at most ``max_docs`` rows."""
    import pyarrow.parquet as pq

    _limit_worker_threads()
    part_id, path = item["part_id"], item["path"]
    tbl = pq.read_table(path, columns=columns)
    if extract is not None:
        tbl = extract(tbl)
    if tbl.num_rows <= max_docs:
        metas = [builder.build_part(tbl, part_id, source_file=path)]
    else:
        num_subs = -(-tbl.num_rows // max_docs)
        step = -(-tbl.num_rows // num_subs)
        metas = [builder.build_part(tbl.slice(j * step, step), part_id, j, num_subs,
                                    source_file=path)
                 for j in range(num_subs)]
    return [{"meta": json.dumps(m)} for m in metas]


def _resumable(index_dir: str, build_fp: int) -> dict[int, list[dict]]:
    """The one resume filter: {part_id: metas} of the partitions an earlier
    run of this same build (same fingerprint) completed — every one of a
    part's ``num_subs`` sub-segments durable."""
    done = {}
    for p, ms in completed_part_metas(index_dir).items():
        ms = [m for m in ms if m.get("gen", 0) == 0 and m.get("build_fp") == build_fp]
        if ms and len({m.get("sub") for m in ms}) == len(ms) == (ms[0].get("num_subs") or 1):
            done[p] = sorted(ms, key=lambda m: m.get("sub") or 0)
    return done


def _file_stats(paths) -> list[list]:
    """[path, size, mtime_ns] of each local file named by ``paths`` (files,
    or directories walked in sorted order). Remote or missing paths add
    nothing: the fingerprint cannot see their content."""
    out = []
    for p in paths:
        if os.path.isdir(p):
            out += _file_stats(sorted(os.path.join(root, f)
                                      for root, _, names in os.walk(p) for f in names))
        elif os.path.isfile(p):
            st = os.stat(p)
            out.append([p, st.st_size, st.st_mtime_ns])
    return out


def _build(index_dir: str, config: dict, resume: bool, run, **inputs) -> Manifest:
    """The body both builds share: resume, then ``run(builder, done_part_ids)`` —
    a Dataset of ``{"meta": json}`` rows, one per written segment — for the
    partitions left, then commit. The build fingerprint (``build_fp`` in
    each segment's meta) is the CRC32 of the canonical JSON of the manifest
    config, the read-side ``inputs`` (HTML extraction, dedup, the
    partition column and each local source file's path, size and
    mtime_ns) and ``SEGMENT_FORMAT``; resume keeps only segments that carry
    the same value, so segments of an older format are rebuilt. The
    fingerprint is in every segment's name too, so another build's segments
    — those the committed manifest names — are never overwritten, and a
    crash mid-build leaves that manifest whole. A same-named directory is
    this build's own, left by an earlier run, and is kept as it is
    (``write_segment``). ``resume=False`` folds a fresh nonce into the
    fingerprint: the build writes every segment anew, beside all earlier
    ones, and no later run resumes them."""
    if not resume:
        inputs["rebuild"] = uuid.uuid4().hex
    build_fp = zlib.crc32(json.dumps(
        {**config, **inputs, "segment_format": SEGMENT_FORMAT}, sort_keys=True).encode())
    os.makedirs(index_dir, exist_ok=True)
    done = _resumable(index_dir, build_fp) if resume else {}
    metas = [m for ms in done.values() for m in ms]
    n_resumed = len(metas)
    if len(done) < config["num_partitions"]:
        builder = _BuildSegment(index_dir, config, build_fp)
        metas += [json.loads(r["meta"]) for r in run(builder, frozenset(done)).take_all()]
    metas.sort(key=lambda m: (m["part_id"], m.get("sub") or 0))
    return _commit_build(index_dir, metas, n_resumed, config)


def build_index(
    source,
    index_dir: str,
    *,
    key_col: str = "url",
    text_col: str = "text",
    num_partitions: int = 16,
    analyzer: str = "standard",
    store_positions: bool = True,
    store_offsets: bool = False,
    store_term_vectors: bool = False,
    store_payloads: bool = False,
    resume: bool = True,
    extract_html: bool = False,
    dedup_exact: bool = False,
    columns: list[str] | None = None,
    docvalue_cols: tuple = (),
    text_cols: tuple = (),
    index_sort: tuple | None = None,
    partition_col: str | None = None,
) -> Manifest:
    """Build (or resume) an index from a Dataset or a parquet path/dir.

    ``partition_col`` hash-partitions on that column instead of the key —
    the block-join co-location contract (all docs of a parent/child block
    share the column value, so the whole block lands in one segment with
    children-before-parent key order — join/ToParentBlockJoinQuery's
    contiguous-block requirement).

    Returns the committed Manifest. Idempotent: re-running after a partial
    failure skips completed partitions and commits the same final state.
    When ``source`` is a local path or list of paths, the build fingerprint
    covers each file's path, size and mtime_ns, so a changed input is
    rebuilt, not resumed; a Dataset's content is not fingerprinted, so
    rebuild a changed one with ``resume=False``.
    """
    config = _manifest_config(locals())
    cols, extract = _read_step(config, columns, extract_html)
    files = []
    if isinstance(source, (str, list)):
        from lucene_ray.sources.io import read_parquet_clean

        files = _file_stats([source] if isinstance(source, str) else source)
        ds = read_parquet_clean(source, columns=cols)
    else:
        ds = source
    if extract is not None:
        ds = ds.map_batches(extract, batch_format="pyarrow")
    if dedup_exact:
        from lucene_ray.pipelines.dedup import dedup_exact_by_key

        ds = dedup_exact_by_key(ds, key_col=key_col)

    def run(builder: _BuildSegment, done: frozenset):
        return ds.map_batches(
            _AddPartId(partition_col or key_col, num_partitions, done),
            batch_format="pyarrow",
        ).groupby("__part_id").map_groups(builder, batch_format="pyarrow")

    return _build(index_dir, config, resume, run, extract_html=extract_html,
                  dedup_exact=dedup_exact, partition_col=partition_col, files=files)


def _commit_build(index_dir: str, metas: list[dict], n_resumed: int,
                  config: dict) -> Manifest:
    """Commit a build's segment metas as the next manifest generation, with
    the build metrics (per segment: ``n_partitions`` counts the committed
    segments, ``n_partitions_resumed`` those kept from an earlier run), then
    materialize the global term statistics."""
    build_secs = [m.get("build_sec", 0.0) for m in metas]
    n_docs = sum(m["max_doc"] for m in metas)
    metrics = {
        "committed_unix": round(time.time(), 3),
        "n_partitions": len(metas),
        "n_partitions_resumed": n_resumed,
        "n_docs": n_docs,
        "sum_partition_build_sec": round(sum(build_secs), 3),
        "max_partition_build_sec": round(max(build_secs), 4) if build_secs else 0,
        "docs_per_partition_sec": round(
            n_docs / sum(build_secs), 1) if sum(build_secs) else None,
    }
    manifest = Manifest(index_dir, Manifest.latest_gen(index_dir) + 1, metas,
                        config={"metrics": metrics, **config})
    manifest.commit()
    build_term_stats(index_dir, manifest)
    return manifest


def build_index_by_file(
    source,
    index_dir: str,
    *,
    key_col: str = "url",
    text_col: str = "text",
    analyzer: str = "standard",
    store_positions: bool = True,
    store_offsets: bool = False,
    store_term_vectors: bool = False,
    store_payloads: bool = False,
    resume: bool = True,
    extract_html: bool = False,
    columns: list[str] | None = None,
    docvalue_cols: tuple = (),
    text_cols: tuple = (),
    index_sort: tuple | None = None,
    max_docs_per_segment: int = 4_000_000,
) -> Manifest:
    """Shuffle-free index build: ONE INPUT FILE → ONE SEGMENT.

    ``max_docs_per_segment`` is the shard-size guard: an input file larger
    than this is split into that many-row sub-segments INSIDE its task
    (names ``seg<part>pNN-g0-<build_fp>``), so one oversized shard can
    neither blow the task's heap nor exceed the docID space; resume treats
    a part as done only when all of its sub-segments are durable. Upstream
    sharding is still the right tool at 100 TB — the guard bounds the
    damage of skew.

    The natural layout at 100 TB: input shards are already the partition
    (exactly a Lucene DWPT — DocumentsWriter.java:54 needs no cross-doc
    coordination either), so no doc-side all-to-all at all; part_id = the
    file's position in the sorted file list, which is deterministic,
    retry-safe, and the per-segment lineage (source_file in the manifest).
    Docs are still key-sorted inside each segment, and the ONLY shuffle left
    in the whole build is the metadata-sized term-statistics groupby.

    The plan is a Dataset of ``{path, part_id}`` rows, one block per file,
    and one ``flat_map`` task builds each file's segments: ``part_id``
    travels in the row, so the file↔segment mapping is the same at any
    parallelism, and the streaming executor bounds the tasks in flight. The
    build fingerprint covers each file's path, size and mtime_ns, so a
    changed input file is rebuilt, not resumed.
    """
    import glob as _glob

    import ray.data

    if isinstance(source, str):
        files = sorted(_glob.glob(os.path.join(source, "*.parquet"))) if os.path.isdir(
            source
        ) else [source]
    else:
        files = sorted(source)
    assert files, f"no parquet files under {source!r}"
    num_partitions = len(files)
    config = {**_manifest_config(locals()), "partition_by": "input_file"}
    cols, extract = _read_step(config, columns, extract_html)

    def run(builder: _BuildSegment, done: frozenset):
        plan = [{"path": f, "part_id": i} for i, f in enumerate(files) if i not in done]
        return ray.data.from_items(plan, override_num_blocks=len(plan)).flat_map(
            _build_file, fn_kwargs={"builder": builder, "columns": cols,
                                    "extract": extract,
                                    "max_docs": max_docs_per_segment})

    return _build(index_dir, config, resume, run, extract_html=extract_html,
                  files=_file_stats(files))


def add_indexes(dest_dir: str, source_dirs: list[str]) -> Manifest:
    """IndexWriter.addIndexes(Directory...) analogue (IndexWriter.java:2945):
    bulk-import every live segment of the source indexes into ``dest_dir`` by
    copying segment directories (renamed to avoid collisions) and committing
    one new manifest generation. Source stats are per-segment partials, so
    the merged collection stats are just the extended sum."""
    import shutil

    dest = Manifest.load(dest_dir)
    existing = {s["name"] for s in dest.segments}
    new_segments = list(dest.segments)
    for si, src in enumerate(source_dirs):
        sm = Manifest.load(src)
        for seg in sm.segments:
            new_name = seg["name"]
            if new_name in existing:
                new_name = f"imp{si}-{seg['name']}"
            shutil.copytree(
                os.path.join(src, "segments", seg["name"]),
                os.path.join(dest_dir, "segments", new_name),
                dirs_exist_ok=True,
            )
            seg = dict(seg)
            seg["name"] = new_name
            seg["imported_from"] = src
            existing.add(new_name)
            new_segments.append(seg)
    out = Manifest(dest_dir, dest.gen + 1, new_segments, dest.config)
    out.commit()
    # global dictionary changes → rebuild
    build_term_stats(dest_dir, out)
    return out


def build_term_stats(index_dir: str, manifest: Manifest | None = None, *,
                     small_dict_limit: int = 2_000_000,
                     salt_buckets: int = 16) -> str:
    """Global term dictionary: the groupby(term) shuffle with explicit skew
    handling.

    The distributed analogue of summing TermStates across leaves
    (index/TermStates.java); materialized once at index time so every
    searcher actor scores with identical global statistics.

    Skew design (SURVEY §4.1 'hot terms'): the inputs are PER-SEGMENT
    partials — one row per (term, segment) — so a Zipf-head term contributes
    at most #segments rows, never #documents. For very large segment counts
    even that fan-in is bounded by SALTING: stage 1 groups by
    (term, salt = crc32(term||segment) % S) summing ≤ #segments/S rows per
    key, stage 2 groups the ≤ S salted partials per term. The dictionary is
    written TERM-RANGE-SORTED so searchers binary-search it (and a sharded
    range layout falls out of writing each stage-2 group separately at
    scale).

    Small dictionaries take a driver-side Arrow groupby fast path (the same
    math, none of the all-to-all overhead).
    """
    import ray.data
    from ray.data.aggregate import Sum

    manifest = manifest or Manifest.load(index_dir)
    paths = [os.path.join(d, "postings.parquet") for d in manifest.segment_dirs()]
    out_path = os.path.join(index_dir, f"term_stats-{manifest.gen}.parquet")
    if os.path.exists(out_path):
        return out_path
    total_terms = sum(s.get("n_terms", 0) for s in manifest.segments)
    # a 0-term index too: the distributed write of no rows writes no file
    if total_terms <= small_dict_limit:
        import concurrent.futures

        import pyarrow.parquet as _pq

        with concurrent.futures.ThreadPoolExecutor(max_workers=16) as ex:
            parts = list(
                ex.map(
                    lambda p: _pq.read_table(p, columns=["term", "doc_freq", "total_tf"]),
                    paths,
                )
            )
        cat = pa.concat_tables(parts)
        agg_t = cat.group_by("term").aggregate(
            [("doc_freq", "sum"), ("total_tf", "sum")]
        )
        tbl = agg_t.rename_columns(["term", "doc_freq", "total_tf"]).sort_by("term")
    else:
        import shutil

        from lucene_ray.sources.io import read_parquet_clean

        ds = read_parquet_clean(paths, columns=["term", "doc_freq", "total_tf"])

        def add_salt(batch: pa.Table) -> pa.Table:
            from lucene_ray.pipelines.dedup import _hash_tokens_u64

            # hash(term) spreads a hot term's partials deterministically —
            # combined with the per-batch origin this bounds stage-1 fan-in
            salts = (_hash_tokens_u64(batch.column("term").to_pylist())
                     % np.uint64(salt_buckets)).astype(np.int32)
            rnd = np.arange(batch.num_rows, dtype=np.int32) % salt_buckets
            return batch.append_column(
                "__salt", pa.array((salts + rnd) % salt_buckets, type=pa.int32())
            )

        stage1 = (
            ds.map_batches(add_salt, batch_format="pyarrow")
            .groupby(["term", "__salt"])
            .aggregate(
                Sum("doc_freq", alias_name="doc_freq"),
                Sum("total_tf", alias_name="total_tf"),
            )
        )
        agg = stage1.groupby("term").aggregate(
            Sum("doc_freq", alias_name="doc_freq"), Sum("total_tf", alias_name="total_tf")
        )

        def order_cols(batch: pa.Table) -> pa.Table:
            return batch.select(["term", "doc_freq", "total_tf"])

        # DISTRIBUTED finalization: the sorted dictionary is written straight
        # from the sort's range-partitioned workers as a DIRECTORY of
        # term-range parquet files — the driver never holds the vocabulary
        # (at web scale it is 10⁸–10⁹ terms). Readers open the path with
        # pyarrow's dataset reader (a directory reads like one table);
        # GlobalTermStats re-establishes global order from the per-file
        # ranges. Atomic via write-temp-then-rename, like segments.
        tmp_dir = out_path + ".tmpd"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        agg.sort("term").map_batches(
            order_cols, batch_format="pyarrow"
        ).write_parquet(tmp_dir)
        os.rename(tmp_dir, out_path)
        return out_path
    import pyarrow.parquet as pq

    tmp = out_path + ".tmp"
    pq.write_table(tbl, tmp)
    os.rename(tmp, out_path)
    return out_path
