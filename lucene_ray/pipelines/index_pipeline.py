"""Index-build pipeline — read → extract → partition → invert → commit.

Ray-Data-native lifecycle (the reference's ingest chain, SURVEY §3.1):

1. ``read_parquet`` with column pruning (only key/text/needed columns leave
   storage).
2. Optional HTML extraction / exact dedup stages (per-batch maps).
3. Deterministic hash partitioning on the document key: ``part_id =
   crc32(key) % P``. One partition ≈ one DWPT (DocumentsWriter.java:54 —
   zero cross-doc coordination), and the assignment is content-keyed, so
   retries and different parallelism levels build byte-identical segments.
4. ``groupby(part_id).map_groups(invert kernel)`` — the only doc-side
   shuffle. Each group sorts by key (deterministic local docIDs), runs the
   vectorized invert kernel (state/segment.build_segment_tables) and writes
   its segment directory atomically. Completed partitions are durable
   checkpoints: a rerun skips them (manifest.completed_part_ids).
5. Global term-statistics build: each segment's term table IS a
   pre-aggregated partial (term, df, ttf), so the global dictionary is a
   ``groupby(term).sum`` over partials — per-key fan-in is bounded by the
   number of segments, which is how we keep the Zipf head (hot terms) from
   skewing the shuffle (SURVEY §4.1 'data skew').
6. Manifest commit (atomic, generational) — the Ray analogue of segments_N.

Scale notes: nothing here materializes the corpus on the driver; the invert
kernel streams one partition at a time under the streaming executor's
backpressure; P should be sized so a partition's postings fit a worker's
heap (~3× its text bytes).
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pyarrow as pa

from lucene_ray.functions.analysis import get_analyzer
from lucene_ray.state.manifest import Manifest, completed_part_ids
from lucene_ray.state.segment import build_segment_tables, write_segment


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


class _BuildSegment:
    """map_groups callable: one partition's rows → one written segment +
    one manifest-entry row. Heavy local state (the in-RAM postings hash,
    TermsHashPerField analogue) lives only for the duration of the group."""

    def __init__(self, index_dir: str, key_col: str, text_col: str, analyzer_kind: str,
                 store_positions: bool, num_partitions: int,
                 docvalue_cols: tuple = (), text_cols: tuple = (),
                 index_sort: tuple | None = None, store_offsets: bool = False,
                 store_term_vectors: bool = False,
                 store_payloads: bool = False):
        self.index_dir = index_dir
        self.key_col = key_col
        self.text_col = text_col
        self.analyzer = get_analyzer(analyzer_kind)
        self.analyzer_kind = analyzer_kind
        self.store_positions = store_positions
        self.store_offsets = store_offsets
        self.store_term_vectors = store_term_vectors
        self.store_payloads = store_payloads
        self.num_partitions = num_partitions
        self.docvalue_cols = tuple(docvalue_cols)
        self.text_cols = tuple(text_cols)  # >1 → multi-field segments
        # IndexWriterConfig.setIndexSort analogue: (column, "asc"|"desc") —
        # local docIDs are assigned in (column, key) order so sorted-field
        # top-k can early-terminate (index/IndexSorter.java)
        self.index_sort = tuple(index_sort) if index_sort else None

    def manifest_config(self) -> dict:
        """The manifest config keys that record how segments were built."""
        return {
            "key_col": self.key_col,
            "text_col": self.text_col,
            "analyzer": self.analyzer_kind,
            "num_partitions": self.num_partitions,
            "store_positions": self.store_positions,
            "store_offsets": self.store_offsets,
            "store_term_vectors": self.store_term_vectors,
            "store_payloads": self.store_payloads,
            "docvalue_cols": list(self.docvalue_cols),
            "text_cols": list(self.text_cols),
            "index_sort": list(self.index_sort) if self.index_sort else None,
        }

    def __call__(self, group: pa.Table) -> pa.Table:
        part_id = int(group.column("__part_id")[0].as_py())
        meta = self.build(group, part_id)
        import json

        return pa.table({"meta": pa.array([json.dumps(meta)], type=pa.string())})

    def build(self, group: pa.Table, part_id: int, lineage: dict | None = None,
              sub: int | None = None, num_subs: int = 1) -> dict:
        import time as _time

        t0 = _time.time()
        _limit_worker_threads()
        if self.index_sort:
            # deterministic index-sorted docIDs: (sort column, key) order
            col, direction = self.index_sort
            order = pa.compute.sort_indices(
                group,
                sort_keys=[
                    (col, "descending" if direction == "desc" else "ascending"),
                    (self.key_col, "ascending"),
                ],
            )
        else:
            # deterministic local docID order: sort by document key
            order = pa.compute.sort_indices(group.column(self.key_col))
        group = group.take(order)
        keys = group.column(self.key_col).to_numpy(zero_copy_only=False)
        extra_meta_fields = {}
        if len(self.text_cols) > 1:
            from lucene_ray.state.segment import build_multifield_segment_tables

            postings_tbl, docs_tbl, stats, field_stats = build_multifield_segment_tables(
                keys,
                {f: group.column(f) for f in self.text_cols},
                self.analyzer,
                default_field=self.text_col,
                store_positions=self.store_positions,
            )
            extra_meta_fields = {
                "field_stats": field_stats,
                "fields": sorted(self.text_cols),
                "default_field": self.text_col,
            }
            vectors_tbl = None
        else:
            texts = group.column(self.text_col)  # Arrow column → tokenizer fast path
            out = build_segment_tables(
                keys, texts, self.analyzer, store_positions=self.store_positions,
                store_offsets=self.store_offsets,
                store_term_vectors=self.store_term_vectors,
                store_payloads=self.store_payloads,
            )
            if self.store_term_vectors:
                postings_tbl, docs_tbl, stats, vectors_tbl = out
            else:
                postings_tbl, docs_tbl, stats = out
                vectors_tbl = None
        for c in self.docvalue_cols:  # doc-values columns ride the docs table
            docs_tbl = docs_tbl.append_column(c, group.column(c))
        name = (
            f"seg{part_id:06d}-g0" if sub is None
            else f"seg{part_id:06d}p{sub:02d}-g0"
        )
        meta = write_segment(
            self.index_dir,
            name,
            postings_tbl,
            docs_tbl,
            stats,
            vectors_tbl=vectors_tbl,
            extra_meta={
                "part_id": part_id,
                "num_partitions": self.num_partitions,
                "sub": sub,
                "num_subs": num_subs,
                "gen": 0,
                "analyzer": self.analyzer_kind,
                "key_col": self.key_col,
                "n_rows_in": group.num_rows,
                # lineage + metrics: which slice produced this segment, how
                # long the invert+write took, rows/s — aggregated into the
                # manifest's metrics block at commit
                "key_min": str(keys[0]) if len(keys) else None,
                "key_max": str(keys[-1]) if len(keys) else None,
                "index_sort": list(self.index_sort) if self.index_sort else None,
                "build_sec": round(_time.time() - t0, 4),
                **(lineage or {}),
                **extra_meta_fields,
            },
        )
        return meta


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
    """
    import json

    import ray.data

    os.makedirs(index_dir, exist_ok=True)
    if isinstance(source, (str, list)):
        cols = columns or ([key_col, "html"] if extract_html else [key_col, text_col])
        cols = list(dict.fromkeys(list(cols) + list(docvalue_cols) + list(text_cols)))
        from lucene_ray.sources.io import read_parquet_clean

        ds = read_parquet_clean(source, columns=cols)
    else:
        ds = source

    if extract_html:
        from lucene_ray.sources.corpus import extract_batch

        ds = ds.map_batches(extract_batch, batch_format="pyarrow")

    if dedup_exact:
        from lucene_ray.pipelines.dedup import dedup_exact_by_key

        ds = dedup_exact_by_key(ds, key_col=key_col)

    done = completed_part_ids(index_dir) if resume else {}
    done = {
        p: m
        for p, m in done.items()
        if m.get("gen", 0) == 0 and m.get("num_partitions") == num_partitions
    }

    metas: list[dict] = list(done.values())
    remaining = set(range(num_partitions)) - set(done.keys())
    builder = _BuildSegment(index_dir, key_col, text_col, analyzer, store_positions,
                            num_partitions, docvalue_cols, text_cols, index_sort,
                            store_offsets, store_term_vectors,
                            store_payloads)
    if remaining:
        ds = ds.map_batches(
            _AddPartId(partition_col or key_col, num_partitions, frozenset(done.keys())),
            batch_format="pyarrow",
        )

        def build_one_segment(group: pa.Table) -> pa.Table:
            return builder(group)

        out = ds.groupby("__part_id").map_groups(build_one_segment, batch_format="pyarrow")
        for row in out.take_all():
            metas.append(json.loads(row["meta"]))

    metas.sort(key=lambda m: m["part_id"])
    return _commit_build(index_dir, metas, len(done), builder.manifest_config())


def _commit_build(index_dir: str, metas: list[dict], n_resumed: int,
                  config: dict) -> Manifest:
    """Commit a build's segment metas as the next manifest generation, with
    the build metrics (per segment: ``n_partitions`` counts the committed
    segments, ``n_partitions_resumed`` those kept from an earlier run), then
    materialize the global term statistics. Shared by both build paths."""
    import time as _time

    build_secs = [m.get("build_sec", 0.0) for m in metas]
    n_docs = sum(m["max_doc"] for m in metas)
    metrics = {
        "committed_unix": round(_time.time(), 3),
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
    max_in_flight: int | None = None,
    index_sort: tuple | None = None,
    max_docs_per_segment: int = 4_000_000,
) -> Manifest:
    """Shuffle-free index build: ONE INPUT FILE → ONE SEGMENT.

    ``max_docs_per_segment`` is the shard-size guard: an input file larger
    than this is split into that many-row sub-segments INSIDE its task
    (names ``seg<part>pNN-g0``), so one oversized shard can neither blow the
    task's heap nor exceed the docID space; resume treats a part as done
    only when all of its sub-segments are durable. Upstream sharding is
    still the right tool at 100 TB — the guard bounds the damage of skew.

    The natural layout at 100 TB: input shards are already the partition
    (exactly a Lucene DWPT — DocumentsWriter.java:54 needs no cross-doc
    coordination either), so no doc-side all-to-all at all; part_id = the
    file's position in the sorted file list, which is deterministic,
    retry-safe, and the per-segment lineage (source_file in the manifest).
    Docs are still key-sorted inside each segment, and the ONLY shuffle left
    in the whole build is the metadata-sized term-statistics groupby.

    Implemented with raw Ray tasks (the Dataset API cannot pin a stable
    file↔task mapping across parallelism levels, which the determinism
    contract needs); backpressure via a bounded in-flight window.
    """
    import glob as _glob
    import json

    import ray

    os.makedirs(index_dir, exist_ok=True)
    if isinstance(source, str):
        files = sorted(_glob.glob(os.path.join(source, "*.parquet"))) if os.path.isdir(
            source
        ) else [source]
    else:
        files = sorted(source)
    assert files, f"no parquet files under {source!r}"
    n = len(files)
    cols = columns or ([key_col, "html"] if extract_html else
                       [key_col, text_col])
    cols = list(dict.fromkeys(list(cols) + list(docvalue_cols) + list(text_cols)))

    from lucene_ray.state.manifest import completed_part_metas

    done_groups = completed_part_metas(index_dir) if resume else {}
    done: dict[int, list[dict]] = {}
    for p, ms in done_groups.items():
        ms = [m for m in ms
              if m.get("gen", 0) == 0 and m.get("num_partitions") == n]
        if ms and len({m.get("sub") for m in ms}) == len(ms) \
                and len(ms) == (ms[0].get("num_subs") or 1):
            done[p] = sorted(ms, key=lambda m: m.get("sub") or 0)

    builder = _BuildSegment(index_dir, key_col, text_col, analyzer,
                            store_positions, n, docvalue_cols, text_cols, index_sort,
                            store_offsets, store_term_vectors, store_payloads)

    @ray.remote(num_cpus=1)
    def _file_task(path: str, part_id: int) -> str:
        import pyarrow.parquet as _pq

        tbl = _pq.read_table(path, columns=cols)
        if extract_html:
            from lucene_ray.sources.corpus import extract_batch

            tbl = extract_batch(tbl, include_title="title" in (text_cols or ()))
        lineage = {"source_file": path}
        if tbl.num_rows <= max_docs_per_segment:
            metas = [builder.build(tbl, part_id, lineage=lineage)]
        else:
            # shard-size guard: split the oversized file into sub-segments
            num_subs = -(-tbl.num_rows // max_docs_per_segment)
            step = -(-tbl.num_rows // num_subs)
            metas = [
                builder.build(tbl.slice(j * step, step), part_id,
                              lineage=lineage, sub=j, num_subs=num_subs)
                for j in range(num_subs)
            ]
        return json.dumps(metas)

    metas: list[dict] = [m for ms in done.values() for m in ms]
    pending = [(f, i) for i, f in enumerate(files) if i not in done]
    window = max_in_flight or int(ray.cluster_resources().get("CPU", 8)) * 2
    in_flight: list = []
    idx = 0
    while idx < len(pending) or in_flight:
        while idx < len(pending) and len(in_flight) < window:
            f, i = pending[idx]
            in_flight.append(_file_task.remote(f, i))
            idx += 1
        ready, in_flight = ray.wait(in_flight, num_returns=1)
        for ref in ready:
            metas.extend(json.loads(ray.get(ref)))

    metas.sort(key=lambda m: (m["part_id"], m.get("sub") or 0))
    return _commit_build(index_dir, metas, sum(len(ms) for ms in done.values()),
                         {**builder.manifest_config(), "partition_by": "input_file"})


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
    if total_terms and total_terms <= small_dict_limit:
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
