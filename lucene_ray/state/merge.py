"""Segment merging — tiered policy on the manifest, merge work as Ray tasks.

The reference's merge machinery (index/TieredMergePolicy.java:85-92,321 —
pick ≤ merge_factor segments minimizing a skew score; SegmentMerger.java:
103-155 — stream per-structure merges; ConcurrentMergeScheduler.java:55-126
— bounded concurrent background merges) maps to: pure-metadata candidate
selection on the driver (manifest rows only — cheap), one Ray task per merge
(bounded in flight by Ray's scheduler + num_cpus per task), and a new
manifest generation committed atomically when all merges land. Source
segments are deleted only AFTER the new generation commits (the
IndexFileDeleter ref-count analogue).

Merged docIDs: segments are concatenated in part_id/name order, docIDs
rebased by each segment's doc base — exactly the reference's mapped-docID
merge (index/DocIDMerger.java) without deletes. Merging never changes
global statistics, so scores are identical before and after (tested).

Scale note: a merge task's memory is the sum of its inputs' postings — the
policy bounds fan-in (merge_factor) and the max merged size, so no task is
ever O(total index).
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa

from lucene_ray.state.manifest import Manifest
from lucene_ray.state.segment import SegmentReader, postings_table, write_segment

_malloc_tuned = False


def _tune_malloc() -> None:
    """Keep large scratch buffers on the process heap for REUSE instead of
    per-allocation mmap/munmap (glibc returns >32MB blocks to the OS on
    free). Merge tasks allocate a few hundred MB of transient numpy arrays;
    on hosts where faulting fresh pages is expensive (virtualized memory,
    proactive reclaim), re-faulting those per task dominates the merge wall.
    Idempotent, per worker process; silently a no-op off glibc."""
    global _malloc_tuned
    if _malloc_tuned:
        return
    _malloc_tuned = True
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except Exception:
        pass


def merge_segment_group(index_dir: str, seg_names: list[str], out_name: str,
                        store_positions: bool = True,
                        del_gens: dict | None = None,
                        dv_gens: dict | None = None,
                        soft_field: str | None = None,
                        retention_fn=None) -> dict:
    """K-way merge of segments into one (SegmentMerger analogue). Pure
    function of its inputs; safe to retry. When a segment carries a
    live-docs generation (deletes.py), its dead docs are dropped and docIDs
    compacted — the DocIDMerger behavior that reclaims deletes."""
    import time as _time

    from lucene_ray.state.deletes import load_livedocs

    _tune_malloc()
    _t: dict[str, float] = {}
    _t0 = _time.time()
    readers = [SegmentReader(os.path.join(index_dir, "segments", n)) for n in seg_names]
    del_gens = del_gens or {}
    lives = []
    remaps = []
    live_counts = []
    for n, r in zip(seg_names, readers):
        live = load_livedocs(r.dir, del_gens.get(n, 0))
        if live is None:
            live = np.ones(r.max_doc, dtype=bool)
        if soft_field:
            # reclaim soft-deleted docs at merge unless the retention
            # predicate keeps them (SoftDeletesRetentionMergePolicy.java:55
            # wrapForMerge: retention-query hits get their live bit back for
            # the merge; kept docs carry their soft-delete mark forward and
            # stay hidden from search)
            g = int((dv_gens or {}).get(n, {}).get(soft_field, 0))
            import pyarrow.parquet as _pq

            if g:
                vals = _pq.read_table(os.path.join(
                    r.dir, f"dv-{soft_field}-{g}.parquet")).column(
                    soft_field).to_numpy(zero_copy_only=False)
            else:
                vals = r.doc_values.get(soft_field)
            if vals is not None:
                drop = np.asarray(vals) != 0
                if retention_fn is not None and drop.any():
                    docs_t = _pq.read_table(
                        os.path.join(r.dir, "docs.parquet"))
                    keep = np.asarray(retention_fn(docs_t), dtype=bool)
                    drop &= ~keep
                live = live & ~drop
        lives.append(live)
        remap = np.full(r.max_doc, -1, dtype=np.int32)
        remap[live] = np.arange(int(live.sum()), dtype=np.int32)
        remaps.append(remap)
        live_counts.append(int(live.sum()))
    bases = np.cumsum([0] + live_counts[:-1]).astype(np.int32)

    # term-sorted union of the per-segment dictionaries (vectorized — a
    # per-term Python k-way cursor walk dominated merge time at web
    # vocabulary sizes; postings are grouped by one stable sort of the
    # (term, reader) runs below)
    all_terms = np.unique(np.concatenate([r.terms for r in readers]))
    dls = np.concatenate(
        [r.dls[lv] for r, lv in zip(readers, lives)]
    ).astype(np.int32, copy=False)

    # Posting-level flattening: per reader, decode all postings in one
    # postings_range read (a page at a time), remap docIDs and keep the
    # (term, reader) RUN with its occurrence streams. Readers are visited in
    # doc-base order and a term's postings within one reader are already
    # doc-ordered, so the runs STABLY reordered by term code are the merged
    # (term, doc) order and their concatenated streams the merged doc-major
    # streams (DocIDMerger's mapped-docID order, with no posting-level sort;
    # a per-element gather only under deletes).
    _t["open_sec"] = _time.time() - _t0
    _t0 = _time.time()
    # positions / offsets / payloads (.pay stream analogue) survive a merge
    # only when every source segment carries them; payloads do NOT require
    # positions (a store_positions=False, store_payloads=True build is legal
    # and PayloadScoreQuery needs no positions)
    store_positions = store_positions and all(r.has_positions for r in readers)
    store_offsets = store_positions and all(r.has_offsets for r in readers)
    store_payloads = all(r.has_payloads for r in readers)
    run_codes: list[int] = []
    doc_parts, freq_parts = [], []
    pos_parts, ofs_parts, pay_parts = [], [], []
    for r, base, live, remap in zip(readers, bases, lives, remaps):
        gcodes = np.searchsorted(all_terms, r.terms)  # exact: r.terms ⊆ all_terms
        docs_r, freqs_r, starts_r = r.postings_range(0, r.n_terms)
        starts_r = starts_r.tolist()
        for i in range(r.n_terms):
            s, e = starts_r[i], starts_r[i + 1]
            d, f = docs_r[s:e], freqs_r[s:e]
            keep = live[d]
            occ = None
            if not keep.all():
                occ = np.repeat(keep, f)
                d, f = d[keep], f[keep]
                if not len(d):
                    continue
            run_codes.append(int(gcodes[i]))
            doc_parts.append((remap[d] + base).astype(np.int32, copy=False))
            freq_parts.append(f.astype(np.int32, copy=False))
            if store_positions:
                ptr = r.positions(i)
                pos_parts.append(ptr if occ is None else ptr[occ])
                if store_offsets:
                    otr = r.offsets(i)
                    ofs_parts.append(otr if occ is None else otr.reshape(-1, 2)[occ].ravel())
            if store_payloads:
                patr = r.payloads(i)
                pay_parts.append(patr if occ is None else patr[occ])

    rc = np.asarray(run_codes, dtype=np.int64)
    ro = np.argsort(rc, kind="stable")  # reader order kept within a term

    def flat(parts: list, dtype) -> np.ndarray:
        return np.concatenate([parts[j] for j in ro]) if len(ro) else np.empty(0, dtype)

    dd, ff = flat(doc_parts, np.int32), flat(freq_parts, np.int32)
    run_off = np.zeros(len(ro) + 1, dtype=np.int64)
    np.cumsum([len(doc_parts[j]) for j in ro], out=run_off[1:])
    del doc_parts, freq_parts
    # a term starts at its first run (terms whose postings were all
    # reclaimed by deletes simply never appear)
    rc_o = rc[ro]
    first = np.ones(len(ro), dtype=bool)
    first[1:] = rc_o[1:] != rc_o[:-1]
    streams = dict(
        positions=flat(pos_parts, np.int32) if store_positions else None,
        offsets=flat(ofs_parts, np.int32) if store_offsets else None,
        payloads=flat(pay_parts, np.float32) if store_payloads else None)
    del pos_parts, ofs_parts, pay_parts
    _t["gather_sec"] = _time.time() - _t0

    _t0 = _time.time()
    postings_tbl = postings_table(
        all_terms[rc_o[first]], run_off[:-1][first], dd, ff, dls, **streams)
    _t["postings_sec"] = _time.time() - _t0
    _t0 = _time.time()
    # concat the full docs tables (doc-values columns survive merges),
    # dropping dead rows
    import pyarrow.parquet as pq

    def _docs_with_dv(n: str) -> pa.Table:
        d = os.path.join(index_dir, "segments", n)
        t = pq.read_table(os.path.join(d, "docs.parquet"))
        # bake in doc-values update generations (docValuesGen): the merged
        # segment carries the CURRENT values, dropping the side files
        for field, g in ((dv_gens or {}).get(n) or {}).items():
            col = pq.read_table(os.path.join(d, f"dv-{field}-{g}.parquet")).column(field)
            if field in t.column_names:
                t = t.set_column(t.column_names.index(field), field, col)
            else:  # update-born column (e.g. soft deletes) has no base
                t = t.append_column(field, col)
        if soft_field and soft_field not in t.column_names:
            # untouched segment: all-zeros so every source shares a schema
            # (concat would otherwise null-fill and nan-poison the mask)
            t = t.append_column(soft_field, pa.array(
                np.zeros(t.num_rows, dtype=np.int64)))
        return t

    docs_tbl = pa.concat_tables(
        [_docs_with_dv(n).filter(pa.array(lv)) for n, lv in zip(seg_names, lives)]
    )
    # term vectors (doc-major side file): survive the merge when every
    # source carries them — same concat-with-live-filter as the docs table
    vectors_tbl = None
    if all(getattr(r, "has_term_vectors", False) for r in readers):
        vectors_tbl = pa.concat_tables([
            pq.read_table(os.path.join(index_dir, "segments", n, "vectors.parquet"))
            .filter(pa.array(lv))
            for n, lv in zip(seg_names, lives)
        ]).combine_chunks()
    stats = dict(
        max_doc=int(sum(live_counts)),
        doc_count=int((dls > 0).sum()),
        sum_doc_freq=len(ff),
        sum_total_term_freq=int(ff.sum(dtype=np.int64)),
    )
    extra: dict = {}
    if any(r.meta.get("field_stats") for r in readers):
        # multi-field: recompute exact per-field stats from the merged tables
        # (exact under deletes too — derived from surviving postings/rows)
        from lucene_ray.state.segment import FIELD_SEP

        fields = sorted(readers[0].meta.get("fields", []))
        terms_np = np.asarray(postings_tbl.column("term").to_pylist(), dtype=object)
        df_np = postings_tbl.column("doc_freq").to_numpy()
        ttf_np = postings_tbl.column("total_tf").to_numpy()
        field_stats = {}
        for f in fields:
            pref = f + FIELD_SEP
            m = np.fromiter((t.startswith(pref) for t in terms_np), dtype=bool,
                            count=len(terms_np))
            dl_f = docs_tbl.column(f"dl__{f}").to_numpy()
            field_stats[f] = dict(
                max_doc=int(sum(live_counts)),
                doc_count=int((dl_f > 0).sum()),
                sum_doc_freq=int(df_np[m].sum()),
                sum_total_term_freq=int(ttf_np[m].sum()),
            )
        default_f = readers[0].meta.get("default_field", fields[0] if fields else None)
        if default_f in field_stats:
            stats = dict(field_stats[default_f])
            stats["max_doc"] = int(sum(live_counts))
        extra = {
            "field_stats": field_stats,
            "fields": fields,
            "default_field": default_f,
        }
    _t["docs_sec"] = _time.time() - _t0
    _t0 = _time.time()
    meta = write_segment(
        index_dir,
        out_name,
        postings_tbl,
        docs_tbl,
        stats,
        vectors_tbl=vectors_tbl,
        extra_meta={
            "gen": max(r.meta.get("gen", 0) for r in readers) + 1,
            "part_id": min(r.meta.get("part_id") or 0 for r in readers),
            "merged_from": seg_names,
            "analyzer": readers[0].meta.get("analyzer"),
            "key_col": readers[0].meta.get("key_col"),
            **extra,
        },
    )
    _t["write_sec"] = _time.time() - _t0
    # per-stage merge breakdown rides the manifest row so the bench can
    # adjudicate regressions (open/decode-gather/postings/docs/write)
    meta["merge_timings"] = {k: round(v, 4) for k, v in _t.items()}
    return meta


def tiered_merge_score(live_sizes: list[int], raw_sizes: list[int],
                       hit_too_large: bool, merge_factor: int,
                       floor_docs: int = 1000) -> float:
    """TieredMergePolicy.score (index/TieredMergePolicy.java:644-698), doc
    counts standing in for byte sizes: smaller is better.

      skew            — first (largest) segment's floored share of the
                        floored total: 1/n for balanced merges, →1 for
                        lopsided ones (lopsided cascades are O(N²) over
                        time); a too-large merge pretends perfect skew
                        (it cannot cascade).
      × total^0.05    — gently favor smaller merges.
      × nonDelRatio²  — strongly favor delete-reclaiming merges.
    """
    tot_after = sum(live_sizes)
    tot_after_floored = sum(max(s, floor_docs) for s in live_sizes)
    tot_before = max(sum(raw_sizes), 1)
    if hit_too_large:
        skew = 1.0 / merge_factor
    else:
        skew = max(live_sizes[0], floor_docs) / max(tot_after_floored, 1)
    non_del_ratio = tot_after / tot_before
    return skew * (max(tot_after, 1) ** 0.05) * (non_del_ratio ** 2)


def select_merges(segments: list[dict], *, merge_factor: int = 10,
                  max_merged_docs: int = 5_000_000,
                  max_groups: int | None = None,
                  floor_docs: int = 1000) -> list[list[str]]:
    """Tiered candidate selection — the TieredMergePolicy.doFindMerges
    sliding-window + scored-choice loop (index/TieredMergePolicy.java:
    474-640) over manifest metadata, with doc counts as the size measure.

    ``max_groups`` set = the forceMerge path (findForcedMerges analogue):
    smallest-first packing toward the target count, unchanged. Natural
    rounds (``max_groups`` None) sort eligible segments by live size
    descending, slide a window from every start index (packing past
    too-large segments like the reference's bin-packing `continue`), score
    each candidate with :func:`tiered_merge_score`, take the best, and
    repeat until fewer than two eligible segments remain. Divergence from
    the reference, documented: the allowedSegCount budget gate is the
    POLICY's merge trigger — ``merge_index`` here is an explicit one-round
    trigger, so whether to merge at all is the caller's decision and the
    round is eager."""
    if max_groups is not None:
        out = []
        pool = sorted(segments, key=lambda s: (s["max_doc"], s["name"]))
        while len(pool) >= 2 and len(out) < max_groups:
            group, total, rest = [], 0, []
            for s in pool:
                if len(group) < merge_factor and total + s["max_doc"] <= max_merged_docs:
                    group.append(s)
                    total += s["max_doc"]
                else:
                    rest.append(s)
            if len(group) < 2:
                break
            out.append([s["name"] for s in sorted(group, key=lambda s: s["name"])])
            pool = rest
        return out

    # (name, raw_docs, live_docs), size-sorted descending like sortedEligible
    infos = []
    for s in segments:
        raw = int(s["max_doc"])
        live = raw - int(s.get("del_count", 0))
        # too-big exclusion (TieredMergePolicy.java:438-452): segments past
        # half the max merged size only stay eligible to reclaim deletes
        if live > max_merged_docs / 2 and raw == live:
            continue
        infos.append((s["name"], raw, live))
    infos.sort(key=lambda x: (-x[2], x[0]))

    out: list[list[str]] = []
    used: set[str] = set()
    while True:
        pool = [i for i in infos if i[0] not in used]
        if len(pool) < 2 and not any(r != l for _, r, l in pool):
            break
        best = best_score = None
        best_hit_too_large = False
        for start in range(len(pool)):
            cand: list[tuple] = []
            tot = 0
            hit_too_large = False
            for idx in range(start, len(pool)):
                if len(cand) >= merge_factor:
                    break
                name, raw, live = pool[idx]
                if tot + live > max_merged_docs:
                    hit_too_large = True
                    if not cand:  # singleton too-large (delete reclaim)
                        cand.append(pool[idx])
                    continue  # keep packing smaller segments into the gap
                cand.append(pool[idx])
                tot += live
            if not cand:
                continue
            if len(cand) == 1 and cand[0][1] == cand[0][2]:
                continue  # singleton with no deletes is pointless
            # past the first full window only smaller merges remain
            if best is not None and not hit_too_large and len(cand) < merge_factor:
                break
            score = tiered_merge_score([c[2] for c in cand],
                                       [c[1] for c in cand],
                                       hit_too_large, merge_factor, floor_docs)
            if best_score is None or score < best_score:
                best, best_score = cand, score
                best_hit_too_large = hit_too_large
        if best is None:
            break
        used.update(n for n, _, _ in best)
        out.append(sorted(n for n, _, _ in best))
    return out


def merge_index(index_dir: str, *, merge_factor: int = 10,
                max_merged_docs: int = 5_000_000, delete_sources: bool = True,
                use_ray: bool = True, max_groups: int | None = None,
                retention_fn=None) -> Manifest:
    """One merge round: select groups, run merge tasks, commit gen+1.

    ``retention_fn`` (docs-table → bool mask) is the
    SoftDeletesRetentionMergePolicy retention-query analogue: soft-deleted
    docs it marks True survive the merge (still hidden from search); the
    rest are reclaimed. Only consulted when the index config names a
    soft_deletes_field.

    Returns the new Manifest (or the current one when nothing qualifies).
    """
    manifest = Manifest.load(index_dir)
    groups = select_merges(manifest.segments, merge_factor=merge_factor,
                           max_merged_docs=max_merged_docs,
                           max_groups=max_groups)
    if not groups:
        return manifest
    new_gen = manifest.gen + 1
    merged_names = {}
    jobs = []
    for gi, names in enumerate(groups):
        out_name = f"merged-g{new_gen}-{gi:04d}"
        merged_names[out_name] = names
        jobs.append((names, out_name))

    del_gens = {s["name"]: s.get("del_gen", 0) for s in manifest.segments}
    dv_gens = {s["name"]: (s.get("dv_gens") or {}) for s in manifest.segments}
    soft_field = (manifest.config or {}).get("soft_deletes_field")
    if use_ray:
        import ray

        @ray.remote(num_cpus=1)
        def _task(names, out_name):
            return merge_segment_group(index_dir, names, out_name,
                                       del_gens=del_gens, dv_gens=dv_gens,
                                       soft_field=soft_field,
                                       retention_fn=retention_fn)

        metas = ray.get([_task.remote(n, o) for n, o in jobs])
    else:
        metas = [merge_segment_group(index_dir, n, o, del_gens=del_gens,
                                     dv_gens=dv_gens, soft_field=soft_field,
                                     retention_fn=retention_fn)
                 for n, o in jobs]

    consumed = {n for g in groups for n in g}
    from lucene_ray.state.manifest import CommitConflict

    for _attempt in range(8):
        survivors = [s for s in manifest.segments if s["name"] not in consumed]
        new_segments = sorted(survivors + metas, key=lambda s: (s.get("part_id") or 0, s["name"]))
        new_manifest = Manifest(index_dir, manifest.gen + 1, new_segments, manifest.config)
        try:
            new_manifest.commit()
            break
        except CommitConflict:
            # a concurrent writer claimed our generation: reload. The merge
            # output was built from the del_gens snapshot — if any consumed
            # segment's deletes advanced (or it vanished) meanwhile, replaying
            # the stale merge would RESURRECT deleted docs, so abort instead.
            manifest = Manifest.load(index_dir)
            fresh = {
                s["name"]: (s.get("del_gen", 0), s.get("dv_gens") or {})
                for s in manifest.segments
            }
            for n in consumed:
                if fresh.get(n, None) != (del_gens.get(n, 0), dv_gens.get(n, {})):
                    for out_name in merged_names:
                        shutil.rmtree(os.path.join(index_dir, "segments", out_name),
                                      ignore_errors=True)
                    raise CommitConflict(
                        f"segment {n} changed under the merge (deletes or a "
                        "competing merge); merge aborted, redo against the "
                        "current manifest"
                    )
    else:
        raise CommitConflict("merge gave up after 8 manifest commit retries")
    new_gen = new_manifest.gen
    # global term dictionary: unchanged by a pure merge (copy forward); a
    # merge that reclaimed deletes changes df/ttf → rebuild from the new
    # segment partials
    reclaimed = any(del_gens.get(n, 0) for g in groups for n in g)
    old_ts = os.path.join(index_dir, f"term_stats-{manifest.gen}.parquet")
    new_ts = os.path.join(index_dir, f"term_stats-{new_gen}.parquet")
    if reclaimed:
        from lucene_ray.pipelines.index_pipeline import build_term_stats

        build_term_stats(index_dir, new_manifest)
    elif os.path.exists(old_ts) and not os.path.exists(new_ts):
        if os.path.isdir(old_ts):  # distributed term-range directory layout
            shutil.copytree(old_ts, new_ts)
        else:
            shutil.copyfile(old_ts, new_ts)
    if delete_sources:
        for n in consumed:
            shutil.rmtree(os.path.join(index_dir, "segments", n), ignore_errors=True)
    return new_manifest


def force_merge(index_dir: str, max_segments: int = 1, *,
                use_ray: bool = True) -> Manifest:
    """IndexWriter.forceMerge analogue (index/IndexWriter.java:1973): run
    merge rounds until at most ``max_segments`` live segments remain. Each
    round groups the smallest segments first (no per-round doc cap — a
    forced merge must be able to produce one big segment), committing one
    manifest generation per round; a crash leaves a valid intermediate
    state that a rerun simply continues from."""
    if max_segments < 1:
        raise ValueError("max_segments must be >= 1")
    manifest = Manifest.load(index_dir)
    while len(manifest.segments) > max_segments:
        n = len(manifest.segments)
        # shrink toward the target: merge enough smallest segments that one
        # round makes progress even when n is barely above the target.
        # ONE group per round — a second greedy group would over-merge below
        # the requested target (forceMerge(N) lands on exactly N).
        factor = max(2, n - max_segments + 1)
        new_manifest = merge_index(
            index_dir,
            merge_factor=factor,
            max_merged_docs=2**62,
            use_ray=use_ray,
            max_groups=1,
        )
        if len(new_manifest.segments) >= n:
            break  # nothing qualified — avoid spinning
        manifest = new_manifest
    return manifest
