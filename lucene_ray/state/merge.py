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

from lucene_ray.functions.postings import encode_postings
from lucene_ray.state.manifest import Manifest
from lucene_ray.state.segment import SegmentReader, write_segment

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

    # term-sorted union of the per-segment dictionaries (vectorized — the
    # old per-term Python k-way cursor walk dominated merge time at web
    # vocabulary sizes; grouping is now ONE lexsort over the concatenated
    # posting-level arrays, the same shape as the invert kernel)
    all_terms = np.unique(np.concatenate([r.terms for r in readers]))
    dls = np.concatenate(
        [r.dls[lv] for r, lv in zip(readers, lives)]
    ).astype(np.int32, copy=False)

    # Posting-level flattening: per reader, decode each term's postings once
    # (decode is inherently per packed stream), remap docIDs, emit flat
    # (term_code, doc, freq) arrays. Positions are collected per
    # (term, reader) RUN — readers are visited in doc-base order and a term's
    # postings within one reader are already doc-ordered, so per-out-term
    # concatenation of those runs IS the merged doc-major position stream
    # (no per-posting indirection; a per-element gather only under deletes).
    _t["open_sec"] = _time.time() - _t0
    _t0 = _time.time()
    doc_parts, freq_parts = [], []
    run_codes: list[int] = []
    run_lens: list[int] = []
    pos_by_code: dict[int, list[np.ndarray]] = {}
    ofs_by_code: dict[int, list[np.ndarray]] = {}
    pay_by_code: dict[int, list[np.ndarray]] = {}
    # offsets / payloads (.pay stream analogue) survive a merge only when
    # every source segment carries them; payloads do NOT require positions
    # (a store_positions=False, store_payloads=True build is legal and
    # PayloadScoreQuery needs no positions)
    store_offsets = store_positions and all(
        getattr(r, "has_offsets", False) for r in readers)
    store_payloads = all(
        getattr(r, "has_payloads", False) for r in readers)
    for r, base, live, remap in zip(readers, bases, lives, remaps):
        gcodes = np.searchsorted(all_terms, r.terms)  # exact: r.terms ⊆ all_terms
        n_terms = r.n_terms
        for i in range(n_terms):
            d, f = r.postings(i)
            keep = live[d]
            all_live = keep.all()
            occ = None
            if (store_positions or store_payloads) and not all_live:
                occ = np.repeat(keep, f)
            if store_positions:
                ptr = r.positions(i)
                if store_offsets:
                    otr = r.offsets(i)
                if occ is not None:
                    ptr = ptr[occ]
                    if store_offsets:
                        otr = otr.reshape(-1, 2)[occ].ravel()
            if store_payloads:
                patr = r.payloads(i)
                if occ is not None:
                    patr = patr[occ]
            if not all_live:
                d, f = d[keep], f[keep]
            if not len(d):
                continue
            code = int(gcodes[i])
            doc_parts.append((remap[d] + base).astype(np.int32, copy=False))
            freq_parts.append(f.astype(np.int32, copy=False))
            run_codes.append(code)
            run_lens.append(len(d))
            if store_positions:
                pos_by_code.setdefault(code, []).append(ptr)
                if store_offsets:
                    ofs_by_code.setdefault(code, []).append(otr)
            if store_payloads:
                pay_by_code.setdefault(code, []).append(patr)

    if doc_parts:
        # Each (term, reader) run is already doc-ordered, and readers are
        # visited in ascending doc-base order — so the merged (term, doc)
        # order is just the runs STABLY reordered by term code. One tiny
        # run-level sort + one O(total) gather replaces a full posting-level
        # lexsort (DocIDMerger's mapped-docID order, for free). int32
        # throughout: this VM demand-pages fresh allocations slowly, so the
        # working set is kept as tight as the value ranges allow.
        dd0 = np.concatenate(doc_parts)
        ff0 = np.concatenate(freq_parts)
        rc = np.asarray(run_codes, dtype=np.int64)
        rl = np.asarray(run_lens, dtype=np.int64)
        rstart = np.concatenate([[0], np.cumsum(rl)[:-1]])
        ro = np.lexsort((np.arange(len(rc)), rc))  # stable: reader order kept
        lens_o = rl[ro]
        cum = np.concatenate([[0], np.cumsum(lens_o)[:-1]])
        idx = (np.repeat(rstart[ro] - cum, lens_o)
               + np.arange(int(lens_o.sum()), dtype=np.int64))
        # int32 only when the posting count actually fits — a merge group
        # with >=2^31 postings (reachable under force_merge's unbounded doc
        # cap) would silently wrap and gather garbage otherwise.
        if int(lens_o.sum()) < 2**31:
            idx = idx.astype(np.int32)
        tc = np.repeat(rc[ro].astype(np.int32), lens_o)
        dd = dd0[idx]
        ff = ff0[idx]
        del doc_parts, freq_parts, dd0, ff0, idx
    else:
        tc = np.empty(0, dtype=np.int32)
        dd = np.empty(0, dtype=np.int32)
        ff = np.empty(0, dtype=np.int32)

    # per-term ranges via run-length over the sorted term codes (terms whose
    # postings were fully reclaimed by deletes simply never appear)
    new_term = np.ones(len(tc), dtype=bool)
    if len(tc):
        new_term[1:] = tc[1:] != tc[:-1]
    t_starts = np.flatnonzero(new_term)
    t_ends = np.append(t_starts[1:], len(tc))
    present = tc[t_starts] if len(t_starts) else np.empty(0, dtype=np.int64)

    n_out = len(t_starts)
    out_terms = all_terms[present] if n_out else np.empty(0, dtype=object)
    doc_freq = (t_ends - t_starts).astype(np.int64)
    cs = np.concatenate([[0], np.cumsum(ff, dtype=np.int64)])
    total_tf = cs[t_ends] - cs[t_starts]
    _t["gather_sec"] = _time.time() - _t0

    # skip + impact metadata for ALL terms in one global vectorized pass —
    # per-term calls to block_skip_metadata/competitive_impacts cost a fixed
    # ~15 numpy dispatches per term, which dominates merge time at web
    # vocabulary sizes. Blocks are 128-posting runs that RESTART at each
    # term: within-term offsets `intra` reset at t_starts, so every block
    # boundary (intra % 128 == 0) respects term boundaries and one global
    # reduceat covers every (term, block) pair.
    _t0 = _time.time()
    N = len(tc)
    from lucene_ray.functions.postings import BLOCK_SIZE as _BS

    lens_all = dls[dd] if N else np.empty(0, dtype=np.int64)
    if N:
        intra = np.arange(N, dtype=np.int64) - np.repeat(t_starts, doc_freq)
        bstart = (intra % _BS) == 0
        starts = np.flatnonzero(bstart)
        last_idx = np.append(starts[1:], N) - 1
        ld_all = dd[last_idx].astype(np.int32)
        mf_all = np.maximum.reduceat(ff, starts).astype(np.int32)
        ml_all = np.minimum.reduceat(lens_all, starts).astype(np.int32)
        # per-term block counts (reduceat over the boundary mask)
        nblocks = np.add.reduceat(bstart.astype(np.int64), t_starts)
        n_blocks_total = len(starts)
        # competitive impacts (Pareto frontier per block), globally: sort
        # (block, length asc, freq desc); within each block a pair survives
        # iff its freq strictly exceeds the running max — computed by
        # scattering the sorted freqs into a padded (blocks × 128) matrix
        # and taking a row-wise cumulative max (no per-block Python).
        gb = np.cumsum(bstart) - 1  # global block id, term-major
        _CL = np.int64((1 << 20) - 1)
        if (int(ff.max()) < _CL and int(lens_all.max()) < _CL
                and n_blocks_total < (1 << 23)):
            # gb needs 23 bits to keep gb<<40 inside int64 — block counts
            # beyond that (>1B postings / >8.4M terms in ONE merge group)
            # take the exact lexsort fallback below
            # fast path: ONE int64 argsort of a composite (block, len,
            # inverted-freq) key — ~4× cheaper than the 3-key lexsort at
            # merge-task posting counts (radix-friendly single key, one
            # gather instead of three)
            comp = (
                (gb.astype(np.int64) << np.int64(40))
                | (lens_all.astype(np.int64) << np.int64(20))
                | (_CL - ff)
            )
            ks = comp[np.argsort(comp)]
            gbs = (ks >> np.int64(40)).astype(np.int64)
            ls = (ks >> np.int64(20)) & _CL
            fs = _CL - (ks & _CL)
        else:
            order = np.lexsort((-ff, lens_all, gb))
            fs, ls, gbs = ff[order], lens_all[order], gb[order]
        within = np.arange(N, dtype=np.int64) - starts[gbs]
        # `within` restarts per block because the sort's primary key is gb and
        # each block's elements occupy positions [starts[b], starts[b]+size)
        pad = np.full((n_blocks_total, _BS), -1, dtype=np.int32)
        pad[gbs, within] = fs
        cm = np.maximum.accumulate(pad, axis=1)
        keep_pad = np.empty_like(pad, dtype=bool)
        keep_pad[:, 0] = pad[:, 0] >= 0
        keep_pad[:, 1:] = pad[:, 1:] > cm[:, :-1]
        keep = keep_pad[gbs, within]
        icnt_all = np.bincount(gbs[keep], minlength=n_blocks_total).astype(np.int64)
        iff_all = fs[keep].astype(np.int32)
        ill_all = ls[keep].astype(np.int32)
    else:
        ld_all = mf_all = ml_all = np.empty(0, dtype=np.int32)
        iff_all = ill_all = np.empty(0, dtype=np.int32)
        icnt_all = np.empty(0, dtype=np.int64)
        nblocks = np.empty(0, dtype=np.int64)
    # singletons: no packed stream, the (doc, freq) pair lives in the meta
    # columns (Lucene90PostingsWriter.java:376-381 docFreq==1 short-circuit)
    sdoc = np.full(n_out, -1, dtype=np.int32)
    sfreq = np.zeros(n_out, dtype=np.int32)
    singleton = doc_freq == 1
    sdoc[singleton] = dd[t_starts[singleton]].astype(np.int32)
    sfreq[singleton] = ff[t_starts[singleton]].astype(np.int32)
    _t["impacts_sec"] = _time.time() - _t0

    _t0 = _time.time()
    # positions: ONE preallocated int32 buffer + offsets, filled in place —
    # Arrow binary column built zero-copy from it (the old per-term
    # astype().tobytes() + pa.array chain copied the position stream three
    # times; positions are the largest payload of a merge)
    occ_total = int(total_tf.sum()) if (store_positions or store_payloads) else 0
    pos_total = occ_total if store_positions else 0
    pos_values = np.empty(pos_total, dtype=np.int32)
    pos_off = np.zeros(n_out + 1, dtype=np.int64)
    ofs_values = np.empty(2 * pos_total if store_offsets else 0, dtype=np.int32)
    pay_values = np.empty(occ_total if store_payloads else 0, dtype=np.float32)
    if (store_positions or store_payloads) and n_out:
        np.cumsum(total_tf, out=pos_off[1:])
    packed_col = []
    for ti in range(n_out):
        s, e = int(t_starts[ti]), int(t_ends[ti])
        packed_col.append(b"" if e - s == 1 else encode_postings(dd[s:e], ff[s:e]))
        if store_positions:
            o = int(pos_off[ti])
            for part in pos_by_code.get(int(tc[s]), ()):
                pos_values[o : o + len(part)] = part
                o += len(part)
            if store_offsets:
                o2 = 2 * int(pos_off[ti])
                for part in ofs_by_code.get(int(tc[s]), ()):
                    ofs_values[o2 : o2 + len(part)] = part
                    o2 += len(part)
        if store_payloads:
            o3 = int(pos_off[ti])
            for part in pay_by_code.get(int(tc[s]), ()):
                pay_values[o3 : o3 + len(part)] = part
                o3 += len(part)

    def _bin_col(values: np.ndarray, item_counts_off: np.ndarray) -> pa.Array:
        if int(item_counts_off[-1]) * 4 < 2**31 - 1:
            return pa.Array.from_buffers(
                pa.binary(), n_out,
                [None, pa.py_buffer((item_counts_off * 4).astype(np.int32)),
                 pa.py_buffer(values)],
            )
        return pa.array(  # >2 GB stream: chunk-safe fallback
            [values[item_counts_off[t] : item_counts_off[t + 1]].tobytes()
             for t in range(n_out)], type=pa.binary())

    empty_bin = None
    if not store_positions or not store_offsets or not store_payloads:
        empty_bin = pa.array([b""] * n_out, type=pa.binary())
    pos_arr = _bin_col(pos_values, pos_off) if store_positions else empty_bin
    ofs_arr = _bin_col(ofs_values, pos_off * 2) if store_offsets else empty_bin
    pay_arr = _bin_col(pay_values, pos_off) if store_payloads else empty_bin
    _t["encode_sec"] = _time.time() - _t0

    _t0 = _time.time()

    def _list_col(values, counts):
        offsets = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=offsets[1:])
        return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                        pa.array(np.asarray(values, dtype=np.int32)))

    inner_imp_f = _list_col(iff_all, icnt_all)
    inner_imp_l = _list_col(ill_all, icnt_all)
    outer_off = np.zeros(n_out + 1, dtype=np.int32)
    np.cumsum(nblocks, out=outer_off[1:])
    outer_off_arr = pa.array(outer_off, type=pa.int32())
    postings_tbl = pa.table(
        {
            "term": pa.array(out_terms.tolist(), type=pa.string()),
            "doc_freq": pa.array(doc_freq),
            "total_tf": pa.array(total_tf),
            "singleton_doc": pa.array(sdoc, type=pa.int32()),
            "singleton_freq": pa.array(sfreq, type=pa.int32()),
            "packed": pa.array(packed_col, type=pa.binary()),
            "block_last_docs": _list_col(ld_all, nblocks),
            "block_max_freqs": _list_col(mf_all, nblocks),
            "block_min_lens": _list_col(ml_all, nblocks),
            "imp_freqs": pa.ListArray.from_arrays(outer_off_arr, inner_imp_f),
            "imp_lens": pa.ListArray.from_arrays(outer_off_arr, inner_imp_l),
            "positions": pos_arr,
            "offsets": ofs_arr,
            "payloads": pay_arr,
        }
    )
    _t["assemble_sec"] = _time.time() - _t0
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
        sum_doc_freq=int(doc_freq.sum()),
        sum_total_term_freq=int(total_tf.sum()),
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
    # adjudicate regressions (open/decode-gather/impacts/encode/docs/write)
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
