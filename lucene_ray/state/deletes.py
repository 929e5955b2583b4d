"""Deletes & updates — generational live-docs side bitsets + delete-and-add.

Reference semantics being reproduced:

* deletes never mutate a segment: they are a generational side bitset
  (``.liv``, codecs/lucene90/Lucene90LiveDocsFormat.java:38-52; tracked by
  ``delGen`` in index/SegmentCommitInfo.java:35-65);
* ``IndexWriter.deleteDocuments(term/query)`` marks matching docs dead in
  every segment (index/IndexWriter.java);
* ``IndexWriter.updateDocument(term, doc)`` = delete-by-term + add
  (IndexWriter.java:1815) — here: delete-by-key + a new additive segment;
* collection/term statistics still count deleted docs until a merge
  reclaims them (Lucene scores with deleted docs in the stats too — the
  searcher only FILTERS them, search-time, via the bitset);
* merges drop dead docs and renumber (SegmentMerger + DocIDMerger) —
  ``lucene_ray.state.merge.merge_segment_group`` compacts live docs when a
  bitset is present.

Storage: ``<seg_dir>/livedocs-<delgen>.parquet`` (one boolean column
``live``, one row per local docID), written durably by ``_write_side_file``
(fsynced temp file, exclusive link, directory fsync); the manifest
entry's ``del_gen``/``del_count`` point at the current generation, so a
commit is still a single atomic manifest write.
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_ray.state.manifest import CommitConflict, Manifest, commit_update, fsync_path
from lucene_ray.state.segment import read_parquet


def livedocs_path(seg_dir: str, del_gen: int) -> str:
    return os.path.join(seg_dir, f"livedocs-{del_gen}.parquet")


def load_livedocs(seg_dir: str, del_gen: int) -> np.ndarray | None:
    if not del_gen:
        return None
    t = read_parquet(livedocs_path(seg_dir, del_gen))
    return t.column("live").to_numpy(zero_copy_only=False)


def _write_side_file(path: str, table: pa.Table) -> str:
    """Write a segment side file (livedocs, a doc-values generation) durably
    and exclusively: a temp file, fsynced, hard-linked into place, then the
    segment directory fsynced. The link fails on EEXIST, so two writers that
    computed the same generation never overwrite each other's file: the
    loser gets CommitConflict and redoes against the current manifest.
    Returns ``path``."""
    tmp = path + ".tmp-" + uuid.uuid4().hex[:8]
    pq.write_table(table, tmp)
    try:
        fsync_path(tmp)
        os.link(tmp, path)
    except FileExistsError:
        raise CommitConflict(
            f"{os.path.basename(path)} already written by a concurrent writer on "
            f"{os.path.dirname(path)}; redo against the current manifest"
        ) from None
    finally:
        os.unlink(tmp)
    fsync_path(os.path.dirname(path))
    return path


def _write_livedocs(seg_dir: str, del_gen: int, live: np.ndarray) -> str:
    return _write_side_file(livedocs_path(seg_dir, del_gen),
                            pa.table({"live": pa.array(live, type=pa.bool_())}))


def _commit_or_cleanup(index_dir: str, manifest, changed: dict, written: list[str]) -> None:
    """Commit the per-segment delete marks; if the commit fails (concurrent
    merge consumed one of OUR segments), remove the just-written livedocs
    files so the redo isn't bricked by its own orphans (a stale livedocs-N
    would otherwise make every retry's exclusive create fail forever)."""
    try:
        commit_update(index_dir, manifest, changed)
    except BaseException:
        for p in written:
            try:
                os.unlink(p)
            except OSError:
                pass
        raise


def delete_by_query(index_dir: str, query) -> int:
    """Mark every doc matching ``query`` dead; commits a new manifest
    generation. Returns the number of newly deleted docs."""
    from lucene_ray.searcher import IndexSearcher

    manifest = Manifest.load(index_dir)
    searcher = IndexSearcher(index_dir)
    for reader in searcher.readers:
        # match deleted docs too (soft-deleted ones included): what is newly
        # deleted is counted against the hard live docs below
        reader.live = None
    segs = {seg["name"]: seg for seg in manifest.segments}
    n_deleted = 0
    changed: dict[str, dict] = {}
    written: list[str] = []
    for reader, docs, _ in searcher.matches(query):
        seg = segs[reader.name]
        old_gen = seg.get("del_gen", 0)
        live = (
            load_livedocs(reader.dir, old_gen)
            if old_gen
            else np.ones(reader.max_doc, dtype=bool)
        ).copy()
        newly = live[docs].sum()
        if newly:
            live[docs] = False
            new_gen = old_gen + 1
            written.append(_write_livedocs(reader.dir, new_gen, live))
            n_deleted += int(newly)
            changed[seg["name"]] = {"del_gen": new_gen,
                                    "del_count": int((~live).sum())}
    if n_deleted:
        # only the segments we actually marked ride in `updated` — an
        # unrelated concurrent merge of OTHER segments must not abort us
        _commit_or_cleanup(index_dir, manifest, changed, written)
    return n_deleted


def delete_by_keys(index_dir: str, keys) -> int:
    """deleteDocuments(term) on the document key."""
    # keys live in doc_keys, not the inverted index — do it directly
    manifest = Manifest.load(index_dir)
    from lucene_ray.state.segment import SegmentReader

    keyset = set(keys)
    n_deleted = 0
    changed: dict[str, dict] = {}
    written: list[str] = []
    for seg in manifest.segments:
        seg_dir = os.path.join(index_dir, "segments", seg["name"])
        reader = SegmentReader(seg_dir)
        mask = np.array([k in keyset for k in reader.doc_keys], dtype=bool)
        if not mask.any():
            continue
        old_gen = seg.get("del_gen", 0)
        live = (
            load_livedocs(seg_dir, old_gen)
            if old_gen
            else np.ones(reader.max_doc, dtype=bool)
        ).copy()
        newly = int(live[mask].sum())
        if newly:
            live[mask] = False
            new_gen = old_gen + 1
            written.append(_write_livedocs(seg_dir, new_gen, live))
            n_deleted += newly
            changed[seg["name"]] = {"del_gen": new_gen,
                                    "del_count": int((~live).sum())}
    if n_deleted:
        _commit_or_cleanup(index_dir, manifest, changed, written)
    return n_deleted


def _add_segment(index_dir: str, rows: pa.Table, prefix: str, delete) -> int:
    """The add half of both update paths: ``delete(keys)`` the old versions,
    then build ``rows`` into ONE additive segment through the index build's
    own chain (``_BuildSegment`` configured by the manifest config: analyzer,
    text fields, store flags, doc values, index sort) and commit it."""
    from lucene_ray.pipelines.index_pipeline import _BuildSegment

    delete(rows.column(Manifest.load(index_dir).config["key_col"]).to_pylist())
    manifest = Manifest.load(index_dir)  # reload post-delete generation
    gen = manifest.gen + 1
    meta = _BuildSegment(index_dir, manifest.config).build(
        rows, f"{prefix}-g{gen}-{uuid.uuid4().hex[:8]}", {"gen": gen, "part_id": None})
    commit_update(index_dir, manifest, {}, appended=[meta])
    return rows.num_rows


def update_documents(index_dir: str, rows: pa.Table) -> int:
    """updateDocument(term, doc) semantics: delete-by-key then add the new
    rows as ONE additive segment (last-writer-wins per key). ``rows`` must
    carry the index's key and text columns (+ any doc-values columns)."""
    return _add_segment(index_dir, rows, "upd",
                        lambda keys: delete_by_keys(index_dir, keys))


def update_numeric_docvalues(index_dir: str, field: str, updates: dict) -> int:
    """IndexWriter.updateNumericDocValue analogue: rewrite ONE doc-values
    column out-of-band, without reindexing.

    Like the reference (SegmentCommitInfo docValuesGen; Lucene90DocValuesFormat
    writes a whole new generation of the field's dv file per update batch),
    each affected segment gets ``dv-<field>-<gen>.parquet`` holding the FULL
    updated column — built from the segment's CURRENT generation, so prior
    updates to other docs carry forward — and the manifest entry's
    ``dv_gens[field]`` advances; readers overlay it at load. Postings/norms/
    stats are untouched (doc-values updates never affect scoring statistics).

    Reads only docs.parquet (doc keys + the one column), never the postings.
    Any failure (exclusive-create race, manifest conflict) removes every dv
    side file this call wrote, so a redo is never bricked by its own orphans.

    ``updates`` maps doc_key → new value. Returns the number of docs updated.
    """
    manifest = Manifest.load(index_dir)
    n_updated = 0
    changed: dict[str, dict] = {}
    written: list[str] = []
    keys = set(updates)
    try:
        for seg in manifest.segments:
            seg_dir = os.path.join(index_dir, "segments", seg["name"])
            docs_path = os.path.join(seg_dir, "docs.parquet")
            # the field may not exist as a base column (e.g. the soft-deletes
            # field is usually born as an update) — default to zeros then
            have_base = field in pq.read_schema(docs_path).names
            d = pq.read_table(
                docs_path,
                columns=["doc_key"] + ([field] if have_base else []))
            doc_keys = d.column("doc_key").to_numpy(zero_copy_only=False)
            mask = np.array([k in keys for k in doc_keys], dtype=bool)
            if not mask.any():
                continue
            old_gens = seg.get("dv_gens") or {}
            old_gen = int(old_gens.get(field, 0))
            if old_gen:  # chain from the CURRENT generation, not the base
                vals = pq.read_table(
                    os.path.join(seg_dir, f"dv-{field}-{old_gen}.parquet")
                ).column(field).to_numpy(zero_copy_only=False).copy()
            elif have_base:
                vals = d.column(field).to_numpy(zero_copy_only=False).copy()
            else:
                vals = np.zeros(len(doc_keys), dtype=np.int64)
            for i in np.flatnonzero(mask).tolist():
                vals[i] = updates[doc_keys[i]]
            new_gen = old_gen + 1
            written.append(_write_side_file(
                os.path.join(seg_dir, f"dv-{field}-{new_gen}.parquet"),
                pa.table({field: pa.array(vals)})))
            changed[seg["name"]] = {"dv_gens": {field: new_gen}}
            n_updated += int(mask.sum())
        if changed:
            commit_update(index_dir, manifest, changed)
    except BaseException:
        for p in written:
            try:
                os.unlink(p)
            except OSError:
                pass
        raise
    return n_updated


# --------------------------------------------------------- soft deletes


def set_soft_deletes_field(index_dir: str, field: str = "__soft_deletes") -> None:
    """IndexWriterConfig.setSoftDeletesField (index/IndexWriterConfig.java:
    519): record the soft-deletes field in the index config so searchers
    hide marked docs (SoftDeletesDirectoryReaderWrapper semantics) and
    merges know which field carries retention state. Idempotent."""
    for _ in range(8):
        manifest = Manifest.load(index_dir)
        if (manifest.config or {}).get("soft_deletes_field") == field:
            return
        cfg = dict(manifest.config or {})
        cfg["soft_deletes_field"] = field
        try:
            Manifest(index_dir, manifest.gen + 1, manifest.segments, cfg).commit()
            return
        except CommitConflict:
            continue
    raise RuntimeError("could not commit soft_deletes_field config")


def soft_delete_by_keys(index_dir: str, keys, *,
                        field: str = "__soft_deletes") -> int:
    """Soft deletes (IndexWriterConfig.setSoftDeletesField + the soft-delete
    half of IndexWriter.softUpdateDocument, index/IndexWriter.java:1880):
    mark docs deleted by writing ``<field>=1`` as a generational numeric
    doc-values update — NO ``.liv`` bitset. The docs stay physically in the
    segment (retention) and in the collection statistics; a searcher over a
    manifest whose config names the field hides them exactly like hard
    deletes (index/SoftDeletesDirectoryReaderWrapper.java:38). Merges
    reclaim them unless a retention predicate keeps them
    (SoftDeletesRetentionMergePolicy.java:55)."""
    set_soft_deletes_field(index_dir, field)
    return update_numeric_docvalues(index_dir, field, {k: 1 for k in keys})


def soft_update_documents(index_dir: str, rows: pa.Table, *,
                          field: str = "__soft_deletes") -> int:
    """IndexWriter.softUpdateDocument: soft-delete the old docs by key, add
    the new rows as one additive segment (LWW per key, old versions
    retained until a merge's retention policy reclaims them)."""
    return _add_segment(index_dir, rows, "supd",
                        lambda keys: soft_delete_by_keys(index_dir, keys, field=field))
