"""Manifest — the commit point / checkpoint / lineage unit.

The Ray analogue of ``segments_N`` (index/SegmentInfos.java:54-140): a JSON
file listing live segments with their stats, lineage (which partition of
which input produced them) and checksums. Generational: ``manifest-<gen>.json``
plus a tiny ``manifest.current`` pointer file, both written
temp-then-rename (two-phase commit analogue of IndexWriter.prepareCommit/
commit, IndexWriter.java:3370,3841).

Resume contract (north rule "resumable from per-partition checkpoints"): a
segment directory containing ``meta.json`` is durable even before a manifest
generation references it; ``completed_part_metas`` scans those, so a
restarted index job skips every partition the same build (same build
fingerprint) finished and only re-runs the missing ones.
"""

from __future__ import annotations

import glob
import json
import os
import time
import uuid

from lucene_ray.functions.similarity import CollectionStatistics

CURRENT = "manifest.current"


def fsync_path(path: str) -> None:
    """fsync a file or a directory by path (a directory's fsync makes the
    renames and links inside it durable)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: str, data: str) -> None:
    tmp = path + ".tmp-" + uuid.uuid4().hex[:8]
    with open(tmp, "w") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.rename(tmp, path)
    fsync_path(os.path.dirname(path) or ".")


def _atomic_write_exclusive(path: str, data: str) -> None:
    """Atomic create-if-absent (os.link fails with EEXIST on POSIX): the
    write.lock analogue — two writers racing to commit the same generation
    lose deterministically instead of silently overwriting each other."""
    tmp = path + ".tmp-" + uuid.uuid4().hex[:8]
    with open(tmp, "w") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    try:
        os.link(tmp, path)
    except FileExistsError:
        raise CommitConflict(
            f"{os.path.basename(path)} already committed by a concurrent "
            "writer; reload the manifest and retry at the next generation"
        ) from None
    finally:
        os.unlink(tmp)
    fsync_path(os.path.dirname(path) or ".")


class CommitConflict(RuntimeError):
    """A concurrent writer committed this manifest generation first."""


class Manifest:
    def __init__(self, index_dir: str, gen: int, segments: list[dict], config: dict):
        self.index_dir = index_dir
        self.gen = gen
        self.segments = segments  # list of segment meta dicts (lineage included)
        self.config = config

    # -- global statistics (partial+final: each segment carries its partial
    # stats; the collection totals are plain sums, exactly how the reference
    # sums per-leaf stats in IndexSearcher.java:919-934) ---------------------

    def collection_stats(self) -> CollectionStatistics:
        return CollectionStatistics(
            max_doc=sum(s["max_doc"] for s in self.segments),
            doc_count=sum(s["doc_count"] for s in self.segments),
            sum_doc_freq=sum(s["sum_doc_freq"] for s in self.segments),
            sum_total_term_freq=sum(s["sum_total_term_freq"] for s in self.segments),
        )

    def segment_dirs(self) -> list[str]:
        return [os.path.join(self.index_dir, "segments", s["name"]) for s in self.segments]

    # -- persistence -------------------------------------------------------

    def commit(self) -> str:
        """Write manifest-<gen>.json exclusively (CommitConflict if a
        concurrent writer claimed this generation — the write.lock analogue)
        then advance the current pointer. Generations are append-only."""
        path = os.path.join(self.index_dir, f"manifest-{self.gen}.json")
        _atomic_write_exclusive(
            path,
            json.dumps(
                {
                    "gen": self.gen,
                    "committed_at": time.time(),
                    "config": self.config,
                    "segments": self.segments,
                },
                indent=1,
            ),
        )
        _atomic_write(os.path.join(self.index_dir, CURRENT), str(self.gen))
        return path

    @staticmethod
    def load(index_dir: str, gen: int | None = None) -> "Manifest":
        if gen is None:
            with open(os.path.join(index_dir, CURRENT)) as f:
                gen = int(f.read().strip())
        with open(os.path.join(index_dir, f"manifest-{gen}.json")) as f:
            data = json.load(f)
        return Manifest(index_dir, data["gen"], data["segments"], data.get("config", {}))

    @staticmethod
    def exists(index_dir: str) -> bool:
        return os.path.exists(os.path.join(index_dir, CURRENT))

    @staticmethod
    def latest_gen(index_dir: str) -> int:
        """Highest committed generation on disk, -1 if none. Scans
        manifest-*.json rather than trusting the current pointer, so a crash
        between the generation write and the pointer write can't cause a
        resumed build to re-claim (and conflict on) an existing generation."""
        gens = []
        for p in glob.glob(os.path.join(index_dir, "manifest-*.json")):
            stem = os.path.basename(p)[len("manifest-"):-len(".json")]
            try:
                gens.append(int(stem))
            except ValueError:
                continue
        return max(gens, default=-1)


def _apply_overrides(fresh: dict, base: dict, overrides: dict) -> dict:
    """Overlay FIELD-level overrides onto the freshly-loaded segment entry.

    Conflict rule: an override may only replace a field whose fresh value
    still equals what the writer READ (its base) — if a concurrent writer
    advanced the same field meanwhile, replaying would clobber an
    acknowledged change (e.g. a dv update resurrecting a delete's del_gen),
    so raise instead. ``dv_gens`` merges per FIELD with the same rule, so
    updates to different doc-values columns never conflict."""
    out = dict(fresh)
    for k, v in overrides.items():
        if k == "dv_gens":
            fresh_dv = dict(fresh.get("dv_gens") or {})
            base_dv = base.get("dv_gens") or {}
            for f, g in v.items():
                if fresh_dv.get(f) != base_dv.get(f):
                    raise CommitConflict(
                        f"doc-values field {f!r} of segment {fresh['name']} "
                        "changed under this update; redo against the current "
                        "manifest"
                    )
                fresh_dv[f] = g
            out["dv_gens"] = fresh_dv
        else:
            if fresh.get(k) != base.get(k):
                raise CommitConflict(
                    f"field {k!r} of segment {fresh['name']} changed under "
                    "this update; redo against the current manifest"
                )
            out[k] = v
    return out


def commit_update(index_dir: str, base: "Manifest", updated: dict[str, dict],
                  appended: list[dict] | None = None, *, retries: int = 8) -> "Manifest":
    """Commit gen+1 applying per-segment FIELD overrides ``updated`` (keyed
    by segment name; each value holds only the metadata fields this writer
    changed) plus ``appended`` new segments; on CommitConflict reload and
    reapply — the optimistic-concurrency loop the reference avoids by owning
    write.lock.

    Safety: a segment consumed by a concurrent merge, or a field advanced by
    a concurrent writer, fails the whole operation with CommitConflict
    (never silently dropping an acknowledged change) — callers redo against
    the new generation."""
    base_by_name = {s["name"]: s for s in base.segments}
    manifest = base
    for _ in range(retries):
        names = {s["name"] for s in manifest.segments}
        missing = set(updated) - names
        if missing:
            raise CommitConflict(
                f"segments {sorted(missing)} were consumed by a concurrent "
                "merge; redo the operation against the current manifest"
            )
        segs = [
            _apply_overrides(s, base_by_name[s["name"]], updated[s["name"]])
            if s["name"] in updated
            else s
            for s in manifest.segments
        ]
        segs = segs + list(appended or [])
        m = Manifest(index_dir, manifest.gen + 1, segs, manifest.config)
        try:
            m.commit()
            return m
        except CommitConflict:
            # only the generation race lands here (field-level conflicts are
            # raised while building ``segs``, before the commit attempt)
            manifest = Manifest.load(index_dir)
    raise CommitConflict(f"gave up after {retries} manifest commit retries")


def rollback(index_dir: str, gen: int) -> "Manifest":
    """IndexWriter.rollback analogue: point ``manifest.current`` back at an
    older committed generation (segments are immutable and generations are
    append-only, so this is a single atomic pointer write)."""
    m = Manifest.load(index_dir, gen)  # validates the generation exists
    _atomic_write(os.path.join(index_dir, CURRENT), str(gen))
    return m


def completed_part_metas(index_dir: str) -> dict[int, list[dict]]:
    """Scan durable segment directories → {part_id: [metas]}, keeping EVERY
    segment per part — a part split into sub-segments by the
    max-docs-per-segment guard is complete only when all ``num_subs``
    sub-segments are present. Temp directories (whose name is not the
    segment's own) are skipped."""
    out: dict[int, list[dict]] = {}
    for meta_path in glob.glob(os.path.join(index_dir, "segments", "*", "meta.json")):
        try:
            with open(meta_path) as f:
                meta = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        pid = meta.get("part_id")
        if pid is not None and meta.get("name") == os.path.basename(os.path.dirname(meta_path)):
            out.setdefault(int(pid), []).append(meta)
    return out
