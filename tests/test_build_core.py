"""The one build core: both index builds and both document-update paths write
segments through ``_BuildSegment``; resume keys on the build fingerprint;
segment and manifest writes are durable (fsync before rename, directory
fsync after)."""

import glob
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.pipelines.index_pipeline import build_index, build_index_by_file
from lucene_ray.query import parse_query
from lucene_ray.searcher import IndexSearcher
from lucene_ray.state.deletes import soft_update_documents, update_documents
from lucene_ray.state.manifest import Manifest

LIB = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "lucene_ray")


def _build(path: str, src: str, d: str, **kw):
    """Build ``src`` by file or through the shuffle, with the same options."""
    if path == "by_file":
        return build_index_by_file(src, d, key_col="url", text_col="text", **kw)
    return build_index(src, d, key_col="url", text_col="text", num_partitions=2, **kw)


def _hits(d: str, q: str) -> int:
    return IndexSearcher(d).search(parse_query(q), 10).total_hits


@pytest.mark.parametrize("path", ["by_file", "shuffle"])
def test_rerun_with_other_analyzer_rebuilds(ray_session, tmp_path, path):
    """A rerun with another analyzer must not resume the old segments: their
    fingerprint differs, so every part is rebuilt with the new analyzer."""
    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({"url": ["a", "b", "c"],
                             "text": ["running foxes", "lazy dogs", "quick fox"]}), src)
    d = str(tmp_path / "idx")
    _build(path, src, d, analyzer="standard")
    assert _hits(d, "fox") == 1
    m = _build(path, src, d, analyzer="english")
    assert m.config["metrics"]["n_partitions_resumed"] == 0
    assert _hits(d, "fox") == 2  # "foxes" stems to "fox"
    assert all(s["analyzer"] == "english" for s in m.segments)
    # the same build again resumes every segment
    m2 = _build(path, src, d, analyzer="english")
    assert m2.config["metrics"]["n_partitions_resumed"] == len(m2.segments)


def test_changed_input_file_rebuilds(ray_session, tmp_path):
    """The by-file fingerprint covers each file's size and mtime_ns: a
    rewritten input file is rebuilt, not resumed."""
    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({"url": ["a"], "text": ["old words"]}), src)
    d = str(tmp_path / "idx")
    build_index_by_file(src, d, key_col="url", text_col="text")
    pq.write_table(pa.table({"url": ["a", "b"], "text": ["new words", "more"]}), src)
    m = build_index_by_file(src, d, key_col="url", text_col="text")
    assert m.config["metrics"]["n_partitions_resumed"] == 0
    assert _hits(d, "new") == 1 and _hits(d, "old") == 0


def test_shuffle_build_changed_source_file_rebuilds(ray_session, tmp_path):
    """The shuffle build fingerprints a local source's files too: a
    rewritten parquet source is rebuilt, not resumed."""
    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({"url": ["a"], "text": ["old words"]}), src)
    d = str(tmp_path / "idx")
    build_index(src, d, key_col="url", text_col="text", num_partitions=1)
    pq.write_table(pa.table({"url": ["a", "b"], "text": ["new words", "more"]}), src)
    m = build_index(src, d, key_col="url", text_col="text", num_partitions=1)
    assert m.config["metrics"]["n_partitions_resumed"] == 0
    assert _hits(d, "new") == 1 and _hits(d, "old") == 0
    assert m.collection_stats().max_doc == 2


def test_resume_false_rebuilds_a_dataset_source(ray_session, tmp_path):
    """A Dataset's content is not fingerprinted; ``resume=False`` rebuilds
    it into new segments instead of keeping the same-named old ones."""
    import ray.data

    d = str(tmp_path / "idx")

    def build(texts, **kw):
        ds = ray.data.from_arrow(pa.table({"url": ["a", "b"], "text": texts}))
        return build_index(ds, d, key_col="url", text_col="text", num_partitions=1, **kw)

    build(["running foxes", "lazy dogs"])
    m = build(["new words", "more"], resume=False)
    assert m.config["metrics"]["n_partitions_resumed"] == 0
    assert _hits(d, "new") == 1 and _hits(d, "foxes") == 0


def _segment_bytes(d: str) -> dict[str, bytes]:
    """{"<segment>/<file>": bytes} of every file the current manifest names."""
    out = {}
    for seg_dir in Manifest.load(d).segment_dirs():
        for path in glob.glob(os.path.join(seg_dir, "*")):
            with open(path, "rb") as f:
                out[os.path.relpath(path, d)] = f.read()
    return out


@pytest.mark.parametrize("path", ["by_file", "shuffle"])
def test_other_build_never_touches_committed_segments(ray_session, tmp_path, monkeypatch,
                                                      path):
    """A rebuild under another fingerprint writes beside the committed
    segments: when it crashes after writing its segments but before its
    commit, the committed manifest still opens, holds the same bytes and
    answers as before."""
    from lucene_ray.pipelines import index_pipeline

    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({"url": ["a", "b", "c"],
                             "text": ["running foxes", "lazy dogs", "quick fox"]}), src)
    d = str(tmp_path / "idx")
    m = _build(path, src, d, analyzer="standard")
    before = _segment_bytes(d)

    written = []

    def crash(index_dir, metas, *args):
        written.extend(metas)
        raise RuntimeError("crash before commit")

    monkeypatch.setattr(index_pipeline, "_commit_build", crash)
    with pytest.raises(RuntimeError, match="crash before commit"):
        _build(path, src, d, analyzer="english")
    assert Manifest.load(d).gen == m.gen
    assert _segment_bytes(d) == before
    assert _hits(d, "fox") == 1 and _hits(d, "foxes") == 1
    assert written and all(x["analyzer"] == "english" for x in written)


def test_resume_ignores_temp_segment_dirs(ray_session, tmp_path):
    """A crash between writing a segment's meta.json and renaming its temp
    directory leaves a complete-looking meta under the temp name; resume
    must rebuild that part, not commit a segment whose directory is absent."""
    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({"url": ["a", "b"], "text": ["red fox", "blue fox"]}), src)
    d = str(tmp_path / "idx")
    m = build_index_by_file(src, d, key_col="url", text_col="text")
    seg = os.path.join(d, "segments", m.segments[0]["name"])
    os.rename(seg, seg + ".tmp-0badc0de")
    m2 = build_index_by_file(src, d, key_col="url", text_col="text")
    assert m2.config["metrics"]["n_partitions_resumed"] == 0
    assert _hits(d, "fox") == 2


def _html(title: str, body: str) -> str:
    return f"<html><head><title>{title}</title></head><body><p>{body}</p></body></html>"


@pytest.mark.parametrize("path", ["by_file", "shuffle"])
def test_extract_html_title_field(ray_session, tmp_path, path):
    """``extract_html=True`` with a ``title`` text field: extraction writes
    both columns, neither is read from the source."""
    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({
        "url": ["u1", "u2"],
        "html": [_html("alpha page", "whale song"), _html("beta page", "sea song")],
    }), src)
    d = str(tmp_path / "idx")
    _build(path, src, d, extract_html=True, text_cols=("text", "title"))
    assert _hits(d, "title:beta") == 1
    assert _hits(d, "whale") == 1
    assert _hits(d, "title:song") == 0


def _multifield_index(tmp_path, **kw) -> str:
    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({"url": ["u1", "u2", "u3"],
                             "text": ["sea song", "land song", "sky song"],
                             "title": ["alpha", "gamma", "delta"]}), src)
    d = str(tmp_path / "idx")
    build_index(src, d, key_col="url", text_col="text", num_partitions=2,
                text_cols=("text", "title"), **kw)
    return d


@pytest.mark.parametrize("update", [update_documents, soft_update_documents])
def test_update_honours_text_fields(ray_session, tmp_path, update):
    """An updated doc of a multi-field index is searchable on every field."""
    d = _multifield_index(tmp_path)
    update(d, pa.table({"url": ["u2"], "text": ["whale song"], "title": ["beta"]}))
    assert _hits(d, "whale") == 1
    assert _hits(d, "title:beta") == 1
    assert _hits(d, "title:gamma") == 0
    assert _hits(d, "song") == 3


def test_update_honours_index_sort_and_term_vectors(ray_session, tmp_path):
    """An update segment is built with the index's own config: its meta
    records the index sort, and a term-vectors index gets vectors.parquet."""
    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({"url": ["u1", "u2"], "text": ["a b", "b c"],
                             "rank": [2, 1]}), src)
    d = str(tmp_path / "sorted")
    build_index(src, d, key_col="url", text_col="text", num_partitions=1,
                docvalue_cols=("rank",), index_sort=("rank", "asc"))
    update_documents(d, pa.table({"url": ["u3", "u4"], "text": ["c d", "d e"],
                                  "rank": [5, 3]}))
    upd = [s for s in Manifest.load(d).segments if s["name"].startswith("upd-")]
    assert upd and upd[0]["index_sort"] == ["rank", "asc"]
    ranks = pq.read_table(os.path.join(d, "segments", upd[0]["name"], "docs.parquet"),
                          columns=["rank"]).column("rank").to_pylist()
    assert ranks == [3, 5]

    d = str(tmp_path / "tv")
    build_index(src, d, key_col="url", text_col="text", num_partitions=1,
                columns=["url", "text"], store_term_vectors=True)
    update_documents(d, pa.table({"url": ["u3"], "text": ["c d"]}))
    upd = [s for s in Manifest.load(d).segments if s["name"].startswith("upd-")]
    assert os.path.exists(os.path.join(d, "segments", upd[0]["name"], "vectors.parquet"))


def _record_io(monkeypatch) -> list[tuple[str, str]]:
    """Record fsync (by the path its descriptor names), rename and link."""
    calls: list[tuple[str, str]] = []
    fsync, rename, link = os.fsync, os.rename, os.link

    def rec_fsync(fd):
        calls.append(("fsync", os.readlink(f"/proc/self/fd/{fd}")))
        fsync(fd)

    def rec_rename(a, b):
        calls.append(("rename", os.path.realpath(b)))
        rename(a, b)

    def rec_link(a, b):
        calls.append(("link", os.path.realpath(b)))
        link(a, b)

    monkeypatch.setattr(os, "fsync", rec_fsync)
    monkeypatch.setattr(os, "rename", rec_rename)
    monkeypatch.setattr(os, "link", rec_link)
    return calls


def test_write_segment_fsyncs_before_rename(tmp_path, monkeypatch):
    import numpy as np

    from lucene_ray.functions.analysis import Analyzer
    from lucene_ray.state.segment import build_segment_tables, write_segment

    p, t, s = build_segment_tables(np.array([1, 2]), ["a b", "b c"], Analyzer("standard"))
    d = os.path.realpath(str(tmp_path / "idx"))
    calls = _record_io(monkeypatch)
    write_segment(d, "seg-x", p, t, s)
    seg_root = os.path.join(d, "segments")
    final = os.path.join(seg_root, "seg-x")
    i_rename = calls.index(("rename", final))
    synced = [path for op, path in calls[:i_rename] if op == "fsync"]
    names = [os.path.basename(x) for x in synced]
    assert names[:3] == ["postings.parquet", "docs.parquet", "meta.json"]
    assert re.fullmatch(r"seg-x\.tmp-[0-9a-f]{8}", names[3])  # the temp directory
    assert calls[i_rename + 1:] == [("fsync", seg_root)]


def test_manifest_writes_fsync_parent_dir(tmp_path, monkeypatch):
    from lucene_ray.state.manifest import CURRENT

    d = os.path.realpath(str(tmp_path))
    calls = _record_io(monkeypatch)
    Manifest(d, 0, [], {}).commit()
    gen_file = os.path.join(d, "manifest-0.json")
    i_link = calls.index(("link", gen_file))
    assert calls[i_link + 1] == ("fsync", d)
    i_rename = calls.index(("rename", os.path.join(d, CURRENT)))
    assert calls[i_rename - 1][0] == "fsync"  # the temp file, before the rename
    assert calls[i_rename + 1] == ("fsync", d)


def test_segments_are_written_only_by_the_build_core_and_merge():
    """``write_segment`` has two callers: ``_BuildSegment`` and the merger."""
    callers = set()
    for path in glob.glob(os.path.join(LIB, "**", "*.py"), recursive=True):
        with open(path) as f:
            src = f.read()
        if re.search(r"(?<!def )write_segment\(", src):
            callers.add(os.path.relpath(path, LIB))
    assert callers == {os.path.join("pipelines", "index_pipeline.py"),
                       os.path.join("state", "merge.py")}


def test_side_files_fsync_before_link_and_dir_after(tmp_path, monkeypatch):
    """Livedocs and doc-values generations are durable: the temp file is
    fsynced before it is linked into place, the segment directory after."""
    import numpy as np

    from lucene_ray.functions.analysis import Analyzer
    from lucene_ray.state.deletes import delete_by_keys, update_numeric_docvalues
    from lucene_ray.state.segment import build_segment_tables, write_segment

    d = os.path.realpath(str(tmp_path / "idx"))
    p, t, s = build_segment_tables(np.array([1, 2]), ["a b", "b c"], Analyzer("standard"))
    meta = write_segment(d, "seg-x", p, t, s)
    Manifest(d, 0, [meta], {"key_col": "doc_key", "text_col": "text"}).commit()
    seg_dir = os.path.join(d, "segments", "seg-x")
    calls = _record_io(monkeypatch)
    assert delete_by_keys(d, [1]) == 1
    assert update_numeric_docvalues(d, "rank", {2: 7}) == 1
    for name in ("livedocs-1.parquet", "dv-rank-1.parquet"):
        i_link = calls.index(("link", os.path.join(seg_dir, name)))
        assert re.fullmatch(re.escape(name) + r"\.tmp-[0-9a-f]{8}",
                            os.path.basename(calls[i_link - 1][1]))
        assert calls[i_link - 1][0] == "fsync"
        assert calls[i_link + 1] == ("fsync", seg_dir)
    s = IndexSearcher(d)
    assert s.count("b") == 1
    assert s.readers[0].doc_values["rank"].tolist() == [0, 7]
