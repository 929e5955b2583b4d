"""Segment format — build, write, read one immutable mini-index.

The Ray-Data-native analogue of a Lucene flushed segment
(index/DocumentsWriterPerThread.java:60 FlushedSegment): one hash partition of
the corpus → one immutable directory of Arrow/Parquet artifacts on shared
storage. Local docIDs are dense ints [0, maxDoc) in deterministic order
(sorted by the document key within the partition), so retries and different
parallelism levels produce byte-identical segments.

Layout of ``<index_dir>/segments/<seg_name>/``::

    postings.parquet   one row per term, term-sorted:
        term:string, doc_freq:int64, total_tf:int64,
        singleton_doc:int32, singleton_freq:int32   (docFreq==1 short-circuit,
            Lucene90PostingsWriter.java:376-381; packed empty in that case)
        packed:binary                               (FOR 128-int blocks, postings.py)
        block_last_docs:list<int32>                 skip data: last docID of
                                                    each 128-posting block
        imp_freqs:list<list<int32>>                 per block, its competitive
        imp_lens:list<list<int32>>                  (freq, exact length) impact
                                                    pairs (competitive_impacts)
        positions:binary                            int32[] token positions per
                                                    occurrence, doc-major (empty
                                                    without store_positions)
        offsets:binary                              int32[] (start, end) char
                                                    offsets per occurrence (empty
                                                    without store_offsets)
        payloads:binary                             float32[] per occurrence
                                                    (empty without store_payloads)
      (all written by ``postings_table``, the one postings writer)
    docs.parquet       one row per local docID, in docID order:
        doc_key (the configured id column, e.g. url or doc_id),
        norm:uint8 (SmallFloat byte), dl:int32 (exact length, exact-mode BM25)
    meta.json          {name, field, max_doc, doc_count, sum_doc_freq,
                        sum_total_term_freq, part_id, analyzer, checksum,
                        format_version (SEGMENT_FORMAT; readers refuse any
                        other), ...}
    vectors.parquet    per-doc term vectors (only with store_term_vectors)

Atomicity: segments are written to ``<seg>.tmp-<nonce>`` and renamed into
place; a segment directory containing ``meta.json`` is complete (the
write-temp-then-rename protocol replaces the reference's two-phase
``pending_segments_N`` rename, IndexWriter.java:3370,3841).
"""

from __future__ import annotations

import json
import os
import uuid
import zlib
from bisect import bisect_right

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_ray.cache import LRUCache
from lucene_ray.functions.analysis import Analyzer
from lucene_ray.functions.norms import decode_norms, encode_lengths
# postings_table calls encode_postings, block_skip_metadata and
# competitive_impacts, and the reader decode_postings_range and
# decode_postings_block_range (only for a page too large to cache), as this
# module's globals: perfbench's traced mode wraps them here by name
from lucene_ray.functions.postings import (
    BLOCK_SIZE,
    block_skip_metadata,
    competitive_impacts,
    decode_postings,
    decode_postings_block_range,
    decode_postings_range,
    encode_postings,
)
from lucene_ray.state.manifest import fsync_path

META_NAME = "meta.json"
# version of the segment layout, stamped into every meta.json; a reader
# refuses any other (2: competitive impacts are the only block bounds, and
# every stream column is always present)
SEGMENT_FORMAT = 2

# A reader decodes postings a page at a time: a page is a run of adjacent
# term ordinals, cut at PAGE_TERMS ordinals and before the run's postings
# pass PAGE_POSTINGS; a term with PAGE_POSTINGS postings or more is a page of
# its own. A page is decoded in one decode_postings_range pass, and decoded
# pages live in one per-reader LRU bounded by PAGE_CACHE_BYTES. A page larger
# than that (one very frequent term) is never decoded whole and never held:
# each read decodes only what it asks for.
PAGE_TERMS = 1024
PAGE_POSTINGS = 1 << 16
PAGE_CACHE_BYTES = 64 << 20
POSKEY_CACHE_ENTRIES = 64  # per reader: phrase position keys of a term

# utf-8 byte → character-class bucket for the fuzzy counting filter:
# a-z → 0-25, 0-9 → 26-35, other lead bytes → 36, continuation bytes → 37
# (dropped: each character must contribute exactly one count)
_CHAR_BUCKET = np.full(256, 36, dtype=np.int8)
for _b in range(ord("a"), ord("z") + 1):
    _CHAR_BUCKET[_b] = _b - ord("a")
for _b in range(ord("0"), ord("9") + 1):
    _CHAR_BUCKET[_b] = 26 + _b - ord("0")
_CHAR_BUCKET[0x80:0xC0] = 37


def char_count_vec(s: str) -> np.ndarray:
    """Histogram of one string under the same bucketing as ``char_counts``."""
    b = np.frombuffer(s.encode(), dtype=np.uint8)
    bk = _CHAR_BUCKET[b]
    return np.bincount(bk[bk < 37], minlength=37).astype(np.int32)

def prefix_successor(prefix: str) -> str | None:
    """Smallest string strictly greater than every string with ``prefix``.

    Increment the last codepoint, carrying past U+10FFFF (any term whose next
    codepoint is supplementary-plane sorts BELOW prefix+'\\uffff', so the old
    sentinel bound silently missed it). ``None`` = no upper bound exists
    (prefix is all U+10FFFF) — scan to the end of the dictionary.
    """
    cps = list(prefix)
    while cps:
        c = ord(cps[-1])
        if c < 0x10FFFF:
            cps[-1] = chr(c + 1)
            return "".join(cps)
        cps.pop()
    return None


# Token-position cap: positions share an int64 with docIDs in the exact
# phrase matcher (doc << 21 | pos, SegmentReader.poskeys), mirroring the
# reference's IndexWriter MAX_POSITION bound on absurdly long documents.
POS_BITS = np.int64(21)
POS_SHIFT = np.int64(1) << POS_BITS
MAX_POSITION = int(POS_SHIFT)


def _bin_col(values: np.ndarray, item_off: np.ndarray) -> pa.Array:
    """Binary column whose row t holds ``values[item_off[t]:item_off[t+1]]``,
    built zero-copy over ``values`` (a per-row ``tobytes`` + ``pa.array``
    chain copies the stream three times)."""
    values = np.ascontiguousarray(values)
    n = len(item_off) - 1
    byte_off = np.asarray(item_off, dtype=np.int64) * values.itemsize
    if int(byte_off[-1]) < 2**31 - 1:
        return pa.Array.from_buffers(
            pa.binary(), n,
            [None, pa.py_buffer(byte_off.astype(np.int32)), pa.py_buffer(values)])
    return pa.array(  # >2 GB stream: chunk-safe fallback
        [values[item_off[t] : item_off[t + 1]].tobytes() for t in range(n)],
        type=pa.binary())


def postings_table(
    terms,
    term_starts: np.ndarray,
    docs: np.ndarray,
    freqs: np.ndarray,
    doc_lengths: np.ndarray,
    *,
    positions: np.ndarray | None = None,
    offsets: np.ndarray | None = None,
    payloads: np.ndarray | None = None,
) -> pa.Table:
    """The one postings writer (Lucene90PostingsWriter analogue): flush and
    merge both assemble their postings table here.

    ``terms`` are sorted; term ``t``'s postings are ``docs``/``freqs``
    from ``term_starts[t]`` to the next term's start, docIDs ascending.
    ``doc_lengths`` holds each doc's exact length (for the impacts). The
    optional streams hold every occurrence, doc-major within each term in
    posting order: int32 ``positions``, interleaved (start, end) int32
    ``offsets``, float32 ``payloads``; an absent one is written as empty
    rows. Skip entries and competitive impacts come from one whole-table
    pass each; only the FOR encode runs per (multi-doc) term."""
    n = len(docs)
    term_starts = np.asarray(term_starts, dtype=np.int64)
    term_ends = np.append(term_starts[1:], n)
    doc_freq = term_ends - term_starts
    occ = np.zeros(n + 1, dtype=np.int64)  # occurrences before each posting
    np.cumsum(freqs, out=occ[1:])
    occ_off = occ[np.append(term_starts, n)]  # per-term stream offsets
    block_starts, nblocks, last_docs = block_skip_metadata(docs, term_starts)
    icnt, imp_f, imp_l = competitive_impacts(
        freqs, doc_lengths[docs], block_starts)
    # docFreq == 1: no packed stream, the (doc, freq) pair lives in the meta
    # columns (Lucene90PostingsWriter.java:376-381)
    single = doc_freq == 1
    packed = [b""] * len(term_starts)
    for t in np.flatnonzero(~single).tolist():
        s, e = term_starts[t], term_ends[t]
        packed[t] = encode_postings(docs[s:e], freqs[s:e])

    def offsets_of(counts) -> pa.Array:
        off = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=off[1:])
        return pa.array(off, type=pa.int32())

    def int32s(a) -> pa.Array:
        return pa.array(np.asarray(a, dtype=np.int32), type=pa.int32())

    def stream(values, item_off) -> pa.Array:
        if values is None:
            values, item_off = np.empty(0, dtype=np.int32), np.zeros_like(occ_off)
        elif len(values) != item_off[-1]:
            raise ValueError(f"stream of {len(values)} values, postings "
                             f"need {int(item_off[-1])}")
        return _bin_col(values, item_off)

    per_term, per_block = offsets_of(nblocks), offsets_of(icnt)
    return pa.table({
        "term": pa.array(np.asarray(terms, dtype=object).tolist(), type=pa.string()),
        "doc_freq": pa.array(doc_freq, type=pa.int64()),
        "total_tf": pa.array(np.diff(occ_off), type=pa.int64()),
        "singleton_doc": int32s(np.where(single, docs[term_starts], -1)),
        "singleton_freq": int32s(np.where(single, freqs[term_starts], 0)),
        "packed": pa.array(packed, type=pa.binary()),
        "block_last_docs": pa.ListArray.from_arrays(per_term, int32s(last_docs)),
        "imp_freqs": pa.ListArray.from_arrays(
            per_term, pa.ListArray.from_arrays(per_block, int32s(imp_f))),
        "imp_lens": pa.ListArray.from_arrays(
            per_term, pa.ListArray.from_arrays(per_block, int32s(imp_l))),
        "positions": stream(positions, occ_off),
        "offsets": stream(offsets, 2 * occ_off),
        "payloads": stream(payloads, occ_off),
    })


def build_segment_tables(
    doc_keys: np.ndarray,
    texts,
    analyzer: Analyzer,
    *,
    store_positions: bool = True,
    store_offsets: bool = False,
    store_term_vectors: bool = False,
    store_payloads: bool = False,
) -> tuple:
    """The invert kernel: one partition's docs → (postings, docs, stats).

    Pure function of its inputs (deterministic): the Ray analogue of
    IndexingChain.processDocument/invert + FreqProxTermsWriter.flush
    (index/IndexingChain.java:583,1120-1263; index/FreqProxTermsWriter.java:
    82-128). Vectorized: one regex pass tokenizes the whole batch, one argsort
    groups (term, doc) pairs, run-length encoding yields freqs.

    ``doc_keys`` must already be in the desired local docID order. ``texts``
    may be a list[str] or an Arrow (Chunked)Array — pass the Arrow column
    straight through for the zero-copy tokenizer fast path.
    """
    n_docs = len(texts)
    tok_starts = tok_ends = tok_pays = None
    if store_offsets and store_payloads:
        raise ValueError("store_offsets and store_payloads cannot combine")
    if store_offsets:
        # offsets ride the postings like the reference's .pay stream
        # (Lucene90PostingsWriter.java:84-117, IndexOptions ..._AND_OFFSETS)
        (codes, vocab, doc_idx, positions, tok_starts, tok_ends,
         doc_lengths) = analyzer.tokenize_batch_encoded_offsets(texts)
    elif store_payloads:
        # payloads ride the postings the same way (the .pay stream's payload
        # half, Lucene90PostingsWriter.java writePayloads)
        (codes, vocab, doc_idx, positions, tok_pays, doc_lengths) = (
            analyzer.tokenize_batch_encoded_payloads(texts))
    else:
        codes, vocab, doc_idx, positions, doc_lengths = (
            analyzer.tokenize_batch_encoded(texts))

    # MAX_POSITION cap (IndexWriter.java MAX_POSITION analogue): the exact
    # phrase matcher packs positions into 21 bits of a (doc, pos) int64 key —
    # a doc with a token position >= 2^21 would silently corrupt cross-doc
    # phrase matches, so reject it at index time like the reference does.
    if len(positions) and int(positions.max()) >= MAX_POSITION:
        bad = int(doc_idx[int(np.argmax(positions))])
        raise ValueError(
            f"document {doc_keys[bad]!r} has a token position >= MAX_POSITION "
            f"({MAX_POSITION}); split or truncate it before indexing"
        )

    norm_bytes = encode_lengths(doc_lengths)
    docs_tbl = pa.table(
        {
            "doc_key": pa.array(doc_keys),
            "norm": pa.array(norm_bytes, type=pa.uint8()),
            "dl": pa.array(doc_lengths, type=pa.int32()),
        }
    )

    # Sort (term, doc, position). The tokenizer already dictionary-encoded
    # the batch (Arrow C++ hashing — no object-array np.unique); here we only
    # rank the SMALL vocab into byte order (TermsHashPerField.sortTerms
    # equivalent) and remap the codes. Positions within a (term, doc) group
    # stay ascending because the tokenizer emits them in order and the sort
    # is stable.
    vocab_order = np.argsort(vocab)  # vocab-sized string sort
    rank = np.empty(len(vocab), dtype=np.int32)
    rank[vocab_order] = np.arange(len(vocab), dtype=np.int32)
    uniq_terms = vocab[vocab_order]
    term_codes = rank[codes]
    order = np.lexsort((positions, doc_idx, term_codes))
    tc = term_codes[order]
    dd = doc_idx[order]

    # Run-length over (term, doc): freqs per posting.
    new_posting = np.ones(len(tc), dtype=bool)
    new_posting[1:] = (tc[1:] != tc[:-1]) | (dd[1:] != dd[:-1])
    posting_starts = np.flatnonzero(new_posting)
    posting_term = tc[posting_starts]
    posting_doc = dd[posting_starts]
    freqs = np.diff(np.append(posting_starts, len(tc))).astype(np.int32)

    # Per-term ranges over the postings arrays.
    new_term = np.ones(len(posting_term), dtype=bool)
    new_term[1:] = posting_term[1:] != posting_term[:-1]
    term_starts = np.flatnonzero(new_term)

    # the occurrence streams, in the sorted (term, doc, position) order
    offsets = payloads = None
    if store_offsets:
        offsets = np.empty(2 * len(order), dtype=np.int32)
        offsets[0::2] = tok_starts[order]
        offsets[1::2] = tok_ends[order]
    if store_payloads:
        payloads = tok_pays[order].astype(np.float32, copy=False)
    postings_tbl = postings_table(
        uniq_terms[posting_term[term_starts]], term_starts, posting_doc, freqs,
        doc_lengths,
        positions=positions[order].astype(np.int32) if store_positions else None,
        offsets=offsets, payloads=payloads)

    stats = dict(
        max_doc=n_docs,
        doc_count=int((doc_lengths > 0).sum()),
        sum_doc_freq=len(freqs),
        sum_total_term_freq=int(freqs.sum(dtype=np.int64)),
    )
    if store_term_vectors and not len(codes):
        return postings_tbl, docs_tbl, stats, _empty_vectors_table(n_docs)
    if store_term_vectors:
        # doc-major transpose of the postings (Lucene90TermVectorsFormat
        # analogue): one row per doc with (terms, freqs) lists — MLT and
        # highlighting read a doc's terms WITHOUT re-analysis. One extra
        # lexsort of the posting arrays; values dictionary-encoded.
        tvo = np.lexsort((posting_term, posting_doc))
        td, tt, tf_ = posting_doc[tvo], posting_term[tvo], freqs[tvo]
        per_doc = np.bincount(td, minlength=n_docs)
        off = np.zeros(n_docs + 1, dtype=np.int32)
        np.cumsum(per_doc, out=off[1:])
        off_arr = pa.array(off, type=pa.int32())
        term_vals = pa.DictionaryArray.from_arrays(
            pa.array(tt.astype(np.int32), type=pa.int32()),
            pa.array(uniq_terms.tolist(), type=pa.string()))
        vectors_tbl = pa.table({
            "tv_terms": pa.ListArray.from_arrays(off_arr, term_vals),
            "tv_freqs": pa.ListArray.from_arrays(
                off_arr, pa.array(tf_.astype(np.int32), type=pa.int32())),
        })
        return postings_tbl, docs_tbl, stats, vectors_tbl
    return postings_tbl, docs_tbl, stats


def _empty_vectors_table(n_docs: int) -> pa.Table:
    off = pa.array(np.zeros(n_docs + 1, dtype=np.int32), type=pa.int32())
    return pa.table({
        "tv_terms": pa.ListArray.from_arrays(
            off, pa.array([], type=pa.string())),
        "tv_freqs": pa.ListArray.from_arrays(
            off, pa.array([], type=pa.int32())),
    })


FIELD_SEP = "\x1f"  # joins (field, term) into one dictionary key; sorts low


def build_multifield_segment_tables(
    doc_keys: np.ndarray,
    field_texts: dict,
    analyzers,
    *,
    default_field: str,
    store_positions: bool = True,
) -> tuple[pa.Table, pa.Table, dict, dict]:
    """Multi-field invert: one postings dictionary keyed by
    ``field\\x1fterm`` (fields processed in sorted order so the combined
    dictionary stays term-sorted), per-field norm/dl columns
    (``norm__<f>``/``dl__<f>``), per-field statistics.

    This is the reference's per-field FieldInfo/FieldInvertState model
    (index/FieldInfo.java, FieldInvertState.java:34-43): every field gets its
    own postings, norms and CollectionStatistics; BM25 scores each field
    against its own avgdl. The default field also populates the legacy
    ``norm``/``dl`` columns and top-level stats so single-field readers and
    CheckIndex keep working.
    """
    from lucene_ray.functions.analysis import Analyzer

    fields = sorted(field_texts)
    assert default_field in fields
    postings_parts = []
    docs_cols: dict[str, object] = {"doc_key": pa.array(doc_keys)}
    field_stats: dict[str, dict] = {}
    default_stats: dict = {}
    for f in fields:
        an = analyzers[f] if isinstance(analyzers, dict) else analyzers
        assert isinstance(an, Analyzer)
        p_tbl, d_tbl, stats = build_segment_tables(
            doc_keys, field_texts[f], an, store_positions=store_positions
        )
        terms = pa.compute.binary_join_element_wise(
            f + FIELD_SEP, p_tbl.column("term"), ""
        )
        postings_parts.append(p_tbl.set_column(0, "term", terms))
        docs_cols[f"norm__{f}"] = d_tbl.column("norm")
        docs_cols[f"dl__{f}"] = d_tbl.column("dl")
        field_stats[f] = stats
        if f == default_field:
            docs_cols["norm"] = d_tbl.column("norm")
            docs_cols["dl"] = d_tbl.column("dl")
            default_stats = stats
    postings_tbl = pa.concat_tables(postings_parts)
    docs_tbl = pa.table(docs_cols)
    return postings_tbl, docs_tbl, default_stats, field_stats


def write_segment(
    index_dir: str,
    name: str,
    postings_tbl: pa.Table,
    docs_tbl: pa.Table,
    stats: dict,
    extra_meta: dict | None = None,
    vectors_tbl: pa.Table | None = None,
) -> dict:
    """Atomically and durably write a segment directory; returns its manifest
    entry. Every file and the temp directory are fsynced before the rename
    and ``segments/`` after it, so no crash can lose a segment that a later
    manifest names. A directory already holding the name is never touched,
    since a committed manifest may name it: callers give each distinct
    segment its own name (a build segment's carries its build fingerprint),
    so an existing directory is a retried task's identical segment.
    ``vectors_tbl`` — optional per-doc term vectors (Lucene90TermVectorsFormat
    analogue), written as a side file so search-only readers never load it."""
    import shutil

    seg_root = os.path.join(index_dir, "segments")
    os.makedirs(seg_root, exist_ok=True)
    final = os.path.join(seg_root, name)
    tmp = final + ".tmp-" + uuid.uuid4().hex[:8]
    os.makedirs(tmp, exist_ok=True)
    for fname, tbl in (("postings.parquet", postings_tbl), ("docs.parquet", docs_tbl),
                       ("vectors.parquet", vectors_tbl)):
        if tbl is not None:
            pq.write_table(tbl, os.path.join(tmp, fname))
            fsync_path(os.path.join(tmp, fname))
    checksum = zlib.crc32(
        postings_tbl.schema.serialize().to_pybytes()
        + str(sorted(stats.items())).encode()
    )
    meta = {
        "name": name,
        "n_terms": postings_tbl.num_rows,
        **stats,
        "checksum": checksum,
        **(extra_meta or {}),
        "format_version": SEGMENT_FORMAT,
    }
    with open(os.path.join(tmp, META_NAME), "w") as f:
        json.dump(meta, f)
        f.flush()
        os.fsync(f.fileno())
    fsync_path(tmp)
    if os.path.exists(final):  # a concurrent retry already committed it
        shutil.rmtree(tmp)
    else:
        try:
            os.rename(tmp, final)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            if not os.path.exists(final):
                raise
    fsync_path(seg_root)
    return meta


def _utf8(s: str) -> bytes:
    """A dictionary key's UTF-8 bytes. ``surrogatepass`` encodes a lone
    surrogate (which no stored term holds) at its code-point position, so a
    query holding one sorts consistently and simply misses."""
    return s.encode("utf-8", "surrogatepass")


def _binary_views(arr) -> tuple[np.ndarray, memoryview]:
    """Zero-copy (byte offsets, data) view of a Binary column — blobs are
    sliced lazily instead of materialized as a Python list per reader."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    bufs = arr.buffers()
    large = pa.types.is_large_binary(arr.type) or pa.types.is_large_string(arr.type)
    width = np.int64 if large else np.int32
    off = np.frombuffer(bufs[1], dtype=width)[arr.offset : arr.offset + len(arr) + 1]
    data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    return off, data


def _list_views(arr) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (offsets, values) view of a list<int32> column."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return arr.offsets.to_numpy(), np.asarray(arr.values)


def _nested_views(arr) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-copy (outer offsets, inner offsets, values) of list<list<int32>>."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    inner = arr.values
    return arr.offsets.to_numpy(), inner.offsets.to_numpy(), np.asarray(inner.values)


class SegmentReader:
    """Point-in-time reader over one segment (the LeafReader analogue).

    Loads the term dictionary into RAM once as the Arrow term column; point
    lookups binary-search its raw UTF-8 offset and data buffers, comparing
    bytes the way the block-tree terms dictionary compares ``BytesRef``s
    (codecs/lucene90/blocktree/SegmentTermsEnum.java) and never decoding a
    term. Postings decode on demand a page of adjacent ordinals at a time
    (``PAGE_TERMS``) into a byte-bounded cache that every postings read
    goes through.
    Intended to live inside a searcher actor's ``__init__``.
    """

    def __init__(self, seg_dir: str, preload: bool = True):
        self.dir = seg_dir
        with open(os.path.join(seg_dir, META_NAME)) as f:
            self.meta = json.load(f)
        found = self.meta.get("format_version")
        if found != SEGMENT_FORMAT:
            raise ValueError(
                f"segment {seg_dir} has format_version {found!r}, expected "
                f"{SEGMENT_FORMAT}: rebuild the index with this version")
        self.name = self.meta["name"]
        p = pq.read_table(os.path.join(seg_dir, "postings.parquet"))
        d = pq.read_table(os.path.join(seg_dir, "docs.parquet"))
        self._load(p, d)

    @classmethod
    def from_tables(cls, postings_tbl: pa.Table, docs_tbl: pa.Table, meta: dict) -> "SegmentReader":
        """In-RAM reader over freshly built tables — the MemoryIndex analogue
        (memory/.../MemoryIndex.java:161): no disk round-trip, same read
        surface. Used by the percolator pipeline."""
        r = cls.__new__(cls)
        r.dir = None
        r.meta = dict(meta)
        r.name = meta.get("name", "memory")
        r._load(postings_tbl, docs_tbl)
        return r

    def _load(self, p: pa.Table, d: pa.Table) -> None:
        self._ptable = p  # owns every zero-copy buffer view below
        # term dictionary stays an ARROW string array; term_index/term_range
        # binary-search its raw UTF-8 buffers (_bisect_terms) — the full
        # Python string list only materializes if a dictionary SCAN runs
        # (wildcard/regexp/spell/merge), via the lazy .terms property
        ta = p.column("term")
        self._terms_arr = ta.combine_chunks() if isinstance(ta, pa.ChunkedArray) else ta
        self._terms_np: np.ndarray | None = None
        self.n_terms = len(self._terms_arr)
        off, data = _binary_views(self._terms_arr)
        # memoryview indexing yields Python ints, several times cheaper per
        # probe than indexing the numpy array
        self._term_off = memoryview(off)
        self._term_data = data
        self.doc_freq = p.column("doc_freq").to_numpy()
        self.total_tf = p.column("total_tf").to_numpy()
        self._singleton_doc = p.column("singleton_doc").to_numpy()
        self._singleton_freq = p.column("singleton_freq").to_numpy()
        # zero-copy Arrow buffer views (no per-term Python objects)
        self._packed_off, self._packed_data = _binary_views(p.column("packed"))
        self._packed = np.frombuffer(self._packed_data, dtype=np.uint8)
        # first ordinal of each page, then n_terms (see PAGE_TERMS), and the
        # bytes of each decoded page (int32 docs and freqs, int64 starts)
        df = self.doc_freq.astype(np.int64)
        ends = np.cumsum(df)
        before = (ends - df) // PAGE_POSTINGS
        cut = 1 + np.flatnonzero((np.arange(1, self.n_terms) % PAGE_TERMS == 0)
                                 | (before[1:] != before[:-1])
                                 | (df[1:] >= PAGE_POSTINGS))
        self._page_starts = [0, *cut.tolist(), self.n_terms]
        ps = np.asarray(self._page_starts)
        self._page_nbytes = (8 * np.diff(np.r_[0, ends][ps]) + 8 * (np.diff(ps) + 1)).tolist()
        self._bld_off, self._bld_vals = _list_views(p.column("block_last_docs"))
        self._impf_views = _nested_views(p.column("imp_freqs"))
        self._impl_views = _nested_views(p.column("imp_lens"))
        self._pos_off, self._pos_data = _binary_views(p.column("positions"))
        self._ofs_off, self._ofs_data = _binary_views(p.column("offsets"))
        self._pay_off, self._pay_data = _binary_views(p.column("payloads"))
        # vacuously true for a 0-term segment (it must not veto a stream
        # surviving a merge with its siblings)
        self.has_positions = self.n_terms == 0 or int(self._pos_off[-1]) > 0
        self.has_offsets = self.n_terms == 0 or int(self._ofs_off[-1]) > 0
        self.has_payloads = self.n_terms == 0 or int(self._pay_off[-1]) > 0
        self.doc_keys = d.column("doc_key").to_numpy(zero_copy_only=False)
        self.norms = d.column("norm").to_numpy()
        self.dls = d.column("dl").to_numpy()
        # doc-values columns (NumericDocValues / SortedDocValues analogue):
        # any extra column stored alongside the per-doc norm row.
        # LIST-typed columns are SortedSetDocValues (index/SortedSetDocValues
        # .java): per-doc sets of ordinals into a SORTED per-segment value
        # dictionary, held as (offsets, ord codes, sorted vocab) for
        # vectorized multi-valued facet counting.
        self.doc_values = {}
        self.sorted_set_dv: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for c in d.column_names:
            if c in ("doc_key", "norm", "dl") or c.startswith(("norm__", "dl__")):
                continue
            col = d.column(c)
            ctype = col.type
            if pa.types.is_list(ctype) or pa.types.is_large_list(ctype):
                arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
                offsets = np.asarray(arr.offsets).astype(np.int64)
                flat = arr.values
                enc = flat.dictionary_encode()
                codes = np.asarray(enc.indices).astype(np.int32, copy=False)
                vocab = np.asarray(enc.dictionary.to_pylist(), dtype=object)
                order = np.argsort(vocab)  # sorted ords, SortedSetDocValues
                rank = np.empty(len(vocab), dtype=np.int32)
                rank[order] = np.arange(len(vocab), dtype=np.int32)
                self.sorted_set_dv[c] = (offsets, rank[codes], vocab[order])
            else:
                self.doc_values[c] = col.to_numpy(zero_copy_only=False)
        # per-field norms/lengths for multi-field segments (field_stats meta)
        self.norms_by_field = {}
        self.dls_by_field = {}
        for c in d.column_names:
            if c.startswith("norm__"):
                self.norms_by_field[c[6:]] = d.column(c).to_numpy()
            elif c.startswith("dl__"):
                self.dls_by_field[c[4:]] = d.column(c).to_numpy()
        self.max_doc = self.meta["max_doc"]
        # live-docs side bitset (None = all live); attached by the searcher
        # from the manifest's del_gen (deletes.py)
        self.live: np.ndarray | None = None
        # caches of what depends only on the segment bytes: decoded postings
        # pages (read-only; see PAGE_CACHE_BYTES) and
        # phrase position keys
        self._pages = LRUCache(max_bytes=PAGE_CACHE_BYTES)
        self._poskey_cache = LRUCache(POSKEY_CACHE_ENTRIES)
        self._key_rank: np.ndarray | None = None
        self._char_counts: np.ndarray | None = None
        self._parent_docs: np.ndarray | None = None
        self._spell_bigrams: tuple | None = None  # (fp, lo, bigrams, lengths)

    @property
    def key_rank(self) -> np.ndarray:
        """rank of each local doc's key within the segment (int32) — lets
        every (score, doc_key) tie-break run as integer numpy ops; computed
        once per reader. Fresh segments are key-sorted so rank == docID;
        merged segments are concatenated sorted runs, so compute it."""
        if self._key_rank is None:
            order = np.argsort(self.doc_keys, kind="stable")
            r = np.empty(len(order), dtype=np.int32)
            r[order] = np.arange(len(order), dtype=np.int32)
            self._key_rank = r
        return self._key_rank

    # -- term dictionary ---------------------------------------------------

    @property
    def terms(self) -> np.ndarray:
        """Materialized term strings — LAZY; only dictionary scans (wildcard,
        regexp, spell, merge) pay for it. Point lookups never do."""
        if self._terms_np is None:
            self._terms_np = np.asarray(self._terms_arr.to_pylist(), dtype=object)
        return self._terms_np

    @property
    def char_counts(self) -> np.ndarray:
        """(n_terms, 37) per-term character-class histogram — the q-gram-style
        COUNTING FILTER backing fuzzy-query dictionary pruning (the cheap
        stand-in for the reference's Levenshtein-automaton intersection,
        util/automaton/CompiledAutomaton.java): for any two strings,
        ``max(Σ pos-diff, Σ neg-diff)`` of their histograms lower-bounds the
        edit distance, so most of the dictionary is rejected without running
        the DP. Buckets: a-z → 0-25, 0-9 → 26-35, any other utf-8 LEAD byte
        → 36; continuation bytes are dropped so each CHARACTER contributes
        exactly one count (keeps the bound valid for non-ASCII). Built once
        per reader, fully vectorized from the Arrow string buffer."""
        if self._char_counts is None:
            arr = self._terms_arr
            n = len(arr)
            if n == 0:
                self._char_counts = np.zeros((0, 37), dtype=np.int32)
                return self._char_counts
            bufs = arr.buffers()
            off = np.frombuffer(bufs[1], dtype=np.int32)[arr.offset : arr.offset + n + 1].astype(np.int64)
            data = np.frombuffer(bufs[2], dtype=np.uint8)[off[0] : off[-1]]
            off = off - off[0]
            lens = np.diff(off)
            bucket = _CHAR_BUCKET[data]
            term_id = np.repeat(np.arange(n, dtype=np.int64), lens)
            valid = bucket < 37
            flat = term_id[valid] * 37 + bucket[valid]
            self._char_counts = np.bincount(
                flat, minlength=n * 37
            ).reshape(n, 37).astype(np.int32)
        return self._char_counts

    def term_at(self, i: int) -> str:
        if self._terms_np is not None:
            return self._terms_np[i]
        return self._terms_arr[i].as_py()

    def _bisect_terms(self, key: bytes, side: str = "left") -> int:
        """searchsorted of a UTF-8 key over the term column's raw bytes.

        UTF-8 byte order is code-point order, which is the order Python
        compares ``str`` in and the order the dictionary is written in, so
        no term is decoded."""
        off, data = self._term_off, self._term_data
        lo, hi = 0, self.n_terms
        if side == "left":
            while lo < hi:
                mid = (lo + hi) // 2
                if data[off[mid] : off[mid + 1]].tobytes() < key:
                    lo = mid + 1
                else:
                    hi = mid
        else:
            while lo < hi:
                mid = (lo + hi) // 2
                if data[off[mid] : off[mid + 1]].tobytes() <= key:
                    lo = mid + 1
                else:
                    hi = mid
        return lo

    def bisect(self, key: str, side: str = "left") -> int:
        return self._bisect_terms(_utf8(key), side)

    def term_index(self, term: str) -> int:
        """seekExact: index of term or -1."""
        key = _utf8(term)
        i = self._bisect_terms(key)
        off = self._term_off
        if i < self.n_terms and self._term_data[off[i] : off[i + 1]].tobytes() == key:
            return i
        return -1

    def term_range(self, prefix: str) -> tuple[int, int]:
        """seekCeil range scan for PrefixQuery: [lo, hi) of terms with prefix."""
        lo = self.bisect(prefix)
        succ = prefix_successor(prefix)
        hi = self.bisect(succ) if succ is not None else self.n_terms
        return lo, hi

    # -- postings ----------------------------------------------------------

    def _decode_page(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(docs, freqs, term_starts) of ordinals ``_page_starts[p]`` to
        ``_page_starts[p + 1]``, decoded and not cached."""
        return decode_postings_range(
            self._packed_off, self._packed, self.doc_freq, self._singleton_doc,
            self._singleton_freq, self._page_starts[p], self._page_starts[p + 1])

    def _page(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decoded page ``p`` from the page cache; its arrays are read-only."""
        page = self._pages.get(p)
        if page is None:
            page = self._decode_page(p)
            for a in page:
                a.setflags(write=False)
            self._pages.put(p, page)
        return page

    def _held(self, p: int) -> bool:
        return self._page_nbytes[p] <= self._pages.max_bytes

    def _part(self, lo: int, hi: int, a: int = 0, b: int | None = None):
        """(docs, freqs, term_starts) of ordinals ``[lo, hi)`` of one page,
        postings ``[a:b]`` of them: read-only slices of the cached page, or
        read-only copies when under half of it (a result kept in a
        searcher's cache must not keep a much larger page alive). Of a page
        the cache cannot hold only ``[lo, hi)`` is decoded."""
        p = bisect_right(self._page_starts, lo) - 1
        if not self._held(p):
            docs, freqs, starts = decode_postings_range(
                self._packed_off, self._packed, self.doc_freq,
                self._singleton_doc, self._singleton_freq, lo, hi)
            return docs[a:b], freqs[a:b], starts
        docs, freqs, starts = self._page(p)
        p0 = self._page_starts[p]
        s, e = int(starts[lo - p0]), int(starts[hi - p0])
        d, f = docs[s:e][a:b], freqs[s:e][a:b]
        if 2 * len(d) < len(docs):
            d, f = d.copy(), f.copy()
            d.setflags(write=False)
            f.setflags(write=False)
        return d, f, starts[lo - p0 : hi - p0 + 1] - s

    def postings(self, term: str | int) -> tuple[np.ndarray, np.ndarray]:
        """(sorted local docIDs, freqs) for a term, read-only (see
        ``_part``); empty arrays if absent."""
        i = self.term_index(term) if isinstance(term, str) else term
        if i < 0:
            e = np.empty(0, dtype=np.int32)
            return e, e
        return self._part(i, i + 1)[:2]

    def postings_range(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(docs, freqs, term_starts) of term ordinals ``[lo, hi)``: term
        ``lo + k``'s postings are ``docs[term_starts[k]:term_starts[k + 1]]``.
        Read from one page as ``_part`` reads; a range over several pages is
        their parts concatenated."""
        parts = []
        while lo < hi:
            e = min(hi, self._page_starts[bisect_right(self._page_starts, lo)])
            parts.append(self._part(lo, e))
            lo = e
        if len(parts) == 1:
            return parts[0]
        e = np.empty(0, dtype=np.int32)
        base = np.cumsum([0] + [len(d) for d, _, _ in parts])
        return (np.concatenate([e] + [d for d, _, _ in parts]),
                np.concatenate([e] + [f for _, f, _ in parts]),
                np.concatenate([s[:-1] + o for (_, _, s), o in zip(parts, base)]
                               + [base[-1:]]))

    def poskeys(self, i: int) -> np.ndarray:
        """Sorted ``doc << POS_BITS | position`` int64 keys of term ordinal
        ``i`` (the exact phrase matcher's input). Cached, and read before
        anything is decoded, so a hot term's postings and positions are
        decoded, and its keys built, once."""
        kk = self._poskey_cache.get(i)
        if kk is None:
            docs, freqs = self.postings(i)
            kk = np.repeat(docs.astype(np.int64), freqs) * POS_SHIFT
            kk += self.positions(i).astype(np.int64)
            self._poskey_cache.put(i, kk)
        return kk

    def positions(self, term: str | int) -> np.ndarray:
        """Concatenated int32 positions, doc-major, aligned with freqs."""
        i = self.term_index(term) if isinstance(term, str) else term
        if i < 0:
            return np.empty(0, dtype=np.int32)
        sl = self._pos_data[self._pos_off[i] : self._pos_off[i + 1]]
        return np.frombuffer(sl, dtype=np.int32)

    @property
    def has_term_vectors(self) -> bool:
        return self.dir is not None and os.path.exists(
            os.path.join(self.dir, "vectors.parquet"))

    def term_vector(self, doc: int) -> tuple[list[str], np.ndarray]:
        """(terms, freqs) of one doc from the stored doc-major term-vectors
        side file (Lucene90TermVectorsFormat analogue) — no re-analysis, no
        dictionary scan. Lazily loads the file once per reader."""
        tv = getattr(self, "_tv_tbl", None)
        if tv is None:
            if not self.has_term_vectors:
                raise ValueError(
                    f"segment {self.name} was built without "
                    "store_term_vectors=True")
            tv = self._tv_tbl = pq.read_table(
                os.path.join(self.dir, "vectors.parquet"))
        terms = tv.column("tv_terms")[doc].as_py()
        freqs = np.asarray(tv.column("tv_freqs")[doc].as_py(), dtype=np.int64)
        return terms, freqs

    def offsets(self, term: str | int) -> np.ndarray:
        """Interleaved (start, end) int32 char-offset pairs, doc-major,
        aligned with the position stream; empty when the segment was built
        without ``store_offsets`` (the .pay offsets stream analogue)."""
        i = self.term_index(term) if isinstance(term, str) else term
        if i < 0:
            return np.empty(0, dtype=np.int32)
        sl = self._ofs_data[self._ofs_off[i] : self._ofs_off[i + 1]]
        return np.frombuffer(sl, dtype=np.int32)

    def offsets_for_doc(self, term: str | int, doc: int) -> tuple[np.ndarray, np.ndarray]:
        """(starts, ends) char offsets of a term's occurrences in ONE doc."""
        i = self.term_index(term) if isinstance(term, str) else term
        e = np.empty(0, dtype=np.int32)
        if i < 0 or not self.has_offsets:
            return e, e
        d, f = self.postings(i)
        k = int(np.searchsorted(d, doc))
        if k >= len(d) or d[k] != doc:
            return e, e
        base = int(f[:k].sum())
        stream = self.offsets(i)
        sl = stream[2 * base : 2 * (base + int(f[k]))]
        return sl[0::2], sl[1::2]

    def payloads(self, term: str | int) -> np.ndarray:
        """float32 payloads, one per occurrence, doc-major, aligned with the
        position stream; empty when the segment was built without
        ``store_payloads`` (the .pay payload stream analogue,
        Lucene90PostingsWriter writePayloads)."""
        i = self.term_index(term) if isinstance(term, str) else term
        if i < 0:
            return np.empty(0, dtype=np.float32)
        sl = self._pay_data[self._pay_off[i] : self._pay_off[i + 1]]
        return np.frombuffer(sl, dtype=np.float32)

    def postings_blocks(self, i: int, j0: int, j1: int) -> tuple[np.ndarray, np.ndarray]:
        """The 128-doc blocks [j0, j1) of term ``i`` (absolute docIDs): the
        ImpactsDISI skip path's read, read-only (see ``_part``). Of a page
        the cache cannot hold only these blocks are decoded."""
        if self._held(bisect_right(self._page_starts, i) - 1) or self.doc_freq[i] == 1:
            return self._part(i, i + 1, j0 * BLOCK_SIZE, j1 * BLOCK_SIZE)[:2]
        rel, f, _ = decode_postings_block_range(self._packed_blob(i), j0, j1)
        base = int(self._bld_vals[self._bld_off[i] + j0 - 1]) if j0 > 0 else 0
        return (rel + base).astype(np.int32), f

    def impacts(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-block competitive impacts as zero-copy views:
        (pair counts per block, flat freqs, flat lengths)."""
        o1, o2, vals_f = self._impf_views
        _, _, vals_l = self._impl_views
        b0, b1 = o1[i], o1[i + 1]
        counts = np.diff(o2[b0 : b1 + 1]).astype(np.int64)
        v0, v1 = o2[b0], o2[b1]
        return counts, vals_f[v0:v1], vals_l[v0:v1]

    def _packed_blob(self, i: int) -> memoryview:
        return self._packed_data[self._packed_off[i] : self._packed_off[i + 1]]

    def skip_meta(self, i: int) -> np.ndarray:
        """Zero-copy view of term ``i``'s block last docs (its skip entries)."""
        return self._bld_vals[self._bld_off[i] : self._bld_off[i + 1]]

    def memory_bytes(self) -> dict:
        """Reader-resident memory: Arrow buffers (shared, zero-copy) vs
        materialized Python objects (lazy term list) — the metric the
        Arrow-native reader exists to keep small."""
        import sys

        py = 0
        if self._terms_np is not None:
            py = sum(sys.getsizeof(t) for t in self._terms_np.tolist())
        return {
            "arrow_bytes": int(self._ptable.nbytes),
            "python_term_bytes": int(py),
            "terms_materialized": self._terms_np is not None,
        }

    def numeric_index(self, field: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-column sorted (values, docIDs) — the 1-D BKD / points analogue
        (util/bkd/BKDWriter.java stores values sorted for range pruning).
        Built lazily ONCE per reader per column; a range query then touches
        only the hits via two binary searches instead of an O(maxDoc) mask."""
        cache = getattr(self, "_num_index", None)
        if cache is None:
            cache = self._num_index = {}
        hit = cache.get(field)
        if hit is None:
            vals = self.doc_values[field]
            order = np.argsort(vals, kind="stable").astype(np.int32)
            hit = cache[field] = (vals[order], order)
        return hit

    def kd_index(self, field_x: str, field_y: str):
        """Lazy per-reader 2-D BKD-style point tree over two doc-values
        columns (functions/points.KDIndex) — cached like numeric_index."""
        cache = getattr(self, "_kd_cache", None)
        if cache is None:
            cache = self._kd_cache = {}
        key = (field_x, field_y)
        hit = cache.get(key)
        if hit is None:
            from lucene_ray.functions.points import KDIndex

            def col(f):
                v = self.doc_values.get(f)
                if v is None and f == self.meta.get("key_col"):
                    return self.doc_keys.astype(np.float64)  # numeric keys only
                if v is None:
                    raise ValueError(
                        f"no doc-values column {f!r} in segment {self.name} "
                        f"(have {sorted(self.doc_values)})"
                    )
                return v

            hit = cache[key] = KDIndex(
                col(field_x),
                col(field_y),
                np.arange(self.max_doc, dtype=np.int32),
            )
        return hit

    def kd_index_nd(self, fields: tuple):
        """Lazy per-reader N-dimensional BKD point tree over doc-values
        columns (functions/points.KDIndexND) — the general-arity variant of
        :meth:`kd_index`, cached per field tuple."""
        cache = getattr(self, "_kd_cache", None)
        if cache is None:
            cache = self._kd_cache = {}
        key = ("nd",) + tuple(fields)
        hit = cache.get(key)
        if hit is None:
            from lucene_ray.functions.points import KDIndexND

            cols = []
            for f in fields:
                v = self.doc_values.get(f)
                if v is None:
                    raise ValueError(
                        f"no doc-values column {f!r} in segment {self.name} "
                        f"(have {sorted(self.doc_values)})")
                cols.append(v)
            hit = cache[key] = KDIndexND(
                cols, np.arange(self.max_doc, dtype=np.int32))
        return hit

    def parent_docs(self) -> np.ndarray:
        """Sorted local docIDs of parent docs (the parents-filter BitSet of
        ToParentBlockJoinQuery; blocks are contiguous, parent last — the
        layout pipelines/index_pipeline.build_index(partition_col=...) +
        child-before-parent keys produce). Built once per reader."""
        if self._parent_docs is None:
            self._parent_docs = np.flatnonzero(
                self.doc_values["is_parent"] != 0).astype(np.int32)
        return self._parent_docs

    def spell_bigrams(self, fp: str) -> tuple[int, dict, np.ndarray]:
        """The spell checker's q-gram index over field prefix ``fp``'s
        dictionary slice: ``(lo, bigrams, lengths)``, where ``bigrams`` maps
        each bigram to (term offsets from ``lo``, occurrence counts) and
        ``lengths`` holds each term's length. Built once per reader for the
        last field asked."""
        if self._spell_bigrams is None or self._spell_bigrams[0] != fp:
            lo, hi = self.term_range(fp)
            bg: dict[str, list[int]] = {}
            lens = np.zeros(hi - lo, dtype=np.int64)
            for i in range(lo, hi):
                t = self.term_at(i)[len(fp):]
                lens[i - lo] = len(t)
                for j in range(len(t) - 1):
                    bg.setdefault(t[j : j + 2], []).append(i - lo)
            bgn = {}
            for g, v in bg.items():
                ids, tcs = np.unique(np.asarray(v, dtype=np.int64), return_counts=True)
                bgn[g] = (ids, tcs.astype(np.int64))
            self._spell_bigrams = (fp, lo, bgn, lens)
        return self._spell_bigrams[1:]

    def decoded_lengths(self) -> np.ndarray:
        """float32 lengths as BM25 sees them (through the norm byte)."""
        return decode_norms(self.norms)


def check_segment(seg_dir: str) -> list[str]:
    """CheckIndex-style invariant pass (index/CheckIndex.java:482-770).

    Returns a list of problems (empty = healthy). Verifies: terms sorted
    strictly; each term's decoded page slice equals the per-term
    ``decode_postings`` of its packed stream (or its singleton columns);
    per-term docIDs strictly increasing and < maxDoc; doc_freq ==
    len(postings); total_tf == sum(freqs); segment stats equal recomputed
    sums; norms/dl arrays sized maxDoc; norm byte == encode(dl).
    """
    problems = []
    r = SegmentReader(seg_dir)
    t = r.terms
    if len(t) > 1 and not all(t[i] < t[i + 1] for i in range(len(t) - 1)):
        problems.append("terms not strictly sorted")
    sum_df = 0
    sum_ttf = 0
    # each term's slice of its page, decoded a page at a time and not
    # cached, so the check leaves no decoded segment behind
    ps = r._page_starts
    for p in range(len(ps) - 1):
        try:
            page_docs, page_freqs, starts = r._decode_page(p)
        except ValueError as e:
            problems.append(f"terms {t[ps[p]]} to {t[ps[p + 1] - 1]}: {e}")
            continue
        for i in range(ps[p], ps[p + 1]):
            s, e = starts[i - ps[p]], starts[i - ps[p] + 1]
            docs, freqs = page_docs[s:e], page_freqs[s:e]
            if r._singleton_doc[i] >= 0:
                want = [r._singleton_doc[i]], [r._singleton_freq[i]]
            else:
                want = decode_postings(r._packed_blob(i))
            if not (np.array_equal(docs, want[0]) and np.array_equal(freqs, want[1])):
                problems.append(f"term {t[i]}: page decode != stream decode")
            if len(docs) != r.doc_freq[i]:
                problems.append(f"term {t[i]}: doc_freq {r.doc_freq[i]} != {len(docs)}")
            if freqs.sum() != r.total_tf[i]:
                problems.append(f"term {t[i]}: total_tf mismatch")
            if len(docs) and (np.any(np.diff(docs) <= 0) or docs[-1] >= r.max_doc or docs[0] < 0):
                problems.append(f"term {t[i]}: docIDs not strictly increasing in range")
            if np.any(freqs <= 0):
                problems.append(f"term {t[i]}: non-positive freq")
            bld = r.skip_meta(i)
            if len(docs) and int(bld[-1]) != int(docs[-1]):
                problems.append(f"term {t[i]}: skip last_doc mismatch")
            n_blocks_expected = (len(docs) + BLOCK_SIZE - 1) // BLOCK_SIZE
            if len(docs) and len(bld) != n_blocks_expected:
                problems.append(f"term {t[i]}: skip entries {len(bld)} != {n_blocks_expected}")
            sum_df += len(docs)
            sum_ttf += int(freqs.sum())
    fs = r.meta.get("field_stats")
    want_df = sum(v["sum_doc_freq"] for v in fs.values()) if fs else r.meta["sum_doc_freq"]
    want_ttf = (
        sum(v["sum_total_term_freq"] for v in fs.values()) if fs else r.meta["sum_total_term_freq"]
    )
    if sum_df != want_df:
        problems.append(f"sum_doc_freq {want_df} != {sum_df}")
    if sum_ttf != want_ttf:
        problems.append(f"sum_total_term_freq {want_ttf} != {sum_ttf}")
    if len(r.norms) != r.max_doc or len(r.dls) != r.max_doc:
        problems.append("norms/dl length != max_doc")
    if not np.array_equal(encode_lengths(r.dls), r.norms):
        problems.append("norm bytes != encode(dl)")
    if int(r.meta["doc_count"]) != int((r.dls > 0).sum()):
        problems.append("doc_count mismatch")
    # positions / offsets stream lengths (when stored): per term the
    # position stream holds total_tf int32s, the offsets stream 2× that
    if r.has_positions:
        for i in range(len(t)):
            want = int(r.total_tf[i]) * 4
            got = int(r._pos_off[i + 1] - r._pos_off[i])
            if got not in (0, want):
                problems.append(f"term {t[i]}: positions bytes {got} != {want}")
            if r.has_offsets:
                got_o = int(r._ofs_off[i + 1] - r._ofs_off[i])
                if got_o != 2 * want:
                    problems.append(f"term {t[i]}: offsets bytes {got_o} != {2 * want}")
                st = r.offsets(int(i))
                if len(st) and np.any(st[0::2] > st[1::2]):
                    problems.append(f"term {t[i]}: offset start > end")
            if r.has_payloads:
                got_p = int(r._pay_off[i + 1] - r._pay_off[i])
                if got_p != want:
                    problems.append(
                        f"term {t[i]}: payload bytes {got_p} != {want}")
    # term vectors: doc-major transpose must agree with the postings totals
    if r.has_term_vectors:
        tv = pq.read_table(os.path.join(seg_dir, "vectors.parquet"))
        if tv.num_rows != r.max_doc:
            problems.append(f"term vectors rows {tv.num_rows} != max_doc")
        else:
            import pyarrow.compute as pc

            tv_total = int(pc.sum(pc.list_value_length(
                tv.column("tv_freqs"))).as_py() or 0)
            if tv_total != sum_df:
                problems.append(
                    f"term-vector entries {tv_total} != sum_doc_freq {sum_df}")
    # sorted-set doc values: offsets monotone, ords in range, vocab sorted
    for field, (offsets, codes, vocab) in getattr(r, "sorted_set_dv", {}).items():
        if len(offsets) != r.max_doc + 1 or np.any(np.diff(offsets) < 0):
            problems.append(f"sorted-set {field}: bad offsets")
        if len(codes) and (codes.min() < 0 or codes.max() >= len(vocab)):
            problems.append(f"sorted-set {field}: ord out of range")
        if len(vocab) > 1 and not all(
                vocab[i] <= vocab[i + 1] for i in range(len(vocab) - 1)):
            problems.append(f"sorted-set {field}: vocab not sorted")
    return problems
