"""Posting-list codec — FOR-style bit-packed 128-int blocks, numpy kernels.

Functional reproduction of the reference's posting block layout
(lucene/core/src/java/org/apache/lucene/codecs/lucene90/ForUtil.java:32
``BLOCK_SIZE = 128``; ForDeltaUtil.java:54-75 delta encode + prefix-sum
decode; Lucene90PostingsWriter.java:207-264 full blocks + VInt-style tail;
:376-381 ``docFreq == 1`` singleton short-circuit) — not a byte-level port:
we pack with numpy byte-width casts into a self-describing little stream.

Stream layout for one posting list (docFreq > 1)::

    [u32 doc_freq]
    repeat per 128-block (count = ceil(doc_freq/128); last block may be short):
        [u8 bits_doc][u8 bits_freq][u16 n]          (bits ∈ {0, 8, 16, 32})
        [packed doc deltas: n values × bits_doc bits, byte-aligned]
        [packed (freq-1): n values × bits_freq bits, byte-aligned]

Doc deltas are ``docs[0], docs[i]-docs[i-1]`` (strictly increasing docIDs →
deltas ≥ 1 except the first which may be 0). ``bits == 0`` means all values
equal the block minimum stored in place of packed data — we keep it simple:
bits 0 → all zeros (used by freq-1 for freq-all-ones blocks).

Everything is vectorized; the per-block Python overhead is amortized by
encoding ALL blocks of a term at once via a grouped pack.

Readers decode in bulk: ``decode_postings_range`` decodes the postings of a
whole range of term ordinals of a segment in one pass (the reference decodes
128 postings at a time and leaves residency to the OS page cache); the
per-term ``decode_postings`` is the reference decoder it is checked against.
"""

from __future__ import annotations

import sys

import numpy as np

BLOCK_SIZE = 128  # ForUtil.java:32
_ENDIAN = sys.byteorder  # u16 block counts are written in native order
_WIDTH_BYTES = {0: 0, 8: 1, 16: 2, 32: 4}
_PACK_DTYPE = {8: np.dtype(np.uint8), 16: np.dtype(">u2"), 32: np.dtype(">u4")}


def _pack_bits(values: np.ndarray, bits: int) -> bytes:
    """Pack uint32 values big-endian into one of the byte-aligned widths
    0/8/16/32 (the only ones ``_bits_needed`` emits; a b-bit big-endian
    packing of those widths is byte-identical to '>u1/>u2/>u4')."""
    if bits == 0:
        return b""
    return np.asarray(values, dtype=np.uint32).astype(_PACK_DTYPE[bits]).tobytes()


def _unpack_bits(buf: memoryview, n: int, bits: int) -> np.ndarray:
    """Inverse of _pack_bits → uint32 array of length n; any other width
    is a stream this codec never wrote."""
    if bits == 0:
        return np.zeros(n, dtype=np.uint32)
    dt = _PACK_DTYPE.get(bits)
    if dt is None:
        raise ValueError(f"unsupported packed width {bits} (expected 0/8/16/32)")
    return np.frombuffer(buf[: n * dt.itemsize], dtype=dt).astype(np.uint32)


def _bits_needed(values: np.ndarray) -> int:
    """Width CLASS for a block: 0/8/16/32 bits (ForUtil's width specialization
    collapsed to the byte-aligned classes numpy decodes at memcpy speed; the
    ~2× storage give-up on sub-byte widths buys a ~20× faster codec)."""
    if values.size == 0:
        return 0
    m = int(values.max())
    if m == 0:
        return 0
    if m < 256:
        return 8
    if m < 65536:
        return 16
    return 32


def encode_postings(docs: np.ndarray, freqs: np.ndarray) -> bytes:
    """Encode one term's (sorted docIDs, freqs) into the packed stream.

    Fast path: ALL full blocks are written with one (bits_doc, bits_freq)
    width pair — the max width class over the full blocks — so the whole
    header+payload region is assembled with a handful of numpy ops instead
    of a per-block Python loop. Width PROMOTION (e.g. an all-freq-1 block
    next to a freq-2 block both take 8-bit freqs) costs a few percent of
    space in mixed streams; the stream stays self-describing and any
    decoder, including the per-block fallback, reads it unchanged. The
    short tail block keeps its tight per-block widths."""
    docs = np.asarray(docs, dtype=np.int64)
    freqs = np.asarray(freqs, dtype=np.int64)
    n = len(docs)
    assert n == len(freqs) and n > 0
    deltas = np.empty(n, dtype=np.uint32)
    deltas[0] = docs[0]
    np.subtract(docs[1:], docs[:-1], out=deltas[1:], casting="unsafe")
    fm1 = (freqs - 1).astype(np.uint32)

    nfull = n // BLOCK_SIZE
    out = [np.uint32(n).tobytes()]
    tail_start = 0
    if nfull >= 2:
        m = nfull * BLOCK_SIZE
        bd = _bits_needed(deltas[:m])
        bf = _bits_needed(fm1[:m])
        if bd > 0:
            dsz = BLOCK_SIZE * _WIDTH_BYTES[bd]
            fsz = BLOCK_SIZE * _WIDTH_BYTES[bf]
            chunk = 4 + dsz + fsz
            region = np.empty((nfull, chunk), dtype=np.uint8)
            region[:, 0] = bd
            region[:, 1] = bf
            hdr_n = np.uint16(BLOCK_SIZE).tobytes()  # native order, as the loop
            region[:, 2] = hdr_n[0]
            region[:, 3] = hdr_n[1]
            region[:, 4 : 4 + dsz] = (
                deltas[:m].astype(_PACK_DTYPE[bd]).view(np.uint8).reshape(nfull, dsz)
            )
            if fsz:
                region[:, 4 + dsz :] = (
                    fm1[:m].astype(_PACK_DTYPE[bf]).view(np.uint8).reshape(nfull, fsz)
                )
            out.append(region.tobytes())
            tail_start = m

    for start in range(tail_start, n, BLOCK_SIZE):
        d = deltas[start : start + BLOCK_SIZE]
        f = fm1[start : start + BLOCK_SIZE]
        bd, bf = _bits_needed(d), _bits_needed(f)
        out.append(
            np.array([bd, bf], dtype=np.uint8).tobytes()
            + np.uint16(len(d)).tobytes()
        )
        out.append(_pack_bits(d, bd))
        out.append(_pack_bits(f, bf))
    return b"".join(out)


def decode_postings(buf: bytes | memoryview) -> tuple[np.ndarray, np.ndarray]:
    """Decode the packed stream → (docIDs int32, freqs int32).

    Fast path mirrors the encoder's: a run of FULL blocks sharing one
    byte-aligned width pair decodes with a few strided numpy views. The run
    is detected SPECULATIVELY — headers at chunk strides are verified with
    one vectorized compare — so the stream needs no per-block Python header
    walk at all (the old walk cost one interpreter iteration per 128
    postings, which dominated merge/query decode time for long lists)."""
    mv = memoryview(buf)
    n = int(np.frombuffer(mv[:4], dtype=np.uint32)[0])
    deltas = np.empty(n, dtype=np.uint32)
    fm1 = np.empty(n, dtype=np.uint32)

    off, pos = 4, 0
    total = len(mv)
    while pos < n:
        bd, bf = mv[off], mv[off + 1]
        cnt = int.from_bytes(mv[off + 2 : off + 4], _ENDIAN)
        if cnt == BLOCK_SIZE and bd in _WIDTH_BYTES and bf in _WIDTH_BYTES:
            dsz = BLOCK_SIZE * _WIDTH_BYTES[bd]
            fsz = BLOCK_SIZE * _WIDTH_BYTES[bf]
            chunk = 4 + dsz + fsz
            kmax = min((n - pos) // BLOCK_SIZE, (total - off) // chunk)
            if kmax >= 1:
                region = np.frombuffer(
                    mv[off : off + kmax * chunk], dtype=np.uint8
                ).reshape(kmax, chunk)
                hdr = np.frombuffer(
                    np.array([bd, bf], dtype=np.uint8).tobytes()
                    + np.uint16(BLOCK_SIZE).tobytes(),
                    dtype=np.uint8,
                )
                ok = (region[:, :4] == hdr).all(axis=1)
                bad = np.flatnonzero(~ok)
                k = int(bad[0]) if len(bad) else kmax
                if k >= 1:
                    m = k * BLOCK_SIZE
                    if dsz:
                        deltas[pos : pos + m] = (
                            np.ascontiguousarray(region[:k, 4 : 4 + dsz])
                            .view(_PACK_DTYPE[bd])
                            .ravel()
                        )
                    else:
                        deltas[pos : pos + m] = 0
                    if fsz:
                        fm1[pos : pos + m] = (
                            np.ascontiguousarray(region[:k, 4 + dsz :])
                            .view(_PACK_DTYPE[bf])
                            .ravel()
                        )
                    else:
                        fm1[pos : pos + m] = 0
                    pos += m
                    off += k * chunk
                    continue
        # single-block fallback (short tail, or a block whose widths differ)
        o = off + 4
        deltas[pos : pos + cnt] = _unpack_bits(mv[o:], cnt, bd)
        fm1[pos : pos + cnt] = _unpack_bits(mv[o + (cnt * bd + 7) // 8 :], cnt, bf)
        pos += cnt
        off = o + (cnt * bd + 7) // 8 + (cnt * bf + 7) // 8
    docs = np.cumsum(deltas.astype(np.int64)).astype(np.int32)
    return docs, (fm1 + 1).astype(np.int32)


def decode_postings_block_range(
    buf: bytes | memoryview, block_lo: int, block_hi: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Decode only blocks [block_lo, block_hi) — the block-max WAND path.

    Returns (relative docIDs, freqs, index of the range's first posting).
    Doc deltas are summed from 0 within the range, so the caller adds the
    docID base of block ``block_lo``: the last doc of block ``block_lo - 1``
    from the ``block_last_docs`` skip entries, or 0 for the first block
    (``SegmentReader.postings_blocks`` does this).
    """
    mv = memoryview(buf)
    n = int(np.frombuffer(mv[:4], dtype=np.uint32)[0])
    off = 4
    pos = 0
    bi = 0
    out_d: list[np.ndarray] = []
    out_f: list[np.ndarray] = []
    while pos < n and bi < block_hi:
        bd, bf = mv[off], mv[off + 1]
        cnt = int(np.frombuffer(mv[off + 2 : off + 4], dtype=np.uint16)[0])
        off += 4
        nd = (cnt * bd + 7) // 8
        nf = (cnt * bf + 7) // 8
        if bi >= block_lo:
            out_d.append(_unpack_bits(mv[off:], cnt, bd))
            out_f.append(_unpack_bits(mv[off + nd :], cnt, bf))
        off += nd + nf
        pos += cnt
        bi += 1
    if not out_d:
        e = np.empty(0, dtype=np.int32)
        return e, e, 0
    deltas = np.concatenate(out_d).astype(np.int64)
    freqs = (np.concatenate(out_f) + 1).astype(np.int32)
    rel_docs = np.cumsum(deltas)
    return rel_docs, freqs, block_lo * BLOCK_SIZE


# bytes per packed value of each width class; any other width is invalid
_WIDTH_OF = np.zeros(256, dtype=np.int64)
_WIDTH_OF[[8, 16, 32]] = [1, 2, 4]
_VALID_WIDTH = np.zeros(256, dtype=bool)
_VALID_WIDTH[[0, 8, 16, 32]] = True


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``0 .. c-1`` for each ``c`` in ``counts``, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts, counts)


def _block_headers(packed: np.ndarray, h0: np.ndarray, end: np.ndarray,
                   df: np.ndarray, t: np.ndarray, j: np.ndarray,
                   cnt: np.ndarray) -> np.ndarray:
    """Byte offset of the header of every block ``j`` of term ``t``, whose
    first header sits at ``h0[t]`` and whose stream ends at ``end[t]``;
    ``cnt`` is each block's posting count.

    ``encode_postings`` writes every full block of a term with one width
    pair, so block ``j`` sits ``j`` chunks of block 0 past ``h0``. That is
    predicted for all blocks at once and checked against every header (a
    full block's header repeats block 0's, the last block's count is what
    is left); a stream that does not follow raises ValueError."""
    if (h0 + 4 > end).any():
        raise ValueError("corrupt postings stream: shorter than one block header")
    chunk = 4 + BLOCK_SIZE * (_WIDTH_OF[packed[h0]] + _WIDTH_OF[packed[h0 + 1]])
    hdr = h0[t] + j * chunk[t]
    if (hdr + 4 > end[t]).any():
        raise ValueError("corrupt postings stream: block header past the term's stream")
    full = j < (df // BLOCK_SIZE)[t]
    first = h0[t]
    n16 = cnt.astype(np.uint16).view(np.uint8).reshape(-1, 2)  # u16 as written
    if ((packed[hdr + 2] != n16[:, 0]) | (packed[hdr + 3] != n16[:, 1])
            | (full & ((packed[hdr] != packed[first])
                       | (packed[hdr + 1] != packed[first + 1])))).any():
        raise ValueError("corrupt postings stream: block headers do not "
                         "follow the one-width-pair layout")
    return hdr


def decode_postings_range(
    packed_off: np.ndarray,
    packed: np.ndarray,
    doc_freq: np.ndarray,
    singleton_doc: np.ndarray,
    singleton_freq: np.ndarray,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode the postings of term ordinals ``[lo, hi)`` of one segment in
    one vectorized pass → (docIDs int32, freqs int32, term_starts int64).

    The arguments are the segment's postings columns: the ``packed``
    column's byte offsets and its data as uint8, and the ``doc_freq``,
    ``singleton_doc`` and ``singleton_freq`` columns. Term ``lo + k``'s
    postings are ``docs[term_starts[k]:term_starts[k + 1]]`` (``hi - lo + 1``
    starts). Block headers come from ``_block_headers``; each width class
    is one big-endian gather over every block of that width; singletons
    come straight from their columns; one prefix sum, restarted at each
    term, turns the doc deltas into docIDs. Equal to ``decode_postings``
    term by term."""
    df = np.asarray(doc_freq[lo:hi], dtype=np.int64)
    term_starts = np.zeros(len(df) + 1, dtype=np.int64)
    np.cumsum(df, out=term_starts[1:])
    starts = term_starts[:-1]
    deltas = np.zeros(int(term_starts[-1]), dtype=np.uint32)  # width 0: zeros
    fm1 = np.zeros(len(deltas), dtype=np.uint32)
    one = df == 1
    deltas[starts[one]] = singleton_doc[lo:hi][one]
    fm1[starts[one]] = singleton_freq[lo:hi][one] - 1
    multi = np.flatnonzero(df > 1)
    if len(multi):
        mdf = df[multi]
        nb = -(-mdf // BLOCK_SIZE)
        t = np.repeat(np.arange(len(multi)), nb)
        j = _ragged_arange(nb)
        h0 = np.asarray(packed_off[lo + multi], dtype=np.int64) + 4  # past u32 n
        end = np.asarray(packed_off[lo + multi + 1], dtype=np.int64)
        cnt = np.minimum(BLOCK_SIZE, mdf[t] - j * BLOCK_SIZE)
        hdr = _block_headers(packed, h0, end, mdf, t, j, cnt)
        bd, bf = packed[hdr], packed[hdr + 1]
        if not (_VALID_WIDTH[bd].all() and _VALID_WIDTH[bf].all()):
            raise ValueError("unsupported packed width (expected 0/8/16/32)")
        last = np.cumsum(nb) - 1  # each term's last block ends its stream
        if (hdr[last] + 4 + cnt[last] * (_WIDTH_OF[bd[last]] + _WIDTH_OF[bf[last]])
                != end).any():
            raise ValueError("corrupt postings stream: length does not match its blocks")
        first = starts[multi][t] + j * BLOCK_SIZE  # first posting of each block
        doff = hdr + 4
        foff = doff + cnt * _WIDTH_OF[bd]
        for out, width, off in ((deltas, _WIDTH_OF[bd], doff),
                                (fm1, _WIDTH_OF[bf], foff)):
            for w in (1, 2, 4):
                sel = np.flatnonzero(width == w)
                if not len(sel):
                    continue
                c = cnt[sel]
                within = _ragged_arange(c)
                src = np.repeat(off[sel], c) + within * w
                v = packed[src].astype(np.uint32)
                for b in range(1, w):  # big-endian
                    v = (v << np.uint32(8)) | packed[src + b]
                out[np.repeat(first[sel], c) + within] = v
    cs = np.cumsum(deltas, dtype=np.int64)
    nz = starts[df > 0]
    docs = cs - np.repeat(cs[nz] - deltas[nz], df[df > 0])
    return docs.astype(np.int32), (fm1 + 1).astype(np.int32), term_starts


def block_skip_metadata(
    docs: np.ndarray, term_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Skip entries of a whole postings table: (first posting of each
    block, blocks per term, last docID of each block).

    ``docs`` holds every term's sorted docIDs back to back and term ``t``'s
    postings start at ``term_starts[t]``. Blocks are 128-posting runs that
    restart at each term, one skip entry each (Lucene90SkipWriter.java:219),
    so block ``j`` of a term spans docs (last[j-1], last[j]]. Computed over
    blocks, not postings — no per-term Python loop.
    """
    n = len(docs)
    term_starts = np.asarray(term_starts, dtype=np.int64)
    df = np.diff(np.append(term_starts, n))
    nblocks = (df + BLOCK_SIZE - 1) // BLOCK_SIZE
    first_block = np.cumsum(nblocks) - nblocks
    nb = int(nblocks.sum())
    within = np.arange(nb, dtype=np.int64) - np.repeat(first_block, nblocks)
    block_starts = np.repeat(term_starts, nblocks) + within * BLOCK_SIZE
    last = np.append(block_starts[1:], n)[:nb] - 1
    return block_starts, nblocks, np.asarray(docs)[last].astype(np.int32)


def competitive_impacts(
    freqs: np.ndarray, lengths: np.ndarray, block_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Competitive (freq, length) impact pairs of every block of a whole
    postings table, VECTORIZED.

    The reference accumulates, per block, the Pareto frontier of (freq, norm)
    pairs actually present (codecs/CompetitiveImpactAccumulator.java:30-89,
    written per skip block by Lucene90SkipWriter.java:219): BM25 is monotone
    ↑freq ↓length, so the block's true max score is attained at a frontier
    pair. ``freqs`` and ``lengths`` (the exact length of each posting's doc)
    are aligned with the postings; ``block_starts`` comes from
    ``block_skip_metadata``.

    One sort orders the postings by (block, length asc, freq desc); a pair
    survives iff its freq exceeds every freq before it in its block, found
    with one running max over block-offset freqs — no per-block Python loop.
    Returns (pair counts per block, flat freqs, flat lengths); each block's
    pairs come out length- and freq-ascending.
    """
    n = len(freqs)
    f = np.asarray(freqs, dtype=np.int64)
    ln = np.asarray(lengths, dtype=np.int64)
    nb = len(block_starts)
    if n == 0:
        e = np.empty(0, dtype=np.int32)
        return np.zeros(nb, dtype=np.int64), e, e
    gb = np.repeat(np.arange(nb, dtype=np.int64),
                   np.diff(np.append(block_starts, n)))
    cl = np.int64((1 << 20) - 1)
    fmax = int(f.max())
    if fmax < cl and int(ln.max()) < cl and nb < (1 << 23):
        # ONE argsort of a composite (block, len, inverted-freq) int64 key,
        # ~4× cheaper than the 3-key lexsort (gb needs 23 bits to keep
        # gb << 40 inside int64)
        ks = np.sort((gb << np.int64(40)) | (ln << np.int64(20)) | (cl - f))
        gbs = ks >> np.int64(40)
        ls = (ks >> np.int64(20)) & cl
        fs = cl - (ks & cl)
    else:
        order = np.lexsort((-f, ln, gb))
        fs, ls, gbs = f[order], ln[order], gb[order]
    # offset each block's freqs above every earlier block's, so one global
    # running max restarts at every block
    v = gbs * (fmax + 1) + fs
    keep = np.ones(n, dtype=bool)
    keep[1:] = v[1:] > np.maximum.accumulate(v)[:-1]
    counts = np.bincount(gbs[keep], minlength=nb).astype(np.int64)
    return counts, fs[keep].astype(np.int32), ls[keep].astype(np.int32)
