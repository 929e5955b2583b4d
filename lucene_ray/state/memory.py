"""MemoryIndex — a fully RAM-resident one-shot index.

The ByteBuffersDirectory + MemoryIndex analogue (store/ByteBuffersDirectory
.java RAM directory; memory/.../MemoryIndex.java:161 single-doc percolation
index): invert a handful of documents in process, search them immediately —
no filesystem, no manifest. The percolator pipeline builds one of these per
batch.
"""

from __future__ import annotations

import numpy as np


class MemoryIndex:
    def __init__(self, keys, texts, *, analyzer="standard",
                 doc_values: dict | None = None, mode: str = "exact"):
        """``texts`` is a list of strings or an Arrow (Chunked)Array, which
        the tokenizer reads without a Python round-trip. ``analyzer`` is an
        analyzer spec or an Analyzer. Docs are ordered by key."""
        import pyarrow as pa

        from lucene_ray.functions.analysis import get_analyzer
        from lucene_ray.searcher import IndexSearcher
        from lucene_ray.state.segment import SegmentReader, build_segment_tables

        an = get_analyzer(analyzer)
        keys = np.asarray(keys, dtype=object)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = texts.take(pa.array(order))
        else:
            texts = [texts[i] for i in order.tolist()]
        p, d, stats = build_segment_tables(keys, texts, an)
        for name, col in (doc_values or {}).items():
            vals = np.asarray(col)[order]
            d = d.append_column(name, pa.array(vals))
        reader = SegmentReader.from_tables(p, d, {"name": "memory", **stats})
        self.reader = reader
        self.searcher = IndexSearcher.from_readers([reader], mode=mode,
                                                   config={"analyzer": analyzer})

    def search(self, query, k: int = 10, **kw):
        return self.searcher.search(query, k=k, **kw)

    def count(self, query) -> int:
        return self.searcher.count(query)
