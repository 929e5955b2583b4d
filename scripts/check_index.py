"""CheckIndex CLI — walk every segment of an index and verify invariants
(the reference's org.apache.lucene.index.CheckIndex main, :3795).

    python scripts/check_index.py /path/to/index
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from lucene_ray.state.manifest import Manifest
from lucene_ray.state.segment import SegmentReader, check_segment


def main(index_dir: str) -> int:
    manifest = Manifest.load(index_dir)
    n_bad = 0
    for seg, d in zip(manifest.segments, manifest.segment_dirs()):
        problems = check_segment(d)
        status = "OK" if not problems else "BROKEN"
        # an open reader holds the core columns; a positional or impact
        # read adds the per-term streams
        r = SegmentReader(d)
        r.has_positions  # reads the streams
        mem = r.memory_bytes()
        print(f"segment {seg['name']}: max_doc={seg['max_doc']} "
              f"terms={seg.get('n_terms')} "
              f"reader_core_bytes={mem['core_bytes']} "
              f"reader_stream_bytes={mem['stream_bytes']} "
              f"terms_materialized={mem['terms_materialized']} {status}")
        for p in problems:
            print(f"  !! {p}")
            n_bad += 1
    cs = manifest.collection_stats()
    agg_ok = (
        cs.doc_count <= cs.max_doc and cs.doc_count <= cs.sum_doc_freq <= cs.sum_total_term_freq
    )
    print(f"collection: {cs} {'OK' if agg_ok else 'BROKEN'}")
    return 1 if (n_bad or not agg_ok) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
