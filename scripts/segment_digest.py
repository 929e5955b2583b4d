"""Print the SHA-256 of every parquet file of every segment an index's
current manifest names, one ``<sha256>  <segment>/<file>`` line each, in
name order. Two indexes built from the same input by different versions of
the build hold the same segment bytes exactly when their hash columns are
equal (a build segment's name carries its build fingerprint, which covers
the source files' paths and mtimes on the by-file build, so names may
differ):

    python scripts/segment_digest.py /path/to/index | cut -d' ' -f1 > digest.txt
"""

from __future__ import annotations

import glob
import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from lucene_ray.state.manifest import Manifest


def digests(index_dir: str) -> list[tuple[str, str]]:
    """[(sha256 hex, "<segment>/<file>")] over the current manifest."""
    out = []
    for seg_dir in sorted(Manifest.load(index_dir).segment_dirs()):
        for path in sorted(glob.glob(os.path.join(seg_dir, "*.parquet"))):
            with open(path, "rb") as f:
                h = hashlib.sha256(f.read()).hexdigest()
            out.append((h, os.path.relpath(path, os.path.dirname(seg_dir))))
    return out


def main(index_dir: str) -> int:
    for h, name in digests(index_dir):
        print(f"{h}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
