"""Machine-speed probe: fixed units of CPU work that run no lucene_ray code.

The shared host this benchmark was tuned on changes speed by up to ~3x
within seconds, and lucene_ray's query code slows by more than a simple
compute loop does: it is interpreter- and memory-bound, and calls many small
numpy operations. The probe does two kinds of work of that sort and takes
the geometric mean of their slowdowns:

* a Python loop that reads 40,000 randomly chosen small dicts out of
  300,000 (~90 MB);
* a miniature postings scan: for 30 fixed terms, ``searchsorted`` into
  70,000 term-sorted token ids, ``np.unique`` of the matching documents,
  a score and an ``argsort`` top 10, repeated 16 times.

In a 4-minute query stream, dividing 5-second throughput windows by the
mean factor of their rounds cut their spread (IQR/median) from 0.33 to 0.03
(hot log) and from 0.23 to 0.04 (tail log); either kernel alone did worse.

The slowdown is also partly per process (a probe in a helper process
tracked the driver's query speed far worse than one in the driver itself),
so the probe runs in the driver, whose set-up and query work it brackets.

``factor()`` is above 1 while the machine runs slow. A time measured
between two probes is reported at nominal speed as
``time / mean(factor before, factor after)``.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import numpy as np

OBJECTS = 300_000
LOOKUPS = 40_000
SCAN_TOKENS = 70_000
SCAN_TERMS = 30
SCAN_REPEATS = 16
# kernel times that define nominal speed
NOMINAL_DICT_S = 0.030
NOMINAL_SCAN_S = 0.011


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * 4096


class SpeedProbe:
    def __init__(self):
        rss0 = _rss_bytes()
        rng = random.Random(0)
        self._objs = [{"a": i, "b": str(i)} for i in range(OBJECTS)]
        self._order = [rng.randrange(OBJECTS) for _ in range(LOOKUPS)]
        nrng = np.random.default_rng(0)
        ids = nrng.zipf(1.1, SCAN_TOKENS) % 20_000
        doc_of = np.arange(SCAN_TOKENS) // 175
        order = np.argsort(ids, kind="stable")
        self._ids, self._docs = ids[order], doc_of[order]
        self._terms = nrng.choice(np.unique(ids), SCAN_TERMS, replace=False).tolist()
        self.rss_bytes = _rss_bytes() - rss0  # its own share of the process's RSS
        self.factor()

    def _dict_loop(self) -> float:
        objs = self._objs
        t0 = time.perf_counter()
        total = 0
        for i in self._order:
            total += objs[i]["a"]
        return time.perf_counter() - t0

    def _postings_scan(self) -> float:
        ids, docs = self._ids, self._docs
        t0 = time.perf_counter()
        for _ in range(SCAN_REPEATS):
            for t in self._terms:
                lo, hi = np.searchsorted(ids, t), np.searchsorted(ids, t, "right")
                d, tf = np.unique(docs[lo:hi], return_counts=True)
                score = tf / (tf + 1.2)
                top = np.argsort(-score, kind="stable")[:10]
                [(int(d[i]), float(score[i])) for i in top]
        return time.perf_counter() - t0

    def factor(self, n: int = 1) -> float:
        """Median of ``n`` probe timings: the geometric mean of both
        kernels' times over their nominal times."""
        return statistics.median(
            math.sqrt(self._dict_loop() / NOMINAL_DICT_S * self._postings_scan() / NOMINAL_SCAN_S)
            for _ in range(n))
