"""The one cache of lucene_ray: a bounded LRU (search/LRUQueryCache.java).

Every memo the library keeps across queries is an ``LRUCache``: an entry
bound, a byte bound or both, least-recently-used eviction, ``hits`` and
``misses`` counters, and ``nbytes``, the numpy ``nbytes`` of the held values
(arrays inside tuples and lists are summed; other objects count 0), kept as
a running total. A value larger than the byte bound is returned but not
held. Values may be ``None``. Not thread-safe: each owner is one actor or
one searcher.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

_MISSING = object()


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(map(_nbytes, value))
    n = getattr(value, "nbytes", 0)
    return n if isinstance(n, int) else 0


class LRUCache:
    def __init__(self, max_entries: int | None = None, max_bytes: int | None = None):
        if max_entries is None and max_bytes is None:
            raise ValueError("an LRUCache needs max_entries, max_bytes or both")
        for name, bound in (("max_entries", max_entries), ("max_bytes", max_bytes)):
            if bound is not None and bound < 1:
                raise ValueError(f"{name} must be >= 1, got {bound}")
        inf = float("inf")  # an absent bound
        self.max_entries = inf if max_entries is None else max_entries
        self.max_bytes = inf if max_bytes is None else max_bytes
        self._data: OrderedDict = OrderedDict()
        self._sizes: dict = {}
        self.nbytes = 0
        self.hits = self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key, default=None):
        """The value under ``key`` (now most recently used), else
        ``default``. An unhashable key raises TypeError."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value):
        """Store ``value`` as the most recently used entry, evicting least
        recently used ones past either bound; returns ``value``."""
        data, sizes = self._data, self._sizes
        size = _nbytes(value)
        if key in data:
            del data[key]
            self.nbytes -= sizes.pop(key)
        if size > self.max_bytes:
            return value
        data[key] = value
        sizes[key] = size
        self.nbytes += size
        while len(data) > self.max_entries or self.nbytes > self.max_bytes:
            old, _ = data.popitem(last=False)
            self.nbytes -= sizes.pop(old)
        return value

    def get_or_put(self, key, fn):
        """The value under ``key``; on a miss, ``fn()`` computed and stored."""
        value = self.get(key, _MISSING)
        return self.put(key, fn()) if value is _MISSING else value
