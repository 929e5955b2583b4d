"""The one cache of lucene_ray: a bounded LRU (search/LRUQueryCache.java).

Every memo the library keeps across queries is an ``LRUCache``: an entry
bound, least-recently-used eviction, ``hits`` and ``misses`` counters, and
``nbytes``, the numpy ``nbytes`` of the held values (arrays inside tuples and
lists are summed; other objects count 0), summed when read so that a put
costs no more than a dict store. Values may be ``None``. Not thread-safe:
each owner is one actor or one searcher.
"""

from __future__ import annotations

from collections import OrderedDict

_MISSING = object()


def _nbytes(value) -> int:
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    n = getattr(value, "nbytes", 0)
    return n if isinstance(n, int) else 0


class LRUCache:
    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._data: OrderedDict = OrderedDict()
        self.hits = self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def nbytes(self) -> int:
        return sum(_nbytes(v) for v in self._data.values())

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
        """Store ``value`` as the most recently used entry, evicting the
        least recently used one past ``max_entries``; returns ``value``."""
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.max_entries:
            self._data.popitem(last=False)
        return value

    def get_or_put(self, key, fn):
        """The value under ``key``; on a miss, ``fn()`` computed and stored."""
        value = self.get(key, _MISSING)
        return self.put(key, fn()) if value is _MISSING else value
