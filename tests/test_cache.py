"""LRUCache: a model test against a reference LRU, and a source scan that
no other module of the library evicts entries by hand."""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.cache import LRUCache

_value = st.one_of(
    st.none(),
    st.integers(0, 64).map(lambda n: np.zeros(n, dtype=np.int32)),
    st.tuples(st.integers(0, 8), st.integers(0, 8)).map(
        lambda ab: (np.zeros(ab[0], dtype=np.int64), np.zeros(ab[1], dtype=np.float32))),
    st.just(("a", "b")),
)
_key = st.integers(0, 6)
_op = st.one_of(
    st.tuples(st.just("get"), _key),
    st.tuples(st.just("put"), _key, _value),
    st.tuples(st.just("get_or_put"), _key, _value),
)


def _size(v) -> int:
    if isinstance(v, np.ndarray):
        return v.nbytes
    if isinstance(v, tuple):
        return sum(a.nbytes for a in v if isinstance(a, np.ndarray))
    return 0


@settings(max_examples=300, deadline=None)
@given(cap=st.integers(1, 5), ops=st.lists(_op, max_size=60))
def test_lru_matches_reference_model(cap, ops):
    c = LRUCache(cap)
    order: list = []  # keys, least recently used first
    held: dict = {}
    hits = misses = 0
    for op in ops:
        kind, key = op[0], op[1]
        if kind == "get":
            got = c.get(key, "absent")
            if key in held:
                hits += 1
                assert got is held[key]
                order.remove(key)
                order.append(key)
            else:
                misses += 1
                assert got == "absent"
            continue
        value = op[2]
        if kind == "get_or_put":
            got = c.get_or_put(key, lambda: value)
            if key in held:
                hits += 1
                assert got is held[key]
                order.remove(key)
                order.append(key)
                continue
            misses += 1
            assert got is value
        else:
            assert c.put(key, value) is value
        if key in order:
            order.remove(key)
        order.append(key)
        held[key] = value
        while len(order) > cap:
            del held[order.pop(0)]
        assert list(c._data) == order  # eviction order is least recent first
    assert len(c) == len(held) <= cap
    assert (c.hits, c.misses) == (hits, misses)
    assert c.nbytes == sum(_size(v) for v in held.values())


def test_unhashable_key_raises_and_bad_capacity():
    c = LRUCache(2)
    with pytest.raises(TypeError):
        c.get(["unhashable"])
    with pytest.raises(ValueError):
        LRUCache(0)


def test_no_hand_rolled_eviction_outside_cache_module():
    """Every cache of the library is an LRUCache: no other module evicts
    by hand (FIFO pops, clear-at-size, weak-keyed side tables)."""
    root = pathlib.Path(__file__).resolve().parents[1] / "lucene_ray"
    patterns = {
        "FIFO pop": re.compile(r"pop\(next\(iter\("),
        "weak-keyed table": re.compile(r"WeakKeyDictionary"),
        "ordered eviction": re.compile(r"popitem\(\s*last=False|move_to_end"),
        "clear at size": re.compile(r"if len\([^)]*\)\s*>=?[^:\n]*:[^\n]*\n\s*\S+\.clear\(\)"),
    }
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "cache.py" and path.parent == root:
            continue
        src = path.read_text()
        found += [f"{path.relative_to(root)}: {name}"
                  for name, pat in patterns.items() if pat.search(src)]
    assert not found
