"""The sampled term dictionary (``TermDictionary``) at sizes on both sides of
the terms-index interval, and ``GlobalTermStats`` over it in eager and lazy
range-file modes, against Python ``bisect`` and a dict read from parquet."""

from __future__ import annotations

import bisect
import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray import searcher as searcher_mod
from lucene_ray.searcher import GlobalTermStats
from lucene_ray.state.segment import TERMS_INDEX_INTERVAL, TermDictionary

SIZES = [0, 1, 15, 16, 17, 33, 601]
_ALPHABET = "abcz0é中\U0001f600\U0010ffff"


def _keys(n: int, seed: int) -> list[str]:
    """``n`` distinct sorted keys: ASCII, non-ASCII, astral, and multi-field
    ``field\\x1fterm`` keys."""
    rnd = random.Random(seed)
    keys: set[str] = set()
    while len(keys) < n:
        word = "".join(rnd.choice(_ALPHABET) for _ in range(rnd.randint(1, 4)))
        keys.add(rnd.choice(["", "", "body\x1f", "title\x1f"]) + word)
    return sorted(keys)


def _probes(stored: list[str]) -> list[str]:
    """Every stored key, its prefixes and neighbours, and keys outside it."""
    out = ["", "\x00", "\U0010ffff" * 3, "\ud800", "a\udfff", "body\x1f",
           "title\x1f\ud83d", "zz", "é", "\U0001f600", "body", "title\x1fz"]
    for t in stored:
        out += [t, t[:-1], t + "\x00", t + "\U0010ffff", t[:-1] + "\ud800"]
    return out


def _check(d: TermDictionary, stored: list[str]) -> None:
    assert d.n == len(stored)
    for key in _probes(stored):
        left = bisect.bisect_left(stored, key)
        assert d.bisect(key) == left, key
        assert d.bisect(key, side="right") == bisect.bisect_right(stored, key), key
        hit = left < len(stored) and stored[left] == key
        assert d.index(key) == (left if hit else -1), key
        n_with = sum(1 for t in stored[left:] if t.startswith(key))
        assert d.range(key) == (left, left + n_with), key
    assert [d.term_at(i) for i in range(len(stored))] == stored
    assert d.terms.tolist() == stored


@pytest.mark.parametrize("n", SIZES)
def test_dictionary_matches_python_bisect(n):
    stored = _keys(n, seed=n)
    _check(TermDictionary(pa.array(stored, type=pa.string())), stored)
    _check(TermDictionary(pa.array(stored, type=pa.large_string())), stored)
    # a chunked column, as a parquet read yields it
    half = len(stored) // 2
    _check(TermDictionary(pa.chunked_array([stored[:half], stored[half:]], type=pa.string())),
           stored)


def test_dictionary_lookups_decode_nothing():
    stored = _keys(5 * TERMS_INDEX_INTERVAL + 3, seed=7)
    d = TermDictionary(pa.array(stored))
    for t in stored:
        d.index(t)
        d.range(t[:1])
    assert d._terms_np is None
    assert d.nbytes > d.arr.nbytes


def _write_stats(path: str, terms: list[str], seed: int) -> dict:
    rnd = np.random.default_rng(seed)
    df = rnd.integers(1, 50, len(terms))
    ttf = df + rnd.integers(0, 50, len(terms))
    pq.write_table(pa.table({"term": pa.array(terms, type=pa.string()),
                             "doc_freq": df, "total_tf": ttf}), path)
    return {t: (int(a), int(b)) for t, a, b in zip(terms, df, ttf)}


def _check_stats(g: GlobalTermStats, want: dict) -> None:
    stored = sorted(want)
    for key in _probes(stored):
        assert g.lookup(key) == want.get(key, (0, 0)), key


@pytest.mark.parametrize("n", SIZES)
def test_global_stats_eager(tmp_path, n):
    stored = _keys(n, seed=100 + n)
    path = str(tmp_path / "term_stats-0.parquet")
    want = _write_stats(path, stored, seed=n)
    g = GlobalTermStats(path)
    assert g.eager
    _check_stats(g, want)
    assert g.term_dict._terms_np is None  # nothing decoded by lookups
    assert g.terms.tolist() == stored


def _range_dir(tmp_path, stored: list[str], n_files: int, reverse_names: bool) -> tuple[str, dict]:
    """A directory of term-range files; with ``reverse_names`` the file-name
    order is the reverse of the term order, so a concatenation in name order
    is out of order."""
    d = tmp_path / "term_stats-0.parquet"
    d.mkdir()
    want = {}
    bounds = np.linspace(0, len(stored), n_files + 1).astype(int)
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        name = n_files - i if reverse_names else i
        want |= _write_stats(str(d / f"part-{name:03d}.parquet"), stored[lo:hi], seed=i)
    return str(d), want


def test_global_stats_shuffled_ranges_resorted(tmp_path):
    stored = _keys(200, seed=3)
    path, want = _range_dir(tmp_path, stored, GlobalTermStats.LAZY_FILE_THRESHOLD, True)
    assert pq.read_table(path).column("term").to_pylist() != stored
    g = GlobalTermStats(path)
    assert g.eager
    assert g.terms.tolist() == stored
    assert [(int(a), int(b)) for a, b in zip(g.doc_freq, g.total_tf)] == [want[t] for t in stored]
    _check_stats(g, want)


def test_global_stats_lazy(tmp_path):
    stored = _keys(600, seed=4)
    path, want = _range_dir(tmp_path, stored, GlobalTermStats.LAZY_FILE_THRESHOLD + 3, True)
    g = GlobalTermStats(path)
    assert not g.eager
    _check_stats(g, want)
    cache = g._range_cache
    assert len(cache) <= searcher_mod.TERM_STATS_RANGE_CACHE_ENTRIES
    assert cache.max_bytes == searcher_mod.TERM_STATS_RANGE_CACHE_BYTES
    # the cached dictionaries count toward the byte bound
    held = [cache._data[f] for f in cache._data]
    assert cache.nbytes == sum(d.nbytes + df.nbytes + ttf.nbytes for d, df, ttf in held)
    assert all(d._terms_np is None for d, _, _ in held)


def test_global_stats_lazy_byte_bound(tmp_path, monkeypatch):
    stored = _keys(600, seed=5)
    path, want = _range_dir(tmp_path, stored, GlobalTermStats.LAZY_FILE_THRESHOLD + 3, False)
    entry = GlobalTermStats._read_range(os.path.join(path, "part-000.parquet"))
    one_file = sum(x.nbytes for x in entry)
    monkeypatch.setattr(searcher_mod, "TERM_STATS_RANGE_CACHE_BYTES", 3 * one_file)
    g = GlobalTermStats(path)
    _check_stats(g, want)
    assert 0 < g._range_cache.nbytes <= g._range_cache.max_bytes
    assert len(g._range_cache) < len(g._files)
