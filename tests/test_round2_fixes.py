"""Round-2 correctness fixes: tokenizer path agreement on joiner chars,
MAX_POSITION guard, query-parse errors, prefix upper bounds, manifest
commit exclusivity."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.functions.analysis import Analyzer
from lucene_ray.query import QueryParseError, parse_query
from lucene_ray.state.manifest import CommitConflict, Manifest
from lucene_ray.state.segment import (
    MAX_POSITION,
    build_segment_tables,
    prefix_successor,
)
from lucene_ray.suggest import spell_suggest


# ------------------------------------------------ tokenizer path agreement

JOINER_DOCS = [
    "1;2 3,4 5.6 7:8",          # digit joiners: ; , . (: splits digits)
    "a.b c:d e'f g’h",     # letter joiners
    "x_y 1_2 a_1",              # ExtendNumLet
    "plain ascii words 123",
    "semi;colon;words",          # ; between LETTERS splits in both grammars
    "",
]


def test_arrow_and_python_paths_agree_on_joiners():
    an = Analyzer(kind="standard")
    arrow_out = an.tokenize_batch(pa.array(JOINER_DOCS, type=pa.string()))
    py_out = an.tokenize_batch(list(JOINER_DOCS))
    for a, b in zip(arrow_out, py_out):
        assert np.array_equal(a, b), (a, b)


def test_arrow_safe_set_excludes_all_joiners():
    import re

    # every codepoint the UAX#29 mirror treats as a medial joiner must be
    # UNSAFE for the Arrow fast path (they change tokenization)
    safe = re.compile(Analyzer._ARROW_SAFE_RE)
    for j in [".", ":", "'", "’", "·", ",", ";", "_"]:
        assert not safe.match(f"1{j}2"), f"joiner {j!r} wrongly in safe set"


def test_digit_semicolon_single_token():
    an = Analyzer(kind="standard")
    terms, _, _, _ = an.tokenize_batch(["1;2"])
    assert terms.tolist() == ["1;2"]
    # and identically when the input arrives as an Arrow array
    terms2, _, _, _ = an.tokenize_batch(pa.array(["1;2"]))
    assert terms2.tolist() == ["1;2"]


# ----------------------------------------------------------- MAX_POSITION


def test_max_position_guard():
    an = Analyzer(kind="simple")
    huge = "w " * (MAX_POSITION + 2)
    with pytest.raises(ValueError, match="MAX_POSITION"):
        build_segment_tables(np.array(["d0"], dtype=object), [huge], an)


# ------------------------------------------------------------ parse errors


def test_unbalanced_quote_raises_parse_error():
    with pytest.raises(QueryParseError, match="unbalanced quote"):
        parse_query('hello "world')
    assert isinstance(QueryParseError("x"), ValueError)


# --------------------------------------------------------- prefix successor


def test_prefix_successor_basic():
    assert prefix_successor("a") == "b"
    assert prefix_successor("az") == "a{"
    assert prefix_successor("a" + chr(0x10FFFF)) == "b"
    assert prefix_successor(chr(0x10FFFF)) is None
    assert prefix_successor("") is None


def test_prefix_range_includes_supplementary_plane_terms():
    terms = np.array(sorted(["ab", "ac", "a" + chr(0x10000) + "b", "b"]), dtype=object)
    lo = int(np.searchsorted(terms, "a"))
    succ = prefix_successor("a")
    hi = int(np.searchsorted(terms, succ))
    got = set(terms[lo:hi].tolist())
    assert got == {"ab", "ac", "a" + chr(0x10000) + "b"}
    # the old sentinel bound demonstrably missed the non-BMP term
    old_hi = int(np.searchsorted(terms, "a￿"))
    assert "a" + chr(0x10000) + "b" not in set(terms[lo:old_hi].tolist())


# ------------------------------------------------------ manifest exclusivity


def test_manifest_commit_conflict(tmp_path):
    d = str(tmp_path)
    Manifest(d, 1, [], {}).commit()
    with pytest.raises(CommitConflict):
        Manifest(d, 1, [], {}).commit()
    # next generation commits fine
    Manifest(d, 2, [], {}).commit()
    assert Manifest.load(d).gen == 2


def test_merge_retries_on_commit_conflict(tmp_path, ray_session):
    import pandas as pd

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.state.merge import merge_index

    src = str(tmp_path / "d.parquet")
    pd.DataFrame({"doc_id": range(50),
                  "text": [f"w{i % 7} common" for i in range(50)]}).to_parquet(src)
    d = str(tmp_path / "idx")
    build_index(src, d, key_col="doc_id", text_col="text", num_partitions=4,
                columns=["doc_id", "text"])
    m = Manifest.load(d)
    # a concurrent writer claims the next generation first
    Manifest(d, m.gen + 1, m.segments, m.config).commit()
    out = merge_index(d, merge_factor=4, use_ray=False)
    # merge retried past the conflict and committed a later generation
    assert out.gen >= m.gen + 2
    assert len(out.segments) < len(m.segments)


def test_emoji_tokens():
    """The standard tokenizer emits emoji sequences as single tokens
    (StandardTokenizerImpl.jflex EMOJI type, Unicode-9 grammar)."""
    an = Analyzer(kind="standard")

    def toks(t):
        terms, _, _, _ = an.tokenize_batch([t])
        return terms.tolist()

    assert toks("hello \U0001F600 world") == ["hello", "\U0001F600", "world"]
    # skin-tone modifier stays attached
    assert toks("ok \U0001F44D\U0001F3FD done") == ["ok", "\U0001F44D\U0001F3FD", "done"]
    # ZWJ family sequence is ONE token
    fam = "\U0001F468‍\U0001F469‍\U0001F467"
    assert toks(f"a {fam} b") == ["a", fam, "b"]
    # emoji are NOT in the Arrow-safe fast path (would be dropped there)
    import re

    assert not re.compile(Analyzer._ARROW_SAFE_RE).match("\U0001F600")


def test_hebrew_quote_rules():
    """WB7a/b/c: gershayim between Hebrew letters joins; trailing geresh /
    single quote after a Hebrew letter is kept; Latin double quotes split."""
    an = Analyzer(kind="standard")

    def toks(t):
        terms, _, _, _ = an.tokenize_batch([t])
        return terms.tolist()

    assert toks('צה״ל test') == ['צה״ל', 'test']
    assert toks('abc"def') == ['abc', 'def']
    assert toks("מא' end") == ["מא'", 'end']
    assert toks("don't stop") == ["don't", 'stop']


def test_memory_index():
    from lucene_ray.query import NumericRangeQuery, TermQuery
    from lucene_ray.state.memory import MemoryIndex

    mi = MemoryIndex([3, 1, 2], ["alpha beta", "beta gamma", "alpha alpha"],
                     analyzer="simple", doc_values={"v": [30, 10, 20]})
    td = mi.search(TermQuery("alpha"), k=5)
    assert {sd.doc_key for sd in td.score_docs} == {2, 3}
    # higher tf scores higher
    assert td.score_docs[0].doc_key == 2
    assert mi.count(NumericRangeQuery("v", lower=15)) == 2
    assert mi.count("beta AND gamma") == 1


def test_spell_prefilter_review_counterexamples(tmp_path, ray_session):
    """Reviewer cases: zero-shared-bigram terms within the q-gram bound and
    multiset (repeated-bigram) undercounting must NOT be pruned."""
    import pandas as pd

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.searcher import IndexSearcher

    docs = ["abcde axcxe aaaaaaa aaaxaaa other words here"]
    src = str(tmp_path / "d.parquet")
    pd.DataFrame({"doc_id": [0], "text": docs}).to_parquet(src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, key_col="doc_id", text_col="text", num_partitions=1,
                columns=["doc_id", "text"])
    s = IndexSearcher(idx)
    assert "axcxe" in spell_suggest(s, "abcde", k=5)     # 0 shared bigrams, ed=2
    assert "aaaxaaa" in spell_suggest(s, "aaaaaaa", k=5)  # multiset overlap case


def test_document_respects_deletes(tmp_path, ray_session):
    import pandas as pd

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.searcher import IndexSearcher
    from lucene_ray.state.deletes import delete_by_keys

    src = str(tmp_path / "d.parquet")
    pd.DataFrame({"doc_id": [1, 2], "text": ["alpha", "beta"]}).to_parquet(src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, key_col="doc_id", text_col="text", num_partitions=1,
                columns=["doc_id", "text"])
    delete_by_keys(idx, [2])
    s = IndexSearcher(idx)
    assert s.document(1) is not None
    assert s.document(2) is None


def test_single_term_sloppy_phrase_search(tmp_path, ray_session):
    import pandas as pd

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.query import PhraseQuery
    from lucene_ray.searcher import IndexSearcher

    src = str(tmp_path / "d.parquet")
    pd.DataFrame({"doc_id": [1, 2], "text": ["hello world hello", "foo bar"]}).to_parquet(src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, key_col="doc_id", text_col="text", num_partitions=1,
                columns=["doc_id", "text"])
    s = IndexSearcher(idx)
    td = s.search(PhraseQuery(["hello"], slop=1), k=5)  # crashed before the fix
    assert [sd.doc_key for sd in td.score_docs] == [1]


def test_delete_commit_failure_cleans_orphan_livedocs(tmp_path, ray_session):
    """A delete whose manifest commit conflicts must remove its livedocs
    side-files so the redo isn't bricked by orphans, and an unrelated
    concurrent merge of OTHER segments must not abort a delete."""
    import glob
    import os

    import pandas as pd

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.state import deletes as D
    from lucene_ray.state.deletes import delete_by_keys

    src = str(tmp_path / "d.parquet")
    pd.DataFrame({"doc_id": range(40),
                  "text": [f"w{i % 5} x" for i in range(40)]}).to_parquet(src)
    d = str(tmp_path / "idx")
    build_index(src, d, key_col="doc_id", text_col="text", num_partitions=4,
                columns=["doc_id", "text"])

    # force the commit to fail once
    real = D.commit_update
    calls = {"n": 0}

    def boom(*a, **kw):
        calls["n"] += 1
        raise CommitConflict("synthetic conflict")

    D.commit_update = boom
    try:
        with pytest.raises(CommitConflict):
            delete_by_keys(d, [0, 1])
    finally:
        D.commit_update = real
    # no orphaned livedocs anywhere
    assert glob.glob(os.path.join(d, "segments", "*", "livedocs-*.parquet")) == []
    # the redo succeeds
    assert delete_by_keys(d, [0, 1]) == 2
    from lucene_ray.searcher import IndexSearcher

    assert IndexSearcher(d).document(0) is None
