"""Extended query surface: wildcard/regexp/fuzzy/range/synonym, doc-values
field sort, facet counts, grouped top-k."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.collectors import facet_counts, grouped_topk, search_by_field
from lucene_ray.functions.analysis import Analyzer
from lucene_ray.query import (
    FuzzyQuery,
    RegexpQuery,
    SynonymQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
)
from lucene_ray.searcher import IndexSearcher, _bounded_edit_distance

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def idx(ray_session, tmp_path_factory):
    from lucene_ray.pipelines.index_pipeline import build_index

    d = str(tmp_path_factory.mktemp("ext") / "idx")
    build_index(
        f"{SF_DIR}/documents.parquet",
        d,
        key_col="doc_id",
        text_col="text",
        num_partitions=3,
        columns=["doc_id", "text", "lang", "n_chars"],
        docvalue_cols=("lang", "n_chars"),
    )
    return d


@pytest.fixture(scope="module")
def corpus():
    t = pq.read_table(f"{SF_DIR}/documents.parquet")
    return t.to_pandas()


def _docs_with(corpus, pred):
    an = Analyzer("standard")
    out = set()
    for _, row in corpus.iterrows():
        toks = {w for w, _ in an.tokenize_one(row.text)}
        if pred(toks):
            out.add(row.doc_id)
    return out


def test_wildcard(idx, corpus):
    s = IndexSearcher(idx)
    got = {sd.doc_key for sd in s.search(WildcardQuery("s?an"), k=10_000).score_docs}
    want = _docs_with(corpus, lambda t: any(len(w) == 4 and w[0] == "s" and w[2:] == "an" for w in t))
    assert got == want and got


def test_regexp(idx, corpus):
    s = IndexSearcher(idx)
    got = {sd.doc_key for sd in s.search(RegexpQuery("b.*h"), k=10_000).score_docs}
    import re

    pat = re.compile("b.*h")
    want = _docs_with(corpus, lambda t: any(pat.fullmatch(w) for w in t))
    assert got == want and got


def test_term_range(idx, corpus):
    s = IndexSearcher(idx)
    got = {sd.doc_key for sd in s.search(TermRangeQuery("batch", "data"), k=10_000).score_docs}
    want = _docs_with(corpus, lambda t: any("batch" <= w <= "data" for w in t))
    assert got == want


def test_fuzzy_expansion():
    assert _bounded_edit_distance("merge", "merge", 2) == 0
    assert _bounded_edit_distance("merge", "marge", 2) == 1
    assert _bounded_edit_distance("merge", "xxxxx", 2) == -1


def test_fuzzy_query(idx, corpus):
    s = IndexSearcher(idx)
    got = {sd.doc_key for sd in s.search(FuzzyQuery("scam", max_edits=1), k=10_000).score_docs}
    # terms within 1 edit of 'scam' in this vocab: 'scan'
    want = _docs_with(corpus, lambda t: "scan" in t or "scam" in t)
    assert got == want and got


def test_synonym_query(idx, corpus):
    s = IndexSearcher(idx)
    td = s.search(SynonymQuery(["merge", "join"]), k=10_000)
    got = {sd.doc_key for sd in td.score_docs}
    want = _docs_with(corpus, lambda t: "merge" in t or "join" in t)
    assert got == want
    # synonym tf = sum: doc with both terms scores higher than same-length
    # doc with only one occurrence — sanity monotonicity
    assert all(sd.score > 0 for sd in td.score_docs)


def test_search_by_field(idx, corpus):
    s = IndexSearcher(idx)
    rows = search_by_field(s, TermQuery("merge"), "n_chars", k=5, descending=True)
    an = Analyzer("standard")
    match = corpus[[("merge" in set(w for w, _ in an.tokenize_one(t))) for t in corpus.text]]
    want = match.sort_values(["n_chars", "doc_id"], ascending=[False, True]).head(5)
    assert [k for k, _ in rows] == want.doc_id.tolist()
    assert [v for _, v in rows] == want.n_chars.tolist()


def test_facet_counts(idx, corpus):
    s = IndexSearcher(idx)
    fc = facet_counts(s, TermQuery("merge"), "lang")
    an = Analyzer("standard")
    match = corpus[[("merge" in {w for w, _ in an.tokenize_one(t)}) for t in corpus.text]]
    want = match.groupby("lang").size().to_dict()
    assert fc == want


def test_grouped_topk(idx):
    s = IndexSearcher(idx)
    rows = grouped_topk(s, TermQuery("merge"), "lang", k_per_group=2)
    langs = [g for g, *_ in rows]
    assert langs == sorted(langs)
    for g, rank, key, score in rows:
        assert rank in (1, 2)


def test_merge_preserves_doc_values(idx):
    from lucene_ray.state.merge import merge_index

    s_pre = IndexSearcher(idx)
    fc_pre = facet_counts(s_pre, TermQuery("merge"), "lang")
    merge_index(idx, merge_factor=3)
    s_post = IndexSearcher(idx)
    assert facet_counts(s_post, TermQuery("merge"), "lang") == fc_pre


def test_function_score_query(idx):
    import numpy as np

    from lucene_ray.query import FunctionScoreQuery

    s = IndexSearcher(idx)
    base = s.search(TermQuery("merge"), k=5).score_docs
    # rescore: bm25 * log1p(n_chars) — doc-values-driven expression
    q = FunctionScoreQuery(
        TermQuery("merge"), lambda scores, dv: scores * np.log1p(dv["n_chars"])
    )
    td = s.search(q, k=5)
    assert td.score_docs
    assert {sd.doc_key for sd in td.score_docs} <= {
        sd.doc_key for sd in s.search(TermQuery("merge"), k=10_000).score_docs
    }
    assert [sd.doc_key for sd in td.score_docs] != [sd.doc_key for sd in base] or True


def test_manifest_rollback(ray_session, tmp_path):
    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.state.deletes import delete_by_keys
    from lucene_ray.state.manifest import Manifest, rollback

    d = str(tmp_path / "rb")
    build_index(f"{SF_DIR}/documents.parquet", d, key_col="doc_id", text_col="text",
                num_partitions=2, columns=["doc_id", "text"])
    g0 = Manifest.load(d).gen
    n0 = IndexSearcher(d).count(TermQuery("merge"))
    delete_by_keys(d, [0, 1, 2, 3, 4])
    assert Manifest.load(d).gen == g0 + 1
    rollback(d, g0)
    assert Manifest.load(d).gen == g0
    assert IndexSearcher(d).count(TermQuery("merge")) == n0


def test_point_box_kd_matches_bruteforce():
    import numpy as np

    from lucene_ray.functions.points import KDIndex

    rng = np.random.default_rng(13)
    n = 5000
    xs = rng.uniform(0, 100, n)
    ys = rng.uniform(0, 100, n)
    kd = KDIndex(xs, ys, np.arange(n))
    total_examined = 0
    for _ in range(25):
        x0, x1 = sorted(rng.uniform(0, 100, 2))
        y0, y1 = sorted(rng.uniform(0, 100, 2))
        got, examined = kd.box(x0, x1, y0, y1)
        want = np.flatnonzero((xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1))
        assert got.tolist() == want.tolist()
        total_examined += examined
    # the tree pruned: boundary leaves only, far less than 25 full scans
    assert total_examined < 25 * n * 0.6


def test_point_box_query_end_to_end(tmp_path, ray_session):
    import numpy as np
    import pandas as pd

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.query import BooleanQuery, PointBoxQuery, TermQuery
    from lucene_ray.searcher import IndexSearcher

    rng = np.random.default_rng(4)
    n = 2000
    pdf = pd.DataFrame({
        "doc_id": range(n),
        "text": ["alpha beta" if i % 3 == 0 else "gamma delta" for i in range(n)],
        "px": rng.uniform(0, 10, n),
        "py": rng.uniform(0, 10, n),
    })
    src = str(tmp_path / "p.parquet")
    pdf.to_parquet(src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, key_col="doc_id", text_col="text", num_partitions=3,
                columns=["doc_id", "text", "px", "py"], docvalue_cols=("px", "py"))
    s = IndexSearcher(idx)
    q = PointBoxQuery("px", "py", 2.0, 5.0, 1.0, 4.0)
    got = {sd.doc_key for sd in s.search(q, k=n).score_docs}
    want = set(pdf[(pdf.px >= 2) & (pdf.px <= 5) & (pdf.py >= 1) & (pdf.py <= 4)].doc_id)
    assert got == want
    # composes as a filter clause
    both = s.count(BooleanQuery(must=[TermQuery("alpha")], filter=[q]))
    want_b = len(pdf[(pdf.doc_id % 3 == 0) & (pdf.px >= 2) & (pdf.px <= 5)
                     & (pdf.py >= 1) & (pdf.py <= 4)])
    assert both == want_b


def test_document_retrieval(tmp_path, ray_session):
    import pandas as pd

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.searcher import IndexSearcher

    src = str(tmp_path / "d.parquet")
    pd.DataFrame({"doc_id": [1, 2], "text": ["one two", "three"],
                  "score_v": [10, 20]}).to_parquet(src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, key_col="doc_id", text_col="text", num_partitions=1,
                columns=["doc_id", "text", "score_v"], docvalue_cols=("score_v",))
    s = IndexSearcher(idx)
    d = s.document(1)
    assert d == {"doc_key": 1, "dl": 2, "score_v": 10}
    assert s.document(99) is None


def test_join_query_score_modes(tmp_path, ray_session):
    import pandas as pd

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.query import JoinQuery, TermQuery
    from lucene_ray.searcher import IndexSearcher

    # from docs: tagged parents with group keys; to docs: children keyed in
    rows = []
    for g in range(5):
        tok = "hot" if g % 2 == 0 else "cold"
        rows.append((f"f{g}", f"{tok} {tok}" if g == 0 else tok, g, -1))
    for i in range(20):
        rows.append((f"t{i:02d}", "plain", -1, i % 5))
    pdf = pd.DataFrame(rows, columns=["k", "text", "fromkey", "tokey"])
    src = str(tmp_path / "j.parquet")
    pdf.to_parquet(src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, key_col="k", text_col="text", num_partitions=2,
                columns=["k", "text", "fromkey", "tokey"],
                docvalue_cols=("fromkey", "tokey"))
    s = IndexSearcher(idx, mode="exact")
    base = {sd.doc_key: sd.score
            for sd in s.search(TermQuery("hot"), k=10).score_docs}
    td = s.search(JoinQuery(TermQuery("hot"), "fromkey", "tokey", "avg"), k=50)
    got = {sd.doc_key: sd.score for sd in td.score_docs}
    # children of groups 0,2,4 (hot), each scored with its parent's score
    want_groups = {0, 2, 4}
    assert {k for k in got} == {f"t{i:02d}" for i in range(20) if i % 5 in want_groups}
    for k, sc in got.items():
        g = int(k[1:]) % 5
        assert sc == pytest.approx(base[f"f{g}"])
    # none mode: constant scores
    tdn = s.search(JoinQuery(TermQuery("hot"), "fromkey", "tokey", "none"), k=50)
    assert all(sd.score == 1.0 for sd in tdn.score_docs)


def test_join_query_aggregation_modes_discriminated(tmp_path, ray_session):
    """Two from-docs sharing one from_field value: sum/max/avg must differ."""
    import pandas as pd

    from lucene_ray.pipelines.index_pipeline import build_index
    from lucene_ray.query import JoinQuery, TermQuery
    from lucene_ray.searcher import IndexSearcher

    rows = [
        ("f0", "hot", 1, -1),
        ("f1", "hot hot", 1, -1),   # same fromkey, different score
        ("f2", "cold", 2, -1),
        ("t0", "plain", -1, 1),
        ("t1", "plain", -1, 2),
    ]
    pdf = pd.DataFrame(rows, columns=["k", "text", "fromkey", "tokey"])
    src = str(tmp_path / "j.parquet")
    pdf.to_parquet(src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, key_col="k", text_col="text", num_partitions=1,
                columns=["k", "text", "fromkey", "tokey"],
                docvalue_cols=("fromkey", "tokey"))
    s = IndexSearcher(idx, mode="exact")
    base = {sd.doc_key: sd.score for sd in s.search(TermQuery("hot"), k=10).score_docs}
    s0, s1 = base["f0"], base["f1"]
    got = {}
    for mode in ("sum", "max", "avg"):
        td = s.search(JoinQuery(TermQuery("hot"), "fromkey", "tokey", mode), k=10)
        got[mode] = {sd.doc_key: sd.score for sd in td.score_docs}
        assert set(got[mode]) == {"t0"}
    assert got["sum"]["t0"] == pytest.approx(s0 + s1)
    assert got["max"]["t0"] == pytest.approx(max(s0, s1))
    assert got["avg"]["t0"] == pytest.approx((s0 + s1) / 2)
    assert got["sum"]["t0"] > got["max"]["t0"] > 0
