"""Classic QueryParser syntax coverage (queryparser/classic/QueryParser.jj;
behavioral model TestQueryParser.java): field prefixes, phrase slop, fuzzy,
ranges, wildcards, regexp terms, boosts on atoms/phrases/groups, escapes,
the + - ! && || operators and field-scoped groups."""

import pytest

from lucene_ray.query import (
    BooleanQuery,
    BoostQuery,
    FuzzyQuery,
    MatchAllDocsQuery,
    NumericRangeQuery,
    PhraseQuery,
    PrefixQuery,
    QueryParseError,
    RegexpQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
    parse_query,
)


def test_default_or_and_modifiers():
    q = parse_query("+a -b c")
    assert q == BooleanQuery(must=[TermQuery("a")], should=[TermQuery("c")],
                             must_not=[TermQuery("b")])


def test_keywords_and_symbol_operators():
    assert parse_query("a AND b") == parse_query("a && b")
    assert parse_query("a OR b") == parse_query("a || b")
    q = parse_query("!a b")
    assert q == BooleanQuery(should=[TermQuery("b")], must_not=[TermQuery("a")])


def test_field_term_and_field_group():
    assert parse_query("title:foo") == TermQuery("foo", field="title")
    q = parse_query("title:(a b)")
    assert q == BooleanQuery(should=[TermQuery("a", field="title"),
                                     TermQuery("b", field="title")])
    # explicit field inside a scoped group wins
    q = parse_query("title:(a body:b)")
    assert q.should[1] == TermQuery("b", field="body")


def test_phrase_slop_and_boost():
    q = parse_query('"a b"~2')
    assert q == PhraseQuery(["a", "b"], slop=2)
    q = parse_query('"a b"~2^3')
    assert q == BoostQuery(PhraseQuery(["a", "b"], slop=2), 3.0)
    # single-term phrase rewrites to a TermQuery (PhraseQuery 1-term rewrite)
    assert parse_query('"solo"') == TermQuery("solo")


def test_fielded_phrase():
    assert parse_query('title:"a b"') == PhraseQuery(["a", "b"], field="title")


def test_fuzzy():
    assert parse_query("roam~") == FuzzyQuery("roam", max_edits=2)
    assert parse_query("roam~1") == FuzzyQuery("roam", max_edits=1)
    # reference caps edits at 2 (LevenshteinAutomata.MAXIMUM_SUPPORTED_DISTANCE)
    assert parse_query("roam~5") == FuzzyQuery("roam", max_edits=2)


def test_ranges():
    assert parse_query("name:[alpha TO beta]") == TermRangeQuery(
        "alpha", "beta", True, True, field="name")
    assert parse_query("name:{alpha TO beta}") == TermRangeQuery(
        "alpha", "beta", False, False, field="name")
    assert parse_query("name:[alpha TO *]") == TermRangeQuery(
        "alpha", None, True, True, field="name")
    assert parse_query("n:[10 TO 20]", numeric_fields={"n"}) == NumericRangeQuery(
        "n", 10.0, 20.0, True, True)
    assert parse_query("n:{* TO 20}", numeric_fields={"n"}) == NumericRangeQuery(
        "n", None, 20.0, False, False)


def test_wildcards_prefix_regexp():
    assert parse_query("wind*") == PrefixQuery("wind")
    assert parse_query("te?t") == WildcardQuery("te?t")
    assert parse_query("t*st*") == WildcardQuery("t*st*")
    assert parse_query("f:te*t") == WildcardQuery("te*t", field="f")
    assert parse_query("/me.*e/") == RegexpQuery("me.*e")
    assert parse_query("lang:/e[ns]/") == RegexpQuery("e[ns]", field="lang")


def test_match_all_and_empty():
    assert parse_query("*:*") == MatchAllDocsQuery()
    assert parse_query("   ") == MatchAllDocsQuery()


def test_group_boost():
    q = parse_query("(a b)^2")
    assert isinstance(q, BoostQuery) and q.boost == 2.0
    assert q.query == BooleanQuery(should=[TermQuery("a"), TermQuery("b")])


def test_escapes():
    # escaped wildcard chars are literal (WildcardQuery keeps the backslash)
    assert parse_query(r"foo\*") == TermQuery("foo*")
    # escaped ? is literal; the trailing * still makes this a prefix query
    assert parse_query(r"fo\?o*") == PrefixQuery("fo?o")
    # an escaped * with a real ? stays a wildcard with the escape preserved
    assert parse_query(r"f\*o?o") == WildcardQuery(r"f\*o?o")
    # escaped colon stays in the term
    assert parse_query(r"a\:b") == TermQuery("a:b")
    # escaped space joins two words
    assert parse_query(r"a\ b") == TermQuery("a b")


def test_parse_errors():
    with pytest.raises(QueryParseError):
        parse_query('"unbalanced')
    with pytest.raises(QueryParseError):
        parse_query("name:[a TO")
    with pytest.raises(QueryParseError):
        parse_query("boost^x")
    with pytest.raises(QueryParseError):
        parse_query("field:")


def test_precedence():
    # OR binds loosest: a AND b OR c == (a AND b) OR c
    q = parse_query("a AND b OR c")
    assert q == BooleanQuery(should=[
        BooleanQuery(must=[TermQuery("a"), TermQuery("b")]),
        TermQuery("c"),
    ])


def test_binary_not():
    q = parse_query("a NOT b")
    assert q == BooleanQuery(must=[TermQuery("a")], must_not=[TermQuery("b")])


def test_normalize_applies_to_terms_not_wildcards():
    up = parse_query("FOO Bar*")
    assert up == BooleanQuery(should=[TermQuery("foo"), PrefixQuery("bar")])
    # wildcard patterns lowercase but do not stem
    assert parse_query("TE?T") == WildcardQuery("te?t")


def test_boolean_clause_limit_in_constructor():
    from lucene_ray.query import TooManyClauses

    n = BooleanQuery.MAX_CLAUSE_COUNT
    ok = BooleanQuery(should=[TermQuery(f"t{i}") for i in range(n)])
    assert len(ok.should) == n
    with pytest.raises(TooManyClauses, match="MAX_CLAUSE_COUNT"):
        BooleanQuery(should=[TermQuery(f"t{i}") for i in range(n + 1)])
    with pytest.raises(TooManyClauses):  # counted over all four occurs
        BooleanQuery(must=[TermQuery("a")] * 600, must_not=[TermQuery("b")] * 600)


def test_parsed_2000_term_or_is_refused():
    from lucene_ray.query import TooManyClauses

    text = " ".join(f"t{i}" for i in range(2000))
    with pytest.raises(TooManyClauses, match="2000 clauses"):
        parse_query(text)
    with pytest.raises(ValueError):  # still a ValueError for older callers
        parse_query(" OR ".join(f"t{i}" for i in range(2000)))
