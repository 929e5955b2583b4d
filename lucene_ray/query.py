"""Query tree + a classic-syntax parser subset.

Reference query types (lucene/core/src/java/org/apache/lucene/search/):
TermQuery.java:36-118, BooleanQuery.java (occurs MUST/SHOULD/MUST_NOT/FILTER,
BooleanClause.java), PhraseQuery.java:71-147, PrefixQuery/MultiTermQuery,
TermInSetQuery, MatchAllDocsQuery, ConstantScoreQuery, BoostQuery,
DisjunctionMaxQuery. Parser subset of
queryparser/.../classic/QueryParserBase.java: terms, quoted phrases, AND/OR/
NOT, +/- prefixes, parentheses, trailing-* prefix queries, ^boost.

Queries are plain immutable Python values; the physical execution plan (which
scorer runs) is chosen by the searcher, mirroring Boolean2ScorerSupplier
(search/Boolean2ScorerSupplier.java:30-247).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Query:
    """Marker base class."""

    __slots__ = ()


@dataclass(frozen=True)
class TermQuery(Query):
    term: str
    field: str | None = None  # None = the index's default field

    def __str__(self):
        return f"{self.field}:{self.term}" if self.field else self.term


@dataclass(frozen=True)
class PhraseQuery(Query):
    terms: tuple
    slop: int = 0
    field: str | None = None

    def __init__(self, terms, slop: int = 0, field: str | None = None):
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "slop", int(slop))
        object.__setattr__(self, "field", field)

    def __str__(self):
        return '"' + " ".join(self.terms) + '"'


@dataclass(frozen=True)
class PrefixQuery(Query):
    prefix: str
    field: str | None = None

    def __str__(self):
        return self.prefix + "*"


@dataclass(frozen=True)
class WildcardQuery(Query):
    """``?`` = one char, ``*`` = any run (search/WildcardQuery.java) —
    executed as a compiled-regex scan over the sorted term dictionary, the
    moral equivalent of the automaton∩term-dict intersection. ``\\*`` /
    ``\\?`` escape to literal chars, as in the reference."""

    pattern: str
    field: str | None = None


@dataclass(frozen=True)
class RegexpQuery(Query):
    """RE2-style regexp over the term dictionary (search/RegexpQuery.java);
    anchored at both ends like the reference."""

    pattern: str
    field: str | None = None


@dataclass(frozen=True)
class FuzzyQuery(Query):
    """Terms within Levenshtein distance ``max_edits`` (≤2, like
    search/FuzzyQuery.java); ``prefix_length`` chars must match exactly.
    Rewrites to a blended constant-score-ish OR: the reference scores each
    expanded term with a boost of (1 - edits/len); we reproduce that."""

    term: str
    max_edits: int = 2
    prefix_length: int = 0
    field: str | None = None


@dataclass(frozen=True)
class TermRangeQuery(Query):
    """lower ≤ term ≤ upper lexicographic range scan (TermRangeQuery.java)."""

    lower: str | None
    upper: str | None
    include_lower: bool = True
    include_upper: bool = True
    field: str | None = None


@dataclass(frozen=True)
class NumericRangeQuery(Query):
    """lo ≤ value(field) ≤ hi over a numeric doc-values column — the
    PointRangeQuery / IndexOrDocValuesQuery analogue (document/LongPoint
    range factory; search/IndexOrDocValuesQuery.java picks the doc-values
    execution for selective outer queries, which is exactly this engine's
    physical plan). Non-scoring (constant score 1·boost), composes as a
    FILTER/MUST clause."""

    field: str
    lower: float | int | None = None
    upper: float | int | None = None
    include_lower: bool = True
    include_upper: bool = True


@dataclass(frozen=True)
class DocValuesTermQuery(Query):
    """Docs whose doc-values column equals ``value`` — the
    SortedDocValuesField.newSlowExactQuery / DocValuesTermsQuery analogue
    (queries/.../DocValuesTermsQuery.java): an O(maxDoc) doc-values scan,
    non-scoring (constant score), composes as FILTER/MUST. The drill-down
    filter primitive of the facet module."""

    field: str
    value: object


@dataclass(frozen=True)
class PointBoxQuery(Query):
    """2-D box over two numeric doc-values columns, served by the BKD-style
    k-d index (util/bkd/BKDWriter.java:76 + PointRangeQuery 2-dim case).
    Non-scoring (constant score), composes as FILTER/MUST."""

    field_x: str
    field_y: str
    x0: float
    x1: float
    y0: float
    y1: float


@dataclass(frozen=True)
class MultiPhraseQuery(Query):
    """Phrase with MULTIPLE accepted terms per position (search/
    MultiPhraseQuery.java:47, e.g. "microsoft (app OR office)"): position j
    matches if ANY of ``positions[j]``'s terms occurs there. Matched like
    ExactPhraseMatcher over per-slot UNION postings (the reference's
    UnionPostingsEnum), scored with the idf sum over every term in the query
    (terms absent from the collection contribute nothing, as in the
    reference where they carry no TermStates)."""

    positions: tuple  # tuple[tuple[str, ...], ...]
    slop: int = 0
    field: str | None = None

    def __init__(self, positions, slop: int = 0, field: str | None = None):
        object.__setattr__(
            self, "positions", tuple(tuple(slot) for slot in positions)
        )
        object.__setattr__(self, "slop", int(slop))
        object.__setattr__(self, "field", field)


@dataclass(frozen=True)
class ComplexPhraseQuery(Query):
    """Phrase whose slots may be multi-term expansions — the
    ComplexPhraseQueryParser's query (queryparser/complexPhrase/
    ComplexPhraseQueryParser.java:60: "wildcard, fuzzy, range and group
    syntax inside phrases"). Each slot is a tuple of atom specs:
    ``("term", t)``, ``("prefix", p)``, ``("wildcard", pat)``,
    ``("fuzzy", t, max_edits)``. The searcher expands every slot against the
    per-segment term dictionary and delegates to the MultiPhraseQuery
    matcher (the reference rewrites to spans the same way); a slot that
    expands to nothing makes the query match nothing."""

    positions: tuple  # tuple[tuple[spec, ...], ...]
    slop: int = 0
    field: str | None = None

    def __init__(self, positions, slop: int = 0, field: str | None = None):
        object.__setattr__(
            self, "positions", tuple(tuple(slot) for slot in positions)
        )
        object.__setattr__(self, "slop", int(slop))
        object.__setattr__(self, "field", field)


@dataclass(frozen=True)
class CoveringQuery(Query):
    """Matches docs where the number of matching sub-queries ≥ a PER-DOC
    minimum read from a numeric doc-values column — sandbox/search/
    CoveringQuery.java:49 with LongValuesSource.fromLongField semantics.
    Score = sum of the matching sub-scores. Evaluation is union-driven, so
    the per-doc minimum is effectively clamped to ≥ 1 (a doc matching zero
    clauses never matches, exactly as in the reference's scorer)."""

    queries: tuple
    min_match_field: str

    def __init__(self, queries, min_match_field: str):
        object.__setattr__(self, "queries", tuple(queries))
        object.__setattr__(self, "min_match_field", min_match_field)


@dataclass(frozen=True)
class GeoDistanceQuery(Query):
    """All docs whose (lat, lon) doc values lie within ``radius_m`` meters of
    the center — LatLonPoint.newDistanceQuery (document/LatLonPoint.java:281)
    semantics: BKD box pruning (the 2-D kd index over the lat/lon columns)
    followed by exact haversine verification (util/SloppyMath.java:47
    haversinMeters, same op order). Non-scoring (constant score 1·boost),
    composes as FILTER/MUST."""

    lat_field: str
    lon_field: str
    lat: float
    lon: float
    radius_m: float


@dataclass(frozen=True)
class PointNDRangeQuery(Query):
    """N-dimensional box over numeric doc-values columns — the general
    PointRangeQuery over a k-d (BKD) tree (search/PointRangeQuery.java with
    numDims > 1; util/bkd/BKDWriter.java supports up to 8 index dims).
    ``None`` bounds are open. Non-scoring; composes as FILTER/MUST."""

    fields: tuple
    lows: tuple
    highs: tuple

    def __init__(self, fields, lows, highs):
        fields = tuple(fields)
        lows = tuple(float("-inf") if v is None else float(v) for v in lows)
        highs = tuple(float("inf") if v is None else float(v) for v in highs)
        if not (len(fields) == len(lows) == len(highs)) or not fields:
            raise ValueError("fields/lows/highs must be same non-zero length")
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)


@dataclass(frozen=True)
class SortedSetContainsQuery(Query):
    """Docs whose multi-valued (SortedSet) doc-values column CONTAINS the
    value — SortedSetDocValuesField.newSlowExactQuery semantics
    (document/SortedSetDocValuesField.java:121): a non-scoring filter over
    the per-doc ordinal sets. Composes as FILTER/MUST."""

    field: str
    value: object


@dataclass(frozen=True)
class GeoPolygonQuery(Query):
    """All docs whose (lat, lon) doc values lie inside the polygon —
    LatLonPoint.newPolygonQuery (document/LatLonPoint.java:299,
    geo/Polygon.java) semantics: BKD box pruning on the polygon's bounding
    box, then exact even-odd ray-casting containment (with optional holes).
    ``rings``: outer ring first, then hole rings; each ring a tuple of
    (lat, lon) vertex pairs (implicitly closed). Non-scoring."""

    lat_field: str
    lon_field: str
    rings: tuple

    def __init__(self, lat_field: str, lon_field: str, rings):
        object.__setattr__(self, "lat_field", lat_field)
        object.__setattr__(self, "lon_field", lon_field)
        rs = tuple(tuple((float(a), float(b)) for a, b in ring) for ring in rings)
        if not rs or len(rs[0]) < 3:
            raise ValueError("polygon needs an outer ring with >= 3 vertices")
        object.__setattr__(self, "rings", rs)


@dataclass(frozen=True)
class PayloadScoreQuery(Query):
    """queries/payloads/PayloadScoreQuery.java: matches the term's docs and
    scores each by an aggregate of the term's per-occurrence float payloads
    in that doc — ``func`` ∈ min|max|sum|avg (MinPayloadFunction /
    MaxPayloadFunction / SumPayloadFunction / AveragePayloadFunction) —
    multiplied by the wrapped query's score when ``include_span_score``
    (PayloadScoreQuery.java includeSpanScore). Requires an index built with
    ``store_payloads=True``."""

    term: str
    func: str = "sum"
    include_span_score: bool = False
    field: str | None = None

    def __str__(self):
        return f"payload({self.func}, {self.term})"


@dataclass(frozen=True)
class SynonymQuery(Query):
    """Multi-term scored as ONE pseudo-term: summed tf per doc, idf from the
    blended (max) docFreq (search/SynonymQuery.java:52-214)."""

    terms: tuple

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))


@dataclass(frozen=True)
class CombinedFieldQuery(Query):
    """BM25F-style combined-field scoring (sandbox/search/CombinedFieldQuery
    .java:84-91): treats the listed fields as one synthetic field. All
    (field, term) postings merge into ONE pseudo-term — per-doc
    freq = Σ_f w_f·freq(f,t), per-doc length = Σ_f w_f·dl_f, pseudo term
    stats df = max over pairs / ttf = Σ w_f·ttf (:295-305), pseudo
    collection stats docCount = max_f, sumTotalTermFreq = Σ w_f·sumTtf_f
    (:318-334); the norm sum mirrors MultiNormsLeafSimScorer's
    MultiFieldNormValues (exact lengths here instead of the re-encoded
    SmallFloat byte)."""

    terms: tuple
    fields: tuple  # ((field, weight), ...)

    def __init__(self, terms, fields):
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(
            self, "fields", tuple((str(f), float(w)) for f, w in fields)
        )


@dataclass(frozen=True)
class TermInSetQuery(Query):
    terms: tuple
    field: str | None = None

    def __init__(self, terms, field: str | None = None):
        object.__setattr__(self, "terms", tuple(sorted(set(terms))))
        object.__setattr__(self, "field", field)


@dataclass(frozen=True)
class MatchAllDocsQuery(Query):
    pass


@dataclass(frozen=True)
class MatchNoDocsQuery(Query):
    """Matches nothing (search/MatchNoDocsQuery.java) — e.g. what the simple
    parser returns for an empty query string."""

    reason: str = ""


@dataclass(frozen=True)
class JoinQuery(Query):
    """Query-time scored join (join/JoinUtil.createJoinQuery semantics):
    evaluate ``from_query``, project the matching docs' ``from_field``
    doc values with their scores aggregated per value (ScoreMode
    none/sum/max/avg), then match every doc whose ``to_field`` value is in
    that set, scoring it with the aggregated from-score."""

    from_query: Query
    from_field: str
    to_field: str
    score_mode: str = "avg"


@dataclass(frozen=True)
class SpanNearQuery(Query):
    """Proximity query with minimal-interval semantics (spans/SpanNearQuery
    .java:42 ordered/unordered; queries/.../intervals/IntervalQuery.java:59
    Intervals.ordered/unordered): matches docs where all terms occur within
    ``slop`` slack positions, optionally in order; freq = Σ 1/(1+width) over
    minimal intervals (SpanScorer sloppyFreq).

    Each element of ``terms`` is one of:
    - a single term (str);
    - a SLOT of alternatives — a tuple whose items are terms or expansion
      specs ``("prefix", p)`` / ``("wildcard", pat)`` (the SpanOr +
      SpanMultiTermQueryWrapper combination, used by the surround parser's
      distance operators): the slot's positions are the union of its
      expanded terms' positions;
    - a nested SpanNearQuery (spans inside spans, NearSpansOrdered with
      sub-span extents) — allowed only when THIS query is ordered."""

    terms: tuple
    slop: int = 0
    in_order: bool = False

    def __init__(self, terms, slop: int = 0, in_order: bool = False):
        object.__setattr__(
            self,
            "terms",
            tuple(
                t if isinstance(t, (str, SpanNearQuery)) else tuple(t)
                for t in terms
            ),
        )
        object.__setattr__(self, "slop", int(slop))
        object.__setattr__(self, "in_order", bool(in_order))


@dataclass(frozen=True)
class SpanPositionRangeQuery(Query):
    """Match spans whose positions lie entirely within [start, end)
    (spans/SpanPositionRangeQuery.java; SpanFirstQuery.java is the
    start=0 special case). ``match`` is a SpanNearQuery (a bare term wraps
    as a 1-slot span); freq = Σ 1/(1+slack) over qualifying minimal
    intervals, scored like SpanNear."""

    match: Query
    start: int = 0
    end: int = 2**31 - 1


def SpanFirstQuery(match: Query, end: int) -> SpanPositionRangeQuery:
    """spans/SpanFirstQuery.java — spans ending within the first ``end``
    positions."""
    return SpanPositionRangeQuery(match, 0, end)


@dataclass(frozen=True)
class SpanNotQuery(Query):
    """Spans of ``include`` that do NOT overlap a span of ``exclude``,
    with ``pre``/``post`` slack positions (spans/SpanNotQuery.java)."""

    include: Query
    exclude: Query
    pre: int = 0
    post: int = 0


@dataclass(frozen=True)
class IntervalQuery(Query):
    """Minimal-interval algebra query (queries/.../intervals/IntervalQuery
    .java:59): matches docs where ``source`` (built with the factories in
    functions/interval_algebra — term/phrase/ordered/unordered/or/maxgaps/
    containing/...) produces at least one interval. Score is similarity-
    independent: per-doc freq = Σ 1/max(extent - minExtent + 1, 1) over the
    emitted minimal intervals, passed through a saturation function
    ``boost * (1 - pivot/(pivot + freq))`` (IntervalScoreFunction.java), or
    a sigmoid when ``exp`` is set."""

    field: str | None
    source: object  # an interval_algebra.IvSource
    pivot: float = 1.0
    exp: float | None = None


@dataclass(frozen=True)
class ToParentBlockJoinQuery(Query):
    """Join child matches up to their parent doc (join/ToParentBlockJoinQuery
    .java:63): blocks are indexed children-first with the parent LAST;
    ``score_mode`` ∈ {none, sum, max, avg} aggregates child scores per parent
    (ScoreMode.{None,Total,Max,Avg})."""

    child_query: Query
    score_mode: str = "sum"


@dataclass(frozen=True)
class ToChildBlockJoinQuery(Query):
    """Join parent matches down to every child in the block
    (join/ToChildBlockJoinQuery.java): each child inherits its parent's
    score."""

    parent_query: Query


@dataclass(frozen=True)
class ConstantScoreQuery(Query):
    query: Query
    score: float = 1.0


@dataclass(frozen=True)
class BoostQuery(Query):
    query: Query
    boost: float


@dataclass(frozen=True)
class DisjunctionMaxQuery(Query):
    """max over sub-scores + tie_breaker * sum of the others
    (search/DisjunctionMaxQuery.java)."""

    disjuncts: tuple
    tie_breaker: float = 0.0

    def __init__(self, disjuncts, tie_breaker: float = 0.0):
        object.__setattr__(self, "disjuncts", tuple(disjuncts))
        object.__setattr__(self, "tie_breaker", float(tie_breaker))


@dataclass(frozen=True)
class FunctionScoreQuery(Query):
    """Rescore a sub-query with a user expression over (scores, doc-values)
    — the FunctionScoreQuery / expressions-module surface
    (queries/.../function/FunctionScoreQuery.java; expressions compile
    JS-like formulas against scores and doc values). Here the expression is
    a plain vectorized callable ``fn(scores: np.ndarray, doc_values:
    dict[str, np.ndarray]) -> np.ndarray`` — the Python-native user
    extension point."""

    query: Query
    fn: object = None

    def __init__(self, query, fn):
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "fn", fn)


@dataclass(frozen=True)
class BooleanQuery(Query):
    """must scored-AND, should scored-OR, must_not exclusion, filter =
    non-scoring must; minimum_should_match as in BooleanQuery.java."""

    must: tuple = ()
    should: tuple = ()
    must_not: tuple = ()
    filter: tuple = ()
    minimum_should_match: int = 0

    def __init__(self, must=(), should=(), must_not=(), filter=(), minimum_should_match=0):
        object.__setattr__(self, "must", tuple(must))
        object.__setattr__(self, "should", tuple(should))
        object.__setattr__(self, "must_not", tuple(must_not))
        object.__setattr__(self, "filter", tuple(filter))
        object.__setattr__(self, "minimum_should_match", int(minimum_should_match))
        n = len(self.must) + len(self.should) + len(self.must_not) + len(self.filter)
        if n > self.MAX_CLAUSE_COUNT:
            raise TooManyClauses(
                f"BooleanQuery with {n} clauses: more than MAX_CLAUSE_COUNT "
                f"({self.MAX_CLAUSE_COUNT})")

    MAX_CLAUSE_COUNT = 1024  # BooleanQuery.java maxClauseCount default


class TooManyClauses(ValueError):
    """A BooleanQuery over ``BooleanQuery.MAX_CLAUSE_COUNT`` clauses
    (IndexSearcher.TooManyClauses)."""


# --------------------------------------------------------------- parser


class QueryParseError(ValueError):
    """Malformed query string (the ParseException analogue)."""


class _Tok:
    def __init__(self, kind, value=None):
        self.kind = kind
        self.value = value

    def __repr__(self):
        return f"{self.kind}:{self.value}"


def _lex(s: str):
    """Tokenize the full classic syntax (queryparser/classic/QueryParser.jj):
    terms with ``\\``-escapes, ``field:`` prefixes, quoted phrases with
    ``~slop``/``^boost`` suffixes, ``[a TO b]`` / ``{a TO b}`` ranges,
    ``/regexp/`` terms, ``( )`` groups with trailing ``^boost``, the
    ``+ - ! && ||`` operators and the AND/OR/NOT keywords.

    WORD tokens carry a list of ``(char, escaped)`` pairs so the parser can
    distinguish ``foo\\*`` (literal star) from ``foo*`` (wildcard)."""
    i, n = 0, len(s)
    out = []

    def _number(j):
        """Scan an unsigned float at j; returns (value, next_index)."""
        k = j
        while k < n and (s[k].isdigit() or s[k] == "."):
            k += 1
        if k == j:
            return None, j
        try:
            return float(s[j:k]), k
        except ValueError:
            raise QueryParseError(f"bad number at offset {j} in query: {s!r}")

    def _suffixes(j):
        """Parse optional ``~[num]`` then ``^num`` starting at j (the order
        Lucene accepts after a phrase/range); returns (fuzz, boost, next)."""
        fuzz = boost = None
        if j < n and s[j] == "~":
            fuzz, j2 = _number(j + 1)
            if fuzz is None:
                fuzz = -1.0  # bare "~" = default
            j = j2 if fuzz != -1.0 else j + 1
        if j < n and s[j] == "^":
            boost, j = _number(j + 1)
            if boost is None:
                raise QueryParseError(f"expected number after ^ at {j} in {s!r}")
        return fuzz, boost, j

    while i < n:
        c = s[i]
        if c.isspace():
            i += 1
        elif c == "(":
            out.append(_Tok("LP")); i += 1
        elif c == ")":
            i += 1
            _, boost, i = _suffixes(i)
            out.append(_Tok("RP", boost))
        elif c == "+":
            out.append(_Tok("PLUS")); i += 1
        elif c == "-":
            out.append(_Tok("MINUS")); i += 1
        elif c == "!":
            out.append(_Tok("NOT")); i += 1
        elif c == "&" and i + 1 < n and s[i + 1] == "&":
            out.append(_Tok("AND")); i += 2
        elif c == "|" and i + 1 < n and s[i + 1] == "|":
            out.append(_Tok("OR")); i += 2
        elif c == '"':
            j = i + 1
            buf = []
            while j < n and s[j] != '"':
                if s[j] == "\\" and j + 1 < n:
                    buf.append(s[j + 1]); j += 2
                else:
                    buf.append(s[j]); j += 1
            if j >= n:
                raise QueryParseError(
                    f"unbalanced quote at offset {i} in query: {s!r}"
                )
            fuzz, boost, i = _suffixes(j + 1)
            out.append(_Tok("PHRASE", ("".join(buf), fuzz, boost)))
        elif c in "[{":
            incl_lo = c == "["
            j = s.find("]", i + 1)
            k = s.find("}", i + 1)
            end = min(x for x in (j, k) if x >= 0) if (j >= 0 or k >= 0) else -1
            if end < 0:
                raise QueryParseError(f"unterminated range at {i} in {s!r}")
            incl_hi = s[end] == "]"
            body = s[i + 1 : end]
            parts = body.split(" TO ")
            if len(parts) != 2:
                raise QueryParseError(f"range needs 'lo TO hi' at {i} in {s!r}")
            lo, hi = (p.strip().strip('"') or "*" for p in parts)
            _, boost, i = _suffixes(end + 1)
            out.append(_Tok("RANGE", (lo, hi, incl_lo, incl_hi, boost)))
        elif c == "/":
            j = i + 1
            buf = []
            while j < n and s[j] != "/":
                if s[j] == "\\" and j + 1 < n and s[j + 1] == "/":
                    buf.append("/"); j += 2
                else:
                    buf.append(s[j]); j += 1
            if j >= n:
                raise QueryParseError(f"unterminated regexp at {i} in {s!r}")
            _, boost, i = _suffixes(j + 1)
            out.append(_Tok("REGEX", ("".join(buf), boost)))
        else:
            # a term: chars up to whitespace / ( ) " with backslash escapes
            pairs = []  # (char, escaped)
            j = i
            while j < n and not s[j].isspace() and s[j] not in '()"':
                if s[j] == "\\" and j + 1 < n:
                    pairs.append((s[j + 1], True)); j += 2
                elif s[j] == ":" and j + 1 < n and s[j + 1] in '("[{/':
                    # field prefix attached to a grouped/phrase/range/regexp
                    # atom — close the word at the colon
                    pairs.append((":", False)); j += 1
                    break
                else:
                    pairs.append((s[j], False)); j += 1
            i = j
            word = "".join(ch for ch, _ in pairs)
            if word == "AND" and not pairs[0][1]:
                out.append(_Tok("AND"))
            elif word == "OR" and not pairs[0][1]:
                out.append(_Tok("OR"))
            elif word == "NOT" and not pairs[0][1]:
                out.append(_Tok("NOT"))
            else:
                # field: prefix directly attached to a ( " [ { / atom —
                # emit FIELD so the parser can scope the following atom
                ci = next(
                    (k for k, (ch, esc) in enumerate(pairs) if ch == ":" and not esc),
                    -1,
                )
                if ci >= 0 and ci == len(pairs) - 1 and i < n and s[i] in '("[{/':
                    out.append(_Tok("FIELD", word[:ci]))
                else:
                    out.append(_Tok("WORD", pairs))
    return out


class _Parser:
    """Recursive-descent parser over the classic grammar: OR < AND < clause
    runs with +/-/NOT modifiers < atoms (QueryParserBase.java). Field scope
    from ``field:`` prefixes and field-scoped groups ``title:(a b)``
    propagates to atoms that don't carry their own field."""

    def __init__(self, toks, normalize, default_field=None, numeric_fields=(),
                 multi_fields=None):
        self.toks = toks
        self.i = 0
        self.normalize = normalize
        self.numeric_fields = frozenset(numeric_fields)
        self.fields = [default_field]  # field-context stack
        # ((field, boost), ...) — MultiFieldQueryParser expansion for atoms
        # with no explicit field
        self.multi_fields = tuple(multi_fields) if multi_fields else None

    def _fielded(self, mk, fieldname):
        """Build ``mk(field)`` — expanded as a SHOULD-disjunction over
        ``multi_fields`` when the atom has no explicit/context field
        (queryparser/classic/MultiFieldQueryParser.java:98-118)."""
        if fieldname is not None or not self.multi_fields:
            return mk(fieldname)
        parts = []
        for f, w in self.multi_fields:
            sub = mk(f)
            parts.append(BoostQuery(sub, w) if w != 1.0 else sub)
        return parts[0] if len(parts) == 1 else BooleanQuery(should=parts)

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def parse(self) -> Query:
        q = self.parse_or()
        if self.peek() is not None:
            raise QueryParseError(f"unexpected trailing token {self.peek()}")
        return q

    def parse_or(self) -> Query:
        parts = [self.parse_and()]
        while self.peek() and self.peek().kind == "OR":
            self.next()
            parts.append(self.parse_and())
        if len(parts) == 1:
            return parts[0]
        q = BooleanQuery(should=parts)
        # marker (non-field attribute: equality/hashing unchanged) so
        # downstream rewrites (flexible parser's AND default operator) can
        # tell an EXPLICIT "a OR b" from implicit juxtaposition "a b" —
        # only the latter follows the default operator
        object.__setattr__(q, "_explicit_or", True)
        return q

    def parse_and(self) -> Query:
        parts = [self.parse_clause()]
        ops = []
        while self.peek() and self.peek().kind in ("AND", "NOT"):
            ops.append(self.next().kind)
            parts.append(self.parse_clause())
        if len(parts) == 1:
            return parts[0]
        must, must_not = [parts[0]], []
        for op, p in zip(ops, parts[1:]):
            (must_not if op == "NOT" else must).append(p)
        return BooleanQuery(must=must, must_not=must_not)

    def parse_clause(self) -> Query:
        # a space-separated run of atoms (classic default-OR with +/-/NOT
        # prefix modifiers)
        must, should, must_not = [], [], []
        while True:
            t = self.peek()
            if t is None or t.kind in ("AND", "OR", "RP"):
                break
            occur = "should"
            if t.kind == "PLUS":
                self.next(); occur = "must"
            elif t.kind == "MINUS":
                self.next(); occur = "must_not"
            elif t.kind == "NOT":
                if not (must or should or must_not):
                    self.next(); occur = "must_not"  # leading NOT / !
                else:
                    break  # binary NOT — let parse_and handle it
            q = self.parse_atom()
            {"must": must, "should": should, "must_not": must_not}[occur].append(q)
        if len(should) == 1 and not must and not must_not:
            return should[0]
        if len(must) == 1 and not should and not must_not:
            return must[0]
        if not (must or should or must_not):
            raise QueryParseError("empty clause")
        return BooleanQuery(must=must, should=should, must_not=must_not)

    # ------------------------------------------------------------- atoms

    def parse_atom(self) -> Query:
        t = self.next()
        if t.kind == "FIELD":
            self.fields.append(t.value)
            try:
                return self.parse_atom()
            finally:
                self.fields.pop()
        if t.kind == "LP":
            q = self.parse_or()
            boost = None
            if self.peek() and self.peek().kind == "RP":
                boost = self.next().value
            return BoostQuery(q, boost) if boost is not None else q
        if t.kind == "PHRASE":
            text, fuzz, boost = t.value
            terms = [self.normalize(w) for w in text.split()]
            slop = int(fuzz) if fuzz not in (None, -1.0) else 0
            mk = (
                (lambda f: TermQuery(terms[0], field=f))
                if len(terms) == 1
                else (lambda f: PhraseQuery(terms, slop=slop, field=f))
            )
            q: Query = self._fielded(mk, self.fields[-1])
            return BoostQuery(q, boost) if boost is not None else q
        if t.kind == "RANGE":
            lo, hi, incl_lo, incl_hi, boost = t.value
            fieldname = self.fields[-1]
            if fieldname in self.numeric_fields:
                q = NumericRangeQuery(
                    fieldname,
                    None if lo == "*" else float(lo),
                    None if hi == "*" else float(hi),
                    incl_lo,
                    incl_hi,
                )
            else:
                q = self._fielded(
                    lambda f: TermRangeQuery(
                        None if lo == "*" else self.normalize(lo),
                        None if hi == "*" else self.normalize(hi),
                        incl_lo,
                        incl_hi,
                        field=f,
                    ),
                    fieldname,
                )
            return BoostQuery(q, boost) if boost is not None else q
        if t.kind == "REGEX":
            pattern, boost = t.value
            q = self._fielded(
                lambda f: RegexpQuery(pattern, field=f), self.fields[-1]
            )
            return BoostQuery(q, boost) if boost is not None else q
        if t.kind == "WORD":
            return self._word_query(t.value)
        raise QueryParseError(f"unexpected token {t}")

    def _word_query(self, pairs) -> Query:
        """Build the query for one bare term, handling ``field:term``,
        ``term~[edits]``, ``term^boost``, embedded ``*``/``?`` wildcards
        and the ``*:*`` match-all idiom. Escaped chars are always literal."""
        fieldname = self.fields[-1]
        ci = next(
            (k for k, (ch, esc) in enumerate(pairs) if ch == ":" and not esc), -1
        )
        if ci >= 0:
            fieldname = "".join(ch for ch, _ in pairs[:ci]) or None
            pairs = pairs[ci + 1 :]
            if not pairs:
                raise QueryParseError(f"missing term after field '{fieldname}:'")
        # trailing ^boost
        boost = None
        bi = next(
            (k for k in range(len(pairs) - 1, -1, -1)
             if pairs[k][0] == "^" and not pairs[k][1]),
            -1,
        )
        if bi >= 0:
            try:
                boost = float("".join(ch for ch, _ in pairs[bi + 1 :]))
            except ValueError:
                raise QueryParseError("expected number after ^")
            pairs = pairs[:bi]
        # trailing ~[edits]
        max_edits = None
        ti = next(
            (k for k in range(len(pairs) - 1, -1, -1)
             if pairs[k][0] == "~" and not pairs[k][1]),
            -1,
        )
        if ti >= 0 and all(
            ch.isdigit() or ch == "." for ch, _ in pairs[ti + 1 :]
        ):
            suffix = "".join(ch for ch, _ in pairs[ti + 1 :])
            max_edits = min(int(float(suffix)), 2) if suffix else 2
            pairs = pairs[:ti]
        if not pairs:
            raise QueryParseError("empty term")
        text = "".join(ch for ch, _ in pairs)
        wild = [k for k, (ch, esc) in enumerate(pairs) if ch in "*?" and not esc]
        if fieldname == "*" and text == "*" and len(wild) == 1:
            return MatchAllDocsQuery()
        if max_edits is not None:
            me = max_edits
            mk = lambda f: FuzzyQuery(self.normalize(text), max_edits=me, field=f)
        elif len(wild) == 1 and wild[0] == len(pairs) - 1 and pairs[-1][0] == "*" and len(pairs) > 1:
            mk = lambda f: PrefixQuery(self.normalize(text[:-1]), field=f)
        elif wild:
            # lowercase (not stem) expanded terms, preserving \-escapes for
            # literal * / ? — QueryParserBase setLowercaseExpandedTerms
            pat = "".join(
                ("\\" + ch if esc and ch in "*?\\" else ch.lower())
                for ch, esc in pairs
            )
            mk = lambda f: WildcardQuery(pat, field=f)
        else:
            mk = lambda f: TermQuery(self.normalize(text), field=f)
        q = self._fielded(mk, fieldname)
        return BoostQuery(q, boost) if boost is not None else q


def parse_query(
    s: str,
    normalize=None,
    default_field: str | None = None,
    numeric_fields=(),
) -> Query:
    """Parse the classic query syntax (queryparser/classic/QueryParser.jj):
    terms, ``field:term``, quoted phrases with ``~slop``, ``term~edits``
    fuzzies, ``[lo TO hi]`` / ``{lo TO hi}`` ranges, ``*``/``?`` wildcards,
    ``/regexp/`` terms, ``^boost`` on any atom or group, ``+ - ! && ||``
    operators, AND/OR/NOT keywords, field-scoped groups ``title:(a b)`` and
    ``*:*``. ``normalize`` defaults to lowercase (the reference applies the
    analyzer's normalize chain to query terms, StandardAnalyzer.java:98-101);
    fields listed in ``numeric_fields`` turn range syntax into
    NumericRangeQuery (the points-config analogue of
    StandardQueryParser.setPointsConfigMap)."""
    normalize = normalize or (lambda w: w.lower())
    toks = _lex(s)
    if not toks:
        return MatchAllDocsQuery()
    return _Parser(toks, normalize, default_field, numeric_fields).parse()


def parse_multi_field_query(
    s: str,
    fields,
    boosts: dict | None = None,
    normalize=None,
    numeric_fields=(),
) -> Query:
    """MultiFieldQueryParser (queryparser/classic/MultiFieldQueryParser
    .java): classic syntax where every atom WITHOUT an explicit ``field:``
    prefix expands to a SHOULD-disjunction over ``fields`` (optionally
    boosted per field) — expansion happens per atom, so ``+term`` means
    "term in at least one of the fields", exactly as in the reference."""
    normalize = normalize or (lambda w: w.lower())
    toks = _lex(s)
    if not toks:
        return MatchAllDocsQuery()
    boosts = boosts or {}
    mf = tuple((f, float(boosts.get(f, 1.0))) for f in fields)
    return _Parser(toks, normalize, None, numeric_fields, multi_fields=mf).parse()


def _phrase_slot_spec(word: str, normalize):
    """Classify one in-phrase token into a ComplexPhraseQuery atom spec."""
    if "~" in word:
        base, _, suf = word.rpartition("~")
        if base and all(c.isdigit() or c == "." for c in suf):
            edits = min(int(float(suf)), 2) if suf else 2
            return ("fuzzy", normalize(base), edits)
    if word.endswith("*") and len(word) > 1 and "*" not in word[:-1] and "?" not in word[:-1]:
        return ("prefix", normalize(word[:-1]))
    if "*" in word or "?" in word:
        return ("wildcard", word.lower())
    return ("term", normalize(word))


def parse_complex_phrase_query(
    s: str,
    normalize=None,
    default_field: str | None = None,
    numeric_fields=(),
) -> Query:
    """ComplexPhraseQueryParser (queryparser/complexPhrase/
    ComplexPhraseQueryParser.java): classic syntax where QUOTED PHRASES may
    embed wildcards, prefixes, fuzzies and parenthesized alternatives —
    ``"(john jon) smith*"~2`` matches john|jon followed within slop 2 by any
    smith-prefixed term. Phrases without embedded syntax parse exactly as in
    ``parse_query``; everything outside phrases is the classic grammar."""
    normalize = normalize or (lambda w: w.lower())
    toks = _lex(s)
    if not toks:
        return MatchAllDocsQuery()

    class _CPParser(_Parser):
        def parse_atom(self) -> Query:
            t = self.peek()
            if t is not None and t.kind == "PHRASE" and any(
                c in t.value[0] for c in "*?~("
            ):
                self.next()
                text, fuzz, boost = t.value
                slop = int(fuzz) if fuzz not in (None, -1.0) else 0
                slots = []
                i, n = 0, len(text)
                while i < n:
                    c = text[i]
                    if c.isspace():
                        i += 1
                    elif c == "(":
                        j = text.find(")", i + 1)
                        if j < 0:
                            raise QueryParseError(
                                f"unbalanced ( inside phrase: {text!r}")
                        slots.append(tuple(
                            _phrase_slot_spec(w, self.normalize)
                            for w in text[i + 1 : j].split()
                        ))
                        i = j + 1
                    else:
                        j = i
                        while j < n and not text[j].isspace() and text[j] != "(":
                            j += 1
                        slots.append((_phrase_slot_spec(text[i:j], self.normalize),))
                        i = j
                slots = [sl for sl in slots if sl]
                if not slots:
                    raise QueryParseError(f"empty phrase: {text!r}")
                q: Query = ComplexPhraseQuery(
                    slots, slop=slop, field=self.fields[-1])
                return BoostQuery(q, boost) if boost is not None else q
            return super().parse_atom()

    return _CPParser(toks, normalize, default_field, numeric_fields).parse()


def parse_simple_query(
    s: str,
    normalize=None,
    fields=None,
    boosts: dict | None = None,
    default_operator: str = "should",
) -> Query:
    """SimpleQueryParser (queryparser/simple/SimpleQueryParser.java): a
    lenient human-syntax parser that NEVER raises — syntax errors degrade to
    the nearest sensible interpretation. Operators: ``+`` AND, ``|`` OR,
    ``-`` NOT (prefix, doubles cancel), ``"..."`` phrase (``~N`` near),
    ``term*`` prefix, ``term~N`` fuzzy, ``( )`` precedence, ``\\`` escape.
    Unmatched ``(`` / ``"`` are treated as literal/extraneous, exactly like
    the reference. Precedence is right-to-left via operation-change
    re-wrapping (buildQueryTree). ``fields``/``boosts`` expand every token
    over multiple fields (the weights map of the reference ctor)."""
    normalize = normalize or (lambda w: w.lower())
    boosts = boosts or {}
    mf = tuple((f, float(boosts.get(f, 1.0))) for f in (fields or (None,)))

    def fielded(mk):
        parts = []
        for f, w in mf:
            sub = mk(f)
            parts.append(BoostQuery(sub, w) if w != 1.0 else sub)
        return parts[0] if len(parts) == 1 else BooleanQuery(should=parts)

    OCCUR_DEFAULT = "must" if default_operator in ("must", "and") else "should"

    class _St:
        __slots__ = ("data", "i", "n", "top", "cur_op", "prev_op", "neg")

        def __init__(self, data, i, n):
            self.data, self.i, self.n = data, i, n
            self.top = None
            self.cur_op = None   # pending explicit operator
            self.prev_op = None  # occur of the current top-level BooleanQuery
            self.neg = 0

    def add_clause(top, occur, branch):
        """top is a BooleanQuery whose clauses all share ``occur``."""
        if occur == "must":
            return BooleanQuery(must=(*top.must, branch), should=top.should,
                                must_not=top.must_not)
        return BooleanQuery(must=top.must, should=(*top.should, branch),
                            must_not=top.must_not)

    def build(st, branch):
        if branch is None:
            return
        if st.neg % 2 == 1:
            branch = BooleanQuery(should=[MatchAllDocsQuery()], must_not=[branch])
        if st.top is None:
            st.top = branch
        else:
            op = st.cur_op if st.cur_op is not None else OCCUR_DEFAULT
            if st.prev_op != op:
                st.top = BooleanQuery(**{op: [st.top]})
            st.top = add_clause(st.top, op, branch)
            st.prev_op = op
        st.cur_op = None

    def fuzziness(st):
        """Digits after ``~``; bare ``~`` = 2; garbage/negative = 0."""
        buf = []
        while st.i < st.n and not _sq_token_end(st.data[st.i]):
            buf.append(st.data[st.i]); st.i += 1
        txt = "".join(buf)
        if txt == "":
            return 2
        try:
            return max(0, int(txt))
        except ValueError:
            return 0

    def _sq_token_end(c):
        return c in ' \t\n\r"|+()'

    def consume_token(st):
        buf = []
        esc = False
        prefix = False
        fuzzy = False
        while st.i < st.n:
            c = st.data[st.i]
            if not esc:
                if c == "\\":
                    esc = True; prefix = False; st.i += 1
                    continue
                if _sq_token_end(c):
                    break
                if buf and c == "~":
                    fuzzy = True
                    break
                prefix = bool(buf) and c == "*"
            buf.append(c)
            esc = False
            st.i += 1
        if not buf:
            return
        if fuzzy:
            st.i += 1  # past '~'
            fz = fuzziness(st)
            tok = "".join(buf)
            if fz == 0:
                branch = fielded(lambda f: TermQuery(normalize(tok), field=f))
            else:
                me = min(fz, 2)
                branch = fielded(
                    lambda f: FuzzyQuery(normalize(tok), max_edits=me, field=f)
                )
        elif prefix:
            tok = "".join(buf[:-1])
            branch = fielded(lambda f: PrefixQuery(normalize(tok), field=f))
        else:
            tok = "".join(buf)
            branch = fielded(lambda f: TermQuery(normalize(tok), field=f))
        build(st, branch)

    def consume_phrase(st):
        start = st.i + 1
        st.i += 1
        buf = []
        esc = False
        closed = False
        has_slop = False
        while st.i < st.n:
            c = st.data[st.i]
            if not esc:
                if c == "\\":
                    esc = True; st.i += 1
                    continue
                if c == '"':
                    closed = True
                    if st.i + 1 < st.n and st.data[st.i + 1] == "~":
                        st.i += 1
                        has_slop = st.i + 1 < st.n
                    break
            buf.append(c)
            esc = False
            st.i += 1
        if not closed:
            st.i = start  # unmatched quote: treat the quote as extraneous
            return
        if not buf:
            st.cur_op = None
            st.i += 1
            return
        slop = 0
        if has_slop:
            st.i += 1  # past '~'
            slop = fuzziness(st)
        else:
            st.i += 1  # past closing quote
        terms = [normalize(w) for w in "".join(buf).split()]
        if not terms:
            st.cur_op = None
            return
        if len(terms) == 1:
            branch = fielded(lambda f: TermQuery(terms[0], field=f))
        else:
            branch = fielded(lambda f: PhraseQuery(terms, slop=slop, field=f))
        build(st, branch)

    def consume_group(st):
        start = st.i + 1
        st.i += 1
        depth = 1
        esc = False
        while st.i < st.n:
            c = st.data[st.i]
            if not esc:
                if c == "\\":
                    esc = True; st.i += 1
                    continue
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                    if depth == 0:
                        break
            esc = False
            st.i += 1
        if st.i >= st.n:
            st.i = start  # unmatched '(': extraneous
            return
        if st.i == start:
            st.cur_op = None  # empty '()'
            st.i += 1
            return
        sub = _St(st.data, start, st.i)
        parse_sub(sub)
        st.i += 1
        build(st, sub.top)

    def parse_sub(st):
        while st.i < st.n:
            c = st.data[st.i]
            if c == "(":
                consume_group(st)
            elif c == ")":
                st.i += 1  # extraneous
            elif c == '"':
                consume_phrase(st)
            elif c == "+":
                if st.cur_op is None and st.top is not None:
                    st.cur_op = "must"
                st.i += 1
            elif c == "|":
                if st.cur_op is None and st.top is not None:
                    st.cur_op = "should"
                st.i += 1
            elif c == "-":
                st.neg += 1
                st.i += 1
                continue  # keep the pending negation across this char only
            elif c in " \t\n\r":
                st.i += 1
            else:
                consume_token(st)
            st.neg = 0

    st = _St(s, 0, len(s))
    parse_sub(st)
    return st.top if st.top is not None else MatchNoDocsQuery("empty query")


def extract_terms(q: Query) -> set[str]:
    """All positively-scored terms in a query tree (for stats gathering)."""
    if isinstance(q, TermQuery):
        return {q.term}
    if isinstance(q, PhraseQuery):
        return set(q.terms)
    if isinstance(q, (TermInSetQuery, SynonymQuery)):
        return set(q.terms)
    if isinstance(q, (BoostQuery, ConstantScoreQuery)):
        return extract_terms(q.query)
    if isinstance(q, DisjunctionMaxQuery):
        return set().union(*[extract_terms(d) for d in q.disjuncts]) if q.disjuncts else set()
    if isinstance(q, BooleanQuery):
        out: set[str] = set()
        for sub in (*q.must, *q.should, *q.filter, *q.must_not):
            out |= extract_terms(sub)
        return out
    return set()
