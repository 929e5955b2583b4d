"""The Intervals query algebra — Lucene's ``queries/intervals`` module
re-expressed as per-document kernels over sorted position arrays.

Reference anchors (semantics, not code):
  - queries/.../intervals/Intervals.java (the factory surface: term, phrase,
    ordered, unordered, or, maxgaps, maxwidth, containing, containedBy,
    notContaining, notContainedBy, nonOverlapping, overlapping, extend,
    before, after, within, atLeast, prefix, wildcard)
  - OrderedIntervalsSource.java:120 (lazy-minimized ordered chains; adjacent
    duplicate sub-sources collapse into RepeatingIntervalsSource)
  - UnorderedIntervalsSource.java:95 (queue sweep; equal sub-sources dedup
    into RepeatingIntervalsSource by count)
  - RepeatingIntervalsSource.java (sliding window of `count` consecutive
    sub-intervals; width() = sum of component extents, so gaps() counts the
    holes between the repeats)
  - DisjunctionIntervalsSource.java:190 (emit in (end asc, start desc) order,
    suppressing any interval that contains an already-emitted one)
  - IntervalQuery.java / IntervalScorer.java (two-phase doc match; per-doc
    freq = sum 1/max(extent - minExtent + 1, 1); saturation score
    w * (1 - pivot/(pivot + freq)), float32)
  - Conformance fixtures: queries/src/test/.../intervals/TestIntervals.java

Every source evaluates per document: ``intervals(env)`` takes a dict of
term -> sorted int64 numpy positions and returns the emitted interval list
as tuples ``(start, end, width, gaps)`` sorted by start, where ``width`` is
what the node reports to its parent (extent for everything except Repeat)
and ``gaps`` is the node's own gap count (for the maxgaps filter).

The emitted set of every combinator is MINIMAL (Clarke–Cormack–Burkowski):
no emitted interval strictly contains another. Documents are small relative
to the corpus, so these kernels run on the docID-conjunction candidates
inside the per-segment search actors — the distribution story is identical
to PhraseQuery's.

The span family is expressed in the same algebra, so IntervalQuery and the
span queries share one engine and one two-phase loop in the searcher:
SpanNearQuery is ``IvSpanNear`` over IvTerm / IvSpanOr slots (nested spans
are slots), SpanFirstQuery / SpanPositionRangeQuery is ``IvPositionRange``, and
SpanNotQuery is ``non_overlapping(include, extend(exclude, post, pre))``.
Spans keep their own scoring: BM25 over freq = Σ 1/(1 + gaps).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

import numpy as np

MAX_EXPANSIONS = 128  # Intervals.java DEFAULT_MAX_EXPANSIONS


# An interval is (start, end, width, gaps).


def _minimal(cands: list[tuple[int, int, int, int]]) -> list[tuple[int, int, int, int]]:
    """Keep intervals that do not contain another candidate (the disjunction
    iterator's suppression rule, which is also what the lazy conjunction
    iterators guarantee): process in (end asc, start desc) order, keeping a
    candidate iff no kept interval starts at or after it (kept ends are
    non-decreasing, so that is exactly the nesting test). Duplicates keep
    the first-emitted payload."""
    out: list[tuple[int, int, int, int]] = []
    max_start = -1
    for iv in sorted(cands, key=lambda t: (t[1], -t[0])):
        if iv[0] > max_start:
            out.append(iv)
            max_start = iv[0]
    out.sort(key=lambda t: t[0])
    return out


class IvSource:
    """Base class for interval sources (IntervalsSource analogue)."""

    def intervals(self, env: dict[str, np.ndarray]) -> list[tuple[int, int, int, int]]:
        raise NotImplementedError

    def min_extent(self) -> int:
        raise NotImplementedError

    def leaf_terms(self) -> set[str]:
        raise NotImplementedError

    def doc_plan(self):
        """('and'|'or'|'first', [children]) — how to build the candidate
        docID set: intersect children, union children, or take only the
        first child (negative filters never shrink the positive side)."""
        raise NotImplementedError


@dataclass(frozen=True)
class IvTerm(IvSource):
    """A single term's positions. ``field`` is None for the query's default
    field; Intervals.fixField sets it (FixedFieldIntervalsSource). The env
    is keyed by (field, term)."""

    term: str
    field: str | None = None

    def intervals(self, env):
        pos = env.get((self.field, self.term))
        if pos is None or not len(pos):
            return []
        return [(int(p), int(p), 1, 0) for p in pos.tolist()]

    def min_extent(self):
        return 1

    def leaf_terms(self):
        return {(self.field, self.term)}

    def doc_plan(self):
        return ("and", [self])


def _chain(sub_lists, adjacent: bool):
    """Ordered / Block chaining: for each first-clause interval, greedily
    chain each later clause to its first interval starting after (Ordered)
    or exactly at prev_end + 1 (Block); minimality filter afterwards."""
    cand = []
    starts = [[iv[0] for iv in L] for L in sub_lists]
    by_start = [{iv[0]: iv for iv in L} for L in sub_lists] if adjacent else None
    for f in sub_lists[0]:
        prev_end = f[1]
        wsum = f[2]
        ok = True
        for k in range(1, len(sub_lists)):
            if adjacent:
                iv = by_start[k].get(prev_end + 1)
                if iv is None:
                    ok = False
                    break
            else:
                j = bisect_right(starts[k], prev_end)
                if j >= len(sub_lists[k]):
                    ok = False
                    break
                iv = sub_lists[k][j]
            prev_end = iv[1]
            wsum += iv[2]
        if ok:
            ext = prev_end - f[0] + 1
            cand.append((f[0], prev_end, ext, ext - wsum))
    return _minimal(cand)


def _sweep_unordered(sub_lists):
    """UnorderedIntervalIterator sweep: frontier of one interval per clause;
    candidate window spans min start .. max end; advance the min-start
    clause; minimality filter afterwards. Overlapping sub-intervals are
    allowed (gaps can go negative, as in the reference)."""
    n = len(sub_lists)
    idx = [0] * n
    cand = []
    while True:
        cur = [sub_lists[k][idx[k]] for k in range(n)]
        s = min(iv[0] for iv in cur)
        e = max(iv[1] for iv in cur)
        ext = e - s + 1
        cand.append((s, e, ext, ext - sum(iv[2] for iv in cur)))
        k_min = min(range(n), key=lambda k: cur[k][0])
        idx[k_min] += 1
        if idx[k_min] >= len(sub_lists[k_min]):
            break
    return _minimal(cand)


def _repeat(inner, r: int):
    """Sliding windows of `r` consecutive intervals of `inner`; width is the
    sum of the component extents, so gaps count the holes between them."""
    if len(inner) < r:
        return []
    out = []
    ext_sum = sum(iv[1] - iv[0] + 1 for iv in inner[:r])
    for i in range(len(inner) - r + 1):
        s = inner[i][0]
        e = inner[i + r - 1][1]
        out.append((s, e, ext_sum, (e - s + 1) - ext_sum))
        if i + r < len(inner):
            ext_sum += inner[i + r][1] - inner[i + r][0] + 1
            ext_sum -= inner[i][1] - inner[i][0] + 1
    return out


@dataclass(frozen=True)
class IvRepeat(IvSource):
    """RepeatingIntervalsSource: sliding window of `count` consecutive
    emissions of `sub`. width() = sum of component extents (overridden in
    the reference), so a parent's gaps see through to the holes."""

    sub: IvSource
    count: int

    def intervals(self, env):
        return _repeat(self.sub.intervals(env), self.count)

    def min_extent(self):
        return self.count * self.sub.min_extent()

    def leaf_terms(self):
        return self.sub.leaf_terms()

    def doc_plan(self):
        return ("and", [self.sub])


def _dedup_adjacent(subs: tuple[IvSource, ...]) -> tuple[IvSource, ...]:
    """OrderedIntervalsSource.deduplicate: runs of equal sources collapse."""
    out: list[IvSource] = []
    i = 0
    while i < len(subs):
        j = i
        while j < len(subs) and subs[j] == subs[i]:
            j += 1
        out.append(subs[i] if j - i == 1 else IvRepeat(subs[i], j - i))
        i = j
    return tuple(out)


def _dedup_counts(subs: tuple[IvSource, ...]) -> tuple[IvSource, ...]:
    """UnorderedIntervalsSource.deduplicate: count equal sources anywhere."""
    counts: dict[IvSource, int] = {}
    order: list[IvSource] = []
    for s in subs:
        if s not in counts:
            order.append(s)
        counts[s] = counts.get(s, 0) + 1
    return tuple(s if counts[s] == 1 else IvRepeat(s, counts[s]) for s in order)


@dataclass(frozen=True)
class IvOrdered(IvSource):
    subs: tuple[IvSource, ...]

    def __post_init__(self):
        object.__setattr__(self, "subs", _dedup_adjacent(self.subs))

    def intervals(self, env):
        lists = [s.intervals(env) for s in self.subs]
        if any(not L for L in lists):
            return []
        if len(lists) == 1:
            return lists[0]
        return _chain(lists, adjacent=False)

    def min_extent(self):
        return sum(s.min_extent() for s in self.subs)

    def leaf_terms(self):
        return set().union(*(s.leaf_terms() for s in self.subs))

    def doc_plan(self):
        return ("and", list(self.subs))


@dataclass(frozen=True)
class IvBlock(IvSource):
    """BlockIntervalsSource (Intervals.phrase): exactly adjacent subs."""

    subs: tuple[IvSource, ...]

    def intervals(self, env):
        lists = [s.intervals(env) for s in self.subs]
        if any(not L for L in lists):
            return []
        if len(lists) == 1:
            return lists[0]
        return _chain(lists, adjacent=True)

    def min_extent(self):
        return sum(s.min_extent() for s in self.subs)

    def leaf_terms(self):
        return set().union(*(s.leaf_terms() for s in self.subs))

    def doc_plan(self):
        return ("and", list(self.subs))


@dataclass(frozen=True)
class IvUnordered(IvSource):
    subs: tuple[IvSource, ...]

    def __post_init__(self):
        object.__setattr__(self, "subs", _dedup_counts(self.subs))

    def intervals(self, env):
        lists = [s.intervals(env) for s in self.subs]
        if any(not L for L in lists):
            return []
        if len(lists) == 1:
            return lists[0]
        return _sweep_unordered(lists)

    def min_extent(self):
        return sum(s.min_extent() for s in self.subs)

    def leaf_terms(self):
        return set().union(*(s.leaf_terms() for s in self.subs))

    def doc_plan(self):
        return ("and", list(self.subs))


@dataclass(frozen=True)
class IvOr(IvSource):
    subs: tuple[IvSource, ...]

    def intervals(self, env):
        cand = [iv for s in self.subs for iv in s.intervals(env)]
        return _minimal(cand)

    def min_extent(self):
        return min(s.min_extent() for s in self.subs)

    def leaf_terms(self):
        return set().union(*(s.leaf_terms() for s in self.subs))

    def doc_plan(self):
        return ("or", list(self.subs))


@dataclass(frozen=True)
class IvAtLeast(IvSource):
    """MinimumShouldMatchIntervalsSource: minimal windows containing
    intervals from at least `m` distinct sub-sources (union over all
    m-subsets of the unordered sweep, then one global minimality pass)."""

    subs: tuple[IvSource, ...]
    m: int

    def intervals(self, env):
        lists = [s.intervals(env) for s in self.subs]
        nonempty = [L for L in lists if L]
        if len(nonempty) < self.m:
            return []
        cand = []
        for combo in combinations(nonempty, self.m):
            cand.extend(
                combo[0] if self.m == 1 else _sweep_unordered(list(combo))
            )
        return _minimal(cand)

    def min_extent(self):
        return sum(sorted(s.min_extent() for s in self.subs)[: self.m])

    def leaf_terms(self):
        return set().union(*(s.leaf_terms() for s in self.subs))

    def doc_plan(self):
        return ("or", list(self.subs))


@dataclass(frozen=True)
class IvMaxGaps(IvSource):
    sub: IvSource
    gaps: int

    def intervals(self, env):
        return [iv for iv in self.sub.intervals(env) if iv[3] <= self.gaps]

    def min_extent(self):
        return self.sub.min_extent()

    def leaf_terms(self):
        return self.sub.leaf_terms()

    def doc_plan(self):
        return ("and", [self.sub])


@dataclass(frozen=True)
class IvMaxWidth(IvSource):
    sub: IvSource
    width: int

    def intervals(self, env):
        return [iv for iv in self.sub.intervals(env) if iv[1] - iv[0] + 1 <= self.width]

    def min_extent(self):
        return self.sub.min_extent()

    def leaf_terms(self):
        return self.sub.leaf_terms()

    def doc_plan(self):
        return ("and", [self.sub])


@dataclass(frozen=True)
class IvExtend(IvSource):
    """ExtendedIntervalsSource: widen each interval by `before`/`after`
    positions (clamped at 0); gaps delegate to the inner interval."""

    sub: IvSource
    before: int
    after: int

    def intervals(self, env):
        out = []
        for s, e, w, g in self.sub.intervals(env):
            ns = max(0, s - self.before)
            ne = e + self.after
            out.append((ns, ne, ne - ns + 1, g))
        return out

    def min_extent(self):
        return self.before + self.sub.min_extent() + self.after

    def leaf_terms(self):
        return self.sub.leaf_terms()

    def doc_plan(self):
        return ("and", [self.sub])


@dataclass(frozen=True)
class IvSpanOr(IvSource):
    """SpanOrQuery over terms: every sub-interval in start order, with no
    minimization (IvOr keeps one of two equal intervals; SpanOr emits both,
    e.g. two terms a word-delimiter filter put at one position)."""

    subs: tuple[IvSource, ...]

    def intervals(self, env):
        return sorted(iv for s in self.subs for iv in s.intervals(env))

    def min_extent(self):
        return min(s.min_extent() for s in self.subs)

    def leaf_terms(self):
        return set().union(*(s.leaf_terms() for s in self.subs))

    def doc_plan(self):
        return ("or", list(self.subs))


@dataclass(frozen=True)
class IvSpanNear(IvSource):
    """SpanNearQuery (spans/NearSpansOrdered, NearSpansUnordered) over slot
    sources (IvTerm, IvSpanOr); nested spans are slots too.

    Ordered: ``_chain`` links each slot to the first interval of the next
    that starts after its end, so chained sub-spans never overlap. Equal
    adjacent slots are not collapsed into an IvRepeat, whose sliding window
    would also pair overlapping sub-spans. Unordered: slots whose intervals
    in this document are identical form a repeat group of ``_repeat``
    windows, so one occurrence cannot fill two slots; the groups then go
    through ``_sweep_unordered``.

    Intervals with more than ``slop`` gaps are dropped. The emitted width is
    the extent, so a parent span chains this one as a single extent. The
    emitted gaps are the span slack, clamped at 0 and always 0 for one slot;
    SpanScorer's freq is Σ 1/(1 + gaps)."""

    subs: tuple[IvSource, ...]
    slop: int
    in_order: bool

    def intervals(self, env):
        lists = [s.intervals(env) for s in self.subs]
        if any(not L for L in lists):
            return []
        if self.in_order:
            if len(lists) == 1:
                ivs = [(s, e, w, 0) for s, e, w, _ in lists[0]]
            else:
                ivs = _chain(lists, adjacent=False)
        else:
            groups: list[list] = []
            counts: list[int] = []
            for L in lists:
                if L in groups:
                    counts[groups.index(L)] += 1
                else:
                    groups.append(L)
                    counts.append(1)
            windows = [_repeat(L, c) for L, c in zip(groups, counts)]
            if any(not w for w in windows):
                return []
            ivs = _sweep_unordered(windows)
        return [(s, e, e - s + 1, max(0, g)) for s, e, _, g in ivs if g <= self.slop]

    def min_extent(self):
        return sum(s.min_extent() for s in self.subs)

    def leaf_terms(self):
        return set().union(*(s.leaf_terms() for s in self.subs))

    def doc_plan(self):
        return ("and", list(self.subs))


@dataclass(frozen=True)
class IvPositionRange(IvSource):
    """SpanPositionRangeQuery / SpanFirstQuery: intervals lying wholly in
    [start, end), i.e. ``start <= s`` and ``e < end`` (the reference tests
    ``spans.end <= end`` with an exclusive span end, one past ``e``)."""

    sub: IvSource
    start: int
    end: int

    def intervals(self, env):
        return [iv for iv in self.sub.intervals(env)
                if iv[0] >= self.start and iv[1] < self.end]

    def min_extent(self):
        return self.sub.min_extent()

    def leaf_terms(self):
        return self.sub.leaf_terms()

    def doc_plan(self):
        return ("and", [self.sub])


def _has_contained(big_iv, small, small_starts, small_sufmin_end):
    """True iff some interval of `small` is nested inside big_iv."""
    j = int(np.searchsorted(small_starts, big_iv[0], side="left"))
    return j < len(small_starts) and small_sufmin_end[j] <= big_iv[1]


def _containment_aux(small):
    starts = np.asarray([iv[0] for iv in small], dtype=np.int64)
    ends = np.asarray([iv[1] for iv in small], dtype=np.int64)
    sufmin = np.minimum.accumulate(ends[::-1])[::-1] if len(ends) else ends
    return starts, sufmin


@dataclass(frozen=True)
class IvContaining(IvSource):
    """big intervals that contain at least one small interval (negate=True
    flips to notContaining)."""

    big: IvSource
    small: IvSource
    negate: bool = False

    def intervals(self, env):
        big = self.big.intervals(env)
        if not big:
            return []
        small = self.small.intervals(env)
        if not small:
            return big if self.negate else []
        starts, sufmin = _containment_aux(small)
        return [
            iv
            for iv in big
            if _has_contained(iv, small, starts, sufmin) != self.negate
        ]

    def min_extent(self):
        return self.big.min_extent()

    def leaf_terms(self):
        return self.big.leaf_terms() | self.small.leaf_terms()

    def doc_plan(self):
        if self.negate:
            return ("first", [self.big, self.small])
        return ("and", [self.big, self.small])


@dataclass(frozen=True)
class IvContainedBy(IvSource):
    """small intervals nested inside at least one big interval (negate=True
    flips to notContainedBy)."""

    small: IvSource
    big: IvSource
    negate: bool = False

    def intervals(self, env):
        small = self.small.intervals(env)
        if not small:
            return []
        big = self.big.intervals(env)
        if not big:
            return small if self.negate else []
        bstarts = np.asarray([iv[0] for iv in big], dtype=np.int64)
        bends = np.asarray([iv[1] for iv in big], dtype=np.int64)
        premax = np.maximum.accumulate(bends)
        out = []
        for iv in small:
            j = int(np.searchsorted(bstarts, iv[0], side="right")) - 1
            inside = j >= 0 and premax[j] >= iv[1]
            if inside != self.negate:
                out.append(iv)
        return out

    def min_extent(self):
        return self.small.min_extent()

    def leaf_terms(self):
        return self.small.leaf_terms() | self.big.leaf_terms()

    def doc_plan(self):
        if self.negate:
            return ("first", [self.small, self.big])
        return ("and", [self.small, self.big])


@dataclass(frozen=True)
class IvOverlapping(IvSource):
    """source intervals overlapping (negate=False) / not overlapping
    (negate=True: NonOverlappingIntervalsSource) any reference interval."""

    source: IvSource
    reference: IvSource
    negate: bool = False

    def intervals(self, env):
        src = self.source.intervals(env)
        if not src:
            return []
        ref = self.reference.intervals(env)
        if not ref:
            return src if self.negate else []
        rstarts = np.asarray([iv[0] for iv in ref], dtype=np.int64)
        rends = np.asarray([iv[1] for iv in ref], dtype=np.int64)
        premax = np.maximum.accumulate(rends)
        out = []
        for iv in src:
            # overlap iff some ref has start <= iv.end and end >= iv.start
            j = int(np.searchsorted(rstarts, iv[1], side="right")) - 1
            hit = j >= 0 and premax[j] >= iv[0]
            if hit != self.negate:
                out.append(iv)
        return out

    def min_extent(self):
        return self.source.min_extent()

    def leaf_terms(self):
        return self.source.leaf_terms() | self.reference.leaf_terms()

    def doc_plan(self):
        if self.negate:
            return ("first", [self.source, self.reference])
        return ("and", [self.source, self.reference])


@dataclass(frozen=True)
class IvMultiTerm(IvSource):
    """MultiTermIntervalsSource (Intervals.prefix / Intervals.wildcard):
    expanded per segment by the searcher into IvOr of matching IvTerms;
    raises if the expansion exceeds max_expansions, like the reference."""

    kind: str  # 'prefix' | 'wildcard'
    pattern: str
    max_expansions: int = MAX_EXPANSIONS
    field: str | None = None

    def intervals(self, env):  # pragma: no cover - rewritten before eval
        raise RuntimeError("IvMultiTerm must be expanded against a segment first")

    def min_extent(self):
        return 1

    def leaf_terms(self):
        raise RuntimeError("IvMultiTerm must be expanded against a segment first")

    def doc_plan(self):
        return ("and", [self])


# ----------------------------------------------------------------- factories
# The Intervals.java surface.


def term(t: str) -> IvSource:
    return IvTerm(t)


def phrase(*subs) -> IvSource:
    return IvBlock(tuple(_coerce(s) for s in subs))


def ordered(*subs) -> IvSource:
    subs = _dedup_adjacent(tuple(_coerce(s) for s in subs))
    return subs[0] if len(subs) == 1 else IvOrdered(subs)


def unordered(*subs) -> IvSource:
    subs = _dedup_counts(tuple(_coerce(s) for s in subs))
    return subs[0] if len(subs) == 1 else IvUnordered(subs)


def unordered_no_overlaps(a, b) -> IvSource:
    return or_(ordered(a, b), ordered(b, a))


def or_(*subs) -> IvSource:
    subs = tuple(_coerce(s) for s in subs)
    return subs[0] if len(subs) == 1 else IvOr(subs)


def at_least(m: int, *subs) -> IvSource:
    subs = tuple(_coerce(s) for s in subs)
    if m > len(subs):
        raise ValueError(f"minimumShouldMatch > num sources ({m} > {len(subs)})")
    if m == len(subs):
        return unordered(*subs)
    return IvAtLeast(subs, m)


def maxgaps(gaps: int, sub) -> IvSource:
    return IvMaxGaps(_coerce(sub), gaps)


def maxwidth(width: int, sub) -> IvSource:
    return IvMaxWidth(_coerce(sub), width)


def extend(sub, before: int, after: int) -> IvSource:
    return IvExtend(_coerce(sub), before, after)


def containing(big, small) -> IvSource:
    return IvContaining(_coerce(big), _coerce(small))


def not_containing(minuend, subtrahend) -> IvSource:
    return IvContaining(_coerce(minuend), _coerce(subtrahend), negate=True)


def contained_by(small, big) -> IvSource:
    return IvContainedBy(_coerce(small), _coerce(big))


def not_contained_by(small, big) -> IvSource:
    return IvContainedBy(_coerce(small), _coerce(big), negate=True)


def overlapping(source, reference) -> IvSource:
    return IvOverlapping(_coerce(source), _coerce(reference))


def non_overlapping(minuend, subtrahend) -> IvSource:
    return IvOverlapping(_coerce(minuend), _coerce(subtrahend), negate=True)


def not_within(minuend, positions: int, subtrahend) -> IvSource:
    return non_overlapping(minuend, extend(subtrahend, positions, positions))


def within(source, positions: int, reference) -> IvSource:
    return contained_by(source, extend(reference, positions, positions))


_BEFORE_INF = 1 << 30  # Integer.MAX_VALUE analogue for extend() windows


def before(source, reference) -> IvSource:
    """Source intervals wholly before some reference interval (reference
    collapses to the point just before its start, extended back to 0)."""
    return contained_by(source, extend(_Offset(_coerce(reference), True), _BEFORE_INF, 0))


def after(source, reference) -> IvSource:
    return contained_by(source, extend(_Offset(_coerce(reference), False), 0, _BEFORE_INF))


def prefix(p: str, max_expansions: int = MAX_EXPANSIONS) -> IvSource:
    return IvMultiTerm("prefix", p, max_expansions)


def wildcard(pattern: str, max_expansions: int = MAX_EXPANSIONS) -> IvSource:
    return IvMultiTerm("wildcard", pattern, max_expansions)


def fix_field(fld: str, sub) -> IvSource:
    """Intervals.fixField: the wrapped source reads its positions from
    `fld` regardless of the query's field (FixedFieldIntervalsSource)."""

    def _rebind(s: IvSource) -> IvSource:
        if isinstance(s, IvTerm):
            return IvTerm(s.term, fld)
        if isinstance(s, IvMultiTerm):
            return IvMultiTerm(s.kind, s.pattern, s.max_expansions, fld)
        return _map_children(s, _rebind)

    return _rebind(_coerce(sub))


def _map_children(s: IvSource, fn) -> IvSource:
    """Rebuild a source with fn applied to every child source field."""
    import dataclasses

    kw = {}
    for f in dataclasses.fields(s):
        v = getattr(s, f.name)
        if isinstance(v, IvSource):
            kw[f.name] = fn(v)
        elif isinstance(v, tuple) and v and all(isinstance(x, IvSource) for x in v):
            kw[f.name] = tuple(fn(x) for x in v)
        else:
            kw[f.name] = v
    return type(s)(**kw)


@dataclass(frozen=True)
class _Offset(IvSource):
    """OffsetIntervalsSource: each reference interval collapses to the
    single position just before its start (before=True) / after its end."""

    sub: IvSource
    use_start: bool

    def intervals(self, env):
        # clamps at 0 and keeps duplicates, per TestIntervals.testOffsetIntervals
        out = []
        for s, e, w, g in self.sub.intervals(env):
            p = max(0, s - 1) if self.use_start else e + 1
            out.append((p, p, 1, 0))
        return out

    def min_extent(self):
        return 1

    def leaf_terms(self):
        return self.sub.leaf_terms()

    def doc_plan(self):
        return ("and", [self.sub])


def _coerce(s) -> IvSource:
    if isinstance(s, IvSource):
        return s
    if isinstance(s, str):
        return IvTerm(s)
    raise TypeError(f"not an IvSource: {s!r}")


# ------------------------------------------------------------------ scoring


def interval_freq(ivs: Iterable[tuple[int, int, int, int]], min_extent: int) -> float:
    """IntervalScorer.ensureFreq: float32 accumulation of
    1 / max(extent - minExtent + 1, 1)."""
    freq = np.float32(0.0)
    for s, e, _, _ in ivs:
        freq = np.float32(float(freq) + 1.0 / max((e - s + 1) - min_extent + 1, 1))
    return float(freq)


def saturation_score(freq: float, pivot: float, weight: float) -> float:
    """w * (1 - pivot / (pivot + freq)), float32 op order."""
    p = np.float32(pivot)
    f = np.float32(freq)
    return float(np.float32(weight) * (np.float32(1.0) - p / (p + f)))


def sigmoid_score(freq: float, pivot: float, a: float, weight: float) -> float:
    """w * freq^a / (freq^a + pivot^a), float32 result (powers in float64,
    as the reference precomputes pivot^a in double)."""
    fa = float(freq) ** a
    return float(np.float32(weight) * np.float32(fa / (fa + float(pivot) ** a)))
