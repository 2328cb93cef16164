"""Minimal-interval (extent) algebra for the ``intervals`` query.

The reference exposes OpenSearch/Lucene's modern positional API; the
plain rules (``match``, ``any_of``) LOWER onto the engine's vectorized
phrase/span kernels (``query/dsl.py``).  ``all_of`` nesting and the
interval ``filter`` rules cannot be expressed as doc masks — they need
real extent enumeration (which *positions* matched, not just whether a
doc matched).  This module implements that algebra per doc, in the
minimal-interval semantics of Clarke/Cormack (and Vigna's "Efficient
optimally lazy algorithms for minimal-interval semantics"): every rule
evaluates to the set of intervals satisfying it from which no interval
properly contains another.

Semantics implemented (documented engine semantics — deterministic,
pinned by tests; Lucene's internal gap accounting differs in some
edge cases):

* ``term``            → one interval ``(p, p)`` per occurrence.
* ``match`` ordered   → for each start of the first term the greedy
  minimal chain (same walk as the sloppy phrase); ``gaps`` =
  ``span_width − n_terms``; keep ``gaps ≤ max_gaps`` when
  ``max_gaps ≥ 0`` (−1 = unlimited, the Lucene default).
* ``match`` unordered → minimal windows covering every term;
  same gap rule.
* ``any_of``          → union of the sub-sources' intervals, pruned
  to minimal.
* ``all_of`` ordered  → one interval per sub-source, in order and
  non-overlapping (each next interval starts strictly after the
  previous ends — Lucene's ordered combination); ``gaps`` = sum of
  inter-interval gaps.
* ``all_of`` unordered→ one interval per sub-source, any order,
  overlaps allowed; ``gaps`` = window width − |union of the chosen
  intervals| (positions inside the window covered by no sub).
* ``filter``          → relation predicates against the filter
  source's minimal intervals: ``containing``, ``contained_by``,
  ``not_containing``, ``not_contained_by``, ``overlapping``,
  ``not_overlapping``, ``before`` (source ends before some filter
  interval starts), ``after`` (source starts after some filter
  interval ends).  ``script`` filters are refused at lowering.

Cost shape: a VECTORIZED kernel prefilter (the slop-walk / span-near
kernels, whose doc-level semantics coincide with this algebra's leaf
rules — see :func:`_kernel_prefilter`) narrows the candidate set, and
for several rule shapes fully DECIDES it (exact prefilter → zero
per-doc work); undecided candidates run the SEGMENTED all-docs-at-
once evaluator (`_seg_eval` — every rule shape, including unordered
combines of any sub count via the merge-path replay).  No query pays
a per-doc Python loop; the scalar per-doc enumeration lives in the
test suite (``tests/extents_oracle.py``) as the randomized-test
ORACLE.
The common plain rules never reach this module at all — they lower
straight onto the same kernels.  Every decode reads the reader's doc
range ``[doc_lo, doc_hi)`` (a full reader is the one shard ``[0,
n_docs)``), and per-doc locality means doc-range shards compose
exactly, like every other positional leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExtTerm",
    "ExtMatch",
    "ExtAnyOf",
    "ExtAllOf",
    "ExtFilter",
    "eval_intervals",
    "collect_terms",
]


@dataclass
class ExtTerm:
    term: str


@dataclass
class ExtMatch:
    terms: list
    ordered: bool = False
    max_gaps: int = -1


@dataclass
class ExtAnyOf:
    subs: list = field(default_factory=list)


@dataclass
class ExtAllOf:
    subs: list = field(default_factory=list)
    ordered: bool = False
    max_gaps: int = -1


@dataclass
class ExtFilter:
    source: object
    relation: str  # containing | contained_by | not_* | overlapping | …
    filter: object


_NEGATIVE_RELATIONS = {"not_containing", "not_contained_by", "not_overlapping"}
_RELATIONS = _NEGATIVE_RELATIONS | {
    "containing", "contained_by", "overlapping", "before", "after",
}


def collect_terms(rule) -> set:
    """Every term mentioned anywhere in the rule (for postings decode)."""
    if isinstance(rule, ExtTerm):
        return {rule.term}
    if isinstance(rule, ExtMatch):
        return set(rule.terms)
    if isinstance(rule, (ExtAnyOf, ExtAllOf)):
        out = set()
        for s in rule.subs:
            out |= collect_terms(s)
        return out
    if isinstance(rule, ExtFilter):
        return collect_terms(rule.source) | collect_terms(rule.filter)
    raise TypeError(f"unknown extent rule {rule!r}")


def _kernel_prefilter(reader, rule) -> tuple:
    """``(doc_ids, exact)`` — docs of the reader's doc range that COULD
    hold an interval of ``rule``, computed by the VECTORIZED
    phrase/span kernels (never a per-doc Python pass).  ``exact=True``
    means membership is also SUFFICIENT, so the caller can skip the
    per-doc enumeration entirely:

    * ``term`` / ``match`` — the slop-walk / span-near kernels have
      exactly this algebra's gap rule (ordered: greedy chain with
      Σgaps ≤ max_gaps; unordered: window width − n_terms ≤ max_gaps,
      and distinct terms occupy distinct positions so uncovered =
      width − n_terms), hence EXACT;
    * ``any_of`` — union, exact iff every sub is;
    * ``all_of`` unordered with unlimited gaps — intersection is
      exact (any doc holding one interval per sub has a covering
      window); ordered / gap-capped all_of keeps intersection as a
      NECESSARY filter only;
    * ``filter`` — positive relations intersect source ∧ filter
      (necessary), negative ones keep the source's set; never exact.
    """
    from .phrase import match_phrase_slop, span_near

    def ids_of(hits):
        return np.array(sorted(d for d, _ in hits), np.int64)

    if isinstance(rule, ExtTerm):
        tp = reader.postings(rule.term)
        if tp is None:
            return np.empty(0, np.int64), True
        ids, _ = tp.decode_range(reader.doc_lo, reader.doc_hi)
        return np.asarray(ids, np.int64), True
    if isinstance(rule, ExtMatch):
        slop = rule.max_gaps if rule.max_gaps >= 0 else (1 << 30)
        if rule.ordered:
            hits = match_phrase_slop(reader, rule.terms, slop=slop)
        else:
            hits = span_near(reader, rule.terms, slop)
        return ids_of(hits), True
    if isinstance(rule, ExtAnyOf):
        out, exact = None, True
        for s in rule.subs:
            ids, ex = _kernel_prefilter(reader, s)
            exact &= ex
            out = ids if out is None else np.union1d(out, ids)
        return (out if out is not None else np.empty(0, np.int64)), exact
    if isinstance(rule, ExtAllOf):
        if (
            not rule.ordered
            and rule.max_gaps >= 0
            and all(isinstance(s, ExtTerm) for s in rule.subs)
            and len({s.term for s in rule.subs}) == len(rule.subs)
        ):
            # unordered all_of over DISTINCT single terms with a gap
            # cap IS span_near: point intervals at distinct positions
            # ⇒ uncovered = width − n_terms ≤ max_gaps ⇔ the window
            # rule — decide it with the vectorized kernel outright
            terms = [s.term for s in rule.subs]
            hits = span_near(reader, terms, rule.max_gaps)
            return ids_of(hits), True
        out, exact = None, True
        for s in rule.subs:
            ids, ex = _kernel_prefilter(reader, s)
            exact &= ex
            out = ids if out is None else np.intersect1d(
                out, ids, assume_unique=True
            )
            if out is not None and len(out) == 0:
                return out, True
        exact = exact and (not rule.ordered) and rule.max_gaps < 0
        return (out if out is not None else np.empty(0, np.int64)), exact
    if isinstance(rule, ExtFilter):
        src, _ = _kernel_prefilter(reader, rule.source)
        if rule.relation in _NEGATIVE_RELATIONS:
            return src, False
        flt, _ = _kernel_prefilter(reader, rule.filter)
        return np.intersect1d(src, flt, assume_unique=True), False
    raise TypeError(f"unknown extent rule {rule!r}")


_SHIFT = np.int64(34)  # (doc_rank << 34) | position — phrase.py's packing


def _seg_minimal(rank, s, e):
    """Segmented :func:`_minimal`: per-rank minimality in three numpy
    passes (lexsort → (rank,start) dedupe → keyed suffix-min of ends;
    cross-rank keys can't leak because a higher rank's key exceeds any
    same-rank key)."""
    if len(rank) == 0:
        return rank, s, e
    order = np.lexsort((e, s, rank))
    rank, s, e = rank[order], s[order], e[order]
    first = np.ones(len(rank), bool)
    first[1:] = (rank[1:] != rank[:-1]) | (s[1:] != s[:-1])
    rank, s, e = rank[first], s[first], e[first]
    keyed = (rank << _SHIFT) | e
    suffix = np.minimum.accumulate(keyed[::-1])[::-1]
    keep = np.ones(len(rank), bool)
    keep[:-1] = keyed[:-1] < suffix[1:]
    return rank[keep], s[keep], e[keep]


def _seg_ordered_combine(subs, max_gaps: int):
    """Segmented ordered combine (both ordered ``match`` and ordered
    ``all_of`` — a match is the all_of of its term leaves): one
    searchsorted chain per sub, exactly the `_slop_walk` shape, over
    EVERY candidate doc at once."""
    rank, s, e = subs[0]
    gaps = np.zeros(len(rank), np.int64)
    for br, bs, be in subs[1:]:
        if len(rank) == 0 or len(br) == 0:
            empty = np.empty(0, np.int64)
            return empty, empty, empty
        bkey = (br << _SHIFT) | bs
        q = (rank << _SHIFT) | (e + 1)
        idx = np.searchsorted(bkey, q)
        j = np.minimum(idx, len(bkey) - 1)
        ok = (idx < len(bkey)) & (br[j] == rank)
        gaps = gaps + np.where(ok, bs[j] - e - 1, 0)
        e = np.where(ok, be[j], e)
        rank, s, e, gaps = rank[ok], s[ok], e[ok], gaps[ok]
    if max_gaps >= 0 and len(rank):
        keep = gaps <= max_gaps
        rank, s, e = rank[keep], s[keep], e[keep]
    return _seg_minimal(rank, s, e)


def _seg_unordered(subs: list, max_gaps: int):
    """Segmented UNORDERED combine for ANY number of subs — the scalar
    min-window pointer sweep replayed as a merge path: at every step
    the sweep consumes the globally smallest remaining ``(start,
    sub-index)`` (ties advance the lowest index, matching the scalar
    ``argmin``), so its pointer states are exactly the per-sub prefix
    counts of the merged order, truncated at the first exhaustion.
    Window gap = width − |union of the m chosen intervals|, computed
    by an axis-1 argsort + one m-step coverage sweep (m is the rule's
    sub count — a handful — while N is candidate-scale)."""
    m = len(subs)
    if any(len(s[0]) == 0 for s in subs):
        empty = np.empty(0, np.int64)
        return empty, empty, empty
    rank = np.concatenate([s[0] for s in subs])
    start = np.concatenate([s[1] for s in subs])
    tag = np.concatenate([
        np.full(len(s[0]), i, np.int64) for i, s in enumerate(subs)
    ])
    order = np.lexsort((tag, start, rank))
    rank, tag = rank[order], tag[order]
    n = len(rank)
    seg_first = np.ones(n, bool)
    seg_first[1:] = rank[1:] != rank[:-1]
    # per-rank, per-sub prefix counts BEFORE each merged row = the
    # sweep's pointer state when that row is the next advance
    ptr = np.empty((n, m), np.int64)
    for i in range(m):
        is_i = (tag == i).astype(np.int64)
        cum = np.cumsum(is_i)
        base = np.maximum.accumulate(np.where(seg_first, cum - is_i, 0))
        ptr[:, i] = cum - is_i - base
    counts = np.empty((n, m), np.int64)
    bases = np.empty((n, m), np.int64)
    for i in range(m):
        ri = subs[i][0]
        lo = np.searchsorted(ri, rank, side="left")
        counts[:, i] = np.searchsorted(ri, rank, side="right") - lo
        bases[:, i] = lo
    ok = (ptr < counts).all(axis=1)
    rank = rank[ok]
    idx = bases[ok] + ptr[ok]          # (N, m) row index into each sub
    S = np.stack([subs[i][1][idx[:, i]] for i in range(m)], axis=1)
    E = np.stack([subs[i][2][idx[:, i]] for i in range(m)], axis=1)
    w_s = S.min(axis=1)
    w_e = E.max(axis=1)
    if max_gaps >= 0 and len(rank):
        # union coverage of the m chosen intervals per state: sort by
        # start along axis 1, then an m-step clipped accumulation
        o = np.argsort(S, axis=1)
        S2 = np.take_along_axis(S, o, 1)
        E2 = np.take_along_axis(E, o, 1)
        cov = np.zeros(len(rank), np.int64)
        cur_end = S2[:, 0] - 1
        for j in range(m):
            eff = np.maximum(S2[:, j], cur_end + 1)
            cov += np.maximum(0, E2[:, j] - eff + 1)
            cur_end = np.maximum(cur_end, E2[:, j])
        keep = (w_e - w_s + 1) - cov <= max_gaps
        rank, w_s, w_e = rank[keep], w_s[keep], w_e[keep]
    return _seg_minimal(rank, w_s, w_e)


def _seg_filter(src, rel: str, flt):
    """Segmented filter relations in O(1) searchsorted probes per
    source interval — correctness leans on per-rank MINIMALITY of the
    filter list (starts and ends both strictly increase within a
    rank, so 'the max end among starts ≤ x' is the end at the last
    such start, and so on)."""
    rank, s, e = src
    fr, fs, fe = flt
    if len(rank) == 0:
        return src
    n = len(fr)
    neg = rel in _NEGATIVE_RELATIONS
    base = rel[4:] if neg else rel
    if n == 0:
        hit = np.zeros(len(rank), bool)
    elif base == "containing":
        q = (rank << _SHIFT) | s
        fkey = (fr << _SHIFT) | fs
        idx = np.searchsorted(fkey, q)
        j = np.minimum(idx, n - 1)
        hit = (idx < n) & (fr[j] == rank) & (fs[j] <= e) & (fe[j] <= e)
    elif base == "contained_by":
        q = (rank << _SHIFT) | s
        fkey = (fr << _SHIFT) | fs
        idx = np.searchsorted(fkey, q, side="right") - 1
        j = np.maximum(idx, 0)
        hit = (idx >= 0) & (fr[j] == rank) & (fe[j] >= e)
    elif base == "overlapping":
        q = (rank << _SHIFT) | e
        fkey = (fr << _SHIFT) | fs
        idx = np.searchsorted(fkey, q, side="right") - 1
        j = np.maximum(idx, 0)
        hit = (idx >= 0) & (fr[j] == rank) & (fe[j] >= s)
    elif rel == "before":
        idx = np.searchsorted(fr, rank, side="right") - 1
        j = np.maximum(idx, 0)
        hit = (idx >= 0) & (fr[j] == rank) & (fs[j] > e)
    elif rel == "after":
        idx = np.searchsorted(fr, rank, side="left")
        j = np.minimum(idx, n - 1)
        hit = (idx < n) & (fr[j] == rank) & (fe[j] < s)
    else:
        raise ValueError(f"unknown interval filter relation {rel!r}")
    keep = ~hit if neg else hit
    return rank[keep], s[keep], e[keep]


def _seg_eval(rule, term_ivs):
    """Segmented evaluator: ``term_ivs[t]`` = that term's (rank, p)
    occurrence arrays over the candidate docs; returns (rank, s, e)
    minimal interval arrays for the whole rule."""
    if isinstance(rule, ExtTerm):
        r, p = term_ivs[rule.term]
        return r, p, p
    if isinstance(rule, ExtMatch):
        if len(rule.terms) == 1:
            r, p = term_ivs[rule.terms[0]]
            return r, p, p
        subs = [_seg_eval(ExtTerm(t), term_ivs) for t in rule.terms]
        if rule.ordered:
            return _seg_ordered_combine(subs, rule.max_gaps)
        return _seg_unordered(subs, rule.max_gaps)
    if isinstance(rule, ExtAnyOf):
        parts = [_seg_eval(x, term_ivs) for x in rule.subs]
        rank = np.concatenate([p[0] for p in parts])
        s = np.concatenate([p[1] for p in parts])
        e = np.concatenate([p[2] for p in parts])
        return _seg_minimal(rank, s, e)
    if isinstance(rule, ExtAllOf):
        subs = [_seg_eval(x, term_ivs) for x in rule.subs]
        if rule.ordered:
            return _seg_ordered_combine(subs, rule.max_gaps)
        return _seg_unordered(subs, rule.max_gaps)
    if isinstance(rule, ExtFilter):
        return _seg_filter(
            _seg_eval(rule.source, term_ivs),
            rule.relation,
            _seg_eval(rule.filter, term_ivs),
        )
    raise TypeError(f"unknown extent rule {rule!r}")


def eval_intervals(reader, rule) -> np.ndarray:
    """Matching GLOBAL doc ids of ``rule`` within the reader's doc range
    ``[doc_lo, doc_hi)``, tombstones excluded, ascending.

    Two phases: a VECTORIZED kernel prefilter narrows (and for several
    rule shapes fully decides — see :func:`_kernel_prefilter`) the
    candidate set; the undecided candidates run the segmented
    evaluator (:func:`_seg_eval`) all at once."""
    cand, exact = _kernel_prefilter(reader, rule)
    if len(cand) == 0:
        return cand
    if exact:
        out = cand
    else:
        terms = sorted(collect_terms(rule))
        decoded = {}
        for t in terms:
            tp = reader.postings(t)
            if tp is None:
                decoded[t] = (np.empty(0, np.int64), np.empty(0, np.int64),
                              np.zeros(1, np.int64))
                continue
            ids, _, flat, offs = tp.decode_range_positions(
                reader.doc_lo, reader.doc_hi
            )
            decoded[t] = (np.asarray(ids, np.int64),
                          np.asarray(flat, np.int64),
                          np.asarray(offs, np.int64))
        # ALL candidate docs at once: per-term (rank, position)
        # segment arrays → the segmented combiners — no per-doc
        # Python (same key-packing budget as the phrase walk)
        if len(cand) >= (1 << 29):
            raise ValueError(
                f"{len(cand)} candidate docs in one intervals "
                "evaluation — shard the query before the "
                "2^29-doc key limit"
            )
        from .phrase import _gather_segments

        term_ivs = {}
        for t in terms:
            ids, flat, offs = decoded[t]
            if len(ids) == 0:
                term_ivs[t] = (np.empty(0, np.int64),
                               np.empty(0, np.int64))
                continue
            j = np.searchsorted(ids, cand)
            jj = np.minimum(j, len(ids) - 1)
            present = ids[jj] == cand
            vals, row = _gather_segments(flat, offs, jj[present])
            ranks = np.flatnonzero(present).astype(np.int64)[row]
            term_ivs[t] = (ranks, vals.astype(np.int64))
        rks, _, _ = _seg_eval(rule, term_ivs)
        out = cand[np.unique(rks)]
    if reader.has_deletes:
        dels = reader.deleted_ids()
        j = np.searchsorted(dels, out)
        dead = (j < len(dels)) & (dels[np.minimum(j, len(dels) - 1)] == out)
        out = out[~dead]
    return out
