"""Query-time highlighting: match offsets + snippet extraction.

The reference configures ``"term_vector": "with_positions_offsets"``
on every text field (``/root/reference/mappings/hugo.json:6,48,60``) so
OpenSearch can highlight hits.  This engine keeps postings lean
(term, doc, tf) and recovers offsets at query time by analyzing the
*one* document being rendered — the standard "plain highlighter"
trade-off: storing positions would grow every posting by ~4× to speed
up a per-hit operation that touches k ≤ 10 docs per query.

A hit's text is analyzed ONCE into a term vector — ``(stems, starts,
ends)``, the offsets-with-terms that OpenSearch stores at index time:
:func:`term_vector` tokenizes the stored text with character offsets
(the same tokenizer regex the analyzer chain uses: ``TOKEN_RE`` on the
raw text, or ``SIMPLE_RE`` on ``text.lower()`` for the ``simple`` and
``edge`` chains, like ``termvectors.analyze_with_spans``) and maps
each token through :meth:`Analyzer.normalize_all`.  A query's spans
are then the offsets whose normalized form is in its analyzed term set
(:func:`vector_spans`), with no per-token Python work.

Every entry point takes an :class:`Analyzer`, not a chain name.  Its
normalize memo is the chain's, shared by the whole process, so each
distinct surface token is stemmed once per process.  The serving path
(``search.fetch_rows``) keeps each hit's term vector in its reader's
decoded-docs cache, so a hit's text is analyzed once per reader: the
vectors live and die with their reader, inside its byte budget.
"""

from __future__ import annotations

import re
from array import array
from itertools import compress

from ..functions.analyzer import SIMPLE_RE, TOKEN_RE, Analyzer

__all__ = ["term_vector", "vector_spans", "match_spans", "highlight", "best_snippet"]

_group, _start, _end = re.Match.group, re.Match.start, re.Match.end


def term_vector(text: str, analyzer: Analyzer) -> tuple:
    """``(stems, starts, ends)``: each token's normalized form (a
    tuple) and its character offsets (``array("i")``)."""
    if analyzer.chain in ("simple", "edge"):
        # these chains tokenize the LOWERED text with [a-z0-9]+ (so
        # foo_bar holds two terms); offsets refer to text.lower(), the
        # same convention as the term-vector offsets
        ms = list(SIMPLE_RE.finditer(text.lower()))
    else:
        ms = list(TOKEN_RE.finditer(text))
    stems = analyzer.normalize_all(list(map(_group, ms)))
    return stems, array("i", map(_start, ms)), array("i", map(_end, ms))


def vector_spans(vector: tuple, query_terms: set[str]) -> list[tuple[int, int]]:
    """``[(start, end)]`` of a term vector's tokens in ``query_terms``."""
    stems, starts, ends = vector
    if query_terms.isdisjoint(stems):
        return []
    return list(compress(zip(starts, ends), map(query_terms.__contains__, stems)))


def match_spans(text: str, query_terms: set[str], analyzer: Analyzer):
    """``[(start, end)]`` character spans of tokens matching the query."""
    return vector_spans(term_vector(text, analyzer), query_terms)


def highlight(
    text: str,
    query: str,
    analyzer: Analyzer,
    pre: str = "<em>",
    post: str = "</em>",
) -> str:
    """Full text with every query-term occurrence wrapped."""
    terms = set(analyzer(query))
    out, last = [], 0
    for s, e in match_spans(text, terms, analyzer):
        out.append(text[last:s])
        out.append(pre + text[s:e] + post)
        last = e
    out.append(text[last:])
    return "".join(out)


def best_snippet(
    text: str,
    query: str,
    analyzer: Analyzer,
    width: int = 160,
    pre: str = "<em>",
    post: str = "</em>",
    terms: set[str] | None = None,
    vector: tuple | None = None,
) -> str:
    """The densest ``width``-char window of matches, highlighted —
    what a result page shows under each hit.  Pass ``terms`` to skip
    the analyzer and highlight a precomputed analyzer-space term set
    (the query_string path, where raw query text contains syntax and
    must_not terms that should NOT light up), and ``vector`` to match
    ``text``'s already-built :func:`term_vector` instead of analyzing
    it again."""
    if terms is None:
        terms = set(analyzer(query))
    if vector is None:
        spans = match_spans(text, terms, analyzer)
    else:
        spans = vector_spans(vector, terms)
    if not spans:
        return text[:width]
    # densest window: two-pointer over span starts
    best_i, best_j = 0, 0
    j = 0
    for i in range(len(spans)):
        if j < i:
            j = i
        while j + 1 < len(spans) and spans[j + 1][1] - spans[i][0] <= width:
            j += 1
        if j - i > best_j - best_i:
            best_i, best_j = i, j
    # center the densest run; a single match longer than width makes
    # the extent exceed width — clamp the margin at 0 so lo never lands
    # past the span start (which would skip the only highlight)
    extent = spans[best_j][1] - spans[best_i][0]
    lo = max(0, spans[best_i][0] - max(0, width - extent) // 2)
    hi = min(len(text), lo + width)
    window = text[lo:hi]
    out, last = [], 0
    for s, e in spans[best_i : best_j + 1]:
        # clip spans to the window: a match wider than the window still
        # gets (partial) markup instead of silently losing its highlight
        s, e = max(s - lo, 0), min(e - lo, len(window))
        if e <= s:
            continue
        out.append(window[last:s])
        out.append(pre + window[s:e] + post)
        last = e
    out.append(window[last:])
    prefix = "…" if lo > 0 else ""
    suffix = "…" if hi < len(text) else ""
    return prefix + "".join(out) + suffix
