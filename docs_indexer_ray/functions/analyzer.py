"""Analyzer chains re-creating the reference's OpenSearch configuration.

The reference configures (never codes) these analyzers:

* ``english`` on ``title`` / ``body`` / ``text.english``
  (``mappings/hugo.json:7,49,61``): standard tokenizer → english
  possessive filter → lowercase → english stop set → Porter stemmer.
* ``trigram``: standard tokenizer → lowercase → shingle(min=2, max=3)
  (``/root/reference/common.py:10-14,22-27``) — powers the phrase
  suggester over ``text.trigram``.
* ``reverse``: standard tokenizer → lowercase → reverse
  (``common.py:15-19``) — leading-wildcard suggestion over
  ``text.reverse``.
* the default ``standard`` analyzer on the bare ``text`` field:
  standard tokenizer → lowercase (no stop, no stem).

The standard tokenizer here is a close regex approximation of UAX#29
word segmentation as Lucene's StandardTokenizer applies it to
English/ASCII text: runs of word characters, with interior
apostrophes and dots kept (``don't``, ``3.14``, ``u.s.a``), hyphens
splitting.  The conformance oracle uses *this same* tokenizer, so
engine↔oracle rank-identity does not depend on matching Lucene's
automaton bit-for-bit.

``simple`` is an additional, SQL-replicable chain (``[a-z0-9]+`` on the
lowercased text) used by the driver-checked queries whose DuckDB
oracle must tokenize identically.
"""

from __future__ import annotations

import re

from .porter import porter_stem

__all__ = [
    "STOPWORDS_EN",
    "TOKEN_RE",
    "SIMPLE_RE",
    "tokenize_standard",
    "tokenize_simple",
    "strip_possessive",
    "analyze",
    "english_term",
    "Analyzer",
]

# Lucene's EnglishAnalyzer default stop set (33 words).
STOPWORDS_EN = frozenset(
    """a an and are as at be but by for if in into is it no not of on or
    such that the their then there these they this to was will with""".split()
)

# standard tokenizer approximation (see module docstring); public as
# TOKEN_RE for offset-aware consumers (highlighting) that must tokenize
# EXACTLY like the chains do
_TOKEN_RE = re.compile(r"\w+(?:['’.]\w+)*", re.UNICODE)
TOKEN_RE = _TOKEN_RE
_SIMPLE_RE = re.compile(r"[a-z0-9]+")
SIMPLE_RE = _SIMPLE_RE  # public for offset-aware consumers (termvectors)
_POSSESSIVE_RE = re.compile(r"['’][sS]$")


def tokenize_standard(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


def tokenize_simple(text: str) -> list[str]:
    """Lowercase ``[a-z0-9]+`` tokens — replicable in ANSI SQL."""
    return _SIMPLE_RE.findall(text.lower())


def strip_possessive(token: str) -> str:
    """EnglishPossessiveFilter: remove a trailing ``'s`` (either quote)."""
    return _POSSESSIVE_RE.sub("", token)


_MISS = object()

#: entries one chain's memo may hold (about 40 MB at worst): a memo that
#: reaches it is cleared before its next insert (racing threads may each
#: add one entry past it)
_MEMO_CAP = 1 << 18
# the process's memos, one dict per chain, shared by every Analyzer of
# that chain: surface token -> analysis output (stem, or None for a
# dropped token; only ``english`` uses it) and surface token ->
# normalize() output.  Both are pure functions of (chain, token).
_ANALYSIS: dict[str, dict] = {}
_NORMALIZE: dict[str, dict] = {}


def english_term(tok: str, memo: dict):
    """The english chain's output for ONE surface token — its stem, or
    None for a stopword or an empty stem — from ``memo``, computed and
    stored there on a miss: the chain's one token rule, shared by
    :func:`_analyze_english` and the offset-aware twin
    (``query/termvectors.analyze_with_spans``)."""
    r = memo.get(tok, _MISS)
    if r is _MISS:
        t = tok
        if "'" in t or "’" in t:  # regex only when it can match
            t = _POSSESSIVE_RE.sub("", t)
        t = t.lower()
        r = None if t in STOPWORDS_EN else (porter_stem(t) or None)
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[tok] = r
    return r


def _analyze_english(text: str, memo: dict) -> list[str]:
    """Hot path: ONE memo lookup per token occurrence — the memo maps
    the RAW surface token straight to its final output (stem, or None
    for stopwords/empties), so possessive-strip + lowercase + stop
    check + stemming run once per distinct surface form per process
    (:func:`english_term` on a miss)."""
    out = []
    append = out.append
    get = memo.get
    for tok in _TOKEN_RE.findall(text):
        r = get(tok, _MISS)
        if r is _MISS:
            r = english_term(tok, memo)
        if r is not None:
            append(r)
    return out


def _analyze_standard(text: str) -> list[str]:
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def _shingles(tokens: list[str], lo: int, hi: int) -> list[str]:
    out = []
    n = len(tokens)
    for size in range(lo, hi + 1):
        for i in range(n - size + 1):
            out.append(" ".join(tokens[i : i + size]))
    return out


def analyze(text: str, chain: str = "english") -> list[str]:
    """One-shot analysis; same output (and memo) as ``Analyzer(chain)``."""
    return Analyzer(chain)(text)


class Analyzer:
    """Callable analyzer over its chain's per-process memos.

    Every instance of a chain shares the module's memos for that chain,
    so a surface form is stemmed once per process whichever instance
    (a reader's, a per-call one, a Ray task's) meets it first; building
    an ``Analyzer`` is cheap.  A pickled instance rebinds to the
    unpickling process's memos.
    """

    CHAINS = ("english", "standard", "simple", "trigram", "reverse", "edge")

    def __init__(self, chain: str = "english"):
        if chain not in self.CHAINS:
            raise ValueError(f"unknown analyzer chain: {chain!r}")
        self.chain = chain
        self._cache: dict[str, str | None] = _ANALYSIS.setdefault(chain, {})
        # a separate dict from the analysis memo because stopwords
        # differ (None there, a stem here)
        self._norm: dict[str, str] = _NORMALIZE.setdefault(chain, {})

    def __reduce__(self):
        return (Analyzer, (self.chain,))

    def normalize(self, token: str) -> str:
        """Map ONE surface token to the analyzer-space form query terms
        are matched against (the highlighter's per-token step),
        memoized per chain and process: each distinct surface form is
        stemmed once.  Unlike analysis, stopwords are NOT dropped — they
        map to their stem, so a body ``are`` still lights up for a query
        ``ar``.  ``trigram``/``edge`` normalize to the lowered unigram:
        the chains emit it among their terms (edge n-grams include the
        full token up to length 15)."""
        memo = self._norm
        r = memo.get(token)
        if r is None:
            c = self.chain
            if c == "english":
                r = porter_stem(strip_possessive(token).lower())
            elif c == "reverse":
                r = token.lower()[::-1]
            else:  # standard / simple / trigram / edge
                r = token.lower()
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[token] = r
        return r

    def normalize_all(self, tokens: list[str]) -> tuple[str, ...]:
        """:meth:`normalize` of every token: one C-level pass over the
        memo, or the per-token path when any token misses."""
        try:
            return tuple(map(self._norm.__getitem__, tokens))
        except KeyError:
            return tuple(map(self.normalize, tokens))

    def __call__(self, text: str) -> list[str]:
        c = self.chain
        if c == "english":
            return _analyze_english(text, self._cache)
        if c == "standard":
            return _analyze_standard(text)
        if c == "simple":
            return _SIMPLE_RE.findall(text.lower())
        if c == "trigram":
            # shingle(min=2, max=3) per common.py:22-27; OpenSearch's
            # shingle filter also emits the unigrams by default
            toks = _analyze_standard(text)
            return toks + _shingles(toks, 2, 3)
        if c == "edge":
            # search_as_you_type: edge n-grams 2..15 of each simple
            # token (OpenSearch edge_ngram filter) — a typed prefix
            # becomes an EXACT term lookup in this chain's index;
            # SQL-replicable via substr + generate_series
            out = []
            for t in _SIMPLE_RE.findall(text.lower()):
                for g in range(2, min(15, len(t)) + 1):
                    out.append(t[:g])
            return out
        # reverse
        return [t[::-1] for t in _analyze_standard(text)]
