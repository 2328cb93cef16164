"""Lucene/OpenSearch ``query_string`` mini-language over the engine.

The reference's search UI talks to OpenSearch, whose user-facing query
box is the Lucene ``query_string`` syntax (``hugo`` docs are queried
through it in production deployments of the reference stack).  This
module parses a practical subset of that grammar and lowers it onto
the engine's existing scorers — nothing here re-implements scoring;
every leaf delegates to the already-oracled kernels:

===================  =============================================
syntax               lowered onto
===================  =============================================
``a b``              bool should (Lucene ``BooleanQuery``)
``a AND b`` ``&&``   bool must
``a OR b`` ``||``    bool should (minimum_should_match = 1)
``NOT a`` ``!a``     bool must_not
``+a`` / ``-a``      must / must_not within the enclosing group
``"a b"`` ``~s``     phrase / sloppy phrase (``phrase.match_phrase`` /
                     ``match_phrase_slop``; Lucene phrase scoring:
                     one pseudo-term, ``tf = phrase_freq``,
                     ``idf = Σ idf(term_i)`` — ``phrase.phrase_topk``)
``term~`` ``~1``     fuzzy, Lucene ``SynonymQuery`` blending over the
                     expansions (``fuzzy.fuzzy_expand``; tf sum,
                     df max — the engine's documented fuzzy scoring)
``wi*d`` ``w?d``     wildcard, CONSTANT-SCORE rewrite (Lucene's
                     default for multi-term queries): boost per match
``term^2`` ``(…)^2`` boost — multiplies the clause's contribution
``( … )``            grouping
===================  =============================================

Grammar (clean precedence — Lucene's own parser has documented
position-dependent quirks around mixed ``a b AND c`` input; this
implementation uses the unambiguous ladder instead and documents the
divergence):

.. code-block:: text

    query   := or_expr
    or_expr := and_expr ((OR | adjacency when default_operator=or) and_expr)*
    and_expr:= unary    ((AND | adjacency when default_operator=and) unary)*
    unary   := (NOT | !) unary | (+ | -)? primary (^ boost)?
    primary := '(' query ')' | '"…"' (~slop)? | word (~edits?)?

Evaluation invariant: every node returns a dense ``(scores, match)``
pair with ``scores`` zeroed outside ``match`` — parents therefore sum
exactly the matching scoring clauses (modern Lucene: no coord).  A
bool group with only prohibited clauses matches nothing (Lucene
``BooleanQuery`` semantics).  Tombstoned docs are masked once at the
top.  Each leaf is a dense O(n_docs) TAAT pass over its postings —
per-doc-local with global statistics, so the sharded tier's disjoint
doc ranges compose it exactly.

Analysis: each bare word runs through the reader's analyzer chain
(the vocabulary lives in analyzer space); a word that analyzes to
multiple tokens becomes a phrase (Lucene's behavior for multi-token
analysis), a stopword-dropped word vanishes from the group.  Wildcard
and fuzzy patterns are lowercased but NOT analyzed (analyzers would
destroy the pattern) — Lucene's multi-term-query rule.

Final ranking keys are quantized to 1e-9 (the established oracle
trick) so a SQL replay's SUM association cannot flip near-ties.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "parse_query_string",
    "positive_terms",
    "query_string_topk",
    "QueryStringError",
]


class QueryStringError(ValueError):
    """Malformed query-string input (unbalanced parens, dangling
    operator, empty group…)."""


# ---------------------------------------------------------------- lexer

# a word stops before a '&&' / '||' operator run (Lucene treats them
# as operators even unspaced: 'cat&&dog' is cat AND dog) but a SINGLE
# '&' or '|' stays part of the word ('AT&T')
_WORD_RE = re.compile(r'(?:[^\s()"^~&|]|&(?!&)|\|(?!\|))+')
_QUOTED_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
_NUM_RE = re.compile(r"\d+(?:\.\d+)?")


def _lex(qs: str) -> list[tuple[str, object]]:
    """``(kind, value)`` tokens: LP RP AND OR NOT PLUS MINUS
    PHRASE(text, slop) WORD(text, fuzzy) CARET(float)."""
    out: list[tuple[str, object]] = []
    i, n = 0, len(qs)
    while i < n:
        c = qs[i]
        if c.isspace():
            i += 1
        elif c == "(":
            out.append(("LP", None))
            i += 1
        elif c == ")":
            out.append(("RP", None))
            i += 1
        elif c == "^":
            m = _NUM_RE.match(qs, i + 1)
            if not m:
                raise QueryStringError(f"'^' without a boost number at col {i}")
            out.append(("CARET", float(m.group())))
            i = m.end()
        elif c == "~":
            m = _NUM_RE.match(qs, i + 1)
            out.append(("TILDE", float(m.group()) if m else None))
            i = m.end() if m else i + 1
        elif c == '"':
            m = _QUOTED_RE.match(qs, i)
            if not m:
                raise QueryStringError(f"unterminated quote at col {i}")
            out.append(("PHRASE", m.group(1).replace('\\"', '"')))
            i = m.end()
        elif c == "+":
            out.append(("PLUS", None))
            i += 1
        elif c == "-":
            out.append(("MINUS", None))
            i += 1
        elif c == "!":
            out.append(("NOT", None))
            i += 1
        elif qs.startswith("&&", i):
            out.append(("AND", None))
            i += 2
        elif qs.startswith("||", i):
            out.append(("OR", None))
            i += 2
        else:
            m = _WORD_RE.match(qs, i)
            if not m:  # pragma: no cover — every char class is handled
                raise QueryStringError(f"cannot lex {qs[i:]!r}")
            w = m.group()
            if w == "AND":
                out.append(("AND", None))
            elif w == "OR":
                out.append(("OR", None))
            elif w == "NOT":
                out.append(("NOT", None))
            else:
                out.append(("WORD", w))
            i = m.end()
    return out


# ------------------------------------------------------------------ AST


@dataclass
class _Term:
    term: str
    boost: float = 1.0


@dataclass
class _Phrase:
    terms: list[str]
    slop: int = 0
    boost: float = 1.0


@dataclass
class _Fuzzy:
    token: str
    max_edits: int | None  # None → AUTO
    boost: float = 1.0


@dataclass
class _Wildcard:
    pattern: str
    boost: float = 1.0


@dataclass
class _Bool:
    must: list = field(default_factory=list)
    should: list = field(default_factory=list)
    must_not: list = field(default_factory=list)
    boost: float = 1.0


@dataclass
class _Range:
    """Stored-field predicate leaf (query-DSL ``range`` clauses —
    ``query/dsl.py``; the mini-language has no spelling for it).
    Matches docs whose docs-store ``col`` satisfies EVERY ``(op,
    value)`` bound; scores ``boost`` per match (OpenSearch scores
    range queries a constant 1.0 in query context).  Evaluated via
    ``reader.stored_mask`` — memoized per reader, shard-local on the
    sharded tier."""

    col: str
    bounds: list  # [(op, value), …] — op ∈ {>=, >, <=, <, ==, !=, exists}
    boost: float = 1.0


@dataclass
class _MatchAll:
    """Every live doc, constant score ``boost`` (OpenSearch
    ``match_all``).  Tombstones are masked once at the top by the
    callers, exactly like every other leaf."""

    boost: float = 1.0


@dataclass
class _Ids:
    """Constant-score membership on explicit doc ids (OpenSearch
    ``ids``).  Ids outside the corpus (or outside a shard's range)
    simply don't match — per-doc-local, so shards compose exactly."""

    ids: list  # global doc ids (ints)
    boost: float = 1.0


@dataclass
class _ConstScore:
    """OpenSearch ``constant_score``: the child contributes only its
    MATCH SET; every matching doc scores exactly ``boost``."""

    child: object
    boost: float = 1.0


@dataclass
class _DisMax:
    """Lucene DisjunctionMaxQuery: per doc, the best child's score
    plus ``tie_breaker`` × the sum of the other matching children;
    matches the union of the children.  Per-doc-local over dense
    child evaluations — shard-composable like ``_Bool``."""

    children: list
    tie_breaker: float = 0.0
    boost: float = 1.0


@dataclass
class _Boosting:
    """Lucene BoostingQuery (the query-DSL ``boosting`` clause): the
    positive child's matches and scores, demoted by ``negative_boost``
    wherever the negative child also matches — the negative side
    never gates membership."""

    positive: object
    negative: object
    negative_boost: float = 0.5
    boost: float = 1.0


@dataclass
class _FuncScore:
    """Query-DSL ``function_score`` with ONE exponential recency-decay
    function, ``boost_mode: multiply``: the child's scores multiply by
    ``exp(ln(decay)/scale_s · max(age_s, 0))`` where ``age_s = origin
    − doc[field]``.  Decay weights are per-doc over the reader's
    memoized ``stored_column`` slice — no per-query stored fetch, and
    shards compose exactly (global statistics, per-doc weights)."""

    child: object
    field: str
    origin: str  # ISO-8601
    scale_s: float
    decay: float = 0.5
    boost: float = 1.0


@dataclass
class _SpanNear:
    """Query-DSL ``span_near`` with ``in_order: false`` — Lucene
    SpanNearQuery over the position postings (``phrase.span_near``:
    one occurrence of each term inside a window of ``len(terms) +
    slop``, any order).  CONSTANT-SCORE per matching doc (documented
    divergence from Lucene's sloppy-freq span scoring — the engine's
    multi-term-rewrite convention).  ``in_order: true`` lowers to
    ``_Phrase`` (the ordered sloppy walk) instead."""

    terms: list
    slop: int = 0
    boost: float = 1.0


@dataclass
class _SpanFirst:
    """Query-DSL ``span_first``: the term occurs at a position < ``end``
    (``phrase.span_first`` — "in the first N words").  Constant-score,
    like the other span/multi-term rewrites."""

    term: str
    end: int
    boost: float = 1.0


@dataclass
class _MoreLikeThis:
    """Query-DSL ``more_like_this`` on ONE stored source doc: the MLT
    term-selection step (``mlt.select_mlt_terms`` — top tf·idf terms
    of the source) expands at evaluation time into a should-of-terms
    with the source excluded (an ``_Ids`` must_not) — exactly the
    ``query/mlt.py`` semantics.  Selection uses GLOBAL statistics and
    the shared docs store, so every shard expands identically and the
    cross-shard merge is exact."""

    doc_id: int
    max_query_terms: int = 25
    boost: float = 1.0


@dataclass
class _Regexp:
    """OpenSearch ``regexp`` query: anchored-regex term expansion
    (``fuzzy.regexp_terms`` — trigram-accelerated), CONSTANT-SCORE
    like ``_Wildcard`` (Lucene's multi-term rewrite)."""

    pattern: str
    boost: float = 1.0


@dataclass
class _IntervalsExpr:
    """``intervals`` queries that need REAL extent enumeration —
    ``all_of`` nesting and the interval ``filter`` rules (the plain
    ``match``/``any_of`` rules keep lowering onto the vectorized
    phrase/span kernels in ``query/dsl.py``).  ``rule`` is an extent
    AST from ``query/extents.py``; evaluation enumerates minimal
    intervals per candidate doc (candidates from the required-term
    posting intersection).  CONSTANT-SCORE per matching doc — the
    span family's multi-term-rewrite convention.  Per-doc-local, so
    doc-range shards compose exactly."""

    rule: object
    boost: float = 1.0


@dataclass
class _Knn:
    """k-NN vector clause (the OpenSearch k-NN plugin's ``knn``
    query) over a doc-aligned vector sidecar (``index/vectors.py``).
    Scores ``boost × (1 + cos) / 2`` — the OpenSearch ``cosinesimil``
    space function, positive for every stored vector so the engine's
    ``scores > 0`` conventions hold; docs without a vector never
    match.  Per-doc-local over the reader's memoized normalized
    matrix slice (``reader.vector_matrix``), so shard scores are
    identical to unsharded ones and the fleet's top-k merge is exact
    — the brute-force-exact serving baseline (O(range × dim) matmul
    per query per shard); the ANN ops (``ops/ann.py``/``ops/pq.py``)
    remain the sub-linear batch path."""

    name: str  # vector sidecar name (the DSL clause's field)
    vec: list  # query vector (floats)
    boost: float = 1.0


@dataclass
class _TermsSet:
    """OpenSearch ``terms_set``: a terms disjunction whose
    minimum-should-match is PER DOCUMENT — either a constant or read
    from a stored numeric column (``minimum_should_match_field``, the
    Lucene ``CoveringQuery``).  A doc matches when it contains at
    least ``max(1, msm)`` of the query terms (Lucene's disjunction
    iterator never yields zero-term docs, so msm ≤ 0 still requires
    one hit); docs whose msm column is NULL never match.  Scoring is
    the sum of the matching terms' BM25 contributions (CoveringQuery
    sums its matching sub-scorers).  Per-doc-local (postings decode +
    the reader's range-local stored column), so shard scores are
    identical to unsharded ones and the fleet merge is exact."""

    terms: list  # term-level: NOT analyzed, lowercased like `terms`
    msm_field: str | None = None
    msm_const: int | None = None
    boost: float = 1.0


@dataclass
class _RankFeature:
    """OpenSearch ``rank_feature``: score a POSITIVE stored numeric
    column through one of the plugin's three functions —
    ``saturation`` ``x/(x+pivot)``, ``log`` ``ln(scaling_factor+x)``,
    ``sigmoid`` ``x^e/(x^e+pivot^e)`` — typically as a ``bool.should``
    boost leg (quality / pagerank signals).  Matches docs whose value
    is present and > 0 (rank features are positive by contract; NULL
    never matches).  Divergence, documented: OpenSearch derives a
    default ``pivot`` from index statistics — here ``pivot`` (and
    ``scaling_factor``) are required explicitly, keeping every shard's
    scores identical without a stats round."""

    field: str
    fn: str  # saturation | log | sigmoid
    pivot: float = 1.0
    scaling_factor: float = 1.0
    exponent: float = 1.0
    boost: float = 1.0


@dataclass
class _DistanceFeature:
    """OpenSearch ``distance_feature`` (date/numeric proximity boost):
    ``boost × pivot / (pivot + |value − origin|)`` — 1·boost at the
    origin, halving at ``pivot`` away.  ``origin``/``pivot`` are epoch
    microseconds for timestamp columns (lowered from ISO-8601 +
    duration strings) or plain floats.  Matches docs whose column is
    present (NULL never matches).  Geo-point origins are refused at
    lowering (no geo mapping in this engine)."""

    field: str
    origin: float  # epoch us for timestamps, else the raw number
    pivot: float  # same units; > 0
    boost: float = 1.0


@dataclass
class _PhrasePrefix:
    """OpenSearch ``match_phrase_prefix``: the last term is a PREFIX
    expanded against the term dictionary at evaluation time (the
    dictionary is global — identical expansions on every shard).
    Scoring divergence, documented: each completed phrase scores as
    its own phrase pseudo-term and a doc sums over the expansions it
    contains (Lucene's MultiPhraseQuery pools positions into ONE
    phrase-frequency instead; ranks agree except when one doc holds
    several distinct completions).  Expansion order is dictionary
    order, capped at ``max_expansions`` (the OpenSearch default 50)."""

    terms: list  # analyzed tokens; the LAST one is the prefix
    max_expansions: int = 50
    boost: float = 1.0


class _Parser:
    def __init__(self, toks: list[tuple[str, object]], analyzer, default_operator: str):
        self.toks = toks
        self.pos = 0
        self.analyzer = analyzer
        self.default_and = default_operator == "and"
        # group-nesting guard: each '(' recurses ~4 frames
        # (_primary→_or→_and→_unary), so unbounded depth turns
        # "("*300 into a RecursionError 500 instead of the parser's
        # QueryStringError 400 contract
        self._depth = 0

    def _peek(self) -> str | None:
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def _take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    # (sign, node) — sign: "+", "-", "" (NOT folds into "-")
    def parse(self):
        node = self._or_expr()
        if self.pos != len(self.toks):
            raise QueryStringError(f"unexpected {self.toks[self.pos][0]} after query")
        return node

    def _or_expr(self):
        children = [self._and_expr()]
        while True:
            kind = self._peek()
            if kind == "OR":
                self._take()
                children.append(self._and_expr())
            elif not self.default_and and kind in (
                "WORD", "PHRASE", "LP", "PLUS", "MINUS", "NOT",
            ):
                children.append(self._and_expr())  # adjacency = OR
            else:
                break
        children = [c for c in children if c is not None]
        if not children:
            return None
        if len(children) == 1 and children[0][0] == "":
            return children[0][1]
        b = _Bool()
        for sign, node in children:
            (b.must if sign == "+" else b.must_not if sign == "-" else b.should).append(
                node
            )
        return b

    def _and_expr(self):
        """One AND chain → a single signed clause for the OR level."""
        first = self._unary()
        parts = [first]
        while True:
            kind = self._peek()
            if kind == "AND":
                self._take()
                parts.append(self._unary())
            elif self.default_and and kind in (
                "WORD", "PHRASE", "LP", "PLUS", "MINUS", "NOT",
            ):
                parts.append(self._unary())  # adjacency = AND
            else:
                break
        parts = [p for p in parts if p is not None]
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        b = _Bool()
        for sign, node in parts:
            (b.must_not if sign == "-" else b.must).append(node)
        # an all-negative AND chain stays a valid Bool — it simply
        # matches nothing (Lucene BooleanQuery semantics)
        return ("", b)

    def _unary(self):
        kind = self._peek()
        if kind in ("NOT",):
            self._take()
            inner = self._unary()
            if inner is None:
                raise QueryStringError("dangling NOT")
            sign, node = inner
            return ("-" if sign != "-" else "+", node)
        sign = ""
        if kind == "PLUS":
            self._take()
            sign = "+"
        elif kind == "MINUS":
            self._take()
            sign = "-"
        node = self._primary()
        if node is None:
            if sign:
                raise QueryStringError(f"dangling '{sign}'")
            return None
        # boost suffix
        if self._peek() == "CARET":
            _, boost = self._take()
            node.boost *= float(boost)
        return (sign, node)

    def _primary(self):
        kind = self._peek()
        if kind == "LP":
            self._take()
            self._depth += 1
            if self._depth > 100:
                raise QueryStringError("query nested too deeply (>100 groups)")
            inner = self._or_expr()
            self._depth -= 1
            if self._peek() != "RP":
                raise QueryStringError("unbalanced '('")
            self._take()
            if inner is None:
                raise QueryStringError("empty group '()'")
            return inner
        if kind == "PHRASE":
            _, text = self._take()
            slop = 0
            if self._peek() == "TILDE":
                _, val = self._take()
                slop = int(val or 0)
            terms = self.analyzer(text)
            if not terms:
                return None
            if len(terms) == 1:
                return _Term(terms[0])
            return _Phrase(terms, slop=slop)
        if kind == "WORD":
            _, w = self._take()
            if self._peek() == "TILDE":
                _, val = self._take()
                return _Fuzzy(w.lower(), None if val is None else int(val))
            if "*" in w or "?" in w:
                return _Wildcard(w.lower())
            toks = self.analyzer(w)
            if not toks:
                return None
            if len(toks) == 1:
                return _Term(toks[0])
            return _Phrase(toks, slop=0)
        raise QueryStringError(f"unexpected {kind or 'end of input'}")


def parse_query_string(qs, analyzer, default_operator: str = "or"):
    """Parse ``qs`` into the AST (``_Bool``/``_Term``/… nodes).
    ``analyzer`` maps raw text → token list (``functions.analyzer``).
    Raises :class:`QueryStringError` on malformed input or a query
    whose every clause analyzed away.

    ``qs`` may also be an OpenSearch JSON query-DSL object (a dict —
    ``query/dsl.py``); it lowers onto the same node types, so every
    caller of this function (dense eval, the sharded range eval,
    facet masks, highlight term extraction) serves DSL queries
    unchanged — a dict rides to the shard actors like a string."""
    if default_operator not in ("or", "and"):
        raise QueryStringError(f"default_operator must be 'or'|'and': {default_operator}")
    if isinstance(qs, dict):
        from .dsl import dsl_to_node

        node = dsl_to_node(qs, analyzer, default_operator)
    else:
        node = _Parser(_lex(qs), analyzer, default_operator).parse()
    if node is None:
        raise QueryStringError("query analyzed to no clauses")
    return node


def positive_terms(node) -> set[str]:
    """Analyzer-space terms from the SCORING (non-negated) branches —
    the highlightable set for a parsed query: ``_Term`` terms and
    ``_Phrase`` members from must/should subtrees; ``must_not``
    branches are skipped (a prohibited term never lights up in a
    snippet), fuzzy/wildcard/more_like_this leaves contribute nothing
    (their expansions are index-dependent — documented limitation)."""
    out: set[str] = set()
    if isinstance(node, _Term):
        out.add(node.term)
    elif isinstance(node, _Phrase):
        out.update(node.terms)
    elif isinstance(node, _Bool):
        for child in node.must:
            out |= positive_terms(child)
        for child in node.should:
            out |= positive_terms(child)
    elif isinstance(node, _PhrasePrefix):
        # the literal head terms highlight; the prefix's expansions
        # are index-dependent (the fuzzy/wildcard limitation)
        out.update(node.terms[:-1])
    elif isinstance(node, _DisMax):
        for child in node.children:
            out |= positive_terms(child)
    elif isinstance(node, (_ConstScore, _Boosting, _FuncScore)):
        out |= positive_terms(
            node.positive if isinstance(node, _Boosting) else node.child
        )
    elif isinstance(node, _SpanNear):
        out.update(node.terms)
    elif isinstance(node, _SpanFirst):
        out.add(node.term)
    elif isinstance(node, _TermsSet):
        out.update(node.terms)
    return out


# ------------------------------------------------------------ evaluator


def _phrase_prefix_bool(reader, node: _PhrasePrefix) -> _Bool:
    """Lower a ``_PhrasePrefix`` against THIS reader's (global) term
    dictionary: dictionary-order expansions of the last token, capped
    at ``max_expansions``; each completion becomes a phrase (or a bare
    term when the prefix is the only token) in one should-group."""
    exp = sorted(
        t for t, _ in reader.prefix_terms(node.terms[-1], limit=1 << 30)
    )[: node.max_expansions]
    head = node.terms[:-1]
    leaves = [
        _Phrase(head + [e]) if head else _Term(e) for e in exp
    ]
    return _Bool(should=leaves, boost=node.boost)


def _decay_weights(reader, node: _FuncScore) -> np.ndarray:
    """Per-doc exp-decay weights over the reader's doc range, from the
    memoized ``stored_column`` slice (one pruned scan per reader —
    corpus-wide weight state lives with the reader/shard).  Missing
    timestamps weigh 1.0 (OpenSearch: decay on a missing field is a
    no-op for that doc); future docs clamp to age 0."""
    import math

    ts = reader.stored_column(node.field).to_numpy(zero_copy_only=False)
    origin = np.datetime64(node.origin.replace("Z", ""), "s")
    age_s = (origin - ts.astype("datetime64[s]")).astype(np.float64)
    lam = math.log(node.decay) / float(node.scale_s)
    w = np.exp(lam * np.clip(age_s, 0.0, None))
    return np.where(np.isnan(w), 1.0, w)


def _span_match_mask(reader, node) -> np.ndarray:
    """Range-local bool mask for the span leaves (``_SpanNear`` /
    ``_SpanFirst``): position ``i`` is doc ``doc_lo + i``.  Both span
    kernels decode only the position blocks of the reader's doc range
    — O(a shard's share) of the positional data."""
    from .phrase import span_first, span_near

    lo = reader.doc_lo
    match = np.zeros(max(0, reader.doc_hi - lo), bool)
    if isinstance(node, _SpanNear):
        hits = span_near(reader, node.terms, node.slop)
    else:
        hits = span_first(reader, node.term, node.end)
    if hits:
        match[np.asarray([d for d, _ in hits], np.int64) - lo] = True
    return match


def _mlt_bool(reader, node: _MoreLikeThis) -> _Bool:
    """Lower a ``_MoreLikeThis`` against the reader: selected terms →
    should, source doc → must_not (never its own neighbor)."""
    from .mlt import select_mlt_terms

    terms = select_mlt_terms(
        reader, node.doc_id, max_query_terms=node.max_query_terms
    )
    return _Bool(
        should=[_Term(t) for t in terms],
        must_not=[_Ids([node.doc_id])],
        boost=node.boost,
    )


def _dis_max_combine(parts, n, tie: float, boost: float):
    """Fold child ``(scores, match)`` pairs into DisMax semantics."""
    best = np.zeros(n, np.float64)
    total = np.zeros(n, np.float64)
    match = np.zeros(n, bool)
    for s, m in parts:
        np.maximum(best, s, out=best)
        total += s
        match |= m
    scores = np.where(match, (best + tie * (total - best)) * boost, 0.0)
    return scores, match


def _eval_knn(reader, node: _Knn) -> tuple[np.ndarray, np.ndarray]:
    """Dense knn evaluation over the reader's doc range — identical
    code on the local reader and a shard reader because
    ``vector_matrix`` is range-sliced; the float32 row dot products
    are per-doc-local, so shard scores replay the unsharded ones
    bit-exactly (the cross-shard merge contract)."""
    V, valid = reader.vector_matrix(node.name)
    q = np.asarray(node.vec, np.float32)
    if V.shape[1] and len(q) != V.shape[1]:
        raise QueryStringError(
            f"knn vector dim {len(q)} != sidecar dim {V.shape[1]}"
        )
    qn = float(np.linalg.norm(q))
    if qn > 0:
        q = q / np.float32(qn)
    cos = (V @ q).astype(np.float64)
    scores = np.where(valid, node.boost * (1.0 + cos) / 2.0, 0.0)
    return scores, valid.copy()


def _eval_terms_set(reader, node: _TermsSet) -> tuple[np.ndarray, np.ndarray]:
    """The one kernel for :class:`_TermsSet` — per-doc term
    coverage count + summed BM25 of the present terms, then the
    per-doc (or constant) minimum-should-match gate.  Range-local by
    construction: postings decode only the reader's doc range and
    ``stored_column`` is already the shard's slice."""
    from .bm25 import _k_factor, bm25_idf

    lo, hi = reader.doc_lo, reader.doc_hi
    n_local = max(0, hi - lo)
    avgdl = reader.avgdl or 1.0
    counts = np.zeros(n_local, np.int64)
    scores = np.zeros(n_local, np.float64)
    for term in dict.fromkeys(node.terms):  # duplicates count once
        tp = reader.postings(term)
        if tp is None:
            continue
        ids, tfs = tp.decode_range(lo, hi)
        if not len(ids):
            continue
        loc = (ids - np.uint64(lo)).astype(np.int64)
        counts[loc] += 1
        idf = bm25_idf(reader.n_docs, tp.df)
        dl = np.asarray(reader.doclens[ids], np.float64)
        tf = tfs.astype(np.float64)
        scores[loc] += idf * tf / (tf + _k_factor(dl, avgdl, 1.2, 0.75))
    if node.msm_field is not None:
        import pyarrow as pa

        # NULL msm → NaN → the >= compare is False → the doc never
        # matches (a doc without the field can't state a requirement)
        req = (
            reader.stored_column(node.msm_field)
            .cast(pa.float64())
            .to_numpy(zero_copy_only=False)
        )
    else:
        req = float(node.msm_const)
    with np.errstate(invalid="ignore"):
        match = counts >= np.maximum(req, 1.0)
    scores = np.where(match, scores * node.boost, 0.0)
    return scores, match


def _feature_values(reader, field: str) -> np.ndarray:
    """Range-local float64 view of a stored numeric/timestamp column
    (timestamps → epoch microseconds); NULL → NaN, which every
    comparison below rejects — a doc without the feature never
    matches."""
    import pyarrow as pa

    col = reader.stored_column(field)
    if pa.types.is_timestamp(col.type):
        # normalize to µs FIRST — a ms/ns-unit column cast straight to
        # int64 would mis-scale distance_feature by 10³–10⁶
        col = col.cast(pa.timestamp("us")).cast(pa.int64())
    return col.cast(pa.float64()).to_numpy(zero_copy_only=False)


def _eval_feature(reader, node) -> tuple[np.ndarray, np.ndarray]:
    """Shared full/shard kernel for the stored-column scoring leaves
    (:class:`_RankFeature` / :class:`_DistanceFeature`) — per-doc-local
    arithmetic over the reader's (already range-local) column slice,
    so shard scores equal unsharded ones by construction."""
    x = _feature_values(reader, node.field)
    with np.errstate(invalid="ignore"):
        if isinstance(node, _DistanceFeature):
            match = ~np.isnan(x)
            scores = node.boost * node.pivot / (node.pivot + np.abs(x - node.origin))
        else:
            match = x > 0.0
            if node.fn == "log":
                scores = node.boost * np.log(node.scaling_factor + x)
            elif node.fn == "sigmoid":
                xe = x ** node.exponent
                scores = node.boost * xe / (xe + node.pivot ** node.exponent)
            else:  # saturation
                scores = node.boost * x / (x + node.pivot)
    return np.where(match, scores, 0.0), match


def _eval(reader, node) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``(scores float64[n_docs], match bool[n_docs])`` with
    scores zeroed outside match — see the module invariant."""
    from .bm25 import bm25_scores_dense

    n = reader.n_docs
    if isinstance(node, _Knn):
        return _eval_knn(reader, node)
    if isinstance(node, _TermsSet):
        return _eval_terms_set(reader, node)
    if isinstance(node, (_RankFeature, _DistanceFeature)):
        return _eval_feature(reader, node)
    if isinstance(node, _MatchAll):
        match = np.ones(n, bool)
        return np.full(n, node.boost, np.float64), match
    if isinstance(node, _Ids):
        match = np.zeros(n, bool)
        ids = np.asarray([i for i in node.ids if 0 <= int(i) < n], np.int64)
        match[ids] = True
        return np.where(match, node.boost, 0.0), match
    if isinstance(node, _ConstScore):
        _, match = _eval(reader, node.child)
        return np.where(match, node.boost, 0.0), match
    if isinstance(node, _DisMax):
        parts = [_eval(reader, c) for c in node.children]
        return _dis_max_combine(parts, n, node.tie_breaker, node.boost)
    if isinstance(node, _Boosting):
        scores, match = _eval(reader, node.positive)
        _, neg = _eval(reader, node.negative)
        scores = np.where(neg, scores * node.negative_boost, scores)
        return np.where(match, scores * node.boost, 0.0), match
    if isinstance(node, _PhrasePrefix):
        return _eval(reader, _phrase_prefix_bool(reader, node))
    if isinstance(node, _FuncScore):
        s, m = _eval(reader, node.child)
        s = np.where(m, s * _decay_weights(reader, node) * node.boost, 0.0)
        return s, m
    if isinstance(node, (_SpanNear, _SpanFirst)):
        match = _span_match_mask(reader, node)
        return np.where(match, node.boost, 0.0), match
    if isinstance(node, _IntervalsExpr):
        from .extents import eval_intervals

        match = np.zeros(n, bool)
        match[eval_intervals(reader, node.rule)] = True
        return np.where(match, node.boost, 0.0), match
    if isinstance(node, _MoreLikeThis):
        return _eval(reader, _mlt_bool(reader, node))
    if isinstance(node, _Term):
        scores = bm25_scores_dense(reader, [node.term]) * node.boost
        return scores, scores > 0.0
    if isinstance(node, _Phrase):
        from .phrase import match_phrase, match_phrase_slop

        hits = (
            match_phrase(reader, node.terms)
            if node.slop == 0
            else match_phrase_slop(reader, node.terms, slop=node.slop)
        )
        scores = np.zeros(n, np.float64)
        match = np.zeros(n, bool)
        if hits:
            from .bm25 import bm25_idf

            idf = sum(bm25_idf(n, reader.term_df(t)) for t in node.terms)
            avgdl = reader.avgdl or 1.0
            docs = np.array([d for d, _ in hits], np.int64)
            pf = np.array([f for _, f in hits], np.float64)
            dl = np.asarray(reader.doclens[docs], np.float64)
            scores[docs] = (
                node.boost * idf * pf / (pf + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))
            )
            match[docs] = True
        return scores, match
    if isinstance(node, _Fuzzy):
        from .bm25 import _k_factor, bm25_idf
        from .fuzzy import fuzzy_expand

        exp = fuzzy_expand(reader, node.token, max_edits=node.max_edits)
        scores = np.zeros(n, np.float64)
        tfacc = np.zeros(n, np.float64)
        dfmax = 0
        for term, _, df in exp:
            tp = reader.postings(term)
            if tp is None:
                continue
            ids, tfs = tp.decode_all()
            tfacc[ids] += tfs
            dfmax = max(dfmax, df)
        match = tfacc > 0.0
        if dfmax:
            docs = np.flatnonzero(match)
            tf = tfacc[docs]
            dl = np.asarray(reader.doclens[docs], np.float64)
            avgdl = reader.avgdl or 1.0
            scores[docs] = (
                node.boost
                * bm25_idf(n, dfmax)
                * tf
                / (tf + _k_factor(dl, avgdl, 1.2, 0.75))
            )
        return scores, match
    if isinstance(node, (_Wildcard, _Regexp)):
        from .facets import match_doc_ids
        from .fuzzy import regexp_terms, wildcard_terms

        exp = (
            wildcard_terms(reader, node.pattern)
            if isinstance(node, _Wildcard)
            else regexp_terms(reader, node.pattern)
        )
        terms = [t for t, _ in exp]
        match = np.zeros(n, bool)
        if terms:
            match[match_doc_ids(reader, terms)] = True
        scores = np.where(match, node.boost, 0.0)
        return scores, match
    if isinstance(node, _Range):
        match = np.ones(n, bool)
        for op, value in node.bounds:
            match &= reader.stored_mask(node.col, op, value)
        return np.where(match, node.boost, 0.0), match
    if isinstance(node, _Bool):
        scores = np.zeros(n, np.float64)
        if not node.must and not node.should:
            return scores, np.zeros(n, bool)  # only-prohibited → matches nothing
        match = np.ones(n, bool)
        for child in node.must:
            s, m = _eval(reader, child)
            scores += s
            match &= m
        if node.should:
            any_should = np.zeros(n, bool)
            for child in node.should:
                s, m = _eval(reader, child)
                scores += s
                any_should |= m
            if not node.must:
                match &= any_should  # pure-should bool needs ≥1 hit
        for child in node.must_not:
            _, m = _eval(reader, child)
            match &= ~m
        scores = np.where(match, scores * node.boost, 0.0)
        return scores, match
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


def _eval_range(reader, node) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_eval` restricted to the reader's doc-id range — the
    SHARD primitive: arrays are shard-sized (``hi - lo``, local index
    space) and every leaf decodes only its overlapping posting blocks
    (``decode_range`` / ``phrase.match_phrase``) while keeping GLOBAL
    statistics (n_docs, df, avgdl), so per-shard scores are identical
    to the unsharded ones and a cross-shard top-k merge is exact."""
    from .bm25 import _k_factor, bm25_idf

    lo, hi = reader.doc_lo, reader.doc_hi
    n_local = max(0, hi - lo)
    avgdl = reader.avgdl or 1.0
    if isinstance(node, _Knn):
        # vector_matrix is already the shard's slice — same kernel
        return _eval_knn(reader, node)
    if isinstance(node, _TermsSet):
        # range-local by construction — same kernel
        return _eval_terms_set(reader, node)
    if isinstance(node, (_RankFeature, _DistanceFeature)):
        # stored_column is already the shard's slice — same kernel
        return _eval_feature(reader, node)
    if isinstance(node, _MatchAll):
        match = np.ones(n_local, bool)
        return np.full(n_local, node.boost, np.float64), match
    if isinstance(node, _Ids):
        match = np.zeros(n_local, bool)
        ids = np.asarray(
            [int(i) - lo for i in node.ids if lo <= int(i) < hi], np.int64
        )
        match[ids] = True
        return np.where(match, node.boost, 0.0), match
    if isinstance(node, _ConstScore):
        _, match = _eval_range(reader, node.child)
        return np.where(match, node.boost, 0.0), match
    if isinstance(node, _DisMax):
        parts = [_eval_range(reader, c) for c in node.children]
        return _dis_max_combine(parts, n_local, node.tie_breaker, node.boost)
    if isinstance(node, _Boosting):
        scores, match = _eval_range(reader, node.positive)
        _, neg = _eval_range(reader, node.negative)
        scores = np.where(neg, scores * node.negative_boost, scores)
        return np.where(match, scores * node.boost, 0.0), match
    if isinstance(node, _PhrasePrefix):
        # the term dictionary is GLOBAL on a shard reader, so every
        # shard lowers to the identical expansion set
        return _eval_range(reader, _phrase_prefix_bool(reader, node))
    if isinstance(node, _FuncScore):
        s, m = _eval_range(reader, node.child)
        # stored_column is already range-local on a shard reader
        s = np.where(m, s * _decay_weights(reader, node) * node.boost, 0.0)
        return s, m
    if isinstance(node, (_SpanNear, _SpanFirst)):
        match = _span_match_mask(reader, node)
        return np.where(match, node.boost, 0.0), match
    if isinstance(node, _IntervalsExpr):
        from .extents import eval_intervals

        match = np.zeros(n_local, bool)
        docs = eval_intervals(reader, node.rule)
        match[docs - lo] = True
        return np.where(match, node.boost, 0.0), match
    if isinstance(node, _MoreLikeThis):
        # term selection reads the SHARED docs store with global
        # statistics — identical expansion on every shard
        return _eval_range(reader, _mlt_bool(reader, node))
    if isinstance(node, _Term):
        scores = np.zeros(n_local, np.float64)
        tp = reader.postings(node.term)
        if tp is not None:
            ids, tfs = tp.decode_range(lo, hi)
            if len(ids):
                idf = bm25_idf(reader.n_docs, tp.df)
                dl = np.asarray(reader.doclens[ids], np.float64)
                tf = tfs.astype(np.float64)
                scores[(ids - np.uint64(lo)).astype(np.int64)] = (
                    node.boost * idf * tf / (tf + _k_factor(dl, avgdl, 1.2, 0.75))
                )
        return scores, scores > 0.0
    if isinstance(node, _Phrase):
        from .phrase import match_phrase, match_phrase_slop

        if node.slop == 0:
            hits = match_phrase(reader, node.terms)
        else:
            hits = match_phrase_slop(reader, node.terms, slop=node.slop)
        scores = np.zeros(n_local, np.float64)
        match = np.zeros(n_local, bool)
        if hits:
            idf = sum(bm25_idf(reader.n_docs, reader.term_df(t)) for t in node.terms)
            docs = np.array([d for d, _ in hits], np.int64)
            pf = np.array([f for _, f in hits], np.float64)
            dl = np.asarray(reader.doclens[docs.astype(np.uint64)], np.float64)
            scores[docs - lo] = (
                node.boost * idf * pf / (pf + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))
            )
            match[docs - lo] = True
        return scores, match
    if isinstance(node, _Fuzzy):
        from .fuzzy import fuzzy_expand

        exp = fuzzy_expand(reader, node.token, max_edits=node.max_edits)
        tfacc = np.zeros(n_local, np.float64)
        dlarr = np.zeros(n_local, np.float64)
        dfmax = 0
        for term, _, df in exp:
            tp = reader.postings(term)
            if tp is None:
                continue
            ids, tfs = tp.decode_range(lo, hi)
            if len(ids):
                loc = (ids - np.uint64(lo)).astype(np.int64)
                tfacc[loc] += tfs
                dlarr[loc] = np.asarray(reader.doclens[ids], np.float64)
            dfmax = max(dfmax, df)
        match = tfacc > 0.0
        scores = np.zeros(n_local, np.float64)
        if dfmax:
            docs = np.flatnonzero(match)
            tf = tfacc[docs]
            scores[docs] = (
                node.boost
                * bm25_idf(reader.n_docs, dfmax)
                * tf
                / (tf + _k_factor(dlarr[docs], avgdl, 1.2, 0.75))
            )
        return scores, match
    if isinstance(node, (_Wildcard, _Regexp)):
        from .fuzzy import regexp_terms, wildcard_terms

        exp = (
            wildcard_terms(reader, node.pattern)
            if isinstance(node, _Wildcard)
            else regexp_terms(reader, node.pattern)
        )
        match = np.zeros(n_local, bool)
        for term, _ in exp:
            tp = reader.postings(term)
            if tp is not None:
                ids, _ = tp.decode_range(lo, hi)
                if len(ids):
                    match[(ids - np.uint64(lo)).astype(np.int64)] = True
        return np.where(match, node.boost, 0.0), match
    if isinstance(node, _Range):
        match = np.ones(n_local, bool)
        for op, value in node.bounds:
            # stored_mask is already doc-range-local on a shard reader
            match &= reader.stored_mask(node.col, op, value)
        return np.where(match, node.boost, 0.0), match
    if isinstance(node, _Bool):
        scores = np.zeros(n_local, np.float64)
        if not node.must and not node.should:
            return scores, np.zeros(n_local, bool)
        match = np.ones(n_local, bool)
        for child in node.must:
            s, m = _eval_range(reader, child)
            scores += s
            match &= m
        if node.should:
            any_should = np.zeros(n_local, bool)
            for child in node.should:
                s, m = _eval_range(reader, child)
                scores += s
                any_should |= m
            if not node.must:
                match &= any_should
        for child in node.must_not:
            _, m = _eval_range(reader, child)
            match &= ~m
        scores = np.where(match, scores * node.boost, 0.0)
        return scores, match
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


def _node_children(node) -> list[tuple[str, object]]:
    """(occur-role, child) pairs for the explanation tree."""
    if isinstance(node, _Bool):
        return (
            [("must", c) for c in node.must]
            + [("should", c) for c in node.should]
            + [("must_not", c) for c in node.must_not]
        )
    if isinstance(node, _DisMax):
        return [("query", c) for c in node.children]
    if isinstance(node, _ConstScore):
        return [("filter", node.child)]
    if isinstance(node, _FuncScore):
        return [("query", node.child)]
    if isinstance(node, _Boosting):
        return [("positive", node.positive), ("negative", node.negative)]
    return []


def _node_description(node) -> str:
    if isinstance(node, _Term):
        return f"term({node.term})"
    if isinstance(node, _Phrase):
        return f'phrase("{" ".join(node.terms)}"~{node.slop})'
    if isinstance(node, _Fuzzy):
        return f"fuzzy({node.token}~{node.max_edits if node.max_edits is not None else 'AUTO'})"
    if isinstance(node, _Wildcard):
        return f"wildcard({node.pattern})"
    if isinstance(node, _Regexp):
        return f"regexp({node.pattern})"
    if isinstance(node, _Range):
        return f"range({node.col} {' '.join(f'{op}{v}' for op, v in node.bounds)})"
    if isinstance(node, _MatchAll):
        return "match_all"
    if isinstance(node, _Knn):
        return f"knn({node.name}, dim={len(node.vec)})"
    if isinstance(node, _Ids):
        return f"ids({node.ids})"
    if isinstance(node, _ConstScore):
        return f"constant_score(boost={node.boost})"
    if isinstance(node, _DisMax):
        return f"dis_max(tie_breaker={node.tie_breaker})"
    if isinstance(node, _Boosting):
        return f"boosting(negative_boost={node.negative_boost})"
    if isinstance(node, _FuncScore):
        return (
            f"function_score(exp {node.field} scale={node.scale_s}s "
            f"decay={node.decay})"
        )
    if isinstance(node, _PhrasePrefix):
        return f'match_phrase_prefix("{" ".join(node.terms)}")'
    if isinstance(node, _MoreLikeThis):
        return f"more_like_this(doc {node.doc_id})"
    if isinstance(node, _SpanNear):
        return f"span_near({node.terms}~{node.slop})"
    if isinstance(node, _SpanFirst):
        return f"span_first({node.term} < {node.end})"
    if isinstance(node, _TermsSet):
        req = node.msm_field if node.msm_field is not None else node.msm_const
        return f"terms_set({node.terms} msm={req})"
    if isinstance(node, _RankFeature):
        return f"rank_feature({node.field} {node.fn})"
    if isinstance(node, _DistanceFeature):
        return f"distance_feature({node.field} pivot={node.pivot})"
    if isinstance(node, _Bool):
        return "bool"
    return type(node).__name__  # pragma: no cover


def explain_node(reader, node, doc_id: int, occur: str = "query") -> dict:
    """OpenSearch-style explanation TREE for one document against any
    parsed query_string / DSL node: each subtree reports its
    contribution (``value``), whether it matched, its occur role
    (must / should / must_not / filter / …) and its children.  Values
    come from the SAME dense evaluator that serves the query, so the
    root value equals the doc's real (unquantized) score by
    construction.  Cost is O(depth × n_docs) per call — an admin /
    debugging endpoint, never a hot path."""
    scores, match = _eval(reader, node)
    out = {
        "value": float(scores[doc_id]),
        "matched": bool(match[doc_id]),
        "occur": occur,
        "description": _node_description(node),
    }
    kids = _node_children(node)
    if kids:
        out["details"] = [
            explain_node(reader, c, doc_id, occur=role) for role, c in kids
        ]
    return out


def query_string_topk(
    reader,
    qs: str,
    k: int = 10,
    default_operator: str = "or",
    analyzer=None,
    after: tuple[float, int] | None = None,
) -> list[tuple[int, float]]:
    """Top-k ``(doc_id, score)`` for a ``query_string`` input — parse,
    lower onto the engine's scorers, one dense evaluation, tombstones
    masked, ranking key quantized 1e-9 (score desc, doc asc).
    ``after``: ``search_after`` cursor — the next ``k`` hits strictly
    after the ``(score, doc_id)`` a previous page returned."""
    from .bm25 import _zero_deleted

    if analyzer is None:
        from ..functions.analyzer import Analyzer

        analyzer = Analyzer(reader.chain)
    node = parse_query_string(qs, analyzer, default_operator)
    scores, match = _eval(reader, node)
    scores = _zero_deleted(reader, np.where(match, scores, 0.0))
    matched = np.flatnonzero(scores > 0.0)
    from .bm25 import rank_top_quantized

    return rank_top_quantized(scores, matched, k, after=after)

